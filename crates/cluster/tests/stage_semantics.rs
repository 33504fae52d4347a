//! Pins the non-network per-stage time semantics of `push_stage_item`
//! (`crates/cluster/src/dispatch.rs`) before the byte-based network
//! transfer path exists alongside it. The frozen rules:
//!
//! * every stage of a `stages`-deep pipeline runs for
//!   `t_total / stages + stage_transfer.min(t_total)` — integer-truncating
//!   division (remainder microseconds are *dropped*, not rounded) plus the
//!   constant activation-transfer cost clamped at `t_total`;
//! * a finished intermediate stage hands off to the next GPU at the next
//!   quantum-grid instant (work is queued during the completion handler
//!   and picked up at the following token cycle), while the *final* stage
//!   completes at its exact block-finish instant;
//! * both time models agree byte-for-byte on all of it.
//!
//! So a solo request admitted at t=0 completes at
//! `c_1 = t_stage`, `c_k = grid_ceil(c_{k-1}) + t_stage` — the closed form
//! `expected_latency` below. Scenarios without a `[network]` section must
//! reproduce these numbers forever.

use dilu_cluster::{
    named, ClusterSim, ClusterSpec, ClusterView, ElasticityController, FunctionId, FunctionKind,
    FunctionScaleView, FunctionSpec, GpuAddr, Placement, PolicyFactory, Quotas, ScaleAction,
    SimConfig, TimeModel,
};
use dilu_gpu::policies::FairSharePolicy;
use dilu_gpu::SmRate;
use dilu_models::ModelId;
use dilu_sim::{SimDuration, SimTime};

/// Places on the first GPUs with enough free memory (one per stage).
struct FirstFit;

impl Placement for FirstFit {
    fn place(&mut self, func: &FunctionSpec, cluster: &ClusterView) -> Option<Vec<GpuAddr>> {
        let mut chosen = Vec::new();
        for gpu in &cluster.gpus {
            if gpu.mem_free() >= func.quotas.mem_bytes && !chosen.contains(&gpu.addr) {
                chosen.push(gpu.addr);
                if chosen.len() as u32 == func.gpus_per_instance {
                    return Some(chosen);
                }
            }
        }
        None
    }

    fn name(&self) -> &str {
        "first-fit"
    }
}

struct NullScaler;

impl ElasticityController for NullScaler {
    fn on_tick(
        &mut self,
        _now: SimTime,
        _functions: &[FunctionScaleView],
        _cluster: &ClusterView,
    ) -> Vec<ScaleAction> {
        Vec::new()
    }

    fn name(&self) -> &str {
        "null"
    }
}

fn fair_factory() -> impl PolicyFactory {
    named("fair-share", || Box::new(FairSharePolicy))
}

/// Serves exactly one request through a `stages`-deep LLaMA2-7B pipeline
/// at full quota and returns its end-to-end latency. Batch size 1 and a
/// single arrival at t=0 remove batching waits and queueing, so the
/// latency is the pipeline's pure service time.
fn solo_latency(stages: u32, stage_transfer: SimDuration, time_model: TimeModel) -> SimDuration {
    let model = ModelId::Llama2_7b;
    let profile = model.profile();
    let spec = FunctionSpec {
        id: FunctionId(1),
        name: "llama-pipe".into(),
        model,
        kind: FunctionKind::Inference { slo: profile.slo, batch: 1 },
        quotas: Quotas::new(
            SmRate::from_percent(40.0),
            SmRate::from_percent(80.0),
            profile.infer_mem_bytes / u64::from(stages),
        ),
        gpus_per_instance: stages,
    };
    let config = SimConfig { stage_transfer, time_model, ..SimConfig::default() };
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(4),
        config,
        Box::new(FirstFit),
        Box::new(NullScaler),
        &fair_factory(),
    );
    sim.deploy_inference(spec, 1, vec![SimTime::ZERO]).unwrap();
    sim.run_until(SimTime::from_secs(60));
    let report = sim.into_report();
    let f = &report.inference[&FunctionId(1)];
    assert_eq!(f.completed, 1, "the single request must complete");
    f.latency.quantile(1.0)
}

/// LLaMA2-7B at batch 1: `inference_t_min(1)` = 350 ms fixed + 60 ms per
/// sample = 410 ms. Every expected value below derives from this.
const T_TOTAL_US: u64 = 410_000;
const QUANTUM_US: u64 = 5_000;

/// The frozen closed form: per-stage time is `t_total / stages`
/// (truncating) plus the clamped transfer constant; intermediate handoffs
/// align up to the quantum grid; the last stage finishes exactly.
fn expected_latency(stages: u64, transfer_us: u64) -> SimDuration {
    let t_stage = T_TOTAL_US / stages + transfer_us.min(T_TOTAL_US);
    let mut finish = t_stage;
    for _ in 1..stages {
        finish = finish.div_ceil(QUANTUM_US) * QUANTUM_US + t_stage;
    }
    SimDuration::from_micros(finish)
}

#[test]
fn closed_form_pins_every_stage_count_and_transfer() {
    for time_model in [TimeModel::EventDriven, TimeModel::DenseQuantum] {
        for stages in [1u64, 2, 3, 4] {
            // 2 ms (sub-quantum), 5 ms (grid-aligned), 7 ms (off-grid):
            // handoff alignment must match the closed form in all regimes.
            for transfer_us in [0u64, 2_000, 5_000, 7_000] {
                let observed =
                    solo_latency(stages as u32, SimDuration::from_micros(transfer_us), time_model);
                assert_eq!(
                    observed,
                    expected_latency(stages, transfer_us),
                    "stages={stages} transfer={transfer_us}us ({time_model:?})"
                );
            }
        }
    }
}

#[test]
fn stage_division_truncates_toward_zero() {
    // 410 000 µs over 3 stages is 136 666.67 µs: the truncating division
    // gives 136 666 µs per stage and *drops* the remainder. With grid
    // handoffs at 140 000 and 280 000 the last stage finishes at
    // 416 666 µs — one µs earlier than round-to-nearest would give.
    let observed = solo_latency(3, SimDuration::ZERO, TimeModel::EventDriven);
    assert_eq!(observed, SimDuration::from_micros(416_666));
    assert_eq!(expected_latency(3, 0), SimDuration::from_micros(416_666));
}

#[test]
fn stage_transfer_clamps_at_t_total() {
    // A transfer constant larger than the whole batch's compute time is
    // clamped per stage to `t_total` (`stage_transfer.min(t_total)` in
    // push_stage_item): 410 ms, 10 s, and 1 h all behave identically.
    for time_model in [TimeModel::EventDriven, TimeModel::DenseQuantum] {
        let at_t_total = solo_latency(4, SimDuration::from_micros(T_TOTAL_US), time_model);
        assert_eq!(at_t_total, expected_latency(4, T_TOTAL_US), "{time_model:?}");
        for oversized in [SimDuration::from_secs(10), SimDuration::from_secs(3600)] {
            let clamped = solo_latency(4, oversized, time_model);
            assert_eq!(
                clamped, at_t_total,
                "oversized {oversized} must clamp to t_total ({time_model:?})"
            );
        }
    }
}

#[test]
fn both_time_models_agree_on_stage_semantics() {
    for stages in [1, 3, 4] {
        for transfer in [SimDuration::ZERO, SimDuration::from_millis(7)] {
            let dense = solo_latency(stages, transfer, TimeModel::DenseQuantum);
            let event = solo_latency(stages, transfer, TimeModel::EventDriven);
            assert_eq!(dense, event, "stages={stages} transfer={transfer}: models must agree");
        }
    }
}
