//! Criterion micro-benchmarks for the paper's overhead claims:
//! scheduling 3,200 instances "within 1.12 seconds" and per-instance
//! token-issue overhead "less than 1 ms". Two per-layer groups time the
//! simulator's innermost loop: one GPU engine step under RCKM, and the
//! idle-cycle catch-up replay with and without RCKM's early exit.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dilu_cluster::{
    ClusterView, FunctionId, FunctionKind, FunctionSpec, GpuView, Placement, Quotas,
};
use dilu_gpu::{
    GpuEngine, Grant, InstanceId, InstanceView, SharePolicy, SlotConfig, SmRate, StepOutcome,
    TaskClass, WorkItem, GB,
};
use dilu_models::ModelId;
use dilu_rckm::{RckmConfig, RckmPolicy};
use dilu_scheduler::{DiluScheduler, SchedulerConfig};
use dilu_sim::{SimDuration, SimTime};

fn empty_cluster(gpus: u32) -> ClusterView {
    ClusterView {
        gpus: (0..gpus)
            .map(|i| GpuView {
                addr: dilu_cluster::GpuAddr { node: i / 4, gpu: i % 4 },
                mem_capacity: 40 * GB,
                mem_reserved: 0,
                residents: Vec::new(),
            })
            .collect(),
    }
}

fn spec(id: u32) -> FunctionSpec {
    FunctionSpec {
        id: FunctionId(id),
        name: format!("f{id}"),
        model: ModelId::RobertaLarge,
        kind: FunctionKind::Inference { slo: SimDuration::from_millis(100), batch: 4 },
        quotas: Quotas::new(SmRate::from_percent(30.0), SmRate::from_percent(60.0), 4 * GB),
        gpus_per_instance: 1,
    }
}

/// The paper: "Dilu generates scheduling decisions for 3,200 instances
/// concurrently within 1.12 seconds" — here the full placement loop over a
/// 4,000-GPU view.
fn bench_scheduling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduling");
    group.sample_size(10);
    group.bench_function("schedule_3200_instances_4000_gpus", |b| {
        b.iter_batched(
            || (DiluScheduler::new(SchedulerConfig::default()), empty_cluster(4_000)),
            |(mut sched, view)| {
                for i in 0..3_200u32 {
                    let _ = sched.place(&spec(i), &view);
                }
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// Token issuing for a full 5 ms cycle on a GPU with 8 residents — must be
/// far below the 1 ms/instance the paper reports for scaling overhead.
fn bench_token_issue(c: &mut Criterion) {
    let views: Vec<InstanceView> = (0..8)
        .map(|i| InstanceView {
            id: InstanceId(i),
            class: if i % 2 == 0 { TaskClass::SloSensitive } else { TaskClass::BestEffort },
            request: SmRate::from_percent(20.0),
            limit: SmRate::from_percent(40.0),
            demand: SmRate::from_percent(30.0),
            queue_len: 2,
            blocks_last_quantum: 50,
            klc_inflation: if i == 0 { 0.8 } else { 0.1 },
            idle_quanta: 0,
        })
        .collect();
    c.bench_function("rckm_token_issue_8_instances", |b| {
        let mut policy = RckmPolicy::new(RckmConfig::default());
        b.iter(|| policy.allocate(SimTime::ZERO, SimDuration::from_millis(5), &views))
    });
}

/// A GPU with `residents` instances (alternating inference and training)
/// under a fresh RCKM token manager.
fn rckm_gpu(residents: u64) -> (GpuEngine, RckmPolicy) {
    let mut gpu = GpuEngine::new(40 * GB);
    for i in 0..residents {
        let class = if i % 2 == 0 { TaskClass::SloSensitive } else { TaskClass::BestEffort };
        let config = SlotConfig {
            class,
            request: SmRate::from_percent(20.0),
            limit: SmRate::from_percent(50.0),
            mem_bytes: 4 * GB,
        };
        gpu.admit(InstanceId(i + 1), config).expect("fits in memory");
    }
    (gpu, RckmPolicy::new(RckmConfig::default()))
}

/// One engine step (`step_into`: views, RCKM grants, contention
/// resolution, per-slot progress) with every resident busy.
fn bench_gpu_engine_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("gpu_engine_step");
    group.sample_size(20_000);
    for residents in [1u64, 2, 4] {
        let (mut gpu, mut policy) = rckm_gpu(residents);
        for i in 0..residents {
            // Long enough never to finish inside the timed steps.
            let item = WorkItem::compute(
                SimDuration::from_secs(3_600),
                SmRate::from_percent(40.0),
                1 << 40,
                i,
            );
            gpu.push_work(InstanceId(i + 1), item).expect("resident");
        }
        let mut out = StepOutcome::default();
        let mut now = SimTime::ZERO;
        group.bench_function(&format!("rckm_{residents}_busy"), |b| {
            b.iter(|| {
                gpu.step_into(now, &mut policy, &mut out);
                now += gpu.quantum();
                out.total_used
            })
        });
    }
    group.finish();
}

/// RCKM behind a wrapper that forwards everything except
/// `idle_converged`, so every replay runs to its cap: the full-replay
/// oracle the early exit is measured against.
struct FullReplay(RckmPolicy);

impl SharePolicy for FullReplay {
    fn allocate(
        &mut self,
        now: SimTime,
        quantum: SimDuration,
        views: &[InstanceView],
    ) -> Vec<Grant> {
        self.0.allocate(now, quantum, views)
    }

    fn allocate_into(
        &mut self,
        now: SimTime,
        quantum: SimDuration,
        views: &[InstanceView],
        out: &mut Vec<Grant>,
    ) {
        self.0.allocate_into(now, quantum, views, out);
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    fn idle_history_cycles(&self) -> u64 {
        self.0.idle_history_cycles()
    }
}

/// A 96-cycle idle catch-up on a 4-resident GPU right after a busy step,
/// the event core's idle→busy transition.
fn bench_idle_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("idle_replay");
    group.sample_size(2_000);
    let cycles = dilu_gpu::IDLE_HISTORY_CYCLES;
    let after_busy_step = || {
        let (mut gpu, mut policy) = rckm_gpu(4);
        for i in 0..4 {
            let item =
                WorkItem::compute(SimDuration::from_millis(2), SmRate::from_percent(20.0), 64, i);
            gpu.push_work(InstanceId(i + 1), item).expect("resident");
        }
        gpu.step(SimTime::ZERO, &mut policy);
        (gpu, policy)
    };
    let from = SimTime::ZERO + SimDuration::from_millis(5);
    group.bench_function("rckm_96_cycles_early_exit", |b| {
        b.iter_batched(
            after_busy_step,
            |(mut gpu, mut policy)| gpu.idle_fastforward(from, cycles, &mut policy),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("rckm_96_cycles_full", |b| {
        b.iter_batched(
            || {
                let (gpu, policy) = after_busy_step();
                (gpu, FullReplay(policy))
            },
            |(mut gpu, mut policy)| gpu.idle_fastforward(from, cycles, &mut policy),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_scheduling,
    bench_token_issue,
    bench_gpu_engine_step,
    bench_idle_replay
);
criterion_main!(benches);
