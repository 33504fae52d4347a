//! The `Placement` failure contract, checked on every shipped policy: a
//! `None` result changes no policy state (a repeat call is `None` again)
//! and stays `None` when residents are added. The cluster simulator parks
//! a function after a failed placement and relies on exactly this.

use dilu_cluster::{
    ClusterView, FunctionId, FunctionKind, FunctionSpec, GpuAddr, GpuView, Placement, Quotas,
    ResidentInfo,
};
use dilu_gpu::{SmRate, TaskClass, GB};
use dilu_models::ModelId;
use dilu_scheduler::{DiluScheduler, ExclusivePlacement, SchedulerConfig};
use dilu_sim::SimDuration;
use proptest::prelude::*;

/// Every placement configuration the repository composes: full Dilu, the
/// −WA and −RC ablations (and both), the γ=1 INFless+ setting, and the
/// exclusive baseline.
fn policies() -> Vec<Box<dyn Placement>> {
    let d = SchedulerConfig::default();
    let mut out: Vec<Box<dyn Placement>> = [
        d,
        SchedulerConfig { workload_affinity: false, ..d },
        SchedulerConfig { resource_complementary: false, ..d },
        SchedulerConfig { workload_affinity: false, resource_complementary: false, ..d },
        SchedulerConfig { workload_affinity: false, omega: 1.0, gamma: 1.0, ..d },
    ]
    .into_iter()
    .map(|c| Box::new(DiluScheduler::new(c)) as Box<dyn Placement>)
    .collect();
    out.push(Box::new(ExclusivePlacement::new()));
    out
}

fn func(id: u32, request_pct: u32, limit_extra_pct: u32, mem_gb: u64, gpus: u32) -> FunctionSpec {
    FunctionSpec {
        id: FunctionId(id),
        name: format!("f{id}"),
        model: ModelId::BertBase,
        kind: FunctionKind::Inference { slo: SimDuration::from_millis(50), batch: 4 },
        quotas: Quotas::new(
            SmRate::from_percent(f64::from(request_pct)),
            SmRate::from_percent(f64::from(request_pct + limit_extra_pct)),
            mem_gb * GB,
        ),
        gpus_per_instance: gpus,
    }
}

/// Adds one resident slice of `spec` to `gpu`.
fn settle(gpu: &mut GpuView, spec: &FunctionSpec) {
    gpu.mem_reserved += spec.quotas.mem_bytes;
    gpu.residents.push(ResidentInfo {
        func: spec.id,
        class: TaskClass::SloSensitive,
        request: spec.quotas.request,
        limit: spec.quotas.limit,
        mem_bytes: spec.quotas.mem_bytes,
    });
}

/// A cluster of `load.len()` GPUs; each `(func, request%, mem GB)` entry
/// with a non-zero request puts one resident slice on its GPU.
fn cluster(load: &[(u32, u32, u64)]) -> ClusterView {
    let gpus = load
        .iter()
        .enumerate()
        .map(|(i, &(f, req, mem))| {
            let mut g = GpuView {
                addr: GpuAddr { node: i as u32 / 4, gpu: i as u32 % 4 },
                mem_capacity: 40 * GB,
                mem_reserved: 0,
                residents: Vec::new(),
            };
            if req > 0 {
                settle(&mut g, &func(f, req, req / 2, mem, 1));
            }
            g
        })
        .collect();
    ClusterView { gpus }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn failed_placement_stays_failed_under_added_load(
        load_req in collection::vec(0u32..90, 1..9),
        load_mem in collection::vec(1u64..36, 8),
        request in 5u32..80,
        limit_extra in 0u32..60,
        mem in 1u64..30,
        width in 1u32..4,
        extra_gpu in collection::vec(0usize..8, 1..12),
        extra_req in collection::vec(1u32..40, 12),
        extra_lim in collection::vec(0u32..30, 12),
        extra_mem in collection::vec(1u64..12, 12),
    ) {
        // Residents belong to functions 1..=5 (`load` GPU i hosts function
        // i % 5 + 1), so the workload-affinity pass sees partners.
        let load: Vec<(u32, u32, u64)> =
            load_req.iter().zip(&load_mem).enumerate().map(|(i, (&r, &m))| (i as u32 % 5 + 1, r, m)).collect();
        let spec = func(1, request, limit_extra, mem, width);
        for mut policy in policies() {
            let mut view = cluster(&load);
            if policy.place(&spec, &view).is_some() {
                continue;
            }
            prop_assert!(policy.place(&spec, &view).is_none(),
                "{}: a repeat call on the same view placed {}", policy.name(), spec.id);
            for (i, &slot) in extra_gpu.iter().enumerate() {
                let n = view.gpus.len();
                let filler = func(6 + i as u32 % 3, extra_req[i], extra_lim[i], extra_mem[i], 1);
                settle(&mut view.gpus[slot % n], &filler);
                prop_assert!(policy.place(&spec, &view).is_none(),
                    "{}: adding load made {} placeable", policy.name(), spec.id);
            }
        }
    }
}
