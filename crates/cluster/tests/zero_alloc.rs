//! Steady-state allocation discipline: once the event core is warm, wakes
//! run out of reused scratch — policy grant buffers, request-vector pools,
//! the tag slab, inline deadlines, wheel buckets — and the dispatch/step/
//! merge path stops allocating.
//!
//! A counting global allocator measures a warm window of simulated time.
//! The bounds are not literally zero because observability is allowed to
//! grow (timeline points, latency samples, metric series double their
//! backing storage occasionally), but they are orders of magnitude below
//! one allocation per wake: the old per-wake `Vec`/map-node churn would
//! blow through them in the first few simulated milliseconds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dilu_cluster::{
    named, ClusterSim, ClusterSpec, ClusterView, ElasticityController, FunctionId, FunctionKind,
    FunctionScaleView, FunctionSpec, GpuAddr, Placement, PolicyFactory, Quotas, ScaleAction,
    SimConfig,
};
use dilu_gpu::policies::FairSharePolicy;
use dilu_gpu::SmRate;
use dilu_models::ModelId;
use dilu_sim::SimTime;
use dilu_workload::{ArrivalProcess, PoissonProcess};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic
// increment with no further allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

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

#[test]
fn warm_event_core_wakes_are_allocation_free() {
    // --- training lane: continuous GPU work, no arrivals, no latency
    // samples. After warm-up the only permitted growth is the sampled
    // metric series, a handful of vector doublings over ten seconds.
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(2),
        SimConfig::default(),
        Box::new(FirstFit),
        Box::new(NullScaler),
        &fair_factory(),
    );
    let model = ModelId::BertBase;
    sim.deploy_training(FunctionSpec {
        id: FunctionId(1),
        name: "steady-train".into(),
        model,
        kind: FunctionKind::Training { workers: 2, iterations: 100_000 },
        quotas: Quotas::equal(SmRate::from_percent(60.0), model.profile().training.mem_bytes),
        gpus_per_instance: 1,
    })
    .unwrap();
    sim.run_until(SimTime::from_secs(5));
    let before = allocs();
    sim.run_until(SimTime::from_secs(15));
    let train_window = allocs() - before;
    // Ten simulated seconds = 2,000 busy quanta stepped. One allocation
    // per wake (the old policy-grant Vec alone) would cost 2,000+.
    assert!(
        train_window < 200,
        "steady-state training window allocated {train_window} times \
         (expected a few dozen from sampled series growth)"
    );

    // --- inference lane: steady Poisson arrivals through batching,
    // dispatch, completion, and latency recording. The wake path itself is
    // allocation-free; what remains is the 1 Hz controller tick, which
    // still builds small headroom maps and per-function scale views (~10
    // short-lived allocations per tick, 70 ticks in this window), plus
    // occasional sample/latency-series doublings. The budget scales with
    // ticks, not with the ~14,000 wakes in the window.
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(2),
        SimConfig::default(),
        Box::new(FirstFit),
        Box::new(NullScaler),
        &fair_factory(),
    );
    let spec_model = ModelId::RobertaLarge;
    let profile = spec_model.profile();
    let sat = profile.inference_sat(4);
    let arrivals = PoissonProcess::new(50.0, 11).generate(SimTime::from_secs(75));
    sim.deploy_inference(
        FunctionSpec {
            id: FunctionId(2),
            name: "steady-infer".into(),
            model: spec_model,
            kind: FunctionKind::Inference { slo: profile.slo, batch: 4 },
            quotas: Quotas::new(sat, sat.scale(2.0), profile.infer_mem_bytes),
            gpus_per_instance: 1,
        },
        1,
        arrivals,
    )
    .unwrap();
    sim.run_until(SimTime::from_secs(5));
    let before = allocs();
    sim.run_until(SimTime::from_secs(75));
    let infer_window = allocs() - before;
    assert!(
        infer_window < 1_000,
        "steady-state inference window allocated {infer_window} times \
         (expected ~10 per controller tick plus occasional series doublings)"
    );
}
