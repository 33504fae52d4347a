//! Parked demand: on a full cluster, a starved function's scale-out asks
//! placement once, then waits for the capacity epoch to move (an instance
//! terminating) before asking again.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use dilu_cluster::{
    named, ClusterSim, ClusterSpec, ClusterView, ElasticityController, FunctionId, FunctionKind,
    FunctionScaleView, FunctionSpec, GpuAddr, Placement, Quotas, ScaleAction, SimConfig, TimeModel,
};
use dilu_gpu::policies::FairSharePolicy;
use dilu_gpu::{SmRate, GB};
use dilu_models::ModelId;
use dilu_sim::{SimDuration, SimTime};

/// Every `place` call: the second of the controller tick it happened in
/// (deployment, before any tick, counts as 0 like the first tick), which
/// function asked, and whether it was placed.
type CallLog = Rc<RefCell<Vec<(u64, FunctionId, bool)>>>;

/// One instance per GPU (the exclusive rule), logging every call.
struct CountingExclusive {
    log: CallLog,
    tick: Rc<Cell<u64>>,
}

impl Placement for CountingExclusive {
    fn place(&mut self, func: &FunctionSpec, cluster: &ClusterView) -> Option<Vec<GpuAddr>> {
        let placed = cluster.gpus.iter().find(|g| !g.occupied()).map(|g| vec![g.addr]);
        self.log.borrow_mut().push((self.tick.get(), func.id, placed.is_some()));
        placed
    }

    fn name(&self) -> &str {
        "counting-exclusive"
    }
}

const HOLDER: FunctionId = FunctionId(0);
const STARVED: u32 = 4;
/// The tick (in seconds) that scales the holder in, freeing the only GPU.
const FREE_AT: u64 = 5;

/// Asks for two instances of every function that has none, every tick,
/// and drains the holder at [`FREE_AT`].
struct Greedy {
    tick: Rc<Cell<u64>>,
}

impl ElasticityController for Greedy {
    fn on_tick(
        &mut self,
        now: SimTime,
        functions: &[FunctionScaleView],
        _cluster: &ClusterView,
    ) -> Vec<ScaleAction> {
        self.tick.set(now.as_secs());
        let mut actions = Vec::new();
        if now.as_secs() == FREE_AT {
            actions.push(ScaleAction::ScaleIn { func: HOLDER, count: 1 });
        }
        for f in functions {
            if f.func != HOLDER && f.ready_instances + f.starting_instances == 0 {
                actions.push(ScaleAction::ScaleOut { func: f.func, count: 2 });
            }
        }
        actions
    }

    fn name(&self) -> &str {
        "greedy"
    }
}

fn spec(id: u32) -> FunctionSpec {
    let profile = ModelId::BertBase.profile();
    FunctionSpec {
        id: FunctionId(id),
        name: format!("f{id}"),
        model: ModelId::BertBase,
        kind: FunctionKind::Inference { slo: profile.slo, batch: 4 },
        quotas: Quotas::equal(SmRate::from_percent(50.0), 2 * GB),
        gpus_per_instance: 1,
    }
}

/// Every scale-out attempt of the run as `(tick, func, placed, reaches
/// placement)`. Ticks 0–5: each starved function tries twice; only its
/// very first try reaches placement, the rest are parked. The holder is
/// reaped after the 5 s tick, so at 6 s every parked function retries once
/// in id order: f1 takes the GPU, its second try and everyone else fail
/// and park again, and nothing reaches placement afterwards.
fn attempts() -> Vec<(u64, FunctionId, bool, bool)> {
    let mut out = vec![(0, HOLDER, true, true)];
    for tick in 0..10 {
        for f in (1..=STARVED).map(FunctionId) {
            let tries = match tick {
                0 => [(false, true), (false, false)],
                6 if f == FunctionId(1) => [(true, true), (false, true)],
                6 => [(false, true), (false, false)],
                _ if f == FunctionId(1) && tick > 6 => continue,
                _ => [(false, false), (false, false)],
            };
            out.extend(tries.map(|(placed, real)| (tick, f, placed, real)));
        }
    }
    out
}

#[test]
fn starved_scale_outs_park_until_capacity_is_freed() {
    // Debug builds re-run every skipped placement as the contract oracle,
    // so there the parked attempts show up in the log too.
    let expected: Vec<(u64, FunctionId, bool)> = attempts()
        .into_iter()
        .filter(|a| a.3 || cfg!(debug_assertions))
        .map(|(tick, f, placed, _)| (tick, f, placed))
        .collect();
    for time_model in [TimeModel::EventDriven, TimeModel::DenseQuantum] {
        let log = CallLog::default();
        let tick = Rc::new(Cell::new(0));
        let mut sim = ClusterSim::new(
            ClusterSpec::single_node(1),
            SimConfig { time_model, ..SimConfig::default() },
            Box::new(CountingExclusive { log: Rc::clone(&log), tick: Rc::clone(&tick) }),
            Box::new(Greedy { tick }),
            &named("fair-share", || Box::new(FairSharePolicy)),
        );
        sim.deploy_inference(spec(HOLDER.0), 1, Vec::new()).unwrap();
        for id in 1..=STARVED {
            sim.deploy_inference(spec(id), 0, Vec::new()).unwrap();
        }
        sim.run_until(SimTime::from_secs(10) + SimDuration::from_millis(500));
        assert_eq!(*log.borrow(), expected, "{time_model:?}");
        let parked = attempts().iter().filter(|a| !a.3).count() as u64;
        assert_eq!(sim.parked_launches(), parked, "{time_model:?}");
        assert_eq!(sim.ready_instances(HOLDER), 0);
        assert_eq!(sim.occupied_gpus(), 1, "f1 holds the freed GPU");
    }
}

/// First GPU whose Σrequest stays within one whole GPU (the Ω = 1 rule).
struct OmegaFit;

impl Placement for OmegaFit {
    fn place(&mut self, func: &FunctionSpec, cluster: &ClusterView) -> Option<Vec<GpuAddr>> {
        let request = func.quotas.request.as_fraction();
        cluster
            .gpus
            .iter()
            .find(|g| g.sum_requests().as_fraction() + request <= 1.0 + 1e-9)
            .map(|g| vec![g.addr])
    }

    fn name(&self) -> &str {
        "omega-fit"
    }
}

/// Asks for one instance of f1 while it has none, and at the 3 s tick
/// shrinks `shrink`'s quota to 10%.
struct ShrinkAt3 {
    shrink: FunctionId,
}

impl ElasticityController for ShrinkAt3 {
    fn on_tick(
        &mut self,
        now: SimTime,
        functions: &[FunctionScaleView],
        _cluster: &ClusterView,
    ) -> Vec<ScaleAction> {
        let mut actions = Vec::new();
        if now.as_secs() == 3 {
            let q = SmRate::from_percent(10.0);
            actions.push(ScaleAction::ResizeQuota { func: self.shrink, request: q, limit: q });
        }
        let f1 = functions.iter().find(|f| f.func == FunctionId(1)).expect("f1 deployed");
        if f1.ready_instances + f1.starting_instances == 0 {
            actions.push(ScaleAction::ScaleOut { func: FunctionId(1), count: 1 });
        }
        actions
    }

    fn name(&self) -> &str {
        "shrink-at-3"
    }
}

#[test]
fn an_applied_resize_unparks_starved_functions() {
    // The holder's 80% request leaves no room for f1's 50%. Shrinking
    // either the holder (a co-resident) or f1 itself to 10% makes f1 fit,
    // and the resize must move the capacity epoch so f1 asks again.
    for shrink in [HOLDER, FunctionId(1)] {
        let mut sim = ClusterSim::new(
            ClusterSpec::single_node(1),
            SimConfig::default(),
            Box::new(OmegaFit),
            Box::new(ShrinkAt3 { shrink }),
            &named("fair-share", || Box::new(FairSharePolicy)),
        );
        let with_request = |id, pct| FunctionSpec {
            quotas: Quotas::equal(SmRate::from_percent(pct), 2 * GB),
            ..spec(id)
        };
        sim.deploy_inference(with_request(HOLDER.0, 80.0), 1, Vec::new()).unwrap();
        sim.deploy_inference(with_request(1, 50.0), 0, Vec::new()).unwrap();
        sim.run_until(SimTime::from_secs(6));
        let audit = sim.audit();
        let f1 = audit.functions.iter().find(|f| f.func == FunctionId(1)).expect("f1 audited");
        assert_eq!(
            f1.ready_instances + f1.starting_instances,
            1,
            "shrinking {shrink} must let f1 launch"
        );
        // Placement fails at the 0 s tick; the 1–3 s scale-outs are parked
        // (the 3 s resize applies after that tick acted); f1 fits at 4 s.
        assert_eq!(sim.parked_launches(), 3, "shrinking {shrink}");
    }
}
