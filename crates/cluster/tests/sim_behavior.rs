//! Behavioural tests of the cluster simulator's public API, exercising
//! serving, training, cold starts, pipelining, vertical resizes, and the
//! node-plane occupancy accounting.

use dilu_cluster::{
    cold_start_duration, named, ClusterSim, ClusterSpec, ClusterView, DeployError,
    ElasticityController, FunctionId, FunctionKind, FunctionScaleView, FunctionSpec, GpuAddr,
    Placement, PolicyFactory, QuotaView, Quotas, ScaleAction, SimConfig, TimeModel,
};
use dilu_gpu::policies::FairSharePolicy;
use dilu_gpu::SmRate;
use dilu_models::ModelId;
use dilu_sim::{SimDuration, SimTime};
use dilu_workload::{ArrivalProcess, PoissonProcess};

/// Places on the first GPU (or GPUs) with enough free memory.
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

/// Scales out once at t=2s (exercises the cold-start path).
struct OneShotScaler {
    fired: bool,
    func: FunctionId,
}

impl ElasticityController for OneShotScaler {
    fn on_tick(
        &mut self,
        now: SimTime,
        _functions: &[FunctionScaleView],
        _cluster: &ClusterView,
    ) -> Vec<ScaleAction> {
        if !self.fired && now >= SimTime::from_secs(2) {
            self.fired = true;
            vec![ScaleAction::ScaleOut { func: self.func, count: 1 }]
        } else {
            Vec::new()
        }
    }

    fn name(&self) -> &str {
        "one-shot"
    }
}

fn fair_factory() -> impl PolicyFactory {
    // `named` over a bare closure: the factory reports "fair-share"
    // instead of the blanket impl's "closure-policy".
    named("fair-share", || Box::new(FairSharePolicy))
}

fn inference_spec(id: u32, model: ModelId, batch: u32) -> FunctionSpec {
    let profile = model.profile();
    let sat = profile.inference_sat(batch);
    FunctionSpec {
        id: FunctionId(id),
        name: format!("{}-inf", profile.name),
        model,
        kind: FunctionKind::Inference { slo: profile.slo, batch },
        quotas: Quotas::new(sat, sat.scale(2.0), profile.infer_mem_bytes),
        gpus_per_instance: 1,
    }
}

#[test]
fn single_inference_function_serves_requests() {
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(2),
        SimConfig::default(),
        Box::new(FirstFit),
        Box::new(NullScaler),
        &fair_factory(),
    );
    let spec = inference_spec(1, ModelId::RobertaLarge, 4);
    let arrivals = PoissonProcess::new(20.0, 7).generate(SimTime::from_secs(20));
    let expected = arrivals.len() as u64;
    sim.deploy_inference(spec, 1, arrivals).unwrap();
    sim.run_until(SimTime::from_secs(25));
    let report = sim.into_report();
    let f = &report.inference[&FunctionId(1)];
    assert_eq!(f.arrived, expected);
    assert!(f.completed >= expected * 95 / 100, "completed {}/{}", f.completed, expected);
    // Solo at full grant: latency ≈ exec time + batching wait, well under SLO.
    assert!(f.svr() < 0.05, "svr {}", f.svr());
    assert!(f.latency.p50() >= SimDuration::from_millis(5));
}

#[test]
fn training_job_completes_and_frees_gpus() {
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(4),
        SimConfig::default(),
        Box::new(FirstFit),
        Box::new(NullScaler),
        &fair_factory(),
    );
    let model = ModelId::BertBase;
    let spec = FunctionSpec {
        id: FunctionId(1),
        name: "bert-train".into(),
        model,
        kind: FunctionKind::Training { workers: 2, iterations: 20 },
        quotas: Quotas::equal(SmRate::from_percent(60.0), model.profile().training.mem_bytes),
        gpus_per_instance: 1,
    };
    sim.deploy_training(spec).unwrap();
    // FirstFit packs both 6 GB workers onto GPU 0; both saturate at 50%
    // so they still run at full rate side by side.
    assert_eq!(sim.occupied_gpus(), 1);
    // 20 iterations × (60+25) ms ≈ 1.7 s.
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(sim.occupied_gpus(), 0, "workers must be released at completion");
    let report = sim.into_report();
    let t = &report.training[&FunctionId(1)];
    assert_eq!(t.iterations_done, 20);
    let jct = t.jct().expect("job finished");
    let ideal = SimDuration::from_millis((60 + 25) * 20);
    // Completion timestamps land at exact block-finish instants (not
    // quantum starts), so the JCT can never undercut the analytic
    // ideal — only microsecond quantisation slack remains.
    assert!(jct >= ideal.mul_f64(0.9999), "jct {jct} vs ideal {ideal}");
    assert!(jct <= ideal.mul_f64(1.3), "jct {jct} too slow");
    let thr = t.throughput(report.horizon);
    assert!(thr > 0.0);
}

#[test]
fn cold_started_instance_picks_up_backlog() {
    let spec = inference_spec(1, ModelId::ResNet152, 4);
    let func = spec.id;
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(1),
        SimConfig::default(),
        Box::new(FirstFit),
        Box::new(OneShotScaler { fired: false, func }),
        &fair_factory(),
    );
    // No initial instances: everything backlogs until the scaler fires.
    let arrivals = PoissonProcess::new(5.0, 3).generate(SimTime::from_secs(10));
    sim.deploy_inference(spec, 0, arrivals).unwrap();
    sim.run_until(SimTime::from_secs(20));
    let report = sim.into_report();
    let f = &report.inference[&func];
    assert_eq!(f.cold_starts.count(), 1);
    assert!(f.completed > 0, "backlog must drain after cold start");
    // Early requests waited out the entire cold start (the scaler fired
    // at t=2 s, the first arrivals landed before that): with exact
    // completion timestamps the full cold-start delay is a hard lower
    // bound on the worst latency, no half-delay slack needed.
    assert!(f.latency.quantile(1.0) >= cold_start_duration(ModelId::ResNet152));
}

/// Pins the occupancy semantics of cold-starting instances: their engine
/// slots are admitted at launch, so the hosting GPU counts as occupied
/// from the scale-out instant — before the instance can serve — and the
/// O(1) counter agrees with a full engine scan at every probe.
#[test]
fn cold_starting_instances_occupy_their_gpus() {
    let spec = inference_spec(1, ModelId::ResNet152, 4);
    let func = spec.id;
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(2),
        SimConfig::default(),
        Box::new(FirstFit),
        Box::new(OneShotScaler { fired: false, func }),
        &fair_factory(),
    );
    let arrivals = PoissonProcess::new(5.0, 3).generate(SimTime::from_secs(6));
    sim.deploy_inference(spec, 0, arrivals).unwrap();
    assert_eq!(sim.occupied_gpus(), 0, "no instances yet");
    // Run past the scaler's t=2 s scale-out but not past the ResNet-152
    // cold start (≥ 1 s): the instance is still ColdStarting.
    sim.run_until(SimTime::from_secs(3));
    assert_eq!(sim.ready_instances(func), 0, "instance must still be cold-starting");
    assert_eq!(
        sim.occupied_gpus(),
        1,
        "a cold-starting instance reserves its GPU from the launch instant"
    );
    // After promotion and the traffic tail the instance keeps serving.
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(sim.ready_instances(func), 1);
    assert_eq!(sim.occupied_gpus(), 1);
}

#[test]
fn pipelined_llm_instance_spans_gpus() {
    let model = ModelId::Llama2_7b;
    let profile = model.profile();
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(4),
        SimConfig::default(),
        Box::new(FirstFit),
        Box::new(NullScaler),
        &fair_factory(),
    );
    let spec = FunctionSpec {
        id: FunctionId(1),
        name: "llama-inf".into(),
        model,
        kind: FunctionKind::Inference { slo: profile.slo, batch: 2 },
        quotas: Quotas::new(
            SmRate::from_percent(40.0),
            SmRate::from_percent(80.0),
            profile.infer_mem_bytes / 4,
        ),
        gpus_per_instance: 4,
    };
    let arrivals = PoissonProcess::new(2.0, 5).generate(SimTime::from_secs(20));
    let expected = arrivals.len() as u64;
    sim.deploy_inference(spec, 1, arrivals).unwrap();
    assert_eq!(sim.occupied_gpus(), 4, "stages must land on 4 GPUs");
    sim.run_until(SimTime::from_secs(30));
    let report = sim.into_report();
    let f = &report.inference[&FunctionId(1)];
    assert!(f.completed >= expected * 9 / 10, "completed {}/{}", f.completed, expected);
    // Per-token display latency should be in tens of ms.
    assert!(f.p95_display() < SimDuration::from_millis(200));
}

/// Resizes a function's quotas at t=2 s and records the quota views it
/// is shown afterwards (shared out through `Rc` so the test can assert
/// on what the control plane actually saw).
struct ResizeProbe {
    func: FunctionId,
    fired: bool,
    seen: std::rc::Rc<std::cell::RefCell<Vec<QuotaView>>>,
}

impl ElasticityController for ResizeProbe {
    fn on_tick(
        &mut self,
        now: SimTime,
        functions: &[FunctionScaleView],
        cluster: &ClusterView,
    ) -> Vec<ScaleAction> {
        assert_eq!(cluster.gpus.len(), 2, "controller sees the whole cluster");
        if let Some(f) = functions.iter().find(|f| f.func == self.func) {
            self.seen.borrow_mut().push(f.quota);
        }
        if !self.fired && now >= SimTime::from_secs(2) {
            self.fired = true;
            return vec![ScaleAction::ResizeQuota {
                func: self.func,
                request: SmRate::from_percent(80.0),
                limit: SmRate::from_percent(90.0),
            }];
        }
        Vec::new()
    }

    fn name(&self) -> &str {
        "resize-probe"
    }
}

#[test]
fn vertical_resizes_apply_and_are_counted() {
    let spec = inference_spec(1, ModelId::RobertaLarge, 4);
    let func = spec.id;
    let (req0, lim0) = (spec.quotas.request, spec.quotas.limit);
    let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(2),
        SimConfig::default(),
        Box::new(FirstFit),
        Box::new(ResizeProbe { func, fired: false, seen: seen.clone() }),
        &fair_factory(),
    );
    let arrivals = PoissonProcess::new(10.0, 7).generate(SimTime::from_secs(6));
    sim.deploy_inference(spec, 1, arrivals).unwrap();
    sim.run_until(SimTime::from_secs(6));
    let report = sim.into_report();
    let f = &report.inference[&func];
    assert_eq!(f.resizes.grows(), 1, "one grow resize");
    assert_eq!(f.resizes.total(), 1);
    assert_eq!(report.total_resizes(), 1);
    assert_eq!(f.cold_starts.count(), 0, "vertical scaling pays no cold start");
    let seen = seen.borrow();
    // Before the resize the controller saw the deployed quotas plus the
    // GPU's guaranteed-SM slack as vertical headroom.
    let before = seen.first().expect("ticks before the resize");
    assert_eq!(before.request, req0);
    assert_eq!(before.limit, lim0);
    assert!((before.headroom.as_fraction() - (1.0 - req0.as_fraction())).abs() < 1e-9);
    assert!(before.capacity_rps_at_limit > 0.0);
    // Within one tick of the decision (1 ms apply latency ≪ 1 s tick)
    // the views reflect the new quotas, and headroom shrank to match.
    let after = seen.last().expect("ticks after the resize");
    assert_eq!(after.request, SmRate::from_percent(80.0));
    assert_eq!(after.limit, SmRate::from_percent(90.0));
    assert!((after.headroom.as_fraction() - 0.2).abs() < 1e-9);
}

/// Re-emits the same grow every tick until the spec reflects it — the
/// steady-state behaviour of a real controller whose decision stands
/// until applied.
struct PersistentResizer {
    func: FunctionId,
    target: SmRate,
}

impl ElasticityController for PersistentResizer {
    fn on_tick(
        &mut self,
        _now: SimTime,
        functions: &[FunctionScaleView],
        _cluster: &ClusterView,
    ) -> Vec<ScaleAction> {
        match functions.iter().find(|f| f.func == self.func) {
            Some(f) if f.quota.request < self.target => vec![ScaleAction::ResizeQuota {
                func: self.func,
                request: self.target,
                limit: self.target,
            }],
            _ => Vec::new(),
        }
    }

    fn name(&self) -> &str {
        "persistent-resizer"
    }
}

#[test]
fn zero_resize_latency_matches_dense_stepping() {
    // With resize_latency = 0 the controller's decision is due at the
    // very instant it was made — after this wake's apply phase already
    // ran. The event core must defer it to the next quantum (where the
    // dense stepper first sees it), not re-wake and re-step the same
    // instant.
    let run = |time_model: TimeModel| {
        let spec = inference_spec(1, ModelId::BertBase, 4);
        let func = spec.id;
        let config =
            SimConfig { resize_latency: SimDuration::ZERO, time_model, ..SimConfig::default() };
        let mut sim = ClusterSim::new(
            ClusterSpec::single_node(1),
            config,
            Box::new(FirstFit),
            Box::new(PersistentResizer { func, target: SmRate::from_percent(70.0) }),
            &fair_factory(),
        );
        let arrivals = PoissonProcess::new(20.0, 5).generate(SimTime::from_secs(6));
        sim.deploy_inference(spec, 1, arrivals).unwrap();
        // A collocated always-busy training worker guarantees the GPU
        // is mid-work at the instant the resize decision lands — a
        // same-instant re-wake would step it twice and double-issue
        // kernel blocks.
        let train = FunctionSpec {
            id: FunctionId(2),
            name: "train".into(),
            model: ModelId::BertBase,
            kind: FunctionKind::Training { workers: 1, iterations: 10_000 },
            quotas: Quotas::equal(
                SmRate::from_percent(30.0),
                ModelId::BertBase.profile().training.mem_bytes,
            ),
            gpus_per_instance: 1,
        };
        sim.deploy_training(train).unwrap();
        sim.run_until(SimTime::from_secs(8));
        sim.into_report()
    };
    let dense = run(TimeModel::DenseQuantum);
    let event = run(TimeModel::EventDriven);
    assert_eq!(dense.total_resizes(), 1);
    assert_eq!(
        format!("{dense:?}"),
        format!("{event:?}"),
        "zero-latency resizes must not desynchronise the time models"
    );
}

#[test]
fn re_requested_resizes_keep_their_original_due_time() {
    // With resize_latency longer than the tick, a controller re-emitting
    // its decision every tick must not push the apply out forever.
    let spec = inference_spec(1, ModelId::BertBase, 4);
    let func = spec.id;
    let config = SimConfig { resize_latency: SimDuration::from_secs(2), ..SimConfig::default() };
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(1),
        config,
        Box::new(FirstFit),
        Box::new(PersistentResizer { func, target: SmRate::from_percent(70.0) }),
        &fair_factory(),
    );
    let arrivals = PoissonProcess::new(5.0, 3).generate(SimTime::from_secs(8));
    sim.deploy_inference(spec, 1, arrivals).unwrap();
    sim.run_until(SimTime::from_secs(8));
    let report = sim.into_report();
    assert_eq!(
        report.inference[&func].resizes.total(),
        1,
        "the resize must apply once despite per-tick re-requests"
    );
}

#[test]
fn duplicate_deployment_is_rejected() {
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(1),
        SimConfig::default(),
        Box::new(FirstFit),
        Box::new(NullScaler),
        &fair_factory(),
    );
    let spec = inference_spec(1, ModelId::BertBase, 4);
    sim.deploy_inference(spec.clone(), 0, Vec::new()).unwrap();
    let err = sim.deploy_inference(spec, 0, Vec::new()).unwrap_err();
    assert_eq!(err, DeployError::DuplicateFunction(FunctionId(1)));
}

#[test]
fn report_contains_fragmentation_and_occupancy_series() {
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(2),
        SimConfig::default(),
        Box::new(FirstFit),
        Box::new(NullScaler),
        &fair_factory(),
    );
    let spec = inference_spec(1, ModelId::BertBase, 4);
    let arrivals = PoissonProcess::new(10.0, 1).generate(SimTime::from_secs(5));
    sim.deploy_inference(spec, 1, arrivals).unwrap();
    sim.run_until(SimTime::from_secs(6));
    let report = sim.into_report();
    assert!(!report.fragmentation.is_empty());
    assert!(report.peak_gpus >= 1);
    assert!(report.gpu_time >= SimDuration::from_secs(4));
    assert!(report.total_kernel_series.iter().map(|&(_, b)| b).sum::<u64>() > 0);
    // BERT is tiny and bursts are short: the occupied GPU runs far below
    // 100% SM — static exclusive occupancy shows up as fragmentation.
    assert!(report.fragmentation.mean_sm_fragmentation() > 0.3);
}
