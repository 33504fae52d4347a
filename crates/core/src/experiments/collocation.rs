//! Shared harness for the GPU-level collocation studies (Figs. 7–11, 13,
//! 14, 18(b)): a handful of functions pinned to specific GPUs under one
//! share policy, no autoscaling.

use dilu_baselines::QuotaSource;
use dilu_cluster::{ClusterReport, ClusterSpec, FunctionSpec, GpuAddr, PolicyFactory};
use dilu_rckm::RckmConfig;
use dilu_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::factories::{
    FairFactory, FastGsFactory, MpsFactory, NullController, PinnedPlacement, RckmFactory,
    TgsFactory,
};
use crate::Scenario;

/// The share policies compared at GPU level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GpuSystem {
    /// One function per GPU, unthrottled.
    Exclusive,
    /// Dilu's RCKM token manager.
    Dilu(RckmConfig),
    /// TGS transparent sharing.
    Tgs,
    /// MPS static partitions at the limit quota.
    MpsL,
    /// MPS static partitions at the request quota.
    MpsR,
    /// FaST-GS spatio-temporal sharing.
    FastGs,
}

impl GpuSystem {
    /// The five collocation policies of Fig. 7 in paper order.
    pub fn fig7_set() -> [GpuSystem; 5] {
        [
            GpuSystem::Exclusive,
            GpuSystem::Dilu(RckmConfig::default()),
            GpuSystem::Tgs,
            GpuSystem::MpsL,
            GpuSystem::MpsR,
        ]
    }

    /// The paper's label.
    pub fn label(self) -> &'static str {
        match self {
            GpuSystem::Exclusive => "Exclusive",
            GpuSystem::Dilu(_) => "Dilu",
            GpuSystem::Tgs => "TGS",
            GpuSystem::MpsL => "MPS-l",
            GpuSystem::MpsR => "MPS-r",
            GpuSystem::FastGs => "FaST-GS",
        }
    }

    fn factory(self) -> Box<dyn PolicyFactory> {
        match self {
            GpuSystem::Exclusive => Box::new(FairFactory),
            GpuSystem::Dilu(cfg) => Box::new(RckmFactory(cfg)),
            GpuSystem::Tgs => Box::new(TgsFactory),
            GpuSystem::MpsL => Box::new(MpsFactory(QuotaSource::Limit)),
            GpuSystem::MpsR => Box::new(MpsFactory(QuotaSource::Request)),
            GpuSystem::FastGs => Box::new(FastGsFactory),
        }
    }
}

/// One function of a collocation case with its pinned GPUs.
#[derive(Debug, Clone)]
pub struct Member {
    /// The deployed function.
    pub spec: FunctionSpec,
    /// Arrival instants (empty for training functions).
    pub arrivals: Vec<SimTime>,
    /// One pin per instance/worker; each pin lists the GPUs of its stages.
    pub pins: Vec<Vec<GpuAddr>>,
}

impl Member {
    /// A single-instance member pinned to one GPU.
    pub fn solo(spec: FunctionSpec, arrivals: Vec<SimTime>, gpu: GpuAddr) -> Self {
        Member { spec, arrivals, pins: vec![vec![gpu]] }
    }

    /// A pipelined single-instance member spanning several GPUs.
    pub fn pipelined(spec: FunctionSpec, arrivals: Vec<SimTime>, gpus: Vec<GpuAddr>) -> Self {
        Member { spec, arrivals, pins: vec![gpus] }
    }

    /// A training member with one worker per listed GPU.
    pub fn workers(spec: FunctionSpec, gpus: &[GpuAddr]) -> Self {
        Member { spec, arrivals: Vec::new(), pins: gpus.iter().map(|&g| vec![g]).collect() }
    }
}

/// Runs one collocation case under `system` for `horizon_secs`.
///
/// # Panics
///
/// Panics if any member fails to deploy (pins must be feasible).
pub fn run_case(
    gpus: u32,
    members: Vec<Member>,
    system: GpuSystem,
    horizon_secs: u64,
) -> ClusterReport {
    let mut placement = PinnedPlacement::new();
    for m in &members {
        for pin in &m.pins {
            placement.pin(m.spec.id, pin.clone());
        }
    }
    let mut builder = Scenario::builder()
        .cluster(ClusterSpec::single_node(gpus))
        .placement(placement)
        .controller(NullController)
        .share_policy_boxed(system.factory())
        .horizon(SimDuration::from_secs(horizon_secs))
        .drain(SimDuration::ZERO);
    for m in members {
        builder = if m.spec.kind.is_inference() {
            let instances = m.pins.len() as u32;
            builder.function(m.spec).initial_instances(instances).arrival_times(m.arrivals)
        } else {
            builder.function(m.spec)
        };
    }
    builder.build().and_then(Scenario::run).unwrap_or_else(|e| panic!("collocation case: {e}"))
}

/// Convenience: GPU 0 of a single-node cluster.
pub fn gpu(idx: u32) -> GpuAddr {
    GpuAddr { node: 0, gpu: idx }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funcs;
    use dilu_models::ModelId;
    use dilu_workload::{ArrivalProcess, PoissonProcess};

    #[test]
    fn collocated_pair_serves_under_every_policy() {
        let arrivals = PoissonProcess::new(20.0, 3).generate(SimTime::from_secs(10));
        for system in GpuSystem::fig7_set() {
            let inf = funcs::inference_function(1, ModelId::RobertaLarge);
            let train = funcs::training_function(2, ModelId::BertBase, 1, u64::MAX);
            let members = if matches!(system, GpuSystem::Exclusive) {
                vec![Member::solo(inf, arrivals.clone(), gpu(0)), Member::workers(train, &[gpu(1)])]
            } else {
                vec![Member::solo(inf, arrivals.clone(), gpu(0)), Member::workers(train, &[gpu(0)])]
            };
            let report = run_case(2, members, system, 15);
            let f = report.inference.values().next().unwrap();
            assert!(f.completed > 0, "{}: no requests served", system.label());
        }
    }
}
