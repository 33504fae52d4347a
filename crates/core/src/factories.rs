//! Named policy factories and experiment-harness placement/scaling stubs.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use dilu_baselines::{FastGsPolicy, MpsPolicy, QuotaSource, TgsPolicy};
use dilu_cluster::{
    ClusterView, ElasticityController, FunctionId, FunctionScaleView, FunctionSpec, GpuAddr,
    Placement, PolicyFactory, ScaleAction,
};
use dilu_gpu::policies::FairSharePolicy;
use dilu_gpu::SharePolicy;
use dilu_rckm::{RckmConfig, RckmPolicy};
use dilu_sim::SimTime;

/// Builds one Dilu RCKM token manager per GPU.
#[derive(Debug, Clone, Copy, Default)]
pub struct RckmFactory(pub RckmConfig);

impl PolicyFactory for RckmFactory {
    fn make(&self) -> Box<dyn SharePolicy> {
        Box::new(RckmPolicy::new(self.0))
    }

    fn name(&self) -> &str {
        "dilu-rckm"
    }
}

/// Builds static MPS partitions per GPU (−l or −r flavour).
#[derive(Debug, Clone, Copy)]
pub struct MpsFactory(pub QuotaSource);

impl PolicyFactory for MpsFactory {
    fn make(&self) -> Box<dyn SharePolicy> {
        Box::new(MpsPolicy::new(self.0))
    }

    fn name(&self) -> &str {
        match self.0 {
            QuotaSource::Request => "mps-r",
            QuotaSource::Limit => "mps-l",
        }
    }
}

/// Builds TGS transparent-sharing policies per GPU.
#[derive(Debug, Clone, Copy, Default)]
pub struct TgsFactory;

impl PolicyFactory for TgsFactory {
    fn make(&self) -> Box<dyn SharePolicy> {
        Box::new(TgsPolicy::new())
    }

    fn name(&self) -> &str {
        "tgs"
    }
}

/// Builds FaST-GS spatio-temporal policies per GPU.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastGsFactory;

impl PolicyFactory for FastGsFactory {
    fn make(&self) -> Box<dyn SharePolicy> {
        Box::new(FastGsPolicy::new())
    }

    fn name(&self) -> &str {
        "fast-gs"
    }
}

/// Builds unmanaged fair-share policies (Exclusive pass-through).
#[derive(Debug, Clone, Copy, Default)]
pub struct FairFactory;

impl PolicyFactory for FairFactory {
    fn make(&self) -> Box<dyn SharePolicy> {
        Box::new(FairSharePolicy)
    }

    fn name(&self) -> &str {
        "fair-share"
    }
}

/// A share-policy factory from a closure plus a report name.
///
/// This is the ergonomic way to plug a custom per-GPU policy into
/// [`ScenarioBuilder::share_policy`](crate::ScenarioBuilder::share_policy)
/// without defining a factory struct. It is also the *only* closure path:
/// bare closures are not factories (an old blanket impl gave them all the
/// same uninformative `"closure-policy"` name), so every custom policy
/// carries a meaningful name in scenario listings and reports.
///
/// # Examples
///
/// ```
/// use dilu_cluster::PolicyFactory;
/// use dilu_core::custom_share_policy;
/// use dilu_gpu::policies::FairSharePolicy;
///
/// let factory = custom_share_policy("my-fair", || Box::new(FairSharePolicy));
/// assert_eq!(factory.name(), "my-fair");
/// assert_eq!(factory.make().name(), "fair-share");
/// ```
pub fn custom_share_policy<F>(
    name: impl Into<String>,
    make: F,
) -> dilu_cluster::NamedPolicyFactory<F>
where
    F: Fn() -> Box<dyn SharePolicy>,
{
    dilu_cluster::named(name, make)
}

/// A placement that hands out pre-determined GPU lists per function —
/// used by the GPU-level collocation experiments (Figs. 7–11, 13–14) where
/// the paper pins instances to specific cards.
///
/// Each launch of a function pops the next pinned assignment; when a
/// function's queue is exhausted the last assignment is reused (repeat
/// launches land on the same GPUs). A function never pinned gets `None`
/// without touching the table, as the `Placement` failure contract asks.
#[derive(Debug, Clone, Default)]
pub struct PinnedPlacement {
    assignments: BTreeMap<FunctionId, VecDeque<Vec<GpuAddr>>>,
    last: BTreeMap<FunctionId, Vec<GpuAddr>>,
}

impl PinnedPlacement {
    /// Creates an empty pinning table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a pinned assignment for the next launch of `func`.
    pub fn pin(&mut self, func: FunctionId, gpus: Vec<GpuAddr>) -> &mut Self {
        self.assignments.entry(func).or_default().push_back(gpus);
        self
    }
}

impl Placement for PinnedPlacement {
    fn place(&mut self, func: &FunctionSpec, _cluster: &ClusterView) -> Option<Vec<GpuAddr>> {
        let next = self
            .assignments
            .get_mut(&func.id)
            .and_then(VecDeque::pop_front)
            .or_else(|| self.last.get(&func.id).cloned())?;
        self.last.insert(func.id, next.clone());
        Some(next)
    }

    fn name(&self) -> &str {
        "pinned"
    }
}

/// A controller that never acts — for experiments with fixed deployments.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullController;

impl ElasticityController for NullController {
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

#[cfg(test)]
mod tests {
    use super::*;
    use dilu_cluster::{FunctionKind, Quotas};
    use dilu_gpu::{SmRate, GB};
    use dilu_models::ModelId;
    use dilu_sim::SimDuration;

    fn spec(id: u32) -> FunctionSpec {
        FunctionSpec {
            id: FunctionId(id),
            name: "f".into(),
            model: ModelId::BertBase,
            kind: FunctionKind::Inference { slo: SimDuration::from_millis(50), batch: 4 },
            quotas: Quotas::equal(SmRate::from_percent(30.0), GB),
            gpus_per_instance: 1,
        }
    }

    #[test]
    fn pinned_placement_pops_then_repeats() {
        let mut p = PinnedPlacement::new();
        let a = GpuAddr { node: 0, gpu: 0 };
        let b = GpuAddr { node: 0, gpu: 1 };
        p.pin(FunctionId(1), vec![a]).pin(FunctionId(1), vec![b]);
        let cv = ClusterView { gpus: Vec::new() };
        assert_eq!(p.place(&spec(1), &cv), Some(vec![a]));
        assert_eq!(p.place(&spec(1), &cv), Some(vec![b]));
        // Exhausted: repeats the last assignment.
        assert_eq!(p.place(&spec(1), &cv), Some(vec![b]));
        // Unknown function: no placement.
        assert_eq!(p.place(&spec(2), &cv), None);
    }

    #[test]
    fn pinned_placement_failure_is_stateless() {
        // The `Placement` failure contract: a `None` changes nothing, so it
        // repeats, and other functions' launches cannot make it fit.
        let mut p = PinnedPlacement::new();
        let a = GpuAddr { node: 0, gpu: 0 };
        p.pin(FunctionId(1), vec![a]);
        let cv = ClusterView { gpus: Vec::new() };
        assert_eq!(p.place(&spec(2), &cv), None);
        assert_eq!(p.place(&spec(2), &cv), None);
        assert_eq!(p.place(&spec(1), &cv), Some(vec![a]));
        assert_eq!(p.place(&spec(2), &cv), None);
        assert_eq!(p.place(&spec(1), &cv), Some(vec![a]));
    }

    #[test]
    fn custom_share_policies_are_named() {
        let f = custom_share_policy("tgs-tuned", || Box::new(dilu_baselines::TgsPolicy::new()));
        assert_eq!(f.name(), "tgs-tuned");
        assert_eq!(f.make().name(), "tgs");
    }

    #[test]
    fn factories_name_their_policies() {
        assert_eq!(RckmFactory::default().make().name(), "dilu-rckm");
        assert_eq!(MpsFactory(QuotaSource::Limit).name(), "mps-l");
        assert_eq!(MpsFactory(QuotaSource::Request).make().name(), "mps-r");
        assert_eq!(TgsFactory.make().name(), "tgs");
        assert_eq!(FastGsFactory.make().name(), "fast-gs");
        assert_eq!(FairFactory.make().name(), "fair-share");
    }
}
