//! Extension points: placement, elasticity control, and share-policy
//! factories.

use dilu_gpu::{SharePolicy, SmRate, TaskClass};
use dilu_sim::{SimDuration, SimTime};

use crate::{FunctionId, FunctionKind, FunctionSpec, GpuAddr};

/// One resident instance slice as seen by the placement policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidentInfo {
    /// The owning function.
    pub func: FunctionId,
    /// Inference or training.
    pub class: TaskClass,
    /// Its request quota on this GPU.
    pub request: SmRate,
    /// Its limit quota on this GPU.
    pub limit: SmRate,
    /// Its memory reservation on this GPU.
    pub mem_bytes: u64,
}

/// One GPU's allocation state as seen by the placement policy.
#[derive(Debug, Clone)]
pub struct GpuView {
    /// The GPU's address.
    pub addr: GpuAddr,
    /// Device memory capacity in bytes.
    pub mem_capacity: u64,
    /// Memory already reserved by residents in bytes.
    pub mem_reserved: u64,
    /// Residents and their quotas.
    pub residents: Vec<ResidentInfo>,
}

impl GpuView {
    /// Sum of resident request quotas.
    pub fn sum_requests(&self) -> SmRate {
        self.residents.iter().map(|r| r.request).sum()
    }

    /// Sum of resident limit quotas.
    pub fn sum_limits(&self) -> SmRate {
        self.residents.iter().map(|r| r.limit).sum()
    }

    /// Guaranteed SM rate still unreserved on this GPU: the card minus the
    /// resident `request` quotas, floored at zero when requests already
    /// oversubscribe. This is the vertical headroom a 2D co-scaler can grow
    /// a resident's `request` into without touching anyone's guarantee.
    pub fn request_slack(&self) -> SmRate {
        SmRate::FULL - self.sum_requests()
    }

    /// Free memory in bytes.
    pub fn mem_free(&self) -> u64 {
        self.mem_capacity.saturating_sub(self.mem_reserved)
    }

    /// `true` if any instance is resident.
    pub fn occupied(&self) -> bool {
        !self.residents.is_empty()
    }

    /// `true` if a function with this id already has a slice here.
    pub fn hosts_function(&self, func: FunctionId) -> bool {
        self.residents.iter().any(|r| r.func == func)
    }
}

/// The whole cluster's allocation state for placement decisions.
#[derive(Debug, Clone)]
pub struct ClusterView {
    /// All GPUs in deterministic address order.
    pub gpus: Vec<GpuView>,
}

impl ClusterView {
    /// Number of occupied GPUs.
    pub fn occupied_count(&self) -> usize {
        self.gpus.iter().filter(|g| g.occupied()).count()
    }
}

/// Chooses the GPUs for a new instance.
///
/// Returns `gpus_per_instance` addresses (one per pipeline stage), or `None`
/// when the instance cannot be placed. Implementations must respect memory
/// capacity; quota caps (Ω/γ) are policy-specific.
///
/// # Failure contract
///
/// [`ClusterSim`](crate::ClusterSim) parks a function whose placement
/// failed and does not ask again until capacity is freed or re-quotaed (an
/// instance terminates or a resize applies). That is only sound because
/// every implementation guarantees, for a `None` result:
///
/// * the call changed no policy state, so a repeat call with the same
///   spec and view is `None` too;
/// * the same spec stays `None` on any view that differs only by added
///   residents, or by a higher Σ`request`, Σ`limit` or memory reservation
///   on some GPU — failure is monotone in load;
/// * no successful placement of *another* function makes it fit.
///
/// Debug builds re-run every skipped placement and assert it still fails.
pub trait Placement {
    /// Picks GPUs for one new instance of `func`.
    fn place(&mut self, func: &FunctionSpec, cluster: &ClusterView) -> Option<Vec<GpuAddr>>;

    /// A short name for reports.
    fn name(&self) -> &str;
}

/// A function's vertical (quota) state as seen by the elasticity controller.
///
/// All rates are per GPU *slice*: a pipelined instance holds one slice of
/// these quotas on each of its GPUs, and a resize applies the same new
/// values to every slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaView {
    /// Current `request` quota (the guaranteed minimum).
    pub request: SmRate,
    /// Current `limit` quota (the burst ceiling).
    pub limit: SmRate,
    /// The tightest guaranteed-SM slack across the GPUs hosting this
    /// function's instances — how far `request` can grow before some hosting
    /// GPU's guarantees oversubscribe. Zero when no instance is deployed.
    pub headroom: SmRate,
    /// One instance's serving capacity at the current `limit` quota, in RPS
    /// (the vertical analogue of
    /// [`FunctionScaleView::capacity_rps`]; controllers interpolate between
    /// the two points to size resizes).
    pub capacity_rps_at_limit: f64,
}

impl QuotaView {
    /// A zeroed view for functions with no vertical dimension (training, or
    /// test fixtures that only exercise horizontal logic).
    pub fn none() -> Self {
        QuotaView {
            request: SmRate::ZERO,
            limit: SmRate::ZERO,
            headroom: SmRate::ZERO,
            capacity_rps_at_limit: 0.0,
        }
    }
}

/// Per-function state handed to the elasticity controller every second.
#[derive(Debug, Clone)]
pub struct FunctionScaleView {
    /// The function.
    pub func: FunctionId,
    /// Its role.
    pub kind: FunctionKind,
    /// Closed per-second request counts, oldest first (up to the window cap).
    pub rps_window: Vec<u64>,
    /// Instances able to serve now.
    pub ready_instances: u32,
    /// Instances still cold-starting.
    pub starting_instances: u32,
    /// Requests waiting at the gateway (no instance yet) plus instance queues.
    pub backlog: usize,
    /// One instance's serving capacity at its request quota, in RPS.
    pub capacity_rps: f64,
    /// Idle time of the longest-idle ready instance.
    pub max_idle: SimDuration,
    /// Bytes still in flight on this function's cold-start weight fetches
    /// (always 0 without a [`SimConfig::network`](crate::SimConfig) plane)
    /// — capacity that is *coming* but gated on the registry link.
    pub pending_fetch_bytes: u64,
    /// The vertical dimension: current quotas and per-GPU headroom.
    pub quota: QuotaView,
}

/// An elasticity decision: horizontal (instances) or vertical (quotas).
///
/// `ResizeQuota` is the vertical dimension of Dilu's 2D co-scaling: it
/// retargets the `<request, limit>` SM quotas of *every* deployed slice of a
/// function (and of future launches) within one scheduling quantum of the
/// configured apply latency — no eviction, no cold start.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ScaleAction {
    /// Launch `count` new instances of the function.
    ScaleOut {
        /// Target function.
        func: FunctionId,
        /// Instances to add.
        count: u32,
    },
    /// Drain and terminate `count` instances of the function.
    ScaleIn {
        /// Target function.
        func: FunctionId,
        /// Instances to remove.
        count: u32,
    },
    /// Retarget the function's per-slice `<request, limit>` SM quotas.
    ResizeQuota {
        /// Target function.
        func: FunctionId,
        /// New guaranteed quota (clamped to one whole GPU on apply).
        request: SmRate,
        /// New burst ceiling (clamped up to at least `request` on apply).
        limit: SmRate,
    },
}

/// The elasticity control plane — the one controller slot of a cluster:
/// sees both scaling dimensions and may act on both.
///
/// Called once per tick with the per-function views *and* the cluster-wide
/// allocation state, so implementations can trade vertical quota growth of
/// running instances (millisecond-scale, via [`ScaleAction::ResizeQuota`])
/// against cold-start-bound horizontal scale-out — the paper's adaptive 2D
/// co-scaling. Horizontal-only controllers (the lazy, keep-alive and
/// reactive scalers) implement it too: they ignore `cluster` and never
/// emit a resize.
pub trait ElasticityController {
    /// Inspects per-function and cluster state and returns scaling actions
    /// in either dimension.
    fn on_tick(
        &mut self,
        now: SimTime,
        functions: &[FunctionScaleView],
        cluster: &ClusterView,
    ) -> Vec<ScaleAction>;

    /// A short name for reports.
    fn name(&self) -> &str;
}

/// Builds one [`SharePolicy`] per GPU.
///
/// The cluster instantiates a fresh policy for every GPU so per-GPU state
/// (token managers, partition tables) never leaks across devices.
pub trait PolicyFactory {
    /// Creates the policy for a newly initialised GPU.
    fn make(&self) -> Box<dyn SharePolicy>;

    /// A short name for reports.
    fn name(&self) -> &str;
}

/// A [`PolicyFactory`] built from a closure plus an explicit report name.
///
/// [`named`] is the *only* closure path: bare closures are deliberately not
/// factories (an old blanket impl gave them all the same uninformative
/// `"closure-policy"` name, which made scenario listings ambiguous).
pub struct NamedPolicyFactory<F> {
    name: String,
    make: F,
}

/// Wraps `make` into a factory reporting `name`.
///
/// # Examples
///
/// ```
/// use dilu_cluster::{named, PolicyFactory};
///
/// let f = named("fair", || Box::new(dilu_gpu::policies::FairSharePolicy));
/// assert_eq!(f.name(), "fair");
/// assert_eq!(f.make().name(), "fair-share");
/// ```
pub fn named<F>(name: impl Into<String>, make: F) -> NamedPolicyFactory<F>
where
    F: Fn() -> Box<dyn SharePolicy>,
{
    NamedPolicyFactory { name: name.into(), make }
}

impl<F> PolicyFactory for NamedPolicyFactory<F>
where
    F: Fn() -> Box<dyn SharePolicy>,
{
    fn make(&self) -> Box<dyn SharePolicy> {
        (self.make)()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(requests: &[f64], mem_gb: u64) -> GpuView {
        GpuView {
            addr: GpuAddr::default(),
            mem_capacity: 40 * dilu_gpu::GB,
            mem_reserved: mem_gb * dilu_gpu::GB,
            residents: requests
                .iter()
                .enumerate()
                .map(|(i, &r)| ResidentInfo {
                    func: FunctionId(i as u32),
                    class: TaskClass::SloSensitive,
                    request: SmRate::from_percent(r),
                    limit: SmRate::from_percent(r * 2.0),
                    mem_bytes: dilu_gpu::GB,
                })
                .collect(),
        }
    }

    #[test]
    fn gpu_view_sums_quotas() {
        let g = view(&[30.0, 20.0], 8);
        assert!((g.sum_requests().as_percent() - 50.0).abs() < 1e-9);
        assert!((g.sum_limits().as_percent() - 100.0).abs() < 1e-9);
        assert_eq!(g.mem_free(), 32 * dilu_gpu::GB);
        assert!(g.occupied());
        assert!(g.hosts_function(FunctionId(0)));
        assert!(!g.hosts_function(FunctionId(9)));
    }

    #[test]
    fn cluster_view_counts_occupied() {
        let cv = ClusterView { gpus: vec![view(&[10.0], 1), view(&[], 0)] };
        assert_eq!(cv.occupied_count(), 1);
    }

    #[test]
    fn named_is_the_closure_factory_path() {
        let f = named("my-fair", || -> Box<dyn SharePolicy> {
            Box::new(dilu_gpu::policies::FairSharePolicy)
        });
        assert_eq!(f.name(), "my-fair");
        assert_eq!(f.make().name(), "fair-share");
    }

    #[test]
    fn request_slack_saturates_at_zero() {
        let g = view(&[30.0, 20.0], 8);
        assert!((g.request_slack().as_percent() - 50.0).abs() < 1e-9);
        let over = view(&[70.0, 60.0], 8);
        assert_eq!(over.request_slack(), SmRate::ZERO);
    }
}
