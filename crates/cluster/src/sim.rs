//! The cluster simulation driver: phase orchestration over the control
//! plane and the node plane.
//!
//! [`ClusterSim`] is layered. The **control plane** decides and accounts —
//! arrival ingest and routing ([`crate::dispatch`]), instance and
//! training-job lifecycle ([`crate::lifecycle`]), elasticity execution,
//! metrics, and auditing ([`crate::elasticity`]). The **node plane**
//! ([`crate::nodes`]) owns per-node GPU runtimes and steps them. This
//! module owns the state shared by both planes and sequences the
//! phases.
//!
//! Two time models drive the phases over the same state and the same
//! semantics:
//!
//! * [`TimeModel::EventDriven`] (the default) — a wake-on-work engine over
//!   [`dilu_sim::EventQueue`]. The cluster sleeps until the next
//!   [`SimEvent`]; GPUs are stepped only while they hold work, idle
//!   instances and empty quanta are never walked, and batch-formation
//!   deadlines are cancellable events instead of per-quantum polls. Wall
//!   clock scales with *activity*, not cluster size × simulated time.
//! * [`TimeModel::DenseQuantum`] — the original dense stepper that walks
//!   every GPU, instance, and queue each 5 ms quantum. Kept as the
//!   executable specification: the event engine is tested to reproduce its
//!   reports (see `tests/properties.rs`).
//!
//! Both models run on the same quantum grid (grants are renegotiated each
//! token cycle), so an event wake is always a grid instant and skipping a
//! grid instant is only allowed when it is provably a no-op. Both models
//! produce byte-identical reports.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use dilu_metrics::{
    ColdStartCounter, FragmentationStats, LatencyRecorder, PhaseProfile, PhaseProfiler, RateWindow,
    ResizeCounter, SampleClock, SimPhase,
};

use dilu_sim::{EventQueue, SimDuration, SimTime};

use crate::audit::AuditHook;
use crate::dispatch::TagSlab;
use crate::elasticity::PendingResize;
use crate::instance::{Instance, Request};
use crate::lifecycle::TrainingJob;
use crate::nodes::NodePlane;
use crate::report::{ClusterReport, FunctionReport, TimelinePoint, TrainingReport};
use crate::traits::{ClusterView, ElasticityController, Placement, PolicyFactory};
use crate::{ClusterSpec, FunctionId, FunctionKind, FunctionSpec, InstanceState, InstanceUid};

/// How simulated time advances in [`ClusterSim::run_until`]: a
/// wake-on-work event engine by default, or the legacy dense stepper kept
/// as the executable specification the event core is verified against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum TimeModel {
    /// Wake-on-work event engine: idle GPUs and quanta are skipped.
    ///
    /// Reproduces the dense stepper's reports byte-for-byte for every
    /// share policy whose derived state reaches a fixed point within the
    /// bounded idle-replay window (all shipped policies do; see
    /// `dilu_gpu::SharePolicy` on event-driven drivers). A custom policy
    /// keyed on idle spans longer than that window should use
    /// [`TimeModel::DenseQuantum`].
    #[default]
    EventDriven,
    /// The legacy dense stepper: every GPU walked every quantum.
    DenseQuantum,
}

/// Tunables of the serving plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// GPU scheduling quantum (the paper's 5 ms token period).
    pub quantum: SimDuration,
    /// Fraction of the SLO a partial batch may wait before dispatch.
    pub batch_timeout_frac: f64,
    /// Cap on the batching wait regardless of SLO.
    pub batch_timeout_cap: SimDuration,
    /// Extra per-stage cost modelling activation transfer in pipelines.
    pub stage_transfer: SimDuration,
    /// Controller tick and metrics sampling period.
    pub tick: SimDuration,
    /// Delay between a [`ScaleAction::ResizeQuota`] decision and the new
    /// quotas reaching the GPUs (the paper's millisecond-scale vertical
    /// scaling, vs. the seconds-scale cold start of a scale-out).
    ///
    /// [`ScaleAction::ResizeQuota`]: crate::ScaleAction::ResizeQuota
    pub resize_latency: SimDuration,
    /// The time model driving [`ClusterSim::run_until`].
    pub time_model: TimeModel,
    /// The network/topology plane. `None` (the default) keeps the legacy
    /// constants: cold starts cost [`crate::cold_start_duration`] and
    /// pipeline stages add [`SimConfig::stage_transfer`] — reports are
    /// byte-identical to pre-network builds. `Some` makes cold starts pay
    /// for weight bytes over contended links (with per-node LRU model
    /// caches short-circuiting repeat fetches) and pipeline handoffs pay
    /// for activation bytes.
    pub network: Option<dilu_net::NetworkConfig>,
    /// Enables the per-phase wall-clock profiler
    /// ([`dilu_metrics::PhaseProfiler`]): every simulation wake attributes
    /// its time to the canonical phases, readable afterwards via
    /// [`ClusterSim::phase_profile`]. Off by default — profiling reads the
    /// wall clock around every phase, which costs a few percent at macro
    /// scale. Purely observational: reports are byte-identical either way.
    pub profile: bool,
    /// Cap on the pending-arrival window a streaming deployment
    /// ([`ClusterSim::deploy_inference_streaming`]) keeps in memory per
    /// function. The window refills in chunks of at most this many
    /// instants as ingest drains it; `0` means unbounded (the whole
    /// stream is pulled on the first refill, reproducing pre-streaming
    /// memory behaviour). Because arrival processes draw identical
    /// instants at every chunking (see
    /// [`dilu_workload::ArrivalProcess::refill`]), reports are
    /// byte-identical at every setting — the window trades peak memory
    /// only, never results.
    pub arrival_window: u32,
    /// Records per-function time series (per-second [`TimelinePoint`]s and
    /// kernel-block counts) in the report. On by default; production-scale
    /// scenarios (many thousands of functions over long horizons) turn it
    /// off, since those series cost O(functions × seconds) memory.
    /// Cluster-level series are always recorded.
    pub function_series: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            quantum: SimDuration::from_millis(5),
            batch_timeout_frac: 0.25,
            batch_timeout_cap: SimDuration::from_millis(100),
            stage_transfer: SimDuration::from_millis(2),
            tick: SimDuration::from_secs(1),
            resize_latency: SimDuration::from_millis(1),
            time_model: TimeModel::EventDriven,
            network: None,
            profile: false,
            arrival_window: 256,
            function_series: true,
        }
    }
}

/// One entry of the event-driven core's future event list.
///
/// Every event fires at a quantum-grid instant (grants are renegotiated per
/// token cycle, so nothing interesting can happen between grid points). The
/// wake handler executes the same phase order as the dense stepper —
/// resizes, training submissions, cold-start promotions, arrival ingest,
/// batch dispatch, GPU stepping, reaping, controller tick — gated on which
/// events actually fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// Step every GPU holding work for the quantum starting at this
    /// instant. Scheduled one quantum ahead whenever work (or a drainable
    /// instance, or a ready-but-undispatched batch) survives the current
    /// wake; never scheduled while the cluster is fully idle. The queue
    /// seeds the first one; the recurring chain is then carried out of the
    /// heap (it fires every quantum under load, and two heap operations
    /// per quantum are measurable at macro scale).
    GpuQuantum,
    /// Ingest the arrival batch landing in the quantum starting here and
    /// route it to instances. One such event is outstanding at a time,
    /// scheduled for the grid instant covering the earliest pending
    /// arrival across all functions.
    ArrivalBatch,
    /// A batch-formation deadline: the instance's oldest pending request
    /// reaches its batching timeout at this instant. Cancellable — a
    /// full-batch dispatch or instance termination withdraws it.
    BatchDeadline(InstanceUid),
    /// Metrics sample plus elasticity-controller tick (the two share the
    /// [`SimConfig::tick`] cadence, exactly as in the dense stepper).
    ControllerTick,
    /// At least one pending [`ScaleAction::ResizeQuota`] reaches the end of
    /// its apply latency.
    ///
    /// [`ScaleAction::ResizeQuota`]: crate::ScaleAction::ResizeQuota
    ResizeApply,
    /// A cold-starting instance becomes able to serve.
    ColdStartReady(InstanceUid),
    /// A scheduled (or retried) training job reaches its submission time.
    TrainingSubmit,
    /// At least one network flow (weight fetch or activation transfer)
    /// reaches its finish instant. Pushed after every flow-plane
    /// membership change for every active flow; instants stale by a later
    /// re-share fire as strict no-ops.
    NetFlowDone,
}

/// Kind code recorded for the out-of-heap quantum-chain wake — the
/// recurring [`SimEvent::GpuQuantum`] successor carried outside the heap
/// (see [`SimEvent::GpuQuantum`]). Distinct from every
/// [`SimEvent::code`] so a record/replay diff can tell the chain from a
/// heap-scheduled quantum event.
pub const QUANTUM_CHAIN_CODE: u8 = 8;

impl SimEvent {
    /// The event's stable kind code (enum order, `0..=7`) — the byte
    /// record/replay logs carry.
    pub fn code(self) -> u8 {
        match self {
            SimEvent::GpuQuantum => 0,
            SimEvent::ArrivalBatch => 1,
            SimEvent::BatchDeadline(_) => 2,
            SimEvent::ControllerTick => 3,
            SimEvent::ResizeApply => 4,
            SimEvent::ColdStartReady(_) => 5,
            SimEvent::TrainingSubmit => 6,
            SimEvent::NetFlowDone => 7,
        }
    }

    /// Human-readable name of a kind code (including
    /// [`QUANTUM_CHAIN_CODE`]) for diff output; `"unknown"` otherwise.
    pub fn code_name(code: u8) -> &'static str {
        match code {
            0 => "GpuQuantum",
            1 => "ArrivalBatch",
            2 => "BatchDeadline",
            3 => "ControllerTick",
            4 => "ResizeApply",
            5 => "ColdStartReady",
            6 => "TrainingSubmit",
            7 => "NetFlowDone",
            QUANTUM_CHAIN_CODE => "QuantumChain",
            _ => "unknown",
        }
    }

    /// The instance-uid payload, `0` for payload-free kinds.
    pub fn payload_uid(self) -> u64 {
        match self {
            SimEvent::BatchDeadline(uid) | SimEvent::ColdStartReady(uid) => uid.0,
            _ => 0,
        }
    }

    /// Rebuilds an event from its logged parts. `None` for codes that
    /// are not heap events (the quantum-chain code, future versions).
    pub fn from_parts(code: u8, uid: u64) -> Option<SimEvent> {
        match code {
            0 => Some(SimEvent::GpuQuantum),
            1 => Some(SimEvent::ArrivalBatch),
            2 => Some(SimEvent::BatchDeadline(InstanceUid(uid))),
            3 => Some(SimEvent::ControllerTick),
            4 => Some(SimEvent::ResizeApply),
            5 => Some(SimEvent::ColdStartReady(InstanceUid(uid))),
            6 => Some(SimEvent::TrainingSubmit),
            7 => Some(SimEvent::NetFlowDone),
            _ => None,
        }
    }
}

/// One observed event-core pop, as handed to an [`EventHook`].
///
/// A flat, allocation-free view of the typed [`SimEvent`]: the wake
/// instant, the queue's insertion sequence number (the same-instant FIFO
/// tie-breaker), the kind code, and the uid payload. The out-of-heap
/// quantum chain reports `seq == 0` with [`QUANTUM_CHAIN_CODE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// The instant the event fired at.
    pub at: SimTime,
    /// Queue insertion sequence (`0` for the quantum chain).
    pub seq: u64,
    /// Kind code ([`SimEvent::code`] or [`QUANTUM_CHAIN_CODE`]).
    pub kind: u8,
    /// Instance uid payload (`0` for payload-free kinds).
    pub uid: u64,
}

/// Observer of every event-core pop, in execution order — the record
/// side of `dilu-replay`. Runs inside `process_wake`, before the event's
/// phase flags are applied, so the stream order is exactly the execution
/// order.
pub type EventHook = Box<dyn FnMut(EventRecord)>;

/// Observer of every pending-arrival window refill, in execution order:
/// called with the function and the chunk of instants just pulled from its
/// arrival stream, before they are ingested. Streaming deployments pass
/// every arrival instant through exactly one refill chunk, so this is the
/// record side of `dilu-replay`'s arrival capture — it sees the complete
/// schedule without the simulator ever materialising it.
pub type ArrivalHook = Box<dyn FnMut(FunctionId, &[SimTime])>;

/// The not-yet-pulled tail of a streaming deployment's arrival schedule.
///
/// Dropped (the whole struct) once a refill comes back short — the process
/// is exhausted before the horizon, and freeing it is what keeps a
/// finished function's memory at just its (empty) window.
pub(crate) struct ArrivalStream {
    pub(crate) process: Box<dyn dilu_workload::ArrivalProcess>,
    /// Generation horizon: no instant at or after this is ever pulled.
    pub(crate) end: SimTime,
}

pub(crate) struct FuncState {
    pub(crate) spec: FunctionSpec,
    /// Uids of this function's live instances, ascending (maintained at
    /// launch/terminate so routing never scans the whole cluster).
    pub(crate) instance_ids: Vec<InstanceUid>,
    /// The bounded pending-arrival window: the next instants due for
    /// ingest. A materialized deployment holds its whole schedule here; a
    /// streaming one holds at most [`SimConfig::arrival_window`] instants,
    /// refilled from `stream` as ingest drains it. Invariant (after any
    /// refill attempt): empty ⇔ `stream` is `None`.
    pub(crate) arrivals: VecDeque<SimTime>,
    /// The rest of the arrival schedule, still inside the process
    /// (`None` for materialized deployments and exhausted streams).
    pub(crate) stream: Option<ArrivalStream>,
    pub(crate) backlog: VecDeque<Request>,
    pub(crate) latency: LatencyRecorder,
    pub(crate) arrived: u64,
    pub(crate) completed: u64,
    pub(crate) cold_starts: ColdStartCounter,
    pub(crate) resizes: ResizeCounter,
    pub(crate) window: RateWindow,
    pub(crate) timeline: Vec<TimelinePoint>,
    pub(crate) sec_arrivals: u64,
    pub(crate) sec_completions: u64,
    pub(crate) sec_violations: u64,
    pub(crate) sec_blocks: u64,
    pub(crate) kernel_series: Vec<(u64, u64)>,
    /// `(spec.capacity_rps(), spec.capacity_rps_at(spec.quotas.limit))`,
    /// cached because the controller reads both for every function on every
    /// tick. `None` until first read, and again after a resize rewrites the
    /// quotas: deriving it at deploy time would put two profile evaluations
    /// per function into scenario build.
    pub(crate) capacity: Option<(f64, f64)>,
    /// The [`ClusterSim::capacity_epoch`] at which placement last failed
    /// for this function ([`NOT_PARKED`] if it never failed). While it
    /// equals the live epoch, launches skip placement: the [`Placement`]
    /// contract guarantees it would fail again. Once the epoch moves on, the
    /// stale value simply lets the next launch try.
    pub(crate) parked_at: u64,
}

/// [`FuncState::parked_at`] of a function with no parked demand (the epoch
/// counts up from 0 and never reaches it).
pub(crate) const NOT_PARKED: u64 = u64::MAX;

impl FuncState {
    /// One instance's serving capacity in RPS at the current `request` and
    /// `limit` quotas, derived on first use and cached until the next resize.
    pub(crate) fn capacity(&mut self) -> (f64, f64) {
        let spec = &self.spec;
        *self
            .capacity
            .get_or_insert_with(|| (spec.capacity_rps(), spec.capacity_rps_at(spec.quotas.limit)))
    }
}

/// The serving-plane simulator. See the [crate docs](crate) for the model.
pub struct ClusterSim {
    pub(crate) spec: ClusterSpec,
    pub(crate) config: SimConfig,
    pub(crate) share_policy_name: String,
    pub(crate) now: SimTime,
    /// Per-phase wall/event counters ([`SimConfig::profile`]); a disabled
    /// profiler costs one branch per phase.
    pub(crate) profiler: PhaseProfiler,
    /// The node plane: per-node GPU runtimes, busy tracking, occupancy.
    pub(crate) nodes: NodePlane,
    /// The network plane (flows + per-node model caches), when configured.
    pub(crate) net: Option<crate::netplane::NetState>,
    pub(crate) funcs: BTreeMap<FunctionId, FuncState>,
    pub(crate) instances: BTreeMap<InstanceUid, Instance>,
    pub(crate) jobs: BTreeMap<FunctionId, TrainingJob>,
    pub(crate) placement: Box<dyn Placement>,
    pub(crate) controller: Box<dyn ElasticityController>,
    /// Observer invoked with an [`AuditSnapshot`](crate::AuditSnapshot) at
    /// every controller tick.
    pub(crate) audit_hook: Option<AuditHook>,
    /// Observer invoked with every event-core pop (see [`EventHook`]).
    pub(crate) event_hook: Option<EventHook>,
    /// Observer invoked with every arrival-window refill chunk (see
    /// [`ArrivalHook`]).
    pub(crate) arrival_hook: Option<ArrivalHook>,
    /// Lazy min-index over pending-arrival window heads: holds at least
    /// one entry at or before the live head of every function with a
    /// non-empty window. Heads only advance (pops consume the front,
    /// refills append at the tail), so a popped entry that disagrees with
    /// the live head is merely stale — it is dropped or re-armed at the
    /// live head, never missed. Makes the per-wake "earliest pending
    /// arrival" query O(log F) instead of a full function scan.
    pub(crate) arrival_index: BinaryHeap<Reverse<(SimTime, FunctionId)>>,
    pub(crate) pending_resizes: Vec<PendingResize>,
    pub(crate) tags: TagSlab,
    pub(crate) slot_index: BTreeMap<dilu_gpu::InstanceId, (InstanceUid, usize, FunctionId)>,
    pub(crate) next_uid: u64,
    pub(crate) next_request: u64,
    pub(crate) next_batch: u64,
    pub(crate) next_sample_at: SimTime,
    pub(crate) sample_clock: SampleClock,
    // --- event-core working state (rebuilt at each `run_until` entry) ---
    pub(crate) events: EventQueue<SimEvent>,
    /// Instances whose batch state changed this wake (routed requests,
    /// freed pipeline slots, promotions) — the dispatch candidates. May
    /// hold duplicates; sorted and deduplicated at the dispatch phase.
    pub(crate) dirty: Vec<InstanceUid>,
    /// The out-of-heap [`SimEvent::GpuQuantum`] chain: the next
    /// one-quantum-ahead wake, if any.
    pub(crate) next_quantum_wake: Option<SimTime>,
    /// Instances in `Draining` state (guards the reap scan).
    pub(crate) draining_count: u32,
    /// `true` only inside an event-driven `run_until` — internal mutations
    /// schedule follow-up events when set.
    pub(crate) event_active: bool,
    /// `true` once this wake's GPU phase has run (completion handlers,
    /// reaping, controller) — policy catch-ups performed then must cover
    /// the current quantum too, since it will not be stepped again.
    pub(crate) gpu_phase_done: bool,
    /// Reused per-wake scratch buffers (hot-loop allocation avoidance).
    pub(crate) completion_buf: Vec<dilu_gpu::Completion>,
    pub(crate) issued_buf: Vec<(dilu_gpu::InstanceId, u64)>,
    pub(crate) dispatch_buf: Vec<(InstanceUid, u64, usize)>,
    /// Recycled `InflightBatch::requests` vectors (bounded pool): popped at
    /// dispatch, returned when the batch's last stage completes.
    pub(crate) request_pool: Vec<Vec<Request>>,
    /// Scratch for `ingest_arrivals`' route list.
    pub(crate) routed_buf: Vec<(FunctionId, Request)>,
    /// Scratch for `ingest_arrivals`' due-function list.
    pub(crate) due_funcs_buf: Vec<FunctionId>,
    /// Scratch chunk buffer for arrival-window refills.
    pub(crate) refill_buf: Vec<SimTime>,
    /// Per-wake scratch: instances promoted / whose deadline fired at this
    /// wake. Drained and handed back at the end of every wake.
    pub(crate) wake_ready_buf: Vec<InstanceUid>,
    pub(crate) wake_expired_buf: Vec<InstanceUid>,
    /// Reused controller/placement view: refilled in place each tick so
    /// the per-GPU `residents` vectors amortise to zero allocations.
    pub(crate) view_scratch: ClusterView,
    /// Bumped by every change that can free capacity or re-quota a
    /// resident — instance termination (reap, drain completion, training
    /// completion and rollback) and every applied resize. Launches only
    /// add load, so they leave it alone. A function whose placement failed
    /// at the current epoch is parked until the epoch moves.
    pub(crate) capacity_epoch: u64,
    /// Launches skipped because their function was parked.
    pub(crate) parked_launches: u64,
    pub(crate) fragmentation: FragmentationStats,
    pub(crate) occupied_series: Vec<(u64, u32)>,
    pub(crate) total_blocks_sec: u64,
    pub(crate) total_kernel_series: Vec<(u64, u64)>,
    pub(crate) gpu_seconds: f64,
    pub(crate) instance_gpu_seconds: f64,
    pub(crate) peak_gpus: u32,
    pub(crate) last_sampled_sec: Option<u64>,
    pub(crate) pending_training: Vec<(SimTime, FunctionSpec)>,
}

impl std::fmt::Debug for ClusterSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSim")
            .field("spec", &self.spec)
            .field("now", &self.now)
            .field("placement", &self.placement.name())
            .field("controller", &self.controller.name())
            .field("share_policy", &self.share_policy_name)
            .field("functions", &self.funcs.len())
            .field("instances", &self.instances.len())
            .finish_non_exhaustive()
    }
}

impl ClusterSim {
    /// Creates a cluster whose one [`ElasticityController`] decides both
    /// instance counts and the quotas of running instances.
    pub fn new(
        spec: ClusterSpec,
        config: SimConfig,
        placement: Box<dyn Placement>,
        controller: Box<dyn ElasticityController>,
        policy_factory: &dyn PolicyFactory,
    ) -> Self {
        ClusterSim {
            nodes: NodePlane::new(&spec, config.quantum, policy_factory),
            net: config
                .network
                .map(|cfg| crate::netplane::NetState::new(spec.nodes, cfg, config.quantum)),
            spec,
            config,
            share_policy_name: policy_factory.name().to_owned(),
            now: SimTime::ZERO,
            profiler: if config.profile {
                PhaseProfiler::enabled()
            } else {
                PhaseProfiler::disabled()
            },
            funcs: BTreeMap::new(),
            instances: BTreeMap::new(),
            jobs: BTreeMap::new(),
            placement,
            controller,
            audit_hook: None,
            event_hook: None,
            arrival_hook: None,
            arrival_index: BinaryHeap::new(),
            pending_resizes: Vec::new(),
            tags: TagSlab::default(),
            slot_index: BTreeMap::new(),
            next_uid: 1,
            next_request: 1,
            next_batch: 1,
            next_sample_at: SimTime::ZERO + config.tick,
            sample_clock: SampleClock::new(),
            // Near-wheel buckets aligned to the scheduling quantum: every
            // event fires on the quantum grid, so each bucket holds exactly
            // one grid instant's events.
            events: EventQueue::with_granularity(config.quantum),
            dirty: Vec::new(),
            next_quantum_wake: None,
            draining_count: 0,
            event_active: false,
            gpu_phase_done: false,
            completion_buf: Vec::new(),
            issued_buf: Vec::new(),
            dispatch_buf: Vec::new(),
            request_pool: Vec::new(),
            routed_buf: Vec::new(),
            due_funcs_buf: Vec::new(),
            refill_buf: Vec::new(),
            wake_ready_buf: Vec::new(),
            wake_expired_buf: Vec::new(),
            view_scratch: ClusterView { gpus: Vec::new() },
            capacity_epoch: 0,
            parked_launches: 0,
            fragmentation: FragmentationStats::new(),
            occupied_series: Vec::new(),
            total_blocks_sec: 0,
            total_kernel_series: Vec::new(),
            gpu_seconds: 0.0,
            instance_gpu_seconds: 0.0,
            peak_gpus: 0,
            last_sampled_sec: None,
            pending_training: Vec::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The cluster shape.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The serving-plane configuration in effect.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Report name of the placement policy.
    pub fn placement_name(&self) -> &str {
        self.placement.name()
    }

    /// Report name of the elasticity controller.
    pub fn controller_name(&self) -> &str {
        self.controller.name()
    }

    /// Report name of the per-GPU share-policy factory.
    pub fn share_policy_name(&self) -> &str {
        &self.share_policy_name
    }

    /// The accumulated per-phase profile, when [`SimConfig::profile`] is
    /// on; `None` otherwise. May be read mid-run (counters are cumulative)
    /// or after the horizon.
    pub fn phase_profile(&self) -> Option<PhaseProfile> {
        self.profiler.is_enabled().then(|| PhaseProfile {
            idle_replay: self.nodes.idle_replay(),
            ..self.profiler.finish()
        })
    }

    /// Registers an observer invoked with every event-core pop, in
    /// execution order (see [`EventHook`]). Replaces any previous hook.
    ///
    /// The stream is only produced by the event-driven time model; a
    /// dense-quantum run never pops events and records an empty stream.
    pub fn set_event_hook(&mut self, hook: EventHook) {
        self.event_hook = Some(hook);
    }

    /// Registers an observer invoked with every arrival-window refill
    /// chunk, in execution order (see [`ArrivalHook`]). Replaces any
    /// previous hook.
    ///
    /// Streaming deployments pass every arrival instant through exactly
    /// one chunk, so accumulating the chunks reconstructs the complete
    /// schedule. Materialized deployments
    /// ([`deploy_inference`](Self::deploy_inference)) never refill and are
    /// invisible here — snapshot them via
    /// [`arrival_schedule`](Self::arrival_schedule) instead.
    pub fn set_arrival_hook(&mut self, hook: ArrivalHook) {
        self.arrival_hook = Some(hook);
    }

    /// The *currently pending* arrival instants of every inference
    /// function, in function-id order.
    ///
    /// For materialized deployments this is the full not-yet-ingested
    /// schedule; for streaming deployments it is only the bounded window
    /// pulled so far (see [`SimConfig::arrival_window`]) — the complete
    /// stream is observable through
    /// [`set_arrival_hook`](Self::set_arrival_hook). A run *consumes*
    /// these queues.
    pub fn arrival_schedule(&self) -> Vec<(FunctionId, Vec<SimTime>)> {
        self.funcs
            .iter()
            .filter(|(_, f)| f.spec.kind.is_inference())
            .map(|(&id, f)| (id, f.arrivals.iter().copied().collect()))
            .collect()
    }

    /// Number of ready (serving) instances of a function.
    pub fn ready_instances(&self, func: FunctionId) -> u32 {
        self.instances.values().filter(|i| i.func == func && i.state.is_ready()).count() as u32
    }

    /// Number of currently occupied GPUs: those hosting at least one
    /// admitted instance. Cold-starting instances reserve their engine
    /// slots at launch, so their GPUs count from the launch instant —
    /// capacity is committed while the container deploys, exactly what a
    /// placement decision must see. O(1), answered from the node plane's
    /// maintained occupancy counter.
    pub fn occupied_gpus(&self) -> u32 {
        self.nodes.occupied()
    }

    /// Instance launches skipped without consulting placement because
    /// their function's last placement failed and no capacity has been
    /// freed or re-quotaed since (see the [`Placement`] failure contract).
    pub fn parked_launches(&self) -> u64 {
        self.parked_launches
    }

    /// Runs the simulation until `t_end`, using the configured
    /// [`TimeModel`].
    ///
    /// Both models stop at the same instant (the first quantum boundary at
    /// or after `t_end`) and may be called repeatedly to continue a run.
    pub fn run_until(&mut self, t_end: SimTime) {
        // First entry after a streaming deployment: pull the initial
        // window chunks. Deferred from deploy time to here so hooks
        // registered between deploy and run (the record side of
        // `dilu-replay`) observe the very first chunk.
        self.prime_arrival_windows();
        match self.config.time_model {
            TimeModel::EventDriven => self.run_until_events(t_end),
            TimeModel::DenseQuantum => {
                while self.now < t_end {
                    self.step_quantum();
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Event-driven core
    // ------------------------------------------------------------------

    /// First quantum-grid instant at or after `t`.
    pub(crate) fn grid_ceil(&self, t: SimTime) -> SimTime {
        let q = self.config.quantum.as_micros();
        SimTime::from_micros(t.as_micros().div_ceil(q) * q)
    }

    /// Last quantum-grid instant at or before `t` — the quantum start
    /// whose window `[g, g + quantum)` covers `t`.
    fn grid_floor(&self, t: SimTime) -> SimTime {
        let q = self.config.quantum.as_micros();
        SimTime::from_micros(t.as_micros() / q * q)
    }

    /// The wake-on-work driver: pops grid-instant wakes off the event
    /// queue and executes the dense stepper's phase order at each, so a
    /// quantum with no event is provably a no-op and is never visited.
    fn run_until_events(&mut self, t_end: SimTime) {
        if self.now >= t_end {
            return;
        }
        self.event_active = true;
        self.seed_event_queue();
        loop {
            // The recurring one-quantum-ahead chain wake is kept out of the
            // heap (`next_quantum_wake`): while work is in flight it fires
            // every single quantum, and paying two heap operations per
            // quantum for it is measurable at macro scale.
            let t = match (self.next_quantum_wake, self.events.peek_time()) {
                (None, None) => break,
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (Some(a), Some(b)) => a.min(b),
            };
            if t >= t_end {
                break;
            }
            self.process_wake(t);
        }
        self.event_active = false;
        // Land exactly where the dense stepper stops: the first quantum
        // boundary at or after the horizon.
        let end = self.grid_ceil(t_end);
        if end > self.now {
            self.now = end;
        }
        // The queue is rebuilt from state on the next entry; outstanding
        // deadline tokens die with it.
        self.events.clear();
        for inst in self.instances.values_mut() {
            inst.deadline = None;
        }
        self.next_quantum_wake = None;
    }

    /// Rebuilds the event queue (and the busy/dirty scratch sets) from the
    /// current cluster state, so deployments and scheduling calls made
    /// between `run_until` calls need no event bookkeeping of their own.
    fn seed_event_queue(&mut self) {
        self.events.clear();
        for inst in self.instances.values_mut() {
            inst.deadline = None;
        }
        self.next_quantum_wake = None;
        self.events.reserve(self.instances.len() + self.funcs.len() + 4);
        self.nodes.rebuild_busy();
        self.dirty =
            self.instances.values().filter(|i| !i.pending.is_empty()).map(|i| i.uid).collect();
        self.draining_count =
            self.instances.values().filter(|i| matches!(i.state, InstanceState::Draining)).count()
                as u32;
        self.schedule_controller_tick(self.now);
        self.schedule_arrival_event();
        let pending_training: Vec<SimTime> =
            self.pending_training.iter().map(|&(at, _)| at).collect();
        for at in pending_training {
            let due = self.grid_ceil(at).max(self.now);
            self.events.push(due, SimEvent::TrainingSubmit);
        }
        let pending_resizes: Vec<SimTime> = self.pending_resizes.iter().map(|r| r.due).collect();
        for due in pending_resizes {
            let due = self.grid_ceil(due).max(self.now);
            self.events.push(due, SimEvent::ResizeApply);
        }
        let cold: Vec<(InstanceUid, SimTime)> = self
            .instances
            .values()
            .filter_map(|i| match i.state {
                InstanceState::ColdStarting { ready_at } => Some((i.uid, ready_at)),
                _ => None,
            })
            .collect();
        for (uid, ready_at) in cold {
            if ready_at == SimTime::MAX {
                // Weight fetch in flight: the NetFlowDone wake below (not a
                // promotion instant) re-arms this instance.
                continue;
            }
            let due = self.grid_ceil(ready_at).max(self.now);
            self.events.push(due, SimEvent::ColdStartReady(uid));
        }
        if let Some(net) = self.net.as_ref() {
            let now = self.now;
            let finishes: Vec<SimTime> = net.plane.finish_instants().collect();
            for t in finishes {
                self.events.push(t.max(now), SimEvent::NetFlowDone);
            }
        }
        if self.nodes.has_busy() || !self.dirty.is_empty() || self.draining_count > 0 {
            self.events.push(self.now, SimEvent::GpuQuantum);
        }
    }

    /// Schedules the recurring tick at the first grid instant `t ≥ floor`
    /// whose quantum window reaches `next_sample_at` — the same instant the
    /// dense stepper's `now + quantum >= next_sample_at` check fires.
    fn schedule_controller_tick(&mut self, floor: SimTime) {
        let target = SimTime::from_micros(
            self.next_sample_at.as_micros().saturating_sub(self.config.quantum.as_micros()),
        );
        let at = self.grid_ceil(target).max(floor);
        self.events.push(at, SimEvent::ControllerTick);
    }

    /// (Re)schedules the single outstanding [`SimEvent::ArrivalBatch`] for
    /// the grid instant covering the earliest pending arrival. O(log F)
    /// through the lazy arrival index — never a full function scan.
    fn schedule_arrival_event(&mut self) {
        if let Some(t) = self.next_pending_arrival() {
            let at = self.grid_floor(t).max(self.now);
            self.events.push(at, SimEvent::ArrivalBatch);
        }
    }

    /// The earliest pending arrival instant across all functions, answered
    /// from the lazy arrival index (stale entries — heads that advanced
    /// since they were pushed — are re-armed at their live head as they
    /// surface; exhausted functions' entries are dropped).
    pub fn next_pending_arrival(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((t, id))) = self.arrival_index.peek() {
            match self.funcs.get(&id).and_then(|f| f.arrivals.front().copied()) {
                Some(head) if head == t => return Some(t),
                Some(head) => {
                    debug_assert!(head > t, "arrival-window heads only advance");
                    self.arrival_index.pop();
                    self.arrival_index.push(Reverse((head, id)));
                }
                None => {
                    self.arrival_index.pop();
                }
            }
        }
        None
    }

    /// Pulls the initial window chunk for every streaming function whose
    /// window is empty. Idempotent: a non-empty window or an exhausted
    /// (dropped) stream makes it a no-op, so repeated `run_until` calls
    /// prime at most once per function.
    fn prime_arrival_windows(&mut self) {
        let empty: Vec<FunctionId> = self
            .funcs
            .iter()
            .filter(|(_, f)| f.stream.is_some() && f.arrivals.is_empty())
            .map(|(&id, _)| id)
            .collect();
        for id in empty {
            self.refill_arrivals(id);
        }
    }

    /// Refills `id`'s pending-arrival window with the next chunk of its
    /// stream (at most [`SimConfig::arrival_window`] instants; everything
    /// up to the horizon when the window is 0), fires the arrival hook
    /// with the chunk, and indexes the new head. Drops the stream when it
    /// comes back short — exhausted before the horizon — so the invariant
    /// "window empty ⇔ stream `None`" holds after every call.
    pub(crate) fn refill_arrivals(&mut self, id: FunctionId) {
        let max = match self.config.arrival_window {
            0 => usize::MAX,
            w => w as usize,
        };
        let mut chunk = std::mem::take(&mut self.refill_buf);
        chunk.clear();
        let Some(f) = self.funcs.get_mut(&id) else {
            self.refill_buf = chunk;
            return;
        };
        let Some(stream) = f.stream.as_mut() else {
            self.refill_buf = chunk;
            return;
        };
        let got = stream.process.refill(stream.end, max, &mut chunk);
        debug_assert_eq!(got, chunk.len(), "refill count disagrees with chunk length");
        if got < max {
            f.stream = None;
        }
        if got > 0 {
            let was_empty = f.arrivals.is_empty();
            f.arrivals.extend(chunk.iter().copied());
            if was_empty {
                let head = *chunk.first().expect("non-empty chunk");
                self.arrival_index.push(Reverse((head, id)));
            }
            if let Some(hook) = self.arrival_hook.as_mut() {
                hook(id, &chunk);
            }
        }
        self.refill_buf = chunk;
    }

    /// Schedules a one-quantum-ahead wake. This is the out-of-heap fast
    /// path of [`SimEvent::GpuQuantum`]: the run loop takes the minimum of
    /// this instant and the queue head.
    fn ensure_quantum_wake(&mut self, at: SimTime) {
        match self.next_quantum_wake {
            Some(existing) if existing <= at => {}
            _ => self.next_quantum_wake = Some(at),
        }
    }

    /// (Re)schedules the batch-formation deadline of `uid` for the grid
    /// instant at which its oldest pending request times out.
    pub(crate) fn schedule_deadline(&mut self, uid: InstanceUid, raw_due: SimTime) {
        let due = self.grid_ceil(raw_due);
        let Some(inst) = self.instances.get_mut(&uid) else {
            return;
        };
        if let Some((at, _)) = inst.deadline {
            if at == due {
                return;
            }
        }
        if let Some((_, token)) = inst.deadline.take() {
            self.events.cancel(token);
        }
        let token = self.events.push_cancellable(due, SimEvent::BatchDeadline(uid));
        self.instances.get_mut(&uid).expect("present above").deadline = Some((due, token));
    }

    pub(crate) fn cancel_deadline(&mut self, uid: InstanceUid) {
        if let Some((_, token)) = self.instances.get_mut(&uid).and_then(|i| i.deadline.take()) {
            self.events.cancel(token);
        }
    }

    /// Executes one wake: drains every event due at `t`, then runs the
    /// dense stepper's phases in canonical order, each gated on whether an
    /// event asked for it.
    fn process_wake(&mut self, t: SimTime) {
        debug_assert!(t >= self.now, "wakes are monotone");
        self.now = t;
        self.gpu_phase_done = false;
        if self.next_quantum_wake == Some(t) {
            self.next_quantum_wake = None;
            if let Some(hook) = self.event_hook.as_mut() {
                hook(EventRecord { at: t, seq: 0, kind: QUANTUM_CHAIN_CODE, uid: 0 });
            }
        }
        let mut resizes = false;
        let mut training = false;
        let mut arrivals = false;
        let mut controller = false;
        let mut ready = std::mem::take(&mut self.wake_ready_buf);
        let mut expired = std::mem::take(&mut self.wake_expired_buf);
        while let Some((at, seq, event)) = self.events.pop_due_with_seq(t) {
            if let Some(hook) = self.event_hook.as_mut() {
                hook(EventRecord { at, seq, kind: event.code(), uid: event.payload_uid() });
            }
            match event {
                SimEvent::GpuQuantum => {}
                SimEvent::ArrivalBatch => arrivals = true,
                SimEvent::BatchDeadline(uid) => {
                    // The fired token was this instance's current deadline
                    // (reschedules cancel the old event), so just clear it.
                    if let Some(inst) = self.instances.get_mut(&uid) {
                        inst.deadline = None;
                    }
                    expired.push(uid);
                }
                SimEvent::ControllerTick => controller = true,
                SimEvent::ResizeApply => resizes = true,
                SimEvent::ColdStartReady(uid) => ready.push(uid),
                SimEvent::TrainingSubmit => training = true,
                // Flow finish instants are over-pushed after every
                // membership change; the net phase below treats stale
                // ones as no-ops.
                SimEvent::NetFlowDone => {}
            }
        }
        self.profiler.count_wake();
        if resizes {
            let pt = self.profiler.start();
            let before = self.pending_resizes.len();
            self.apply_due_resizes();
            let applied = (before - self.pending_resizes.len()) as u64;
            self.profiler.record(SimPhase::Resize, pt, applied);
        }
        if training {
            let pt = self.profiler.start();
            let before = self.pending_training.len();
            self.submit_due_training();
            let submitted = before.saturating_sub(self.pending_training.len()) as u64;
            self.profiler.record(SimPhase::Train, pt, submitted);
        }
        let pt = self.profiler.start();
        let (net_ready, flows_done) = self.process_net_phase();
        self.profiler.record(SimPhase::Net, pt, flows_done);
        let pt = self.profiler.start();
        if self.net.is_some() {
            // Merge fetch-completed promotions with event-carried ones in
            // uid order, matching the dense stepper's BTreeMap scan.
            ready.extend(net_ready);
            ready.sort_unstable();
            ready.dedup();
        }
        let promoted = ready.len() as u64;
        for &uid in &ready {
            self.promote_instance(uid);
        }
        self.profiler.record(SimPhase::Promote, pt, promoted);
        if arrivals {
            let pt = self.profiler.start();
            let before = self.next_request;
            self.ingest_arrivals();
            self.schedule_arrival_event();
            self.profiler.record(SimPhase::Arrive, pt, self.next_request - before);
        }
        let pt = self.profiler.start();
        let before = self.next_batch;
        self.dispatch_candidates(&expired);
        self.profiler.record(SimPhase::Dispatch, pt, self.next_batch - before);
        if self.nodes.has_busy() {
            let pt = self.profiler.start();
            self.nodes.step_busy(
                self.now,
                self.config.quantum,
                &mut self.completion_buf,
                &mut self.issued_buf,
            );
            let completions = self.handle_gpu_phase();
            self.profiler.record(SimPhase::Step, pt, completions);
        }
        self.gpu_phase_done = true;
        if self.draining_count > 0 {
            let pt = self.profiler.start();
            let before = self.draining_count;
            self.reap_drained();
            let reaped = u64::from(before.saturating_sub(self.draining_count));
            self.profiler.record(SimPhase::Reap, pt, reaped);
        }
        if controller {
            let pt = self.profiler.start();
            self.sample_metrics();
            self.run_controller();
            self.next_sample_at += self.config.tick;
            self.schedule_controller_tick(self.now + self.config.quantum);
            self.profiler.record(SimPhase::Tick, pt, 1);
        }
        if self.nodes.has_busy() || !self.dirty.is_empty() || self.draining_count > 0 {
            self.ensure_quantum_wake(t + self.config.quantum);
        }
        ready.clear();
        expired.clear();
        self.wake_ready_buf = ready;
        self.wake_expired_buf = expired;
    }

    // ------------------------------------------------------------------
    // Shared phases
    // ------------------------------------------------------------------

    /// One dense quantum: the canonical phase order the event core
    /// reproduces wake by wake.
    fn step_quantum(&mut self) {
        self.profiler.count_wake();
        let pt = self.profiler.start();
        let before = self.pending_resizes.len();
        self.apply_due_resizes();
        let applied = (before - self.pending_resizes.len()) as u64;
        self.profiler.record(SimPhase::Resize, pt, applied);
        let pt = self.profiler.start();
        let before = self.pending_training.len();
        self.submit_due_training();
        let submitted = before.saturating_sub(self.pending_training.len()) as u64;
        self.profiler.record(SimPhase::Train, pt, submitted);
        let pt = self.profiler.start();
        let (_, flows_done) = self.process_net_phase();
        self.profiler.record(SimPhase::Net, pt, flows_done);
        let pt = self.profiler.start();
        let promoted = self.promote_ready_instances();
        self.profiler.record(SimPhase::Promote, pt, promoted);
        let pt = self.profiler.start();
        let before = self.next_request;
        self.ingest_arrivals();
        self.profiler.record(SimPhase::Arrive, pt, self.next_request - before);
        let pt = self.profiler.start();
        let before = self.next_batch;
        self.dispatch_batches();
        self.profiler.record(SimPhase::Dispatch, pt, self.next_batch - before);
        let pt = self.profiler.start();
        self.nodes.step_all(
            self.now,
            self.config.quantum,
            &mut self.completion_buf,
            &mut self.issued_buf,
        );
        let completions = self.handle_gpu_phase();
        self.profiler.record(SimPhase::Step, pt, completions);
        let pt = self.profiler.start();
        let before = self.draining_count;
        self.reap_drained();
        let reaped = u64::from(before.saturating_sub(self.draining_count));
        self.profiler.record(SimPhase::Reap, pt, reaped);
        if self.now + self.config.quantum >= self.next_sample_at {
            let pt = self.profiler.start();
            self.sample_metrics();
            self.run_controller();
            self.next_sample_at += self.config.tick;
            self.profiler.record(SimPhase::Tick, pt, 1);
        }
        self.now += self.config.quantum;
    }

    /// The control-plane half of the GPU phase: the node plane has just
    /// merged its completions/blocks into `completion_buf`/`issued_buf` in
    /// fixed node order; this attributes the blocks and handles the
    /// completions in that order, leaving both buffers empty. Returns the
    /// number of batch completions handled.
    fn handle_gpu_phase(&mut self) -> u64 {
        let mut completions = std::mem::take(&mut self.completion_buf);
        let mut issued = std::mem::take(&mut self.issued_buf);
        self.attribute_blocks(&issued);
        issued.clear();
        self.gpu_phase_done = true;
        let handled = completions.len() as u64;
        for c in completions.drain(..) {
            self.handle_completion(c);
        }
        self.completion_buf = completions;
        self.issued_buf = issued;
        handled
    }

    /// Consumes the simulator and produces the final report.
    pub fn into_report(mut self) -> ClusterReport {
        // Flush the final partial second.
        self.sample_metrics();
        let horizon = self.now;
        let mut report = ClusterReport {
            horizon,
            fragmentation: self.fragmentation,
            occupied_gpus: self.occupied_series,
            peak_gpus: self.peak_gpus,
            gpu_time: SimDuration::from_secs_f64(self.gpu_seconds),
            instance_gpu_time: SimDuration::from_secs_f64(self.instance_gpu_seconds),
            total_kernel_series: self.total_kernel_series,
            ..ClusterReport::default()
        };
        for (id, f) in self.funcs {
            match f.spec.kind {
                FunctionKind::Inference { slo, .. } => {
                    report.kernel_series.insert(id, f.kernel_series.clone());
                    report.inference.insert(
                        id,
                        FunctionReport {
                            name: f.spec.name.clone(),
                            model: f.spec.model,
                            latency: f.latency,
                            slo,
                            output_tokens: f.spec.model.profile().output_tokens,
                            arrived: f.arrived,
                            completed: f.completed,
                            cold_starts: f.cold_starts,
                            resizes: f.resizes,
                            timeline: f.timeline,
                        },
                    );
                }
                FunctionKind::Training { workers, .. } => {
                    report.kernel_series.insert(id, f.kernel_series.clone());
                    let job = self.jobs.get(&id);
                    report.training.insert(
                        id,
                        TrainingReport {
                            name: f.spec.name.clone(),
                            model: f.spec.model,
                            workers,
                            iterations_done: job.map_or(0, |j| j.iterations_done),
                            samples_done: job.map_or(0, |j| j.samples_done),
                            started: job.and_then(|j| j.started),
                            finished: job.and_then(|j| j.finished),
                            unit: f.spec.model.profile().training.unit,
                        },
                    );
                }
            }
        }
        report
    }
}

pub(crate) fn new_func_state(spec: FunctionSpec, arrivals: Vec<SimTime>) -> FuncState {
    FuncState {
        spec,
        instance_ids: Vec::new(),
        arrivals: arrivals.into(),
        stream: None,
        backlog: VecDeque::new(),
        latency: LatencyRecorder::new(),
        arrived: 0,
        completed: 0,
        cold_starts: ColdStartCounter::new(),
        resizes: ResizeCounter::new(),
        window: RateWindow::new(40),
        timeline: Vec::new(),
        sec_arrivals: 0,
        sec_completions: 0,
        sec_violations: 0,
        sec_blocks: 0,
        kernel_series: Vec::new(),
        capacity: None,
        parked_at: NOT_PARKED,
    }
}
