//! The open composition API: build any system — Dilu, an ablation, a
//! baseline, or something new — from parts, then attach functions and
//! workloads and run it.
//!
//! [`ScenarioBuilder`] is the single front door over the serving-plane
//! substrate: any [`Placement`], [`ElasticityController`], and
//! [`PolicyFactory`] can be mixed freely, so new configurations (hybrid
//! controllers,
//! spatial-partition baselines, ...) need no enum variant or match arm.
//! [`SystemKind`](crate::SystemKind) presets and
//! [`ScenarioConfig`](crate::ScenarioConfig) files both name their
//! components through a [`Registry`](crate::Registry) and land here, as do
//! the paper experiments: every composition in the crate is a builder
//! chain ending in [`build`](ScenarioBuilder::build).
//!
//! # Examples
//!
//! ```
//! use dilu_core::{funcs, Scenario, SystemKind};
//! use dilu_cluster::ClusterSpec;
//! use dilu_models::ModelId;
//! use dilu_sim::SimDuration;
//! use dilu_workload::PoissonProcess;
//!
//! let report = SystemKind::Dilu
//!     .builder()
//!     .cluster(ClusterSpec::single_node(2))
//!     .horizon(SimDuration::from_secs(10))
//!     .function(funcs::inference_function(1, ModelId::BertBase))
//!     .arrivals(PoissonProcess::new(20.0, 7))
//!     .build()?
//!     .run()?;
//! assert!(report.inference.values().next().unwrap().completed > 0);
//! # Ok::<(), dilu_core::ScenarioError>(())
//! ```

use std::collections::BTreeSet;

use dilu_cluster::ClusterReport;
use dilu_cluster::{
    ClusterSim, ClusterSpec, DeployError, ElasticityController, FunctionId, FunctionSpec,
    Placement, PolicyFactory, SimConfig,
};
use dilu_sim::{SimDuration, SimTime};
use dilu_workload::{ArrivalProcess, ArrivalSpec};

/// Why a scenario could not be composed or run.
#[derive(Debug)]
#[non_exhaustive]
pub enum ScenarioError {
    /// No placement policy was supplied (and no preset provided one).
    MissingPlacement,
    /// No elasticity controller was supplied (and no preset provided one).
    MissingController,
    /// No share-policy factory was supplied (and no preset provided one).
    MissingSharePolicy,
    /// An inference function has no arrival source; use
    /// [`ScenarioBuilder::arrivals`] or [`ScenarioBuilder::arrival_times`].
    MissingArrivals(FunctionId),
    /// A workload method was called before any [`ScenarioBuilder::function`].
    WorkloadBeforeFunction(&'static str),
    /// Arrivals were attached to a training function.
    ArrivalsForTraining(FunctionId),
    /// A workload method was applied to a function of the wrong role
    /// (e.g. `initial_instances` on training, `starts_at` on inference).
    WrongRole {
        /// The function the method was applied to.
        func: FunctionId,
        /// The builder method that does not apply.
        method: &'static str,
    },
    /// Two functions share an id.
    DuplicateFunction(FunctionId),
    /// The scenario defines no functions at all.
    NoFunctions,
    /// The serving plane rejected a deployment.
    Deploy(DeployError),
    /// A registry lookup failed (unknown name).
    Unknown {
        /// What was looked up: "placement", "controller", ...
        kind: &'static str,
        /// The name that matched nothing.
        name: String,
        /// The names that would have matched.
        known: Vec<String>,
    },
    /// A config file could not be parsed or mapped onto the builder.
    Config(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::MissingPlacement => write!(f, "scenario has no placement policy"),
            ScenarioError::MissingController => write!(f, "scenario has no elasticity controller"),
            ScenarioError::MissingSharePolicy => {
                write!(f, "scenario has no share-policy factory")
            }
            ScenarioError::MissingArrivals(id) => {
                write!(f, "inference function {id} has no arrival source")
            }
            ScenarioError::WorkloadBeforeFunction(method) => {
                write!(f, "`{method}` called before any `function(...)`")
            }
            ScenarioError::ArrivalsForTraining(id) => {
                write!(f, "arrivals attached to training function {id}")
            }
            ScenarioError::WrongRole { func, method } => {
                write!(f, "`{method}` does not apply to function {func}'s role")
            }
            ScenarioError::DuplicateFunction(id) => {
                write!(f, "function id {id} declared twice")
            }
            ScenarioError::NoFunctions => write!(f, "scenario declares no functions"),
            ScenarioError::Deploy(e) => write!(f, "deployment failed: {e}"),
            ScenarioError::Unknown { kind, name, known } => {
                write!(f, "unknown {kind} `{name}` (known: {})", known.join(", "))
            }
            ScenarioError::Config(msg) => write!(f, "invalid scenario config: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<DeployError> for ScenarioError {
    fn from(e: DeployError) -> Self {
        ScenarioError::Deploy(e)
    }
}

/// Where an inference function's requests come from.
enum ArrivalSource {
    /// A generator streamed in bounded chunks up to the scenario horizon.
    Process(Box<dyn ArrivalProcess>),
    /// A declarative spec, built at `build()` time with the scenario seed
    /// as the default.
    Spec(Box<ArrivalSpec>),
    /// Explicit instants.
    Times(Vec<SimTime>),
    /// Nothing attached yet — an error at `build()`.
    Unset,
}

enum Workload {
    Inference { initial: u32, arrivals: ArrivalSource },
    Training { start: SimTime },
}

struct FunctionEntry {
    spec: FunctionSpec,
    workload: Workload,
}

/// Fluent, open composition of a complete serving scenario.
///
/// Start from [`Scenario::builder`] (empty) or a
/// [`SystemKind`](crate::SystemKind) preset, swap any component, attach
/// functions and workloads, then [`build`](ScenarioBuilder::build).
///
/// The type is `#[must_use]`: every fluent method consumes and returns the
/// builder, so a dropped return value silently discards the whole
/// composition step.
#[must_use = "ScenarioBuilder methods return the updated builder; dropping it discards the step"]
pub struct ScenarioBuilder {
    cluster: ClusterSpec,
    sim: SimConfig,
    placement: Option<Box<dyn Placement>>,
    controller: Option<Box<dyn ElasticityController>>,
    share_policy: Option<Box<dyn PolicyFactory>>,
    functions: Vec<FunctionEntry>,
    /// Ids of `functions`, so the duplicate check stays O(log n) per add
    /// (fleet scenarios add ten thousand functions).
    ids: BTreeSet<FunctionId>,
    horizon: SimDuration,
    drain: SimDuration,
    seed: u64,
    misuse: Option<ScenarioError>,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder {
            cluster: ClusterSpec::paper_testbed(),
            sim: SimConfig::default(),
            placement: None,
            controller: None,
            share_policy: None,
            functions: Vec::new(),
            ids: BTreeSet::new(),
            horizon: SimDuration::from_secs(60),
            drain: SimDuration::from_secs(5),
            seed: 7,
            misuse: None,
        }
    }
}

impl ScenarioBuilder {
    /// An empty builder: the paper's testbed cluster, default sim config,
    /// no policies, no functions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the cluster shape.
    pub fn cluster(mut self, spec: ClusterSpec) -> Self {
        self.cluster = spec;
        self
    }

    /// Sets the serving-plane tunables.
    pub fn sim_config(mut self, config: SimConfig) -> Self {
        self.sim = config;
        self
    }

    /// Attaches a shared-bandwidth network plane (`[network]`): cold
    /// starts become registry weight-fetch flows (storms contend, node
    /// caches absorb repeats) and pipeline stage handoffs become
    /// activation transfers. Without this call the legacy constants apply
    /// and reports reproduce byte-for-byte. Invalid capacities are
    /// rejected at [`build`](Self::build), exactly as the TOML front door
    /// rejects them.
    pub fn network(mut self, cfg: dilu_net::NetworkConfig) -> Self {
        if let Err(e) = cfg.validate() {
            self.misuse.get_or_insert(ScenarioError::Config(format!("[network] {e}")));
        } else {
            self.sim.network = Some(cfg);
        }
        self
    }

    /// Sets the placement policy.
    pub fn placement(mut self, placement: impl Placement + 'static) -> Self {
        self.placement = Some(Box::new(placement));
        self
    }

    /// Sets the placement policy from a box (registry path).
    pub fn placement_boxed(mut self, placement: Box<dyn Placement>) -> Self {
        self.placement = Some(placement);
        self
    }

    /// Sets the elasticity controller: horizontal scaling, plus vertical
    /// quota resizing for a 2D controller.
    pub fn controller(mut self, controller: impl ElasticityController + 'static) -> Self {
        self.controller = Some(Box::new(controller));
        self
    }

    /// Sets the elasticity controller from a box (registry path).
    pub fn controller_boxed(mut self, controller: Box<dyn ElasticityController>) -> Self {
        self.controller = Some(controller);
        self
    }

    /// Sets the per-GPU share-policy factory.
    pub fn share_policy(mut self, factory: impl PolicyFactory + 'static) -> Self {
        self.share_policy = Some(Box::new(factory));
        self
    }

    /// Sets the share-policy factory from a box (registry path).
    pub fn share_policy_boxed(mut self, factory: Box<dyn PolicyFactory>) -> Self {
        self.share_policy = Some(factory);
        self
    }

    /// Simulated time to serve traffic for (arrival generators sample up to
    /// this horizon). Default 60 s.
    pub fn horizon(mut self, horizon: SimDuration) -> Self {
        self.horizon = horizon;
        self
    }

    /// Extra tail after the horizon letting in-flight work finish.
    /// Default 5 s.
    pub fn drain(mut self, drain: SimDuration) -> Self {
        self.drain = drain;
        self
    }

    /// Root seed used by [`arrivals_spec`](Self::arrivals_spec) entries
    /// that carry no seed of their own (salted per function id).
    /// Processes attached via [`arrivals`](Self::arrivals) keep their own
    /// seeds. Default 7.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds a function. Subsequent workload calls
    /// ([`arrivals`](Self::arrivals), [`initial_instances`](Self::initial_instances),
    /// [`starts_at`](Self::starts_at)) apply to this function.
    pub fn function(mut self, spec: FunctionSpec) -> Self {
        if !self.ids.insert(spec.id) && self.misuse.is_none() {
            self.misuse = Some(ScenarioError::DuplicateFunction(spec.id));
        }
        let workload = if spec.kind.is_inference() {
            Workload::Inference { initial: 1, arrivals: ArrivalSource::Unset }
        } else {
            Workload::Training { start: SimTime::ZERO }
        };
        self.functions.push(FunctionEntry { spec, workload });
        self
    }

    fn with_last<F: FnOnce(&mut FunctionEntry) -> Result<(), ScenarioError>>(
        mut self,
        method: &'static str,
        apply: F,
    ) -> Self {
        match self.functions.last_mut() {
            Some(entry) => {
                if let Err(e) = apply(entry) {
                    self.misuse.get_or_insert(e);
                }
            }
            None => {
                self.misuse.get_or_insert(ScenarioError::WorkloadBeforeFunction(method));
            }
        }
        self
    }

    /// Attaches an arrival process to the last-added (inference) function.
    /// The process is sampled over the scenario horizon at build time.
    pub fn arrivals(self, process: impl ArrivalProcess + 'static) -> Self {
        self.arrivals_boxed(Box::new(process))
    }

    /// [`arrivals`](Self::arrivals) from a box (registry path).
    pub fn arrivals_boxed(self, process: Box<dyn ArrivalProcess>) -> Self {
        self.with_last("arrivals", |entry| match &mut entry.workload {
            Workload::Inference { arrivals, .. } => {
                *arrivals = ArrivalSource::Process(process);
                Ok(())
            }
            Workload::Training { .. } => Err(ScenarioError::ArrivalsForTraining(entry.spec.id)),
        })
    }

    /// Attaches a declarative [`ArrivalSpec`] to the last-added
    /// (inference) function. The process is constructed at build time,
    /// defaulting its seed to the scenario [`seed`](Self::seed) salted
    /// with the function id — so sweeping the scenario seed re-randomises
    /// every spec-based workload at once.
    pub fn arrivals_spec(self, spec: ArrivalSpec) -> Self {
        self.with_last("arrivals_spec", |entry| match &mut entry.workload {
            Workload::Inference { arrivals, .. } => {
                *arrivals = ArrivalSource::Spec(Box::new(spec));
                Ok(())
            }
            Workload::Training { .. } => Err(ScenarioError::ArrivalsForTraining(entry.spec.id)),
        })
    }

    /// Attaches explicit arrival instants to the last-added (inference)
    /// function; instants are sorted on attach (the serving plane consumes
    /// a time-ordered stream). An empty list is allowed (a
    /// deployed-but-idle function).
    pub fn arrival_times(self, mut times: Vec<SimTime>) -> Self {
        times.sort_unstable();
        self.with_last("arrival_times", |entry| match &mut entry.workload {
            Workload::Inference { arrivals, .. } => {
                *arrivals = ArrivalSource::Times(times);
                Ok(())
            }
            Workload::Training { .. } => Err(ScenarioError::ArrivalsForTraining(entry.spec.id)),
        })
    }

    /// Attaches explicit arrival instants to the (inference) function with
    /// id `func`, wherever it sits in the composition — replacing whatever
    /// arrival source the function had.
    ///
    /// This is `dilu-replay`'s no-resampling path: replay overrides every
    /// recorded arrival schedule with the exact logged micro-instants, so
    /// no arrival process is ever sampled again. Unlike the TOML
    /// `arrivals.times` field (seconds as `f64`), instants pass through
    /// unconverted. An unknown id or a training function records a misuse
    /// error surfaced at [`build`](Self::build).
    pub fn arrival_times_for(
        mut self,
        func: dilu_cluster::FunctionId,
        mut times: Vec<SimTime>,
    ) -> Self {
        times.sort_unstable();
        match self.functions.iter_mut().find(|e| e.spec.id == func) {
            Some(entry) => match &mut entry.workload {
                Workload::Inference { arrivals, .. } => *arrivals = ArrivalSource::Times(times),
                Workload::Training { .. } => {
                    self.misuse.get_or_insert(ScenarioError::ArrivalsForTraining(func));
                }
            },
            None => {
                self.misuse.get_or_insert(ScenarioError::Config(format!(
                    "`arrival_times_for` names function {func}, which the scenario does not \
                     declare"
                )));
            }
        }
        self
    }

    /// Pre-warmed instances for the last-added (inference) function.
    /// Default 1.
    pub fn initial_instances(self, initial: u32) -> Self {
        self.with_last("initial_instances", |entry| match &mut entry.workload {
            Workload::Inference { initial: slot, .. } => {
                *slot = initial;
                Ok(())
            }
            Workload::Training { .. } => {
                Err(ScenarioError::WrongRole { func: entry.spec.id, method: "initial_instances" })
            }
        })
    }

    /// Submission time of the last-added (training) function. Default 0.
    pub fn starts_at(self, at: SimTime) -> Self {
        self.with_last("starts_at", |entry| match &mut entry.workload {
            Workload::Training { start } => {
                *start = at;
                Ok(())
            }
            Workload::Inference { .. } => {
                Err(ScenarioError::WrongRole { func: entry.spec.id, method: "starts_at" })
            }
        })
    }

    /// Builds the full scenario: validates the composition and deploys
    /// every function, attaching each arrival source as a *stream* — the
    /// serving plane pulls instants in bounded chunks up to the horizon
    /// (see [`SimConfig::arrival_window`](dilu_cluster::SimConfig)), so a
    /// scenario's memory scales with functions × window, not with total
    /// request count. Results are byte-identical to materializing every
    /// schedule up front (arrival processes draw the same instants at
    /// every chunking).
    ///
    /// # Errors
    ///
    /// Any recorded builder misuse, [`ScenarioError::MissingPlacement`] /
    /// [`ScenarioError::MissingController`] /
    /// [`ScenarioError::MissingSharePolicy`] when a component is absent,
    /// [`ScenarioError::NoFunctions`],
    /// [`ScenarioError::MissingArrivals`] for an inference function with no
    /// arrival source, and [`ScenarioError::Deploy`] when the serving plane
    /// rejects a function.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        if let Some(misuse) = self.misuse {
            return Err(misuse);
        }
        let placement = self.placement.ok_or(ScenarioError::MissingPlacement)?;
        let controller = self.controller.ok_or(ScenarioError::MissingController)?;
        let share_policy = self.share_policy.ok_or(ScenarioError::MissingSharePolicy)?;
        if self.functions.is_empty() {
            return Err(ScenarioError::NoFunctions);
        }
        let mut sim =
            ClusterSim::new(self.cluster, self.sim, placement, controller, &*share_policy);
        let end = SimTime::ZERO + self.horizon;
        for entry in self.functions {
            match entry.workload {
                Workload::Inference { initial, arrivals } => {
                    // Explicit instants historically passed through
                    // unclamped (ones beyond the horizon can still ingest
                    // during the drain tail), so their stream end is MAX;
                    // generators sample up to the horizon as always.
                    let (process, stream_end): (Box<dyn ArrivalProcess>, SimTime) = match arrivals {
                        ArrivalSource::Process(p) => (p, end),
                        ArrivalSource::Spec(spec) => (
                            spec.build(self.seed ^ u64::from(entry.spec.id.0), self.horizon)
                                .map_err(|e| ScenarioError::Config(e.to_string()))?,
                            end,
                        ),
                        ArrivalSource::Times(times) => {
                            (Box::new(dilu_workload::ReplayProcess::new(times)), SimTime::MAX)
                        }
                        ArrivalSource::Unset => {
                            return Err(ScenarioError::MissingArrivals(entry.spec.id));
                        }
                    };
                    sim.deploy_inference_streaming(entry.spec, initial, process, stream_end)?;
                }
                Workload::Training { start } => {
                    if start == SimTime::ZERO {
                        sim.deploy_training(entry.spec)?;
                    } else {
                        sim.schedule_training(entry.spec, start)?;
                    }
                }
            }
        }
        Ok(Scenario { sim, horizon: self.horizon, drain: self.drain, seed: self.seed })
    }
}

impl std::fmt::Debug for ScenarioBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioBuilder")
            .field("cluster", &self.cluster)
            .field("placement", &self.placement.as_ref().map(|p| p.name().to_owned()))
            .field("controller", &self.controller.as_ref().map(|a| a.name().to_owned()))
            .field("share_policy", &self.share_policy.as_ref().map(|s| s.name().to_owned()))
            .field("functions", &self.functions.len())
            .field("horizon", &self.horizon)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

/// A fully composed, deployed scenario, ready to run.
pub struct Scenario {
    sim: ClusterSim,
    horizon: SimDuration,
    drain: SimDuration,
    seed: u64,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("cluster", self.sim.spec())
            .field("placement", &self.sim.placement_name())
            .field("controller", &self.sim.controller_name())
            .field("share_policy", &self.sim.share_policy_name())
            .field("horizon", &self.horizon)
            .finish_non_exhaustive()
    }
}

impl Scenario {
    /// An empty [`ScenarioBuilder`].
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }

    /// The underlying simulator (e.g. to inspect composition names).
    #[must_use]
    pub fn sim(&self) -> &ClusterSim {
        &self.sim
    }

    /// The traffic horizon.
    #[must_use]
    pub fn horizon(&self) -> SimDuration {
        self.horizon
    }

    /// The drain tail after the horizon.
    #[must_use]
    pub fn drain(&self) -> SimDuration {
        self.drain
    }

    /// The root seed used for arrival sampling fallbacks.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Runs to the horizon plus the drain tail and reports.
    pub fn run(self) -> Result<ClusterReport, ScenarioError> {
        self.run_profiled().map(|(report, _)| report)
    }

    /// Runs like [`run`](Self::run) and also returns the per-phase
    /// profile when the scenario was composed with
    /// [`SimConfig::profile`](dilu_cluster::SimConfig) on (the `[sim]
    /// profile` knob / `dilu run --profile`); `None` otherwise. The
    /// report is byte-identical either way — profiling is observational.
    pub fn run_profiled(
        mut self,
    ) -> Result<(ClusterReport, Option<dilu_metrics::PhaseProfile>), ScenarioError> {
        self.sim.run_until(SimTime::ZERO + self.horizon + self.drain);
        let profile = self.sim.phase_profile();
        Ok((self.sim.into_report(), profile))
    }

    /// Hands back the simulator for custom stepping instead of
    /// [`run`](Self::run).
    pub fn into_sim(self) -> ClusterSim {
        self.sim
    }
}
