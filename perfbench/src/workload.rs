//! The three workloads, and one repetition of each: set up, run once,
//! measure, check.
//!
//! Each repetition runs in a fresh process (see `main.rs`): the simulator
//! memoizes model profiles and the fig15 result per process, so a second
//! run in the same process would measure less work.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use dilu_core::experiments::{self, ExperimentCtx};
use dilu_core::{
    funcs, ComponentSection, Registry, RunSection, ScenarioConfig, SimSection, SystemSection,
};
use dilu_models::ModelId;
use dilu_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::{host, outcome, trace};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `macro-scale.toml` as shipped: the steady-state serving hot path
    /// (engine step, dispatch, streamed arrivals) on 1024 GPUs for one
    /// simulated hour. Controller and placement do little work here.
    MacroHour,
    /// The `production-day.toml` fleet unchanged (10k functions on 32
    /// GPUs, scale-from-zero), cut to a prefix past the onset of the
    /// failing scale-out storm: controller ticks and failed placements,
    /// with almost no engine work.
    FleetStarved,
    /// All registered paper experiments in-process: many short scenarios,
    /// each composed fresh, so composition cost is paid per scenario.
    PaperSuite,
}

/// The fleet-starved horizon: the storm of failing scale-outs starts near
/// 300 s, so a 330 s prefix (plus the shipped 30 s drain) includes it
/// while keeping a repetition near ten seconds.
const FLEET_HORIZON_SECS: u64 = 330;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::MacroHour, Workload::FleetStarved, Workload::PaperSuite];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MacroHour => "macro-hour",
            Workload::FleetStarved => "fleet-starved",
            Workload::PaperSuite => "paper-suite",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `[run] seed` of the shipped scenario, which `--seed` replaces;
    /// `None` where the seeds are fixed inside the program.
    pub fn shipped_seed(self) -> Option<u64> {
        match self {
            Workload::MacroHour => Some(42),
            Workload::FleetStarved => Some(2025),
            Workload::PaperSuite => None,
        }
    }

    /// How many differently seeded instances one `--seed` names. A run
    /// cycles through them and pools their simulated outcome: one
    /// macro-hour's burst draws alone swing its SLO misses by tens of
    /// percent (ResNet152's SVR ranges from 22% to 41% across seeds).
    pub fn instances(self) -> usize {
        match self {
            Workload::MacroHour => 8,
            Workload::FleetStarved | Workload::PaperSuite => 1,
        }
    }

    /// Runs one repetition.
    pub fn run(self, seed: u64, mode: Mode) -> Result<Rep, String> {
        match self {
            Workload::MacroHour => {
                scenario_rep(self, "examples/scenarios/macro-scale.toml", seed, mode)
            }
            Workload::FleetStarved => {
                scenario_rep(self, "examples/scenarios/production-day.toml", seed, mode)
            }
            Workload::PaperSuite => paper_suite_rep(mode),
        }
    }
}

/// The seed of instance `index` of `--seed`; instance 0 is `seed` itself.
pub fn instance_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64).wrapping_mul(0xd1b5_4a32_d192_ed03)
}

/// What a repetition does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Set up and run, untraced: the end-to-end measurement.
    Plain,
    /// Set up and run with every tracing decorator and hook attached.
    Traced,
    /// Set up only; a run reports the median of many set-ups.
    Setup,
}

/// What one repetition measured, as it travels from the repetition's
/// process to the coordinating one.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Rep {
    /// Host seconds to load, compose and build.
    pub setup_s: f64,
    /// Host seconds to run, set-up excluded.
    pub wall_s: f64,
    /// Peak resident memory of the repetition's process.
    pub peak_rss_mib: f64,
    /// Simulated SLO misses as a share of arrived requests, in percent.
    pub slo_miss_pct: f64,
    /// Simulated occupied-GPU hours.
    pub gpu_hours: f64,
    /// Operations run: arrived requests, or experiments.
    pub attempted: u64,
    /// Arrived requests that never completed.
    pub unserved: u64,
    /// Functions with arrivals and no completion.
    pub starved_functions: u64,
    /// Digest of the report (or of every experiment's result).
    pub digest: String,
    /// Per-experiment result digests (paper-suite only).
    pub experiments: BTreeMap<String, String>,
    /// Output-check violations; empty when every check passed.
    pub failures: Vec<String>,
    /// Per-layer metrics (traced repetitions only).
    pub layers: BTreeMap<String, f64>,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Applies `--seed`. The shipped seed reproduces the shipped file; on
/// macro-hour every other seed also re-draws each function's arrivals.
fn apply_seed(workload: Workload, config: &mut ScenarioConfig, seed: u64) {
    let shipped = workload.shipped_seed().expect("scenario workloads have a shipped seed");
    let run =
        config.run.get_or_insert(RunSection { horizon_secs: None, drain_secs: None, seed: None });
    run.seed = Some(seed);
    match workload {
        Workload::MacroHour => {
            // Zero for the shipped seed, so its per-function seeds stay.
            let salt = (seed ^ shipped).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for arrivals in config.functions.iter_mut().filter_map(|f| f.arrivals.as_mut()) {
                arrivals.seed = arrivals.seed.map(|s| s ^ salt);
            }
        }
        Workload::FleetStarved => run.horizon_secs = Some(FLEET_HORIZON_SECS),
        Workload::PaperSuite => {}
    }
}

/// Spells a `[system] preset` out as registry components, so the traced
/// registry's decorators wrap every one of them. A wrong spelling changes
/// the report, which the traced-equals-untraced digest check catches.
fn spell_out_preset(system: &mut SystemSection) -> Result<(), String> {
    let Some(preset) = system.preset.take() else { return Ok(()) };
    let (placement, controller, share_policy) = match preset.as_str() {
        "dilu" => ("dilu", "lazy", "rckm"),
        other => return Err(format!("preset `{other}` has no registry spelling in the benchmark")),
    };
    system.placement.get_or_insert_with(|| ComponentSection::named(placement));
    if let Some(autoscaler) = system.autoscaler.take() {
        system.controller.get_or_insert(autoscaler);
    }
    system.controller.get_or_insert_with(|| ComponentSection::named(controller));
    system.share_policy.get_or_insert_with(|| ComponentSection::named(share_policy));
    Ok(())
}

fn scenario_rep(workload: Workload, path: &str, seed: u64, mode: Mode) -> Result<Rep, String> {
    let traced = mode == Mode::Traced;
    let err = |e: dilu_core::ScenarioError| e.to_string();
    let started = Instant::now();
    let mut config = ScenarioConfig::load(Path::new(path)).map_err(err)?;
    let load = started.elapsed();
    trace::span("core.load", None, started);

    let composing = Instant::now();
    apply_seed(workload, &mut config, seed);
    let registry = if traced {
        // The phase profile is the only `[sim]` knob the benchmark sets.
        config.sim.get_or_insert_with(SimSection::default).profile = Some(true);
        spell_out_preset(&mut config.system)?;
        trace::traced_registry()
    } else {
        Registry::with_defaults()
    };
    let builder = config.into_builder(&registry).map_err(err)?;
    let compose = composing.elapsed();
    trace::span("core.compose", None, composing);

    let building = Instant::now();
    let scenario = builder.build().map_err(err)?;
    let build = building.elapsed();
    trace::span("core.build", None, building);
    if mode == Mode::Setup {
        return Ok(Rep { setup_s: secs(load + compose + build), ..Rep::default() });
    }

    let end = SimTime::ZERO + scenario.horizon() + scenario.drain();
    let mut sim = scenario.into_sim();
    let run_span = traced.then(|| {
        trace::install_hooks(&mut sim);
        trace::count_allocations(true);
        trace::open_run_span(workload.name())
    });
    let running = Instant::now();
    sim.run_until(end);
    let run = running.elapsed();
    // Between the two timed halves: neither is part of `Scenario::run`.
    let audit = sim.audit();
    let profile = sim.phase_profile();
    let reporting = Instant::now();
    let report = sim.into_report();
    let wall = run + reporting.elapsed();
    if let Some(index) = run_span {
        trace::count_allocations(false);
        trace::close_run_span(index);
    }
    let peak_rss_mib = host::peak_rss_mib()?;

    let attempted: u64 = report.inference.values().map(|f| f.arrived).sum();
    let unserved: u64 =
        report.inference.values().map(|f| f.arrived.saturating_sub(f.completed)).sum();
    let starved_functions =
        report.inference.values().filter(|f| f.arrived > 0 && f.completed == 0).count() as u64;
    let mut layers = BTreeMap::new();
    if traced {
        let profile = profile.ok_or("the traced run asked for a phase profile and got none")?;
        layers.extend(trace::layer_metrics());
        for phase in &profile.phases {
            layers.insert(format!("cluster.{}.ms", phase.phase), phase.nanos as f64 / 1e6);
            layers.insert(format!("cluster.{}.events", phase.phase), phase.events as f64);
        }
        let tick_self =
            layers["cluster.tick.ms"] - layers["scaler.tick.ms"] - layers["scheduler.place.ms"];
        // Idle replays also run outside the step phase; only the policy
        // calls stepping at the wake are the step phase's for sure.
        let stepping_policy = layers["rckm.allocate.ms"] - layers["rckm.replay.ms"];
        let step_self = (layers["cluster.step.ms"] - stepping_policy).max(0.0);
        let step_events = layers["cluster.step.events"];
        layers.insert("cluster.wakes".into(), profile.wakes as f64);
        layers.insert("cluster.tick_self.ms".into(), tick_self.max(0.0));
        layers.insert("cluster.unserved".into(), unserved as f64);
        layers.insert("cluster.starved_functions".into(), starved_functions as f64);
        layers.insert("cluster.cold_starts".into(), report.total_cold_starts() as f64);
        layers.insert("gpu.step_self.ms".into(), step_self);
        let per_step = if step_events > 0.0 { step_self * 1e6 / step_events } else { 0.0 };
        layers.insert("gpu.ns_per_step_event".into(), per_step);
        let fetched = audit.network.map_or(0, |n| n.delivered_bytes);
        layers.insert("net.fetched_mib".into(), fetched as f64 / f64::from(1 << 20));
        layers.insert("core.load.ms".into(), ms(load));
        layers.insert("core.compose.ms".into(), ms(compose));
        layers.insert("core.build.ms".into(), ms(build));
    }
    Ok(Rep {
        setup_s: secs(load + compose + build),
        wall_s: secs(wall),
        peak_rss_mib,
        slo_miss_pct: outcome::slo_miss_pct(outcome::served(&report)),
        gpu_hours: report.gpu_time.as_secs_f64() / 3600.0,
        attempted,
        unserved,
        starved_functions,
        digest: outcome::digest(&report),
        experiments: BTreeMap::new(),
        failures: outcome::check_scenario(&report, &audit),
        layers,
    })
}

/// The number of registered paper experiments.
const EXPERIMENTS: usize = 16;

fn paper_suite_rep(mode: Mode) -> Result<Rep, String> {
    let traced = mode == Mode::Traced;
    // Set-up: the quota profiler fills the per-process model-profile
    // cache every experiment composes its functions from.
    let started = Instant::now();
    for model in ModelId::ALL {
        funcs::profiled_inference(model);
        funcs::profiled_training(model);
    }
    let setup = started.elapsed();
    trace::span("core.profile", None, started);
    if mode == Mode::Setup {
        return Ok(Rep { setup_s: secs(setup), ..Rep::default() });
    }

    let suite = experiments::all();
    let run_span = trace::open_run_span(Workload::PaperSuite.name());
    trace::count_allocations(traced);
    let running = Instant::now();
    let mut results = Vec::with_capacity(suite.len());
    for experiment in suite {
        let begun = Instant::now();
        let output = experiment.run(&ExperimentCtx::default());
        results.push((experiment.name(), begun.elapsed(), output.json));
        trace::span(experiment.name(), Some(run_span), begun);
    }
    let wall = running.elapsed();
    trace::count_allocations(false);
    trace::close_run_span(run_span);
    let peak_rss_mib = host::peak_rss_mib()?;

    let mut failures = Vec::new();
    if results.len() != EXPERIMENTS {
        failures.push(format!("{} experiments registered, expected {EXPERIMENTS}", results.len()));
    }
    let digests: BTreeMap<String, String> =
        results.iter().map(|(name, _, json)| ((*name).to_owned(), outcome::digest(json))).collect();
    if digests.len() != results.len() {
        failures.push("two experiments share a name".to_owned());
    }
    let (slo_miss_pct, gpu_hours) = match results.iter().find(|(name, ..)| *name == "tab03") {
        Some((_, _, json)) => dilu_rows_of_tab03(json).unwrap_or_else(|e| {
            failures.push(e);
            (0.0, 0.0)
        }),
        None => {
            failures.push("no tab03 experiment".to_owned());
            (0.0, 0.0)
        }
    };
    let mut layers = BTreeMap::new();
    if traced {
        // The experiments compose their own systems, out of the decorators'
        // reach; only the allocator sees into them.
        layers.extend(
            trace::layer_metrics().into_iter().filter(|(n, _)| n.starts_with("alloc.run.")),
        );
        for (name, took, _) in &results {
            layers.insert(format!("core.exp.{name}.s"), secs(*took));
        }
    }
    Ok(Rep {
        setup_s: secs(setup),
        wall_s: secs(wall),
        peak_rss_mib,
        slo_miss_pct,
        gpu_hours,
        attempted: results.len() as u64,
        unserved: 0,
        starved_functions: 0,
        digest: outcome::digest(&digests),
        experiments: digests,
        failures,
        layers,
    })
}

/// The paper-suite's SLO and GPU-time figures: Dilu's rows of Table 3 (the
/// co-scaling study over the three Azure trace shapes), as the mean of
/// their SLO violation rates in percent and the sum of their GPU-seconds in
/// hours. The experiment reports no request counts, so this is its SVR.
fn dilu_rows_of_tab03(json: &serde::Value) -> Result<(f64, f64), String> {
    let rows: Vec<&serde::Value> = json
        .get("rows")
        .and_then(|r| match r {
            serde::Value::Seq(rows) => Some(rows),
            _ => None,
        })
        .ok_or("tab03 has no `rows`")?
        .iter()
        .filter(|row| row.get("system").and_then(serde::Value::as_str) == Some("Dilu"))
        .collect();
    if rows.is_empty() {
        return Err("tab03 has no Dilu rows".to_owned());
    }
    let field = |row: &serde::Value, key: &str| {
        row.get(key).and_then(serde::Value::as_f64).ok_or(format!("a tab03 row has no `{key}`"))
    };
    let (mut svr, mut gpu_seconds) = (0.0, 0.0);
    for row in &rows {
        svr += field(row, "svr")?;
        gpu_seconds += field(row, "gpu_seconds")?;
    }
    Ok((100.0 * svr / rows.len() as f64, gpu_seconds / 3600.0))
}
