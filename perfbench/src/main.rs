//! The repository benchmark: one command that runs a workload in a closed
//! loop, prints every end-to-end metric with its unit, and checks outputs.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload macro-hour --seed 42 --seconds 30 --trace 0
//! ```
//!
//! Run it from the repository root. Each repetition (set up, run once,
//! check) is a fresh process of this binary, started only after the
//! previous one ended; repetitions continue until `--seconds` have passed
//! and at least [`MIN_REPS`] ran, and on a workload with several instances
//! (see `Workload::instances`) a full cycle of them plus one. `--trace 1`
//! alternates untraced and traced repetitions and prints the per-layer
//! metrics instead; the traced ones wrap the program's public trait objects
//! (see `trace.rs`).
//! `BENCHMARK.json` at the repository root names the workloads and metrics.

mod host;
mod outcome;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use serde::Value;

use workload::{Mode, Rep, Workload};

#[global_allocator]
static ALLOCATOR: trace::CountingAlloc = trace::CountingAlloc;

/// Fewest repetitions a run reports a median over.
const MIN_REPS: usize = 3;

/// Extra set-up-only repetitions per untraced run: a set-up takes
/// milliseconds and varies by tens of percent, so `setup_s` is the median
/// over these and the full repetitions' set-ups.
const SETUP_REPS: usize = 11;

/// A run stops starting repetitions after this long, whatever it lacks.
const HARD_LIMIT: Duration = Duration::from_secs(120);

/// Where traced repetitions write their spans, relative to the root.
const SPAN_DIR: &str = "perfbench/out";

/// End-to-end metrics and their units, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("slo_miss_pct", "%"),
    ("gpu_hours", "GPU-h"),
];

/// Phases of the simulator's phase profile, in the order reported.
const PHASES: [&str; 9] =
    ["arrive", "dispatch", "step", "tick", "promote", "reap", "resize", "train", "net"];

/// Per-layer metrics and their units, as `BENCHMARK.json` lists them.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("scheduler.place.calls", "count"),
        ("scheduler.place.failed", "count"),
        ("scheduler.place.ms", "ms"),
        ("scheduler.place.ok_ratio", "ratio"),
        ("scaler.tick.calls", "count"),
        ("scaler.tick.ms", "ms"),
        ("scaler.actions.scale_out", "count"),
        ("scaler.actions.scale_in", "count"),
        ("scaler.actions.resize", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_owned(), u))
    .collect();
    for phase in PHASES {
        m.push((format!("cluster.{phase}.ms"), "ms"));
        m.push((format!("cluster.{phase}.events"), "count"));
    }
    m.extend(
        [
            ("cluster.wakes", "count"),
            ("cluster.tick_self.ms", "ms"),
            ("cluster.unserved", "count"),
            ("cluster.starved_functions", "count"),
            ("cluster.cold_starts", "count"),
            ("gpu.step_self.ms", "ms"),
            ("gpu.ns_per_step_event", "ns"),
            ("rckm.allocate.calls", "count"),
            ("rckm.allocate.ms", "ms"),
            ("rckm.replay.calls", "count"),
            ("rckm.replay.ms", "ms"),
            ("workload.refill.chunks", "count"),
            ("workload.arrivals", "count"),
            ("sim.events", "count"),
            ("sim.host_ns_per_event", "ns"),
            ("net.flow_events", "count"),
            ("net.fetched_mib", "MiB"),
            ("core.load.ms", "ms"),
            ("core.compose.ms", "ms"),
            ("core.build.ms", "ms"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_owned(), u)),
    );
    for experiment in dilu_core::experiments::all() {
        m.push((format!("core.exp.{}.s", experiment.name()), "s"));
    }
    m.push(("trace.overhead_pct".to_owned(), "%"));
    for layer in ["scheduler", "scaler", "rckm", "run"] {
        m.push((format!("alloc.{layer}.count"), "count"));
        m.push((format!("alloc.{layer}.bytes"), "bytes"));
    }
    m
}

/// Parsed command line: the benchmark's own flags, or one repetition.
enum Args {
    Run { workload: Workload, seed: Option<u64>, seconds: u64, trace: bool },
    Rep { workload: Workload, seed: u64, mode: Mode },
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or(format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        flags.insert(key.to_owned(), value);
    }
    let take = |flags: &mut BTreeMap<String, String>, key: &str| flags.remove(key);
    let number = |key: &str, v: String| {
        v.parse::<u64>().map_err(|_| format!("`--{key}` needs a number, got `{v}`"))
    };
    let flag = |key: &str, v: String| match v.as_str() {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("`--{key}` is 0 or 1, got `{v}`")),
    };
    let workload_named = |name: String| {
        Workload::from_name(&name).ok_or_else(|| {
            let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload `{name}` (known: {})", known.join(", "))
        })
    };
    let args = if let Some(name) = take(&mut flags, "rep") {
        let workload = workload_named(name)?;
        let seed = number("seed", take(&mut flags, "seed").ok_or("`--rep` needs `--seed`")?)?;
        let mode = match take(&mut flags, "mode").as_deref() {
            Some("plain") | None => Mode::Plain,
            Some("traced") => Mode::Traced,
            Some("setup") => Mode::Setup,
            Some(other) => {
                return Err(format!("`--mode` is plain, traced or setup, got `{other}`"))
            }
        };
        Args::Rep { workload, seed, mode }
    } else {
        let workload =
            workload_named(take(&mut flags, "workload").ok_or("`--workload` is required")?)?;
        let seed = take(&mut flags, "seed").map(|v| number("seed", v)).transpose()?;
        let seconds = take(&mut flags, "seconds").map_or(Ok(30), |v| number("seconds", v))?;
        let trace = flag("trace", take(&mut flags, "trace").unwrap_or_else(|| "0".into()))?;
        Args::Run { workload, seed, seconds, trace }
    };
    match flags.keys().next() {
        Some(unknown) => Err(format!("unknown flag `--{unknown}`")),
        None => Ok(args),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args {
        Args::Rep { workload, seed, mode } => rep(workload, seed, mode),
        Args::Run { workload, seed, seconds, trace } => run(workload, seed, seconds, trace),
    }
}

/// One repetition: prints its [`Rep`] as a JSON line.
fn rep(workload: Workload, seed: u64, mode: Mode) -> ExitCode {
    match workload.run(seed, mode) {
        Ok(rep) => {
            if mode == Mode::Traced {
                let file = match workload.shipped_seed() {
                    Some(_) => format!("{SPAN_DIR}/{}-seed{seed}.spans.jsonl", workload.name()),
                    None => format!("{SPAN_DIR}/{}.spans.jsonl", workload.name()),
                };
                if let Err(e) = trace::write_spans(std::path::Path::new(&file)) {
                    eprintln!("perfbench: cannot write {file}: {e}");
                }
            }
            println!(
                "{}",
                serde_json::to_string(&rep).expect("serializing to a string cannot fail")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} repetition failed: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Runs one repetition in a fresh process and waits for it.
fn spawn_rep(workload: Workload, seed: u64, mode: Mode) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mode = match mode {
        Mode::Plain => "plain",
        Mode::Traced => "traced",
        Mode::Setup => "setup",
    };
    let output = Command::new(exe)
        .args(["--rep", workload.name(), "--seed", &seed.to_string(), "--mode", mode])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a repetition: {e}"))?;
    if !output.status.success() {
        return Err(format!("a repetition exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("unreadable repetition output: {e}"))
}

fn run(workload: Workload, seed: Option<u64>, seconds: u64, trace: bool) -> ExitCode {
    let seed = seed.or(workload.shipped_seed()).unwrap_or(0);
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut broken = Vec::new();
    let mut setups = Vec::new();
    for _ in 0..if trace { 0 } else { SETUP_REPS } {
        match spawn_rep(workload, seed, Mode::Setup) {
            Ok(rep) => setups.push(rep.setup_s),
            Err(e) => broken.push(e),
        }
    }
    // Untraced repetitions cycle through the workload's instances; traced
    // runs stay on the first, the one their untraced halves also run.
    let instances = if trace { 1 } else { workload.instances() };
    let mut by_instance: Vec<Vec<usize>> = vec![Vec::new(); instances];
    for done in 1.. {
        // Traced runs alternate with untraced ones, so both see the same
        // host conditions.
        let want_traced = trace && traced.len() < plain.len();
        let instance = (done - 1) % instances;
        let mode = if want_traced { Mode::Traced } else { Mode::Plain };
        match spawn_rep(workload, workload::instance_seed(seed, instance), mode) {
            Ok(rep) if want_traced => traced.push(rep),
            Ok(rep) => {
                by_instance[instance].push(plain.len());
                plain.push(rep);
            }
            Err(e) => broken.push(e),
        }
        let enough = if trace {
            !plain.is_empty() && !traced.is_empty()
        } else {
            // One repetition past a full cycle, so an instance repeats.
            done >= MIN_REPS.max(instances + 1)
        };
        if (enough && started.elapsed() >= budget) || started.elapsed() >= HARD_LIMIT {
            break;
        }
    }
    if plain.is_empty() || (trace && traced.is_empty()) {
        eprintln!(
            "perfbench: {} did not finish a repetition of each kind: {}",
            workload.name(),
            broken.join("; ")
        );
        return ExitCode::FAILURE;
    }

    // Repetitions of one instance, traced or not, must report identically.
    let mut mismatches = Vec::new();
    let groups = by_instance.iter().enumerate().map(|(i, reps)| {
        let traced_too = if i == 0 { traced.iter().collect() } else { Vec::new() };
        reps.iter().map(|&r| &plain[r]).chain(traced_too).collect::<Vec<&Rep>>()
    });
    for group in groups {
        if let Some(odd) = group.iter().find(|r| r.digest != group[0].digest) {
            let first = &group[0].experiments;
            mismatches.push(match first.iter().find(|(k, v)| odd.experiments.get(*k) != Some(v)) {
                Some((name, _)) => {
                    format!("experiment {name} gave different results across repetitions")
                }
                None => format!("report digests differ: {} vs {}", group[0].digest, odd.digest),
            });
        }
    }
    // A repetition that broke or failed a check fails all its operations;
    // a broken one reports none, so it is charged a finished one's count.
    // Repetitions that disagree fail the whole run.
    let all: Vec<&Rep> = plain.iter().chain(&traced).collect();
    let per_rep = plain[0].attempted;
    let attempted: u64 =
        all.iter().map(|r| r.attempted).sum::<u64>() + per_rep * broken.len() as u64;
    let failed: u64 = if mismatches.is_empty() {
        all.iter().filter(|r| !r.failures.is_empty()).map(|r| r.attempted).sum::<u64>()
            + per_rep * broken.len() as u64
    } else {
        attempted
    };
    let mut failures: Vec<String> = broken.clone();
    failures.extend(all.iter().flat_map(|r| r.failures.iter().cloned()));
    failures.extend(mismatches);
    let correct = failures.is_empty();
    // The simulated outcome of the whole set of instances, each once:
    // misses pooled over their arrivals, GPU time averaged.
    let cycle: Vec<&Rep> =
        by_instance.iter().filter_map(|reps| Some(&plain[*reps.first()?])).collect();
    let arrived: f64 = cycle.iter().map(|r| r.attempted as f64).sum();
    let slo_miss_pct =
        cycle.iter().map(|r| r.slo_miss_pct * r.attempted as f64).sum::<f64>() / arrived;
    let gpu_hours = cycle.iter().map(|r| r.gpu_hours).sum::<f64>() / cycle.len() as f64;

    let median_of =
        |reps: &[Rep], f: fn(&Rep) -> f64| host::median(&reps.iter().map(f).collect::<Vec<_>>());
    let wall = median_of(&plain, |r| r.wall_s);
    let mut metrics: Vec<(String, &str, f64)> = Vec::new();
    let mut unobserved = Vec::new();
    if trace {
        let traced_wall = median_of(&traced, |r| r.wall_s);
        for (name, unit) in per_layer() {
            let value = match name.as_str() {
                "sim.host_ns_per_event" => {
                    let events = traced[0].layers.get("sim.events").copied().unwrap_or(0.0);
                    if events > 0.0 {
                        wall * 1e9 / events
                    } else {
                        0.0
                    }
                }
                "trace.overhead_pct" => 100.0 * (traced_wall - wall) / wall,
                _ if !traced[0].layers.contains_key(&name) => {
                    unobserved.push(name.clone());
                    0.0
                }
                _ => host::median(
                    &traced
                        .iter()
                        .map(|r| r.layers.get(&name).copied().unwrap_or(0.0))
                        .collect::<Vec<_>>(),
                ),
            };
            metrics.push((name, unit, value));
        }
    } else {
        setups.extend(plain.iter().map(|r| r.setup_s));
        let values = [
            wall,
            host::median(&setups),
            median_of(&plain, |r| r.peak_rss_mib),
            slo_miss_pct,
            gpu_hours,
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            metrics.push((name.to_owned(), unit, value));
        }
    }

    // Human-readable summary, then the machine-readable record and result.
    let rev = host::git_rev();
    let (cores, cpu) = (host::cores(), host::cpu_model());
    println!("perfbench {} | rev {rev} | {cores} cores, {cpu}", workload.name());
    match workload.shipped_seed() {
        Some(_) => println!("seed {seed}"),
        None => {
            println!("seed: not applicable (the experiments' seeds are fixed inside dilu-core)")
        }
    }
    println!(
        "repetitions: {} untraced, {} traced, {} broken; median of the {}",
        plain.len(),
        traced.len(),
        broken.len(),
        if trace { "traced ones" } else { "untraced ones" }
    );
    for (name, unit, value) in &metrics {
        println!("  {name:<28} {value:>16.4} {unit}");
    }
    if !unobserved.is_empty() {
        println!("not reached by this workload, so reported as 0: {}", unobserved.join(", "));
    }
    println!(
        "operations: {attempted} attempted, {failed} failed; unserved requests {}, starved functions {}",
        plain[0].unserved, plain[0].starved_functions
    );
    for f in &failures {
        println!("CHECK FAILED: {f}");
    }
    let samples =
        |f: fn(&Rep) -> f64| Value::Seq(plain.iter().map(|r| Value::Float(f(r))).collect());
    let record = Value::Map(vec![
        (Value::Str("workload".into()), Value::Str(workload.name().into())),
        (Value::Str("seed".into()), Value::UInt(seed)),
        (Value::Str("rev".into()), Value::Str(rev)),
        (Value::Str("cores".into()), Value::UInt(cores as u64)),
        (Value::Str("cpu_model".into()), Value::Str(cpu)),
        (Value::Str("digest".into()), Value::Str(plain[0].digest.clone())),
        (Value::Str("wall_s_samples".into()), samples(|r| r.wall_s)),
        (
            Value::Str("setup_s_samples".into()),
            Value::Seq(setups.iter().map(|&s| Value::Float(s)).collect()),
        ),
        (Value::Str("peak_rss_mib_samples".into()), samples(|r| r.peak_rss_mib)),
    ]);
    println!(
        "record {}",
        serde_json::to_string(&record).expect("serializing to a string cannot fail")
    );
    let result = Value::Map(vec![
        (Value::Str("correct".into()), Value::Bool(correct)),
        (Value::Str("attempted".into()), Value::UInt(attempted)),
        (Value::Str("failed".into()), Value::UInt(failed)),
        (
            Value::Str("metrics".into()),
            Value::Map(
                metrics
                    .into_iter()
                    .map(|(name, unit, value)| {
                        let entry = Value::Map(vec![
                            (Value::Str("value".into()), Value::Float(value)),
                            (Value::Str("unit".into()), Value::Str(unit.into())),
                        ]);
                        (Value::Str(name), entry)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", serde_json::to_string(&result).expect("serializing to a string cannot fail"));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units here are the ones `BENCHMARK.json` lists.
    #[test]
    fn metrics_match_benchmark_json() {
        let text =
            std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the root");
        let json = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            match json.get(key) {
                Some(Value::Seq(items)) => items
                    .iter()
                    .map(|m| {
                        let field =
                            |k| m.get(k).and_then(Value::as_str).unwrap_or_default().to_owned();
                        (field("name"), field("unit"))
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json has no `{key}` list"),
            }
        };
        let owned = |v: Vec<(String, &str)>| {
            v.into_iter().map(|(n, u)| (n, u.to_owned())).collect::<Vec<_>>()
        };
        let e2e = END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
        assert_eq!(listed("end_to_end"), owned(e2e));
        assert_eq!(listed("per_layer"), owned(per_layer()));
        let workloads: Vec<String> = match json.get("workloads") {
            Some(Value::Seq(items)) => items
                .iter()
                .map(|w| w.get("name").and_then(Value::as_str).unwrap_or_default().to_owned())
                .collect(),
            _ => panic!("BENCHMARK.json has no `workloads` list"),
        };
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_owned()));
    }
}
