//! Benchmark harness support: every bench target in `benches/` regenerates
//! one table or figure of the paper via the
//! [`dilu_core::experiments`] registry, printing an ASCII table and
//! writing JSON under `target/experiments/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dilu_core::experiments::{self, ExperimentCtx};

/// Runs the registered experiment `name`: prints a banner, the rendered
/// result, and persists the JSON dump for EXPERIMENTS.md regeneration.
///
/// # Panics
///
/// Panics if `name` is not in the registry — bench targets are
/// compile-time fixed, so an unknown name is a programming error.
pub fn run_registered(name: &str) {
    let experiment = experiments::find(name).unwrap_or_else(|| {
        panic!(
            "experiment `{name}` is not registered (known: {})",
            experiments::all().iter().map(|e| e.name()).collect::<Vec<_>>().join(", ")
        )
    });
    println!("== {}: {} ==", experiment.name(), experiment.title());
    // dilu-lint: allow(no-ambient-time) -- wall-clock measurement of the bench run itself; never feeds sim state
    let started = std::time::Instant::now();
    let output = experiment.run(&ExperimentCtx::with_default_json_dir());
    println!("{}", output.rendered);
    if let Some(path) = &output.json_path {
        println!("[json: {}]", path.display());
    }
    println!("[{name} completed in {:.1}s]\n", started.elapsed().as_secs_f64());
}

/// The CPU model named by `/proc/cpuinfo`, `"unknown"` where unreadable —
/// the host fingerprint every committed `BENCH_*.json` records.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
