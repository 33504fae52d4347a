//! Benchmark harness support for the layer and macro-tier benches in
//! `benches/`, each of which records a committed `BENCH_*.json`. The paper's
//! tables and figures are regenerated by `dilu experiment <name>`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
