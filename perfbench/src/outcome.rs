//! What one repetition produced, and the output checks over it.

use dilu_cluster::{AuditSnapshot, ClusterReport};
use dilu_metrics::LatencyRecorder;
use dilu_sim::SimDuration;

/// FNV-1a over a byte string: the report and experiment digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Digest of a whole serialized value.
pub fn digest<T: serde::Serialize + ?Sized>(value: &T) -> String {
    let json = serde_json::to_string(value).expect("serializing to a string cannot fail");
    format!("{:016x}", fnv1a(json.as_bytes()))
}

/// One inference function's request accounting, as `slo_miss_pct` needs it.
pub struct Served<'a> {
    /// Latencies of the completed requests.
    pub latency: &'a LatencyRecorder,
    /// The function's SLO.
    pub slo: SimDuration,
    /// Requests that arrived.
    pub arrived: u64,
    /// Requests that completed.
    pub completed: u64,
}

/// SLO misses as a percentage of arrived requests: completed requests
/// slower than their SLO plus every arrived request that never completed.
///
/// Unlike `ClusterReport::mean_svr`, an unserved request counts as a miss,
/// so a function that never served scores 100%, not 0%.
pub fn slo_miss_pct<'a>(functions: impl IntoIterator<Item = Served<'a>>) -> f64 {
    let (mut missed, mut arrived) = (0u64, 0u64);
    for f in functions {
        let slow = f.latency.iter().filter(|&d| d > f.slo).count() as u64;
        missed += slow + f.arrived.saturating_sub(f.completed);
        arrived += f.arrived;
    }
    if arrived == 0 {
        0.0
    } else {
        100.0 * missed as f64 / arrived as f64
    }
}

/// [`Served`] rows for every inference function of a report.
pub fn served(report: &ClusterReport) -> impl Iterator<Item = Served<'_>> {
    report.inference.values().map(|f| Served {
        latency: &f.latency,
        slo: f.slo,
        arrived: f.arrived,
        completed: f.completed,
    })
}

/// Output checks on a finished scenario run; each violation is one line.
pub fn check_scenario(report: &ClusterReport, audit: &AuditSnapshot) -> Vec<String> {
    let mut failures = Vec::new();
    for (id, f) in &report.inference {
        if f.completed > f.arrived {
            failures
                .push(format!("function {id}: completed {} > arrived {}", f.completed, f.arrived));
        }
    }
    for f in audit.functions.iter().filter(|f| f.inference) {
        let accounted = f.completed + f.backlog + f.queued + f.inflight;
        if f.arrived != accounted {
            failures.push(format!(
                "function {}: arrived {} != completed {} + backlog {} + queued {} + inflight {}",
                f.func, f.arrived, f.completed, f.backlog, f.queued, f.inflight
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(ms: &[u64]) -> LatencyRecorder {
        ms.iter().map(|&m| SimDuration::from_millis(m)).collect()
    }

    fn row(latency: &LatencyRecorder, arrived: u64) -> Served<'_> {
        Served {
            latency,
            slo: SimDuration::from_millis(100),
            arrived,
            completed: latency.len() as u64,
        }
    }

    #[test]
    fn slow_completions_are_misses() {
        let lat = recorder(&[50, 150, 100, 200]);
        // 150 and 200 exceed the SLO; exactly-at-SLO is not a miss.
        assert_eq!(slo_miss_pct([row(&lat, 4)]), 50.0);
    }

    #[test]
    fn an_unserved_request_is_a_miss() {
        let lat = recorder(&[10, 20, 30]);
        assert_eq!(slo_miss_pct([row(&lat, 4)]), 25.0);
    }

    #[test]
    fn arrivals_without_completions_are_all_missed() {
        let empty = LatencyRecorder::new();
        // The recorder alone reports a perfect SVR for this function.
        assert_eq!(empty.violation_rate(SimDuration::from_millis(100)), 0.0);
        assert_eq!(slo_miss_pct([row(&empty, 7)]), 100.0);
    }

    #[test]
    fn misses_are_weighted_by_arrivals_across_functions() {
        let busy = recorder(&[10; 9]);
        let starved = LatencyRecorder::new();
        // 9 on-time requests plus 1 unserved one: 10% missed, where the
        // mean of per-function SVRs would say 0%.
        assert_eq!(slo_miss_pct([row(&busy, 9), row(&starved, 1)]), 10.0);
    }

    #[test]
    fn no_arrivals_misses_nothing() {
        assert_eq!(slo_miss_pct(std::iter::empty()), 0.0);
    }
}
