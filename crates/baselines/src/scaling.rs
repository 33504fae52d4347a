//! Baseline horizontal-only controllers: eager (FaST-GS+) and keep-alive
//! (INFless+).

use std::collections::BTreeMap;

use dilu_cluster::{ClusterView, ElasticityController, FunctionId, FunctionScaleView, ScaleAction};
use dilu_sim::{SimDuration, SimTime};

/// FaST-GS+-style eager reactive scaling.
///
/// Scales out the moment the most recent second exceeds deployed capacity
/// and scales in after a short quiet spell. Burst-chasing keeps GPU usage
/// low but pays a cold start for every spike — the paper's Table 3 shows it
/// with the most cold starts and the worst SLO violation rate.
#[derive(Debug, Clone)]
pub struct ReactiveScaler {
    /// Seconds below reduced capacity before scaling in.
    quiet_secs: usize,
    quiet: BTreeMap<FunctionId, usize>,
}

impl ReactiveScaler {
    /// Creates an eager scaler with the default 10 s scale-in quiet period.
    pub fn new() -> Self {
        ReactiveScaler { quiet_secs: 10, quiet: BTreeMap::new() }
    }
}

impl Default for ReactiveScaler {
    fn default() -> Self {
        Self::new()
    }
}

impl ElasticityController for ReactiveScaler {
    fn on_tick(
        &mut self,
        _now: SimTime,
        functions: &[FunctionScaleView],
        _cluster: &ClusterView,
    ) -> Vec<ScaleAction> {
        let mut actions = Vec::new();
        for f in functions {
            if !f.kind.is_inference() {
                continue;
            }
            let deployed = f.ready_instances + f.starting_instances;
            let last = f.rps_window.last().copied().unwrap_or(0) as f64;
            let capacity = f.capacity_rps * f64::from(deployed);
            if deployed == 0 {
                if f.backlog > 0 || last > 0.0 {
                    actions.push(ScaleAction::ScaleOut { func: f.func, count: 1 });
                }
                continue;
            }
            if last > capacity {
                let count = ((last - capacity) / f.capacity_rps.max(1e-9)).ceil().max(1.0) as u32;
                actions.push(ScaleAction::ScaleOut { func: f.func, count });
                self.quiet.insert(f.func, 0);
                continue;
            }
            let reduced = f.capacity_rps * f64::from(f.ready_instances.saturating_sub(1));
            let quiet = self.quiet.entry(f.func).or_insert(0);
            if f.ready_instances > 0 && last < reduced.max(1.0) {
                *quiet += 1;
                if *quiet >= self.quiet_secs {
                    *quiet = 0;
                    actions.push(ScaleAction::ScaleIn { func: f.func, count: 1 });
                }
            } else {
                *quiet = 0;
            }
        }
        actions
    }

    fn name(&self) -> &str {
        "fast-gs+-reactive"
    }
}

/// INFless+-style prediction and keep-alive scaling (after the Azure
/// Serverless histogram policy the paper cites).
///
/// Scales out on a short moving average (prior knowledge smooths bursts) and
/// keeps idle instances alive for a long window before scaling in — fewer
/// cold starts than eager scaling, at the price of idle GPU time (the SGT
/// column of Table 3).
#[derive(Debug, Clone)]
pub struct KeepAliveScaler {
    /// Keep-alive duration before an idle instance may be reclaimed.
    keep_alive: SimDuration,
    /// Moving-average length for the scale-out decision, in seconds.
    horizon: usize,
}

impl KeepAliveScaler {
    /// Creates a keep-alive scaler with the given idle retention.
    pub fn new(keep_alive: SimDuration) -> Self {
        KeepAliveScaler { keep_alive, horizon: 5 }
    }
}

impl Default for KeepAliveScaler {
    fn default() -> Self {
        // Observation-3: keep-alive lifecycles are ~50 s in production.
        Self::new(SimDuration::from_secs(50))
    }
}

impl ElasticityController for KeepAliveScaler {
    fn on_tick(
        &mut self,
        _now: SimTime,
        functions: &[FunctionScaleView],
        _cluster: &ClusterView,
    ) -> Vec<ScaleAction> {
        let mut actions = Vec::new();
        for f in functions {
            if !f.kind.is_inference() {
                continue;
            }
            let deployed = f.ready_instances + f.starting_instances;
            if deployed == 0 {
                if f.backlog > 0 {
                    actions.push(ScaleAction::ScaleOut { func: f.func, count: 1 });
                }
                continue;
            }
            let n = f.rps_window.len().min(self.horizon);
            if n == 0 {
                continue;
            }
            let recent = &f.rps_window[f.rps_window.len() - n..];
            let mean = recent.iter().sum::<u64>() as f64 / n as f64;
            // Histogram prior: provision 20% headroom above the average.
            let wanted = mean * 1.2;
            let capacity = f.capacity_rps * f64::from(deployed);
            if wanted > capacity {
                let count = ((wanted - capacity) / f.capacity_rps.max(1e-9)).ceil().max(1.0) as u32;
                actions.push(ScaleAction::ScaleOut { func: f.func, count });
            } else if f.max_idle >= self.keep_alive
                && ((f.ready_instances > 1
                    && wanted < f.capacity_rps * f64::from(f.ready_instances - 1))
                    || (f.ready_instances == 1 && mean == 0.0))
            {
                actions.push(ScaleAction::ScaleIn { func: f.func, count: 1 });
            }
        }
        actions
    }

    fn name(&self) -> &str {
        "infless+-keepalive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dilu_cluster::FunctionKind;

    /// Horizontal-only scalers never read the cluster view.
    const NO_GPUS: ClusterView = ClusterView { gpus: Vec::new() };

    fn view(window: Vec<u64>, ready: u32, starting: u32, idle_secs: u64) -> FunctionScaleView {
        FunctionScaleView {
            func: FunctionId(1),
            kind: FunctionKind::Inference { slo: SimDuration::from_millis(100), batch: 4 },
            rps_window: window,
            ready_instances: ready,
            starting_instances: starting,
            backlog: 0,
            capacity_rps: 50.0,
            max_idle: SimDuration::from_secs(idle_secs),
            pending_fetch_bytes: 0,
            quota: dilu_cluster::QuotaView::none(),
        }
    }

    #[test]
    fn reactive_scales_out_on_a_single_hot_second() {
        let mut s = ReactiveScaler::new();
        let mut w = vec![10u64; 39];
        w.push(160);
        let actions = s.on_tick(SimTime::from_secs(40), &[view(w, 1, 0, 0)], &NO_GPUS);
        assert_eq!(actions, vec![ScaleAction::ScaleOut { func: FunctionId(1), count: 3 }]);
    }

    #[test]
    fn reactive_scales_in_after_short_quiet() {
        let mut s = ReactiveScaler::new();
        let mut fired = Vec::new();
        for sec in 0..12 {
            fired.extend(s.on_tick(
                SimTime::from_secs(sec),
                &[view(vec![5u64; 40], 3, 0, sec)],
                &NO_GPUS,
            ));
        }
        assert!(
            fired.contains(&ScaleAction::ScaleIn { func: FunctionId(1), count: 1 }),
            "quiet period must trigger scale-in, got {fired:?}"
        );
    }

    #[test]
    fn keepalive_smooths_single_second_bursts() {
        let mut s = KeepAliveScaler::default();
        let mut w = vec![10u64; 39];
        w.push(160);
        // Mean over 5 s = 40 rps → within one instance's capacity.
        let actions = s.on_tick(SimTime::from_secs(40), &[view(w, 1, 0, 0)], &NO_GPUS);
        assert!(actions.is_empty());
    }

    #[test]
    fn keepalive_scales_out_on_sustained_load() {
        let mut s = KeepAliveScaler::default();
        let w = vec![120u64; 40];
        let actions = s.on_tick(SimTime::from_secs(40), &[view(w, 1, 0, 0)], &NO_GPUS);
        assert_eq!(actions, vec![ScaleAction::ScaleOut { func: FunctionId(1), count: 2 }]);
    }

    #[test]
    fn keepalive_retains_idle_instances_until_expiry() {
        let mut s = KeepAliveScaler::default();
        // Idle 30 s < 50 s keep-alive → retained.
        let actions =
            s.on_tick(SimTime::from_secs(60), &[view(vec![0u64; 40], 2, 0, 30)], &NO_GPUS);
        assert!(actions.is_empty());
        // Idle 55 s ≥ keep-alive → reclaimed.
        let actions =
            s.on_tick(SimTime::from_secs(90), &[view(vec![0u64; 40], 2, 0, 55)], &NO_GPUS);
        assert_eq!(actions, vec![ScaleAction::ScaleIn { func: FunctionId(1), count: 1 }]);
    }

    #[test]
    fn both_cold_start_from_zero_on_backlog() {
        let mut r = ReactiveScaler::new();
        let mut k = KeepAliveScaler::default();
        let mut v = view(vec![0u64; 40], 0, 0, 0);
        v.backlog = 2;
        assert_eq!(r.on_tick(SimTime::ZERO, &[v.clone()], &NO_GPUS).len(), 1);
        assert_eq!(k.on_tick(SimTime::ZERO, &[v], &NO_GPUS).len(), 1);
    }
}
