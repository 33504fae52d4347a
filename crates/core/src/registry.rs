//! String-keyed registries for placements, elasticity controllers, and
//! share policies, so scenario config files (and external users) can name any
//! component — built-in or registered at runtime — without touching an
//! enum. This is the one place a component name becomes a constructor:
//! presets are spelled in these names too.
//!
//! Every constructor receives the component's parameter table as a
//! [`serde::Value`] map; unknown parameter keys are rejected so config
//! typos fail loudly.

use std::collections::BTreeMap;

use dilu_baselines::{KeepAliveScaler, QuotaSource, ReactiveScaler};
use dilu_cluster::{ElasticityController, Placement, PolicyFactory};
use dilu_gpu::SmRate;
use dilu_rckm::RckmConfig;
use dilu_scaler::{CoScaler, CoScalerConfig, LazyScaler, ScalerConfig};
use dilu_scheduler::{DiluScheduler, ExclusivePlacement, SchedulerConfig};
use dilu_sim::SimDuration;
use serde::Value;

use crate::factories::{
    FairFactory, FastGsFactory, MpsFactory, NullController, RckmFactory, TgsFactory,
};
use crate::ScenarioError;

/// Constructor signature for registered placements.
pub type PlacementCtor =
    Box<dyn Fn(&Params) -> Result<Box<dyn Placement>, ScenarioError> + Send + Sync>;
/// Constructor signature for registered elasticity controllers.
pub type ControllerCtor =
    Box<dyn Fn(&Params) -> Result<Box<dyn ElasticityController>, ScenarioError> + Send + Sync>;
/// Constructor signature for registered share-policy factories.
pub type SharePolicyCtor =
    Box<dyn Fn(&Params) -> Result<Box<dyn PolicyFactory>, ScenarioError> + Send + Sync>;

/// A component's parameter table from the config file (string keys).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Params {
    entries: Vec<(String, Value)>,
}

impl Params {
    /// An empty table (component defaults).
    pub fn empty() -> Self {
        Params::default()
    }

    /// Builds a table from `(key, value)` pairs.
    pub fn from_entries(entries: Vec<(String, Value)>) -> Self {
        Params { entries }
    }

    /// The raw entries.
    pub fn entries(&self) -> &[(String, Value)] {
        &self.entries
    }

    /// Looks a key up.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// `f64` value of `key`, or `default` when absent.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, ScenarioError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.as_f64().ok_or_else(|| {
                ScenarioError::Config(format!("parameter `{key}` must be a number"))
            }),
        }
    }

    /// `u64` value of `key`, or `default` when absent.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, ScenarioError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.as_u64().ok_or_else(|| {
                ScenarioError::Config(format!("parameter `{key}` must be an unsigned integer"))
            }),
        }
    }

    /// `bool` value of `key`, or `default` when absent.
    pub fn bool_or(&self, key: &str, default: bool) -> Result<bool, ScenarioError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.as_bool().ok_or_else(|| {
                ScenarioError::Config(format!("parameter `{key}` must be a boolean"))
            }),
        }
    }

    /// Rejects any key outside `known` (typo protection for config files).
    pub fn expect_keys(&self, known: &[&str]) -> Result<(), ScenarioError> {
        for (k, _) in &self.entries {
            if !known.contains(&k.as_str()) {
                return Err(ScenarioError::Config(format!(
                    "unknown parameter `{k}` (known: {})",
                    known.join(", ")
                )));
            }
        }
        Ok(())
    }
}

fn scheduler_config(params: &Params) -> Result<SchedulerConfig, ScenarioError> {
    params.expect_keys(&[
        "omega",
        "gamma",
        "alpha",
        "beta",
        "workload_affinity",
        "resource_complementary",
    ])?;
    let d = SchedulerConfig::default();
    Ok(SchedulerConfig {
        omega: params.f64_or("omega", d.omega)?,
        gamma: params.f64_or("gamma", d.gamma)?,
        alpha: params.f64_or("alpha", d.alpha)?,
        beta: params.f64_or("beta", d.beta)?,
        workload_affinity: params.bool_or("workload_affinity", d.workload_affinity)?,
        resource_complementary: params
            .bool_or("resource_complementary", d.resource_complementary)?,
    })
}

fn scaler_config(params: &Params) -> Result<ScalerConfig, ScenarioError> {
    params.expect_keys(&["window", "phi_out", "phi_in", "scale_to_zero"])?;
    let d = ScalerConfig::default();
    Ok(ScalerConfig {
        window: params.u64_or("window", d.window as u64)? as usize,
        phi_out: params.u64_or("phi_out", d.phi_out as u64)? as usize,
        phi_in: params.u64_or("phi_in", d.phi_in as u64)? as usize,
        scale_to_zero: params.bool_or("scale_to_zero", d.scale_to_zero)?,
    })
}

fn coscaler_config(params: &Params) -> Result<CoScalerConfig, ScenarioError> {
    params.expect_keys(&[
        "window",
        "phi_out",
        "phi_in",
        "phi_vertical",
        "scale_to_zero",
        "max_request_pct",
        "target_headroom",
    ])?;
    let d = CoScalerConfig::default();
    let max_request_pct = params.f64_or("max_request_pct", d.max_request.as_percent())?;
    if !(max_request_pct.is_finite() && 0.0 < max_request_pct && max_request_pct <= 100.0) {
        return Err(ScenarioError::Config(format!(
            "parameter `max_request_pct` must be in (0, 100], got {max_request_pct}"
        )));
    }
    let target_headroom = params.f64_or("target_headroom", d.target_headroom)?;
    if !(target_headroom.is_finite() && target_headroom >= 1.0) {
        return Err(ScenarioError::Config(format!(
            "parameter `target_headroom` must be at least 1.0, got {target_headroom}"
        )));
    }
    let h = d.horizontal;
    Ok(CoScalerConfig {
        horizontal: ScalerConfig {
            window: params.u64_or("window", h.window as u64)? as usize,
            phi_out: params.u64_or("phi_out", h.phi_out as u64)? as usize,
            phi_in: params.u64_or("phi_in", h.phi_in as u64)? as usize,
            scale_to_zero: params.bool_or("scale_to_zero", h.scale_to_zero)?,
        },
        phi_vertical: params.u64_or("phi_vertical", d.phi_vertical as u64)? as usize,
        max_request: SmRate::from_percent(max_request_pct),
        target_headroom,
    })
}

fn rckm_config(params: &Params) -> Result<RckmConfig, ScenarioError> {
    params.expect_keys(&[
        "max_tokens",
        "eta_violation",
        "eta_increase",
        "rate_window",
        "queue_pressure",
    ])?;
    let d = RckmConfig::default();
    Ok(RckmConfig {
        max_tokens: params.f64_or("max_tokens", d.max_tokens)?,
        eta_violation: params.f64_or("eta_violation", d.eta_violation)?,
        eta_increase: params.f64_or("eta_increase", d.eta_increase)?,
        rate_window: params.u64_or("rate_window", d.rate_window as u64)? as usize,
        queue_pressure: params.u64_or("queue_pressure", d.queue_pressure as u64)? as usize,
    })
}

/// Instance-based registry of named components.
///
/// [`Registry::with_defaults`] knows every component shipped by this
/// workspace; `register_*` adds more. Config loading
/// ([`ScenarioConfig`](crate::ScenarioConfig)) resolves names through a
/// registry, so external policies become config-addressable by
/// registering them.
#[derive(Default)]
pub struct Registry {
    placements: BTreeMap<String, PlacementCtor>,
    controllers: BTreeMap<String, ControllerCtor>,
    share_policies: BTreeMap<String, SharePolicyCtor>,
}

impl Registry {
    /// An empty registry (no names known).
    pub fn empty() -> Self {
        Registry::default()
    }

    /// The registry of every built-in component.
    pub fn with_defaults() -> Self {
        let mut r = Registry::empty();

        // Placements.
        r.register_placement("dilu", |p| Ok(Box::new(DiluScheduler::new(scheduler_config(p)?))));
        r.register_placement("packing", |p| {
            // INFless-style complementarity packing without the affinity
            // pass; `workload_affinity` is what this name turns off, so it
            // is not an accepted parameter here.
            p.expect_keys(&["omega", "gamma", "alpha", "beta"])?;
            let config = SchedulerConfig { workload_affinity: false, ..scheduler_config(p)? };
            Ok(Box::new(DiluScheduler::new(config)))
        });
        r.register_placement("first-fit", |p| {
            // Both principles are what this name turns off; neither is an
            // accepted parameter.
            p.expect_keys(&["omega", "gamma", "alpha", "beta"])?;
            let config = SchedulerConfig {
                resource_complementary: false,
                workload_affinity: false,
                ..scheduler_config(p)?
            };
            Ok(Box::new(DiluScheduler::new(config)))
        });
        r.register_placement("exclusive", |p| {
            p.expect_keys(&[])?;
            Ok(Box::new(ExclusivePlacement::new()))
        });

        // Elasticity controllers: the horizontal-only scalers, then the 2D
        // co-scaler.
        r.register_controller("lazy", |p| Ok(Box::new(LazyScaler::new(scaler_config(p)?))));
        r.register_controller("keep-alive", |p| {
            p.expect_keys(&["keep_alive_secs"])?;
            // Observation-3 default (50 s).
            match p.get("keep_alive_secs") {
                None => Ok(Box::new(KeepAliveScaler::default())),
                Some(_) => {
                    let secs = p.f64_or("keep_alive_secs", 0.0)?;
                    Ok(Box::new(KeepAliveScaler::new(SimDuration::from_secs_f64(secs))))
                }
            }
        });
        r.register_controller("reactive", |p| {
            p.expect_keys(&[])?;
            Ok(Box::new(ReactiveScaler::new()))
        });
        r.register_controller("null", |p| {
            p.expect_keys(&[])?;
            Ok(Box::new(NullController))
        });
        r.register_controller("co-scale", |p| Ok(Box::new(CoScaler::new(coscaler_config(p)?))));

        // Share policies.
        r.register_share_policy("rckm", |p| Ok(Box::new(RckmFactory(rckm_config(p)?))));
        r.register_share_policy("mps-l", |p| {
            p.expect_keys(&[])?;
            Ok(Box::new(MpsFactory(QuotaSource::Limit)))
        });
        r.register_share_policy("mps-r", |p| {
            p.expect_keys(&[])?;
            Ok(Box::new(MpsFactory(QuotaSource::Request)))
        });
        r.register_share_policy("tgs", |p| {
            p.expect_keys(&[])?;
            Ok(Box::new(TgsFactory))
        });
        r.register_share_policy("fast-gs", |p| {
            p.expect_keys(&[])?;
            Ok(Box::new(FastGsFactory))
        });
        r.register_share_policy("fair", |p| {
            p.expect_keys(&[])?;
            Ok(Box::new(FairFactory))
        });
        r
    }

    /// Registers (or replaces) a placement constructor under `name`.
    pub fn register_placement<F>(&mut self, name: impl Into<String>, ctor: F)
    where
        F: Fn(&Params) -> Result<Box<dyn Placement>, ScenarioError> + Send + Sync + 'static,
    {
        self.placements.insert(name.into(), Box::new(ctor));
    }

    /// Registers (or replaces) an elasticity-controller constructor under
    /// `name`.
    pub fn register_controller<F>(&mut self, name: impl Into<String>, ctor: F)
    where
        F: Fn(&Params) -> Result<Box<dyn ElasticityController>, ScenarioError>
            + Send
            + Sync
            + 'static,
    {
        self.controllers.insert(name.into(), Box::new(ctor));
    }

    /// Registers (or replaces) a share-policy constructor under `name`.
    pub fn register_share_policy<F>(&mut self, name: impl Into<String>, ctor: F)
    where
        F: Fn(&Params) -> Result<Box<dyn PolicyFactory>, ScenarioError> + Send + Sync + 'static,
    {
        self.share_policies.insert(name.into(), Box::new(ctor));
    }

    /// Builds the placement registered under `name`.
    pub fn placement(
        &self,
        name: &str,
        params: &Params,
    ) -> Result<Box<dyn Placement>, ScenarioError> {
        match self.placements.get(name) {
            Some(ctor) => ctor(params),
            None => Err(ScenarioError::Unknown {
                kind: "placement",
                name: name.to_owned(),
                known: self.placement_names(),
            }),
        }
    }

    /// Builds the elasticity controller registered under `name`.
    pub fn controller(
        &self,
        name: &str,
        params: &Params,
    ) -> Result<Box<dyn ElasticityController>, ScenarioError> {
        match self.controllers.get(name) {
            Some(ctor) => ctor(params),
            None => Err(ScenarioError::Unknown {
                kind: "controller",
                name: name.to_owned(),
                known: self.controller_names(),
            }),
        }
    }

    /// Builds the share-policy factory registered under `name`.
    pub fn share_policy(
        &self,
        name: &str,
        params: &Params,
    ) -> Result<Box<dyn PolicyFactory>, ScenarioError> {
        match self.share_policies.get(name) {
            Some(ctor) => ctor(params),
            None => Err(ScenarioError::Unknown {
                kind: "share policy",
                name: name.to_owned(),
                known: self.share_policy_names(),
            }),
        }
    }

    /// Registered placement names, sorted.
    pub fn placement_names(&self) -> Vec<String> {
        self.placements.keys().cloned().collect()
    }

    /// Always empty: autoscalers are controllers now, listed by
    /// [`controller_names`](Self::controller_names). Kept only because the
    /// benchmark's traced registry still chains it onto the controller
    /// names.
    pub fn autoscaler_names(&self) -> Vec<String> {
        Vec::new()
    }

    /// Registered elasticity-controller names, sorted.
    pub fn controller_names(&self) -> Vec<String> {
        self.controllers.keys().cloned().collect()
    }

    /// Registered share-policy names, sorted.
    pub fn share_policy_names(&self) -> Vec<String> {
        self.share_policies.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_every_builtin() {
        let r = Registry::with_defaults();
        assert_eq!(r.placement_names(), ["dilu", "exclusive", "first-fit", "packing"]);
        assert!(r.autoscaler_names().is_empty());
        assert_eq!(r.controller_names(), ["co-scale", "keep-alive", "lazy", "null", "reactive"]);
        assert_eq!(r.share_policy_names(), ["fair", "fast-gs", "mps-l", "mps-r", "rckm", "tgs"]);
        for name in r.placement_names() {
            assert!(r.placement(&name, &Params::empty()).is_ok(), "placement {name}");
        }
        for name in r.controller_names() {
            assert!(r.controller(&name, &Params::empty()).is_ok(), "controller {name}");
        }
        for name in r.share_policy_names() {
            let f = r.share_policy(&name, &Params::empty()).unwrap();
            assert!(!f.name().is_empty());
            let _ = f.make();
        }
    }

    #[test]
    fn unknown_names_list_alternatives() {
        let r = Registry::with_defaults();
        let err = r.placement("no-such", &Params::empty());
        let msg = match err {
            Err(e) => e.to_string(),
            Ok(_) => panic!("lookup must fail"),
        };
        assert!(msg.contains("no-such") && msg.contains("dilu"), "{msg}");
    }

    #[test]
    fn params_override_and_reject_typos() {
        let r = Registry::with_defaults();
        let params = Params::from_entries(vec![("gamma".into(), Value::Float(5.0))]);
        assert!(r.placement("dilu", &params).is_ok());
        let typo = Params::from_entries(vec![("gamm".into(), Value::Float(5.0))]);
        let msg = match r.placement("dilu", &typo) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("typo must fail"),
        };
        assert!(msg.contains("gamm"), "{msg}");
    }

    #[test]
    fn controllers_resolve_with_their_knobs() {
        let r = Registry::with_defaults();
        // Horizontal-only scalers are controllers like the co-scaler.
        let lazy = r.controller("lazy", &Params::empty()).unwrap();
        assert_eq!(lazy.name(), "dilu-lazy-scaler");
        // The true 2D controller resolves directly, with its knobs.
        let params = Params::from_entries(vec![
            ("max_request_pct".into(), Value::Float(80.0)),
            ("phi_out".into(), Value::UInt(10)),
        ]);
        let co = r.controller("co-scale", &params).unwrap();
        assert_eq!(co.name(), "dilu-co-scaler");
        // Unknown names list every controller.
        let err = match r.controller("no-such", &Params::empty()) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("lookup must fail"),
        };
        assert!(err.contains("co-scale") && err.contains("lazy"), "{err}");
        // Bad knobs are typed errors.
        let bad = Params::from_entries(vec![("max_request_pct".into(), Value::Float(0.0))]);
        assert!(r.controller("co-scale", &bad).is_err());
    }

    #[test]
    fn user_registration_extends_the_namespace() {
        let mut r = Registry::with_defaults();
        r.register_controller("noop", |p| {
            p.expect_keys(&[])?;
            Ok(Box::new(NullController))
        });
        assert!(r.controller_names().contains(&"noop".to_owned()));
        assert_eq!(r.controller("noop", &Params::empty()).unwrap().name(), "null");
    }
}
