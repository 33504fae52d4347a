//! System presets: Dilu, its ablations, and the cluster-level baselines of
//! §5.1, as data.
//!
//! Each [`SystemKind`] is shorthand for three registry components — its
//! [`spelling`](SystemKind::spelling). The [`Registry`] alone turns those
//! names into components, so a preset composes exactly what the same
//! names written out in a `[system]` table compose.

use serde::{Deserialize, Serialize, Value};

use crate::{ComponentSection, Params, Registry, ScenarioBuilder, SystemSection};

/// Every preset system of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemKind {
    /// The full system: Algorithm 1 scheduling, lazy scaling, RCKM tokens.
    Dilu,
    /// Ablation −RC: first-fit packing, no multi-GPU LLM deployment.
    DiluNoRc,
    /// Ablation −WA: no workload-affinity preference.
    DiluNoWa,
    /// Ablation −VS: Dilu scheduling/scaling over static MPS-l grants.
    DiluNoVs,
    /// Whole-GPU allocation with keep-alive scaling (Kubernetes-style).
    Exclusive,
    /// INFless+ with MPS partitions at the `limit` quota.
    InflessPlusL,
    /// INFless+ with MPS partitions at the `request` quota.
    InflessPlusR,
    /// FaST-GS+ — eager scaling over FaST-GS spatio-temporal sharing.
    FastGsPlus,
}

impl SystemKind {
    /// The systems compared in the end-to-end study (Fig. 15).
    pub const END_TO_END: [SystemKind; 7] = [
        SystemKind::Exclusive,
        SystemKind::InflessPlusL,
        SystemKind::InflessPlusR,
        SystemKind::Dilu,
        SystemKind::DiluNoRc,
        SystemKind::DiluNoWa,
        SystemKind::DiluNoVs,
    ];

    /// Every preset.
    pub const ALL: [SystemKind; 8] = [
        SystemKind::Dilu,
        SystemKind::DiluNoRc,
        SystemKind::DiluNoWa,
        SystemKind::DiluNoVs,
        SystemKind::Exclusive,
        SystemKind::InflessPlusL,
        SystemKind::InflessPlusR,
        SystemKind::FastGsPlus,
    ];

    /// The paper's label for the system.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Dilu => "Dilu",
            SystemKind::DiluNoRc => "-RC",
            SystemKind::DiluNoWa => "-WA",
            SystemKind::DiluNoVs => "-VS",
            SystemKind::Exclusive => "Exclusive",
            SystemKind::InflessPlusL => "INFless+-l",
            SystemKind::InflessPlusR => "INFless+-r",
            SystemKind::FastGsPlus => "FaST-GS+",
        }
    }

    /// The stable kebab-case preset name used by scenario configs.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Dilu => "dilu",
            SystemKind::DiluNoRc => "dilu-no-rc",
            SystemKind::DiluNoWa => "dilu-no-wa",
            SystemKind::DiluNoVs => "dilu-no-vs",
            SystemKind::Exclusive => "exclusive",
            SystemKind::InflessPlusL => "infless-l",
            SystemKind::InflessPlusR => "infless-r",
            SystemKind::FastGsPlus => "fast-gs",
        }
    }

    /// All preset names, in [`SystemKind::ALL`] order.
    pub fn names() -> [&'static str; 8] {
        SystemKind::ALL.map(SystemKind::name)
    }

    /// Looks a preset up by its config name ([`name`](Self::name)) or the
    /// paper label ([`label`](Self::label)), case-insensitively.
    pub fn from_name(name: &str) -> Option<SystemKind> {
        SystemKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name) || k.label().eq_ignore_ascii_case(name))
    }

    /// `true` if this system deploys LLM inference across multiple GPUs.
    ///
    /// Distributed LLM deployment over GPU fragments belongs to Dilu's
    /// resource complementarity — the −RC ablation removes exactly it, and
    /// the baselines deploy LLMs whole.
    pub fn distributes_llms(self) -> bool {
        matches!(self, SystemKind::Dilu | SystemKind::DiluNoWa | SystemKind::DiluNoVs)
    }

    /// The preset spelled out as registry components: a placement, an
    /// elasticity controller and a share policy, each a registry name
    /// with parameters. The ablations differ from `dilu` in exactly the
    /// component they name.
    pub fn spelling(self) -> SystemSection {
        let named = ComponentSection::named;
        let dilu_without = |principle: &str| ComponentSection {
            name: "dilu".to_owned(),
            params: Params::from_entries(vec![(principle.to_owned(), Value::Bool(false))]),
        };
        let (placement, controller, share_policy) = match self {
            SystemKind::Dilu => (named("dilu"), "lazy", "rckm"),
            SystemKind::DiluNoRc => (dilu_without("resource_complementary"), "lazy", "rckm"),
            SystemKind::DiluNoWa => (dilu_without("workload_affinity"), "lazy", "rckm"),
            SystemKind::DiluNoVs => (named("dilu"), "lazy", "mps-l"),
            SystemKind::Exclusive => (named("exclusive"), "keep-alive", "fair"),
            SystemKind::InflessPlusL => (named("packing"), "keep-alive", "mps-l"),
            SystemKind::InflessPlusR => (named("packing"), "keep-alive", "mps-r"),
            SystemKind::FastGsPlus => (named("packing"), "reactive", "fast-gs"),
        };
        SystemSection {
            preset: None,
            placement: Some(placement),
            autoscaler: None,
            controller: Some(named(controller)),
            share_policy: Some(named(share_policy)),
        }
    }

    /// A [`ScenarioBuilder`] holding this preset's components, built by
    /// [`Registry::with_defaults`]. Every component can still be swapped
    /// before `build()`.
    pub fn builder(self) -> ScenarioBuilder {
        self.spelling()
            .into_builder(&Registry::with_defaults())
            .expect("the default registry builds every preset component")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(SystemKind::Dilu.label(), "Dilu");
        assert_eq!(SystemKind::InflessPlusL.label(), "INFless+-l");
        assert_eq!(SystemKind::DiluNoVs.label(), "-VS");
    }

    #[test]
    fn names_round_trip() {
        for kind in SystemKind::ALL {
            assert_eq!(SystemKind::from_name(kind.name()), Some(kind));
            assert_eq!(SystemKind::from_name(kind.label()), Some(kind));
        }
        assert_eq!(SystemKind::from_name("DILU"), Some(SystemKind::Dilu));
        assert_eq!(SystemKind::from_name("nope"), None);
    }

    #[test]
    fn llm_distribution_matches_rc_semantics() {
        assert!(SystemKind::Dilu.distributes_llms());
        assert!(SystemKind::DiluNoVs.distributes_llms());
        assert!(!SystemKind::DiluNoRc.distributes_llms());
        assert!(!SystemKind::Exclusive.distributes_llms());
        assert!(!SystemKind::InflessPlusL.distributes_llms());
    }

    /// Builds `kind` on `gpus` GPUs with one idle function deployed.
    fn build(kind: SystemKind, gpus: u32) -> crate::Scenario {
        kind.builder()
            .cluster(dilu_cluster::ClusterSpec::single_node(gpus))
            .function(crate::funcs::inference_function(1, dilu_models::ModelId::BertBase))
            .arrival_times(Vec::new())
            .build()
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"))
    }

    #[test]
    fn every_system_builds() {
        for kind in SystemKind::ALL {
            assert_eq!(build(kind, 2).sim().spec().total_gpus(), 2);
        }
    }

    #[test]
    fn presets_expose_component_names() {
        let dilu = build(SystemKind::Dilu, 1);
        assert_eq!(dilu.sim().placement_name(), "dilu-scheduler");
        assert_eq!(dilu.sim().autoscaler_name(), "dilu-lazy-scaler");
        assert_eq!(dilu.sim().share_policy_name(), "dilu-rckm");
        let excl = build(SystemKind::Exclusive, 1);
        assert_eq!(excl.sim().placement_name(), "exclusive");
        assert_eq!(excl.sim().share_policy_name(), "fair-share");
    }
}
