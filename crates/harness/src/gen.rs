//! Seeded, model-based sampling of valid scenario configurations across
//! the whole composition space.
//!
//! [`generate_case`] is a pure function of `(space, case_seed)`: the same
//! pair always yields the same [`ScenarioConfig`], which is what makes a
//! printed seed a complete reproducer. Sampled dimensions: fleet shape,
//! placement (with occasional Ω/Γ overrides), elasticity controller
//! (2D co-scaler and every horizontal-only scaler), share policy, `[sim]`
//! knobs (quantum, tick, resize latency, time model, streaming
//! arrival-window caps), horizon, and one to three functions mixing
//! inference (Poisson / Gamma / trace / replay / synth / trace-file
//! arrivals, varied batch and initial instances) and training workloads.
//!
//! The generator constructs *valid* configs by construction — composition
//! constraints (tick ≥ quantum, `gpus_per_instance` ≤ fleet, arrival
//! processes with their required knobs) are respected at sampling time, so
//! every case exercises the simulator rather than the config validator.

use dilu_core::{
    ClusterSection, ComponentSection, FunctionSection, NetworkSection, RunSection, ScenarioConfig,
    SimSection, SystemSection,
};
use dilu_sim::rng::component_rng;
use dilu_workload::ArrivalSpec;
use rand::Rng;
use serde::Value;

/// The sampling space: which component names and bounds the generator
/// draws from. [`SpaceConfig::default`] covers every built-in component;
/// tests narrow it (or extend it with deliberately broken components
/// registered on a custom registry) to aim the fuzzer.
#[derive(Debug, Clone)]
pub struct SpaceConfig {
    /// Placement names to sample (registry namespace).
    pub placements: Vec<String>,
    /// Elasticity-controller names to sample: the 2D co-scaler and the
    /// horizontal-only scalers share one registry namespace.
    pub controllers: Vec<String>,
    /// Share-policy names to sample.
    pub share_policies: Vec<String>,
    /// `[sim] time_model` values to sample.
    pub time_models: Vec<String>,
    /// Maximum worker nodes.
    pub max_nodes: u32,
    /// Maximum GPUs per node.
    pub max_gpus_per_node: u32,
    /// Maximum functions per scenario.
    pub max_functions: usize,
    /// Traffic horizon bounds in seconds (inclusive).
    pub horizon_secs: (u64, u64),
    /// Whether to mix in training functions.
    pub allow_training: bool,
    /// Whether to mix in multi-GPU (pipelined LLM) inference functions.
    pub allow_pipelined: bool,
    /// Whether to sample a `[network]` plane on a third of the cases
    /// (preset mixes, link-capacity tiers, cache caps including 0, and
    /// cold-start storm bursts).
    pub allow_network: bool,
}

impl Default for SpaceConfig {
    fn default() -> Self {
        SpaceConfig {
            placements: vec!["dilu", "packing", "first-fit", "exclusive"]
                .into_iter()
                .map(String::from)
                .collect(),
            controllers: vec!["lazy", "keep-alive", "reactive", "null", "co-scale"]
                .into_iter()
                .map(String::from)
                .collect(),
            share_policies: vec!["rckm", "mps-l", "mps-r", "tgs", "fast-gs", "fair"]
                .into_iter()
                .map(String::from)
                .collect(),
            time_models: vec!["event-driven", "dense-quantum"]
                .into_iter()
                .map(String::from)
                .collect(),
            max_nodes: 6,
            max_gpus_per_node: 4,
            max_functions: 3,
            horizon_secs: (4, 10),
            allow_training: true,
            allow_pipelined: true,
            allow_network: true,
        }
    }
}

fn pick<'a, T, R: Rng>(rng: &mut R, choices: &'a [T]) -> &'a T {
    &choices[rng.gen_range(0..choices.len())]
}

/// Generates the scenario for one fuzz case. Pure in `(space, case_seed)`.
pub fn generate_case(space: &SpaceConfig, case_seed: u64) -> ScenarioConfig {
    let mut rng = component_rng(case_seed, "fuzz-case");

    let nodes = rng.gen_range(1..=space.max_nodes.max(1));
    let gpus_per_node = rng.gen_range(1..=space.max_gpus_per_node.max(1));
    let total_gpus = nodes * gpus_per_node;
    let horizon =
        rng.gen_range(space.horizon_secs.0..=space.horizon_secs.1.max(space.horizon_secs.0));

    let placement_name = pick(&mut rng, &space.placements).clone();
    let mut placement = ComponentSection::named(placement_name.clone());
    // Occasionally sweep the Γ cap on the Dilu-family packers (the
    // capacity oracle reads it back from this table).
    let dilu_family = matches!(placement_name.as_str(), "dilu" | "packing" | "first-fit");
    if dilu_family && rng.gen_range(0..4) == 0 {
        let gamma = *pick(&mut rng, &[1.2, 1.5, 2.0]);
        placement = ComponentSection {
            name: placement_name,
            params: params([("gamma", Value::Float(gamma))]),
        };
    }
    let controller_name = pick(&mut rng, &space.controllers).clone();
    let controller = ComponentSection::named(controller_name);
    let share_policy = ComponentSection::named(pick(&mut rng, &space.share_policies).clone());

    // `[sim]` knobs on half the cases; the rest run the defaults.
    let sim = if rng.gen_range(0..2) == 0 {
        Some(SimSection {
            quantum_ms: Some(*pick(&mut rng, &[2.5, 5.0])),
            tick_ms: Some(*pick(&mut rng, &[500.0, 1000.0])),
            batch_timeout_frac: None,
            batch_timeout_cap_ms: None,
            stage_transfer_ms: None,
            resize_latency_ms: Some(*pick(&mut rng, &[0.0, 1.0, 20.0])),
            time_model: Some(pick(&mut rng, &space.time_models).clone()),
            profile: None,
            // Tiny windows force chunk boundaries inside almost every
            // quantum; 0 is the materialize-everything comparison path.
            // Reports must be byte-identical at every setting, and the
            // oracles check exactly that.
            arrival_window: Some(*pick(&mut rng, &[0, 1, 3, 64])),
            function_series: None,
        })
    } else {
        None
    };

    // `[network]` on a third of the cases: sometimes a bare preset,
    // sometimes explicit capacity tiers (slow registries make storms
    // visible), cache caps including 0 (everything fetches), and varied
    // provision residues including 0 (a cache hit is instantly ready).
    let network = if space.allow_network && rng.gen_range(0..3) == 0 {
        let preset = if rng.gen_range(0..3) == 0 {
            Some((*pick(&mut rng, &dilu_net::NetworkConfig::PRESET_NAMES)).to_owned())
        } else {
            None
        };
        let explicit = preset.is_none() || rng.gen_range(0..2) == 0;
        Some(NetworkSection {
            preset,
            registry_gbps: explicit.then(|| *pick(&mut rng, &[1.0, 10.0, 40.0, 100.0])),
            tor_gbps: explicit.then(|| *pick(&mut rng, &[10.0, 25.0, 100.0])),
            nvlink_gbps: None,
            cache_gb: explicit.then(|| *pick(&mut rng, &[0.0, 2.0, 8.0, 32.0])),
            provision_ms: explicit.then(|| *pick(&mut rng, &[0.0, 250.0, 2000.0])),
        })
    } else {
        None
    };

    let n_functions = rng.gen_range(1..=space.max_functions.max(1));
    let mut functions = Vec::with_capacity(n_functions);
    for index in 0..n_functions {
        // Training only past the first slot, so every scenario serves.
        let training = space.allow_training && index > 0 && rng.gen_range(0..4) == 0;
        if training {
            functions.push(training_function(&mut rng, horizon));
        } else {
            functions.push(inference_function(
                &mut rng,
                space,
                horizon,
                total_gpus,
                network.is_some(),
            ));
        }
    }

    ScenarioConfig {
        name: Some(format!("fuzz-{case_seed}")),
        cluster: Some(ClusterSection {
            nodes: Some(nodes),
            gpus_per_node: Some(gpus_per_node),
            gpu_mem_gb: None,
        }),
        system: SystemSection {
            preset: None,
            placement: Some(placement),
            autoscaler: None,
            controller: Some(controller),
            share_policy: Some(share_policy),
        },
        sim,
        network,
        run: Some(RunSection {
            horizon_secs: Some(horizon),
            drain_secs: Some(rng.gen_range(3..=4)),
            seed: Some(rng.gen::<u64>()),
        }),
        functions,
        fleet: None,
    }
}

fn params(entries: [(&str, Value); 1]) -> dilu_core::Params {
    dilu_core::Params::from_entries(entries.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn inference_function<R: Rng>(
    rng: &mut R,
    space: &SpaceConfig,
    horizon: u64,
    total_gpus: u32,
    networked: bool,
) -> FunctionSection {
    let pipelined = space.allow_pipelined && total_gpus >= 2 && rng.gen_range(0..8) == 0;
    let (model, gpus_per_instance, rate_lo, rate_hi) = if pipelined {
        let stages = if total_gpus >= 4 && rng.gen_range(0..2) == 0 { 4 } else { 2 };
        ((*pick(rng, &["llama2-7b", "chatglm3-6b"])).to_owned(), Some(stages), 1.0, 4.0)
    } else {
        (
            (*pick(rng, &["resnet152", "vgg19", "bert-base", "roberta-large"])).to_owned(),
            None,
            5.0,
            60.0,
        )
    };
    // Cold-start storm bursts: with a network plane, sometimes drop every
    // request in one replayed instant with no prewarmed instance, so the
    // controller fans out concurrent fetches that contend on the registry.
    if networked && rng.gen_range(0..3) == 0 {
        let burst = rng.gen_range(4..=32);
        let at = f64::from(rng.gen_range(1..=(horizon as u32 / 2).max(1)));
        return FunctionSection {
            name: None,
            model,
            role: None,
            batch: None,
            slo_ms: None,
            request_pct: None,
            limit_pct: None,
            mem_gb: None,
            gpus_per_instance,
            initial: Some(0),
            workers: None,
            iterations: None,
            start_sec: None,
            arrivals: Some(ArrivalSpec::replay(vec![at; burst])),
        };
    }
    let arrivals = match rng.gen_range(0..6) {
        0 => ArrivalSpec::poisson(rng.gen_range(rate_lo..rate_hi)),
        1 => ArrivalSpec::gamma(rng.gen_range(rate_lo..rate_hi), *pick(rng, &[0.5, 1.0, 4.0])),
        2 => {
            let shape = *pick(rng, &["bursty", "periodic", "sporadic"]);
            let kind = dilu_workload::TraceKind::ALL
                .into_iter()
                .find(|k| k.name().eq_ignore_ascii_case(shape))
                .expect("trace shapes are exhaustive");
            ArrivalSpec::trace(
                kind,
                rng.gen_range(rate_lo..(rate_hi / 2.0).max(rate_lo + 1.0)),
                *pick(rng, &[2.0, 4.0]),
            )
        }
        3 => {
            // Production-day synthesizer, compressed so the diurnal cycle
            // and a burst window both land inside a seconds-scale horizon.
            let mut spec =
                ArrivalSpec::synth(rng.gen_range(rate_lo..rate_hi), *pick(rng, &[0.0, 0.3, 0.8]));
            spec.period = Some(*pick(rng, &[2.0, 5.0, 30.0]));
            spec.phase = Some(*pick(rng, &[0.0, 1.5]));
            spec.scale = Some(*pick(rng, &[1.0, 4.0]));
            spec
        }
        4 => {
            // On-disk trace readers over the checked-in sample fixtures.
            let (path, format): (&str, &str) = *pick(
                rng,
                &[
                    (
                        concat!(
                            env!("CARGO_MANIFEST_DIR"),
                            "/../../examples/traces/alibaba-sample.csv"
                        ),
                        "alibaba",
                    ),
                    (
                        concat!(
                            env!("CARGO_MANIFEST_DIR"),
                            "/../../examples/traces/azure-sample.csv"
                        ),
                        "azure",
                    ),
                ],
            );
            let mut spec = ArrivalSpec::file(path, format);
            if rng.gen_range(0..2) == 0 {
                spec.function = Some((*pick(rng, &["fn-a", "fn-b", "fn-c"])).to_owned());
            }
            spec
        }
        _ => {
            // Deliberately unsorted, possibly duplicated replay instants:
            // the spec contract is that replay sorts (and keeps
            // duplicates), and the fuzzer leans on it.
            let n = rng.gen_range(1..40);
            let mut times: Vec<f64> = (0..n)
                .map(|_| (rng.gen_range(0.0..horizon as f64) * 1000.0).round() / 1000.0)
                .collect();
            if n > 2 && rng.gen_range(0..2) == 0 {
                let dup = times[0];
                times.push(dup);
            }
            ArrivalSpec::replay(times)
        }
    };
    FunctionSection {
        name: None,
        model,
        role: None,
        batch: if rng.gen_range(0..3) == 0 { Some(*pick(rng, &[2, 4])) } else { None },
        slo_ms: None,
        request_pct: None,
        limit_pct: None,
        mem_gb: None,
        gpus_per_instance,
        initial: Some(*pick(rng, &[0, 1, 1, 2])),
        workers: None,
        iterations: None,
        start_sec: None,
        arrivals: Some(arrivals),
    }
}

fn training_function<R: Rng>(rng: &mut R, horizon: u64) -> FunctionSection {
    FunctionSection {
        name: None,
        model: (*pick(rng, &["bert-base", "resnet152"])).to_owned(),
        role: Some("training".into()),
        batch: None,
        slo_ms: None,
        request_pct: None,
        limit_pct: None,
        mem_gb: None,
        gpus_per_instance: None,
        initial: None,
        workers: Some(rng.gen_range(1..=2)),
        iterations: Some(rng.gen_range(10..=60)),
        start_sec: Some(rng.gen_range(0..=horizon / 2)),
        arrivals: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dilu_core::Registry;

    #[test]
    fn generation_is_pure_in_the_case_seed() {
        let space = SpaceConfig::default();
        for seed in [0, 7, 123, u64::MAX] {
            assert_eq!(generate_case(&space, seed), generate_case(&space, seed));
        }
        assert_ne!(generate_case(&space, 1), generate_case(&space, 2));
    }

    #[test]
    fn cases_compose_through_the_registry() {
        let space = SpaceConfig::default();
        let registry = Registry::with_defaults();
        let mut built = 0;
        for seed in 0..60 {
            let config = generate_case(&space, seed);
            match config.into_builder(&registry).and_then(|b| b.build()) {
                Ok(_) => built += 1,
                // Structurally impossible compositions (e.g. exclusive
                // placement with more initial instances than GPUs) are
                // allowed to fail — with a typed error, never a panic.
                Err(e) => assert!(!e.to_string().is_empty()),
            }
        }
        assert!(built >= 40, "most cases must compose, got {built}/60");
    }

    #[test]
    fn the_space_reaches_every_dimension() {
        let space = SpaceConfig::default();
        let mut placements = std::collections::BTreeSet::new();
        let mut controllers = std::collections::BTreeSet::new();
        let mut policies = std::collections::BTreeSet::new();
        let mut processes = std::collections::BTreeSet::new();
        let mut saw_training = false;
        let mut saw_sim = false;
        for seed in 0..200 {
            let c = generate_case(&space, seed);
            placements.insert(c.system.placement.as_ref().unwrap().name.clone());
            controllers.insert(c.system.controller.as_ref().unwrap().name.clone());
            policies.insert(c.system.share_policy.as_ref().unwrap().name.clone());
            saw_sim |= c.sim.is_some();
            for f in &c.functions {
                if f.role.as_deref() == Some("training") {
                    saw_training = true;
                } else {
                    processes.insert(f.arrivals.as_ref().unwrap().process.clone());
                }
            }
        }
        assert_eq!(placements.len(), space.placements.len(), "{placements:?}");
        assert_eq!(controllers.len(), space.controllers.len(), "{controllers:?}");
        assert_eq!(policies.len(), space.share_policies.len(), "{policies:?}");
        assert_eq!(processes.len(), 6, "{processes:?}");
        assert!(saw_training && saw_sim);
    }
}
