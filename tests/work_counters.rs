//! Work counters as a noise-free regression oracle.
//!
//! The solver's work tallies (games, rounds, CE solves and iterations, DP
//! cells, cache hits/misses/evictions) are pure functions of the seed, so
//! they can be pinned exactly. A refactor of the solve stack that drops a
//! recorder somewhere, threads one where none was before (calibration's
//! `nms-par` workers deliberately predict unrecorded), or changes how much
//! work a solve does shows up here as an exact count mismatch — without any
//! timing noise.

use std::path::PathBuf;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use netmeter_sentinel::core::{DetectorMode, FrameworkConfig};
use netmeter_sentinel::obs::{MetricsRegistry, Recorder};
use netmeter_sentinel::sim::{
    experiments, run_long_term_detection_recorded, DayCacheConfig, LongTermRunConfig,
    PaperScenario, SupervisedOptions, SupervisedRun,
};

fn config(detector: Option<FrameworkConfig>, customers: usize) -> LongTermRunConfig {
    LongTermRunConfig {
        detection_days: 2,
        detector,
        timeline: experiments::paper_timeline(customers),
        buckets: 4,
        bucket_fraction_step: 0.15,
        labor_per_fix: 10.0,
        labor_per_meter: 1.0,
        faults: None,
        sanitize: Default::default(),
        retry: Default::default(),
        budget: Default::default(),
        quarantine: Default::default(),
        parallelism: Default::default(),
        clearing_iterations: 2,
    }
}

fn counters(registry: &MetricsRegistry, names: &[&'static str]) -> Vec<(&'static str, u64)> {
    names
        .iter()
        .map(|&name| (name, registry.counter(name)))
        .collect()
}

/// The legacy single-RNG run with the aware detector: bootstrap,
/// calibration backtest, training and two detection days.
#[test]
fn legacy_detection_run_does_pinned_solver_work() {
    let mut scenario = PaperScenario::small(8, 23);
    scenario.training_days = 4;
    let config = config(
        Some(FrameworkConfig::new(DetectorMode::NetMeteringAware, 24)),
        scenario.customers,
    );
    let registry = MetricsRegistry::new();
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    run_long_term_detection_recorded(&scenario, &config, &mut rng, &registry as &dyn Recorder)
        .unwrap();

    let expected = [
        ("solver_games", 20),
        ("solver_games_converged", 0),
        ("solver_rounds", 120),
        ("solver_ce_solves", 725),
        ("solver_ce_iterations", 17987),
        ("solver_ce_converged", 158),
        ("solver_dp_cells", 118947),
    ];
    let names: Vec<&'static str> = expected.iter().map(|(name, _)| *name).collect();
    assert_eq!(counters(&registry, &names), expected);
}

/// A battery-free supervised run on a price grid with the day caches on
/// and no detector: every customer is cacheable and the clearing
/// iterations replay each other.
#[test]
fn cached_batteryfree_run_does_pinned_cache_work() {
    let mut scenario = PaperScenario::small(8, 31);
    scenario.training_days = 4;
    scenario.battery_ownership = 0.0;
    scenario.utility.price_quantum = 0.005;
    let mut config = config(None, scenario.customers);
    config.detection_days = 3;
    config.clearing_iterations = 4;

    let registry = std::sync::Arc::new(MetricsRegistry::new());
    let journal: PathBuf =
        std::env::temp_dir().join(format!("nms-work-counters-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let run = SupervisedRun::with_options(
        &scenario,
        &config,
        9,
        &journal,
        SupervisedOptions {
            recorder: registry.clone(),
            cache: DayCacheConfig::on(),
            ..SupervisedOptions::default()
        },
    )
    .unwrap();
    run.run().unwrap();
    let _ = std::fs::remove_file(&journal);

    let expected = [
        ("solver_cache_hits", 124),
        ("solver_cache_misses", 548),
        ("solver_cache_evictions", 295),
    ];
    let names: Vec<&'static str> = expected.iter().map(|(name, _)| *name).collect();
    assert_eq!(counters(&registry, &names), expected);
}
