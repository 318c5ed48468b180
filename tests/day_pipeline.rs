//! Speculative day-pipeline acceptance (DESIGN.md §15): a supervised run
//! driven through [`SupervisedRun::run_speculative`] must be bit-identical
//! to the sequential [`SupervisedRun::run`] — whether its speculations
//! commit or get discarded — and the cross-day [`PersistentCache`]s the
//! pipeline leans on must never change a single bit of any run artifact.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use netmeter_sentinel::attack::{AttackTimeline, PriceAttack};
use netmeter_sentinel::core::{DetectorMode, FrameworkConfig, QuarantineConfig};
use netmeter_sentinel::sim::{
    DayCacheConfig, FaultPlan, LongTermRunConfig, LongTermRunResult, PaperScenario,
    SpeculationReport, SupervisedOptions, SupervisedRun,
};

/// Unique scratch path for a journal file.
fn journal_path(name: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "nms-pipeline-{}-{name}-{n}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn scenario(customers: usize, seed: u64) -> PaperScenario {
    let mut scenario = PaperScenario::small(customers, seed);
    scenario.training_days = 4;
    scenario
}

fn config(
    detector: Option<FrameworkConfig>,
    days: usize,
    timeline: AttackTimeline,
) -> LongTermRunConfig {
    LongTermRunConfig {
        detection_days: days,
        detector,
        timeline,
        buckets: 4,
        bucket_fraction_step: 0.15,
        labor_per_fix: 10.0,
        labor_per_meter: 1.0,
        faults: None,
        sanitize: Default::default(),
        retry: Default::default(),
        budget: Default::default(),
        quarantine: QuarantineConfig::default(),
        parallelism: Default::default(),
        clearing_iterations: 2,
    }
}

fn timeline(fleet: usize) -> AttackTimeline {
    let wave = (fleet / 2).max(1);
    AttackTimeline::new(
        vec![(4, wave), (28, wave)],
        PriceAttack::zero_window(16.0, 18.0).unwrap(),
    )
    .unwrap()
}

fn build(
    scenario: &PaperScenario,
    config: &LongTermRunConfig,
    seed: u64,
    cache: DayCacheConfig,
    tag: &str,
) -> SupervisedRun {
    SupervisedRun::with_options(
        scenario,
        config,
        seed,
        &journal_path(tag),
        SupervisedOptions {
            cache,
            ..SupervisedOptions::default()
        },
    )
    .unwrap()
}

fn run_sequential(
    scenario: &PaperScenario,
    config: &LongTermRunConfig,
    seed: u64,
    cache: DayCacheConfig,
    tag: &str,
) -> LongTermRunResult {
    build(scenario, config, seed, cache, tag).run().unwrap()
}

fn run_speculative(
    scenario: &PaperScenario,
    config: &LongTermRunConfig,
    seed: u64,
    cache: DayCacheConfig,
    tag: &str,
) -> (LongTermRunResult, SpeculationReport) {
    build(scenario, config, seed, cache, tag)
        .run_speculative()
        .unwrap()
}

/// Bit-identity on every float the run produces; `to_bits` keeps any
/// tolerance from sneaking in through `==`.
fn assert_identical(a: &LongTermRunResult, b: &LongTermRunResult) {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.realized_demand), bits(&b.realized_demand));
    assert_eq!(a.par.to_bits(), b.par.to_bits());
    assert_eq!(a.true_buckets, b.true_buckets);
    assert_eq!(a.observed_buckets, b.observed_buckets);
    assert_eq!(a.fixes_at, b.fixes_at);
    assert_eq!(a.final_belief, b.final_belief);
    assert_eq!(a.health, b.health);
    assert_eq!(a.day_health, b.day_health);
    assert_eq!(a.quarantine_events, b.quarantine_events);
}

#[test]
fn speculative_run_is_bit_identical_to_sequential() {
    let scenario = scenario(8, 77);
    let detector = FrameworkConfig::new(DetectorMode::NetMeteringAware, 24);
    let config = config(Some(detector), 2, timeline(scenario.customers));
    let seed = 5;

    let sequential = run_sequential(&scenario, &config, seed, DayCacheConfig::default(), "seq");
    let (speculative, report) =
        run_speculative(&scenario, &config, seed, DayCacheConfig::on(), "spec");

    assert_identical(&sequential, &speculative);
    // Day 0 never speculates (nothing precedes it); every later day does.
    assert_eq!(report.launched, (config.detection_days - 1) as u64);
    assert_eq!(report.committed + report.discarded, report.launched);
}

#[test]
fn forced_divergence_discards_and_stays_bit_identical() {
    // A mid-day fix is the one event the speculation cannot foresee: the
    // projection assumes no repairs, so the day after a fix must arrive
    // with a wrong assumed compromise set and be discarded. A half-fleet
    // wave against the net-metering-aware detector reliably triggers the
    // POMDP's check-&-fix dispatch.
    let scenario = scenario(8, 77);
    let detector = FrameworkConfig::new(DetectorMode::NetMeteringAware, 24);
    let config = config(Some(detector), 3, timeline(scenario.customers));
    let seed = 5;

    let sequential = run_sequential(&scenario, &config, seed, DayCacheConfig::default(), "div-seq");
    assert!(
        sequential
            .fixes_at
            .iter()
            .any(|&slot| slot % 24 != 23 && slot < 2 * 24),
        "precondition: a fix must fire mid-day before the last day to force \
         a divergent speculation (got fixes at {:?})",
        sequential.fixes_at
    );

    let (speculative, report) =
        run_speculative(&scenario, &config, seed, DayCacheConfig::on(), "div-spec");
    assert_identical(&sequential, &speculative);
    assert!(
        report.discarded >= 1,
        "a mid-day fix must discard at least one speculation: {report:?}"
    );
    assert_eq!(report.committed + report.discarded, report.launched);
}

#[test]
fn quarantined_meter_days_do_not_poison_the_cache() {
    // Fault injection + quarantine excludes meters from the telemetry
    // aggregate; the caches sit under the clearing and prediction solves,
    // which see the *scheduling* world, not the telemetry view — so a
    // cached run through quarantine days must stay bit-identical to the
    // cold run, entry reuse and all.
    let scenario = scenario(8, 41);
    let mut faults = FaultPlan::none(17);
    faults.drop_rate = 0.05;
    faults.nan_rate = 0.01;
    let detector = FrameworkConfig::new(DetectorMode::NetMeteringAware, 24);
    let mut config = config(Some(detector), 2, timeline(scenario.customers));
    config.faults = Some(faults);
    let seed = 11;

    let cold = run_sequential(&scenario, &config, seed, DayCacheConfig::default(), "q-cold");
    let cached = run_sequential(&scenario, &config, seed, DayCacheConfig::on(), "q-cached");
    assert_identical(&cold, &cached);
    assert!(
        !cold.quarantine_events.is_empty() || cold.health.faults_injected.total() > 0,
        "precondition: the faulted run must actually exercise telemetry faults"
    );
}

#[test]
fn cached_run_holds_at_most_one_day_of_entries() {
    // The battery-free, price-grid shape of the paper-scale workload: every
    // customer is cacheable and the clearing iterations replay each other.
    // The scenario resamples every customer's tasks daily, so each day's
    // first solve evicts what the previous day left behind, and after any
    // day the caches hold no more than that day's clearing could insert.
    let mut scenario = scenario(8, 31);
    scenario.battery_ownership = 0.0;
    scenario.utility.price_quantum = 0.005;
    let mut config = config(None, 4, timeline(scenario.customers));
    config.clearing_iterations = 4;
    let seed = 9;

    let cold = run_sequential(
        &scenario,
        &config,
        seed,
        DayCacheConfig::default(),
        "b-cold",
    );
    let mut run = build(&scenario, &config, seed, DayCacheConfig::on(), "b-cached");
    // `clearing_iterations` fixed-point solves plus the final solve at the
    // final price; no detector, so the prediction cache stays empty.
    let solves_per_day = config.clearing_iterations + 1;
    let bound = scenario.customers * scenario.game.max_rounds * solves_per_day;
    while !run.is_finished() {
        run.step_day().unwrap();
        let entries = run.cache_entries();
        assert!(
            entries > 0 && entries <= bound,
            "day {}: {entries} entries, bound {bound}",
            run.completed_days()
        );
    }
    assert!(
        run.cache_evictions() > 0,
        "later days must evict the entries of earlier days' customers"
    );
    assert!(
        run.cache_stats().hits > 0,
        "the replayed clearing iterations must still hit"
    );
    assert_identical(&cold, &run.finish().unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Satellite (c): across day boundaries, persistent-cache hits are
    /// bit-identical to cold recomputation for arbitrary seeds and quanta —
    /// the exact-verification scheme means a hit can never substitute a
    /// merely-nearby response.
    #[test]
    fn cached_runs_are_bit_identical_across_days(
        seed in 0u64..1000,
        quantum_exp in 0usize..4,
    ) {
        let quantum = [1e-12, 1e-9, 1e-3, 1.0][quantum_exp];
        let scenario = scenario(6, 19);
        let config = config(None, 2, timeline(scenario.customers));
        let cold = run_sequential(&scenario, &config, seed, DayCacheConfig::default(), "p-cold");
        let cached = run_sequential(
            &scenario,
            &config,
            seed,
            DayCacheConfig { enabled: true, quantum },
            "p-cached",
        );
        assert_identical(&cold, &cached);
    }
}
