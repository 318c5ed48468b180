//! Sequential vs speculative supervised-day driving (DESIGN.md §15).
//!
//! Runs the same multi-day supervised detection run twice — once through
//! the plain sequential day loop with solver caching off
//! (`SupervisedRun::run`), once through the speculative day pipeline with
//! the [`DayCacheConfig`] persistent caches on
//! (`SupervisedRun::run_speculative`) — proves the two are bit-identical,
//! and records both wall times as `day_pipeline/{seq,spec}` in
//! `BENCH_results.json` (training/construction excluded from both).
//!
//! The scenario is shaped so the caches have something to say: no
//! batteries (battery-active responses consume the CE RNG stream and are
//! never memoized) and quantized published prices
//! (`UtilityConfig::price_quantum`), which put the market's fixed-point
//! clearing iteration on a finite price grid. Within a few iterations the
//! designed price repeats bitwise (a fixed point or a short cycle), every
//! later iteration re-poses an earlier solve input-for-input, and the
//! persistent cache answers it wholesale instead of re-running the DP.
//! With continuous prices none of that happens — the chaotic last float
//! bits of the game equilibrium keep every price distinct and the
//! exact-verified cache never fires (measured ~1% hit rate vs ~60% here).
//!
//! Environment: `NMS_BENCH_CUSTOMERS` / `NMS_BENCH_SEED` as for every
//! bench; `NMS_BENCH_TOLERANCE` / `NMS_BENCH_MAX_ROUNDS` /
//! `NMS_BENCH_CLEARING_ITERS` / `NMS_BENCH_PRICE_QUANTUM` shape the game;
//! `NMS_BENCH_SMOKE` shrinks the run to two detection days and skips the
//! Criterion timing loops (the CI smoke gate).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use nms_attack::{AttackTimeline, PriceAttack};
use nms_bench::{bench_scenario, host_cores, record_bench_results, BenchRecord};
use nms_sim::{
    DayCacheConfig, LongTermRunConfig, LongTermRunResult, PaperScenario, SupervisedOptions,
    SupervisedRun,
};
use nms_types::SolveBudget;
use nms_vfs::{FaultVfs, IoFaultPlan};

const JOURNAL: &str = "day_pipeline/journal.jsonl";

fn smoke() -> bool {
    std::env::var_os("NMS_BENCH_SMOKE").is_some()
}

fn envf(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn pipeline_scenario() -> PaperScenario {
    let mut scenario = bench_scenario();
    scenario.battery_ownership = 0.0;
    scenario.game.tolerance = envf("NMS_BENCH_TOLERANCE", 1e-9);
    scenario.game.max_rounds = envf("NMS_BENCH_MAX_ROUNDS", 10.0) as usize;
    // Tenth-of-a-cent published prices: the clearing iteration then lives
    // on a finite price grid and reaches a bitwise fixed point (or short
    // cycle) within a few rounds, after which every later clearing
    // iteration replays an earlier solve input-for-input and the
    // persistent cache answers it wholesale.
    scenario.utility.price_quantum = envf("NMS_BENCH_PRICE_QUANTUM", 0.005);
    scenario.training_days = 3;
    scenario
}

fn run_config(days: usize) -> LongTermRunConfig {
    LongTermRunConfig {
        detection_days: days,
        // No detector: no mid-day fixes, so every speculation commits and
        // the pair isolates the pipeline + cache cost, not POMDP behavior
        // (`tests/day_pipeline.rs` covers the divergence path).
        detector: None,
        timeline: AttackTimeline::new(
            vec![(4, 2), (20, 2)],
            PriceAttack::zero_window(16.0, 18.0).expect("window"),
        )
        .expect("timeline"),
        buckets: 4,
        bucket_fraction_step: 0.15,
        labor_per_fix: 10.0,
        labor_per_meter: 1.0,
        faults: None,
        sanitize: Default::default(),
        retry: Default::default(),
        budget: SolveBudget::unlimited(),
        quarantine: Default::default(),
        parallelism: Default::default(),
        clearing_iterations: envf("NMS_BENCH_CLEARING_ITERS", 8.0) as usize,
    }
}

/// A fresh run on a clean in-memory disk; construction performs the
/// training days, so the timed sections cover detection only.
fn build(
    scenario: &PaperScenario,
    config: &LongTermRunConfig,
    cache: DayCacheConfig,
) -> SupervisedRun {
    SupervisedRun::with_options(
        scenario,
        config,
        scenario.seed,
        Path::new(JOURNAL),
        SupervisedOptions {
            vfs: Arc::new(FaultVfs::new(IoFaultPlan::none())),
            cache,
            ..SupervisedOptions::default()
        },
    )
    .expect("supervised run builds")
}

/// The bit-identity comparison form: `Debug` with the process-local
/// storage tally zeroed (observability, not part of the contract).
fn normalized(mut result: LongTermRunResult) -> String {
    result.health.storage = Default::default();
    format!("{result:?}")
}

fn bench(c: &mut Criterion) {
    let days = if smoke() { 2 } else { 6 };
    let scenario = pipeline_scenario();
    let config = run_config(days);

    let seq_run = build(&scenario, &config, DayCacheConfig::default());
    let start = Instant::now();
    let seq = seq_run.run().expect("sequential run");
    let seq_secs = start.elapsed().as_secs_f64();

    let spec_run = build(&scenario, &config, DayCacheConfig::on());
    let start = Instant::now();
    let (spec, report) = spec_run.run_speculative().expect("speculative run");
    let spec_secs = start.elapsed().as_secs_f64();

    assert_eq!(
        normalized(seq),
        normalized(spec),
        "speculative pipeline diverged from the sequential driver"
    );
    assert_eq!(report.launched, (days - 1) as u64, "every later day speculates");
    assert_eq!(
        report.committed, report.launched,
        "without a detector nothing can diverge: {report:?}"
    );

    // One more cached run, stepped by hand, to harvest the main-thread
    // cache counters (the timed runs consume themselves before they can be
    // asked). Deterministic, so these are exactly the sequential-cached
    // run's statistics. Every customer is cacheable and there is no
    // detector (so no prediction cache traffic), and each day's solves
    // evict the previous day's customers: after any day the caches hold
    // at most one day of clearing — `clearing_iterations` fixed-point
    // solves plus the final one.
    let bound = scenario.customers * scenario.game.max_rounds * (config.clearing_iterations + 1);
    let mut probe = build(&scenario, &config, DayCacheConfig::on());
    let mut peak_entries = 0;
    while !probe.is_finished() {
        probe.step_day().expect("probe day");
        let entries = probe.cache_entries();
        assert!(
            entries <= bound,
            "day {}: caches hold {entries} entries, more than one day's {bound}",
            probe.completed_days()
        );
        peak_entries = peak_entries.max(entries);
    }
    let stats = probe.cache_stats();
    let evictions = probe.cache_evictions();
    probe.finish().expect("probe finishes");

    println!("\n=== Day pipeline ({days} detection days, bit-identical) ===");
    println!(
        "day_pipeline | seq {seq_secs:>7.2}s | spec {spec_secs:>7.2}s | {:>5.2}x | \
         cache hit rate {:.1}% | entries peak {peak_entries} (bound {bound}) | \
         evictions {evictions} | {report:?}",
        seq_secs / spec_secs.max(1e-9),
        100.0 * stats.hit_rate(),
    );

    let record = |target: &str, wall_secs: f64, hits: usize, misses: usize| BenchRecord {
        target: target.to_string(),
        wall_secs,
        customers: scenario.customers,
        seed: scenario.seed,
        threads: 1,
        host_cores: host_cores(),
        solver_rounds: 0,
        cache_hits: hits as u64,
        cache_misses: misses as u64,
        note: format!(
            "{days} detection days, no detector, battery-free limit-cycle scenario; \
             spec = speculative pipeline + persistent caches \
             ({} committed / {} discarded)",
            report.committed, report.discarded
        ),
        speedup: 0.0,
    };
    record_bench_results(&[
        record("day_pipeline/seq", seq_secs, 0, 0),
        record("day_pipeline/spec", spec_secs, stats.hits, stats.misses),
    ])
    .expect("bench results written");
    println!("recorded to {}", nms_bench::bench_results_path().display());

    if smoke() {
        return;
    }

    // A small Criterion trail on the speculative path; the tracked numbers
    // are the seq/spec pair above.
    let short = run_config(2);
    let mut group = c.benchmark_group("day_pipeline");
    group.sample_size(10);
    group.bench_function("spec", |b| {
        b.iter(|| {
            build(&scenario, &short, DayCacheConfig::on())
                .run_speculative()
                .expect("speculative run")
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
