//! Properties of the speculative day pipeline (DESIGN.md §15) beyond
//! bit-identity, which `tests/day_pipeline.rs` pins: its tally and the
//! run's work counters do not depend on thread timing, a run resumed from
//! a journal pipelines only the days it has left, and without a detector
//! nothing can diverge.

use std::path::Path;
use std::sync::Arc;

use netmeter_sentinel::attack::{AttackTimeline, PriceAttack};
use netmeter_sentinel::core::{DetectorMode, FrameworkConfig};
use netmeter_sentinel::obs::MetricsRegistry;
use netmeter_sentinel::sim::{
    DayCacheConfig, LongTermRunConfig, LongTermRunResult, PaperScenario, SpeculationReport,
    SupervisedOptions, SupervisedRun,
};
use netmeter_sentinel::vfs::{FaultVfs, IoFaultPlan};

const JOURNAL: &str = "lookahead/journal.jsonl";

fn scenario(customers: usize, seed: u64) -> PaperScenario {
    let mut scenario = PaperScenario::small(customers, seed);
    scenario.training_days = 4;
    scenario
}

fn config(detector: Option<FrameworkConfig>, days: usize, fleet: usize) -> LongTermRunConfig {
    let wave = (fleet / 2).max(1);
    LongTermRunConfig {
        detection_days: days,
        detector,
        timeline: AttackTimeline::new(
            vec![(4, wave), (28, wave)],
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
        budget: Default::default(),
        quarantine: Default::default(),
        parallelism: Default::default(),
        clearing_iterations: 2,
    }
}

fn aware() -> Option<FrameworkConfig> {
    Some(FrameworkConfig::new(DetectorMode::NetMeteringAware, 24))
}

/// A run whose journal lives on `disk` (clones share one disk).
fn build(
    scenario: &PaperScenario,
    config: &LongTermRunConfig,
    disk: &FaultVfs,
    recorder: Option<Arc<MetricsRegistry>>,
) -> SupervisedRun {
    let mut options = SupervisedOptions {
        vfs: Arc::new(disk.clone()),
        cache: DayCacheConfig::on(),
        ..SupervisedOptions::default()
    };
    if let Some(registry) = recorder {
        options.recorder = registry;
    }
    SupervisedRun::with_options(scenario, config, 5, Path::new(JOURNAL), options)
        .expect("run builds")
}

fn fresh_disk() -> FaultVfs {
    FaultVfs::new(IoFaultPlan::none())
}

/// The comparison form: `Debug` with the process-local storage tally
/// zeroed (observability, not part of the result).
fn normalized(mut result: LongTermRunResult) -> String {
    result.health.storage = Default::default();
    format!("{result:?}")
}

/// Every counter in the registry, by exposition name.
fn counters(registry: &MetricsRegistry) -> Vec<String> {
    let exposition = registry.render_prometheus();
    let mut counters = Vec::new();
    let mut is_counter = false;
    for line in exposition.lines() {
        if let Some(kind) = line.strip_prefix("# TYPE ") {
            is_counter = kind.ends_with(" counter");
        } else if is_counter {
            counters.push(line.to_string());
        }
    }
    counters
}

#[test]
fn tally_and_counters_repeat_across_runs() {
    // The forced-divergence community of `tests/day_pipeline.rs`: a
    // mid-day fix discards a day, so both tally branches are taken.
    let scenario = scenario(8, 77);
    let config = config(aware(), 3, scenario.customers);
    let runs: Vec<(SpeculationReport, Vec<String>)> = (0..2)
        .map(|_| {
            let registry = Arc::new(MetricsRegistry::new());
            let (_, report) = build(
                &scenario,
                &config,
                &fresh_disk(),
                Some(Arc::clone(&registry)),
            )
            .run_speculative()
            .expect("speculative run");
            (report, counters(&registry))
        })
        .collect();
    let (report, snapshot) = &runs[0];
    assert!(
        report.discarded >= 1,
        "precondition: a day diverges: {report:?}"
    );
    assert!(
        snapshot
            .iter()
            .any(|line| line.starts_with("nms_pipeline_speculation_launched ")),
        "the registry saw the pipeline: {snapshot:?}"
    );
    assert_eq!(runs[0], runs[1]);
}

#[test]
fn resumed_run_pipelines_only_the_days_left() {
    let scenario = scenario(8, 77);
    let days = 4;
    let config = config(aware(), days, scenario.customers);
    let uninterrupted = build(&scenario, &config, &fresh_disk(), None)
        .run()
        .expect("sequential run");

    for journaled in 1..days {
        let disk = fresh_disk();
        let mut first = build(&scenario, &config, &disk, None);
        for _ in 0..journaled {
            first.step_day().expect("journaled day");
        }
        drop(first);

        let resumed = build(&scenario, &config, &disk, None);
        assert_eq!(
            resumed.completed_days(),
            journaled,
            "resumes from the journal"
        );
        let (result, report) = resumed.run_speculative().expect("resumed run");
        assert_eq!(normalized(result), normalized(uninterrupted.clone()));
        assert_eq!(report.launched, (days - journaled - 1) as u64);
        assert_eq!(report.committed + report.discarded, report.launched);
    }
}

#[test]
fn without_a_detector_every_speculation_commits() {
    // The battery-free, price-grid shape of the paper-scale workload, so
    // the caches under both threads' clearings do real work. No detector
    // means no mid-day fix, and the projected compromise set always holds.
    let mut scenario = scenario(10, 31);
    scenario.battery_ownership = 0.0;
    scenario.utility.price_quantum = 0.005;
    let days = 4;
    let mut config = config(None, days, scenario.customers);
    config.clearing_iterations = 4;

    let sequential = build(&scenario, &config, &fresh_disk(), None)
        .run()
        .expect("sequential run");
    let (speculative, report) = build(&scenario, &config, &fresh_disk(), None)
        .run_speculative()
        .expect("speculative run");
    assert_eq!(normalized(sequential), normalized(speculative));
    assert_eq!(
        report,
        SpeculationReport {
            launched: (days - 1) as u64,
            committed: (days - 1) as u64,
            discarded: 0,
        }
    );
}
