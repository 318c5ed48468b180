//! The three workloads: scenario and config built from the seed, one whole
//! run driven through the library's public entry points, and the output
//! check.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netmeter_sentinel::attack::AttackTimeline;
use netmeter_sentinel::core::{DetectorMode, FrameworkConfig};
use netmeter_sentinel::fleet::{
    run_fleet, shard_seed, FleetConfig, FleetLadder, FleetOptions, ShardSpec,
};
use netmeter_sentinel::obs::{span, Recorder};
use netmeter_sentinel::sim::{
    experiments, DayCacheConfig, FaultPlan, LongTermRunConfig, LongTermRunResult, MeterOutage,
    PaperScenario, Parallelism, SpeculationReport, SupervisedOptions, SupervisedRun,
};
use netmeter_sentinel::types::{FleetHealth, SolveBudget};
use netmeter_sentinel::vfs::{FaultVfs, IoFaultPlan, StoragePolicy};

/// Slots per detection day (the library's hourly horizon).
const SLOTS_PER_DAY: usize = 24;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperAware,
    BatteryfreeSpec,
    FleetFaulted,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "paper_aware" => Some(Self::PaperAware),
            "batteryfree_spec" => Some(Self::BatteryfreeSpec),
            "fleet_faulted" => Some(Self::FleetFaulted),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::PaperAware => "paper_aware",
            Self::BatteryfreeSpec => "batteryfree_spec",
            Self::FleetFaulted => "fleet_faulted",
        }
    }

    /// The workload's fixed size.
    pub fn shape(self) -> Shape {
        match self {
            Self::PaperAware => Shape {
                customers: 50,
                shards: 1,
                training_days: 4,
                detection_days: 2,
                threads: 1,
            },
            Self::BatteryfreeSpec => Shape {
                customers: 500,
                shards: 1,
                training_days: 4,
                detection_days: 24,
                // The main thread plus the one speculation worker.
                threads: 2,
            },
            Self::FleetFaulted => Shape {
                customers: 24,
                shards: 4,
                training_days: 4,
                detection_days: 3,
                threads: 2,
            },
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub customers: usize,
    pub shards: usize,
    pub training_days: usize,
    pub detection_days: usize,
    pub threads: usize,
}

impl Shape {
    /// Workers that can actually run at once: `nms-par`'s clamp
    /// `min(threads, items, host cores)`.
    pub fn effective_workers(&self, host_cores: usize) -> usize {
        let items = if self.shards > 1 {
            self.shards
        } else {
            self.threads
        };
        self.threads.min(items).min(host_cores).max(1)
    }
}

/// Everything one whole run produced, for the checks and the metrics.
pub struct RunOutcome {
    pub setup_s: f64,
    pub detect_s: f64,
    pub run_s: f64,
    /// Per shard (one for the single-runner workloads).
    pub results: Vec<Option<LongTermRunResult>>,
    pub spec: Option<SpeculationReport>,
    pub fleet: Option<FleetHealth>,
    pub errors: Vec<String>,
}

/// Seeded splitmix64 step: derives independent streams from one seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    shard_seed(seed ^ salt, 0)
}

/// The paper's 48-hour campaign script (`experiments::paper_timeline`),
/// restarted every `period_days` days: with a period of two, every
/// detection day carries campaigns.
fn repeated_paper_timeline(fleet: usize, days: usize, period_days: usize) -> AttackTimeline {
    let base = experiments::paper_timeline(fleet);
    let period = period_days * SLOTS_PER_DAY;
    let events = (0..days.div_ceil(period_days))
        .flat_map(|block| {
            base.events()
                .iter()
                .map(move |&(slot, count)| (slot + block * period, count))
        })
        .collect();
    AttackTimeline::new(events, base.attack().clone()).expect("repeated events are valid")
}

fn run_config(shape: Shape) -> LongTermRunConfig {
    LongTermRunConfig {
        detection_days: shape.detection_days,
        detector: Some(FrameworkConfig::new(
            DetectorMode::NetMeteringAware,
            SLOTS_PER_DAY,
        )),
        timeline: repeated_paper_timeline(shape.customers, shape.detection_days, 2),
        buckets: 6,
        bucket_fraction_step: 0.1,
        labor_per_fix: 10.0,
        labor_per_meter: 1.0,
        faults: None,
        sanitize: Default::default(),
        retry: Default::default(),
        budget: SolveBudget::unlimited(),
        quarantine: Default::default(),
        parallelism: Parallelism::new(1),
        clearing_iterations: 2,
    }
}

/// Journals live on an in-memory disk, so no run touches the filesystem.
fn memory_options(rec: &Arc<dyn Recorder>, cache: DayCacheConfig) -> SupervisedOptions {
    SupervisedOptions {
        vfs: Arc::new(FaultVfs::new(IoFaultPlan::none())),
        recorder: Arc::clone(rec),
        cache,
        ..SupervisedOptions::default()
    }
}

fn failed(setup_s: f64, start: Instant, shards: usize, error: String) -> RunOutcome {
    RunOutcome {
        setup_s,
        detect_s: 0.0,
        run_s: start.elapsed().as_secs_f64(),
        results: vec![None; shards],
        spec: None,
        fleet: None,
        errors: vec![error],
    }
}

/// `paper_aware`: the default mix, the sequential `step_day` loop.
fn paper_aware(seed: u64, rec: &Arc<dyn Recorder>) -> RunOutcome {
    let shape = Workload::PaperAware.shape();
    let mut scenario = PaperScenario::small(shape.customers, seed);
    scenario.training_days = shape.training_days;
    let config = run_config(shape);
    let r = rec.as_ref();

    let start = Instant::now();
    let built = {
        let _span = span(r, "bench.setup");
        SupervisedRun::with_options(
            &scenario,
            &config,
            mix(seed, 0x5eed),
            Path::new("paper_aware.jsonl"),
            memory_options(rec, DayCacheConfig::default()),
        )
    };
    let setup_s = start.elapsed().as_secs_f64();
    let mut run = match built {
        Ok(run) => run,
        Err(err) => return failed(setup_s, start, 1, format!("setup: {err}")),
    };
    let detect = Instant::now();
    while !run.is_finished() {
        let _span = span(r, "bench.step_day");
        if let Err(err) = run.step_day() {
            return failed(
                setup_s,
                start,
                1,
                format!("day {}: {err}", run.completed_days()),
            );
        }
    }
    let finished = {
        let _span = span(r, "bench.finish");
        run.finish()
    };
    let detect_s = detect.elapsed().as_secs_f64();
    let run_s = start.elapsed().as_secs_f64();
    match finished {
        Ok(result) => RunOutcome {
            setup_s,
            detect_s,
            run_s,
            results: vec![Some(result)],
            spec: None,
            fleet: None,
            errors: Vec::new(),
        },
        Err(err) => failed(setup_s, start, 1, format!("finish: {err}")),
    }
}

/// `batteryfree_spec`: N=500 without batteries on a quantized price grid,
/// with the cross-day caches and the speculative day pipeline.
fn batteryfree_spec(seed: u64, rec: &Arc<dyn Recorder>) -> RunOutcome {
    let shape = Workload::BatteryfreeSpec.shape();
    let mut scenario = PaperScenario::paper(seed);
    scenario.customers = shape.customers;
    scenario.battery_ownership = 0.0;
    scenario.utility.price_quantum = 0.005;
    scenario.training_days = shape.training_days;
    let mut config = run_config(shape);
    config.clearing_iterations = 8;
    // Two campaign days in every four: a day with a fix discards the next
    // day's speculation, a quiet day lets it commit.
    config.timeline = repeated_paper_timeline(shape.customers, shape.detection_days, 4);
    let r = rec.as_ref();

    let start = Instant::now();
    let built = {
        let _span = span(r, "bench.setup");
        SupervisedRun::with_options(
            &scenario,
            &config,
            mix(seed, 0x5eed),
            Path::new("batteryfree_spec.jsonl"),
            memory_options(rec, DayCacheConfig::on()),
        )
    };
    let setup_s = start.elapsed().as_secs_f64();
    let run = match built {
        Ok(run) => run,
        Err(err) => return failed(setup_s, start, 1, format!("setup: {err}")),
    };
    let detect = Instant::now();
    let ran = {
        let _span = span(r, "bench.run_speculative");
        run.run_speculative()
    };
    let detect_s = detect.elapsed().as_secs_f64();
    let run_s = start.elapsed().as_secs_f64();
    match ran {
        Ok((result, report)) => RunOutcome {
            setup_s,
            detect_s,
            run_s,
            results: vec![Some(result)],
            spec: Some(report),
            fleet: None,
            errors: Vec::new(),
        },
        Err(err) => failed(setup_s, start, 1, format!("run_speculative: {err}")),
    }
}

/// The fleet's shard specs: small default-mix communities, each with a
/// seeded telemetry fault plan.
fn fleet_specs(seed: u64) -> Vec<ShardSpec> {
    let shape = Workload::FleetFaulted.shape();
    (0..shape.shards)
        .map(|index| {
            let mut scenario =
                PaperScenario::small(shape.customers, mix(seed, 0xc0 + index as u64));
            scenario.training_days = shape.training_days;
            let mut config = run_config(shape);
            config.faults = Some(telemetry_faults(mix(seed, 0xfa + index as u64)));
            ShardSpec::derived(
                format!("community-{index}"),
                scenario,
                config,
                seed,
                index,
                PathBuf::from(format!("shard-{index}.jsonl")),
            )
        })
        .collect()
}

/// Degraded meter telemetry: random drops, NaNs, stuck and skewed meters,
/// garbage readings large enough that sanitize imputes the slot, and two
/// meters out for the whole run so the quarantine breaker trips.
fn telemetry_faults(seed: u64) -> FaultPlan {
    FaultPlan {
        garbage_scale: 1000.0,
        outage: Some(MeterOutage {
            first_meter: 0,
            meters: 2,
            from_day: 0,
            until_day: usize::MAX,
        }),
        ..FaultPlan::degraded(seed, 0.03)
    }
}

/// Storage faults on every journal write after the header, at rates the
/// journal's retry policy absorbs without a single failed append.
fn io_faults(seed: u64, index: usize) -> IoFaultPlan {
    IoFaultPlan {
        seed: mix(seed, 0x10 + index as u64),
        short_write_rate: 0.05,
        enospc_rate: 0.05,
        sync_fail_rate: 0.05,
        fault_from_op: 2,
        ..IoFaultPlan::none()
    }
}

/// Enough attempts that a day's append fails for good only with
/// probability ~0.15^8.
const FLEET_STORAGE_POLICY: StoragePolicy = StoragePolicy {
    max_attempts: 8,
    backoff: Duration::from_millis(1),
};

/// `fleet_faulted`: `run_fleet` over four faulted shards on two threads.
fn fleet_faulted(
    seed: u64,
    fleet_rec: &Arc<dyn Recorder>,
    shard_rec: &Arc<dyn Recorder>,
) -> RunOutcome {
    let shape = Workload::FleetFaulted.shape();
    let specs = fleet_specs(seed);

    // Shards build lazily inside `run_fleet`; the set-up every shard pays
    // there is timed here on shard 0's spec, outside `run_s`.
    let setup = Instant::now();
    let probe = {
        let spec = &specs[0];
        SupervisedRun::with_options(
            &spec.scenario,
            &spec.config,
            spec.seed,
            &spec.journal_path,
            SupervisedOptions {
                vfs: Arc::new(FaultVfs::new(IoFaultPlan::none())),
                ..SupervisedOptions::default()
            },
        )
    };
    let setup_s = setup.elapsed().as_secs_f64();
    drop(probe);

    let options = FleetOptions {
        shard_options: (0..shape.shards)
            .map(|index| SupervisedOptions {
                vfs: Arc::new(FaultVfs::new(io_faults(seed, index))),
                recorder: Arc::clone(shard_rec),
                policy: FLEET_STORAGE_POLICY,
                ..SupervisedOptions::default()
            })
            .collect(),
        ..FleetOptions::recorded(Arc::clone(fleet_rec))
    };
    let config = FleetConfig {
        ladder: FleetLadder::default(),
        day_deadline: SolveBudget::unlimited(),
        parallelism: Parallelism::new(shape.threads),
    };
    let start = Instant::now();
    let ran = {
        let _span = span(fleet_rec.as_ref(), "bench.run_fleet");
        run_fleet(specs, &config, options)
    };
    let run_s = start.elapsed().as_secs_f64();
    match ran {
        Ok(report) => RunOutcome {
            setup_s,
            detect_s: run_s,
            run_s,
            results: report
                .shards
                .into_iter()
                .map(|shard| shard.result)
                .collect(),
            spec: None,
            fleet: Some(report.health),
            errors: Vec::new(),
        },
        Err(err) => failed(setup_s, start, shape.shards, format!("run_fleet: {err}")),
    }
}

/// Runs one whole run of `workload`. `shard_rec` is the recorder fleet
/// shards step under (the other workloads ignore it).
pub fn run(
    workload: Workload,
    seed: u64,
    rec: &Arc<dyn Recorder>,
    shard_rec: &Arc<dyn Recorder>,
) -> RunOutcome {
    match workload {
        Workload::PaperAware => paper_aware(seed, rec),
        Workload::BatteryfreeSpec => batteryfree_spec(seed, rec),
        Workload::FleetFaulted => fleet_faulted(seed, rec, shard_rec),
    }
}

/// The output check. Returns the detection days that failed (all of a
/// shard's days when its result is missing or wrong) and every problem
/// found.
pub fn check(workload: Workload, outcome: &RunOutcome) -> (usize, Vec<String>) {
    let shape = workload.shape();
    let days = shape.detection_days;
    let mut problems = outcome.errors.clone();
    let mut failed_days = 0;
    for (shard, result) in outcome.results.iter().enumerate() {
        let mut shard_problems = Vec::new();
        match result {
            None => shard_problems.push(format!("shard {shard}: no result")),
            Some(result) => {
                if result.day_health.len() != days
                    || result.realized_demand.len() != days * SLOTS_PER_DAY
                {
                    shard_problems.push(format!(
                        "shard {shard}: {} of {days} days completed",
                        result.day_health.len()
                    ));
                }
                match result.accuracy.accuracy() {
                    Some(acc) if (0.0..=1.0).contains(&acc) => {}
                    other => shard_problems.push(format!("shard {shard}: accuracy {other:?}")),
                }
                if !(result.par.is_finite() && result.par >= 1.0) {
                    shard_problems.push(format!("shard {shard}: PAR {}", result.par));
                }
            }
        }
        let mut shard_failed = if shard_problems.is_empty() { 0 } else { days };
        if let Some(health) = &outcome.fleet {
            match health.shards.get(shard) {
                Some(ledger) => {
                    let rungs = ledger.day_retries + ledger.resumes;
                    if ledger.days_completed != days || ledger.suspect_floor_days > 0 {
                        shard_problems.push(format!("shard {shard}: ledger {ledger:?}"));
                        shard_failed = days;
                    } else {
                        // A day that needed a ladder rung failed once, even
                        // though the shard recovered it.
                        shard_failed = shard_failed.max(rungs.min(days));
                    }
                }
                None => {
                    shard_problems.push(format!("shard {shard}: no ledger"));
                    shard_failed = days;
                }
            }
        }
        failed_days += shard_failed;
        problems.extend(shard_problems);
    }
    if let Some(report) = outcome.spec {
        if report.launched != report.committed + report.discarded {
            problems.push(format!("speculation tally does not add up: {report:?}"));
            failed_days = days * outcome.results.len();
        } else if report.launched != (days - 1) as u64 {
            problems.push(format!("expected {} speculations: {report:?}", days - 1));
            failed_days = days * outcome.results.len();
        }
    }
    (failed_days, problems)
}

/// FNV-1a 64 of every shard's `Debug` form, normalized as the day-pipeline
/// bench does: the storage-fault tally zeroed (it counts absorbed faults,
/// which are observability, not part of the result).
pub fn fingerprint(outcome: &RunOutcome) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for result in &outcome.results {
        let text = match result {
            Some(result) => {
                let mut normalized = result.clone();
                normalized.health.storage = Default::default();
                format!("{normalized:?}")
            }
            None => "None".to_string(),
        };
        for byte in text.bytes().chain(std::iter::once(b'\n')) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}
