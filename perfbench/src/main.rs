//! One whole long-term detection run, timed and checked.
//!
//! ```text
//! perfbench --workload <paper_aware|batteryfree_spec|fleet_faulted> --seed <n> --trace <0|1>
//! ```
//!
//! Builds the workload's scenario from the seed, drives one whole run
//! through the library's public entry points, checks its outputs, and
//! prints one JSON line: the end-to-end figures, the output check, the
//! result fingerprint and the run's provenance. With `--trace 1` the run
//! records into a `SpanRecorder` and a `MetricsRegistry` and the line also
//! carries the per-layer times and the exact work counters.
//!
//! `run.py` starts one such process per run (so peak RSS is per run) and
//! reports medians; see `README.md`.

mod layers;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use netmeter_sentinel::fleet::shard_seed;
use netmeter_sentinel::obs::names::fleet as fleet_names;
use netmeter_sentinel::obs::{MetricsRegistry, NoopRecorder, Recorder, SpanRecorder, Tee};

use layers::{attribute, WorkerSpans};
use workloads::{check, fingerprint, RunOutcome, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    community: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut community = 0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--community" => {
                community = value
                    .parse()
                    .map_err(|_| format!("bad community {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        community,
        trace,
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The end-to-end figures of one run.
fn end_to_end(workload: Workload, outcome: &RunOutcome) -> BTreeMap<&'static str, f64> {
    let shape = workload.shape();
    let days = shape.detection_days as f64;
    let results: Vec<_> = outcome.results.iter().flatten().collect();
    // Slot-wise accuracy pooled over every shard's slots.
    let (hits, slots) = results.iter().fold((0usize, 0usize), |(h, n), result| {
        let per_slot = result.accuracy.per_slot();
        (
            h + per_slot.iter().filter(|&&hit| hit).count(),
            n + per_slot.len(),
        )
    });
    let par_sum: f64 = results.iter().map(|result| result.par).sum();
    BTreeMap::from([
        ("run_s", outcome.run_s),
        ("setup_s", outcome.setup_s),
        ("days_per_s", days / outcome.detect_s),
        (
            "shard_days_per_s",
            days * shape.shards as f64 / outcome.run_s,
        ),
        ("peak_rss_mb", peak_rss_mib()),
        ("obs_accuracy", ratio(hits as f64, slots as f64)),
        ("realized_par", ratio(par_sum, results.len() as f64)),
    ])
}

/// The exact work counters: pure functions of the seed.
fn counters(outcome: &RunOutcome, registry: &MetricsRegistry) -> BTreeMap<&'static str, u64> {
    let results: Vec<_> = outcome.results.iter().flatten().collect();
    let sum = |f: &dyn Fn(&netmeter_sentinel::sim::LongTermRunResult) -> usize| {
        results.iter().map(|result| f(result) as u64).sum::<u64>()
    };
    let spec = outcome.spec.unwrap_or_default();
    let fleet = outcome.fleet.as_ref();
    BTreeMap::from([
        ("ce.iterations", registry.counter("solver_ce_iterations")),
        ("ce.solves", registry.counter("solver_ce_solves")),
        ("ce.converged", registry.counter("solver_ce_converged")),
        ("dp.cells", registry.counter("solver_dp_cells")),
        ("game.rounds", registry.counter("solver_rounds")),
        ("game.games", registry.counter("solver_games")),
        ("cache.hits", registry.counter("solver_cache_hits")),
        ("cache.misses", registry.counter("solver_cache_misses")),
        ("spec.launched", spec.launched),
        ("spec.committed", spec.committed),
        ("spec.discarded", spec.discarded),
        (
            "sanitize.faults_injected",
            sum(&|r| r.health.faults_injected.total()),
        ),
        ("sanitize.slots_imputed", sum(&|r| r.health.slots_imputed)),
        (
            "sanitize.quarantine_trips",
            sum(&|r| r.health.quarantine_trips),
        ),
        (
            "storage.journal_retries",
            sum(&|r| r.health.storage.journal_retries),
        ),
        (
            "fleet.day_retries",
            fleet.map_or(0, |h| h.day_retries() as u64),
        ),
        (
            "fleet.shard_restarts",
            fleet.map_or(0, |h| h.restarts() as u64),
        ),
        (
            "fleet.quarantines",
            fleet.map_or(0, |h| h.quarantined() as u64),
        ),
    ])
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer times and ratios of a traced run (the counts come from
/// [`counters`]; `trace.overhead_frac` needs untraced runs and is formed
/// by `run.py`).
fn layer_times(
    workload: Workload,
    outcome: &RunOutcome,
    spans: &SpanRecorder,
    workers: &WorkerSpans,
    registry: &MetricsRegistry,
    counts: &BTreeMap<&'static str, u64>,
) -> BTreeMap<&'static str, f64> {
    let mut spans = attribute(&spans.profile());
    let program_top_s = spans.program_top_s;
    spans.absorb_workers(&workers.totals());
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let host_cores = nms_par::host_threads();
    let day_close = registry.histogram(fleet_names::DAY_CLOSE_SECONDS);
    let busy_s = day_close.as_ref().map_or(0.0, |h| h.sum());
    let workers_used = workload.shape().effective_workers(host_cores) as f64;
    // Thread-seconds the spans could fill: fleet shard spans are summed
    // over the workers, the other workloads record one thread.
    let span_thread_s = if outcome.fleet.is_some() {
        workers_used * outcome.run_s
    } else {
        outcome.run_s
    };
    BTreeMap::from([
        ("trace.run_s", outcome.run_s),
        ("ce_battery.self_s", spans.self_time("ce_battery")),
        (
            "ce_battery.share",
            ratio(spans.self_time("ce_battery"), span_thread_s),
        ),
        (
            "ce.converged_ratio",
            ratio(count("ce.converged"), count("ce.solves")),
        ),
        ("dp_appliances.self_s", spans.self_time("dp_appliances")),
        ("game_solve.self_s", spans.self_time("game_solve")),
        (
            "cache.hit_ratio",
            ratio(
                count("cache.hits"),
                count("cache.hits") + count("cache.misses"),
            ),
        ),
        ("training.total_s", spans.total("training")),
        ("training.self_s", spans.self_time("training")),
        ("detect_day.total_s", spans.total("detect_day")),
        ("clearing.total_s", spans.total("clearing")),
        ("prediction.total_s", spans.total("prediction")),
        ("slots.total_s", spans.total("slots")),
        ("journal_append.total_s", spans.total("journal_append")),
        (
            "spec.committed_ratio",
            ratio(count("spec.committed"), count("spec.launched")),
        ),
        (
            "fleet.day_close_p50_s",
            day_close.and_then(|h| h.quantile(0.5)).unwrap_or(0.0),
        ),
        (
            "fleet.worker_busy_ratio",
            if outcome.fleet.is_some() {
                ratio(busy_s, span_thread_s)
            } else {
                0.0
            },
        ),
        ("trace.unattributed_s", outcome.run_s - program_top_s),
    ])
}

fn json_str(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn json_object<V>(entries: &BTreeMap<&'static str, V>, render: impl Fn(&V) -> String) -> String {
    let body: Vec<String> = entries
        .iter()
        .map(|(key, value)| format!("{}:{}", json_str(key), render(value)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let registry = MetricsRegistry::new();
    let spans = Arc::new(SpanRecorder::new());
    let workers = Arc::new(WorkerSpans::default());
    let (rec, shard_rec): (Arc<dyn Recorder>, Arc<dyn Recorder>) = if args.trace {
        let metrics: Arc<dyn Recorder> = Arc::new(registry.clone());
        (
            Arc::new(Tee::new(vec![spans.clone(), Arc::clone(&metrics)])),
            Arc::new(Tee::new(vec![workers.clone(), metrics])),
        )
    } else {
        (Arc::new(NoopRecorder), Arc::new(NoopRecorder))
    };

    // Fine buckets, so the day-close median is read to the millisecond.
    let bounds: Vec<f64> = (0..=400).map(|i| 1e-3 * 1.025_f64.powi(i)).collect();
    registry.register_histogram(fleet_names::DAY_CLOSE_SECONDS, &bounds);

    let seed = shard_seed(args.seed, args.community as usize);
    let outcome = workloads::run(args.workload, seed, &rec, &shard_rec);
    let (failed_days, problems) = check(args.workload, &outcome);
    let e2e = end_to_end(args.workload, &outcome);

    let shape = args.workload.shape();
    let host_cores = nms_par::host_threads();
    let effective = shape.effective_workers(host_cores);
    let provenance = format!(
        "{{\"nproc\":{host_cores},\"threads_requested\":{},\"effective_workers\":{effective},\
         \"parallel\":{},\"customers\":{},\"shards\":{},\"training_days\":{},\
         \"detection_days\":{},\"seed\":{},\"community\":{},\"traced\":{}}}",
        shape.threads,
        json_str(if shape.threads == 1 {
            "sequential"
        } else if effective < shape.threads {
            "clamped: fewer workers than requested, not a scaling result"
        } else {
            "as requested"
        }),
        shape.customers,
        shape.shards,
        shape.training_days,
        shape.detection_days,
        args.seed,
        args.community,
        args.trace,
    );
    let mut line = format!(
        "{{\"workload\":{},\"correct\":{},\"problems\":[{}],\"days_attempted\":{},\
         \"days_failed\":{failed_days},\"fingerprint\":{},\"provenance\":{provenance},\"e2e\":{}",
        json_str(args.workload.name()),
        problems.is_empty(),
        problems
            .iter()
            .map(|p| json_str(p))
            .collect::<Vec<_>>()
            .join(","),
        shape.detection_days * shape.shards,
        json_str(&fingerprint(&outcome)),
        json_object(&e2e, |v| json_num(*v)),
    );
    if args.trace {
        let counts = counters(&outcome, &registry);
        let times = layer_times(
            args.workload,
            &outcome,
            &spans,
            &workers,
            &registry,
            &counts,
        );
        let _ = write!(
            line,
            ",\"counters\":{},\"layers\":{}",
            json_object(&counts, u64::to_string),
            json_object(&times, |v| json_num(*v)),
        );
    }
    line.push('}');
    println!("{line}");
    ExitCode::SUCCESS
}
