#!/usr/bin/env python3
"""End-to-end benchmark: whole long-term detection runs, timed and checked.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` Cargo package (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), then starts one process per
whole run, cycling through the workload's seed-derived communities until
--seconds have been measured. Prints a summary and a provenance line; the
last line of stdout is one JSON object with `correct`, `attempted`, `failed`
(detection days) and `metrics` (end-to-end with --trace 0, per-layer with
--trace 1). See perfbench/README.md for the metrics and workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --record-reference

re-records the result fingerprints of one declared seed into
perfbench/reference.json (only when a change is meant to alter results).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"

# Distinct seed-derived communities one measurement cycles through.
COMMUNITIES = {"paper_aware": 4, "batteryfree_spec": 4, "fleet_faulted": 3}

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "days_per_s": "days/s",
    "shard_days_per_s": "shard-days/s",
    "peak_rss_mb": "MiB",
    "realized_par": "ratio",
}

# Per-layer metrics of the traced run: name -> unit. Counts come from the
# run's exact work counters, the rest from its span tree and registry.
PER_LAYER = {
    "trace.run_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_s": "s",
    "obs_accuracy": "fraction",
    "ce_battery.self_s": "s",
    "ce_battery.share": "fraction",
    "ce.iterations": "count",
    "ce.solves": "count",
    "ce.converged_ratio": "fraction",
    "dp_appliances.self_s": "s",
    "dp.cells": "count",
    "game_solve.self_s": "s",
    "game.rounds": "count",
    "game.games": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "fraction",
    "training.total_s": "s",
    "training.self_s": "s",
    "detect_day.total_s": "s",
    "clearing.total_s": "s",
    "prediction.total_s": "s",
    "slots.total_s": "s",
    "journal_append.total_s": "s",
    "spec.launched": "count",
    "spec.discarded": "count",
    "spec.committed_ratio": "fraction",
    "fleet.day_close_p50_s": "s",
    "fleet.worker_busy_ratio": "fraction",
    "fleet.day_retries": "count",
    "fleet.shard_restarts": "count",
    "fleet.quarantines": "count",
    "sanitize.faults_injected": "count",
    "sanitize.slots_imputed": "count",
    "sanitize.quarantine_trips": "count",
    "storage.journal_retries": "count",
    "counters.mismatched": "count",
}

# Every child must have ended this many seconds after the measurement
# starts, which keeps one invocation under three minutes.
HARD_STOP_S = 170.0


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Builds the benchmark binary; returns its path."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"no repository sources next to {BENCH_DIR.name}/; run from a full checkout", 2)
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    try:
        done = subprocess.run(command, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"build failed: {err}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    binary = target / "release" / "perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def run_once(binary, workload, seed, community, trace, timeout):
    """One whole run in its own process. Returns its JSON record, or a
    failed stand-in when the process crashed, hung or printed nothing."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--community", str(community), "--trace", "1" if trace else "0"]
    started = time.monotonic()
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
        lines = done.stdout.strip().splitlines()
        if done.returncode == 0 and lines:
            record = json.loads(lines[-1])
            record["wall_s"] = time.monotonic() - started
            return record
        problem = f"run exited with code {done.returncode}"
    except subprocess.TimeoutExpired:
        problem = f"run did not end within {timeout:.0f} s"
    except json.JSONDecodeError as err:
        problem = f"run printed no result: {err}"
    return {"correct": False, "problems": [problem], "days_attempted": None,
            "days_failed": None, "fingerprint": None, "crashed": True,
            "wall_s": time.monotonic() - started}


def source_provenance():
    """Git revision when the tree is a git checkout, and always a digest of
    the sources the benchmark builds."""
    try:
        revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                  capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        revision = ""
    digest = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "src", ROOT / "crates",
             ROOT / "vendor", BENCH_DIR]
    for top in roots:
        paths = [top] if top.is_file() else sorted(p for p in top.rglob("*") if p.is_file())
        for path in paths:
            if "target" in path.relative_to(ROOT).parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return revision or "unavailable (not a git checkout)", digest.hexdigest()[:16]


def load_reference():
    try:
        return json.loads(REFERENCE.read_text())
    except (OSError, json.JSONDecodeError):
        return {}


def measure(binary, workload, seed, seconds, trace):
    """Runs whole runs until `seconds` are measured. Untraced, the runs cycle
    through the workload's communities (each at least once); traced, they
    alternate untraced and traced runs of community 0, with at least two
    traced runs so the exact counters can be compared."""
    communities = COMMUNITIES[workload]
    plan = [(0, False), (0, True), (0, True)] if trace else [(c, False) for c in range(communities)]
    start = time.monotonic()
    records = []
    while True:
        index = len(records)
        if index < len(plan):
            community, traced = plan[index]
        elif trace:
            community, traced = 0, index % 2 == 0
        else:
            community, traced = index % communities, False
        if index >= len(plan):
            # Start another run only when it should end within the budget.
            same = [r["wall_s"] for r in records if r.get("community") == community]
            estimate = statistics.median(same or [r["wall_s"] for r in records])
            if time.monotonic() - start + estimate > seconds:
                break
        remaining = HARD_STOP_S - (time.monotonic() - start)
        if remaining <= 0:
            break
        record = run_once(binary, workload, seed, community, traced, remaining)
        record["community"] = community
        record["traced"] = traced
        records.append(record)
        if record.get("crashed"):
            break
    return records, time.monotonic() - start


def median_of(records, key, name):
    values = [r[key][name] for r in records if r.get(key) and r[key].get(name) is not None]
    return statistics.median(values) if values else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(COMMUNITIES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)

    binary = build()
    workload, trace = args.workload, bool(args.trace)
    communities = COMMUNITIES[workload]

    if args.record_reference:
        prints = []
        for community in range(communities):
            record = run_once(binary, workload, args.seed, community, False, HARD_STOP_S)
            if not record["correct"]:
                fail(f"community {community} failed its check: {record['problems']}")
            prints.append(record["fingerprint"])
        reference = load_reference()
        reference.setdefault(workload, {})[str(args.seed)] = prints
        REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
        print(f"recorded {workload} seed {args.seed}: {prints}")
        return

    records, elapsed = measure(binary, workload, args.seed, args.seconds, trace)

    # Output check: every run's own check, same-community runs must agree,
    # and declared seeds must reproduce their recorded fingerprints.
    problems = []
    attempted = failed = 0
    # A crashed run reports no day count; charge it a sibling run's.
    days_per_run = next((r["days_attempted"] for r in records if r["days_attempted"]), 1)
    for record in records:
        days = record["days_attempted"] or days_per_run
        attempted += days
        failed += days if not record["correct"] else record["days_failed"]
        problems += [f"community {record['community']}: {p}" for p in record["problems"]]
    seen = {}
    for record in records:
        fingerprint = record.get("fingerprint")
        if fingerprint is None:
            continue
        first = seen.setdefault(record["community"], fingerprint)
        if first != fingerprint:
            problems.append(f"community {record['community']}: result differs between runs")
    expected = load_reference().get(workload, {}).get(str(args.seed))
    if expected:
        for community, fingerprint in seen.items():
            if community < len(expected) and fingerprint != expected[community]:
                problems.append(f"community {community}: fingerprint {fingerprint} "
                                f"does not match the reference {expected[community]}")
    correct = not problems and all(r["correct"] for r in records)
    # A run that failed its check is never counted as faster.
    timed = [r for r in records if r["correct"]] or records

    if trace:
        traced = [r for r in timed if r["traced"]]
        untraced = [r for r in timed if not r["traced"]]
        counters = [r["counters"] for r in traced if r.get("counters")]
        mismatched = sorted({name for c in counters[1:] for name in c
                             if c[name] != counters[0].get(name)})
        if mismatched:
            correct = False
            problems.append(f"work counters differ between runs of one seed: {mismatched}")
        metrics = dict(counters[0]) if counters else {}
        for name in traced[0]["layers"] if traced and traced[0].get("layers") else []:
            metrics[name] = median_of(traced, "layers", name)
        metrics["obs_accuracy"] = median_of(traced, "e2e", "obs_accuracy")
        traced_run = median_of(traced, "e2e", "run_s")
        untraced_run = median_of(untraced, "e2e", "run_s")
        metrics["trace.overhead_frac"] = (traced_run / untraced_run - 1.0
                                          if traced_run and untraced_run else None)
        metrics["counters.mismatched"] = len(mismatched)
        units = PER_LAYER
    else:
        metrics = {name: median_of(timed, "e2e", name) for name in END_TO_END}
        # The result guards are pure functions of the seed: one value per
        # community, each community counted once.
        firsts = list({r["community"]: r for r in reversed(timed)}.values())
        metrics["realized_par"] = median_of(firsts, "e2e", "realized_par")
        guard_accuracy = median_of(firsts, "e2e", "obs_accuracy")
        units = END_TO_END

    missing = [name for name in units if metrics.get(name) is None]
    if missing:
        correct = False
        problems.append(f"no value for {missing}")

    revision, digest = source_provenance()
    provenance = dict(records[0].get("provenance", {})) if records else {}
    provenance.update(seed=args.seed, git_revision=revision, source_digest=digest,
                      traced=trace, runs=len(records), measured_s=round(elapsed, 3))
    provenance.pop("community", None)

    print(f"perfbench {workload} seed {args.seed}: {len(records)} runs in {elapsed:.1f} s, "
          f"{'traced' if trace else 'untraced'}")
    rows = [(name, unit, metrics.get(name)) for name, unit in units.items()]
    if not trace:
        rows.append(("obs_accuracy (guard)", "fraction", guard_accuracy))
    for name, unit, value in rows:
        shown = "n/a" if value is None else str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:<28} {shown:>14} {unit}")
    for problem in problems:
        print(f"  problem: {problem}")
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name) if metrics.get(name) is not None else 0.0,
                           "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
