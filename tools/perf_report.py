#!/usr/bin/env python3
"""Longitudinal perf observatory: compare BENCH_*.json runs to committed
baselines and emit a trajectory report.

Usage: perf_report.py [--baseline-dir DIR] [--out FILE.json] FILE [FILE...]

Every input is a {"meta": {...}, "records": [...]} document (the shared
header bench/harness.h stamps -- see tools/check_bench.py). For each file
with a committed baseline of the same basename, records are joined on
their identity keys and each gated metric's relative change is classified:

  - deterministic metrics (virtual-time figures: throughput_qps,
    mean_response_ms, sim_response_ms; the kernel's event counts) gate
    hard: |change| > 10% warns, |change| > 25% fails the run (exit 1).
  - wall-clock metrics (events_per_sec, plans_per_sec, wall_ms) only ever
    warn: CI machines are noisy, so they feed the trajectory report but
    never fail it.

A baseline whose config_hash differs from the run's (e.g. smoke vs full
sweep) is skipped with a warning -- the records are not comparable.
Files without a baseline are reported as new. With --out, the full
comparison (every metric of every record, plus both meta headers) is
written as a JSON trajectory artifact for CI upload.
"""

import argparse
import json
import os
import sys

WARN_REL = 0.10
FAIL_REL = 0.25

# Per-file gating policy: record identity keys, metrics gated hard
# (deterministic in virtual time), and metrics reported warn-only
# (wall-clock). Files absent here are reported but not gated.
GATES = {
    "BENCH_kernel.json": {
        "key": ("scenario",),
        "deterministic": ["events"],
        "wallclock": ["events_per_sec"],
    },
    "BENCH_openloop.json": {
        "key": ("policy", "rate_qps"),
        "deterministic": ["throughput_qps", "mean_response_ms"],
        "wallclock": [],
    },
    "BENCH_scaleout.json": {
        "key": ("servers", "replicas", "rate_qps"),
        "deterministic": ["throughput_qps", "mean_response_ms"],
        "wallclock": [],
    },
    "BENCH_sharding.json": {
        "key": ("mode", "servers", "rate_qps"),
        "deterministic": ["throughput_qps", "mean_response_ms"],
        "wallclock": [],
    },
    "BENCH_taillat.json": {
        "key": ("policy", "rate_qps"),
        "deterministic": ["throughput_qps", "mean_response_ms"],
        "wallclock": [],
    },
    "BENCH_multiclient.json": {
        "key": ("policy", "clients"),
        "deterministic": ["throughput_qps", "mean_response_ms"],
        "wallclock": [],
    },
    "BENCH_faults.json": {
        "key": ("policy", "mtbf_ms"),
        "deterministic": ["throughput_qps", "mean_response_ms"],
        "wallclock": [],
    },
    "BENCH_calibration.json": {
        "key": ("policy", "relations", "cached"),
        "deterministic": ["sim_response_ms"],
        "wallclock": [],
    },
    "BENCH_optimizer.json": {
        "key": ("name", "threads"),
        "deterministic": [],
        "wallclock": ["plans_per_sec", "wall_ms"],
    },
    "BENCH_observability.json": {
        "key": ("name", "threads"),
        "deterministic": [],
        "wallclock": ["wall_ms"],
    },
}


def load(path):
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict) or "meta" not in data or \
            "records" not in data:
        raise ValueError(f'{path}: not a {{"meta", "records"}} document')
    return data


def rel_change(base, now):
    if base == 0:
        return 0.0 if now == 0 else float("inf")
    return (now - base) / abs(base)


def record_key(record, keys):
    return tuple(record.get(k) for k in keys)


def compare_file(path, baseline_path):
    """Returns (entry, num_warn, num_fail) for one BENCH file."""
    current = load(path)
    base = os.path.basename(path)
    entry = {
        "file": base,
        "meta": current["meta"],
        "status": "no-baseline",
        "comparisons": [],
    }
    if baseline_path is None or not os.path.exists(baseline_path):
        return entry, 0, 0
    baseline = load(baseline_path)
    entry["baseline_meta"] = baseline["meta"]

    gate = GATES.get(base)
    if gate is None:
        entry["status"] = "ungated"
        return entry, 0, 0
    if current["meta"]["config_hash"] != baseline["meta"]["config_hash"]:
        entry["status"] = "config-mismatch"
        print(f"perf_report: {base}: config_hash "
              f"{current['meta']['config_hash']} != baseline "
              f"{baseline['meta']['config_hash']}; skipping comparison")
        return entry, 1, 0

    by_key = {record_key(r, gate["key"]): r for r in baseline["records"]}
    warns = fails = 0
    for record in current["records"]:
        key = record_key(record, gate["key"])
        base_record = by_key.get(key)
        if base_record is None:
            entry["comparisons"].append(
                {"key": list(key), "status": "new-record"})
            continue
        for metric, hard in (
                [(m, True) for m in gate["deterministic"]] +
                [(m, False) for m in gate["wallclock"]]):
            if metric not in record or metric not in base_record:
                continue
            change = rel_change(base_record[metric], record[metric])
            status = "ok"
            if abs(change) > FAIL_REL:
                status = "fail" if hard else "warn"
            elif abs(change) > WARN_REL:
                status = "warn"
            if status == "warn":
                warns += 1
            elif status == "fail":
                fails += 1
            entry["comparisons"].append({
                "key": list(key),
                "metric": metric,
                "gated": hard,
                "baseline": base_record[metric],
                "current": record[metric],
                "rel_change": change,
                "status": status,
            })
            if status != "ok":
                kind = "GATED" if hard else "wall-clock"
                print(f"perf_report: {base}: {key} {metric} "
                      f"({kind}): {base_record[metric]:.6g} -> "
                      f"{record[metric]:.6g} ({change:+.1%}) [{status}]")
    entry["status"] = "fail" if fails else ("warn" if warns else "ok")
    return entry, warns, fails


def main(argv):
    parser = argparse.ArgumentParser(
        description="Compare BENCH_*.json runs against committed baselines")
    parser.add_argument("--baseline-dir", default="bench/baselines",
                        help="directory of committed baseline documents")
    parser.add_argument("--out", default=None,
                        help="write the full trajectory JSON here")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args(argv[1:])

    report = {"schema": "dimsum.perf_report.v1", "entries": []}
    total_warns = total_fails = 0
    for path in args.files:
        baseline = os.path.join(args.baseline_dir, os.path.basename(path))
        try:
            entry, warns, fails = compare_file(path, baseline)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            print(f"perf_report: {path}: {e}", file=sys.stderr)
            return 2
        report["entries"].append(entry)
        total_warns += warns
        total_fails += fails

    for entry in report["entries"]:
        gated = [c for c in entry["comparisons"] if "metric" in c]
        print(f"perf_report: {entry['file']}: {entry['status']} "
              f"({len(gated)} metric comparisons)")
    print(f"perf_report: {total_fails} fail(s), {total_warns} warn(s) "
          f"across {len(report['entries'])} file(s)")

    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
        print(f"perf_report: wrote {args.out}")
    return 1 if total_fails else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
