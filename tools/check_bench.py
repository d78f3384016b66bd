#!/usr/bin/env python3
"""Bench-regression guard: validates the structure of BENCH_*.json files.

Usage: check_bench.py FILE [FILE...]

Every BENCH_*.json is a document of the form

    {"meta": {...}, "records": [...]}

where meta is the common provenance header bench/harness.h stamps (schema,
schema_version, git_rev, build_type, config_hash, threads) and records is
the harness-specific series. This script asserts each file is well-formed
JSON, carries a complete meta header, and -- for known benchmark outputs
-- that every record has the expected keys (so a refactor that silently
drops a series or renames a field fails CI instead of shipping an empty
artifact). Unknown BENCH files only need a valid meta and non-empty
records. Exits non-zero with a message naming the first offending file.
"""

import json
import os
import sys

META_KEYS = {
    "schema", "schema_version", "git_rev", "build_type", "config_hash",
    "threads",
}

# Required record keys and expected meta schema per known benchmark file
# (by basename). Records may carry more keys; these must all be present.
SCHEMAS = {
    "BENCH_faults.json": ("dimsum.bench.faults.v1", {
        "policy", "mtbf_ms", "mttr_ms", "throughput_qps",
        "mean_response_ms", "retries", "reopts", "abort_rate",
    }),
    "BENCH_multiclient.json": ("dimsum.bench.multiclient.v1", {
        "policy", "clients", "throughput_qps", "mean_response_ms",
        "response_ci90_ms",
    }),
    "BENCH_optimizer.json": ("dimsum.bench.optimizer.v1", {
        "name", "threads", "wall_ms", "plans_per_sec",
    }),
    "BENCH_observability.json": ("dimsum.bench.observability.v1", {
        "name", "threads", "wall_ms", "plans_per_sec",
    }),
    "BENCH_calibration.json": ("dimsum.bench.calibration.v1", {
        "policy", "relations", "cached", "est_response_ms",
        "sim_response_ms", "response_rel_err", "est_total_ms",
        "sim_total_ms", "total_rel_err", "mean_op_rel_err",
        "max_op_rel_err",
    }),
    "BENCH_kernel.json": ("dimsum.bench.kernel.v2", {
        "scenario", "events", "wall_ms", "events_per_sec",
        "peak_queue_depth", "frame_pool_hit_rate",
    }),
    "BENCH_openloop.json": ("dimsum.bench.openloop.v1", {
        "policy", "arrival", "rate_qps", "clients", "offered_qps",
        "throughput_qps", "mean_response_ms", "response_ci90_ms",
        "mean_queue_wait_ms", "arrivals", "dispatched", "shed", "aborted",
        "peak_in_flight", "peak_pending", "bottleneck",
    }),
    "BENCH_scaleout.json": ("dimsum.bench.scaleout.v1", {
        "servers", "replicas", "policy", "arrival", "rate_qps", "clients",
        "offered_qps", "throughput_qps", "mean_response_ms",
        "response_ci90_ms", "mean_queue_wait_ms", "arrivals", "dispatched",
        "shed", "aborted", "peak_in_flight", "peak_pending",
        "server_disk_queueing_share", "bottleneck",
    }),
    "BENCH_sharding.json": ("dimsum.bench.sharding.v1", {
        "mode", "servers", "shards", "replicas", "policy", "arrival",
        "rate_qps", "clients", "offered_qps", "throughput_qps",
        "mean_response_ms", "response_ci90_ms", "mean_queue_wait_ms",
        "arrivals", "dispatched", "shed", "aborted", "peak_in_flight",
        "peak_pending", "server_disk_queueing_share", "bottleneck",
    }),
    "BENCH_taillat.json": ("dimsum.bench.taillat.v1", {
        "policy", "rate_qps", "clients", "shards", "replicas", "arrival",
        "offered_qps", "throughput_qps", "mean_response_ms", "completed",
        "shed", "aborted", "p50_band_ms", "p99_band_ms", "gap_ms",
        "explained_ms", "explained_share", "top_label", "top_delta_ms",
    }),
}

METRICS_KEYS = {"counters", "gauges", "histograms"}


def fail(path, message):
    print(f"check_bench: {path}: {message}", file=sys.stderr)
    sys.exit(1)


def check_meta(path, data, expected_schema):
    if not isinstance(data, dict) or "meta" not in data:
        fail(path, 'expected a {"meta": {...}, "records": [...]} document')
    meta = data["meta"]
    if not isinstance(meta, dict):
        fail(path, "meta is not an object")
    missing = META_KEYS - meta.keys()
    if missing:
        fail(path, f"meta is missing keys: {sorted(missing)}")
    if expected_schema is not None and meta["schema"] != expected_schema:
        fail(path, f"meta schema is {meta['schema']!r}, "
                   f"expected {expected_schema!r}")
    return meta


def check_records(path, data, required):
    records = data.get("records")
    if not isinstance(records, list) or not records:
        fail(path, "expected a non-empty records array")
    if required is None:
        return
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            fail(path, f"record {i} is not an object")
        missing = required - record.keys()
        if missing:
            fail(path, f"record {i} is missing keys: {sorted(missing)}")


def check_metrics(path, data):
    if not isinstance(data, dict):
        fail(path, "metrics snapshot must be a JSON object")
    missing = METRICS_KEYS - data.keys()
    if missing:
        fail(path, f"metrics snapshot is missing sections: {sorted(missing)}")


def check_file(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        fail(path, f"cannot read: {e}")
    except json.JSONDecodeError as e:
        fail(path, f"malformed JSON: {e}")
    base = os.path.basename(path)
    if base.endswith(".metrics.json"):
        check_metrics(path, data)
    else:
        schema, required = SCHEMAS.get(base, (None, None))
        check_meta(path, data, schema)
        check_records(path, data, required)
    print(f"check_bench: {path}: ok")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in argv[1:]:
        check_file(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
