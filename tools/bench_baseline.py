#!/usr/bin/env python3
"""Refresh the committed perf baselines under bench/baselines/.

Usage: bench_baseline.py [--baseline-dir DIR] FILE [FILE...]

Validates each BENCH_*.json document (meta header present, records
non-empty -- the same bar as tools/check_bench.py) and copies it into the
baseline directory under its basename. Run this after an intentional
performance change, from the same smoke configuration CI uses:

    cmake --build build -j
    ./build/bench/micro_simkernel --smoke --reps=1 --out=BENCH_kernel.json
    ./build/bench/ext_openloop --smoke
    ...
    python3 tools/bench_baseline.py BENCH_*.json

then commit the refreshed bench/baselines/ alongside the change that
moved the numbers, so tools/perf_report.py gates future runs against the
new expectation.
"""

import json
import os
import shutil
import sys

META_KEYS = {
    "schema", "schema_version", "git_rev", "build_type", "config_hash",
    "threads",
}


def main(argv):
    args = argv[1:]
    baseline_dir = "bench/baselines"
    if args and args[0] == "--baseline-dir":
        if len(args) < 2:
            print("bench_baseline: --baseline-dir needs a value",
                  file=sys.stderr)
            return 2
        baseline_dir = args[1]
        args = args[2:]
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    os.makedirs(baseline_dir, exist_ok=True)
    for path in args:
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_baseline: {path}: {e}", file=sys.stderr)
            return 1
        meta = data.get("meta") if isinstance(data, dict) else None
        if not isinstance(meta, dict) or META_KEYS - meta.keys():
            print(f"bench_baseline: {path}: missing or incomplete meta "
                  f"header; refusing to commit as a baseline",
                  file=sys.stderr)
            return 1
        if not data.get("records"):
            print(f"bench_baseline: {path}: no records", file=sys.stderr)
            return 1
        dest = os.path.join(baseline_dir, os.path.basename(path))
        shutil.copyfile(path, dest)
        print(f"bench_baseline: {path} -> {dest} "
              f"(config {meta['config_hash']}, rev {meta['git_rev']})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
