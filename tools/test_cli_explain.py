#!/usr/bin/env python3
"""Integration test for dimsum_cli --explain.

Covers the contract the ISSUE pins down:
  * --explain annotates the plan tree with est/sim attribution (text mode);
  * --explain=json emits exactly one dimsum.explain.v1 document on stdout
    (human output moves to stderr);
  * malformed --explain= values are rejected;
  * --explain composes with --trace/--metrics/--faults;
  * the explain JSON is invariant under DIMSUM_THREADS (the simulation is
    deterministic; threads only parallelize optimizer starts).

Usage: test_cli_explain.py <path-to-dimsum_cli>
"""

import json
import os
import subprocess
import sys
import tempfile

CLI = sys.argv[1]
BASE = ["--policy=hy", "--relations=4", "--servers=2", "--cached=0.25"]
failures = []


def run(args, env=None, check=True):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run(
        [CLI] + args, capture_output=True, text=True, env=full_env
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"{args} exited {proc.returncode}\nstderr: {proc.stderr}"
        )
    return proc


def expect(cond, label):
    if cond:
        print(f"PASS {label}")
    else:
        failures.append(label)
        print(f"FAIL {label}")


def main():
    # Text mode: annotated tree + roll-ups on stdout.
    proc = run(BASE + ["--explain"])
    expect("EXPLAIN ANALYZE" in proc.stdout, "text: header present")
    expect("est " in proc.stdout and "sim " in proc.stdout,
           "text: est/sim annotation lines")
    expect("worst" in proc.stdout, "text: worst-operator rollup")

    # JSON mode: stdout is exactly one parseable document.
    proc = run(BASE + ["--explain=json"])
    doc = json.loads(proc.stdout)
    expect(doc["schema"] == "dimsum.explain.v1", "json: schema tag")
    # 4-way left-deep chain: display + 3 joins + 4 scans = 8 operators.
    expect(len(doc["operators"]) == 8, "json: one record per plan node")
    expect(all(-1.0 <= op["err"]["total"] <= 1.0 for op in doc["operators"]),
           "json: bounded per-op errors")
    expect("measured response" in proc.stderr,
           "json: human output moved to stderr")

    # Malformed values are rejected with a diagnostic, not ignored.
    proc = run(BASE + ["--explain=bogus"], check=False)
    expect(proc.returncode != 0, "reject: --explain=bogus exits nonzero")
    expect("explain" in proc.stderr.lower(), "reject: diagnostic names flag")

    # Composition with the other observability exports and fault injection.
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "trace.json")
        metrics = os.path.join(tmp, "metrics.json")
        proc = run(
            BASE
            + [
                "--explain=json",
                f"--trace={trace}",
                f"--metrics={metrics}",
                "--faults=crash:site=1,at=40,for=20",
            ]
        )
        doc = json.loads(proc.stdout)
        expect(doc["schema"] == "dimsum.explain.v1",
               "compose: explain json with trace/metrics/faults")
        with open(trace) as f:
            json.load(f)
        with open(metrics) as f:
            json.load(f)
        expect(True, "compose: trace and metrics files still valid JSON")

    # Determinism: explain output must not depend on the thread count.
    one = run(BASE + ["--explain=json"], env={"DIMSUM_THREADS": "1"})
    many = run(BASE + ["--explain=json"], env={"DIMSUM_THREADS": "4"})
    expect(one.stdout == many.stdout, "determinism: invariant under threads")

    if failures:
        print(f"\n{len(failures)} check(s) failed: {failures}")
        return 1
    print("\nall explain CLI checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
