#!/usr/bin/env python3
"""Builds and runs dimsum's wall-clock benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the benchmark binary (CMake, Release) under
.bench_build/perfbench; later runs rebuild only what changed. The binary's
output is passed through, and its last line is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A traced run also writes
its spans to .bench_build/perfbench/spans/.

Exits non-zero, without a result, when the sources are missing, the build
fails, or the binary fails or prints a malformed result.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
EXE = BUILD / "perfbench"
WORKLOADS = ("fig08_mix", "openloop_1k", "tail_querylog", "closed_faults")
# A run takes --seconds plus set-up, a warm-up cycle and, when traced,
# the replays; it must end within 180 s.
RUN_TIMEOUT_S = 170


def fail(message):
    sys.exit("perfbench: " + message)


def build():
    """Configures (once per checkout) and builds; tool output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no dimsum sources under %s" % (ROOT / "src"))
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file():
        home = "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE
        if home not in cache.read_text():
            shutil.rmtree(BUILD)  # configured for another checkout
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        if not cache.is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"] + generator,
                           stdout=sys.stderr, check=True, env=env)
        subprocess.run(["cmake", "--build", str(BUILD), "--target",
                        "perfbench", "--parallel", str(os.cpu_count() or 1)],
                       stdout=sys.stderr, check=True, env=env)
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error)


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for the mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def check_result(line, declared):
    """Problems with a result line against the declared {name: unit}."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["the last line is not JSON"]
    if not isinstance(result, dict):
        return ["the result is not an object"]
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != keys:
        return ["result keys %s, expected %s" % (sorted(result), sorted(keys))]
    problems = []
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        value = result[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            problems.append("%s is not a whole number" % key)
    if result["attempted"] == 0:
        problems.append("nothing was attempted")
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(declared):
        return problems + ["metric names differ from BENCHMARK.json"]
    for name, metric in metrics.items():
        if not isinstance(metric, dict) or set(metric) != {"value", "unit"}:
            problems.append("%s is not {value, unit}" % name)
            continue
        value = metric["value"]
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            problems.append("%s has no finite value" % name)
        if metric["unit"] != declared[name]:
            problems.append("%s has unit %s, declared %s"
                            % (name, metric["unit"], declared[name]))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build()
    declared = declared_metrics(args.trace)
    command = [str(EXE), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    if args.trace:
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        command += ["--spans",
                    str(spans / ("%s-seed%d.jsonl" % (args.workload,
                                                       args.seed)))]
    # The library reads DIMSUM_* settings (pool size, event queue, metrics
    # export); the benchmark always runs with its own.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DIMSUM_")}
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail("the run took longer than %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail("perfbench exited with status %d" % run.returncode)
    problems = check_result(lines[-1], declared)
    if problems:
        sys.stderr.write(run.stdout)
        fail("malformed result: " + "; ".join(problems))
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
