#!/usr/bin/env python3
"""Integration test for dimsum_cli's integer flag parsing.

Covers the contract of --relations, --servers, --replicas, --shards,
--disks and --threads:
  * a whole decimal integer in the flag's range is accepted;
  * empty, non-numeric, trailing-garbage, signed-garbage and
    out-of-range values (beyond int, below 1) exit 1 with a diagnostic
    naming the flag, and never fall back to a default;
  * --relations is capped at 64, the width of the optimizer's relation
    sets.
Also checks that the CLI reads no environment variable in place of
--explain, --faults, --trace, --query-log, --telemetry or
--telemetry-out: setting DIMSUM_EXPLAIN, DIMSUM_FAULTS, DIMSUM_TRACE,
DIMSUM_QUERY_LOG, DIMSUM_TELEMETRY and DIMSUM_TELEMETRY_OUT changes
neither stdout nor the files written.

Usage: test_cli_flags.py <path-to-dimsum_cli>
"""

import os
import subprocess
import sys
import tempfile

CLI = os.path.abspath(sys.argv[1])
FLAGS = ("relations", "servers", "replicas", "shards", "disks", "threads")
BAD_VALUES = ("", "abc", "4x", "3.5", " 2", "+2", "0", "-1",
              "99999999999999999999")
failures = []


def run(args, extra_env=None, cwd=None):
    env = dict(os.environ)
    for name in ("DIMSUM_THREADS", "DIMSUM_METRICS"):
        env.pop(name, None)
    env.update(extra_env or {})
    return subprocess.run([CLI] + args, capture_output=True, text=True,
                          env=env, cwd=cwd)


def expect(cond, label):
    if cond:
        print(f"PASS {label}")
    else:
        failures.append(label)
        print(f"FAIL {label}")


for flag in FLAGS:
    for value in BAD_VALUES:
        proc = run([f"--{flag}={value}"])
        expect(proc.returncode == 1 and f"invalid --{flag}" in proc.stderr,
               f"--{flag}={value!r} is rejected")

# Valid values still run: a 2-way join over 2 servers, 2 disks, 2 threads,
# with 2 copies; and 2 shards.
ok = run(["--relations=2", "--servers=2", "--replicas=2", "--disks=2",
          "--threads=2"])
expect(ok.returncode == 0, "in-range values run")
ok = run(["--relations=2", "--servers=2", "--shards=2"])
expect(ok.returncode == 0, "--shards in range runs")

# The relation sets hold 64 relations; 65 is out of range.
wide = run(["--relations=65", "--servers=1"])
expect(wide.returncode == 1 and "invalid --relations" in wide.stderr
       and "[1, 64]" in wide.stderr, "--relations=65 is rejected")

# Environment variables that would each change the run if the CLI read
# them: JSON explain output, a crash, and output files.
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "out")
    os.mkdir(out)
    args = ["--relations=3", "--servers=2"]
    plain = run(args, cwd=out)
    ignored = run(args, cwd=out, extra_env={
        "DIMSUM_EXPLAIN": "json",
        "DIMSUM_FAULTS": "crash:site=1,at=0,for=5000",
        "DIMSUM_TRACE": os.path.join(tmp, "trace.json"),
        "DIMSUM_QUERY_LOG": os.path.join(tmp, "query.jsonl"),
        "DIMSUM_TELEMETRY": "5",
        "DIMSUM_TELEMETRY_OUT": os.path.join(tmp, "telemetry.json"),
    })
    expect(plain.returncode == 0 and ignored.returncode == 0,
           "runs with and without the removed variables succeed")
    expect(ignored.stdout == plain.stdout,
           "removed variables leave stdout byte-identical")
    expect(os.listdir(tmp) == ["out"] and os.listdir(out) == [],
           "removed variables write no file")

if failures:
    print(f"{len(failures)} check(s) failed: {failures}")
    sys.exit(1)
print("all CLI flag checks passed")
