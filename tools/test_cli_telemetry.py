#!/usr/bin/env python3
"""Integration test for dimsum_cli --telemetry.

Covers the telemetry contract:
  * --telemetry[=MS] samples utilization on the virtual clock and writes a
    dimsum.telemetry.v1 document to --telemetry-out (default telemetry.json);
  * sampling is non-perturbing: the run's stdout is bit-identical with and
    without telemetry (modulo the one "telemetry:" status line);
  * malformed --telemetry= values are rejected;
  * the telemetry JSON is invariant under DIMSUM_THREADS;
  * --telemetry composes with --trace (counter tracks ride along).

Usage: test_cli_telemetry.py <path-to-dimsum_cli>
"""

import json
import os
import subprocess
import sys
import tempfile

CLI = sys.argv[1]
BASE = ["--policy=hy", "--relations=4", "--servers=2", "--cached=0.25"]
failures = []


def run(args, env=None, check=True, cwd=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run(
        [CLI] + args, capture_output=True, text=True, env=full_env, cwd=cwd
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


def telemetry_suffix_only(extra):
    """True if `extra` is nothing but the telemetry status line (the CLI
    separates it from the report with one blank line)."""
    lines = [line for line in extra.splitlines() if line]
    return len(lines) == 1 and lines[0].startswith("telemetry:")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "telemetry.json")

        # Explicit interval, explicit output file.
        proc = run(BASE + ["--telemetry=5", f"--telemetry-out={out}"])
        expect("telemetry:" in proc.stdout, "flag: status line on stdout")
        with open(out) as f:
            doc = json.load(f)
        expect(doc["schema"] == "dimsum.telemetry.v1", "json: schema tag")
        expect(doc["interval_ms"] == 5.0, "json: interval honored")
        expect(doc["num_samples"] == len(doc["times_ms"]),
               "json: sample count matches time axis")
        expect(len(doc["series"]) > 0, "json: series exported")
        kinds = {s["kind"] for s in doc["series"]}
        expect(kinds <= {"rate", "gauge"}, "json: known series kinds")
        resources = {s["resource"] for s in doc["series"]}
        expect("cpu" in resources
               and any(r.startswith("disk") for r in resources)
               and "link" in resources,
               "json: cpu, disk, and link resources sampled")
        expect(all(len(s["values"]) == doc["num_samples"]
                   for s in doc["series"]),
               "json: every series spans the full time axis")

        # Valueless --telemetry uses the default 10 ms interval.
        proc = run(BASE + ["--telemetry", f"--telemetry-out={out}"])
        with open(out) as f:
            expect(json.load(f)["interval_ms"] == 10.0,
                   "flag: bare --telemetry defaults to 10 ms")

        # --telemetry=off / =0 disable sampling: no file is written.
        for value in ("off", "0"):
            off_out = os.path.join(tmp, f"off_{value}.json")
            run(BASE + [f"--telemetry={value}", f"--telemetry-out={off_out}"])
            expect(not os.path.exists(off_out),
                   f"flag: --telemetry={value} writes no file")

        # Malformed intervals are rejected with a diagnostic, not ignored.
        for value in ("bogus", "-5", "1x"):
            proc = run(BASE + [f"--telemetry={value}"], check=False)
            expect(proc.returncode != 0,
                   f"reject: --telemetry={value} exits nonzero")
            expect("telemetry" in proc.stderr.lower(),
                   f"reject: diagnostic names flag for {value!r}")

        # Non-perturbation: stdout identical with and without telemetry,
        # modulo the appended telemetry status line.
        plain = run(BASE)
        sampled = run(BASE + ["--telemetry=2", f"--telemetry-out={out}"])
        expect(sampled.stdout.startswith(plain.stdout)
               and telemetry_suffix_only(sampled.stdout[len(plain.stdout):]),
               "non-perturbing: stdout bit-identical modulo status line")

        # Determinism: telemetry JSON invariant under the thread count.
        one_out = os.path.join(tmp, "one.json")
        many_out = os.path.join(tmp, "many.json")
        run(BASE + ["--telemetry=5", f"--telemetry-out={one_out}"],
            env={"DIMSUM_THREADS": "1"})
        run(BASE + ["--telemetry=5", f"--telemetry-out={many_out}"],
            env={"DIMSUM_THREADS": "4"})
        with open(one_out) as f1, open(many_out) as f2:
            expect(f1.read() == f2.read(),
                   "determinism: invariant under threads")

        # Composition with --trace: counter tracks land in a valid trace.
        trace = os.path.join(tmp, "trace.json")
        run(BASE + ["--telemetry=5", f"--telemetry-out={out}",
                    f"--trace={trace}"])
        with open(trace) as f:
            events = json.load(f)["traceEvents"]
        counters = [e for e in events
                    if e.get("ph") == "C"
                    and "telemetry" in e.get("name", "")]
        expect(len(counters) > 0, "compose: counter tracks in the trace")

    if failures:
        print(f"\n{len(failures)} check(s) failed: {failures}")
        return 1
    print("\nall telemetry CLI checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
