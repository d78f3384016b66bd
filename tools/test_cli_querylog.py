#!/usr/bin/env python3
"""Integration test for dimsum_cli --query-log.

Covers the query-log contract:
  * --query-log=FILE writes exactly one dimsum.querylog.v1 JSONL record
    with plan signature, fan-out, resource totals, and a critical-path
    decomposition whose segments sum to the response time;
  * collection is non-perturbing: the run's stdout is bit-identical with
    and without the flag (modulo the one "query log:" status line), and
    byte-identical under --explain=json (the notice moves to stderr);
  * a bare --query-log (no path) is rejected with a diagnostic;
  * the record is invariant under DIMSUM_THREADS.

Usage: test_cli_querylog.py <path-to-dimsum_cli>
"""

import json
import os
import subprocess
import sys
import tempfile

CLI = os.path.abspath(sys.argv[1])
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


def load_record(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line]
    if len(lines) != 1:
        raise AssertionError(f"{path}: expected 1 record, got {len(lines)}")
    return json.loads(lines[0])


def querylog_suffix_only(extra):
    """True if `extra` is nothing but the query-log status line."""
    lines = [line for line in extra.splitlines() if line]
    return len(lines) == 1 and lines[0].startswith("query log:")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "ql.jsonl")

        # One well-formed record.
        proc = run(BASE + [f"--query-log={out}"])
        expect("query log:" in proc.stdout, "flag: status line on stdout")
        record = load_record(out)
        expect(record["schema"] == "dimsum.querylog.v1", "json: schema tag")
        expect(record["outcome"] == "ok", "json: outcome ok")
        expect(len(record["plan_signature"]) == 16,
               "json: 16-hex-digit plan signature")
        expect(record["fanout"] and
               all(isinstance(s, int) for s in record["fanout"]),
               "json: server fan-out present")
        expect(record["response_ms"] > 0, "json: positive response")
        path = record["critical_path"]
        seg_sum = sum(s["ms"] for s in path["segments"])
        expect(abs(seg_sum - record["response_ms"]) < 1e-6,
               "json: segments sum to response within 1e-6")
        expect(abs(path["total_ms"] - record["response_ms"]) < 1e-6,
               "json: path total matches response")
        labels = {s["label"] for s in path["segments"]}
        expect(any(l.startswith("disk.") for l in labels)
               and any(l.startswith("cpu.") for l in labels),
               "json: cpu and disk segments named")
        expect(all(s["ms"] > 0 for s in path["segments"]),
               "json: no zero-length segments")
        expect(record["resources"]["disk_ms"] > 0,
               "json: resource totals populated")

        # Bare --query-log (no path) is rejected, as is =.
        for args in (["--query-log"], ["--query-log="]):
            proc = run(BASE + args, check=False)
            expect(proc.returncode != 0,
                   f"reject: {args[0]} exits nonzero")
            expect("query-log" in proc.stderr,
                   f"reject: diagnostic names flag for {args[0]}")

        # Non-perturbation: stdout identical with and without the log,
        # modulo the appended status line.
        plain = run(BASE)
        logged = run(BASE + [f"--query-log={out}"])
        expect(logged.stdout.startswith(plain.stdout.rstrip("\n"))
               and querylog_suffix_only(
                   logged.stdout[len(plain.stdout.rstrip("\n")):]),
               "non-perturbing: stdout bit-identical modulo status line")

        # Stdout purity under --explain=json: stdout carries exactly the
        # explain document either way (the query-log notice is on stderr).
        plain_json = run(BASE + ["--explain=json"])
        logged_json = run(BASE + ["--explain=json", f"--query-log={out}"])
        expect(plain_json.stdout == logged_json.stdout,
               "explain=json: stdout byte-identical with query log on")
        doc = json.loads(logged_json.stdout)
        expect(doc["schema"] == "dimsum.explain.v1",
               "explain=json: stdout is the explain document")

        # Determinism: record invariant under threads.
        one = os.path.join(tmp, "one.jsonl")
        many = os.path.join(tmp, "many.jsonl")
        run(BASE + [f"--query-log={one}"], env={"DIMSUM_THREADS": "1"})
        run(BASE + [f"--query-log={many}"], env={"DIMSUM_THREADS": "4"})
        with open(one) as f1, open(many) as f2:
            a, b = f1.read(), f2.read()
        expect(a == b, "determinism: invariant under threads")

    if failures:
        print(f"\n{len(failures)} check(s) failed: {failures}")
        return 1
    print("\nall query-log CLI checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
