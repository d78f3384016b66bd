#!/usr/bin/env python3
"""Self-test of dimsum's wall-clock benchmark.

    python3 perfbench/selftest.py

Run from the repository root; builds the benchmark first. Checks that

1. the metrics the binary prints, with their units and in order, are the
   ones BENCHMARK.json declares, and its workloads are run.py's;
2. the binary's output checks pass real results and reject tampered ones,
   such as an open-loop result whose arrivals != dispatched + shed +
   aborted (perfbench --self-test);
3. run.py rejects malformed result lines.

Exits 0 when every check passes.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def main():
    run.build()
    failures = []

    listed = json.loads(subprocess.run(
        [str(run.EXE), "--list-metrics"], stdout=subprocess.PIPE, text=True,
        check=True).stdout)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key in ("end_to_end", "per_layer"):
        printed = [(m["name"], m["unit"]) for m in listed[key]]
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        if printed != declared:
            failures.append("%s: perfbench prints %s but BENCHMARK.json "
                            "declares %s" % (key, printed, declared))
    if tuple(w["name"] for w in spec["workloads"]) != run.WORKLOADS:
        failures.append("BENCHMARK.json workloads differ from run.py's")

    if subprocess.run([str(run.EXE), "--self-test"]).returncode != 0:
        failures.append("perfbench --self-test failed")

    declared = run.declared_metrics(0)
    good = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {name: {"value": 1.5, "unit": unit}
                        for name, unit in declared.items()}}
    if run.check_result(json.dumps(good), declared):
        failures.append("run.py rejects a well-formed result")
    first = next(iter(declared))
    tampered = []
    for mutate in (
            lambda r: r["metrics"].pop(first),
            lambda r: r["metrics"][first].update(unit="parsecs"),
            lambda r: r["metrics"][first].update(value="fast"),
            lambda r: r.update(attempted=0),
            lambda r: r.update(failed=-1),
            lambda r: r.update(correct="yes"),
            lambda r: r.update(extra=1)):
        result = copy.deepcopy(good)
        mutate(result)
        tampered.append(json.dumps(result))
    tampered.append("not json")
    for line in tampered:
        if not run.check_result(line, declared):
            failures.append("run.py accepts a malformed result: " + line)

    for failure in failures:
        print("FAILED  " + failure)
    print("selftest passed" if not failures else "selftest FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
