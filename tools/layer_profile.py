#!/usr/bin/env python3
"""Folds a gprof profile of one perfbench workload into dimsum's layers.

    python3 tools/layer_profile.py --workload W [--seed N] [--seconds S]

Configures perfbench/ as a Release build with -pg in the compile and
link flags, in its own tree (.bench_build/layer_profile/, apart from
perfbench/run.py's), builds it, runs the workload with --trace 0 in a
temporary directory and folds `gprof -b -p` self time; it also divides
each layer's self time by the queries the run attempted (warm-up and
timed).

Each function goes to the first layer in LAYERS whose pattern matches its
demangled name. The output is a markdown table (layer, self seconds,
share of all self time, self time per query), then the largest
functions no layer claims, so the map can be kept current. gprof samples
only the binary itself, not shared libraries such as libc, and -pg
inflates small functions: read the figures as a ranking, not as exact.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "layer_profile"
EXE = BUILD / "perfbench"
WORKLOADS = ("fig08_mix", "openloop_1k", "tail_querylog", "closed_faults")
UNMAPPED_SHOWN = 10

# (layer, pattern) in match order. Each pattern is searched in the
# demangled name with "(anonymous namespace)::" and the contents of every
# parameter list removed, so a function is placed by its own name and its
# template arguments (a std:: container by its element type), never by
# the types it takes. The first layer with a matching pattern wins.
LAYERS = [
    ("perfbench harness", r"\bdimsum::perfbench::|^main\("),
    # The event loop is inlined into ExecSession::Run.
    ("kernel loop and FIFO resources (`sim/`)",
     r"\bdimsum::ExecSession::Run\(|\bdimsum::sim::(Simulator|EventQueue|"
     r"Event|Fifo|Resource|FramePool|Process|Network)\b|"
     r"\bstd::\w+<dimsum::sim::(Event|Resource)\b"),
    ("disk controller cache and elevator (`sim/disk.cc`)",
     r"\bdimsum::sim::(Disk|ControllerCache)\b"),
    ("fault schedule (`sim/fault.cc`)", r"\bdimsum::sim::Fault"),
    ("actuals, spans, critical paths",
     r"\bdimsum::(sim::)?(OpProbe|QuerySpans|SpansByOp|"
     r"ExtractCriticalPath|CriticalPath\w*|Bottleneck\w*|Bucket\w*|"
     r"FinishReport|Span\w*|Trace\w*|Telemetry\w*)\b"),
    ("operators, channels and executor (`exec/`)",
     r"\bdimsum::sim::Channel\b|\bdimsum::(\w+Process|Emit\w+|"
     r"OutputAccumulator|Exec\w+|SiteRuntime|BufferPool|DiskSpace|Page|"
     r"AwaitSiteUp|FaultyTransfer)\b|\bstd::\w+<dimsum::Page\b"),
    ("cost cache and plan signatures (`opt/cost_cache.cc`)",
     r"\bdimsum::(CostCache|AppendNode|\w*Signature\w*)\b"),
    ("GHK92 coster (`cost/`)",
     r"\bdimsum::(Builder|SiteIndex|EstimateTime|Annotate|Compute\w*Stats|"
     r"ComputeHashJoinModel|CostModel|\w*Cost\w*|\w*Cardinality\w*)\b"),
    # VisitCandidates, ApplyMove, FindSlot, ParentPointsAtChild and
    # ChildPointsAtParent are gone from the source; their names stay so a
    # copy of this script profiles older commits.
    ("plan moves, legality and binding (`plan/`)",
     r"\bdimsum::(PlanNode|Plan|TryRandomMove|VisitCandidates|MatchesQuery|"
     r"ScannedRelations|InSpace|WellFormedNode|StructurallyValidNode|"
     r"PlanIsLegal|RepairWellFormedness|ApplyMove|FindSlot|RandomPlan|"
     r"CountMoveCandidates|VisitNodeCandidates|Walk(Subtree|BelowDisplay)|"
     r"Apply(Candidate|RandomMove|ToNode)|CandidateMoveType|MoveIsLegal|"
     r"IsRotation|UndoMove|AnnotationFitsType|WellFormedEdges|ScannedSet|"
     r"ValidNodeShape|IsAnnotationCycle|ParentPointsAtChild|"
     r"ChildPointsAtParent|"
     r"ContainsJoin|HasJoin|Is(StructurallyValid|WellFormed|Linear)|"
     r"InPolicySpace|Pick(Annotation|Replica)|RandomizeAnnotations|"
     r"Bind\w*|BoundServerSites|Make(Display|Join|Scan|Fragment)|ExpandScan|"
     r"Rewrite|NeedsShardExpansion)\b"),
    ("optimizer search (`opt/`)",
     r"\bdimsum::(TwoPhaseOptimizer|TwoStep\w*|Optimizer\w*|ProposeMove)\b"),
    ("workload drivers and replica balancer (`workload/`)",
     r"\bdimsum::(LoopRun|ReplicaBalancer|QueryLog\w*|\w*Workload\w*|"
     r"OpenLoop\w*|PolicyLabel|AddAdmission|MakeRelations|AllRelations|"
     r"Run(Closed|Open)Loop)\b"),
    ("catalog, query graph and RNG", r"\bdimsum::(Catalog|QueryGraph|Rng)\b"),
    ("std:: and libc, no layer",
     r"^(\S+ )?(std|__gnu_cxx)::|^operator (new|delete)|^_init$|^__"),
]

# One flat-profile row: % time, cumulative s, self s, then optionally
# calls, self ms/call, total ms/call, then the demangled name.
ROW = re.compile(r"^\s*([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+"
                 r"(?:(\d+)\s+([\d.]+)\s+([\d.]+)\s+)?(\S.*)$")


def parse_flat(text):
    """[(name, self seconds)] from `gprof -b -p` output."""
    rows = []
    for line in text.splitlines():
        match = ROW.match(line)
        if match:
            rows.append((match.group(7).strip(), float(match.group(3))))
    return rows


def match_key(name):
    """`name` without "(anonymous namespace)::" or parameter-list contents."""
    name = name.replace("(anonymous namespace)::", "")
    out, depth = [], 0
    for char in name:
        if char == ")":
            depth -= 1
        if depth <= 0:
            out.append(char)
        if char == "(":
            depth += 1
    return "".join(out) if depth == 0 else name


def layer_of(name):
    key = match_key(name)
    for layer, pattern in LAYERS:
        if re.search(pattern, key):
            return layer
    return None


def fold(rows):
    """({layer: self seconds} in LAYERS order, [(name, s)] unmapped)."""
    totals = {layer: 0.0 for layer, _ in LAYERS}
    unmapped = {}
    for name, seconds in rows:
        layer = layer_of(name)
        if layer is None:
            unmapped[name] = unmapped.get(name, 0.0) + seconds
        else:
            totals[layer] += seconds
    ranked = sorted(unmapped.items(), key=lambda item: (-item[1], item[0]))
    return totals, ranked


def render(rows, title, queries):
    """Markdown table of self time per layer, in total and per query."""
    totals, unmapped = fold(rows)
    grand = sum(seconds for _, seconds in rows)
    share = (lambda s: "%.1f%%" % (100.0 * s / grand)) if grand > 0 else (
        lambda s: "-")

    def row(label, seconds):
        return "| %s | %.2f | %s | %.1f |" % (label, seconds, share(seconds),
                                             1e6 * seconds / queries)

    out = ["### %s" % title, "",
           "| layer | self s | share | self µs per query |",
           "|---|---|---|---|"]
    for layer, seconds in totals.items():
        out.append(row(layer, seconds))
    out.append(row("unmapped", sum(seconds for _, seconds in unmapped)))
    out.append(row("total", grand))
    if unmapped:
        out += ["", "Largest unmapped functions:", ""]
        for name, seconds in unmapped[:UNMAPPED_SHOWN]:
            out.append("- %.2f s %s `%s`" % (seconds, share(seconds), name))
    return "\n".join(out)


def fail(message):
    sys.exit("layer_profile: " + message)


def build():
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                            str(BUILD), "-DCMAKE_BUILD_TYPE=Release",
                            "-DCMAKE_CXX_FLAGS=-pg",
                            "-DCMAKE_EXE_LINKER_FLAGS=-pg"] + generator,
                           stdout=sys.stderr, check=True, env=env)
        subprocess.run(["cmake", "--build", str(BUILD), "--target",
                        "perfbench", "--parallel", str(os.cpu_count() or 1)],
                       stdout=sys.stderr, check=True, env=env)
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error)


def profile(workload, seed, seconds):
    """(`gprof -b -p` text, queries attempted) of one untraced run.

    gmon.out lands in a temporary directory. The run is time-bounded, so
    a faster build runs more queries: compare per-query self time, not
    self seconds, across builds."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DIMSUM_")}
    with tempfile.TemporaryDirectory(prefix="layer_profile.") as work:
        run = subprocess.run([str(EXE), "--workload", workload, "--seed",
                              str(seed), "--seconds", str(seconds),
                              "--trace", "0"],
                             cwd=work, env=env, stdout=subprocess.PIPE,
                             text=True)
        if run.returncode != 0:
            sys.stderr.write(run.stdout)
            fail("perfbench exited with status %d" % run.returncode)
        gmon = Path(work) / "gmon.out"
        if not gmon.is_file():
            fail("the run wrote no gmon.out")
        flat = subprocess.run(["gprof", "-b", "-p", str(EXE), str(gmon)],
                              stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(run.stdout.splitlines()[-1])
        return flat.stdout, result["attempted"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=8)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if shutil.which("gprof") is None:
        fail("gprof is not installed")
    build()
    text, queries = profile(args.workload, args.seed, args.seconds)
    title = "%s seed %d, %d s, %d queries, gprof self time" % (
        args.workload, args.seed, args.seconds, queries)
    rows = parse_flat(text)
    if not rows:
        fail("no flat-profile rows to fold")
    print(render(rows, title, queries))


if __name__ == "__main__":
    main()
