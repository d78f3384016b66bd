#!/usr/bin/env bash
# CI smoke harness: every benchmark/validation step the primary CI cell
# runs, as named suites runnable locally.
#
#   tools/ci_smoke.sh [--build-dir DIR] SUITE [SUITE...]
#   tools/ci_smoke.sh --list
#
# Suites (in `all` order):
#   threads        optimizer thread-sweep microbenchmark
#   observability  CLI trace/metrics/telemetry exports + validation
#   explain        EXPLAIN ANALYZE output + cost-model calibration gate
#   multiclient    closed-loop multi-client driver smoke
#   faults         fault-injection driver smoke
#   kernel         DES kernel events/sec microbenchmark
#   openloop       open-loop arrival driver smoke
#   scaleout       replica scale-out sweep + monotonicity assert
#   sharding       sharding-vs-replication acceptance + unsharded CLI diff
#   taillat        tail-latency observatory sweep + attribution gate
#   perfbench      wall-clock benchmark self-test + pinned seed-1 digests
#   check          validate every BENCH_*.json artifact structure
#   perf           gate BENCH_*.json against committed baselines
#
# Each suite leaves its BENCH_*.json (and .metrics.json sibling where the
# harness exports one) in the build directory, so `check` and `perf` must
# run after the suites that produce their inputs -- `all` orders this
# correctly. Markdown summaries append to $GITHUB_STEP_SUMMARY when CI
# provides it and fall through to stdout locally.

set -euo pipefail

BUILD_DIR=build
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"

summary() {
  if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
    tee -a "$GITHUB_STEP_SUMMARY"
  else
    cat
  fi
}

suite_threads() {
  # Plain-double min time: accepted by every libbenchmark (the "0.05s"
  # suffix form only parses on newer releases).
  ./bench/micro_optimizer --benchmark_filter='BM_Optimize10WayThreads' \
    --benchmark_min_time=0.05
  cat BENCH_optimizer.json
}

suite_observability() {
  ./tools/dimsum_cli --policy=hy --metric=time --relations=6 \
    --servers=3 --cached=0.25 --trace=trace.json --metrics=metrics.json \
    --telemetry=5 --telemetry-out=telemetry.json
  ./bench/micro_observability --benchmark_filter='BM_ExecutePlain' \
    --benchmark_min_time=0.05
  python3 -c "import json; json.load(open('trace.json')); json.load(open('metrics.json'))"
  python3 - <<'EOF'
import json
doc = json.load(open('telemetry.json'))
assert doc['schema'] == 'dimsum.telemetry.v1', doc['schema']
assert doc['series'], 'telemetry exported no series'
EOF
  # A malformed interval must be rejected, not silently ignored.
  if ./tools/dimsum_cli --policy=hy --relations=6 --servers=3 \
      --telemetry=bogus 2>/dev/null; then
    echo "expected --telemetry=bogus to be rejected" >&2
    return 1
  fi
}

suite_explain() {
  ./tools/dimsum_cli --policy=hy --relations=10 --servers=5 \
    --cached=0.3 --explain
  ./tools/dimsum_cli --policy=hy --relations=10 --servers=5 \
    --cached=0.3 --explain=json > explain.json
  python3 - <<'EOF'
import json
doc = json.load(open('explain.json'))
assert doc['schema'] == 'dimsum.explain.v1', doc['schema']
assert len(doc['operators']) == 20, len(doc['operators'])
EOF
  ./bench/ext_calibration --smoke
  python3 - <<'EOF'
import json
points = json.load(open('BENCH_calibration.json'))['records']
errs = [p['response_rel_err'] for p in points]
mean = sum(errs) / len(errs)
print(f'mean response-time rel err {mean:.1%} over {len(errs)} configs')
assert mean <= 0.5, f'cost model drifted: mean rel err {mean:.1%} > 50%'
EOF
}

suite_multiclient() {
  DIMSUM_METRICS=BENCH_multiclient.metrics.json ./bench/ext_multiclient --smoke
  python3 -c "import json; json.load(open('BENCH_multiclient.json'))"
  python3 -c "import json; json.load(open('BENCH_multiclient.metrics.json'))"
}

suite_faults() {
  DIMSUM_METRICS=BENCH_faults.metrics.json ./bench/ext_faults --smoke
  python3 -c "import json; json.load(open('BENCH_faults.json'))"
  python3 -c "import json; json.load(open('BENCH_faults.metrics.json'))"
}

suite_kernel() {
  # Events/sec against the committed baseline is reported by the perf
  # suite (warn-only: shared runners are too noisy for a hard wall-clock
  # threshold); the event counts gate there.
  ./bench/micro_simkernel --smoke --reps=1
}

suite_openloop() {
  DIMSUM_METRICS=BENCH_openloop.metrics.json ./bench/ext_openloop --smoke
  python3 -c "import json; json.load(open('BENCH_openloop.json'))"
}

suite_scaleout() {
  DIMSUM_METRICS=BENCH_scaleout.metrics.json ./bench/ext_scaleout --smoke
  # Acceptance shape: saturation throughput of the fully replicated
  # configurations must rise monotonically with server count at the top
  # arrival rate.
  python3 - <<'EOF'
import json
records = json.load(open('BENCH_scaleout.json'))['records']
top = max(r['rate_qps'] for r in records)
sat = {r['servers']: r['throughput_qps'] for r in records
       if r['rate_qps'] == top and r['replicas'] == r['servers']}
series = [sat[s] for s in sorted(sat)]
assert series == sorted(series) and len(set(series)) == len(series), \
    f"scale-out throughput not monotone at lambda={top}: {sat}"
print(f"scale-out OK at lambda={top}: " +
      " -> ".join(f"{s}x{s}={sat[s]:.2f} qps" for s in sorted(sat)))
EOF
}

suite_sharding() {
  # ext_sharding exits non-zero unless K-way range sharding beats
  # degree-K replication on BOTH throughput and server-disk queueing
  # share at the top arrival rate -- the acceptance comparison itself.
  DIMSUM_METRICS=BENCH_sharding.metrics.json ./bench/ext_sharding --smoke
  python3 -c "import json; json.load(open('BENCH_sharding.json'))"
  # Unsharded catalogs must be bit-identical with the sharding machinery
  # compiled in: --shards=1 may not perturb a single byte of output.
  ./tools/dimsum_cli --policy=hy --metric=time --relations=6 --servers=3 \
    --cached=0.25 > cli.noflag.txt
  ./tools/dimsum_cli --policy=hy --metric=time --relations=6 --servers=3 \
    --cached=0.25 --shards=1 > cli.shards1.txt
  diff cli.noflag.txt cli.shards1.txt
  echo "unsharded CLI output identical with and without --shards=1"
  # And the sharded path itself runs end to end from the CLI.
  ./tools/dimsum_cli --policy=hy --relations=6 --servers=3 --shards=3 \
    --shard-scheme=range > /dev/null
  ./tools/dimsum_cli --policy=hy --relations=6 --servers=3 --shards=3 \
    --shard-scheme=hash > /dev/null
}

suite_taillat() {
  # ext_taillat exits non-zero unless the per-query critical-path
  # decomposition explains >= 80% of the p99-p50 gap at the top arrival
  # rate for every replica policy -- the attribution gate itself.
  DIMSUM_METRICS=BENCH_taillat.metrics.json ./bench/ext_taillat --smoke
  python3 -c "import json; json.load(open('BENCH_taillat.json'))"
  python3 -c "import json; json.load(open('BENCH_taillat.metrics.json'))"
  # The same gate, recomputed independently from the raw query log by the
  # offline report.
  python3 "$REPO_ROOT/tools/tail_report.py" --assert-share 0.8 \
    BENCH_taillat.querylog.jsonl | summary
  # Query-log capture must not perturb the run: CLI output is identical
  # with and without --query-log (modulo the one status line).
  ./tools/dimsum_cli --policy=hy --metric=time --relations=6 --servers=3 \
    --cached=0.25 > cli.nolog.txt
  ./tools/dimsum_cli --policy=hy --metric=time --relations=6 --servers=3 \
    --cached=0.25 --query-log=ql.jsonl > cli.log.txt
  diff cli.nolog.txt \
    <(grep -v '^query log:' cli.log.txt | sed -e '${/^$/d}')
  echo "CLI output identical with and without --query-log"
}

suite_perfbench() {
  # perfbench/ builds its own Release tree under .bench_build/, so this
  # suite runs from the repository root. Each workload's cycle-0 output
  # digest on seed 1 must equal the committed value: a change that alters
  # an output on purpose updates the value here and says why in CHANGES.md.
  local -A expected=(
    [fig08_mix]=8c47b6008723e81f
    [openloop_1k]=48ef099d8eca625f
    [tail_querylog]=7a7cb9841845261e
    [closed_faults]=eafe99f2847700e4
  )
  (cd "$REPO_ROOT" && python3 perfbench/selftest.py)
  local workload line
  for workload in fig08_mix openloop_1k tail_querylog closed_faults; do
    line=$(cd "$REPO_ROOT" && python3 perfbench/run.py --workload "$workload" \
      --seed 1 --seconds 1 --trace 0 |
      grep "^digest $workload seed 1 cycle 0 ")
    echo "$line"
    if [[ "${line##* }" != "${expected[$workload]}" ]]; then
      echo "perfbench $workload: digest ${line##* }," \
        "expected ${expected[$workload]}" >&2
      return 1
    fi
  done
}

suite_check() {
  python3 "$REPO_ROOT/tools/check_bench.py" \
    BENCH_optimizer.json BENCH_observability.json \
    BENCH_multiclient.json BENCH_multiclient.metrics.json \
    BENCH_faults.json BENCH_faults.metrics.json \
    BENCH_calibration.json BENCH_kernel.json \
    BENCH_openloop.json BENCH_openloop.metrics.json \
    BENCH_scaleout.json BENCH_scaleout.metrics.json \
    BENCH_sharding.json BENCH_sharding.metrics.json \
    BENCH_taillat.json BENCH_taillat.metrics.json
}

suite_perf() {
  # Deterministic virtual-time metrics gate hard (fail beyond 25%, warn
  # beyond 10%); wall-clock metrics are warn-only. Baselines live in
  # bench/baselines/ and are refreshed with tools/bench_baseline.py when
  # a perf change is intentional.
  python3 "$REPO_ROOT/tools/perf_report.py" \
    --baseline-dir "$REPO_ROOT/bench/baselines" \
    --out perf_report.json \
    BENCH_optimizer.json BENCH_observability.json \
    BENCH_calibration.json BENCH_multiclient.json \
    BENCH_faults.json BENCH_kernel.json BENCH_openloop.json \
    BENCH_scaleout.json BENCH_sharding.json BENCH_taillat.json | summary
}

ALL_SUITES=(threads observability explain multiclient faults kernel
            openloop scaleout sharding taillat perfbench check perf)

usage() {
  sed -n '2,27p' "$0" | sed 's/^# \{0,1\}//'
}

suites=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --build-dir=*) BUILD_DIR="${1#*=}"; shift ;;
    --list) printf '%s\n' "${ALL_SUITES[@]}"; exit 0 ;;
    -h|--help) usage; exit 0 ;;
    all) suites+=("${ALL_SUITES[@]}"); shift ;;
    -*) echo "ci_smoke: unknown option $1" >&2; exit 2 ;;
    *) suites+=("$1"); shift ;;
  esac
done
if [[ ${#suites[@]} -eq 0 ]]; then
  usage >&2
  exit 2
fi

cd "$BUILD_DIR"
for suite in "${suites[@]}"; do
  fn="suite_${suite//-/_}"
  if ! declare -F "$fn" > /dev/null; then
    echo "ci_smoke: unknown suite '$suite' (try --list)" >&2
    exit 2
  fi
  echo "==== ci_smoke: $suite ===="
  "$fn"
done
