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
#   perfbench      wall-clock benchmark self-test + pinned seed 1-10 digests
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
  # digest on seeds 1-10 must equal the committed value: a change that
  # alters an output on purpose updates the values here and says why in
  # CHANGES.md.
  local -A expected=(
    [fig08_mix:1]=8c47b6008723e81f [openloop_1k:1]=48ef099d8eca625f
    [tail_querylog:1]=7a7cb9841845261e [closed_faults:1]=eafe99f2847700e4
    [fig08_mix:2]=98c1ece3bea33d54 [openloop_1k:2]=4fa2af5835fed7de
    [tail_querylog:2]=4e0c20d01af45e2c [closed_faults:2]=b4c69fbbb9841b64
    [fig08_mix:3]=950650b0e543bc9c [openloop_1k:3]=2dbb4b9f48d6e804
    [tail_querylog:3]=06ca8ea2a9659a12 [closed_faults:3]=bc11d9f24b041ed5
    [fig08_mix:4]=b3781b72d573f719 [openloop_1k:4]=9839587f187e8e2c
    [tail_querylog:4]=01445752c4af9510 [closed_faults:4]=1637857f55fdba71
    [fig08_mix:5]=6f87648ce9a444a8 [openloop_1k:5]=e98fb1f72ac4d819
    [tail_querylog:5]=45cb658b0d53ea94 [closed_faults:5]=eeb93628705a906f
    [fig08_mix:6]=212794014aef1580 [openloop_1k:6]=a0d498695a74e8bd
    [tail_querylog:6]=14bd41e1b518be04 [closed_faults:6]=dc2c9b243c0f9d37
    [fig08_mix:7]=0cbc9dd359cedea2 [openloop_1k:7]=d008476fa6467054
    [tail_querylog:7]=f2d5f27baff757b6 [closed_faults:7]=6a22c936f65041e3
    [fig08_mix:8]=79dbc638f270fb5a [openloop_1k:8]=f7e03577ec4edbe3
    [tail_querylog:8]=6476057197c0c65a [closed_faults:8]=4dda83721787bf49
    [fig08_mix:9]=3ec38be6b906d91b [openloop_1k:9]=baf6792f1ddb6649
    [tail_querylog:9]=46a8f6ecfb389b5b [closed_faults:9]=4fd45b86d78a3f2b
    [fig08_mix:10]=c0411322e1025d12 [openloop_1k:10]=6573533b48b2e652
    [tail_querylog:10]=a14ae54a1e582c7b [closed_faults:10]=5b00aa95c22ea068
  )
  (cd "$REPO_ROOT" && python3 perfbench/selftest.py)
  local seed workload line
  for seed in 1 2 3 4 5 6 7 8 9 10; do
    for workload in fig08_mix openloop_1k tail_querylog closed_faults; do
      line=$(cd "$REPO_ROOT" && python3 perfbench/run.py \
        --workload "$workload" --seed "$seed" --seconds 1 --trace 0 |
        grep "^digest $workload seed $seed cycle 0 ")
      echo "$line"
      if [[ "${line##* }" != "${expected[$workload:$seed]}" ]]; then
        echo "perfbench $workload seed $seed: digest ${line##* }," \
          "expected ${expected[$workload:$seed]}" >&2
        return 1
      fi
    done
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
