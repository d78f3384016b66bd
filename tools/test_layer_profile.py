#!/usr/bin/env python3
"""Tests tools/layer_profile.py's fold of a gprof flat profile.

Folds a canned twelve-row `gprof -b -p` profile and checks the parse (rows
with and without call counts), the layer of each function, the per-layer
sums, the unmapped list and the rendered table. Needs neither gprof nor
a build.

Usage: test_layer_profile.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import layer_profile  # noqa: E402

FLAT = """\
Flat profile:

Each sample counts as 0.01 seconds.
  %   cumulative   self              self     total
 time   seconds   seconds    calls   s/call   s/call  name
 28.00      0.28     0.28        5     0.06     0.10  dimsum::ExecSession::Run()
 15.00      0.43     0.15   525240     0.00     0.00  dimsum::sim::Disk::AbortPendingReadAhead()
 10.00      0.53     0.10 10092541     0.00     0.00  dimsum::HashJoinProcess(dimsum::ExecContext&, dimsum::PlanNode const&, dimsum::sim::Channel<dimsum::Page>&, dimsum::sim::Channel<dimsum::Page>&)
 10.00      0.63     0.10  5200000     0.00     0.00  void dimsum::sim::Simulator::Call<dimsum::sim::Resource::Dispatch()::{lambda()#1}>(double, dimsum::sim::Resource::Dispatch()::{lambda()#1}&&)
  8.00      0.71     0.08  4150677     0.00     0.00  void std::vector<dimsum::sim::Event, std::allocator<dimsum::sim::Event> >::_M_realloc_insert<dimsum::sim::Event const&>(__gnu_cxx::__normal_iterator<dimsum::sim::Event*, std::vector<dimsum::sim::Event, std::allocator<dimsum::sim::Event> > >, dimsum::sim::Event const&)
  7.00      0.78     0.07  5612800     0.00     0.00  dimsum::(anonymous namespace)::OpProbe::Chan(double, int)
  5.00      0.83     0.05     4836     0.00     0.00  dimsum::EstimateTime(dimsum::Plan const&, dimsum::Catalog const&)
  5.00      0.88     0.05  5440000     0.00     0.00  dimsum::sim::ControllerCache::Insert(long, double)
  4.00      0.92     0.04                             _init
  3.00      0.95     0.03   131456     0.00     0.00  dimsum::CostCache::Find(unsigned long, std::basic_string_view<char, std::char_traits<char> >) const
  3.00      0.98     0.03       12     0.00     0.00  dimsum::Mystery::Solve(dimsum::sim::Disk&)
  2.00      1.00     0.02   131456     0.00     0.00  dimsum::MoveIsLegal(dimsum::AppliedMove const&, dimsum::RelationSets const&, dimsum::TransformConfig const&)
"""

EXPECTED = {
    "kernel loop and FIFO resources (`sim/`)": 0.46,
    "disk controller cache and elevator (`sim/disk.cc`)": 0.20,
    "operators, channels and executor (`exec/`)": 0.10,
    "actuals, spans, critical paths": 0.07,
    "GHK92 coster (`cost/`)": 0.05,
    "std:: and libc, no layer": 0.04,
    "cost cache and plan signatures (`opt/cost_cache.cc`)": 0.03,
    "plan moves, legality and binding (`plan/`)": 0.02,
}

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)


rows = layer_profile.parse_flat(FLAT)
check(len(rows) == 12, "parsed %d rows, expected 12" % len(rows))
check(rows[8] == ("_init", 0.04), "row without call counts: %r" % (rows[8],))

totals, unmapped = layer_profile.fold(rows)
check(list(totals) == [layer for layer, _ in layer_profile.LAYERS],
      "totals are not in LAYERS order")
for layer, seconds in totals.items():
    want = EXPECTED.get(layer, 0.0)
    check(abs(seconds - want) < 1e-9,
          "%s: %.2f s, expected %.2f s" % (layer, seconds, want))
# A parameter type never places a function: Mystery takes a Disk& but
# belongs to no layer.
check(unmapped == [("dimsum::Mystery::Solve(dimsum::sim::Disk&)", 0.03)],
      "unmapped: %r" % (unmapped,))

table = layer_profile.render(rows, "canned", 2000)
check("| kernel loop and FIFO resources (`sim/`) | 0.46 | 46.0% | 230.0 |\n"
      in table, "rendered kernel row missing:\n" + table)
check("| disk controller cache and elevator (`sim/disk.cc`) | 0.20 | 20.0% "
      "| 100.0 |" in table, "rendered disk row missing")
check("| unmapped | 0.03 | 3.0% | 15.0 |" in table,
      "rendered unmapped row missing")
check("| total | 1.00 | 100.0% | 500.0 |" in table,
      "rendered total row missing")

if failures:
    print("\n".join("FAIL: " + failure for failure in failures))
    sys.exit(1)
print("layer_profile fold: OK")
