/// \file
/// DES kernel microbenchmark: events/sec of the simulator (binary-heap
/// event queue, inline 56-byte events, pooled coroutine frames) on six
/// scenarios:
///
///   hold         classic hold model: a bank of self-rescheduling inline
///                callbacks with exponential holds (pure queue churn).
///   delay1000    1000 processes looping over sim.Delay (frame-free timer
///                churn through coroutine resumption).
///   resource1000 1000 processes contending for 16 FIFO resources
///                (completion-callback path).
///   channel1000  500 producer/consumer pairs over bounded channels.
///   nested1000   1000 processes awaiting depth-8 Task chains (frame
///                allocation churn through the frame pool).
///   timers1000   1000 processes spawning detached one-shot timers with
///                long lifetimes, holding ~100k events pending (the
///                large-population regime).
///
/// Writes BENCH_kernel.json: one record per scenario with its event count,
/// events/sec, peak queue depth and frame-pool hit rate.
/// tools/perf_report.py compares the records with the committed baseline
/// (bench/baselines/BENCH_kernel.json): the event counts are deterministic
/// and gate hard, events/sec only warns.
///
/// Flags: --smoke (CI sizes), --reps=N (best-of-N timing, default 2),
/// --out=PATH.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "harness.h"
#include "sim/channel.h"
#include "sim/frame_pool.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace {

using dimsum::Rng;
using dimsum::sim::Channel;
using dimsum::sim::FramePool;
using dimsum::sim::Process;
using dimsum::sim::Resource;
using dimsum::sim::Simulator;
using dimsum::sim::Task;

struct ScenarioResult {
  uint64_t events = 0;
  double wall_ms = 0.0;
  uint64_t peak_queue_depth = 0;
  double frame_pool_hit_rate = -1.0;  // -1 = no frame allocations
};

/// Times sim.Run() (setup excluded) and collects kernel counters. Called
/// with the scenario's locals still in scope, so workload state outlives
/// the run.
ScenarioResult FinishRun(Simulator& sim) {
  const FramePool::Stats before = FramePool::ThisThread().stats();
  const auto t0 = std::chrono::steady_clock::now();
  sim.Run();
  const auto t1 = std::chrono::steady_clock::now();
  ScenarioResult r;
  r.events = sim.processed_events();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.peak_queue_depth = sim.peak_queue_depth();
  const FramePool::Stats after = FramePool::ThisThread().stats();
  const uint64_t hits = after.hits - before.hits;
  const uint64_t misses = after.misses - before.misses;
  if (hits + misses > 0) {
    r.frame_pool_hit_rate =
        static_cast<double>(hits) / static_cast<double>(hits + misses);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Scenario sizes
// ---------------------------------------------------------------------------

struct Sizes {
  long hold_events;
  int hold_population;
  int procs;
  int delay_rounds;
  int resource_rounds;
  int channel_pairs;
  int channel_items;
  int nested_rounds;
  int timer_rounds;
};

constexpr Sizes kFull = {1'500'000, 8192, 1000, 1500, 400, 500, 600, 600, 120};
constexpr Sizes kSmoke = {150'000, 4096, 1000, 150, 40, 500, 60, 60, 12};

// ---------------------------------------------------------------------------
// hold: self-rescheduling callbacks with 24 bytes of state, stored inline
// in the events.
// ---------------------------------------------------------------------------

struct HoldCtx {
  Simulator* sim;
  Rng* rng;
  long remaining;
};

struct HoldFn {
  HoldCtx* ctx;
  double payload[2];
  void operator()() const {
    if (ctx->remaining-- <= 0) return;
    ctx->sim->Call(ctx->rng->Exponential(10.0),
                   HoldFn{ctx, {payload[0] + 1.0, payload[1]}});
  }
};

ScenarioResult ScenarioHold(const Sizes& s) {
  Simulator sim;
  Rng rng(42);
  HoldCtx ctx{&sim, &rng, s.hold_events};
  for (int i = 0; i < s.hold_population; ++i) {
    sim.Call(rng.Exponential(10.0),
             HoldFn{&ctx, {static_cast<double>(i), 0.0}});
  }
  return FinishRun(sim);
}

// ---------------------------------------------------------------------------
// delay1000: coroutine timer churn.
// ---------------------------------------------------------------------------

Process DelayChurn(Simulator& sim, Rng rng, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await sim.Delay(rng.Exponential(10.0));
  }
}

ScenarioResult ScenarioDelay(const Sizes& s) {
  Simulator sim;
  Rng root(7);
  for (int p = 0; p < s.procs; ++p) {
    sim.Spawn(DelayChurn(sim, root.Fork(), s.delay_rounds));
  }
  return FinishRun(sim);
}

// ---------------------------------------------------------------------------
// resource1000: FIFO-server contention (completion-callback path).
// ---------------------------------------------------------------------------

Process ResourceUser(Simulator& sim,
                     std::vector<std::unique_ptr<Resource>>& resources,
                     Rng rng, int rounds) {
  const int64_t n = static_cast<int64_t>(resources.size());
  for (int i = 0; i < rounds; ++i) {
    Resource& r = *resources[rng.UniformInt(0, n - 1)];
    co_await r.Use(rng.Exponential(5.0));
    co_await sim.Delay(rng.Exponential(20.0));
  }
}

ScenarioResult ScenarioResource(const Sizes& s) {
  Simulator sim;
  std::vector<std::unique_ptr<Resource>> resources;
  for (int i = 0; i < 16; ++i) {
    resources.push_back(
        std::make_unique<Resource>(sim, "r" + std::to_string(i)));
  }
  Rng root(11);
  for (int p = 0; p < s.procs; ++p) {
    sim.Spawn(ResourceUser(sim, resources, root.Fork(), s.resource_rounds));
  }
  return FinishRun(sim);
}

// ---------------------------------------------------------------------------
// channel1000: bounded producer/consumer hand-offs.
// ---------------------------------------------------------------------------

Process Producer(Simulator& sim, Channel<int>& channel, Rng rng, int items) {
  for (int i = 0; i < items; ++i) {
    co_await sim.Delay(rng.Exponential(2.0));
    co_await channel.Put(i);
  }
  channel.Close();
}

Process Consumer(Channel<int>& channel, long* sum) {
  for (;;) {
    std::optional<int> value = co_await channel.Get();
    if (!value.has_value()) break;
    *sum += *value;
  }
}

ScenarioResult ScenarioChannel(const Sizes& s) {
  Simulator sim;
  std::vector<std::unique_ptr<Channel<int>>> channels;
  long sum = 0;
  Rng root(13);
  for (int p = 0; p < s.channel_pairs; ++p) {
    channels.push_back(std::make_unique<Channel<int>>(sim, 2));
    sim.Spawn(Producer(sim, *channels.back(), root.Fork(), s.channel_items));
    sim.Spawn(Consumer(*channels.back(), &sum));
  }
  ScenarioResult r = FinishRun(sim);
  const long expected = static_cast<long>(s.channel_pairs) *
                        (static_cast<long>(s.channel_items) *
                         (s.channel_items - 1) / 2);
  DIMSUM_CHECK_EQ(sum, expected);
  return r;
}

// ---------------------------------------------------------------------------
// nested1000: Task-chain frame churn.
// ---------------------------------------------------------------------------

Task<int> Leaf(Simulator& sim) {
  co_await sim.Delay(1.0);
  co_return 1;
}

Task<int> Chain(Simulator& sim, int depth) {
  if (depth == 0) co_return co_await Leaf(sim);
  co_return 1 + co_await Chain(sim, depth - 1);
}

Process NestedChurn(Simulator& sim, int rounds, long* sum) {
  for (int i = 0; i < rounds; ++i) {
    *sum += co_await Chain(sim, 8);
  }
}

ScenarioResult ScenarioNested(const Sizes& s) {
  Simulator sim;
  long sum = 0;
  for (int p = 0; p < s.procs; ++p) {
    sim.Spawn(NestedChurn(sim, s.nested_rounds, &sum));
  }
  ScenarioResult r = FinishRun(sim);
  DIMSUM_CHECK_EQ(sum, static_cast<long>(s.procs) * s.nested_rounds * 9);
  return r;
}

// ---------------------------------------------------------------------------
// timers1000: large pending population. Each process spawns detached
// one-shot timers with Exp(500) lifetimes every Exp(5) ms, so ~100x more
// timers are pending than firing.
// ---------------------------------------------------------------------------

Process OneShot(Simulator& sim, double delay_ms) {
  co_await sim.Delay(delay_ms);
}

Process TimerChurn(Simulator& sim, Rng rng, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    sim.Spawn(OneShot(sim, rng.Exponential(500.0)));
    co_await sim.Delay(rng.Exponential(5.0));
  }
}

ScenarioResult ScenarioTimers(const Sizes& s) {
  Simulator sim;
  Rng root(17);
  for (int p = 0; p < s.procs; ++p) {
    sim.Spawn(TimerChurn(sim, root.Fork(), s.timer_rounds));
  }
  return FinishRun(sim);
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Scenario {
  const char* name;
  ScenarioResult (*run)(const Sizes&);
};

constexpr Scenario kScenarios[] = {
    {"hold", ScenarioHold},
    {"delay1000", ScenarioDelay},
    {"resource1000", ScenarioResource},
    {"channel1000", ScenarioChannel},
    {"nested1000", ScenarioNested},
    {"timers1000", ScenarioTimers},
};

struct Record {
  const char* scenario;
  ScenarioResult result;
  double events_per_sec = 0.0;
};

void WriteJson(const char* path, const dimsum::bench::BenchMeta& meta,
               const std::vector<Record>& records) {
  FILE* f = std::fopen(path, "w");
  DIMSUM_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "{\"meta\": %s,\n \"records\": [\n",
               dimsum::bench::BenchMetaJson(meta).c_str());
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(
        f,
        "  {\"scenario\": \"%s\", \"events\": %llu, \"wall_ms\": %.3f, "
        "\"events_per_sec\": %.0f, \"peak_queue_depth\": %llu, "
        "\"frame_pool_hit_rate\": %.4f}%s\n",
        r.scenario, static_cast<unsigned long long>(r.result.events),
        r.result.wall_ms, r.events_per_sec,
        static_cast<unsigned long long>(r.result.peak_queue_depth),
        r.result.frame_pool_hit_rate, i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int reps = 2;
  const char* out = "BENCH_kernel.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::atoi(argv[i] + 7);
      DIMSUM_CHECK_GE(reps, 1);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--reps=N] [--out=PATH]\n", argv[0]);
      return 2;
    }
  }
  const Sizes& sizes = smoke ? kSmoke : kFull;

  std::printf("# micro_simkernel%s: best of %d rep(s)\n",
              smoke ? " (smoke)" : "", reps);
  std::printf("%-13s %12s %10s %14s %10s\n", "scenario", "events", "wall_ms",
              "events/sec", "peak_depth");

  std::vector<Record> records;
  for (const Scenario& scenario : kScenarios) {
    ScenarioResult best = scenario.run(sizes);
    for (int rep = 1; rep < reps; ++rep) {
      const ScenarioResult r = scenario.run(sizes);
      DIMSUM_CHECK_EQ(r.events, best.events);
      if (r.wall_ms < best.wall_ms) best = r;
    }
    Record record{scenario.name, best,
                  static_cast<double>(best.events) / (best.wall_ms / 1000.0)};
    std::printf("%-13s %12llu %10.2f %14.0f %10llu\n", record.scenario,
                static_cast<unsigned long long>(best.events), best.wall_ms,
                record.events_per_sec,
                static_cast<unsigned long long>(best.peak_queue_depth));
    records.push_back(record);
  }
  dimsum::bench::BenchMeta meta = dimsum::bench::MakeBenchMeta(
      "dimsum.bench.kernel.v2", std::string("6-scenario matrix, ") +
                                    (smoke ? "smoke" : "full") +
                                    ", reps=" + std::to_string(reps));
  meta.schema_version = 2;
  WriteJson(out, meta, records);
  std::printf("# wrote %s\n", out);
  return 0;
}
