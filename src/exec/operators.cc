#include "exec/operators.h"

#include <algorithm>
#include <cmath>
#include <coroutine>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "cost/hash_join_model.h"
#include "sim/trace.h"

namespace dimsum {
namespace {

/// Stalls while `site` is crashed: fail-stop at request boundaries, so work
/// already in service finishes but new disk/network requests wait for the
/// restart (chained crash windows included). Returns the stalled time, ms.
/// Only OpProbe::UntilUp calls it, and only under a fault schedule, so
/// healthy runs pay one branch and no coroutine frame.
sim::Task<double> AwaitSiteUp(ExecContext& ctx, SiteId site) {
  double stall_ms = 0.0;
  while (ctx.faults->SiteDown(site, ctx.sim.now())) {
    const double wait_ms =
        ctx.faults->SiteUpAt(site, ctx.sim.now()) - ctx.sim.now();
    stall_ms += wait_ms;
    co_await ctx.sim.Delay(wait_ms);
  }
  co_return stall_ms;
}

/// A page count an operator process does not keep (a scan's input,
/// display's output); see OpProbe::Finish.
constexpr int64_t kNoCount = -1;

/// The one instrumentation object of an operator process, built where the
/// process starts (in sort and join, after the memory grant). It writes
/// each record the session collects:
///   - the EXPLAIN record (OperatorActual): elapsed time per resource
///     class, stalls, pages and the process's [start, end];
///   - causal spans on the process's timeline (sim/span.h);
///   - the process's Chrome-trace track: phases, flow arrows and one
///     whole-lifetime operator span.
/// Every method is a pure read of the simulation clock plus memory writes
/// -- never a simulation event -- and skips the records that are off, so
/// collection cannot perturb event ordering (results are bit-identical
/// with it on or off). The elapsed time between Mark() and the accumulate
/// call includes queueing behind the awaited resource; that is intentional
/// (see OperatorActual). The queueing vs service split inside a window
/// comes from the ReqStats out-pointer (Req()) threaded into the awaited
/// resource call(s): service accumulates across the window's requests and
/// the remainder is queueing.
class OpProbe {
 public:
  /// A plan operator: `op` is its pre-order id, which is also its EXPLAIN
  /// record's index. `site` is where its trace track and (unless a call
  /// says otherwise) its resource spans belong.
  OpProbe(ExecContext& ctx, SiteId site, int op, std::string name)
      : OpProbe(ctx, site, op, op, std::move(name)) {}
  /// A net send/recv half: timeline `op` accumulates its time into its
  /// consumer's record `record`, never owning that record's start, end or
  /// pages.
  OpProbe(ExecContext& ctx, SiteId site, int op, int record,
          std::string name)
      : ctx_(ctx),
        sim_(ctx.sim),
        act_(ctx.metrics.operator_actuals.empty()
                 ? nullptr
                 : &ctx.metrics.operator_actuals[record]),
        spans_(ctx.spans),
        trace_(ctx.sim.trace()),
        site_(site),
        op_(op),
        owns_record_(op == record),
        start_ms_(ctx.sim.now()),
        name_(std::move(name)) {
    if (trace_ != nullptr) tid_ = trace_->NewTrack(site_, name_);
    if (act_ != nullptr && owns_record_) act_->start_ms = start_ms_;
  }

  double now() const { return sim_.now(); }

  double Mark() {
    if (act_ == nullptr && spans_ == nullptr) return 0.0;
    req_ = {};
    return sim_.now();
  }
  /// Request-stats out-pointer for the resource request(s) awaited inside
  /// the current Mark() window; null when span capture is off.
  sim::ReqStats* Req() { return spans_ != nullptr ? &req_ : nullptr; }

  void Cpu(double t0) { CpuAt(t0, site_); }
  void CpuAt(double t0, SiteId site) {
    const double now = sim_.now();
    if (act_ != nullptr) act_->cpu_ms += now - t0;
    Record(sim::SpanKind::kCpu, t0, now, site);
  }
  void Disk(double t0) { DiskAt(t0, site_); }
  void DiskAt(double t0, SiteId site) {
    const double now = sim_.now();
    if (act_ != nullptr) act_->disk_ms += now - t0;
    Record(sim::SpanKind::kDisk, t0, now, site);
  }
  void Net(double t0) {
    const double now = sim_.now();
    if (act_ != nullptr) act_->net_ms += now - t0;
    Record(sim::SpanKind::kNet, t0, now, /*site=*/-1);
  }
  /// Records the wait for buffer-pool frames acquired over [t0, now].
  void MemoryWait(double t0) {
    if (spans_ == nullptr) return;
    const double now = sim_.now();
    if (now > t0) {
      spans_->spans.push_back(
          {op_, t0, now, sim::SpanKind::kMemory, 0.0, site_, -1});
    }
  }
  /// Records the time blocked on a channel Put since `t0` (causal edge to
  /// the channel's consumer) / Get (edge to the producer).
  void PutWait(double t0, const PageChannel& ch) { Chan(t0, ch.consumer); }
  void GetWait(double t0, const PageChannel& ch) { Chan(t0, ch.producer); }

  /// The fault-stall guard, awaited before each request to `site`. While
  /// the site is crashed the process waits for its restart, and the wait
  /// is charged to the query's fault_stall_ms, the record's stall_ms and a
  /// fault-stall span at `site`. Ready at once on healthy runs.
  struct UntilUpAwaiter {
    OpProbe& probe;
    SiteId site;
    std::optional<sim::Task<double>> wait;

    bool await_ready() {
      if (probe.ctx_.faults == nullptr) return true;
      wait.emplace(AwaitSiteUp(probe.ctx_, site));
      return false;
    }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> caller) {
      return wait->await_suspend(caller);
    }
    void await_resume() {
      if (wait.has_value()) probe.Stall(wait->await_resume(), site);
    }
  };
  UntilUpAwaiter UntilUp(SiteId site) { return {*this, site, std::nullopt}; }

  /// A sub-span [begin_ms, now] of the operator's trace span.
  void Phase(std::string label, double begin_ms,
             std::vector<sim::TraceSink::Arg> args = {}) {
    if (trace_ != nullptr) {
      trace_->Complete(site_, tid_, std::move(label), "phase", begin_ms, now(),
                       std::move(args));
    }
  }
  /// One end of a Perfetto flow arrow on this process's track; the net
  /// pair links a page's send to its receipt across sites.
  void Flow(bool start, uint64_t id) {
    if (trace_ == nullptr) return;
    if (start) {
      trace_->FlowStart(site_, tid_, "page", "channel", now(), id);
    } else {
      trace_->FlowEnd(site_, tid_, "page", "channel", now(), id);
    }
  }

  /// Ends the process (call once: coroutines have no reliable RAII point
  /// after final suspend). Writes the EXPLAIN record's pages and end time
  /// when the probe owns the record, and the trace's whole-lifetime
  /// operator span with each kept count as an arg; a kNoCount count reads
  /// 0 in the record and is left out of the args.
  void Finish(int64_t pages_in, int64_t pages_out,
              int64_t pages_faulted = kNoCount) {
    if (act_ != nullptr && owns_record_) {
      act_->pages_in = std::max<int64_t>(pages_in, 0);
      act_->pages_out = std::max<int64_t>(pages_out, 0);
      act_->end_ms = now();
    }
    if (trace_ == nullptr) return;
    std::vector<sim::TraceSink::Arg> args;
    for (const auto& [key, pages] :
         {std::pair{"pages_in", pages_in}, std::pair{"pages_out", pages_out},
          std::pair{"pages_faulted", pages_faulted}}) {
      if (pages != kNoCount) {
        args.emplace_back(key, static_cast<double>(pages));
      }
    }
    trace_->Complete(site_, tid_, name_, "operator", start_ms_, now(),
                     std::move(args));
  }

 private:
  void Stall(double ms, SiteId site) {
    ctx_.metrics.fault_stall_ms += ms;
    if (act_ != nullptr) act_->stall_ms += ms;
    if (spans_ != nullptr && ms > 0.0) {
      const double now = sim_.now();
      spans_->spans.push_back(
          {op_, now - ms, now, sim::SpanKind::kFaultStall, 0.0, site, -1});
    }
  }
  void Record(sim::SpanKind kind, double t0, double now, SiteId site) {
    if (spans_ == nullptr || now <= t0) return;
    spans_->spans.push_back(
        {op_, t0, now, kind, req_.service_ms, site, -1});
  }
  void Chan(double t0, int peer) {
    if (spans_ == nullptr) return;
    const double now = sim_.now();
    if (now <= t0) return;
    spans_->spans.push_back(
        {op_, t0, now, sim::SpanKind::kChannel, 0.0, /*site=*/-1, peer});
  }

  ExecContext& ctx_;
  sim::Simulator& sim_;
  OperatorActual* act_;
  sim::QuerySpans* spans_;
  sim::TraceSink* trace_;
  SiteId site_;
  int op_;
  bool owns_record_;
  double start_ms_;
  std::string name_;
  int tid_ = 0;
  sim::ReqStats req_{};
};

/// Emits all complete pages accumulated in `acc`, charging the move cost of
/// result construction at `site`; returns the number of pages emitted.
sim::Task<int64_t> EmitFullPages(SiteRuntime& site, OutputAccumulator& acc,
                                 double move_ms_per_tuple, PageChannel& out,
                                 OpProbe& probe) {
  int64_t pages = 0;
  while (acc.HasFullPage()) {
    Page page = acc.PopFullPage();
    double t0 = probe.Mark();
    co_await site.cpu.Use(move_ms_per_tuple * page.tuples, probe.Req());
    probe.Cpu(t0);
    t0 = probe.Mark();
    co_await out.Put(page);
    probe.PutWait(t0, out);
    ++pages;
  }
  co_return pages;
}

sim::Task<int64_t> EmitRemainder(SiteRuntime& site, OutputAccumulator& acc,
                                 double move_ms_per_tuple, PageChannel& out,
                                 OpProbe& probe) {
  int64_t pages =
      co_await EmitFullPages(site, acc, move_ms_per_tuple, out, probe);
  if (acc.HasRemainder()) {
    Page page = acc.PopRemainder();
    double t0 = probe.Mark();
    co_await site.cpu.Use(move_ms_per_tuple * page.tuples, probe.Req());
    probe.Cpu(t0);
    t0 = probe.Mark();
    co_await out.Put(page);
    probe.PutWait(t0, out);
    ++pages;
  }
  co_return pages;
}

/// Retransmission schedule of a message lost to a link drop window, in
/// virtual ms: the first timeout, then x2 per consecutive drop, capped.
constexpr double kRetransmitTimeoutMs = 50.0;
constexpr double kRetransmitBackoffMult = 2.0;
constexpr double kRetransmitBackoffCapMs = 1000.0;

/// One transfer under the fault model: a message started inside a drop
/// window occupies the wire but is lost; the sender times out (virtual
/// time) and retransmits with exponential backoff until a transfer starts
/// outside a drop window. Delay windows stretch the time on the wire.
/// Retransmissions are counted into the query's metrics; the network's own
/// message/byte totals include them too (they really crossed the wire).
sim::Task<void> FaultyTransfer(ExecContext& ctx, int64_t bytes,
                               sim::ReqStats* stats = nullptr) {
  double timeout_ms = kRetransmitTimeoutMs;
  while (true) {
    const bool dropped = ctx.faults->LinkDropping(ctx.sim.now());
    const double factor = ctx.faults->LinkDelayFactor(ctx.sim.now());
    co_await ctx.system.network().Transfer(bytes, factor, stats);
    if (!dropped) co_return;
    ++ctx.metrics.retransmits;
    ctx.metrics.retransmitted_bytes += bytes;
    ++ctx.metrics.messages;
    ctx.metrics.bytes_sent += bytes;
    co_await ctx.sim.Delay(timeout_ms);
    timeout_ms = std::min(timeout_ms * kRetransmitBackoffMult,
                          kRetransmitBackoffCapMs);
  }
}

}  // namespace

sim::Process ScanProcess(ExecContext& ctx, const PlanNode& node, int op,
                         PageChannel& out) {
  const Relation& rel = ctx.catalog.relation(node.relation);
  const bool client_scan = node.annotation != SiteAnnotation::kPrimaryCopy;
  DIMSUM_CHECK(!client_scan || ctx.system.IsClientSite(node.bound_site))
      << "client-annotated scan bound to server site " << node.bound_site;
  SiteRuntime& reader = ctx.system.site(node.bound_site);
  const double disk_cpu = ctx.params.DiskCpuMs();
  const double request_cpu =
      ctx.params.MsgCpuMs(ctx.params.fault_request_bytes);
  const double page_cpu = ctx.params.MsgCpuMs(ctx.params.page_bytes);

  // Where the pages come from, in scan order: blocks [first, end) of an
  // extent at one site. A source at the reading site is read from its
  // disk; any other is a server the page is faulted in from, one
  // synchronous request/response round trip per page (the paper's
  // non-overlapped page faulting).
  struct Source {
    SiteRuntime* site;
    DiskExtent extent;
    int64_t first;
    int64_t end;
  };
  const bool fragment = node.shard >= 0 && ctx.catalog.sharded(node.relation);
  const ScanSlice slice =
      ctx.catalog.ScanExtent(node.relation, node.shard, node.key_lo,
                             node.key_hi, ctx.params.page_bytes);
  const bool all_shards = client_scan && ctx.catalog.sharded(node.relation);
  std::vector<Source> sources;
  if (!client_scan) {
    // Sequential reads of the server's copy (or shard fragment).
    sources.push_back(
        {&reader,
         fragment ? ctx.system.ShardExtent(reader.id, node.relation,
                                           node.shard)
                  : ctx.system.RelationExtent(reader.id, node.relation),
         0, slice.pages});
  } else if (all_shards) {
    // Sharded relations are never client-cached: every shard's pages
    // fault in from that shard's serving copy, shard by shard.
    for (int k = 0; k < ctx.catalog.NumShards(node.relation); ++k) {
      SiteRuntime& server = ctx.system.site(
          ctx.catalog.ShardSite(node.relation, k, node.replica));
      const int64_t pages =
          ctx.catalog.ShardPages(node.relation, k, ctx.params.page_bytes);
      if (pages == 0) continue;
      sources.push_back(
          {&server, ctx.system.ShardExtent(server.id, node.relation, k), 0,
           pages});
    }
  } else {
    // The cached prefix from the home client's disk, the rest faulted in.
    SiteRuntime& server =
        ctx.system.site(ctx.catalog.ReplicaSite(node.relation, node.replica));
    const int64_t cached = std::min(
        ctx.catalog.CachedPages(node.relation, reader.id,
                                ctx.params.page_bytes),
        slice.pages);
    if (cached > 0) {
      sources.push_back(
          {&reader, ctx.system.CacheExtent(reader.id, node.relation), 0,
           cached});
    }
    sources.push_back(
        {&server, ctx.system.RelationExtent(server.id, node.relation), cached,
         slice.pages});
  }
  int64_t read_pages = 0;
  for (const Source& source : sources) read_pages += source.end - source.first;

  // What each page emits. Unrestricted logical scans (shard -1, key
  // [0,1)) emit per-page exact tuple counts, bit for bit as before
  // sharding existed. Shard fragments, client scans of a sharded relation
  // and key-restricted scans emit the slice's tuples spread uniformly over
  // the pages they read (reads stay page- and shard-granular, so a
  // restriction never shrinks I/O by itself).
  const int64_t tuples_per_page = rel.TuplesPerPage(ctx.params.page_bytes);
  const bool uniform =
      all_shards || fragment || node.key_lo != 0.0 || node.key_hi != 1.0;
  const double uniform_tuples =
      read_pages > 0 ? static_cast<double>(slice.tuples) /
                           static_cast<double>(read_pages)
                     : 0.0;
  auto emit_on_page = [&](int64_t index) {
    return uniform ? uniform_tuples
                   : static_cast<double>(std::min(
                         tuples_per_page,
                         rel.num_tuples - index * tuples_per_page));
  };

  OpProbe probe(ctx, node.bound_site, op, "scan " + rel.name);
  int64_t faulted = 0;
  for (const Source& source : sources) {
    SiteRuntime& site = *source.site;
    const DiskExtent extent = source.extent;
    for (int64_t i = source.first; i < source.end; ++i) {
      // A crashed server stalls the read until its restart; the client
      // reads its own cache regardless.
      if (!ctx.system.IsClientSite(site.id)) co_await probe.UntilUp(site.id);
      if (&site == &reader) {
        double t0 = probe.Mark();
        co_await site.cpu.Use(disk_cpu, probe.Req());
        probe.Cpu(t0);
        t0 = probe.Mark();
        co_await site.disk(extent.disk).Read(extent.start + i, probe.Req());
        probe.Disk(t0);
      } else {
        // Page fault: request to the server, server disk read, page back.
        ++faulted;
        double t0 = probe.Mark();
        co_await reader.cpu.Use(request_cpu, probe.Req());
        probe.Cpu(t0);
        t0 = probe.Mark();
        if (ctx.faults == nullptr) {
          co_await ctx.system.network().Transfer(
              ctx.params.fault_request_bytes, 1.0, probe.Req());
        } else {
          co_await FaultyTransfer(ctx, ctx.params.fault_request_bytes,
                                  probe.Req());
        }
        probe.Net(t0);
        t0 = probe.Mark();
        co_await site.cpu.Use(request_cpu, probe.Req());
        co_await site.cpu.Use(disk_cpu, probe.Req());
        probe.CpuAt(t0, site.id);
        t0 = probe.Mark();
        co_await site.disk(extent.disk).Read(extent.start + i, probe.Req());
        probe.DiskAt(t0, site.id);
        t0 = probe.Mark();
        co_await site.cpu.Use(page_cpu, probe.Req());
        probe.CpuAt(t0, site.id);
        t0 = probe.Mark();
        if (ctx.faults == nullptr) {
          co_await ctx.system.network().Transfer(ctx.params.page_bytes, 1.0,
                                                 probe.Req());
        } else {
          co_await FaultyTransfer(ctx, ctx.params.page_bytes, probe.Req());
        }
        probe.Net(t0);
        t0 = probe.Mark();
        co_await reader.cpu.Use(page_cpu, probe.Req());
        probe.Cpu(t0);
        ++ctx.metrics.data_pages_sent;
        ctx.metrics.messages += 2;
        ctx.metrics.bytes_sent +=
            ctx.params.fault_request_bytes + ctx.params.page_bytes;
      }
      const double t0 = probe.Mark();
      co_await out.Put(Page{emit_on_page(i)});
      probe.PutWait(t0, out);
    }
  }
  out.Close();
  probe.Finish(kNoCount, read_pages, client_scan ? faulted : kNoCount);
}

sim::Process SelectProcess(ExecContext& ctx, const PlanNode& node, int op,
                           PageChannel& in, PageChannel& out) {
  SiteRuntime& site = ctx.system.site(node.bound_site);
  const StreamStats& out_stats = ctx.stats.at(&node);
  const int64_t tuples_per_page =
      std::max<int64_t>(1, ctx.params.page_bytes / out_stats.tuple_bytes);
  OutputAccumulator acc(tuples_per_page);
  const double compare = ctx.params.InstrMs(ctx.params.compare_inst);
  const double move = ctx.params.MoveTupleMs(out_stats.tuple_bytes);
  OpProbe probe(ctx, node.bound_site, op, "select");
  int64_t pages_in = 0, pages_out = 0;
  while (true) {
    double t0 = probe.Mark();
    std::optional<Page> page = co_await in.Get();
    probe.GetWait(t0, in);
    if (!page.has_value()) break;
    ++pages_in;
    t0 = probe.Mark();
    co_await site.cpu.Use(compare * page->tuples, probe.Req());
    probe.Cpu(t0);
    acc.Add(page->tuples * node.selectivity);
    pages_out += co_await EmitFullPages(site, acc, move, out, probe);
  }
  pages_out += co_await EmitRemainder(site, acc, move, out, probe);
  out.Close();
  probe.Finish(pages_in, pages_out);
}

sim::Process ProjectProcess(ExecContext& ctx, const PlanNode& node, int op,
                            PageChannel& in, PageChannel& out) {
  SiteRuntime& site = ctx.system.site(node.bound_site);
  const StreamStats& out_stats = ctx.stats.at(&node);
  const int64_t tuples_per_page =
      std::max<int64_t>(1, ctx.params.page_bytes / out_stats.tuple_bytes);
  OutputAccumulator acc(tuples_per_page);
  const double move = ctx.params.MoveTupleMs(out_stats.tuple_bytes);
  OpProbe probe(ctx, node.bound_site, op, "project");
  int64_t pages_in = 0, pages_out = 0;
  while (true) {
    const double t0 = probe.Mark();
    std::optional<Page> page = co_await in.Get();
    probe.GetWait(t0, in);
    if (!page.has_value()) break;
    ++pages_in;
    acc.Add(page->tuples);
    pages_out += co_await EmitFullPages(site, acc, move, out, probe);
  }
  pages_out += co_await EmitRemainder(site, acc, move, out, probe);
  out.Close();
  probe.Finish(pages_in, pages_out);
}

sim::Process AggregateProcess(ExecContext& ctx, const PlanNode& node,
                              int op, PageChannel& in, PageChannel& out) {
  SiteRuntime& site = ctx.system.site(node.bound_site);
  const StreamStats& out_stats = ctx.stats.at(&node);
  const double hash = ctx.params.InstrMs(ctx.params.hash_inst);
  const double compare = ctx.params.InstrMs(ctx.params.compare_inst);
  OpProbe probe(ctx, node.bound_site, op, "aggregate");
  int64_t pages_in = 0;
  // Blocking phase: hash every input tuple into the group table.
  while (true) {
    double t0 = probe.Mark();
    std::optional<Page> page = co_await in.Get();
    probe.GetWait(t0, in);
    if (!page.has_value()) break;
    ++pages_in;
    t0 = probe.Mark();
    co_await site.cpu.Use((hash + compare) * page->tuples, probe.Req());
    probe.Cpu(t0);
  }
  // Emit the groups.
  const int64_t tuples_per_page =
      std::max<int64_t>(1, ctx.params.page_bytes / out_stats.tuple_bytes);
  OutputAccumulator acc(tuples_per_page);
  const double move = ctx.params.MoveTupleMs(out_stats.tuple_bytes);
  acc.Add(static_cast<double>(out_stats.tuples));
  const int64_t pages_out = co_await EmitRemainder(site, acc, move, out, probe);
  out.Close();
  probe.Finish(pages_in, pages_out);
}

sim::Process SortProcess(ExecContext& ctx, const PlanNode& node, int op,
                         PageChannel& in, PageChannel& out) {
  SiteRuntime& site = ctx.system.site(node.bound_site);
  const StreamStats& in_stats = ctx.stats.at(node.left.get());
  const StreamStats& out_stats = ctx.stats.at(&node);
  const double compare = ctx.params.InstrMs(ctx.params.compare_inst);
  const double disk_cpu = ctx.params.DiskCpuMs();
  const double log_n =
      in_stats.tuples > 1 ? std::log2(static_cast<double>(in_stats.tuples))
                          : 1.0;
  const bool spills = ctx.params.buf_alloc == BufAlloc::kMinimum;

  // Memory: in-memory sort needs the whole input; run generation needs the
  // sqrt-sized allocation that guarantees a one-pass merge.
  const int64_t frames =
      spills ? std::max<int64_t>(
                   2, static_cast<int64_t>(std::ceil(std::sqrt(
                          ctx.params.hash_fudge *
                          static_cast<double>(std::max<int64_t>(
                              in_stats.pages, 1))))))
             : std::max<int64_t>(1, in_stats.pages);
  const double mem_t0 = ctx.sim.now();
  co_await site.memory.Acquire(frames);
  OpProbe probe(ctx, node.bound_site, op, "sort");
  probe.MemoryWait(mem_t0);
  int64_t pages_in = 0, pages_out = 0;

  DiskExtent runs{};
  int64_t run_pages = 0;
  if (spills && in_stats.pages > 0) {
    runs = site.AllocateTempOn(0, in_stats.pages + 2);
  }
  // Run-generation phase: consume the input, sort, spill runs.
  const double run_start = probe.now();
  while (true) {
    double t0 = probe.Mark();
    std::optional<Page> page = co_await in.Get();
    probe.GetWait(t0, in);
    if (!page.has_value()) break;
    ++pages_in;
    t0 = probe.Mark();
    co_await site.cpu.Use(compare * log_n * page->tuples, probe.Req());
    probe.Cpu(t0);
    if (spills) {
      co_await probe.UntilUp(site.id);
      t0 = probe.Mark();
      co_await site.cpu.Use(disk_cpu, probe.Req());
      probe.Cpu(t0);
      t0 = probe.Mark();
      co_await site.disk(runs.disk).Write(runs.start + run_pages++);
      probe.Disk(t0);
    }
  }
  if (spills) {
    const double t0 = probe.Mark();
    co_await site.disk(runs.disk).Flush();
    probe.Disk(t0);
  }
  probe.Phase("run-generation", run_start,
             {{"run_pages", static_cast<double>(run_pages)}});
  // Merge/output phase: read the runs back and emit sorted pages.
  const double merge_start = probe.now();
  const int64_t tuples_per_page =
      std::max<int64_t>(1, ctx.params.page_bytes / out_stats.tuple_bytes);
  OutputAccumulator acc(tuples_per_page);
  const double move = ctx.params.MoveTupleMs(out_stats.tuple_bytes);
  if (spills) {
    for (int64_t i = 0; i < run_pages; ++i) {
      co_await probe.UntilUp(site.id);
      double t0 = probe.Mark();
      co_await site.cpu.Use(disk_cpu, probe.Req());
      probe.Cpu(t0);
      t0 = probe.Mark();
      co_await site.disk(runs.disk).Read(runs.start + i, probe.Req());
      probe.Disk(t0);
      acc.Add(static_cast<double>(out_stats.tuples) /
              std::max<int64_t>(run_pages, 1));
      pages_out += co_await EmitFullPages(site, acc, move, out, probe);
    }
  } else {
    acc.Add(static_cast<double>(out_stats.tuples));
  }
  pages_out += co_await EmitRemainder(site, acc, move, out, probe);
  out.Close();
  probe.Phase("merge", merge_start);
  probe.Finish(pages_in, pages_out);
  site.memory.Release(frames);
}

sim::Process UnionProcess(ExecContext& ctx, const PlanNode& node, int op,
                          PageChannel& left, PageChannel& right,
                          PageChannel& out) {
  SiteRuntime& site = ctx.system.site(node.bound_site);
  const StreamStats& out_stats = ctx.stats.at(&node);
  const double move = ctx.params.MoveTupleMs(out_stats.tuple_bytes);
  OpProbe probe(ctx, node.bound_site, op, "union");
  int64_t pages = 0;
  for (PageChannel* input : {&left, &right}) {
    while (true) {
      double t0 = probe.Mark();
      std::optional<Page> page = co_await input->Get();
      probe.GetWait(t0, *input);
      if (!page.has_value()) break;
      ++pages;
      t0 = probe.Mark();
      co_await site.cpu.Use(move * page->tuples, probe.Req());
      probe.Cpu(t0);
      t0 = probe.Mark();
      co_await out.Put(*page);
      probe.PutWait(t0, out);
    }
  }
  out.Close();
  probe.Finish(pages, pages);
}

sim::Process HashJoinProcess(ExecContext& ctx, const PlanNode& node, int op,
                             PageChannel& inner, PageChannel& outer,
                             PageChannel& out) {
  SiteRuntime& site = ctx.system.site(node.bound_site);
  const StreamStats& inner_stats = ctx.stats.at(node.left.get());
  const StreamStats& outer_stats = ctx.stats.at(node.right.get());
  const StreamStats& out_stats = ctx.stats.at(&node);
  const HashJoinModel hj = ComputeHashJoinModel(
      inner_stats.pages, ctx.params.buf_alloc, ctx.params.hash_fudge);

  const double hash = ctx.params.InstrMs(ctx.params.hash_inst);
  const double compare = ctx.params.InstrMs(ctx.params.compare_inst);
  const double move_in = ctx.params.MoveTupleMs(inner_stats.tuple_bytes);
  const double move_out = ctx.params.MoveTupleMs(out_stats.tuple_bytes);
  const double disk_cpu = ctx.params.DiskCpuMs();

  const double mem_t0 = ctx.sim.now();
  co_await site.memory.Acquire(hj.memory_frames);
  OpProbe probe(ctx, node.bound_site, op, "join");
  probe.MemoryWait(mem_t0);
  int64_t pages_in = 0, pages_out = 0;

  // Temp extents: one per partition and side, so partition writes hop
  // between extents (seeks) while partition reads are sequential runs.
  const int partitions = std::max(1, hj.num_partitions);
  const int64_t inner_spill_total = hj.SpillPages(inner_stats.pages);
  const int64_t outer_spill_total = hj.SpillPages(outer_stats.pages);
  std::vector<DiskExtent> inner_extent(partitions), outer_extent(partitions);
  std::vector<int64_t> inner_written(partitions, 0), outer_written(partitions, 0);
  if (!hj.in_memory()) {
    const int64_t inner_cap = inner_spill_total / partitions + 2;
    const int64_t outer_cap = outer_spill_total / partitions + 2;
    for (int p = 0; p < partitions; ++p) {
      // Stripe partitions over the site's disks; a partition's inner and
      // outer halves share an arm (they are read back to back anyway).
      inner_extent[p] = site.AllocateTempOn(p, inner_cap);
      outer_extent[p] = site.AllocateTempOn(p, outer_cap);
    }
  }

  // --- build phase: consume the inner input -----------------------------
  const double build_start = probe.now();
  double spill_acc = 0.0;  // fractional pages destined for temp storage
  int next_partition = 0;
  while (true) {
    double t0 = probe.Mark();
    std::optional<Page> page = co_await inner.Get();
    probe.GetWait(t0, inner);
    if (!page.has_value()) break;
    ++pages_in;
    t0 = probe.Mark();
    co_await site.cpu.Use((hash + move_in) * page->tuples, probe.Req());
    probe.Cpu(t0);
    if (!hj.in_memory()) {
      spill_acc += hj.spill_fraction;
      while (spill_acc >= 1.0) {
        spill_acc -= 1.0;
        const int p = next_partition;
        next_partition = (next_partition + 1) % partitions;
        co_await probe.UntilUp(site.id);
        t0 = probe.Mark();
        co_await site.cpu.Use(disk_cpu, probe.Req());
        probe.Cpu(t0);
        t0 = probe.Mark();
        co_await site.disk(inner_extent[p].disk)
            .Write(inner_extent[p].start + inner_written[p]++);
        probe.Disk(t0);
      }
    }
  }
  if (!hj.in_memory()) {
    const double t0 = probe.Mark();
    for (int d = 0; d < site.num_disks(); ++d) {
      co_await site.disk(d).Flush();
    }
    probe.Disk(t0);
  }
  probe.Phase("build", build_start,
             {{"spilled_pages", static_cast<double>(inner_spill_total)}});

  // --- probe phase: stream the outer input ------------------------------
  const double probe_start = probe.now();
  const int64_t out_tuples_per_page =
      std::max<int64_t>(1, ctx.params.page_bytes / out_stats.tuple_bytes);
  OutputAccumulator acc(out_tuples_per_page);
  const double resident_fraction = 1.0 - hj.spill_fraction;
  const double resident_out_per_outer_tuple =
      outer_stats.tuples > 0
          ? static_cast<double>(out_stats.tuples) * resident_fraction /
                static_cast<double>(outer_stats.tuples)
          : 0.0;
  spill_acc = 0.0;
  next_partition = 0;
  while (true) {
    double t0 = probe.Mark();
    std::optional<Page> page = co_await outer.Get();
    probe.GetWait(t0, outer);
    if (!page.has_value()) break;
    ++pages_in;
    t0 = probe.Mark();
    co_await site.cpu.Use((hash + compare) * page->tuples, probe.Req());
    probe.Cpu(t0);
    acc.Add(page->tuples * resident_out_per_outer_tuple);
    pages_out += co_await EmitFullPages(site, acc, move_out, out, probe);
    if (!hj.in_memory()) {
      spill_acc += hj.spill_fraction;
      while (spill_acc >= 1.0) {
        spill_acc -= 1.0;
        const int p = next_partition;
        next_partition = (next_partition + 1) % partitions;
        co_await probe.UntilUp(site.id);
        t0 = probe.Mark();
        co_await site.cpu.Use(disk_cpu, probe.Req());
        probe.Cpu(t0);
        t0 = probe.Mark();
        co_await site.disk(outer_extent[p].disk)
            .Write(outer_extent[p].start + outer_written[p]++);
        probe.Disk(t0);
      }
    }
  }

  probe.Phase("probe", probe_start,
             {{"spilled_pages", static_cast<double>(outer_spill_total)}});

  // --- partition phase: join the spilled partition pairs ----------------
  if (!hj.in_memory()) {
    const double partition_start = probe.now();
    double t0 = probe.Mark();
    for (int d = 0; d < site.num_disks(); ++d) {
      co_await site.disk(d).Flush();
    }
    probe.Disk(t0);
    const int64_t inner_tpp =
        std::max<int64_t>(1, ctx.params.page_bytes / inner_stats.tuple_bytes);
    const int64_t outer_tpp =
        std::max<int64_t>(1, ctx.params.page_bytes / outer_stats.tuple_bytes);
    const double spilled_out_total =
        static_cast<double>(out_stats.tuples) * hj.spill_fraction;
    for (int p = 0; p < partitions; ++p) {
      // Rebuild the hash table from the spilled inner partition.
      for (int64_t i = 0; i < inner_written[p]; ++i) {
        co_await probe.UntilUp(site.id);
        t0 = probe.Mark();
        co_await site.cpu.Use(disk_cpu, probe.Req());
        probe.Cpu(t0);
        t0 = probe.Mark();
        co_await site.disk(inner_extent[p].disk)
            .Read(inner_extent[p].start + i, probe.Req());
        probe.Disk(t0);
        t0 = probe.Mark();
        co_await site.cpu.Use((hash + move_in) *
                                  static_cast<double>(inner_tpp),
                              probe.Req());
        probe.Cpu(t0);
      }
      // Probe with the spilled outer partition.
      for (int64_t i = 0; i < outer_written[p]; ++i) {
        co_await probe.UntilUp(site.id);
        t0 = probe.Mark();
        co_await site.cpu.Use(disk_cpu, probe.Req());
        probe.Cpu(t0);
        t0 = probe.Mark();
        co_await site.disk(outer_extent[p].disk)
            .Read(outer_extent[p].start + i, probe.Req());
        probe.Disk(t0);
        t0 = probe.Mark();
        co_await site.cpu.Use((hash + compare) *
                                  static_cast<double>(outer_tpp),
                              probe.Req());
        probe.Cpu(t0);
      }
      acc.Add(spilled_out_total / partitions);
      pages_out += co_await EmitFullPages(site, acc, move_out, out, probe);
    }
    probe.Phase("partition", partition_start,
               {{"partitions", static_cast<double>(partitions)}});
  }

  pages_out += co_await EmitRemainder(site, acc, move_out, out, probe);
  out.Close();
  probe.Finish(pages_in, pages_out);
  site.memory.Release(hj.memory_frames);
}

sim::Process DisplayProcess(ExecContext& ctx, const PlanNode& node, int op,
                            PageChannel& in) {
  SiteRuntime& client = ctx.system.site(node.bound_site);
  const double display = ctx.params.InstrMs(ctx.params.display_inst);
  OpProbe probe(ctx, node.bound_site, op, "display");
  int64_t pages = 0;
  while (true) {
    double t0 = probe.Mark();
    std::optional<Page> page = co_await in.Get();
    probe.GetWait(t0, in);
    if (!page.has_value()) break;
    ++pages;
    t0 = probe.Mark();
    co_await client.cpu.Use(display * page->tuples, probe.Req());
    probe.Cpu(t0);
  }
  probe.Finish(pages, kNoCount);
  ctx.metrics.response_ms = ctx.sim.now() - ctx.start_ms;
  if (ctx.on_done) ctx.on_done();
}

sim::Process NetSendProcess(ExecContext& ctx, SiteId from, int op, int record,
                            PageChannel& in, PageChannel& wire,
                            uint64_t flow_base) {
  SiteRuntime& site = ctx.system.site(from);
  const double page_cpu = ctx.params.MsgCpuMs(ctx.params.page_bytes);
  OpProbe probe(ctx, from, op, record, "ship-send");
  int64_t pages = 0;
  uint64_t flow_seq = 0;
  while (true) {
    double t0 = probe.Mark();
    std::optional<Page> page = co_await in.Get();
    probe.GetWait(t0, in);
    if (!page.has_value()) break;
    ++pages;
    co_await probe.UntilUp(from);
    t0 = probe.Mark();
    co_await site.cpu.Use(page_cpu, probe.Req());
    probe.Cpu(t0);
    t0 = probe.Mark();
    if (ctx.faults == nullptr) {
      co_await ctx.system.network().Transfer(ctx.params.page_bytes, 1.0,
                                             probe.Req());
    } else {
      co_await FaultyTransfer(ctx, ctx.params.page_bytes, probe.Req());
    }
    probe.Net(t0);
    ++ctx.metrics.data_pages_sent;
    ++ctx.metrics.messages;
    ctx.metrics.bytes_sent += ctx.params.page_bytes;
    probe.Flow(true, flow_base + flow_seq++);
    t0 = probe.Mark();
    co_await wire.Put(*page);
    probe.PutWait(t0, wire);
  }
  wire.Close();
  probe.Finish(kNoCount, pages);
}

sim::Process NetRecvProcess(ExecContext& ctx, SiteId to, int op, int record,
                            PageChannel& wire, PageChannel& out,
                            uint64_t flow_base) {
  SiteRuntime& site = ctx.system.site(to);
  const double page_cpu = ctx.params.MsgCpuMs(ctx.params.page_bytes);
  OpProbe probe(ctx, to, op, record, "ship-recv");
  int64_t pages = 0;
  uint64_t flow_seq = 0;
  while (true) {
    double t0 = probe.Mark();
    std::optional<Page> page = co_await wire.Get();
    probe.GetWait(t0, wire);
    if (!page.has_value()) break;
    ++pages;
    // Pages cross the wire in FIFO order, so the n-th receipt pairs with
    // the n-th send on this channel.
    probe.Flow(false, flow_base + flow_seq++);
    co_await probe.UntilUp(to);
    t0 = probe.Mark();
    co_await site.cpu.Use(page_cpu, probe.Req());
    probe.Cpu(t0);
    t0 = probe.Mark();
    co_await out.Put(*page);
    probe.PutWait(t0, out);
  }
  out.Close();
  probe.Finish(pages, kNoCount);
}

sim::Process LoadGeneratorProcess(sim::Simulator& sim, SiteRuntime& site,
                                  const CostParams& params,
                                  double requests_per_sec, uint64_t seed,
                                  const bool* stop, sim::FaultState* faults) {
  DIMSUM_CHECK_GT(requests_per_sec, 0.0);
  Rng rng(seed);
  const double mean_gap_ms = 1000.0 / requests_per_sec;
  const int64_t pages = site.disk(0).params().total_pages();
  struct OneRead {
    static sim::Process Run(SiteRuntime& site, int disk, int64_t block,
                            double disk_cpu) {
      co_await site.cpu.Use(disk_cpu);
      co_await site.disk(disk).Read(block);
    }
  };
  while (!*stop) {
    co_await sim.Delay(rng.Exponential(mean_gap_ms));
    if (*stop) break;
    const int disk =
        static_cast<int>(rng.UniformInt(0, site.num_disks() - 1));
    const int64_t block = rng.UniformInt(0, pages - 1);
    // External requests against a crashed server are lost, not queued.
    if (faults != nullptr && faults->SiteDown(site.id, sim.now())) continue;
    sim.Spawn(OneRead::Run(site, disk, block, params.DiskCpuMs()));
  }
}

}  // namespace dimsum
