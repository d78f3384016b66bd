#include "cost/response_time.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "cost/cardinality.h"
#include "cost/hash_join_model.h"

namespace dimsum {
namespace {

/// Order-preserving numbering of the sites one plan touches: the i-th
/// smallest gets index i. Slot rows are then as wide as the plan's site
/// count, not as its highest site id (a home client may be site 999).
class SiteIndex {
 public:
  /// Forgets the previous plan's sites.
  void Clear() {
    for (const SiteId site : sites_) {
      index_[static_cast<std::size_t>(site)] = -1;
    }
    sites_.clear();
  }
  void Add(SiteId site) {
    const auto at = static_cast<std::size_t>(site);
    if (at >= index_.size()) index_.resize(at + 1, -1);
    if (index_[at] >= 0) return;
    index_[at] = 0;  // seen; numbered by Number()
    sites_.push_back(site);
  }
  /// Numbers the added sites in ascending order; returns their count.
  int Number() {
    std::sort(sites_.begin(), sites_.end());
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      index_[static_cast<std::size_t>(sites_[i])] = static_cast<int>(i);
    }
    return static_cast<int>(sites_.size());
  }
  int operator[](SiteId site) const {
    return index_[static_cast<std::size_t>(site)];
  }

 private:
  std::vector<int> index_;     // by site id; -1 for sites not in the plan
  std::vector<SiteId> sites_;  // the plan's sites
};

/// Resource slots of one plan's phase graph, laid out in the order the
/// model sums them: CPU by site, then disk by (site, arm), then the
/// network, then one serial page-fault chain per client scan. Every site
/// of the plan gets its CPU and disk slots, used or not; an unused slot
/// holds exactly 0.
struct SlotLayout {
  const SiteIndex* index = nullptr;
  int sites = 0;   // sites the plan touches
  int disks = 1;   // arms per site
  int chains = 0;  // client scans, each of which may own a chain

  int Cpu(SiteId site) const { return (*index)[site]; }
  int Disk(SiteId site, int sub) const {
    return sites + (*index)[site] * disks + sub;
  }
  int Net() const { return sites + sites * disks; }
  int Chain(int id) const { return Net() + 1 + id; }
  int size() const { return Net() + 1 + chains; }
};

/// One resource a demand lands on: its slot, plus the kind and site the
/// explain roll-ups file it under.
struct Res {
  enum Kind { kCpu, kDisk, kNet, kChain } kind;
  SiteId site;  // cpu/disk owner; 0 for net and chains
  int slot;
};

/// DAG of pipelined phases with union-find merging. A phase's duration is
/// the maximum of its per-resource demands (full-overlap assumption); its
/// finish time is its duration plus the latest finish of its predecessors.
///
/// Interference: sequential scan I/O in a phase whose disk also serves
/// temporary (join partition) I/O loses its sequentiality (the simulator's
/// read-ahead is destroyed by interleaved requests), so such scan demand is
/// inflated to the random-I/O rate via `seq_to_rand_factor`.
///
/// Storage is dense: each phase owns one row of SlotLayout::size() demand
/// entries (plus rows of interference-eligible scan demand and temp-I/O
/// flags, and a bitmask of the slots holding a demand), and the rows of
/// every phase sit back to back in arrays that Reset keeps allocated for
/// the next plan. Summation order is the model's contract: every
/// per-resource sum adds the same terms in the same order whatever the
/// storage, and the total walks phases in creation order and used slots
/// in layout order.
class PhaseGraph {
 public:
  /// Empties the graph for a plan of `phases` phases whose resources fit
  /// `layout`, every demand zero.
  void Reset(const SlotLayout& layout, int phases, double seq_to_rand_factor) {
    width_ = static_cast<std::size_t>(layout.size());
    chains_ = static_cast<std::size_t>(layout.Chain(0));
    seq_to_rand_factor_ = seq_to_rand_factor;
    phases_ = static_cast<std::size_t>(phases);
    words_ = (width_ + 63) / 64;
    const std::size_t cells = phases_ * width_;
    usage_.assign(cells, 0.0);
    scan_seq_ms_.assign(cells, 0.0);
    temp_disk_.assign(cells, 0);
    used_.assign(phases_ * words_, 0);
    parent_.clear();
    deps_.clear();
  }

  int NewPhase() {
    DIMSUM_CHECK_LT(parent_.size(), phases_);
    parent_.push_back(static_cast<int>(parent_.size()));
    return static_cast<int>(parent_.size()) - 1;
  }

  int num_phases() const { return static_cast<int>(parent_.size()); }

  void AddUsage(int phase, int slot, double ms) {
    if (ms <= 0.0) return;
    usage_[MarkUsed(Find(phase), slot)] += ms;
  }

  /// Adds sequential-scan disk demand, eligible for the interference
  /// inflation when the same phase also has temp I/O on that disk.
  void AddScanDisk(int phase, int slot, double ms) {
    if (ms <= 0.0) return;
    const std::size_t at = MarkUsed(Find(phase), slot);
    usage_[at] += ms;
    scan_seq_ms_[at] += ms;
  }

  /// Marks temp (partition) I/O on a disk within the phase.
  void AddTempDisk(int phase, int slot, double ms) {
    if (ms <= 0.0) return;
    const std::size_t at = MarkUsed(Find(phase), slot);
    usage_[at] += ms;
    temp_disk_[at] = 1;
  }

  void AddDep(int phase, int before) { deps_.emplace_back(phase, before); }

  /// Folds `b` into `a`; both ids remain usable and resolve to the merged
  /// phase. Returns the representative. `b`'s row is dead afterwards.
  int Merge(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return a;
    const std::size_t to = Row(a);
    const std::size_t from = Row(b);
    // Slots b leaves unused hold +0.0; adding them would change nothing.
    ForEachUsed(b, [&](std::size_t s) {
      usage_[to + s] += usage_[from + s];
      scan_seq_ms_[to + s] += scan_seq_ms_[from + s];
      temp_disk_[to + s] |= temp_disk_[from + s];
    });
    for (std::size_t w = 0; w < words_; ++w) {
      used_[static_cast<std::size_t>(a) * words_ + w] |=
          used_[static_cast<std::size_t>(b) * words_ + w];
    }
    parent_[static_cast<std::size_t>(b)] = a;
    return a;
  }

  /// Schedules the finished graph: each representative phase's duration
  /// and critical-path finish, the response time (the latest finish) and
  /// the total usage. Call once, after the last demand is added.
  void Schedule() {
    const std::size_t n = parent_.size();
    duration_.assign(n, 0.0);
    finish_.assign(n, -1.0);
    // The graph is complete, so dependencies can be resolved in place.
    for (auto& [phase, before] : deps_) {
      phase = Find(phase);
      before = Find(before);
    }
    total_ms_ = 0.0;
    for (int i = 0; i < num_phases(); ++i) {
      if (Find(i) != i) continue;
      const std::size_t row = Row(i);
      double duration = 0.0;
      ForEachUsed(i, [&](std::size_t s) {
        double effective = usage_[row + s];
        if (temp_disk_[row + s] != 0 && scan_seq_ms_[row + s] != 0.0) {
          effective += scan_seq_ms_[row + s] * (seq_to_rand_factor_ - 1.0);
        }
        duration = std::max(duration, effective);
        // Chains are excluded from the total: their components are also
        // charged to the real resources. The interference surcharge is
        // included; it represents real extra disk time.
        if (s < chains_) total_ms_ += effective;
      });
      duration_[static_cast<std::size_t>(i)] = duration;
    }
    response_ms_ = 0.0;
    for (int i = 0; i < num_phases(); ++i) {
      if (Find(i) == i) response_ms_ = std::max(response_ms_, Finish(i));
    }
  }

  /// Results of Schedule().
  double response_ms() const { return response_ms_; }
  double total_ms() const { return total_ms_; }
  double Duration(int phase) {
    return duration_[static_cast<std::size_t>(Find(phase))];
  }
  double FinishTime(int phase) {
    return finish_[static_cast<std::size_t>(Find(phase))];
  }

  /// Resolves a phase id to its merged representative.
  int Resolve(int phase) { return Find(phase); }

 private:
  std::size_t Row(int phase) const {
    return static_cast<std::size_t>(phase) * width_;
  }

  /// Marks `slot` used in representative `phase`; returns its cell.
  std::size_t MarkUsed(int phase, int slot) {
    const auto s = static_cast<std::size_t>(slot);
    used_[static_cast<std::size_t>(phase) * words_ + s / 64] |=
        uint64_t{1} << (s % 64);
    return Row(phase) + s;
  }

  /// Calls `fn(slot)` for each slot `phase` uses, in ascending order.
  template <typename Fn>
  void ForEachUsed(int phase, Fn&& fn) const {
    const uint64_t* words = &used_[static_cast<std::size_t>(phase) * words_];
    for (std::size_t w = 0; w < words_; ++w) {
      for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

  int Find(int i) {
    while (parent_[static_cast<std::size_t>(i)] != i) {
      const int up = parent_[static_cast<std::size_t>(i)];
      parent_[static_cast<std::size_t>(i)] =
          parent_[static_cast<std::size_t>(up)];
      i = parent_[static_cast<std::size_t>(i)];
    }
    return i;
  }

  /// Critical-path finish of representative `i`.
  double Finish(int i) {
    double& finish = finish_[static_cast<std::size_t>(i)];
    if (finish >= 0.0) return finish;
    finish = 0.0;  // guards against (impossible) cycles
    double start = 0.0;
    for (const auto& [phase, before] : deps_) {
      if (phase == i && before != i) start = std::max(start, Finish(before));
    }
    finish = start + duration_[static_cast<std::size_t>(i)];
    return finish;
  }

  std::size_t phases_ = 0;  // rows allocated
  std::size_t width_ = 0;   // slots per phase
  std::size_t chains_ = 0;  // first chain slot
  double seq_to_rand_factor_ = 1.0;
  std::vector<double> usage_;        // phase-major rows of width_
  std::vector<double> scan_seq_ms_;  // interference-eligible demand
  std::vector<uint8_t> temp_disk_;   // disks with temp I/O this phase
  std::vector<uint64_t> used_;       // per phase, words_ bitmasks of slots
  std::size_t words_ = 0;            // that hold a demand
  std::vector<int> parent_;
  std::vector<std::pair<int, int>> deps_;  // (phase, predecessor)
  std::vector<double> duration_;  // by representative
  std::vector<double> finish_;    // by representative
  double response_ms_ = 0.0;
  double total_ms_ = 0.0;
};

/// Buffers one thread reuses across estimates.
struct Scratch {
  std::vector<StreamStats> stats;  // per node, pre-order
  std::vector<int> sizes;          // subtree node counts, pre-order
  SiteIndex sites;
  PhaseGraph graph;
};

Scratch& ThisThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

/// Records the node count of every subtree in pre-order, adds the sites
/// the subtree rooted at `node` touches to `*sites`, and counts its client
/// scans into `layout` and the phases its costing creates into `*phases`.
/// Returns the subtree's node count.
int Measure(const PlanNode& node, const Catalog& catalog,
            std::vector<int>* sizes, SiteIndex* sites, SlotLayout* layout,
            int* phases) {
  DIMSUM_CHECK_NE(node.bound_site, kUnboundSite)
      << "estimates need a fully bound plan";
  const std::size_t index = sizes->size();
  sizes->push_back(0);
  sites->Add(node.bound_site);
  switch (node.type) {
    case OpType::kScan:
      ++*phases;
      if (node.annotation == SiteAnnotation::kPrimaryCopy) break;
      // A client scan faults pages in from its serving copies.
      ++layout->chains;
      if (catalog.sharded(node.relation)) {
        for (int k = 0; k < catalog.NumShards(node.relation); ++k) {
          sites->Add(catalog.ShardSite(node.relation, k, node.replica));
        }
      } else {
        sites->Add(catalog.ReplicaSite(node.relation, node.replica));
      }
      break;
    case OpType::kAggregate:
    case OpType::kSort:
    case OpType::kJoin:
      ++*phases;  // the blocking operator's output (or probe) phase
      break;
    default:
      break;
  }
  int size = 1;
  if (node.left) {
    size += Measure(*node.left, catalog, sizes, sites, layout, phases);
  }
  if (node.right) {
    size += Measure(*node.right, catalog, sizes, sites, layout, phases);
  }
  (*sizes)[index] = size;
  return size;
}

class Builder {
 public:
  /// `stats` and `sizes` hold every node's output statistics and subtree
  /// node count in pre-order. `explain` (optional) receives per-operator
  /// demand tallies; its `ops` vector must already hold one record per
  /// plan node, in pre-order.
  Builder(const Catalog& catalog, const CostParams& params,
          const SiteFactors& sites, const std::vector<StreamStats>& stats,
          const std::vector<int>& sizes, const SlotLayout& layout,
          PhaseGraph* graph, PlanEstimate* explain)
      : catalog_(catalog),
        params_(params),
        sites_(sites),
        stats_(stats),
        sizes_(sizes),
        layout_(layout),
        graph_(*graph),
        out_(explain),
        page_cpu_(params.MsgCpuMs(params.page_bytes)),
        request_cpu_(params.MsgCpuMs(params.fault_request_bytes)),
        page_wire_(params.WireMs(params.page_bytes)),
        request_wire_(params.WireMs(params.fault_request_bytes)),
        disk_cpu_(params.DiskCpuMs()),
        hash_cpu_(params.InstrMs(params.hash_inst)),
        compare_cpu_(params.InstrMs(params.compare_inst)),
        display_cpu_(params.InstrMs(params.display_inst)) {
    if (out_ != nullptr) raw_phase_.assign(out_->ops.size(), -1);
  }

  /// Raw (unresolved) output-phase id per op_id; valid after Build.
  const std::vector<int>& raw_phases() const { return raw_phase_; }

  /// Builds the phases of the subtree rooted at `node`, the plan's node
  /// `i` in pre-order; returns the id of the phase producing the node's
  /// output stream. Demand added while `node` itself is being costed (not
  /// its children) is tallied into its explain record, if one was
  /// requested.
  int Build(const PlanNode& node, int i) {
    OperatorEstimate* saved = cur_;
    if (out_ != nullptr) cur_ = &out_->ops[static_cast<std::size_t>(i)];
    const int phase = Dispatch(node, i);
    if (cur_ != nullptr) raw_phase_[static_cast<std::size_t>(i)] = phase;
    cur_ = saved;
    return phase;
  }

 private:
  int Dispatch(const PlanNode& node, int i) {
    switch (node.type) {
      case OpType::kScan:
        return BuildScan(node);
      case OpType::kSelect:
        return BuildSelect(node, i);
      case OpType::kProject:
        return BuildProject(node, i);
      case OpType::kAggregate:
        return BuildAggregate(node, i);
      case OpType::kSort:
        return BuildSort(node, i);
      case OpType::kJoin:
        return BuildJoin(node, i);
      case OpType::kUnion:
        return BuildUnion(node, i);
      case OpType::kDisplay:
        return BuildDisplay(node, i);
    }
    DIMSUM_UNREACHABLE();
  }

  /// Pre-order indexes of node `i`'s children.
  static int Left(int i) { return i + 1; }
  int Right(int i) const {
    return i + 1 + sizes_[static_cast<std::size_t>(i + 1)];
  }

  const StreamStats& Out(int i) const {
    return stats_[static_cast<std::size_t>(i)];
  }

  Res Cpu(SiteId site) const {
    return Res{Res::kCpu, site, layout_.Cpu(site)};
  }
  /// A site's disks are distinguished by a sub-index so that the model can
  /// credit multi-disk sites (Table 2's NumDisks) with intra-site I/O
  /// parallelism: base relations hash to one arm, temp I/O stripes over all.
  Res DiskOf(SiteId site, int sub) const {
    return Res{Res::kDisk, site, layout_.Disk(site, sub)};
  }
  Res Net() const { return Res{Res::kNet, 0, layout_.Net()}; }
  Res Chain(int id) const { return Res{Res::kChain, 0, layout_.Chain(id)}; }

  /// Wrappers over PhaseGraph that additionally attribute the demand to
  /// the operator currently being built and to the per-site roll-ups.
  /// Pure bookkeeping: the phase graph sees exactly the same calls.
  void Use(int phase, Res res, double ms) {
    graph_.AddUsage(phase, res.slot, ms);
    Tally(res, ms);
  }
  void UseScanDisk(int phase, Res res, double ms) {
    graph_.AddScanDisk(phase, res.slot, ms);
    Tally(res, ms);
  }
  void UseTempDisk(int phase, Res res, double ms) {
    graph_.AddTempDisk(phase, res.slot, ms);
    Tally(res, ms);
  }
  void Tally(Res res, double ms) {
    if (out_ == nullptr || ms <= 0.0) return;
    switch (res.kind) {
      case Res::kCpu:
        if (cur_ != nullptr) cur_->cpu_ms += ms;
        out_->cpu_ms_by_site[res.site] += ms;
        break;
      case Res::kDisk:
        if (cur_ != nullptr) cur_->disk_ms += ms;
        out_->disk_ms_by_site[res.site] += ms;
        break;
      case Res::kNet:
        if (cur_ != nullptr) cur_->net_ms += ms;
        out_->net_ms += ms;
        break;
      case Res::kChain:
        if (cur_ != nullptr) cur_->chain_ms += ms;
        break;
    }
  }
  /// Disk-demand inflation under external load at `site`.
  double LoadFactor(SiteId site) const { return sites_.Load(site); }

  int NumDisks() const { return layout_.disks; }

  /// Adds CPU demand at `site`, honoring per-site speed overrides.
  void AddCpu(int phase, SiteId site, double default_speed_ms) {
    Use(phase, Cpu(site), default_speed_ms * sites_.Cpu(site));
  }

  /// Disk sub-index a relation's extent maps to (round-robin placement).
  int DiskSub(RelationId relation) const {
    return static_cast<int>(relation % NumDisks());
  }

  /// Disk sub-index of a shard's extent: shards round-robin over a site's
  /// arms starting at the relation's arm, matching ExecSystem::LoadData.
  int ShardDiskSub(RelationId relation, int shard) const {
    return static_cast<int>((relation + (shard > 0 ? shard : 0)) %
                            NumDisks());
  }

  /// Spreads temp (partition) I/O demand evenly over a site's disks.
  void AddTempSpread(int phase, SiteId site, double total_ms) {
    const int n = NumDisks();
    for (int d = 0; d < n; ++d) {
      UseTempDisk(phase, DiskOf(site, d), total_ms / n);
    }
  }

  int BuildScan(const PlanNode& node) {
    const int phase = graph_.NewPhase();
    // Pages this fragment reads: its shard's extent (or the whole
    // relation when logical); zero when the key restriction is empty.
    const int64_t pages =
        catalog_
            .ScanExtent(node.relation, node.shard, node.key_lo, node.key_hi,
                        params_.page_bytes)
            .pages;
    if (node.annotation == SiteAnnotation::kPrimaryCopy) {
      const SiteId server = node.bound_site;
      UseScanDisk(phase,
                  DiskOf(server, ShardDiskSub(node.relation, node.shard)),
                  static_cast<double>(pages) * params_.seq_page_ms *
                      LoadFactor(server));
      AddCpu(phase, server, static_cast<double>(pages) * disk_cpu_);
      return phase;
    }
    if (catalog_.sharded(node.relation)) {
      return BuildClientShardedScan(node, phase);
    }
    // Client scan: cached prefix from the client disk, the rest faulted in
    // from the scan's serving replica one page at a time, synchronously.
    const SiteId client = node.bound_site;
    const SiteId server = catalog_.ReplicaSite(node.relation, node.replica);
    const int64_t cached = std::min(
        catalog_.CachedPages(node.relation, client, params_.page_bytes),
        pages);
    const int64_t faulted = pages - cached;
    UseScanDisk(phase, DiskOf(client, DiskSub(node.relation)),
                static_cast<double>(cached) * params_.seq_page_ms *
                    LoadFactor(client));
    AddCpu(phase, client, static_cast<double>(cached) * disk_cpu_);
    if (faulted > 0) {
      const double server_disk = params_.seq_page_ms * LoadFactor(server);
      const double round_trip =
          request_cpu_ +             // client sends request
          request_wire_ +            // request on the wire
          request_cpu_ +             // server receives request
          disk_cpu_ + server_disk +  // server reads the page
          page_cpu_ +                // server sends the page
          page_wire_ +               // page on the wire
          page_cpu_;                 // client receives the page
      const double f = static_cast<double>(faulted);
      Use(phase, Chain(next_chain_id_++), f * round_trip);
      AddCpu(phase, client, f * (request_cpu_ + page_cpu_));
      AddCpu(phase, server, f * (request_cpu_ + page_cpu_ + disk_cpu_));
      Use(phase, DiskOf(server, DiskSub(node.relation)), f * server_disk);
      Use(phase, Net(), f * (request_wire_ + page_wire_));
    }
    return phase;
  }

  /// Client scan of a sharded relation: nothing is cached (the catalog
  /// forbids caching sharded relations), so every shard's pages fault in
  /// from that shard's serving copy one page at a time. The round trips
  /// all serialize on one chain (the client blocks per page), but each
  /// shard's disk demand lands on its own site, so the cost mirrors what
  /// the executor simulates.
  int BuildClientShardedScan(const PlanNode& node, int phase) {
    const SiteId client = node.bound_site;
    const double wire_ms = request_wire_ + page_wire_;
    double chain_ms = 0.0;
    for (int k = 0; k < catalog_.NumShards(node.relation); ++k) {
      const double f = static_cast<double>(
          catalog_.ShardPages(node.relation, k, params_.page_bytes));
      if (f <= 0.0) continue;
      const SiteId server = catalog_.ShardSite(node.relation, k, node.replica);
      const double server_disk = params_.seq_page_ms * LoadFactor(server);
      chain_ms += f * (request_cpu_ + request_cpu_ + disk_cpu_ +
                       server_disk + page_cpu_ + page_cpu_ + wire_ms);
      AddCpu(phase, client, f * (request_cpu_ + page_cpu_));
      AddCpu(phase, server, f * (request_cpu_ + page_cpu_ + disk_cpu_));
      Use(phase, DiskOf(server, ShardDiskSub(node.relation, k)),
          f * server_disk);
      Use(phase, Net(), f * wire_ms);
    }
    Use(phase, Chain(next_chain_id_++), chain_ms);
    return phase;
  }

  /// Adds pipelined network-transfer demand for a stream of `pages` flowing
  /// from `from` to `to` into `phase`.
  void AddNetEdge(int phase, SiteId from, SiteId to, int64_t pages) {
    if (from == to || pages == 0) return;
    const double p = static_cast<double>(pages);
    AddCpu(phase, from, p * page_cpu_);
    AddCpu(phase, to, p * page_cpu_);
    Use(phase, Net(), p * page_wire_);
  }

  int BuildSelect(const PlanNode& node, int i) {
    const int phase = Build(*node.left, Left(i));
    AddNetEdge(phase, node.left->bound_site, node.bound_site,
               Out(Left(i)).pages);
    const StreamStats& in = Out(Left(i));
    AddCpu(phase, node.bound_site,
           static_cast<double>(in.tuples) * compare_cpu_);
    return phase;
  }

  int BuildProject(const PlanNode& node, int i) {
    const int phase = Build(*node.left, Left(i));
    AddNetEdge(phase, node.left->bound_site, node.bound_site,
               Out(Left(i)).pages);
    // Copy every input tuple at the (narrower) output width.
    AddCpu(phase, node.bound_site,
           static_cast<double>(Out(Left(i)).tuples) *
               params_.MoveTupleMs(Out(i).tuple_bytes));
    return phase;
  }

  int BuildAggregate(const PlanNode& node, int i) {
    // Hash aggregation is blocking: the input pipeline completes before any
    // group is emitted, so the output starts a new phase.
    const int input = Build(*node.left, Left(i));
    AddNetEdge(input, node.left->bound_site, node.bound_site,
               Out(Left(i)).pages);
    AddCpu(input, node.bound_site,
           static_cast<double>(Out(Left(i)).tuples) *
               (hash_cpu_ + compare_cpu_));
    const int output = graph_.NewPhase();
    graph_.AddDep(output, input);
    AddCpu(output, node.bound_site,
           static_cast<double>(Out(i).tuples) *
               params_.MoveTupleMs(Out(i).tuple_bytes));
    return output;
  }

  int BuildSort(const PlanNode& node, int i) {
    // External merge sort: blocking. With maximum allocation the input is
    // sorted in memory; with minimum allocation sorted runs are written to
    // temp storage and merged back in one pass (the sqrt-sized allocation
    // guarantees a single merge level, as with hybrid hash).
    const StreamStats& in = Out(Left(i));
    const SiteId site = node.bound_site;
    const int input = Build(*node.left, Left(i));
    AddNetEdge(input, node.left->bound_site, site, in.pages);
    const double log_n =
        in.tuples > 1 ? std::log2(static_cast<double>(in.tuples)) : 1.0;
    AddCpu(input, site,
           static_cast<double>(in.tuples) *
               compare_cpu_ * log_n);
    const bool spills = params_.buf_alloc == BufAlloc::kMinimum;
    if (spills) {
      UseTempDisk(input, DiskOf(site, 0),
                  static_cast<double>(in.pages) * params_.rand_page_ms *
                      LoadFactor(site));
      AddCpu(input, site, static_cast<double>(in.pages) * disk_cpu_);
    }
    const int output = graph_.NewPhase();
    graph_.AddDep(output, input);
    if (spills) {
      // Merge pass: read the runs back.
      AddTempSpread(output, site,
                    static_cast<double>(in.pages) * params_.seq_page_ms *
                        LoadFactor(site));
      AddCpu(output, site, static_cast<double>(in.pages) * disk_cpu_);
    }
    AddCpu(output, site,
           static_cast<double>(in.tuples) *
               params_.MoveTupleMs(in.tuple_bytes));
    return output;
  }

  int BuildUnion(const PlanNode& node, int i) {
    // Bag union streams both inputs through; no blocking boundary.
    const int left = Build(*node.left, Left(i));
    AddNetEdge(left, node.left->bound_site, node.bound_site,
               Out(Left(i)).pages);
    const int right = Build(*node.right, Right(i));
    AddNetEdge(right, node.right->bound_site, node.bound_site,
               Out(Right(i)).pages);
    const int phase = graph_.Merge(left, right);
    AddCpu(phase, node.bound_site,
           static_cast<double>(Out(i).tuples) *
               params_.MoveTupleMs(Out(i).tuple_bytes));
    return phase;
  }

  int BuildJoin(const PlanNode& node, int i) {
    const SiteId site = node.bound_site;
    const StreamStats& inner = Out(Left(i));
    const StreamStats& outer = Out(Right(i));
    const StreamStats& out = Out(i);
    const HashJoinModel hj = ComputeHashJoinModel(
        inner.pages, params_.buf_alloc, params_.hash_fudge);

    // Build phase: consume the inner stream, hash it, spill partitions.
    const int build = Build(*node.left, Left(i));
    AddNetEdge(build, node.left->bound_site, site, inner.pages);
    AddCpu(build, site,
           static_cast<double>(inner.tuples) *
               (hash_cpu_ + params_.MoveTupleMs(inner.tuple_bytes)));
    const int64_t inner_spill = hj.SpillPages(inner.pages);
    AddTempSpread(build, site,
                  static_cast<double>(inner_spill) * params_.rand_page_ms *
                      LoadFactor(site));
    AddCpu(build, site, static_cast<double>(inner_spill) * disk_cpu_);

    // Probe phase: consume the outer stream; spill its partitions; then
    // re-read both spilled sides and join them. Output flows downstream
    // within this phase.
    int probe = graph_.NewPhase();
    graph_.AddDep(probe, build);
    const int outer_phase = Build(*node.right, Right(i));
    probe = graph_.Merge(probe, outer_phase);
    AddNetEdge(probe, node.right->bound_site, site, outer.pages);
    AddCpu(probe, site,
           static_cast<double>(outer.tuples) * (hash_cpu_ + compare_cpu_));
    const int64_t outer_spill = hj.SpillPages(outer.pages);
    // Writes of outer partitions (random-ish) plus re-reads of both sides
    // (sequential per partition).
    AddTempSpread(probe, site,
                  (static_cast<double>(outer_spill) * params_.rand_page_ms +
                   static_cast<double>(inner_spill + outer_spill) *
                       params_.seq_page_ms) *
                      LoadFactor(site));
    AddCpu(probe, site,
           static_cast<double>(inner_spill + 2 * outer_spill) * disk_cpu_);
    // Spilled inner tuples are re-hashed when their partition is joined.
    AddCpu(probe, site,
           hj.spill_fraction * static_cast<double>(inner.tuples) * hash_cpu_);
    // Result construction.
    AddCpu(probe, site,
           static_cast<double>(out.tuples) *
               params_.MoveTupleMs(out.tuple_bytes));
    return probe;
  }

  int BuildDisplay(const PlanNode& node, int i) {
    const int phase = Build(*node.left, Left(i));
    AddNetEdge(phase, node.left->bound_site, node.bound_site,
               Out(Left(i)).pages);
    AddCpu(phase, node.bound_site,
           static_cast<double>(Out(i).tuples) * display_cpu_);
    return phase;
  }

  const Catalog& catalog_;
  const CostParams& params_;
  const SiteFactors& sites_;
  const std::vector<StreamStats>& stats_;
  const std::vector<int>& sizes_;
  const SlotLayout& layout_;
  PhaseGraph& graph_;
  int next_chain_id_ = 0;
  PlanEstimate* out_;
  OperatorEstimate* cur_ = nullptr;  // record of the op being built
  std::vector<int> raw_phase_;       // op_id -> unresolved output phase
  // CostParams-derived per-unit costs used on every node, computed once
  // per plan (the same values the CostParams helpers return).
  const double page_cpu_;     // CPU to send or receive one page
  const double request_cpu_;  // CPU to send or receive a fault request
  const double page_wire_;    // wire time of one page
  const double request_wire_;
  const double disk_cpu_;     // CPU per disk I/O request
  const double hash_cpu_;     // CPU to hash one tuple
  const double compare_cpu_;  // CPU to apply one predicate
  const double display_cpu_;  // CPU to display one tuple
};

}  // namespace

SiteFactors::SiteFactors(const CostParams& params,
                         const std::map<SiteId, double>& server_disk_load)
    : default_cpu_(params.mips / params.mips) {
  for (const auto& [site, mips] : params.site_mips) {
    if (site < 0) continue;  // no plan binds a negative site
    cpu_.resize(std::max(cpu_.size(), static_cast<std::size_t>(site) + 1),
                default_cpu_);
    cpu_[static_cast<std::size_t>(site)] = params.CpuTimeFactor(site);
  }
  for (const auto& [site, utilization] : server_disk_load) {
    if (site < 0) continue;
    DIMSUM_CHECK_LT(utilization, 1.0)
        << "disk utilization of site " << site << " must be below 1";
    load_.resize(std::max(load_.size(), static_cast<std::size_t>(site) + 1),
                 1.0);
    load_[static_cast<std::size_t>(site)] = 1.0 / (1.0 - utilization);
  }
}

TimeEstimate EstimateTime(const Plan& plan, const Catalog& catalog,
                          const QueryGraph& query, const CostParams& params,
                          const std::map<SiteId, double>& server_disk_load,
                          PlanEstimate* explain) {
  return EstimateTime(plan, catalog, query, params,
                      SiteFactors(params, server_disk_load), explain);
}

TimeEstimate EstimateTime(const Plan& plan, const Catalog& catalog,
                          const QueryGraph& query, const CostParams& params,
                          const SiteFactors& sites, PlanEstimate* explain) {
  DIMSUM_CHECK(!plan.empty());
  Scratch& scratch = ThisThreadScratch();
  SlotLayout layout;
  layout.index = &scratch.sites;
  layout.disks = std::max(1, params.num_disks);
  int phases = 0;
  scratch.sizes.clear();
  scratch.sites.Clear();
  Measure(*plan.root(), catalog, &scratch.sizes, &scratch.sites, &layout,
          &phases);
  layout.sites = scratch.sites.Number();
  ComputeStreamStats(*plan.root(), catalog, query, params, &scratch.stats);
  PhaseGraph& graph = scratch.graph;
  graph.Reset(layout, phases, params.rand_page_ms / params.seq_page_ms);
  if (explain != nullptr) {
    *explain = PlanEstimate{};
    plan.ForEach([&](const PlanNode& node) {
      OperatorEstimate rec;
      rec.op_id = static_cast<int>(explain->ops.size());
      rec.type = node.type;
      rec.site = node.bound_site;
      rec.relation = node.is_leaf() ? node.relation : kInvalidRelation;
      const StreamStats& out =
          scratch.stats[static_cast<std::size_t>(rec.op_id)];
      rec.est_tuples = out.tuples;
      rec.est_pages = out.pages;
      explain->ops.push_back(rec);
    });
  }
  Builder builder(catalog, params, sites, scratch.stats, scratch.sizes, layout,
                  &graph, explain);
  builder.Build(*plan.root(), 0);
  graph.Schedule();
  TimeEstimate estimate;
  estimate.response_ms = graph.response_ms();
  estimate.total_ms = graph.total_ms();
  if (explain != nullptr) {
    explain->response_ms = estimate.response_ms;
    explain->total_ms = estimate.total_ms;
    // Representative phases get dense ids in creation order.
    std::vector<int> dense(static_cast<std::size_t>(graph.num_phases()), -1);
    for (int root = 0; root < graph.num_phases(); ++root) {
      if (graph.Resolve(root) != root) continue;
      PhaseEstimate phase;
      phase.id = static_cast<int>(explain->phases.size());
      phase.duration_ms = graph.Duration(root);
      phase.finish_ms = graph.FinishTime(root);
      phase.start_ms = phase.finish_ms - phase.duration_ms;
      dense[static_cast<std::size_t>(root)] = phase.id;
      explain->phases.push_back(phase);
    }
    const std::vector<int>& raw = builder.raw_phases();
    for (OperatorEstimate& op : explain->ops) {
      op.phase = dense[static_cast<std::size_t>(
          graph.Resolve(raw[static_cast<std::size_t>(op.op_id)]))];
    }
  }
  return estimate;
}

}  // namespace dimsum
