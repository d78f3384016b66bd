#ifndef DIMSUM_OPT_COST_CACHE_H_
#define DIMSUM_OPT_COST_CACHE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cost/cost_model.h"
#include "plan/plan.h"
#include "plan/query.h"

namespace dimsum {

/// Canonical signature of an (unbound) plan: a pre-order byte encoding of
/// the tree shape, operator types, site annotations, and operator
/// parameters. Two plans have equal signatures iff the analytic cost model
/// assigns them equal cost under a fixed catalog/metric, so the signature
/// is an exact memoization key.
std::string PlanSignature(const Plan& plan);

/// Memoizes plan-signature -> metric value for one optimization run. The
/// II/SA search revisits neighbors constantly (undoing a move, oscillating
/// between two annotations); a lookup here replaces a full analytic-model
/// evaluation. One instance serves one (cost model, metric) pair and one
/// search thread — it is intentionally not synchronized; parallel searches
/// each own a private cache so results stay bit-identical regardless of
/// thread count.
///
/// Keys are byte strings (a plan's signature followed by the metric).
/// Entries are indexed by a 64-bit hash of the key and keep the key's
/// bytes, which a lookup compares in full on a hash match: keys that share
/// a hash never see each other's cost, so the cache is exact. A plan's key
/// is encoded into a buffer the cache reuses, so a lookup allocates
/// nothing.
class CostCache {
 public:
  /// `max_entries` bounds memory; once full, new signatures are evaluated
  /// but not stored (deterministic, since insertion order is the search
  /// order of the owning thread).
  explicit CostCache(std::size_t max_entries = 1 << 20)
      : max_entries_(max_entries) {}

  /// Cost of `plan` under `metric`, served from the cache when this
  /// signature was evaluated before. On a miss the model is consulted
  /// (which binds the plan's sites); on a hit the plan is *not* re-bound —
  /// callers that need bound sites on the final plan must bind explicitly.
  double Cost(const CostModel& model, Plan& plan, const QueryGraph& query,
              OptimizeMetric metric);

  /// Looks `key` up under `hash`, counting a hit or a miss. The overload
  /// without a hash uses HashKey(key); passing one lets a test make two
  /// keys collide.
  std::optional<double> Lookup(uint64_t hash, std::string_view key);
  std::optional<double> Lookup(std::string_view key) {
    return Lookup(HashKey(key), key);
  }
  /// Stores `key`'s cost unless the key is present or the cache is full.
  void Insert(uint64_t hash, std::string_view key, double cost);
  void Insert(std::string_view key, double cost) {
    Insert(HashKey(key), key, cost);
  }

  /// Pre-seeds the cache with a cost that is already known exactly (e.g.
  /// the SA start plan, costed during II) without touching the hit/miss
  /// counters — the evaluation was counted where it happened.
  void InsertPlan(const Plan& plan, OptimizeMetric metric, double cost);

  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string key;
    double cost;
    int next;  // next entry with the same hash, or -1
  };

  /// The 64-bit hash entries are indexed by.
  static uint64_t HashKey(std::string_view key);
  /// Index of the entry holding `key`, or -1.
  int Find(uint64_t hash, std::string_view key) const;
  /// Encodes the cache key of (plan, metric) into key_.
  void EncodeKey(const Plan& plan, OptimizeMetric metric);

  std::unordered_map<uint64_t, int> heads_;  // hash -> first entry
  std::vector<Entry> entries_;
  std::string key_;  // the key being looked up
  std::size_t max_entries_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

}  // namespace dimsum

#endif  // DIMSUM_OPT_COST_CACHE_H_
