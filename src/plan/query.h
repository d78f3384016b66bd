#ifndef DIMSUM_PLAN_QUERY_H_
#define DIMSUM_PLAN_QUERY_H_

#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/ids.h"

namespace dimsum {

/// Join-graph description of a select-project-join query. Relations are
/// vertices; an edge between two relations means they share a join
/// attribute (an equijoin predicate). The paper's benchmark uses chain
/// ("functional") joins; the Section 5 example uses a complete graph.
struct QueryGraph {
  std::vector<RelationId> relations;
  std::vector<std::pair<RelationId, RelationId>> edges;

  /// The client site this query belongs to: its display runs here, its
  /// client-annotated scans read this client's cache, and binding, cost
  /// estimation, and optimization all resolve "client" to this site. The
  /// default is the single-client convention (site 0).
  SiteId home_client = kClientSite;

  /// Join selectivity model: joining inputs of L and R tuples produces
  /// selectivity_factor * min(L, R) tuples. 1.0 is the paper's "moderate"
  /// functional join (result has the size and cardinality of one base
  /// relation); 0.2 is the paper's HiSel query.
  double selectivity_factor = 1.0;

  /// Optional per-relation selection predicates (same order as
  /// `relations`); 1.0 means no selection. Empty means no selections.
  std::vector<double> scan_selectivities;

  int num_relations() const { return static_cast<int>(relations.size()); }

  double ScanSelectivity(RelationId id) const {
    if (scan_selectivities.empty()) return 1.0;
    for (int i = 0; i < num_relations(); ++i) {
      if (relations[i] == id) return scan_selectivities[i];
    }
    DIMSUM_UNREACHABLE() << "relation " << id << " not in query";
  }

  /// Builds a chain query: relations[0] - relations[1] - ... - relations[n-1].
  static QueryGraph Chain(std::vector<RelationId> relations,
                          double selectivity_factor = 1.0) {
    QueryGraph graph;
    graph.selectivity_factor = selectivity_factor;
    for (size_t i = 0; i + 1 < relations.size(); ++i) {
      graph.edges.emplace_back(relations[i], relations[i + 1]);
    }
    graph.relations = std::move(relations);
    return graph;
  }

  /// Builds a complete ("clique") query: every pair joinable.
  static QueryGraph Complete(std::vector<RelationId> relations,
                             double selectivity_factor = 1.0) {
    QueryGraph graph;
    graph.selectivity_factor = selectivity_factor;
    for (size_t i = 0; i < relations.size(); ++i) {
      for (size_t j = i + 1; j < relations.size(); ++j) {
        graph.edges.emplace_back(relations[i], relations[j]);
      }
    }
    graph.relations = std::move(relations);
    return graph;
  }
};

/// Query-local relation sets: bit i of a 64-bit word stands for
/// query.relations[i]. Plan validation and cardinality estimation compute
/// one set per plan subtree, bottom-up, so "which relations lie below this
/// node" and "does a join predicate connect these two subtrees" are a few
/// word operations rather than vector scans. Building the index rejects
/// queries the words cannot hold: more than 64 relations, or a relation
/// named twice.
class RelationSets {
 public:
  static constexpr int kMaxRelations = 64;

  explicit RelationSets(const QueryGraph& query) : query_(query) {
    const int n = query.num_relations();
    DIMSUM_CHECK_LE(n, kMaxRelations)
        << "query has " << n << " relations; relation sets hold at most "
        << kMaxRelations;
    for (int i = 0; i < n; ++i) {
      adjacent_[static_cast<std::size_t>(i)] = 0;
      all_ |= Of(query.relations[static_cast<std::size_t>(i)]);
    }
    DIMSUM_CHECK_EQ(std::popcount(all_), n)
        << "query names a relation more than once";
    for (const auto& [a, b] : query.edges) {
      const uint64_t set_a = Of(a);
      const uint64_t set_b = Of(b);
      if (set_a == 0 || set_b == 0) continue;
      adjacent_[static_cast<std::size_t>(std::countr_zero(set_a))] |= set_b;
      adjacent_[static_cast<std::size_t>(std::countr_zero(set_b))] |= set_a;
    }
  }

  /// The set holding just `relation`; empty when the query lacks it.
  uint64_t Of(RelationId relation) const {
    for (int i = 0; i < query_.num_relations(); ++i) {
      if (query_.relations[static_cast<std::size_t>(i)] == relation) {
        return uint64_t{1} << i;
      }
    }
    return 0;
  }

  /// Every relation of the query.
  uint64_t all() const { return all_; }

  /// True if some join predicate connects a relation in `left` with a
  /// relation in `right` (i.e., joining them is not a Cartesian product).
  bool Connects(uint64_t left, uint64_t right) const {
    for (uint64_t rest = left; rest != 0; rest &= rest - 1) {
      if ((adjacent_[static_cast<std::size_t>(std::countr_zero(rest))] &
           right) != 0) {
        return true;
      }
    }
    return false;
  }

 private:
  const QueryGraph& query_;
  uint64_t all_ = 0;
  /// adjacent_[i]: relations sharing a join predicate with relation i.
  /// Only the first num_relations() entries are written or read.
  std::array<uint64_t, kMaxRelations> adjacent_;
};

}  // namespace dimsum

#endif  // DIMSUM_PLAN_QUERY_H_
