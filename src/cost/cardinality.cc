#include "cost/cardinality.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dimsum {
namespace {

int64_t PagesFor(int64_t tuples, int tuple_bytes, int page_bytes) {
  if (tuples == 0) return 0;
  const int64_t per_page = std::max<int64_t>(1, page_bytes / tuple_bytes);
  return (tuples + per_page - 1) / per_page;
}

/// A node's output statistics and the query-local set of the relations
/// scanned below it (which decides whether a join is a Cartesian product).
struct Annotated {
  StreamStats out;
  uint64_t relations = 0;
};

/// Appends the statistics of the subtree rooted at `node` to `*stats` in
/// pre-order; returns the node's own.
Annotated Annotate(const PlanNode& node, const Catalog& catalog,
                   const QueryGraph& query, const CostParams& params,
                   const RelationSets& sets, std::vector<StreamStats>* stats) {
  const std::size_t index = stats->size();
  stats->emplace_back();
  Annotated result;
  StreamStats& out = result.out;
  switch (node.type) {
    case OpType::kScan: {
      const Relation& rel = catalog.relation(node.relation);
      // Shard fragments and key-restricted scans emit the slice the
      // catalog computes; a default scan (shard -1, key [0,1)) emits the
      // whole relation.
      out.tuples = catalog
                       .ScanExtent(node.relation, node.shard, node.key_lo,
                                   node.key_hi, params.page_bytes)
                       .tuples;
      out.tuple_bytes = rel.tuple_bytes;
      result.relations = sets.Of(node.relation);
      break;
    }
    case OpType::kSelect: {
      const Annotated child = Annotate(*node.left, catalog, query, params,
                                       sets, stats);
      const StreamStats& in = child.out;
      result.relations = child.relations;
      // llround, not truncation: 0.7 * 10000 tuples must estimate 7000,
      // not lose a tuple to floating-point representation error.
      out.tuples = std::llround(node.selectivity *
                                static_cast<double>(in.tuples));
      out.tuple_bytes = in.tuple_bytes;
      break;
    }
    case OpType::kProject: {
      const Annotated child = Annotate(*node.left, catalog, query, params,
                                       sets, stats);
      const StreamStats& in = child.out;
      result.relations = child.relations;
      out.tuples = in.tuples;
      out.tuple_bytes = std::max(
          1, static_cast<int>(std::llround(
                 node.width_factor * static_cast<double>(in.tuple_bytes))));
      break;
    }
    case OpType::kAggregate: {
      const Annotated child = Annotate(*node.left, catalog, query, params,
                                       sets, stats);
      const StreamStats& in = child.out;
      result.relations = child.relations;
      out.tuples = std::min(node.num_groups, in.tuples);
      out.tuple_bytes = in.tuple_bytes;
      break;
    }
    case OpType::kSort:
    case OpType::kDisplay: {
      result = Annotate(*node.left, catalog, query, params, sets, stats);
      break;
    }
    case OpType::kUnion: {
      const Annotated left = Annotate(*node.left, catalog, query, params,
                                      sets, stats);
      const Annotated right = Annotate(*node.right, catalog, query, params,
                                       sets, stats);
      const StreamStats& l = left.out;
      const StreamStats& r = right.out;
      result.relations = left.relations | right.relations;
      out.tuples = l.tuples + r.tuples;
      out.tuple_bytes = std::max(l.tuple_bytes, r.tuple_bytes);
      break;
    }
    case OpType::kJoin: {
      const Annotated left = Annotate(*node.left, catalog, query, params,
                                      sets, stats);
      const Annotated right = Annotate(*node.right, catalog, query, params,
                                       sets, stats);
      const StreamStats& l = left.out;
      const StreamStats& r = right.out;
      result.relations = left.relations | right.relations;
      if (sets.Connects(left.relations, right.relations)) {
        out.tuples = std::llround(
            query.selectivity_factor *
            static_cast<double>(std::min(l.tuples, r.tuples)));
      } else {
        out.tuples = l.tuples * r.tuples;  // Cartesian product
      }
      out.tuple_bytes = std::max(l.tuple_bytes, r.tuple_bytes);
      break;
    }
  }
  DIMSUM_CHECK_GT(out.tuple_bytes, 0);
  out.pages = PagesFor(out.tuples, out.tuple_bytes, params.page_bytes);
  (*stats)[index] = out;
  return result;
}

}  // namespace

const StreamStats& PlanStats::at(const PlanNode* node) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == node) return stats_[i];
  }
  DIMSUM_UNREACHABLE() << "node is not part of the plan these stats cover";
}

PlanStats ComputeStats(const Plan& plan, const Catalog& catalog,
                       const QueryGraph& query, const CostParams& params) {
  DIMSUM_CHECK(!plan.empty());
  PlanStats stats;
  ComputeStreamStats(*plan.root(), catalog, query, params, &stats.stats_);
  stats.nodes_.reserve(stats.stats_.size());
  plan.ForEach([&stats](const PlanNode& node) {
    stats.nodes_.push_back(&node);
  });
  return stats;
}

void ComputeStreamStats(const PlanNode& root, const Catalog& catalog,
                        const QueryGraph& query, const CostParams& params,
                        std::vector<StreamStats>* out) {
  const RelationSets sets(query);
  out->clear();
  Annotate(root, catalog, query, params, sets, out);
}

}  // namespace dimsum
