#include "workload/benchmark.h"

#include <cstdint>
#include <string>

#include "common/check.h"

namespace dimsum {
namespace {

/// Every benchmark relation has 10,000 tuples of 100 bytes (Section 3.3).
constexpr int64_t kTuplesPerRelation = 10000;
constexpr int kTupleBytes = 100;

Catalog MakeRelations(const WorkloadSpec& spec) {
  Catalog catalog(spec.num_clients);
  for (int i = 0; i < spec.num_relations; ++i) {
    const RelationId id = catalog.AddRelation(
        "R" + std::to_string(i), kTuplesPerRelation, kTupleBytes);
    const double fraction =
        i < spec.fully_cached_relations ? 1.0 : spec.cached_fraction;
    for (int c = 0; c < spec.num_clients; ++c) {
      catalog.SetCachedFraction(id, ClientSite(c), fraction);
    }
  }
  return catalog;
}

std::vector<RelationId> AllRelations(const WorkloadSpec& spec) {
  std::vector<RelationId> rels;
  for (int i = 0; i < spec.num_relations; ++i) rels.push_back(i);
  return rels;
}

/// Places `id` with its primary on `primary_server` plus
/// `spec.replication_degree - 1` extra copies on the following servers in
/// round-robin order. With `spec.shards > 1` the relation is instead
/// sharded over `shards` servers starting at the primary, with
/// `replication_degree` copies of each shard (chained declustering).
void PlaceReplicated(Catalog& catalog, const WorkloadSpec& spec,
                     RelationId id, int primary_server) {
  DIMSUM_CHECK_GE(spec.replication_degree, 1)
      << "replication degree must be at least 1";
  if (spec.shards > 1) {
    DIMSUM_CHECK_LE(spec.shards, spec.num_servers)
        << "cannot spread shards over more servers than exist";
    DIMSUM_CHECK_LE(spec.replication_degree, spec.shards)
        << "per-shard copies cannot exceed the shard count";
    std::vector<SiteId> sites;
    for (int k = 0; k < spec.shards; ++k) {
      sites.push_back(ServerSite((primary_server + k) % spec.num_servers,
                                 spec.num_clients));
    }
    catalog.ShardRelation(id, std::move(sites), spec.shard_scheme,
                          spec.replication_degree);
    return;
  }
  DIMSUM_CHECK_LE(spec.replication_degree, spec.num_servers)
      << "cannot place more copies than there are servers";
  for (int k = 0; k < spec.replication_degree; ++k) {
    catalog.PlaceRelation(
        id, ServerSite((primary_server + k) % spec.num_servers,
                       spec.num_clients));
  }
}

}  // namespace

BenchmarkWorkload MakeChainWorkload(const WorkloadSpec& spec, Rng& rng) {
  DIMSUM_CHECK_GE(spec.num_relations, spec.num_servers)
      << "each server must hold at least one relation";
  BenchmarkWorkload workload;
  workload.catalog = MakeRelations(spec);
  // Random placement with the constraint that every server holds at least
  // one relation: shuffle the relations, deal the first num_servers out to
  // distinct servers, place the rest uniformly at random.
  std::vector<RelationId> order = AllRelations(spec);
  rng.Shuffle(order);
  for (int i = 0; i < spec.num_relations; ++i) {
    const int primary =
        (i < spec.num_servers)
            ? i
            : static_cast<int>(rng.UniformInt(0, spec.num_servers - 1));
    PlaceReplicated(workload.catalog, spec, order[i], primary);
  }
  workload.query = QueryGraph::Chain(AllRelations(spec), spec.selectivity);
  return workload;
}

BenchmarkWorkload MakeChainWorkloadRoundRobin(const WorkloadSpec& spec) {
  DIMSUM_CHECK_GE(spec.num_relations, spec.num_servers)
      << "each server must hold at least one relation";
  BenchmarkWorkload workload;
  workload.catalog = MakeRelations(spec);
  for (int i = 0; i < spec.num_relations; ++i) {
    PlaceReplicated(workload.catalog, spec, i, i % spec.num_servers);
  }
  workload.query = QueryGraph::Chain(AllRelations(spec), spec.selectivity);
  return workload;
}

BenchmarkWorkload MakeCompleteWorkloadRoundRobin(const WorkloadSpec& spec) {
  BenchmarkWorkload workload = MakeChainWorkloadRoundRobin(spec);
  workload.query = QueryGraph::Complete(AllRelations(spec), spec.selectivity);
  return workload;
}

}  // namespace dimsum
