#ifndef DIMSUM_WORKLOAD_BENCHMARK_H_
#define DIMSUM_WORKLOAD_BENCHMARK_H_

#include <vector>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "plan/query.h"

namespace dimsum {

/// The paper's benchmark workloads (Section 3.3): chain ("functional")
/// equijoins over relations of 10,000 tuples x 100 bytes (250 pages of
/// 4 KB). Moderate selectivity (factor 1.0) keeps every join result at
/// base-relation size; the HiSel variant uses factor 0.2.
struct BenchmarkWorkload {
  Catalog catalog;
  QueryGraph query;
};

/// Parameters of a benchmark instance.
struct WorkloadSpec {
  int num_relations = 2;
  int num_servers = 1;
  /// Number of client sites (sites 0..num_clients-1). Every client gets
  /// the same cached fractions; multi-client drivers can override
  /// per-client caching on the returned catalog afterwards.
  int num_clients = 1;
  /// Fraction of each relation cached (contiguous prefix) at each client.
  double cached_fraction = 0.0;
  /// Number of relations (lowest ids first) cached *in full* at the client,
  /// on top of `cached_fraction` for the rest -- the paper's Figure 7
  /// setting caches five of the ten relations this way.
  int fully_cached_relations = 0;
  /// Join selectivity factor: 1.0 moderate, 0.2 HiSel.
  double selectivity = 1.0;
  /// Copies of every relation (1 = unreplicated). Extra copies go to the
  /// servers following the primary in round-robin order, so degree
  /// num_servers fully replicates. Must be in [1, num_servers]. With
  /// `shards > 1` this instead sets the per-shard copy count (chained
  /// declustering); it must then be in [1, shards].
  int replication_degree = 1;
  /// Horizontal shards per relation (1 = whole-relation placement). With
  /// K > 1 every relation is split into K shards dealt to K distinct
  /// servers starting at the relation's primary (requires
  /// shards <= num_servers and cached_fraction == 0 /
  /// fully_cached_relations == 0: sharding and client caching are
  /// mutually exclusive).
  int shards = 1;
  /// Partitioning scheme used when `shards > 1`.
  ShardScheme shard_scheme = ShardScheme::kRange;
};

/// Builds the benchmark with relations placed *randomly* among the servers,
/// ensuring every server holds at least one relation (requires
/// num_relations >= num_servers). This is the placement model of the
/// paper's multi-server experiments (Section 4.3).
BenchmarkWorkload MakeChainWorkload(const WorkloadSpec& spec, Rng& rng);

/// Deterministic round-robin placement (relation i on server i % servers);
/// convenient for unit tests and examples.
BenchmarkWorkload MakeChainWorkloadRoundRobin(const WorkloadSpec& spec);

/// Complete-graph ("all joinable") variant used by the Section 5 data-
/// migration example.
BenchmarkWorkload MakeCompleteWorkloadRoundRobin(const WorkloadSpec& spec);

}  // namespace dimsum

#endif  // DIMSUM_WORKLOAD_BENCHMARK_H_
