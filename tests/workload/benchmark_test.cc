#include "workload/benchmark.h"

#include <set>

#include <gtest/gtest.h>

#include "plan/query.h"

namespace dimsum {
namespace {

TEST(WorkloadTest, PaperRelationDimensions) {
  WorkloadSpec spec;
  spec.num_relations = 2;
  BenchmarkWorkload w = MakeChainWorkloadRoundRobin(spec);
  EXPECT_EQ(w.catalog.num_relations(), 2);
  EXPECT_EQ(w.catalog.relation(0).Pages(4096), 250);
  EXPECT_EQ(w.query.num_relations(), 2);
  EXPECT_EQ(w.query.selectivity_factor, 1.0);
}

TEST(WorkloadTest, ChainEdgesConnectAdjacentRelations) {
  WorkloadSpec spec;
  spec.num_relations = 5;
  BenchmarkWorkload w = MakeChainWorkloadRoundRobin(spec);
  EXPECT_EQ(w.query.edges.size(), 4u);
  const RelationSets sets(w.query);
  EXPECT_TRUE(sets.Connects(sets.Of(0), sets.Of(1)));
  EXPECT_TRUE(sets.Connects(sets.Of(3), sets.Of(4)));
  EXPECT_FALSE(sets.Connects(sets.Of(0), sets.Of(2)));
}

TEST(WorkloadTest, RandomPlacementCoversEveryServer) {
  WorkloadSpec spec;
  spec.num_relations = 10;
  spec.num_servers = 4;
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    BenchmarkWorkload w = MakeChainWorkload(spec, rng);
    std::set<SiteId> used;
    for (RelationId id = 0; id < 10; ++id) {
      const SiteId site = w.catalog.PrimarySite(id);
      EXPECT_GE(site, 1);
      EXPECT_LE(site, 4);
      used.insert(site);
    }
    EXPECT_EQ(used.size(), 4u) << "every server holds at least one relation";
  }
}

TEST(WorkloadTest, RandomPlacementVaries) {
  WorkloadSpec spec;
  spec.num_relations = 10;
  spec.num_servers = 3;
  Rng rng(13);
  std::set<std::vector<SiteId>> placements;
  for (int trial = 0; trial < 10; ++trial) {
    BenchmarkWorkload w = MakeChainWorkload(spec, rng);
    std::vector<SiteId> placement;
    for (RelationId id = 0; id < 10; ++id) {
      placement.push_back(w.catalog.PrimarySite(id));
    }
    placements.insert(placement);
  }
  EXPECT_GT(placements.size(), 5u);
}

TEST(WorkloadTest, CachedFractionApplied) {
  WorkloadSpec spec;
  spec.num_relations = 3;
  spec.cached_fraction = 0.5;
  BenchmarkWorkload w = MakeChainWorkloadRoundRobin(spec);
  for (RelationId id = 0; id < 3; ++id) {
    EXPECT_EQ(w.catalog.CachedFraction(id), 0.5);
    EXPECT_EQ(w.catalog.CachedPages(id, 4096), 125);
  }
}

TEST(WorkloadTest, HiSelSelectivity) {
  WorkloadSpec spec;
  spec.num_relations = 10;
  spec.selectivity = 0.2;
  BenchmarkWorkload w = MakeChainWorkloadRoundRobin(spec);
  EXPECT_EQ(w.query.selectivity_factor, 0.2);
}

TEST(WorkloadTest, CompleteGraphAllJoinable) {
  WorkloadSpec spec;
  spec.num_relations = 4;
  spec.num_servers = 2;
  BenchmarkWorkload w = MakeCompleteWorkloadRoundRobin(spec);
  EXPECT_EQ(w.query.edges.size(), 6u);
}

TEST(WorkloadTest, ReplicationDegreePlacesExtraCopiesRoundRobin) {
  WorkloadSpec spec;
  spec.num_relations = 4;
  spec.num_servers = 4;
  spec.replication_degree = 2;
  BenchmarkWorkload w = MakeChainWorkloadRoundRobin(spec);
  for (RelationId id = 0; id < 4; ++id) {
    EXPECT_EQ(w.catalog.NumReplicas(id), 2);
    EXPECT_EQ(w.catalog.PrimarySite(id), ServerSite(id % 4));
    EXPECT_EQ(w.catalog.ReplicaSite(id, 1), ServerSite((id + 1) % 4));
  }
  EXPECT_TRUE(w.catalog.replicated());
}

TEST(WorkloadTest, FullReplicationPutsEveryRelationEverywhere) {
  WorkloadSpec spec;
  spec.num_relations = 3;
  spec.num_servers = 2;
  spec.replication_degree = 2;
  Rng rng(7);
  BenchmarkWorkload w = MakeChainWorkload(spec, rng);
  for (RelationId id = 0; id < 3; ++id) {
    EXPECT_EQ(w.catalog.NumReplicas(id), 2);
    std::set<SiteId> copies(w.catalog.ReplicaSites(id).begin(),
                            w.catalog.ReplicaSites(id).end());
    EXPECT_EQ(copies.size(), 2u);
  }
}

TEST(WorkloadDeathTest, MoreServersThanRelationsFails) {
  WorkloadSpec spec;
  spec.num_relations = 2;
  spec.num_servers = 3;
  Rng rng(1);
  EXPECT_DEATH(MakeChainWorkload(spec, rng), "at least one relation");
}

// Regression: the round-robin builder used to skip the guard its random
// sibling has, silently leaving servers without relations.
TEST(WorkloadDeathTest, RoundRobinMoreServersThanRelationsFails) {
  WorkloadSpec spec;
  spec.num_relations = 2;
  spec.num_servers = 3;
  EXPECT_DEATH(MakeChainWorkloadRoundRobin(spec), "at least one relation");
}

TEST(WorkloadDeathTest, ReplicationDegreeBeyondServersFails) {
  WorkloadSpec spec;
  spec.num_relations = 4;
  spec.num_servers = 2;
  spec.replication_degree = 3;
  EXPECT_DEATH(MakeChainWorkloadRoundRobin(spec),
               "more copies than there are servers");
}

}  // namespace
}  // namespace dimsum
