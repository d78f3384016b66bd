#include "exec/navigation.h"

#include <gtest/gtest.h>

namespace dimsum {
namespace {

Catalog OneRelationCatalog() {
  Catalog catalog;
  catalog.AddRelation("Objects", 10000, 100);  // 250 pages
  catalog.PlaceRelation(0, ServerSite(0));
  return catalog;
}

SystemConfig DefaultConfig() {
  SystemConfig config;
  config.num_servers = 1;
  return config;
}

NavigationSpec Spec(double locality, int steps = 2000) {
  NavigationSpec spec;
  spec.locality = locality;
  spec.num_steps = steps;
  spec.seed = 7;
  return spec;
}

TEST(NavigationTest, DeterministicGivenSeed) {
  Catalog catalog = OneRelationCatalog();
  SystemConfig config = DefaultConfig();
  NavigationResult a = RunNavigation(Spec(0.8), catalog, config,
                                     NavigationPolicy::kDataShipping);
  NavigationResult b = RunNavigation(Spec(0.8), catalog, config,
                                     NavigationPolicy::kDataShipping);
  EXPECT_EQ(a.elapsed_ms, b.elapsed_ms);
  EXPECT_EQ(a.page_faults, b.page_faults);
}

TEST(NavigationTest, AccountingIsConsistent) {
  Catalog catalog = OneRelationCatalog();
  SystemConfig config = DefaultConfig();
  NavigationSpec spec = Spec(0.5, 1000);
  NavigationResult ds =
      RunNavigation(spec, catalog, config, NavigationPolicy::kDataShipping);
  EXPECT_EQ(ds.client_buffer_hits + ds.page_faults, 1000);
  EXPECT_EQ(ds.object_rpcs, 0);
  NavigationResult qs =
      RunNavigation(spec, catalog, config, NavigationPolicy::kQueryShipping);
  EXPECT_EQ(qs.object_rpcs, 1000);
  EXPECT_EQ(qs.page_faults, 0);
  EXPECT_EQ(qs.client_buffer_hits, 0);
}

TEST(NavigationTest, HighLocalityFavorsDataShipping) {
  // The paper's motivation for data-shipping: "reducing communication in
  // the presence of locality" and "light-weight interaction ... needed to
  // support navigational data access".
  Catalog catalog = OneRelationCatalog();
  SystemConfig config = DefaultConfig();
  NavigationSpec spec = Spec(0.95, 4000);
  NavigationResult ds =
      RunNavigation(spec, catalog, config, NavigationPolicy::kDataShipping);
  NavigationResult qs =
      RunNavigation(spec, catalog, config, NavigationPolicy::kQueryShipping);
  EXPECT_LT(ds.elapsed_ms, qs.elapsed_ms * 0.5);
  EXPECT_LT(ds.bytes_on_wire, qs.bytes_on_wire);
}

TEST(NavigationTest, ScatteredAccessWithTinyClientBufferFavorsRpcs) {
  // With no locality and a client buffer far smaller than the working set,
  // the client faults 4 KB pages repeatedly while the server-side buffer
  // (512 pages) holds the whole 250-page extent and so can answer object
  // RPCs from memory.
  Catalog catalog = OneRelationCatalog();
  SystemConfig config = DefaultConfig();
  NavigationSpec spec = Spec(0.0, 4000);
  spec.client_buffer_pages = 8;
  NavigationResult ds =
      RunNavigation(spec, catalog, config, NavigationPolicy::kDataShipping);
  NavigationResult qs =
      RunNavigation(spec, catalog, config, NavigationPolicy::kQueryShipping);
  EXPECT_LT(qs.elapsed_ms, ds.elapsed_ms);
  EXPECT_LT(qs.bytes_on_wire, ds.bytes_on_wire / 4);
}

TEST(NavigationTest, LocalityReducesFaultsMonotonically) {
  Catalog catalog = OneRelationCatalog();
  SystemConfig config = DefaultConfig();
  int64_t previous_faults = INT64_MAX;
  for (double locality : {0.0, 0.5, 0.9, 0.99}) {
    NavigationResult ds = RunNavigation(Spec(locality), catalog, config,
                                        NavigationPolicy::kDataShipping);
    EXPECT_LE(ds.page_faults, previous_faults) << "locality " << locality;
    previous_faults = ds.page_faults;
  }
}

TEST(NavigationTest, ServerBufferAbsorbsRepeatedReads) {
  Catalog catalog = OneRelationCatalog();
  SystemConfig config = DefaultConfig();
  NavigationSpec spec = Spec(0.0, 4000);
  NavigationResult qs =
      RunNavigation(spec, catalog, config, NavigationPolicy::kQueryShipping);
  // The server buffer holds the whole relation, so at most one disk read
  // per page of it.
  EXPECT_LE(qs.server_disk_reads, 250);
  EXPECT_GT(qs.server_disk_reads, 0);
}

}  // namespace
}  // namespace dimsum
