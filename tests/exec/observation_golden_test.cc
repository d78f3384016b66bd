// Golden digest of what the executor observes. Small plans that between
// them start every operator process -- server, cached, cold and sharded
// client scans; select, project and aggregate; sort and hash join under
// minimum allocation (run generation, merge, build, probe and partition
// phases); a union from shard expansion; display and the network
// operator pairs -- run traced with operator actuals and causal spans on,
// plus one run under a server crash and a link drop. Every field of every
// span, the "dimsum.explain.v1" document and the Chrome-trace bytes are
// folded into one FNV-1a digest, so a change to the executor's
// instrumentation must keep every observation bit for bit. Each run also
// checks that the trace bytes do not depend on whether actuals and spans
// are collected.

#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/report.h"
#include "cost/response_time.h"
#include "exec/executor.h"
#include "golden_digest.h"
#include "plan/binding.h"
#include "plan/plan.h"
#include "plan/shard.h"
#include "sim/fault.h"
#include "sim/span.h"
#include "sim/trace.h"

namespace dimsum {
namespace {

void AddText(const std::string& text, Digest* digest) {
  digest->AddInt(static_cast<int64_t>(text.size()));
  digest->AddBytes(text.data(), text.size());
}

void FoldSpans(const sim::QuerySpans& spans, Digest* digest) {
  digest->AddDouble(spans.start_ms);
  digest->AddDouble(spans.complete_ms);
  digest->AddInt(spans.root_op);
  digest->AddInt(spans.num_ops);
  digest->AddInt(static_cast<int64_t>(spans.spans.size()));
  for (const sim::Span& span : spans.spans) {
    digest->AddInt(span.op);
    digest->AddDouble(span.begin_ms);
    digest->AddDouble(span.end_ms);
    digest->AddInt(static_cast<int64_t>(span.kind));
    digest->AddDouble(span.service_ms);
    digest->AddInt(span.site);
    digest->AddInt(span.peer_op);
  }
}

/// The digest of every run so far, and their traces, concatenated.
struct Observed {
  Digest digest;
  std::string traces;
};

std::string TraceJson(const sim::TraceSink& trace) {
  std::ostringstream out;
  trace.WriteJson(out);
  return out.str();
}

/// Runs `plan` traced with actuals and spans on and folds the spans, the
/// EXPLAIN document and the trace; then runs it traced with both off and
/// expects the same trace bytes.
ExecMetrics FoldRun(const Plan& plan, const Catalog& catalog,
                    const QueryGraph& query, SystemConfig config,
                    Observed* observed) {
  Digest* digest = &observed->digest;
  PlanEstimate est;
  EstimateTime(plan, catalog, query, config.params, {}, &est);

  sim::TraceSink observed_trace;
  config.trace = &observed_trace;
  config.collect_operator_actuals = true;
  config.collect_spans = true;
  sim::QuerySpans spans;
  const ExecMetrics metrics =
      ExecutePlan(plan, catalog, query, config, /*seed=*/0, &spans);
  EXPECT_FALSE(spans.spans.empty());
  FoldSpans(spans, digest);
  std::ostringstream explain;
  WriteExplainJson(BuildExplainReport(est, metrics), explain);
  AddText(explain.str(), digest);
  const std::string trace_json = TraceJson(observed_trace);
  AddText(trace_json, digest);
  observed->traces += trace_json;

  sim::TraceSink plain_trace;
  config.trace = &plain_trace;
  config.collect_operator_actuals = false;
  config.collect_spans = false;
  ExecutePlan(plan, catalog, query, config);
  EXPECT_EQ(TraceJson(plain_trace), trace_json)
      << "trace bytes depend on actuals/spans collection";
  return metrics;
}

/// One client and two servers; R<i> (4000 x 100 B, 100 pages) lives on
/// server i % 2 with `cached` of it in the client's cache.
Catalog TwoServerCatalog(int relations, double cached) {
  Catalog catalog;
  for (int i = 0; i < relations; ++i) {
    const RelationId id =
        catalog.AddRelation("R" + std::to_string(i), 4000, 100);
    catalog.PlaceRelation(id, ServerSite(i % 2));
    catalog.SetCachedFraction(id, cached);
  }
  return catalog;
}

SystemConfig TwoServerConfig() {
  SystemConfig config;
  config.num_servers = 2;
  return config;
}

void FoldScan(SiteAnnotation annotation, double cached, Observed* observed) {
  const Catalog catalog = TwoServerCatalog(1, cached);
  const QueryGraph query = QueryGraph::Chain({0});
  Plan plan(MakeDisplay(MakeScan(0, annotation)));
  BindSites(plan, catalog);
  FoldRun(plan, catalog, query, TwoServerConfig(), observed);
}

/// R0 range-sharded over both servers (no replicas).
Catalog ShardedCatalog() {
  Catalog catalog;
  catalog.AddRelation("R0", 4000, 100);
  catalog.ShardRelation(0, {ServerSite(0), ServerSite(1)},
                        ShardScheme::kRange);
  return catalog;
}

void FoldShardedClientScan(Observed* observed) {
  const Catalog catalog = ShardedCatalog();
  const QueryGraph query = QueryGraph::Chain({0});
  Plan plan(MakeDisplay(MakeScan(0, SiteAnnotation::kClient)));
  BindSites(plan, catalog);
  FoldRun(plan, catalog, query, TwoServerConfig(), observed);
}

/// A pushed-down select over the sharded relation, expanded into a union
/// of per-shard fragments.
void FoldShardUnion(Observed* observed) {
  const Catalog catalog = ShardedCatalog();
  const QueryGraph query = QueryGraph::Chain({0});
  Plan logical(
      MakeDisplay(MakeSelect(MakeScan(0, SiteAnnotation::kPrimaryCopy), 0.5,
                             SiteAnnotation::kProducer)));
  Plan plan = ExpandShards(logical, catalog);
  BindSites(plan, catalog);
  FoldRun(plan, catalog, query, TwoServerConfig(), observed);
}

/// select at the server, project and aggregate at the client.
void FoldSelectProjectAggregate(Observed* observed) {
  const Catalog catalog = TwoServerCatalog(1, 0.0);
  const QueryGraph query = QueryGraph::Chain({0});
  Plan plan(MakeDisplay(MakeAggregate(
      MakeProject(MakeSelect(MakeScan(0, SiteAnnotation::kPrimaryCopy), 0.3,
                             SiteAnnotation::kProducer),
                  0.5, SiteAnnotation::kConsumer),
      40, SiteAnnotation::kConsumer)));
  BindSites(plan, catalog);
  FoldRun(plan, catalog, query, TwoServerConfig(), observed);
}

/// A sort over a hash join at the client, both under minimum allocation,
/// so both spill: run generation and merge, build, probe and partition.
void FoldSortOverJoin(Observed* observed) {
  const Catalog catalog = TwoServerCatalog(2, 0.25);
  const QueryGraph query = QueryGraph::Chain({0, 1});
  Plan plan(MakeDisplay(MakeSort(
      MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
               MakeScan(1, SiteAnnotation::kClient),
               SiteAnnotation::kOuterRel),
      SiteAnnotation::kConsumer)));
  BindSites(plan, catalog);
  SystemConfig config = TwoServerConfig();
  config.params.buf_alloc = BufAlloc::kMinimum;
  FoldRun(plan, catalog, query, config, observed);
}

/// A cold client scan of R0 joined at the client with a server scan of R1,
/// while R0's server (site 1) is down for 500 ms and the link drops
/// messages.
void FoldUnderFaults(Observed* observed) {
  const Catalog catalog = TwoServerCatalog(2, 0.0);
  const QueryGraph query = QueryGraph::Chain({0, 1});
  Plan plan(MakeDisplay(MakeJoin(MakeScan(0, SiteAnnotation::kClient),
                                 MakeScan(1, SiteAnnotation::kPrimaryCopy),
                                 SiteAnnotation::kInnerRel)));
  BindSites(plan, catalog);
  const sim::FaultSchedule faults = sim::ParseFaultSpec(
      "crash:site=1,at=20,for=500;link:drop,at=530,for=40");
  SystemConfig config = TwoServerConfig();
  config.faults = &faults;
  const ExecMetrics metrics = FoldRun(plan, catalog, query, config, observed);
  EXPECT_GT(metrics.fault_stall_ms, 0.0);
  EXPECT_GT(metrics.retransmits, 0);
}

TEST(ObservationGoldenTest, SpansExplainAndTraceAreUnchanged) {
  Observed observed;
  FoldScan(SiteAnnotation::kPrimaryCopy, 0.0, &observed);
  FoldScan(SiteAnnotation::kClient, 0.5, &observed);
  FoldScan(SiteAnnotation::kClient, 0.0, &observed);
  FoldShardedClientScan(&observed);
  FoldShardUnion(&observed);
  FoldSelectProjectAggregate(&observed);
  FoldSortOverJoin(&observed);
  FoldUnderFaults(&observed);
  // Every operator process and phase appeared.
  for (const char* name :
       {"scan R0", "select", "project", "aggregate", "sort", "union", "join",
        "display", "ship-send", "ship-recv", "run-generation", "merge",
        "build", "probe", "partition"}) {
    EXPECT_NE(observed.traces.find("{\"name\": \"" + std::string(name) +
                                   "\", \"ph\": \"X\""),
              std::string::npos)
        << name;
  }
  EXPECT_NE(observed.traces.find("\"pages_faulted\""), std::string::npos);
  const uint64_t value = observed.digest.value();
  EXPECT_EQ(value, 0x152d56427f2dd50eULL)
      << "observation digest 0x" << std::hex << value;
}

}  // namespace
}  // namespace dimsum
