// Causal-span capture and critical-path extraction: span collection must
// never perturb the simulation (bit-identical metrics on/off), the
// captured timelines must be well-formed (serial, disjoint, inside the
// query envelope), and the extracted critical path must tile the response
// time exactly while reconciling with the per-operator actuals. The
// backward walk itself is additionally exercised on hand-built span sets
// (empty, zero-window, service-split, channel-hop cases).

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "core/critical_path.h"
#include "exec/executor.h"
#include "exec/metrics.h"
#include "plan/binding.h"
#include "sim/fault.h"
#include "sim/span.h"
#include "sim/trace.h"

namespace dimsum {
namespace {

Catalog PaperCatalog(int relations, int servers, double cached = 0.0) {
  Catalog catalog;
  for (int i = 0; i < relations; ++i) {
    const RelationId id =
        catalog.AddRelation("R" + std::to_string(i), 10000, 100);
    catalog.PlaceRelation(id, ServerSite(i % servers));
    catalog.SetCachedFraction(id, cached);
  }
  return catalog;
}

QueryGraph ChainQuery(int n) {
  std::vector<RelationId> rels;
  for (int i = 0; i < n; ++i) rels.push_back(i);
  return QueryGraph::Chain(std::move(rels));
}

/// Left-deep 3-way plan with server scans and client joins: it crosses
/// the network (synthetic send/recv timelines), reads disks on both
/// sides, and queues for memory under minimum allocation.
Plan ThreeWayPlan() {
  std::unique_ptr<PlanNode> tree = MakeScan(0, SiteAnnotation::kPrimaryCopy);
  for (int i = 1; i < 3; ++i) {
    tree = MakeJoin(MakeScan(i, SiteAnnotation::kPrimaryCopy),
                    std::move(tree), SiteAnnotation::kConsumer);
  }
  return Plan(MakeDisplay(std::move(tree)));
}

struct TestSetup {
  Catalog catalog = PaperCatalog(3, 2, /*cached=*/0.25);
  QueryGraph query = ChainQuery(3);
  Plan plan = ThreeWayPlan();
  SystemConfig config;

  TestSetup() {
    config.num_servers = 2;
    BindSites(plan, catalog);
  }
};

TEST(SpanTest, CaptureDoesNotPerturbResults) {
  TestSetup setup;
  const ExecMetrics plain =
      ExecutePlan(setup.plan, setup.catalog, setup.query, setup.config);

  SystemConfig instrumented = setup.config;
  instrumented.collect_spans = true;
  instrumented.collect_operator_actuals = true;
  sim::QuerySpans spans;
  const ExecMetrics observed = ExecutePlan(setup.plan, setup.catalog,
                                           setup.query, instrumented,
                                           /*seed=*/0, &spans);

  EXPECT_FALSE(spans.spans.empty());
  EXPECT_EQ(plain.response_ms, observed.response_ms);
  EXPECT_EQ(plain.data_pages_sent, observed.data_pages_sent);
  EXPECT_EQ(plain.messages, observed.messages);
  EXPECT_EQ(plain.bytes_sent, observed.bytes_sent);
  EXPECT_EQ(plain.network_busy_ms, observed.network_busy_ms);
  EXPECT_TRUE(plain.cpu_busy_ms == observed.cpu_busy_ms);
  EXPECT_TRUE(plain.disk_busy_ms == observed.disk_busy_ms);
  EXPECT_EQ(plain.disk.reads, observed.disk.reads);
  EXPECT_EQ(plain.disk.cache_hits, observed.disk.cache_hits);
}

TEST(SpanTest, TimelinesAreSerialDisjointAndInsideTheEnvelope) {
  TestSetup setup;
  setup.config.collect_spans = true;
  sim::QuerySpans spans;
  const ExecMetrics metrics =
      ExecutePlan(setup.plan, setup.catalog, setup.query, setup.config,
                  /*seed=*/0, &spans);

  EXPECT_EQ(spans.start_ms, 0.0);
  EXPECT_EQ(spans.complete_ms, metrics.response_ms);
  // 6 plan operators (display, 2 joins, 3 scans) plus synthetic net
  // send/recv pairs for the two server->client edges.
  EXPECT_GE(spans.num_ops, 6);
  const auto by_op = sim::SpansByOp(spans);
  ASSERT_EQ(static_cast<int>(by_op.size()), spans.num_ops);
  for (const auto& timeline : by_op) {
    double prev_end = spans.start_ms;
    for (const sim::Span* span : timeline) {
      EXPECT_LT(span->begin_ms, span->end_ms);  // zero-length spans dropped
      EXPECT_GE(span->begin_ms, prev_end - 1e-9);  // serial, disjoint
      EXPECT_LE(span->end_ms, spans.complete_ms + 1e-9);
      EXPECT_LE(span->service_ms,
                span->end_ms - span->begin_ms + 1e-9);
      if (span->kind == sim::SpanKind::kChannel) {
        EXPECT_GE(span->peer_op, 0);
        EXPECT_LT(span->peer_op, spans.num_ops);
      }
      prev_end = span->end_ms;
    }
  }
}

TEST(SpanTest, CriticalPathTilesResponseTime) {
  TestSetup setup;
  setup.config.collect_spans = true;
  sim::QuerySpans spans;
  const ExecMetrics metrics =
      ExecutePlan(setup.plan, setup.catalog, setup.query, setup.config,
                  /*seed=*/0, &spans);

  const CriticalPath path = ExtractCriticalPath(spans);
  EXPECT_NEAR(path.total_ms, metrics.response_ms, 1e-9);
  EXPECT_NEAR(path.SumMs(), path.total_ms, 1e-6);
  EXPECT_FALSE(path.segments.empty());
  std::set<std::string> labels;
  for (const PathSegment& segment : path.segments) {
    EXPECT_GT(segment.ms, 0.0);
    labels.insert(segment.Label());
  }
  // A cross-site scan-join pipeline queues for and uses disks and CPUs.
  EXPECT_TRUE(std::any_of(labels.begin(), labels.end(), [](const auto& l) {
    return l.rfind("disk.", 0) == 0;
  }));
  EXPECT_TRUE(std::any_of(labels.begin(), labels.end(), [](const auto& l) {
    return l.rfind("cpu.", 0) == 0;
  }));
}

TEST(SpanTest, CriticalPathReconcilesWithOperatorActuals) {
  TestSetup setup;
  setup.config.collect_spans = true;
  setup.config.collect_operator_actuals = true;
  sim::QuerySpans spans;
  const ExecMetrics metrics =
      ExecutePlan(setup.plan, setup.catalog, setup.query, setup.config,
                  /*seed=*/0, &spans);
  ASSERT_FALSE(metrics.operator_actuals.empty());
  const CriticalPath path = ExtractCriticalPath(spans);
  EXPECT_TRUE(ReconcilesWithActuals(path, metrics));
}

TEST(SpanTest, ConcurrentBatchCarriesPerQuerySpans) {
  TestSetup setup;
  TestSetup other;  // second bound copy of the same plan
  setup.config.collect_spans = true;
  std::vector<WorkloadQuery> batch;
  batch.push_back(WorkloadQuery{&setup.plan, &setup.query});
  batch.push_back(WorkloadQuery{&other.plan, &other.query});
  const ConcurrentResult result =
      ExecuteConcurrent(batch, setup.catalog, setup.config);
  ASSERT_EQ(result.spans.size(), batch.size());
  for (std::size_t q = 0; q < batch.size(); ++q) {
    const CriticalPath path = ExtractCriticalPath(result.spans[q]);
    EXPECT_NEAR(path.total_ms, result.per_query[q].response_ms, 1e-9);
    EXPECT_NEAR(path.SumMs(), path.total_ms, 1e-6);
  }
}

TEST(SpanTest, TraceCarriesPairedChannelFlowEvents) {
  TestSetup setup;
  sim::TraceSink trace;
  setup.config.trace = &trace;
  ExecutePlan(setup.plan, setup.catalog, setup.query, setup.config);
  std::ostringstream out;
  trace.WriteJson(out);
  std::string error;
  const auto doc = JsonValue::Parse(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;

  // Every page a net-send process puts on the wire starts a flow ('s')
  // that the matching net-recv finishes ('f', bound to the enclosing
  // slice); FIFO channels pair the ids one-to-one.
  std::multiset<double> starts, ends;
  for (const JsonValue& event : doc->Find("traceEvents")->array_items()) {
    const std::string ph = event.Find("ph")->string_value();
    if (ph != "s" && ph != "f") continue;
    EXPECT_EQ(event.Find("cat")->string_value(), "channel");
    ASSERT_NE(event.Find("id"), nullptr);
    if (ph == "s") {
      starts.insert(event.Find("id")->number_value());
    } else {
      EXPECT_EQ(event.Find("bp")->string_value(), "e");
      ends.insert(event.Find("id")->number_value());
    }
  }
  EXPECT_FALSE(starts.empty());
  EXPECT_EQ(starts, ends);
}

// ---- Backward-walk unit cases on hand-built span sets. ----

sim::QuerySpans MakeEnvelope(double start, double complete, int num_ops) {
  sim::QuerySpans q;
  q.start_ms = start;
  q.complete_ms = complete;
  q.root_op = 0;
  q.num_ops = num_ops;
  return q;
}

/// Fault-stall sites of one query: a scan of a 100-page relation on
/// server site 1, which is down for the first 500 ms.
std::set<std::string> FaultLabelsWhileServerIsDown(SiteAnnotation scan) {
  Catalog catalog;
  catalog.AddRelation("R0", 4000, 100);
  catalog.PlaceRelation(0, ServerSite(0));
  const QueryGraph query = QueryGraph::Chain({0});
  Plan plan(MakeDisplay(MakeScan(0, scan)));
  BindSites(plan, catalog);
  const sim::FaultSchedule faults =
      sim::ParseFaultSpec("crash:site=1,at=0,for=500");
  SystemConfig config;
  config.faults = &faults;
  config.collect_spans = true;
  sim::QuerySpans spans;
  ExecutePlan(plan, catalog, query, config, /*seed=*/0, &spans);
  std::set<std::string> labels;
  for (const PathSegment& segment : ExtractCriticalPath(spans).segments) {
    if (segment.kind == PathKind::kFaultStall) labels.insert(segment.Label());
  }
  return labels;
}

TEST(SpanTest, FaultStallNamesTheSiteWaitedOn) {
  // A client scan faulting pages in from the crashed server waits on the
  // server, exactly as a scan at the server itself does.
  const std::set<std::string> expected = {"fault@1"};
  EXPECT_EQ(FaultLabelsWhileServerIsDown(SiteAnnotation::kPrimaryCopy),
            expected);
  EXPECT_EQ(FaultLabelsWhileServerIsDown(SiteAnnotation::kClient), expected);
}

TEST(CriticalPathWalkTest, EmptySpansAttributeEverythingUntracked) {
  const sim::QuerySpans q = MakeEnvelope(0.0, 100.0, 1);
  const CriticalPath path = ExtractCriticalPath(q);
  EXPECT_NEAR(path.total_ms, 100.0, 1e-12);
  EXPECT_NEAR(path.untracked_ms, 100.0, 1e-12);
  ASSERT_EQ(path.segments.size(), 1u);
  EXPECT_EQ(path.segments[0].Label(), "untracked");
  EXPECT_NEAR(path.SumMs(), 100.0, 1e-12);
}

TEST(CriticalPathWalkTest, ZeroWindowYieldsNoSegments) {
  const sim::QuerySpans q = MakeEnvelope(5.0, 5.0, 1);
  const CriticalPath path = ExtractCriticalPath(q);
  EXPECT_EQ(path.total_ms, 0.0);
  EXPECT_TRUE(path.segments.empty());
}

TEST(CriticalPathWalkTest, ResourceSpanSplitsServiceTailFromQueueing) {
  sim::QuerySpans q = MakeEnvelope(0.0, 100.0, 1);
  q.spans.push_back(
      sim::Span{0, 0.0, 100.0, sim::SpanKind::kCpu, 30.0, 7, -1});
  const CriticalPath path = ExtractCriticalPath(q);
  double service = 0.0, queueing = 0.0;
  for (const PathSegment& s : path.segments) {
    ASSERT_EQ(s.kind, PathKind::kCpu);
    EXPECT_EQ(s.site, 7);
    (s.queueing ? queueing : service) += s.ms;
  }
  EXPECT_NEAR(service, 30.0, 1e-12);
  EXPECT_NEAR(queueing, 70.0, 1e-12);
  EXPECT_NEAR(path.SumMs(), 100.0, 1e-12);
}

TEST(CriticalPathWalkTest, ChannelSpanHopsToThePeerTimeline) {
  sim::QuerySpans q = MakeEnvelope(0.0, 100.0, 2);
  // Root blocks on a channel the whole run; the producer (op 1) spends
  // the window acquiring a CPU whose service tail is 60 ms.
  q.spans.push_back(
      sim::Span{0, 0.0, 100.0, sim::SpanKind::kChannel, 0.0, -1, 1});
  q.spans.push_back(
      sim::Span{1, 0.0, 100.0, sim::SpanKind::kCpu, 60.0, 3, -1});
  const CriticalPath path = ExtractCriticalPath(q);
  EXPECT_NEAR(path.untracked_ms, 0.0, 1e-12);
  double service = 0.0, queueing = 0.0;
  for (const PathSegment& s : path.segments) {
    ASSERT_EQ(s.kind, PathKind::kCpu);
    (s.queueing ? queueing : service) += s.ms;
  }
  EXPECT_NEAR(service, 60.0, 1e-12);
  EXPECT_NEAR(queueing, 40.0, 1e-12);
}

TEST(CriticalPathWalkTest, GapsBetweenSpansBecomeUntracked) {
  sim::QuerySpans q = MakeEnvelope(0.0, 100.0, 1);
  q.spans.push_back(
      sim::Span{0, 40.0, 100.0, sim::SpanKind::kDisk, 60.0, 2, -1});
  const CriticalPath path = ExtractCriticalPath(q);
  EXPECT_NEAR(path.untracked_ms, 40.0, 1e-12);
  EXPECT_NEAR(path.SumMs(), 100.0, 1e-12);
  bool disk_service = false;
  for (const PathSegment& s : path.segments) {
    if (s.kind == PathKind::kDisk && !s.queueing) {
      disk_service = true;
      EXPECT_NEAR(s.ms, 60.0, 1e-12);
    }
  }
  EXPECT_TRUE(disk_service);
}

}  // namespace
}  // namespace dimsum
