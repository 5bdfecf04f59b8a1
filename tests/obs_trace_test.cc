// Span nesting, path aggregation, and the snapshot/delta windowing that
// RunResult attribution is built on, including spans opened on pool
// workers, which nest under the region that dispatched them.

#include "obs/trace.h"

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "ips/pipeline.h"
#include "obs/export.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace ips::obs {
namespace {

// Give the pool real workers even on single-core runners, so the nesting
// cases below run span-opening bodies on worker threads.
const bool kForcePoolWorkers = [] {
  setenv("IPS_THREAD_POOL_WORKERS", "7", /*overwrite=*/0);
  return true;
}();

TEST(TraceReportTest, LeafAndDepth) {
  TraceSpan s;
  s.path = "fit/discover/candidate_gen";
  EXPECT_EQ(s.Leaf(), "candidate_gen");
  EXPECT_EQ(s.Depth(), 2u);
  s.path = "discover";
  EXPECT_EQ(s.Leaf(), "discover");
  EXPECT_EQ(s.Depth(), 0u);
}

TEST(TraceReportTest, LeafQueriesSumAcrossPrefixes) {
  TraceReport report;
  report.spans.push_back({"discover/pruning", 1, 0.25});
  report.spans.push_back({"fit/discover/pruning", 2, 0.5});
  report.spans.push_back({"fit/discover/selection", 1, 4.0});
  EXPECT_EQ(report.LeafSeconds("pruning"), 0.75);
  EXPECT_EQ(report.LeafCount("pruning"), 3u);
  EXPECT_EQ(report.LeafSeconds("selection"), 4.0);
  EXPECT_EQ(report.LeafSeconds("absent"), 0.0);
  EXPECT_EQ(report.LeafCount("absent"), 0u);
  ASSERT_NE(report.Find("discover/pruning"), nullptr);
  EXPECT_EQ(report.Find("discover/pruning")->count, 1u);
  EXPECT_EQ(report.Find("pruning"), nullptr);  // exact path, not leaf
}

TEST(TraceRegistryTest, DeltaWindowsIsolateRuns) {
  TraceRegistry& reg = TraceRegistry::Instance();
  reg.Record("obs_trace_test/outside", 1.0);
  const TraceSnapshot before = reg.Snapshot();
  reg.Record("obs_trace_test/inside", 0.5);
  reg.Record("obs_trace_test/inside", 0.25);
  const TraceReport delta = reg.DeltaSince(before);
  const TraceSpan* inside = delta.Find("obs_trace_test/inside");
  ASSERT_NE(inside, nullptr);
  EXPECT_EQ(inside->count, 2u);
  EXPECT_DOUBLE_EQ(inside->seconds, 0.75);
  // Paths untouched inside the window are dropped from the delta.
  EXPECT_EQ(delta.Find("obs_trace_test/outside"), nullptr);
}

TEST(TraceRegistryTest, SnapshotIsOrderedByPath) {
  TraceRegistry& reg = TraceRegistry::Instance();
  const TraceSnapshot before = reg.Snapshot();
  reg.Record("obs_trace_test/z", 0.1);
  reg.Record("obs_trace_test/a", 0.1);
  reg.Record("obs_trace_test/m", 0.1);
  const TraceReport delta = reg.DeltaSince(before);
  std::string prev;
  for (const TraceSpan& s : delta.spans) {
    EXPECT_LT(prev, s.path);
    prev = s.path;
  }
}

TEST(TraceExportTest, TraceJsonRoundTrips) {
  TraceReport report;
  report.spans.push_back({"discover", 1, 2.0});
  report.spans.push_back({"discover/candidate_gen", 1, 1.5});
  const auto restored = TraceFromJson(TraceToJson(report));
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->spans.size(), 2u);
  EXPECT_EQ(restored->spans[0].path, "discover");
  EXPECT_EQ(restored->spans[1].count, 1u);
  EXPECT_EQ(restored->spans[1].seconds, 1.5);
}

TEST(TraceExportTest, FormatTraceTreeListsEveryPath) {
  TraceReport report;
  report.spans.push_back({"discover", 1, 2.0});
  report.spans.push_back({"discover/candidate_gen", 1, 1.5});
  report.spans.push_back({"discover/candidate_gen/instance_profile", 4, 1.0});
  const std::string tree = FormatTraceTree(report);
  EXPECT_NE(tree.find("discover"), std::string::npos);
  EXPECT_NE(tree.find("candidate_gen"), std::string::npos);
  EXPECT_NE(tree.find("instance_profile"), std::string::npos);
}

TEST(SpanTest, NestingBuildsSlashJoinedPaths) {
  TraceRegistry& reg = TraceRegistry::Instance();
  const TraceSnapshot before = reg.Snapshot();
  {
    Span outer("span_test_outer");
    EXPECT_EQ(outer.path(), "span_test_outer");
    {
      Span inner("span_test_inner");
      EXPECT_EQ(inner.path(), "span_test_outer/span_test_inner");
      Span deepest("span_test_deep");
      EXPECT_EQ(deepest.path(),
                "span_test_outer/span_test_inner/span_test_deep");
    }
    {
      // A sibling after the first child nests under the same parent.
      Span sibling("span_test_inner");
      EXPECT_EQ(sibling.path(), "span_test_outer/span_test_inner");
    }
  }
  const TraceReport delta = reg.DeltaSince(before);
  ASSERT_NE(delta.Find("span_test_outer"), nullptr);
  const TraceSpan* inner = delta.Find("span_test_outer/span_test_inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 2u);  // first child + sibling, aggregated
  EXPECT_NE(
      delta.Find("span_test_outer/span_test_inner/span_test_deep"), nullptr);
}

TEST(SpanTest, ParentAccumulatesChildTime) {
  TraceRegistry& reg = TraceRegistry::Instance();
  const TraceSnapshot before = reg.Snapshot();
  {
    Span outer("span_test_parent");
    Span inner("span_test_child");
    // Both spans cover this scope; the parent's wall-clock includes the
    // child's.
  }
  const TraceReport delta = reg.DeltaSince(before);
  const TraceSpan* parent = delta.Find("span_test_parent");
  const TraceSpan* child = delta.Find("span_test_parent/span_test_child");
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_GE(parent->seconds, child->seconds);
}

TEST(SpanTest, MacroOpensScopedSpan) {
  TraceRegistry& reg = TraceRegistry::Instance();
  const TraceSnapshot before = reg.Snapshot();
  {
    IPS_SPAN("span_test_macro");
  }
  const TraceReport delta = reg.DeltaSince(before);
  const TraceSpan* s = delta.Find("span_test_macro");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 1u);
}

TEST(SpanTest, WorkerThreadSpansRootTheirOwnPath) {
  TraceRegistry& reg = TraceRegistry::Instance();
  const TraceSnapshot before = reg.Snapshot();
  {
    Span outer("span_test_main_root");
    // The parent stack is thread-local: a span on another thread does not
    // nest under this thread's open span.
    std::thread worker([] { Span s("span_test_worker"); });
    worker.join();
  }
  const TraceReport delta = reg.DeltaSince(before);
  ASSERT_NE(delta.Find("span_test_worker"), nullptr);
  EXPECT_EQ(delta.Find("span_test_main_root/span_test_worker"), nullptr);
}

TEST(SpanTest, ConcurrentSpansAggregateExactly) {
  TraceRegistry& reg = TraceRegistry::Instance();
  const TraceSnapshot before = reg.Snapshot();
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span s("span_test_concurrent");
      }
    });
  }
  for (auto& t : threads) t.join();
  const TraceReport delta = reg.DeltaSince(before);
  const TraceSpan* s = delta.Find("span_test_concurrent");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, uint64_t{kThreads} * kSpansPerThread);
  EXPECT_GE(s->seconds, 0.0);
}

TEST(SpanTest, PooledBodySpansNestUnderTheDispatchingRegion) {
  ASSERT_TRUE(kForcePoolWorkers);
  TraceRegistry& reg = TraceRegistry::Instance();
  const TraceSnapshot before = reg.Snapshot();
  constexpr size_t kItems = 16;
  std::mutex mu;
  std::condition_variable joined;
  std::set<std::thread::id> threads;
  {
    Span outer("span_test_pool_outer");
    ParallelFor(kItems, 8, [&](size_t) {
      Span body("span_test_pooled_body");
      std::unique_lock<std::mutex> lock(mu);
      threads.insert(std::this_thread::get_id());
      joined.notify_all();
      // Hold the body until a second thread runs one too (bounded), so a
      // pool worker is sure to open some of these spans.
      joined.wait_for(lock, std::chrono::seconds(5),
                      [&] { return threads.size() > 1; });
    });
  }
  ASSERT_GT(threads.size(), 1u) << "no pool worker ran a body";
  const TraceReport delta = reg.DeltaSince(before);
  const std::string nested =
      "span_test_pool_outer/pool_region/span_test_pooled_body";
  for (const TraceSpan& span : delta.spans) {
    if (span.Leaf() == "span_test_pooled_body") {
      EXPECT_EQ(span.path, nested);
    }
  }
  ASSERT_NE(delta.Find(nested), nullptr);
  EXPECT_EQ(delta.Find(nested)->count, kItems);
}

TEST(SpanTest, PooledDiscoveryHasOneRootWithinTheWallClock) {
  ASSERT_TRUE(kForcePoolWorkers);
  GeneratorSpec spec;
  spec.name = "span_test_pooled_discovery";
  spec.num_classes = 2;
  spec.train_size = 16;
  spec.test_size = 2;
  spec.length = 80;
  const Dataset train = GenerateDataset(spec).train;
  IpsOptions options;
  options.sample_count = 5;
  options.sample_size = 3;
  options.length_ratios = {0.2, 0.3};
  options.shapelets_per_class = 3;
  options.num_threads = 4;

  Timer wall;
  const RunResult result = DiscoverShapelets(train, options);
  const double wall_s = wall.ElapsedSeconds();

  double root_seconds = 0.0;
  size_t pooled_children = 0;
  for (const TraceSpan& span : result.trace.spans) {
    if (span.Depth() == 0) {
      EXPECT_EQ(span.path, "discover");
      root_seconds += span.seconds;
    }
    if (span.path.find("/pool_region/") != std::string::npos) {
      ++pooled_children;
    }
  }
  EXPECT_GT(pooled_children, 0u) << "discovery dispatched no pooled spans";
  EXPECT_GT(root_seconds, 0.0);
  EXPECT_LE(root_seconds, wall_s);
}

}  // namespace
}  // namespace ips::obs
