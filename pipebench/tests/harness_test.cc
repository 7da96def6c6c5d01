// Tests of the benchmark harness's own arithmetic: percentiles and their
// sample counts, self time under nested spans, and layer attribution.

#include <gtest/gtest.h>

#include <thread>

#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace pipebench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, NearestRankWithSampleCount) {
  const std::vector<double> v = OneTo(100);
  const Percentiles p = Summarize(v);
  EXPECT_EQ(p.count, 100u);
  EXPECT_DOUBLE_EQ(p.p50, 50.0);
  EXPECT_DOUBLE_EQ(p.p95, 95.0);
  EXPECT_DOUBLE_EQ(p.p99, 99.0);
  EXPECT_EQ(SamplesBeyond(v, 0.95), 5u);
  EXPECT_EQ(SamplesBeyond(v, 0.99), 1u);
  EXPECT_EQ(SamplesBeyond(OneTo(1000), 0.99), 10u);
}

TEST(PercentileTest, SmallAndEmptySets) {
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_EQ(Summarize({}).count, 0u);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0.99), 7.0);
  // With fewer than 100 samples p99 is the maximum: nothing lies beyond it.
  EXPECT_DOUBLE_EQ(Percentile(OneTo(10), 0.99), 10.0);
  EXPECT_EQ(SamplesBeyond(OneTo(10), 0.99), 0u);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0, 4.0}), 2.5);
}

TEST(RateTest, MedianOverWindowsIgnoresAStalledWindow) {
  // Four windows of two items; the third stalls (10 s for 2 units).
  const std::vector<double> amounts = {1, 1, 1, 1, 1, 1, 1, 1, 5};
  const std::vector<double> seconds = {1, 1, 1, 1, 5, 5, 0.5, 0.5, 1};
  // Window rates 1, 1, 0.2, 2; the trailing partial window is dropped.
  EXPECT_DOUBLE_EQ(MedianWindowRate(amounts, seconds, 2), 1.0);
  // A single partial window still counts.
  EXPECT_DOUBLE_EQ(MedianWindowRate({3.0}, {2.0}, 64), 1.5);
  EXPECT_DOUBLE_EQ(MedianWindowRate({}, {}, 64), 0.0);
}

TEST(RateTest, MedianPerSecondOverWholeSeconds) {
  // Seconds [0,1): 3, [1,2): 1, [2,3): 2; the partial fourth second is out.
  const std::vector<double> done = {0.1, 0.2, 0.9, 1.5, 2.0, 2.7, 3.1};
  EXPECT_DOUBLE_EQ(MedianPerSecond(done, 3.4), 2.0);
  EXPECT_DOUBLE_EQ(MedianPerSecond({0.1, 0.2}, 0.5), 4.0);  // under a second
}

Span MakeSpan(const char* name, int64_t id, int64_t parent, int64_t start, int64_t end) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, NestedAndOverlappingChildren) {
  // root [0,100] has children a [10,40] and b [30,60] (overlapping, as
  // parallel children would); a has a child c [15,20].
  const std::vector<Span> spans = {
      MakeSpan("root", 1, -1, 0, 100), MakeSpan("a", 2, 1, 10, 40),
      MakeSpan("b", 3, 1, 30, 60), MakeSpan("c", 4, 2, 15, 20),
      MakeSpan("a", 5, -1, 200, 210)};
  const auto t = SelfTimes(spans);
  EXPECT_NEAR(t.at("root").self_s, 50e-9, 1e-15);  // 100 - union [10,60]
  EXPECT_NEAR(t.at("a").self_s, 25e-9 + 10e-9, 1e-15);
  EXPECT_EQ(t.at("a").calls, 2u);
  EXPECT_NEAR(t.at("a").total_s, 40e-9, 1e-15);
  EXPECT_NEAR(t.at("b").self_s, 30e-9, 1e-15);
  EXPECT_NEAR(t.at("c").self_s, 5e-9, 1e-15);
  EXPECT_NEAR(RootSeconds(spans), 110e-9, 1e-15);
}

TEST(SelfTimeTest, ChildOutsideParentIsClipped) {
  const std::vector<Span> spans = {MakeSpan("p", 1, -1, 0, 10),
                                   MakeSpan("k", 2, 1, 5, 50)};
  EXPECT_NEAR(SelfTimes(spans).at("p").self_s, 5e-9, 1e-15);
}

TEST(TracerTest, RecordsParentsRequestsAndThreads) {
  Tracer tracer;
  {
    Tracer::Scope root(&tracer, "root", 7);
    Tracer::Scope child(&tracer, "child");
  }
  std::thread other([&] { Tracer::Scope s(&tracer, "other", 9); });
  other.join();
  { Tracer::Scope off(nullptr, "ignored"); }
  const std::vector<Span> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].request, 7u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
  EXPECT_EQ(spans[2].request, 9u);
  EXPECT_NE(spans[2].thread, spans[0].thread);
}

TEST(AttributionTest, StageRerunsSplitTheEngineSpan) {
  // One explain request: cache [0,140] holds the engine [0,100] and the
  // re-run stages build [100,130] and rank [130,140]; the root runs to 150.
  const std::vector<Span> spans = {
      MakeSpan("explain.request", 1, -1, 0, 150),
      MakeSpan("explain.cache", 2, 1, 0, 140),
      MakeSpan("explain.engine", 3, 2, 0, 100),
      MakeSpan("explain.build", 4, 2, 100, 130),
      MakeSpan("explain.rank", 5, 2, 130, 140)};
  const LayerAttribution a = AttributeLayers(spans);
  EXPECT_NEAR(a.basis_s, 110e-9, 1e-15);
  double sum = a.unattributed_share;
  for (const LayerRow& row : a.rows) {
    sum += row.share;
    if (row.name == "explain.validate") {
      EXPECT_NEAR(row.busy_s, 60e-9, 1e-15);
    } else if (row.name == "explain.build") {
      EXPECT_NEAR(row.busy_s, 30e-9, 1e-15);
    } else if (row.name == "explain.cache") {
      EXPECT_NEAR(row.busy_s, 0.0, 1e-15);
    }
  }
  EXPECT_NEAR(a.unattributed_share, 10.0 / 110.0, 1e-12);
  EXPECT_NEAR(sum, 1.0, 1e-12);  // every second of the basis is attributed once
}

}  // namespace
}  // namespace pipebench
