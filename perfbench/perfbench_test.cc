// Tests of the benchmark's own logic: percentile choice, self time of
// nested spans, open-loop accounting, the failure ledger, and the metric
// lists against BENCHMARK.json.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "checks.h"
#include "service/json.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

TEST(TailPercentile, PicksHighestLevelWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(10000), 99.9);
  EXPECT_EQ(TailPercentile(1000), 99);   // rank 990, 10 beyond
  EXPECT_EQ(TailPercentile(999), 98);    // p99 would leave 9 beyond
  EXPECT_EQ(TailPercentile(450), 97);    // rank 437, 13 beyond
  EXPECT_EQ(TailPercentile(20), 50);     // rank 10, 10 beyond
  EXPECT_EQ(TailPercentile(19), 0);      // not even the median qualifies
  EXPECT_EQ(TailPercentile(100, 5), 95);
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(v, 50), 3);
  EXPECT_EQ(Percentile(v, 100), 5);
  EXPECT_EQ(Percentile(v, 0), 1);
  EXPECT_EQ(Percentile(v, 80), 4);
  EXPECT_EQ(Median({}), 0);
}

Span MakeSpan(const char* name, std::int64_t start, std::int64_t end,
              int parent) {
  return Span{name, start, end, parent, 0};
}

TEST(SelfTime, SubtractsTheUnionOfDirectChildren) {
  const std::vector<Span> spans = {
      MakeSpan("flow", 0, 100, -1),
      MakeSpan("phase", 10, 30, 0),
      MakeSpan("phase", 20, 50, 0),  // overlaps the first child
      MakeSpan("inner", 12, 18, 1),  // grandchild: only its parent loses it
      MakeSpan("phase", 90, 120, 0), // runs past its parent: clipped
  };
  const auto self = SelfTimesNs(spans);
  // flow: 100 minus children covering [10,50) and [90,100).
  EXPECT_EQ(self.at("flow"), 100 - 40 - 10);
  // phases: (20 - 6) + 30 + 30.
  EXPECT_EQ(self.at("phase"), 14 + 30 + 30);
  EXPECT_EQ(self.at("inner"), 6);
}

TEST(SelfTime, TracerRecordsNestingAndRebasesSlices) {
  Tracer tracer(true);
  {
    const Tracer::Scope outer(tracer, "outer", 7);
    const Tracer::Scope inner(tracer, "inner", 7);
  }
  const Tracer::Scope later(tracer, "later");
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[0].parent, -1);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[1].request, 7u);
  EXPECT_EQ(tracer.spans()[2].parent, -1);
  EXPECT_LE(tracer.spans()[0].start_ns, tracer.spans()[1].start_ns);
  EXPECT_GE(tracer.spans()[0].end_ns, tracer.spans()[1].end_ns);

  const std::vector<Span> slice = tracer.SpansSince(1);
  ASSERT_EQ(slice.size(), 2u);
  EXPECT_EQ(slice[0].parent, -1);  // its parent lies before the slice

  Tracer off(false);
  { const Tracer::Scope s(off, "ignored"); }
  off.Record("ignored", 0, 1);
  EXPECT_TRUE(off.spans().empty());
}

TEST(OpenLoop, RequestsAreTimedFromWhenTheyWereDue) {
  constexpr std::int64_t kMs = 1'000'000;
  // Free connection, generator wakes 0.2 ms late.
  OpenLoopTiming t = AccountOpenLoop({0, 0, kMs / 5, 5 * kMs});
  EXPECT_DOUBLE_EQ(t.latency_ms, 5);
  EXPECT_DOUBLE_EQ(t.queue_ms, 0);
  EXPECT_DOUBLE_EQ(t.generator_late_ms, 0.2);
  // Every connection busy until 3 ms: the wait counts in latency and queue,
  // not as generator lateness.
  t = AccountOpenLoop({0, 3 * kMs, 3 * kMs, 4 * kMs});
  EXPECT_DOUBLE_EQ(t.latency_ms, 4);
  EXPECT_DOUBLE_EQ(t.queue_ms, 3);
  EXPECT_DOUBLE_EQ(t.generator_late_ms, 0);
  // Connection free early; the send waits for the due time.
  t = AccountOpenLoop({10 * kMs, 2 * kMs, 10 * kMs + kMs / 10, 12 * kMs});
  EXPECT_DOUBLE_EQ(t.latency_ms, 2);
  EXPECT_DOUBLE_EQ(t.queue_ms, 0);
  EXPECT_NEAR(t.generator_late_ms, 0.1, 1e-12);
}

TEST(Ledger, FailedChecksCountOperations) {
  Ledger ledger;
  ledger.Attempt("flow:a", 3);
  ledger.Attempt("flow:b", 2);
  EXPECT_TRUE(ledger.Check(true, "flow:a", "fine"));
  EXPECT_FALSE(ledger.Check(false, "flow:a", "bytes differ"));
  EXPECT_EQ(ledger.attempted(), 5u);
  EXPECT_EQ(ledger.failed(), 1u);
  ASSERT_EQ(ledger.failures().size(), 1u);
}

TEST(Ledger, DigestMismatchFailsEveryOperationOfItsKind) {
  Ledger ledger;
  DigestBook book({{"w/flow:a", Digest("right")}, {"w/flow:b", "0"}});
  ledger.Attempt("flow:a", 4);
  ledger.Attempt("flow:b", 4);
  EXPECT_TRUE(book.Check(ledger, "w/flow:a", "flow:a", "right"));
  EXPECT_FALSE(book.Check(ledger, "w/flow:b", "flow:b", "wrong"));
  EXPECT_EQ(ledger.failed(), 4u);
  ledger.Attempt("flow:b");  // later operations of the kind fail too
  EXPECT_EQ(ledger.failed(), 5u);
  EXPECT_EQ(book.computed().at("w/flow:b"), Digest("wrong"));
  // A key with no recorded digest fails as well.
  ledger.Attempt("flow:c", 2);
  EXPECT_FALSE(book.Check(ledger, "w/flow:c", "flow:c", "x"));
  EXPECT_EQ(ledger.failed(), 7u);
}

TEST(Digest, IsFnv1a64InHex) {
  EXPECT_EQ(Digest(""), "cbf29ce484222325");
  EXPECT_EQ(Digest("a"), "af63dc4c8601ec8c");
}

// BENCHMARK.json lists exactly the metrics the binary prints, in order.
TEST(BenchmarkJson, NamesTheMetricsTheBinaryPrints) {
  std::ifstream in(std::string(PERFBENCH_SOURCE_DIR) + "/../BENCHMARK.json");
  ASSERT_TRUE(in) << "BENCHMARK.json not found";
  std::stringstream text;
  text << in.rdbuf();
  const sm::Json bench = sm::Json::Parse(text.str());
  auto expect_same = [&](const char* key, const std::vector<MetricDef>& defs) {
    const auto& listed = bench.Find(key)->AsArray();
    ASSERT_EQ(listed.size(), defs.size()) << key;
    for (std::size_t i = 0; i < defs.size(); ++i) {
      EXPECT_EQ(listed[i].GetString("name"), defs[i].name) << key;
      EXPECT_EQ(listed[i].GetString("unit"), defs[i].unit) << key;
    }
  };
  expect_same("end_to_end", EndToEndMetrics());
  expect_same("per_layer", PerLayerMetrics());
}

}  // namespace
}  // namespace perfbench
