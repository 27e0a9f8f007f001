#include <atomic>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "harness/flow.h"
#include "harness/yield.h"
#include "liblib/lsi10k.h"
#include "suite/structured.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "variation/variation.h"

namespace sm {
namespace {

TEST(ThreadPool, CompletesAllSubmittedWork) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 100; ++i) {
    futures.push_back(pool.Submit([&sum, i] { sum += i; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, ParallelForCoversTheExactRange) {
  ThreadPool pool(3);
  std::vector<int> hits(1000, 0);
  pool.ParallelFor(7, 1000, 13, [&hits](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], i >= 7 ? 1 : 0) << "index " << i;
  }
}

TEST(ThreadPool, ExceptionsPropagateThroughSubmit) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The pool survives a failed task.
  auto ok = pool.Submit([] {});
  EXPECT_NO_THROW(ok.get());
}

TEST(ThreadPool, ExceptionsPropagateThroughParallelFor) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.ParallelFor(0, 64, 1,
                       [&completed](std::size_t lo, std::size_t) {
                         if (lo == 13) throw std::invalid_argument("13");
                         ++completed;
                       }),
      std::invalid_argument);
  // Every other chunk still ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), 63);
}

TEST(RngStreams, ForStreamIsAPureFunctionOfSeedAndIndex) {
  Rng a = Rng::ForStream(42, 7);
  Rng b = Rng::ForStream(42, 7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.Next(), b.Next());

  // Adjacent streams and different seeds decorrelate.
  Rng c = Rng::ForStream(42, 8);
  Rng d = Rng::ForStream(43, 7);
  Rng e = Rng::ForStream(42, 7);
  bool c_differs = false, d_differs = false;
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t ref = e.Next();
    c_differs = c_differs || c.Next() != ref;
    d_differs = d_differs || d.Next() != ref;
  }
  EXPECT_TRUE(c_differs);
  EXPECT_TRUE(d_differs);
}

TEST(RngStreams, NormalHasPlausibleMoments) {
  Rng rng(123);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

class VariationEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = new Library(Lsi10kLike());
    flow_ = new FlowResult(
        RunMaskingFlow(RippleComparatorNetwork(6), *lib_));
    ASSERT_TRUE(flow_->verification.ok());
  }
  static void TearDownTestSuite() {
    delete flow_;
    delete lib_;
    flow_ = nullptr;
    lib_ = nullptr;
  }

  static Library* lib_;
  static FlowResult* flow_;
};

Library* VariationEngineTest::lib_ = nullptr;
FlowResult* VariationEngineTest::flow_ = nullptr;

TEST_F(VariationEngineTest, SamplerIsDeterministicAndLeavesInputsAlone) {
  const MappedNetlist& net = flow_->protected_circuit.netlist;
  VariationModel model;
  model.sigma = 0.1;
  const DelayScaleSampler sampler(net, model);
  const auto a = sampler.Sample(99, 5);
  const auto b = sampler.Sample(99, 5);
  EXPECT_EQ(a, b);  // bit-identical resampling
  const auto c = sampler.Sample(99, 6);
  EXPECT_NE(a, c);

  ASSERT_EQ(a.size(), net.NumElements());
  double mean = 0;
  std::size_t gates = 0;
  for (GateId id = 0; id < net.NumElements(); ++id) {
    if (net.IsInput(id)) {
      EXPECT_EQ(a[id], 1.0);
    } else {
      EXPECT_GE(a[id], model.min_scale);
      mean += a[id];
      ++gates;
    }
  }
  EXPECT_NEAR(mean / static_cast<double>(gates), 1.0, 0.05);
}

TEST_F(VariationEngineTest, ShiftedSamplingReportsLikelihoodRatios) {
  const MappedNetlist& net = flow_->protected_circuit.netlist;
  VariationModel model;
  model.sigma = 0.05;
  const DelayScaleSampler sampler(net, model);

  const ShiftedSample plain = sampler.SampleShifted(7, 3, {});
  EXPECT_EQ(plain.log_weight, 0.0);

  std::vector<double> shift(net.NumElements(), 0.0);
  for (GateId id = 0; id < net.NumElements(); ++id) {
    if (!net.IsInput(id)) shift[id] = 1.0;
  }
  const ShiftedSample biased = sampler.SampleShifted(7, 3, shift);
  EXPECT_NE(biased.log_weight, 0.0);
  // A slowdown shift makes the mean scale larger than the unshifted draw's.
  double sum_plain = 0, sum_biased = 0;
  for (std::size_t i = 0; i < plain.scale.size(); ++i) {
    sum_plain += plain.scale[i];
    sum_biased += biased.scale[i];
  }
  EXPECT_GT(sum_biased, sum_plain);
}

TEST_F(VariationEngineTest, ThreadCountDoesNotChangeResults) {
  YieldMcOptions options;
  options.trials = 300;
  options.seed = 424242;
  options.model.sigma = 0.08;
  options.classify_transitions = 4;

  options.threads = 1;
  const YieldMcResult r1 = EstimateTimingYield(*flow_, options);
  options.threads = 4;
  const YieldMcResult r4 = EstimateTimingYield(*flow_, options);
  options.threads = 8;
  const YieldMcResult r8 = EstimateTimingYield(*flow_, options);

  // Counter-based streams + sequential reduction: results are bit-identical
  // (doubles included) whatever the thread count.
  for (const YieldMcResult* r : {&r4, &r8}) {
    EXPECT_EQ(r1.violations_original, r->violations_original);
    EXPECT_EQ(r1.violations_protected, r->violations_protected);
    EXPECT_EQ(r1.masked_trials, r->masked_trials);
    EXPECT_EQ(r1.residual_trials, r->residual_trials);
    EXPECT_EQ(r1.masked_events, r->masked_events);
    EXPECT_EQ(r1.residual_events, r->residual_events);
    EXPECT_EQ(r1.yield_original, r->yield_original);
    EXPECT_EQ(r1.yield_protected, r->yield_protected);
    EXPECT_EQ(r1.residual_rate, r->residual_rate);
    EXPECT_EQ(r1.residual_stderr, r->residual_stderr);
  }
}

TEST_F(VariationEngineTest, AccountingInvariantsHold) {
  YieldMcOptions options;
  options.trials = 400;
  options.threads = 2;
  options.model.sigma = 0.1;
  options.classify_transitions = 4;
  const YieldMcResult r = EstimateTimingYield(*flow_, options);

  EXPECT_EQ(r.trials, 400u);
  EXPECT_EQ(r.masked_trials + r.residual_trials, r.violations_protected);
  EXPECT_LE(r.unexcited_trials, r.masked_trials);
  EXPECT_GE(r.yield_original, 0.0);
  EXPECT_LE(r.yield_original, 1.0);
  EXPECT_GE(r.yield_protected, r.yield_original - 1e-12)
      << "masking must never lower timing yield";
  EXPECT_DOUBLE_EQ(r.effective_samples, 400.0);  // no IS → uniform weights
  EXPECT_GT(r.protected_clock, r.clock);         // mux compensation applied
}

TEST_F(VariationEngineTest, ImportanceSamplingAgreesWithPlainMc) {
  // At sigma 0.15 residual escapes exist but are rare on this fixture
  // (a handful in 4000 trials); IS with 1/5 of the trials must land within
  // the combined confidence interval of the plain estimate. All seeds are
  // fixed: this is a deterministic regression, not a flaky statistical
  // assertion.
  YieldMcOptions plain;
  plain.trials = 4000;
  plain.threads = 4;
  plain.seed = 777;
  plain.model.sigma = 0.15;
  plain.classify_transitions = 4;
  const YieldMcResult mc = EstimateTimingYield(*flow_, plain);
  ASSERT_GT(mc.residual_trials, 0u) << "config no longer exercises escapes";

  YieldMcOptions is = plain;
  is.trials = plain.trials / 5;
  is.importance_sampling = true;
  const YieldMcResult isr = EstimateTimingYield(*flow_, is);

  EXPECT_GT(isr.residual_trials, mc.residual_trials)
      << "the shift should make escapes common in the sampled population";
  EXPECT_GT(isr.effective_samples, 0.0);
  EXPECT_LT(isr.effective_samples, static_cast<double>(is.trials));
  const double gap = std::abs(isr.residual_rate - mc.residual_rate);
  EXPECT_LE(gap, isr.ConfidenceInterval95() + mc.ConfidenceInterval95() +
                     1e-12)
      << "IS estimate " << isr.residual_rate << " vs plain "
      << mc.residual_rate;
}

TEST_F(VariationEngineTest, AgingModelDegradesYield) {
  YieldMcOptions young;
  young.trials = 300;
  young.threads = 2;
  young.model.kind = VariationModelKind::kAgingDrift;
  young.model.sigma = 0.03;
  young.model.aging_level = 0.0;
  young.classify_transitions = 2;
  const YieldMcResult fresh = EstimateTimingYield(*flow_, young);

  YieldMcOptions old = young;
  old.model.aging_level = 0.2;  // +20% drift on the deepest gates
  const YieldMcResult aged = EstimateTimingYield(*flow_, old);

  EXPECT_LE(aged.yield_original, fresh.yield_original);
  EXPECT_GT(aged.violations_original, fresh.violations_original);
}

}  // namespace
}  // namespace sm
