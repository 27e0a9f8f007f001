// Monte-Carlo timing-yield benchmark (JSON output).
//
// Runs the full masking flow on a paper-suite circuit, then drives the
// parallel variation engine three ways:
//   1. plain MC at 1, 4 and 8 threads with one seed — reports trials/sec,
//      the speedup over 1 thread, and checks the counts are bit-identical;
//   2. the headline yield numbers (C vs C ∪ C̃) at the shipped clock Δ;
//   3. a rare-failure configuration (small sigma) where importance sampling
//      with 1/5 of the trials must land within its confidence interval of
//      the plain-MC residual-error estimate.
//
// Usage: yield_mc [circuit] [trials] [sigma]
//   circuit defaults to the largest paper-suite module (sparc_ifu_ifqdp);
//   trials defaults to 10000.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "harness/flow.h"
#include "harness/yield.h"
#include "liblib/lsi10k.h"
#include "service/json.h"
#include "suite/paper_suite.h"
#include "util/timer.h"

namespace sm {
namespace {

bool SameCounts(const YieldMcResult& a, const YieldMcResult& b) {
  return a.violations_original == b.violations_original &&
         a.violations_protected == b.violations_protected &&
         a.masked_trials == b.masked_trials &&
         a.residual_trials == b.residual_trials &&
         a.masked_events == b.masked_events &&
         a.residual_events == b.residual_events &&
         a.yield_original == b.yield_original &&  // bit-exact doubles too
         a.residual_rate == b.residual_rate;
}

int Main(int argc, char** argv) {
  const std::vector<std::string> pos(argv + 1, argv + argc);
  const std::string circuit = !pos.empty() ? pos[0] : "sparc_ifu_ifqdp";
  const std::size_t trials =
      pos.size() > 1 ? static_cast<std::size_t>(std::atoll(pos[1].c_str()))
                     : 10000;
  const double sigma = pos.size() > 2 ? std::atof(pos[2].c_str()) : 0.05;

  const Library lib = Lsi10kLike();
  WallTimer flow_timer;
  const Network ti = GenerateCircuit(PaperCircuitByName(circuit).spec);
  const FlowResult flow = RunMaskingFlow(ti, lib);
  const double flow_seconds = flow_timer.Seconds();
  if (!flow.verification.ok()) {
    std::cerr << "masking flow verification failed on " << circuit << "\n";
    return 1;
  }

  YieldMcOptions base;
  base.trials = trials;
  base.seed = 20090420;
  base.model.sigma = sigma;
  base.classify_transitions = 8;

  // --- 1. thread scaling + bit-identity ---------------------------------
  YieldMcResult by_threads[3];
  const int thread_counts[3] = {1, 4, 8};
  for (int i = 0; i < 3; ++i) {
    YieldMcOptions o = base;
    o.threads = thread_counts[i];
    by_threads[i] = EstimateTimingYield(flow, o);
  }
  const bool identical = SameCounts(by_threads[0], by_threads[1]) &&
                         SameCounts(by_threads[0], by_threads[2]);
  const double speedup_8v1 =
      by_threads[2].seconds > 0
          ? by_threads[0].seconds / by_threads[2].seconds
          : 0;
  const YieldMcResult& mc = by_threads[2];

  // --- 2. rare-failure configuration: plain vs importance sampling ------
  // Residual escapes need a nominally-short path (or the masking logic) to
  // blow through the clock, which takes roughly 3× the headline sigma to
  // happen at all — and there it is still a rare event worth IS.
  YieldMcOptions rare = base;
  rare.threads = 8;
  rare.model.sigma = 3 * sigma;
  const YieldMcResult rare_plain = EstimateTimingYield(flow, rare);

  YieldMcOptions is = rare;
  is.trials = trials / 5;
  is.importance_sampling = true;
  const YieldMcResult rare_is = EstimateTimingYield(flow, is);
  // The IS estimate must reproduce the plain one within the combined 95%
  // interval (both carry sampling noise).
  const double gap = std::abs(rare_is.residual_rate - rare_plain.residual_rate);
  const double tolerance = rare_is.ConfidenceInterval95() +
                           rare_plain.ConfidenceInterval95();
  const bool is_consistent = gap <= tolerance;

  // --- JSON report ------------------------------------------------------
  Json doc = Json::MakeObject();
  doc.Set("circuit", circuit);
  doc.Set("gates", flow.original.NumLogicGates());
  doc.Set("flow_seconds", flow_seconds);
  doc.Set("model", ToString(base.model.kind));
  doc.Set("sigma", sigma);
  doc.Set("clock", mc.clock);
  doc.Set("protected_clock", mc.protected_clock);
  doc.Set("trials", mc.trials);
  Json threads = Json::MakeObject();
  for (int i = 0; i < 3; ++i) {
    Json entry = Json::MakeObject();
    entry.Set("seconds", by_threads[i].seconds);
    entry.Set("trials_per_sec", by_threads[i].trials_per_second);
    threads.Set(std::to_string(thread_counts[i]), std::move(entry));
  }
  doc.Set("threads", std::move(threads));
  doc.Set("speedup_8_vs_1", speedup_8v1);
  doc.Set("counts_bit_identical", identical);
  doc.Set("words_simulated", mc.words_simulated);
  doc.Set("lane_utilization", mc.lane_utilization);
  doc.Set("yield_original", mc.yield_original);
  doc.Set("yield_protected", mc.yield_protected);
  doc.Set("residual_rate", mc.residual_rate);
  doc.Set("residual_stderr", mc.residual_stderr);
  doc.Set("violations_original", mc.violations_original);
  doc.Set("violations_protected", mc.violations_protected);
  doc.Set("masked_trials", mc.masked_trials);
  doc.Set("residual_trials", mc.residual_trials);
  doc.Set("masked_events", mc.masked_events);
  Json sampling = Json::MakeObject();
  sampling.Set("sigma", rare.model.sigma);
  sampling.Set("plain_trials", rare_plain.trials);
  sampling.Set("plain_estimate", rare_plain.residual_rate);
  sampling.Set("plain_ci95", rare_plain.ConfidenceInterval95());
  sampling.Set("is_trials", rare_is.trials);
  sampling.Set("is_estimate", rare_is.residual_rate);
  sampling.Set("is_ci95", rare_is.ConfidenceInterval95());
  sampling.Set("is_relative_error", rare_is.relative_error);
  sampling.Set("effective_samples", rare_is.effective_samples);
  sampling.Set("consistent", is_consistent);
  doc.Set("importance_sampling", std::move(sampling));
  std::cout << doc.Dump() << "\n";

  return (identical && is_consistent) ? 0 : 1;
}

}  // namespace
}  // namespace sm

int main(int argc, char** argv) {
  try {
    return sm::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
