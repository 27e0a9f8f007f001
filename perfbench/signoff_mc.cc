// signoff_mc: statistical sign-off of the 5 Table-1 circuits. Set-up runs
// their masking flows; the timed part runs EstimateTimingYield (2,000
// trials, sigma 0.05) and RunFaultInjectionCampaign (exhaustive speed-path
// sites, 24 vectors per site), both on 2 threads. The circuits are the
// paper's name-seeded ones for every seed; the MC and injection seeds are
// derived from the workload seed. No mapping is timed.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/flow.h"
#include "harness/inject.h"
#include "harness/yield.h"
#include "host_speed.h"
#include "liblib/lsi10k.h"
#include "service/protocol.h"
#include "stats.h"
#include "suite/paper_suite.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr std::size_t kYieldTrials = 2000;
constexpr double kSigma = 0.05;
constexpr int kThreads = 2;

struct Setup {
  std::vector<sm::PaperCircuitInfo> infos;
  std::unique_ptr<sm::Library> lib;
  std::vector<sm::FlowResult> flows;
};

struct SignoffOp {
  std::string yield_bytes;
  std::string inject_bytes;
  std::int64_t yield_ns = 0;
  std::int64_t inject_ns = 0;
  sm::YieldMcResult yield;
  sm::InjectionCampaignResult campaign;
};

// One circuit's sign-off: yield estimate, then injection campaign. Only the
// two calls are timed; encoding happens after.
SignoffOp RunSignoff(const BenchArgs& args, Tracer& tracer,
                     const sm::FlowResult& flow, const std::string& name,
                     std::uint64_t request) {
  SignoffOp op;
  sm::YieldMcOptions yield_options;
  yield_options.trials = kYieldTrials;
  yield_options.threads = kThreads;
  yield_options.seed = DeriveSeed(args.seed, "yield:" + name);
  yield_options.model.sigma = kSigma;
  sm::InjectOptions inject_options;
  inject_options.threads = kThreads;
  inject_options.seed = DeriveSeed(args.seed, "inject:" + name);
  {
    const Tracer::Scope s(tracer, "variation.yield", request);
    const std::int64_t t0 = NowNs();
    op.yield = sm::EstimateTimingYield(flow, yield_options);
    op.yield_ns = NowNs() - t0;
  }
  {
    const Tracer::Scope s(tracer, "inject.campaign", request);
    const std::int64_t t0 = NowNs();
    op.campaign = sm::RunFaultInjectionCampaign(flow, inject_options);
    op.inject_ns = NowNs() - t0;
  }
  op.yield_bytes = sm::EncodeYieldResult(flow, op.yield);
  sm::ServiceRequest request_params;
  request_params.method = sm::ServiceMethod::kInjectCampaign;
  request_params.strategy = inject_options.strategy;
  request_params.fault = inject_options.fault_kind;
  op.inject_bytes = sm::EncodeInjectResult(flow, request_params, op.campaign);
  return op;
}

}  // namespace

void RunSignoffMc(const BenchArgs& args, Tracer& tracer, Report& report) {
  Tracer untraced(false);

  // Set-up: circuits, library, the sign-off flows and one warm sign-off of
  // the smallest circuit, several times; the median counts.
  Setup setup;
  std::vector<double> setup_s;
  std::vector<double> flow_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const HostSpeed speed;
    const std::int64_t t0 = NowNs();
    Setup s;
    s.infos = sm::Table1Circuits();
    const std::vector<sm::Network> nets = sm::GenerateCircuits(s.infos, 1);
    s.lib = std::make_unique<sm::Library>(sm::Lsi10kLike());
    const std::int64_t f0 = NowNs();
    for (std::size_t i = 0; i < nets.size(); ++i) {
      const Tracer::Scope span(tracer, "harness.signoff_flow", i + 1);
      s.flows.push_back(sm::RunMaskingFlow(nets[i], *s.lib));
    }
    flow_ms.push_back(Millis(NowNs() - f0));
    RunSignoff(args, untraced, s.flows.front(), s.infos.front().spec.name, 0);
    setup_s.push_back(Seconds(NowNs() - t0) * speed.Scale());
    setup = std::move(s);
  }
  report.Set("setup_s", Median(setup_s));
  const std::size_t n = setup.flows.size();
  auto yield_kind = [&](std::size_t i) {
    return "yield:" + setup.infos[i].spec.name;
  };
  auto inject_kind = [&](std::size_t i) {
    return "inject:" + setup.infos[i].spec.name;
  };

  std::vector<std::string> yield_ref(n);
  std::vector<std::string> inject_ref(n);
  std::vector<double> pass_ms;
  std::vector<double> traced_pass_ms;
  std::vector<double> max_op_ms;
  std::vector<double> ref_pass_ms;  // untraced, scaled to reference speed
  std::vector<std::map<std::string, std::int64_t>> traced_self;
  double yield_trials = 0;
  double yield_ns = 0;
  double inject_trials = 0;
  double inject_ns = 0;
  std::size_t signed_off = 0;
  // Per-pass counts of the first traced pass.
  sm::YieldMcResult ysum;
  sm::InjectionCampaignResult csum;
  const std::int64_t start = NowNs();
  for (int pass = 0;; ++pass) {
    const bool traced = tracer.enabled() && pass % 2 == 1;
    const bool first_traced = traced && traced_self.empty();
    const std::size_t first_span = tracer.spans().size();
    const HostSpeed speed;
    std::int64_t pass_ns = 0;
    std::int64_t max_ns = 0;
    for (std::size_t i = 0; i < n; ++i) {
      report.ledger.Attempt(yield_kind(i));
      report.ledger.Attempt(inject_kind(i));
      try {
        const SignoffOp op =
            RunSignoff(args, traced ? tracer : untraced, setup.flows[i],
                       setup.infos[i].spec.name, i + 1);
        const std::int64_t dt = op.yield_ns + op.inject_ns;
        pass_ns += dt;
        max_ns = std::max(max_ns, dt);
        if (pass == 0) {
          yield_ref[i] = op.yield_bytes;
          inject_ref[i] = op.inject_bytes;
        }
        report.ledger.Check(op.yield_bytes == yield_ref[i], yield_kind(i),
                            "yield result bytes differ between passes");
        report.ledger.Check(op.inject_bytes == inject_ref[i], inject_kind(i),
                            "injection result bytes differ between passes");
        report.ledger.Check(op.campaign.escapes == 0, inject_kind(i),
                            std::to_string(op.campaign.escapes) +
                                " injection escapes");
        if (!traced) {
          yield_trials += static_cast<double>(op.yield.trials);
          yield_ns += static_cast<double>(op.yield_ns);
          inject_trials += static_cast<double>(op.campaign.trials);
          inject_ns += static_cast<double>(op.inject_ns);
          ++signed_off;
        }
        if (first_traced) {
          ysum.trials += op.yield.trials;
          ysum.scan_truncations += op.yield.scan_truncations;
          ysum.words_simulated += op.yield.words_simulated;
          ysum.lanes_simulated += op.yield.lanes_simulated;
          csum.sites += op.campaign.sites;
          csum.trials += op.campaign.trials;
          csum.escapes += op.campaign.escapes;
          csum.words_simulated += op.campaign.words_simulated;
          csum.lanes_simulated += op.campaign.lanes_simulated;
        }
      } catch (const std::exception& e) {
        report.ledger.Fail(yield_kind(i), std::string("sign-off threw: ") +
                                              e.what());
        report.ledger.Fail(inject_kind(i), std::string("sign-off threw: ") +
                                               e.what());
      }
    }
    if (traced) {
      traced_pass_ms.push_back(Millis(pass_ns));
      traced_self.push_back(SelfTimesNs(tracer.SpansSince(first_span)));
    } else {
      pass_ms.push_back(Millis(pass_ns));
      ref_pass_ms.push_back(Millis(pass_ns) * speed.Scale());
      max_op_ms.push_back(Millis(max_ns));
    }
    const bool enough = static_cast<int>(pass_ms.size()) >= kMinPasses &&
                        (!tracer.enabled() ||
                         static_cast<int>(traced_pass_ms.size()) >= kMinPasses);
    if (enough && Seconds(NowNs() - start) >= args.seconds) break;
  }
  if (args.seed == kDefaultSeed) {
    for (std::size_t i = 0; i < n; ++i) {
      report.digests.Check(report.ledger, "signoff_mc/" + yield_kind(i),
                           yield_kind(i), yield_ref[i]);
      report.digests.Check(report.ledger, "signoff_mc/" + inject_kind(i),
                           inject_kind(i), inject_ref[i]);
    }
  }

  // Gated: the median pass at reference host speed (see host_speed.h).
  const double ref_ms = Median(ref_pass_ms);
  report.Set("throughput_per_s", static_cast<double>(n) / (ref_ms * 1e-3));
  report.Set("latency_ms", ref_ms / static_cast<double>(n));
  const double total_s = (yield_ns + inject_ns) * 1e-9;
  report.Show("signoff.circuits_per_s", "1/s",
              static_cast<double>(signed_off) / total_s);
  report.Show("signoff.pass_ms", "ms", Median(pass_ms));
  report.Show("signoff.ref_pass_ms", "ms", ref_ms);
  report.Show("yield.trials_per_s", "1/s", yield_trials / (yield_ns * 1e-9));
  report.Show("inject.trials_per_s", "1/s",
              inject_trials / (inject_ns * 1e-9));
  report.Show("signoff.slowest_signoff_ms", "ms", Median(max_op_ms));
  report.Show("signoff.passes", "count", static_cast<double>(pass_ms.size()));

  if (!tracer.enabled()) return;
  report.Set("variation.yield_ms", MedianSelfMs(traced_self, "variation.yield"));
  report.Set("variation.trials", static_cast<double>(ysum.trials));
  report.Set("variation.scan_truncations",
             static_cast<double>(ysum.scan_truncations));
  report.Set("sim.yield_words_simulated",
             static_cast<double>(ysum.words_simulated));
  report.Set("sim.yield_lane_utilization",
             Ratio(static_cast<double>(ysum.lanes_simulated),
                   64.0 * static_cast<double>(ysum.words_simulated)));
  report.Set("inject.campaign_ms", MedianSelfMs(traced_self, "inject.campaign"));
  report.Set("inject.sites", static_cast<double>(csum.sites));
  report.Set("inject.trials", static_cast<double>(csum.trials));
  report.Set("inject.escapes", static_cast<double>(csum.escapes));
  report.Set("sim.inject_lane_utilization",
             Ratio(static_cast<double>(csum.lanes_simulated),
                   64.0 * static_cast<double>(csum.words_simulated)));
  report.Set("harness.signoff_flow_ms", Median(flow_ms));
  report.Set("trace.overhead_frac",
             Median(traced_pass_ms) / Median(pass_ms) - 1);
}

}  // namespace perfbench
