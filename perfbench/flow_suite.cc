// flow_suite: the paper's Table-2 job. RunMaskingFlow, single-threaded, at
// guard 0.1 over the 20 Table-2 circuits, in repeated passes after one
// untimed warm pass.
//
// Traced runs alternate untraced passes with passes that replay
// RunMaskingFlowPremapped's phase sequence through public calls, one span
// per phase. The replay must return the same result bytes as RunMaskingFlow
// for every circuit; if the flow's phases drift, that check fails instead
// of the benchmark timing a different program.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/flow.h"
#include "host_speed.h"
#include "liblib/lsi10k.h"
#include "map/mapped_bdd.h"
#include "network/decompose.h"
#include "network/global_bdd.h"
#include "service/protocol.h"
#include "stats.h"
#include "suite/paper_suite.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr double kGuard = 0.1;

// RunMaskingFlow with one span per phase (see src/harness/flow.cc).
sm::FlowResult ReplayFlow(const sm::Network& ti, const sm::Library& lib,
                          const sm::FlowOptions& options, Tracer& t,
                          std::uint64_t request) {
  const Tracer::Scope flow_span(t, "harness.flow", request);
  const sm::DecomposeResult decomposed = [&] {
    const Tracer::Scope s(t, "network.decompose", request);
    return sm::DecomposeToAndInv(ti);
  }();
  sm::TechMapResult mapped = [&] {
    const Tracer::Scope s(t, "map.techmap", request);
    return sm::TechMap(decomposed.network, lib, options.original_map);
  }();

  sm::ValidateFlowOptions(options, ti.NumOutputs());
  sm::BddManagerOptions mgr_options = options.bdd_options;
  mgr_options.node_limit = options.bdd_node_limit;
  auto owned = std::make_unique<sm::BddManager>(
      static_cast<int>(ti.NumInputs()), mgr_options);
  sm::BddManager* mgr = owned.get();
  sm::FlowResult r{std::move(owned),
                   std::move(mapped.netlist),
                   sm::TimingInfo{},
                   sm::SpcfResult{},
                   sm::MaskingCircuit{sm::Network(""), {}, 0, 0, 0, 0, 0},
                   sm::ProtectedCircuit{sm::MappedNetlist(""), {}, 0, 0, 0, 0},
                   sm::MaskingVerification{},
                   sm::OverheadReport{},
                   sm::BddStats{}};
  {
    const Tracer::Scope s(t, "sta.analyze", request);
    r.timing = sm::AnalyzeTiming(r.original);
  }
  {
    std::vector<sm::GateId> groots;
    for (const auto& o : r.original.outputs()) groots.push_back(o.driver);
    const auto mapped_globals = [&] {
      const Tracer::Scope s(t, "bdd.mapped_globals", request);
      return sm::BuildMappedGlobalBdds(*mgr, r.original, groots,
                                       /*checkpoint=*/true);
    }();
    const Tracer::Scope s(t, "spcf.compute", request);
    sm::TimedFunctionEngine engine(*mgr, r.original, mapped_globals);
    r.spcf = sm::ComputeSpcf(engine, r.original, r.timing, options.spcf);
  }
  std::vector<sm::BddManager::Ref> spcf_roots = r.spcf.sigma;
  spcf_roots.push_back(r.spcf.sigma_union);
  const sm::BddRootScope spcf_scope(*mgr, &spcf_roots);
  {
    const Tracer::Scope s(t, "bdd.gc", request);
    mgr->GarbageCollect();
  }
  std::vector<sm::NodeId> troots;
  for (const auto& o : ti.outputs()) troots.push_back(o.driver);
  const auto ti_globals = [&] {
    const Tracer::Scope s(t, "network.global_bdds", request);
    return sm::BuildGlobalBdds(*mgr, ti, troots);
  }();
  {
    const Tracer::Scope s(t, "masking.synth", request);
    r.masking = sm::SynthesizeMaskingNetwork(*mgr, ti, ti_globals, r.spcf,
                                             options.synth);
  }
  {
    const Tracer::Scope s(t, "masking.integrate", request);
    r.protected_circuit =
        sm::IntegrateMasking(r.original, r.masking, lib, options.integrate);
  }
  {
    const Tracer::Scope s(t, "masking.verify", request);
    r.verification = sm::VerifyMasking(*mgr, ti, ti_globals, r.masking, r.spcf);
  }
  {
    const Tracer::Scope s(t, "sim.power", request);
    r.overheads = sm::ComputeOverheads(r.original, r.protected_circuit,
                                       options.power_seed, options.power_words);
  }
  r.overheads.critical_outputs = r.spcf.critical_outputs.size();
  r.overheads.critical_minterms = r.spcf.critical_minterms;
  r.overheads.log2_critical_minterms = r.spcf.log2_critical_minterms;
  r.overheads.coverage_100 =
      r.verification.coverage && r.verification.coverage_fraction >= 1.0;
  r.overheads.safety = r.verification.safety;
  r.bdd = mgr->Stats();
  return r;
}

// The Table-2 circuits for a workload seed: the paper's name-seeded
// instances for the default seed, otherwise new instances of the same
// CircuitSpecs with generator seeds derived from (seed, name).
std::vector<sm::PaperCircuitInfo> SeededCircuits(std::uint64_t seed) {
  std::vector<sm::PaperCircuitInfo> infos = sm::Table2Circuits();
  if (seed == kDefaultSeed) return infos;
  for (auto& info : infos) info.spec.seed = DeriveSeed(seed, info.spec.name);
  return infos;
}

struct Setup {
  std::vector<sm::PaperCircuitInfo> infos;
  std::vector<sm::Network> nets;
  std::unique_ptr<sm::Library> lib;
};

// Per-layer names of the replayed phases and the span each is read from.
struct PhaseMetric {
  const char* metric;
  const char* span;
};
constexpr PhaseMetric kPhases[] = {
    {"network.decompose_ms", "network.decompose"},
    {"map.techmap_ms", "map.techmap"},
    {"sta.analyze_ms", "sta.analyze"},
    {"bdd.mapped_globals_ms", "bdd.mapped_globals"},
    {"spcf.compute_ms", "spcf.compute"},
    {"bdd.gc_ms", "bdd.gc"},
    {"network.global_bdds_ms", "network.global_bdds"},
    {"masking.synth_ms", "masking.synth"},
    {"masking.integrate_ms", "masking.integrate"},
    {"masking.verify_ms", "masking.verify"},
    {"sim.power_ms", "sim.power"},
    {"harness.flow_unaccounted_ms", "harness.flow"},
};

}  // namespace

void RunFlowSuite(const BenchArgs& args, Tracer& tracer, Report& report) {
  sm::FlowOptions options;
  options.spcf.guard_band = kGuard;

  // Set-up: circuits and library, several times; the median counts.
  Setup setup;
  std::vector<double> setup_s;
  std::vector<double> generate_ms;
  std::vector<double> library_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const HostSpeed speed;
    const std::int64_t t0 = NowNs();
    Setup s;
    s.infos = SeededCircuits(args.seed);
    s.nets = sm::GenerateCircuits(s.infos, 1);
    const std::int64_t t1 = NowNs();
    s.lib = std::make_unique<sm::Library>(sm::Lsi10kLike());
    const std::int64_t t2 = NowNs();
    setup_s.push_back(Seconds(t2 - t0) * speed.Scale());
    generate_ms.push_back(Millis(t1 - t0));
    library_ms.push_back(Millis(t2 - t1));
    setup = std::move(s);
  }
  const std::size_t n = setup.nets.size();
  const sm::Library& lib = *setup.lib;
  auto kind = [&](std::size_t i) { return "flow:" + setup.infos[i].spec.name; };

  // Warm pass: untimed for throughput, but part of set-up (lazy work in the
  // program finishes here). Its bytes are the reference every later pass
  // must reproduce; its checks run between the timed flows.
  std::vector<std::string> reference(n);
  std::int64_t warm_ns = 0;
  const HostSpeed warm_speed;
  for (std::size_t i = 0; i < n; ++i) {
    try {
      const std::int64_t t0 = NowNs();
      const sm::FlowResult r = sm::RunMaskingFlow(setup.nets[i], lib, options);
      warm_ns += NowNs() - t0;
      reference[i] = sm::EncodeFlowResult(r);
      if (!(r.verification.coverage && r.verification.safety)) {
        report.ledger.FailAll(kind(i), "VerifyMasking coverage/safety failed");
      }
      if (!sm::VerifyProtectedEquivalence(r.original, r.protected_circuit)) {
        report.ledger.FailAll(kind(i), "protected netlist not equivalent");
      }
    } catch (const std::exception& e) {
      report.ledger.FailAll(kind(i), std::string("flow threw: ") + e.what());
    }
    if (args.seed == kDefaultSeed) {
      report.digests.Check(report.ledger, "flow_suite/" + kind(i), kind(i),
                           reference[i]);
    }
  }
  report.Set("setup_s", Median(setup_s) + Seconds(warm_ns) * warm_speed.Scale());

  // Timed passes. In a traced run every other pass is the traced replay.
  std::vector<double> pass_ms;         // untraced passes
  std::vector<double> traced_pass_ms;  // traced passes
  std::vector<double> max_op_ms;
  std::vector<double> ref_pass_ms;  // untraced, scaled to reference speed
  std::vector<std::map<std::string, std::int64_t>> traced_self;
  std::size_t flows = 0;
  double flow_ns = 0;
  sm::BddStats bdd_sum;
  std::size_t gates = 0;
  std::size_t peak_live = 0;
  const std::int64_t start = NowNs();
  for (int pass = 0;; ++pass) {
    const bool traced = tracer.enabled() && pass % 2 == 1;
    const std::size_t first_span = tracer.spans().size();
    const HostSpeed speed;
    std::int64_t pass_ns = 0;
    std::int64_t max_ns = 0;
    for (std::size_t i = 0; i < n; ++i) {
      report.ledger.Attempt(kind(i));
      try {
        const std::int64_t t0 = NowNs();
        sm::FlowResult r =
            traced ? ReplayFlow(setup.nets[i], lib, options, tracer, i + 1)
                   : sm::RunMaskingFlow(setup.nets[i], lib, options);
        const std::int64_t dt = NowNs() - t0;
        pass_ns += dt;
        max_ns = std::max(max_ns, dt);
        report.ledger.Check(sm::EncodeFlowResult(r) == reference[i], kind(i),
                            traced ? "traced replay bytes differ from "
                                     "RunMaskingFlow"
                                   : "result bytes differ between passes");
        report.ledger.Check(r.verification.coverage && r.verification.safety,
                            kind(i), "VerifyMasking coverage/safety failed");
        if (traced && traced_self.empty()) {
          gates += r.original.NumGates();
          bdd_sum.ite_recursions += r.bdd.ite_recursions;
          bdd_sum.cache_hits += r.bdd.cache_hits;
          bdd_sum.cache_misses += r.bdd.cache_misses;
          bdd_sum.unique_probes += r.bdd.unique_probes;
          bdd_sum.unique_lookups += r.bdd.unique_lookups;
          bdd_sum.gc_reclaimed += r.bdd.gc_reclaimed;
          peak_live = std::max(peak_live, r.bdd.peak_live_nodes);
        }
      } catch (const std::exception& e) {
        report.ledger.Fail(kind(i), std::string("flow threw: ") + e.what());
      }
    }
    if (traced) {
      traced_pass_ms.push_back(Millis(pass_ns));
      traced_self.push_back(SelfTimesNs(tracer.SpansSince(first_span)));
    } else {
      pass_ms.push_back(Millis(pass_ns));
      ref_pass_ms.push_back(Millis(pass_ns) * speed.Scale());
      max_op_ms.push_back(Millis(max_ns));
      flows += n;
      flow_ns += static_cast<double>(pass_ns);
    }
    const bool enough = static_cast<int>(pass_ms.size()) >= kMinPasses &&
                        (!tracer.enabled() ||
                         static_cast<int>(traced_pass_ms.size()) >= kMinPasses);
    if (enough && Seconds(NowNs() - start) >= args.seconds) break;
  }

  // Gated: the median pass at reference host speed (see host_speed.h).
  const double ref_ms = Median(ref_pass_ms);
  report.Set("throughput_per_s", static_cast<double>(n) / (ref_ms * 1e-3));
  report.Set("latency_ms", ref_ms / static_cast<double>(n));
  report.Show("flow.circuits_per_s", "1/s",
              static_cast<double>(flows) / (flow_ns * 1e-9));
  report.Show("flow.pass_ms", "ms", Median(pass_ms));
  report.Show("flow.ref_pass_ms", "ms", ref_ms);
  report.Show("flow.slowest_flow_ms", "ms", Median(max_op_ms));
  report.Show("flow.passes", "count", static_cast<double>(pass_ms.size()));

  if (!tracer.enabled()) return;
  for (const PhaseMetric& p : kPhases) {
    report.Set(p.metric, MedianSelfMs(traced_self, p.span));
  }
  report.Set("map.gates", static_cast<double>(gates));
  report.Set("bdd.ite_recursions", static_cast<double>(bdd_sum.ite_recursions));
  report.Set("bdd.op_cache_hit_ratio",
             Ratio(bdd_sum.cache_hits, bdd_sum.cache_hits + bdd_sum.cache_misses));
  report.Set("bdd.unique_probes_per_lookup",
             Ratio(bdd_sum.unique_probes, bdd_sum.unique_lookups));
  report.Set("bdd.peak_live_nodes", static_cast<double>(peak_live));
  report.Set("bdd.gc_reclaimed", static_cast<double>(bdd_sum.gc_reclaimed));
  report.Set("suite.generate_ms", Median(generate_ms));
  report.Set("liblib.build_ms", Median(library_ms));
  report.Set("trace.overhead_frac",
             Median(traced_pass_ms) / Median(pass_ms) - 1);
}

}  // namespace perfbench
