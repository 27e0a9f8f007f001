// Shared interface of the benchmark's workloads.
//
// Every workload prints every metric named here (BENCHMARK.json lists the
// same names): the end-to-end metrics on an untraced run, the per-layer
// metrics on a traced run. A per-layer metric of a layer the workload never
// calls reads 0.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "trace.h"

namespace perfbench {

// The seed whose results are compared against recorded digests. With this
// seed flow_suite runs the paper's name-seeded circuits.
inline constexpr std::uint64_t kDefaultSeed = 1;

// Set-up is repeated this many times per run and its median reported.
inline constexpr int kSetupReps = 3;
// Timed passes per run at the least, however short --seconds is.
inline constexpr int kMinPasses = 3;

inline double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }
inline double Millis(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// A generator seed derived from the workload seed and a stream label;
// never 0 (a CircuitSpec seed of 0 means "derive from the name").
std::uint64_t DeriveSeed(std::uint64_t seed, const std::string& label);

// Self time of `span` per traced pass (SelfTimesNs of each pass's spans),
// median over passes, in ms.
double MedianSelfMs(
    const std::vector<std::map<std::string, std::int64_t>>& per_pass,
    const std::string& span);

struct BenchArgs {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics, gated in BENCHMARK.json. Each workload defines them
// over its own unit of work (see NOTES.md); every time among them is scaled
// to a reference host speed (see host_speed.h).
inline const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"throughput_per_s", "1/s"},
      {"latency_ms", "ms"},
  };
  return defs;
}

// Per-layer metrics, from the traced run. Times are self time in ms per
// pass, summed over circuits.
inline const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      // flow_suite: the replayed phases of RunMaskingFlowPremapped.
      {"network.decompose_ms", "ms"},
      {"map.techmap_ms", "ms"},
      {"sta.analyze_ms", "ms"},
      {"bdd.mapped_globals_ms", "ms"},
      {"spcf.compute_ms", "ms"},
      {"bdd.gc_ms", "ms"},
      {"network.global_bdds_ms", "ms"},
      {"masking.synth_ms", "ms"},
      {"masking.integrate_ms", "ms"},
      {"masking.verify_ms", "ms"},
      {"sim.power_ms", "ms"},
      {"harness.flow_unaccounted_ms", "ms"},
      {"map.gates", "count"},
      {"bdd.ite_recursions", "count"},
      {"bdd.op_cache_hit_ratio", "ratio"},
      {"bdd.unique_probes_per_lookup", "ratio"},
      {"bdd.peak_live_nodes", "count"},
      {"bdd.gc_reclaimed", "count"},
      {"suite.generate_ms", "ms"},
      {"liblib.build_ms", "ms"},
      // signoff_mc.
      {"variation.yield_ms", "ms"},
      {"variation.trials", "count"},
      {"variation.scan_truncations", "count"},
      {"sim.yield_words_simulated", "count"},
      {"sim.yield_lane_utilization", "ratio"},
      {"inject.campaign_ms", "ms"},
      {"inject.sites", "count"},
      {"inject.trials", "count"},
      {"inject.escapes", "count"},
      {"sim.inject_lane_utilization", "ratio"},
      {"harness.signoff_flow_ms", "ms"},
      // serve_mixed.
      {"service.resolve_hash_ms", "ms"},
      {"service.server_p50_ms", "ms"},
      {"service.server_p99_ms", "ms"},
      {"service.transport_ms", "ms"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.cache_evictions", "count"},
      {"service.overloaded", "count"},
      {"service.timeouts", "count"},
      {"fleet.forwarded", "count"},
      {"fleet.key_cache_hit_ratio", "ratio"},
      {"fleet.replays", "count"},
      {"fleet.failovers", "count"},
      {"bdd.worker_gc_runs", "count"},
      {"service.worker_manager_nodes", "count"},
      {"bench.gen_late_p99_ms", "ms"},
      // Every workload.
      {"trace.overhead_frac", "ratio"},
  };
  return defs;
}

struct Report {
  // Measured values by metric name (end-to-end and per-layer).
  std::map<std::string, double> values;
  // The workload's own figures under their descriptive names (for example
  // flow.circuits_per_s), printed before the result line. Each entry is
  // {name, unit, value}.
  struct Shown {
    std::string name;
    std::string unit;
    double value;
  };
  std::vector<Shown> shown;
  Ledger ledger;
  DigestBook digests{RecordedDigests()};

  void Set(const std::string& name, double value) { values[name] = value; }
  void Show(const std::string& name, const std::string& unit, double value) {
    shown.push_back(Shown{name, unit, value});
  }
};

void RunFlowSuite(const BenchArgs& args, Tracer& tracer, Report& report);
void RunSignoffMc(const BenchArgs& args, Tracer& tracer, Report& report);
void RunServeMixed(const BenchArgs& args, Tracer& tracer, Report& report);

}  // namespace perfbench
