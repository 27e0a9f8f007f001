// Timing-fault injection campaign benchmark and zero-escape gate.
//
// For every Table 1 circuit: run the full masking flow at the default 10%
// guard band, then attack the protected netlist with an exhaustive
// speed-path injection campaign (one guard-window delay fault per original
// speed-path gate, robust path-sensitized + random vector pairs). The paper
// guarantee says no trial may latch a wrong value at a protected output —
// the benchmark exits non-zero on ANY escape, and also re-runs every
// campaign at 8 threads to hold the engine to its bit-identical-results
// determinism contract.
//
// Usage: inject_campaign [--smoke] [--threads=N] [--json=PATH]
//   --smoke     reduced circuit list for CI
//   --json=PATH result dump (default BENCH_inject.json)
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "harness/flow.h"
#include "harness/inject.h"
#include "liblib/lsi10k.h"
#include "suite/paper_suite.h"
#include "support/bench_runner.h"
#include "util/timer.h"

namespace sm {
namespace {

struct Row {
  std::string name;
  std::size_t gates = 0;
  double flow_seconds = 0;
  InjectionCampaignResult campaign;  // the 8-thread run
  bool identical_1v8 = false;
  bool verified = false;
};

// The determinism contract covers every semantic field; only wall-clock
// times may differ between thread counts.
bool SameResults(const InjectionCampaignResult& a,
                 const InjectionCampaignResult& b) {
  if (a.sites != b.sites || a.trials != b.trials || a.benign != b.benign ||
      a.masked != b.masked || a.escapes != b.escapes ||
      a.masked_events != b.masked_events || a.clock != b.clock ||
      a.protected_clock != b.protected_clock || a.delta != b.delta ||
      a.escape_records.size() != b.escape_records.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.escape_records.size(); ++i) {
    if (EncodeEscapeRecordJson(a.escape_records[i], a.clock,
                               a.protected_clock) !=
        EncodeEscapeRecordJson(b.escape_records[i], b.clock,
                               b.protected_clock)) {
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  BenchOptions opts = ParseBenchArgs(argc, argv);
  if (opts.json_path.empty()) opts.json_path = "BENCH_inject.json";
  const std::vector<PaperCircuitInfo> infos =
      opts.smoke ? Table1SmokeCircuits() : Table1Circuits();

  const Library lib = Lsi10kLike();
  std::vector<Row> rows;
  for (const PaperCircuitInfo& info : infos) {
    Row row;
    row.name = info.spec.name;
    const Network ti = GenerateCircuit(info.spec);
    WallTimer flow_timer;
    const FlowResult flow = RunMaskingFlow(ti, lib);
    row.flow_seconds = flow_timer.Seconds();
    row.gates = flow.original.NumLogicGates();
    row.verified = flow.verification.ok();

    InjectOptions io;
    io.vectors_per_site = 8;
    io.threads = 1;
    const InjectionCampaignResult one = RunFaultInjectionCampaign(flow, io);
    io.threads = 8;
    row.campaign = RunFaultInjectionCampaign(flow, io);
    row.identical_1v8 = SameResults(one, row.campaign);

    const InjectionCampaignResult& c = row.campaign;
    std::printf(
        "%-18s gates %5zu  sites %4zu  trials %6zu  benign %6zu  "
        "masked %5zu  escapes %zu  %s  1v8 %s  %.2fs\n",
        row.name.c_str(), row.gates, c.sites, c.trials, c.benign, c.masked,
        c.escapes, c.GuaranteeHolds() ? "held" : "BROKEN",
        row.identical_1v8 ? "ok" : "MISMATCH", c.seconds);
    std::fflush(stdout);
    rows.push_back(std::move(row));
  }

  bool all_held = true;
  bool all_identical = true;
  bool all_verified = true;
  for (const Row& row : rows) {
    all_held = all_held && row.campaign.GuaranteeHolds();
    all_identical = all_identical && row.identical_1v8;
    all_verified = all_verified && row.verified;
  }

  Json doc = Json::MakeObject();
  doc.Set("bench", "inject_campaign");
  doc.Set("smoke", opts.smoke);
  doc.Set("guarantee_holds", all_held);
  doc.Set("deterministic_1v8", all_identical);
  Json circuits = Json::MakeArray();
  for (const Row& row : rows) {
    const InjectionCampaignResult& c = row.campaign;
    Json entry = Json::MakeObject();
    entry.Set("name", row.name);
    entry.Set("gates", row.gates);
    entry.Set("verified", row.verified);
    entry.Set("sites", c.sites);
    entry.Set("trials", c.trials);
    entry.Set("benign", c.benign);
    entry.Set("masked", c.masked);
    entry.Set("escapes", c.escapes);
    entry.Set("masked_events", c.masked_events);
    entry.Set("clock", c.clock);
    entry.Set("protected_clock", c.protected_clock);
    entry.Set("delta", c.delta);
    entry.Set("identical_1v8", row.identical_1v8);
    entry.Set("flow_seconds", row.flow_seconds);
    entry.Set("campaign_seconds", c.seconds);
    entry.Set("words_simulated", c.words_simulated);
    entry.Set("lane_utilization", c.lane_utilization);
    entry.Set("trials_per_second", c.trials_per_second);
    circuits.Append(std::move(entry));
  }
  doc.Set("circuits", std::move(circuits));
  WriteBenchJson(opts.json_path, doc);

  if (!all_verified) std::cerr << "FAIL: a flow failed formal verification\n";
  if (!all_held) std::cerr << "FAIL: the masking guarantee was broken\n";
  if (!all_identical) std::cerr << "FAIL: results differ across threads\n";
  return (all_held && all_identical && all_verified) ? 0 : 1;
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
