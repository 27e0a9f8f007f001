// Event-simulation engine microbenchmark: scalar vs 64-lane batched.
//
// For each circuit, generates a fixed stream of Monte-Carlo-style trials
// (random pattern-pair transition + per-trial delay-scale plane drawn with
// Rng::ForStream, exactly the structure of the yield and injection hot
// loops) and runs it twice:
//   scalar  — one SimulateTransition per trial (the priority-queue engine);
//   batched — 64 trials per BatchEventSim::Run, each lane under its own
//             delay plane.
// An untimed first pass cross-checks every trial lane-against-scalar
// (sampled/settled bits, settle times, event counts — full bit-identity,
// not a spot check). Then kTimingReps back-to-back scalar/batched pairs are
// timed, each giving one speedup, and a circuit's speedup is the median of
// its pairs: a scheduler hiccup lands in one pair and cannot decide the
// gate.
// The benchmark FAILS unless that median reaches kMinSpeedupFloor x on
// every circuit AND kMinSpeedup x on at least kMinFastCircuits of them (the
// paper-table acceptance bar).
//
// Usage: micro_sim [--smoke] [--json=PATH]
//   --smoke     reduced circuit list + fewer trials for CI
//   --json=PATH result dump (default BENCH_sim.json)
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "liblib/lsi10k.h"
#include "map/tech_map.h"
#include "sim/batch_sim.h"
#include "sim/event_sim.h"
#include "sta/sta.h"
#include "suite/paper_suite.h"
#include "support/bench_runner.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"

namespace sm {
namespace {

constexpr double kMinSpeedup = 8.0;
constexpr double kMinSpeedupFloor = 4.0;
constexpr int kMinFastCircuits = 2;
constexpr int kTimingReps = 5;

struct Trial {
  std::vector<bool> previous;
  std::vector<bool> next;
  std::vector<double> scale;
};

struct Row {
  std::string name;
  std::size_t gates = 0;
  std::size_t trials = 0;
  double clock = 0;
  // Medians over the repetitions.
  double scalar_seconds = 0;
  double batched_seconds = 0;
  double pack_seconds = 0;  // word-packing share of batched_seconds
  std::vector<double> rep_speedups;  // scalar / batched, one per pair
  double speedup = 0;                // median of rep_speedups (gated)
  std::uint64_t scalar_events = 0;
  std::uint64_t batched_events = 0;
  std::uint64_t words = 0;
  bool identical = true;
};

// The trial stream mirrors the consumers' classification loops: even
// trials are targeted transitions (a random base pattern with one toggled
// input — the Monte-Carlo engine's path-head toggles and the campaign's
// sensitized vectors), odd trials are full random pattern pairs. Stream t
// draws the pattern pair first, then the per-gate scale plane, so the
// workload is reproducible and independent of lane packing.
std::vector<Trial> MakeTrials(const MappedNetlist& net, std::size_t count,
                              std::uint64_t seed) {
  std::vector<Trial> trials(count);
  for (std::size_t t = 0; t < count; ++t) {
    Rng rng = Rng::ForStream(seed, t);
    Trial& trial = trials[t];
    trial.previous.resize(net.NumInputs());
    trial.next.resize(net.NumInputs());
    for (std::size_t i = 0; i < net.NumInputs(); ++i) {
      trial.previous[i] = rng.Chance(0.5);
      trial.next[i] = t % 2 == 0 ? trial.previous[i] : rng.Chance(0.5);
    }
    if (t % 2 == 0) {
      const std::size_t toggle = rng.Below(net.NumInputs());
      trial.next[toggle] = !trial.previous[toggle];
    }
    trial.scale.resize(net.NumElements(), 1.0);
    for (std::size_t g = net.NumInputs(); g < net.NumElements(); ++g) {
      trial.scale[g] = 0.8 + 0.4 * rng.Uniform();
    }
  }
  return trials;
}

Row RunCircuit(const PaperCircuitInfo& info, const Library& lib,
               std::size_t trial_count) {
  Row row;
  row.name = info.spec.name;
  const Network net = GenerateCircuit(info.spec);
  const MappedNetlist mapped = DecomposeAndMap(net, lib).netlist;
  const TimingInfo timing = AnalyzeTiming(mapped);
  row.gates = mapped.NumLogicGates();
  row.clock = timing.critical_delay;
  row.trials = trial_count;

  const std::vector<Trial> trials =
      MakeTrials(mapped, trial_count, HashName(info.spec.name.c_str()));

  // One scalar pass; fills `oracle` when given.
  auto scalar_pass = [&](std::vector<EventSimResult>* oracle) {
    WallTimer timer;
    for (std::size_t t = 0; t < trial_count; ++t) {
      EventSimConfig cfg;
      cfg.clock = row.clock;
      cfg.delay_scale = trials[t].scale;
      EventSimResult r = SimulateTransition(mapped, trials[t].previous,
                                            trials[t].next, cfg);
      if (oracle != nullptr) (*oracle)[t] = std::move(r);
    }
    return timer.Seconds();
  };

  // One batched pass. Pack + Run are timed (the packing is real
  // batched-path overhead, reported in `pack_seconds`); the cross-check
  // against `oracle`, when given, is not — consumers read the result in
  // place, and the check touches every (element, lane) pair.
  const std::size_t words = mapped.NumElements();
  BatchEventSim engine(mapped);
  std::vector<std::uint64_t> prev_words(mapped.NumInputs());
  std::vector<std::uint64_t> next_words(mapped.NumInputs());
  auto batched_pass = [&](const std::vector<EventSimResult>* oracle,
                          double* pack_seconds) {
    double seconds = 0;
    *pack_seconds = 0;
    for (std::size_t lo = 0; lo < trial_count; lo += kBatchLanes) {
      const int lanes = static_cast<int>(
          std::min<std::size_t>(kBatchLanes, trial_count - lo));
      WallTimer batch_timer;
      BatchEventSimConfig cfg;
      cfg.clock = row.clock;
      cfg.lanes = lanes;
      std::fill(prev_words.begin(), prev_words.end(), 0);
      std::fill(next_words.begin(), next_words.end(), 0);
      for (int l = 0; l < lanes; ++l) {
        const Trial& trial = trials[lo + l];
        cfg.delay_scale[static_cast<std::size_t>(l)] = trial.scale.data();
        for (std::size_t i = 0; i < mapped.NumInputs(); ++i) {
          prev_words[i] |= static_cast<std::uint64_t>(trial.previous[i]) << l;
          next_words[i] |= static_cast<std::uint64_t>(trial.next[i]) << l;
        }
      }
      *pack_seconds += batch_timer.Seconds();
      const BatchEventSimResult& r = engine.Run(prev_words, next_words, cfg);
      seconds += batch_timer.Seconds();
      if (oracle == nullptr) continue;
      ++row.words;
      for (int l = 0; l < r.lanes; ++l) {
        const EventSimResult& s = (*oracle)[lo + static_cast<std::size_t>(l)];
        row.batched_events += r.lane_events[static_cast<std::size_t>(l)];
        bool same = r.lane_events[static_cast<std::size_t>(l)] == s.events;
        for (std::size_t g = 0; same && g < words; ++g) {
          const GateId id = static_cast<GateId>(g);
          same = r.SampledAt(id, l) == s.sampled[g] &&
                 r.SettledAt(id, l) == s.settled[g] &&
                 r.SettleAt(id, l) == s.settle_at[g];
        }
        row.identical = row.identical && same;
      }
    }
    return seconds;
  };

  // Untimed bit-identity pass, which also warms both engines.
  std::vector<EventSimResult> oracle(trial_count);
  scalar_pass(&oracle);
  for (const EventSimResult& r : oracle) row.scalar_events += r.events;
  double pack = 0;
  batched_pass(&oracle, &pack);

  // Timed pairs: one scalar pass, then one batched pass.
  std::vector<double> scalar_seconds;
  std::vector<double> batched_seconds;
  std::vector<double> pack_seconds;
  for (int rep = 0; rep < kTimingReps; ++rep) {
    scalar_seconds.push_back(scalar_pass(nullptr));
    batched_seconds.push_back(batched_pass(nullptr, &pack));
    pack_seconds.push_back(pack);
    row.rep_speedups.push_back(batched_seconds.back() > 0
                                   ? scalar_seconds.back() /
                                         batched_seconds.back()
                                   : 0);
  }
  row.scalar_seconds = Percentile(scalar_seconds, 50);
  row.batched_seconds = Percentile(batched_seconds, 50);
  row.pack_seconds = Percentile(pack_seconds, 50);
  row.speedup = Percentile(row.rep_speedups, 50);
  return row;
}

int Main(int argc, char** argv) {
  BenchOptions opts = ParseBenchArgs(argc, argv);
  if (opts.json_path.empty()) opts.json_path = "BENCH_sim.json";
  const std::vector<PaperCircuitInfo> infos =
      opts.smoke ? Table1SmokeCircuits() : Table1Circuits();
  const std::size_t trial_count = opts.smoke ? 1024 : 4096;

  const Library lib = Lsi10kLike();
  std::vector<Row> rows;
  bool all_identical = true;
  bool above_floor = true;
  int fast_circuits = 0;
  for (const PaperCircuitInfo& info : infos) {
    Row row = RunCircuit(info, lib, trial_count);
    const double scalar_tps =
        row.scalar_seconds > 0 ? row.trials / row.scalar_seconds : 0;
    const double batched_tps =
        row.batched_seconds > 0 ? row.trials / row.batched_seconds : 0;
    std::printf(
        "%-18s gates %5zu  trials %5zu  scalar %9.0f/s  batched %9.0f/s  "
        "speedup %5.1fx  %s\n",
        row.name.c_str(), row.gates, row.trials, scalar_tps, batched_tps,
        row.speedup, row.identical ? "identical" : "MISMATCH");
    std::fflush(stdout);
    all_identical = all_identical && row.identical;
    above_floor = above_floor && row.speedup >= kMinSpeedupFloor;
    if (row.speedup >= kMinSpeedup) ++fast_circuits;
    rows.push_back(std::move(row));
  }
  const bool all_fast = above_floor && fast_circuits >= kMinFastCircuits;

  Json doc = Json::MakeObject();
  doc.Set("bench", "micro_sim");
  doc.Set("smoke", opts.smoke);
  doc.Set("min_speedup", kMinSpeedup);
  doc.Set("min_speedup_floor", kMinSpeedupFloor);
  doc.Set("min_fast_circuits", kMinFastCircuits);
  doc.Set("fast_circuits", fast_circuits);
  doc.Set("bit_identical", all_identical);
  Json circuits = Json::MakeArray();
  for (const Row& r : rows) {
    Json c = Json::MakeObject();
    c.Set("name", r.name);
    c.Set("gates", r.gates);
    c.Set("trials", r.trials);
    c.Set("clock", r.clock);
    c.Set("scalar_seconds", r.scalar_seconds);
    c.Set("batched_seconds", r.batched_seconds);
    c.Set("pack_seconds", r.pack_seconds);
    c.Set("scalar_events", r.scalar_events);
    c.Set("batched_events", r.batched_events);
    c.Set("words", r.words);
    c.Set("speedup", r.speedup);
    Json reps = Json::MakeArray();
    for (const double x : r.rep_speedups) reps.Append(x);
    c.Set("rep_speedups", std::move(reps));
    c.Set("identical", r.identical);
    circuits.Append(std::move(c));
  }
  doc.Set("circuits", std::move(circuits));
  WriteBenchJson(opts.json_path, doc);

  if (!all_identical) {
    std::cerr << "FAIL: batched results differ from scalar\n";
  }
  if (!all_fast) {
    std::cerr << "FAIL: batched speedup gate (need every circuit >= "
              << kMinSpeedupFloor << "x and at least " << kMinFastCircuits
              << " circuits >= " << kMinSpeedup << "x)\n";
  }
  return (all_identical && all_fast) ? 0 : 1;
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
