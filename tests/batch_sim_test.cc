// Differential tests for the 64-lane batched event simulator: every lane of
// every batch must be bit-identical to the scalar engine — sampled/settled
// bits, settle times and event counts — across random netlists, random
// per-lane delay assignments, transient faults and partial final batches.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/flow.h"
#include "harness/inject.h"
#include "harness/yield.h"
#include "liblib/library.h"
#include "liblib/lsi10k.h"
#include "map/tech_map.h"
#include "sim/batch_sim.h"
#include "sim/event_sim.h"
#include "sta/sta.h"
#include "suite/circuit_gen.h"
#include "suite/paper_suite.h"
#include "suite/structured.h"
#include "util/rng.h"
#include "util/strings.h"

namespace sm {
namespace {

MappedNetlist MakeFuzzNetlist(CircuitSpec::Profile profile, std::uint64_t seed,
                              const Library& lib) {
  CircuitSpec spec;
  spec.name = profile == CircuitSpec::Profile::kDenseControl ? "fuzz_dense"
                                                             : "fuzz_sliced";
  spec.num_inputs = 10;
  spec.num_outputs = 6;
  spec.target_nodes = 90;
  spec.profile = profile;
  spec.seed = seed;
  return DecomposeAndMap(GenerateCircuit(spec), lib).netlist;
}

std::vector<bool> LanePattern(const std::vector<std::uint64_t>& words,
                              int lane) {
  std::vector<bool> bits(words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    bits[i] = (words[i] >> lane) & 1u;
  }
  return bits;
}

// Rebuilds lane `lane` of the batched config as a scalar EventSimConfig,
// replicating the batched engine's effective-extra computation (base plane
// plus overrides, added in order) so the doubles are bitwise equal.
EventSimConfig ScalarConfigForLane(const BatchEventSimConfig& cfg,
                                   std::size_t num_elements, int lane) {
  EventSimConfig scalar;
  scalar.clock = cfg.clock;
  const double* scale = cfg.delay_scale[static_cast<std::size_t>(lane)];
  if (scale != nullptr) scalar.delay_scale.assign(scale, scale + num_elements);
  const double* extra = cfg.extra_delay[static_cast<std::size_t>(lane)];
  bool has_extra = extra != nullptr;
  for (const BatchDelayOverride& o : cfg.extra_overrides) {
    has_extra = has_extra || o.lane == lane;
  }
  if (has_extra) {
    if (extra != nullptr) {
      scalar.extra_delay.assign(extra, extra + num_elements);
    } else {
      scalar.extra_delay.assign(num_elements, 0.0);
    }
    for (const BatchDelayOverride& o : cfg.extra_overrides) {
      if (o.lane == lane) scalar.extra_delay[o.gate] += o.delta;
    }
  }
  for (const BatchTransientFault& f : cfg.transient_faults) {
    if (f.lane == lane) {
      scalar.transient_faults.push_back(
          TransientFault{f.gate, f.transition_index, f.delta});
    }
  }
  return scalar;
}

void ExpectLaneMatchesScalar(const MappedNetlist& net,
                             const BatchEventSimResult& batch,
                             const EventSimResult& scalar, int lane) {
  for (GateId id = 0; id < net.NumElements(); ++id) {
    ASSERT_EQ(batch.SampledAt(id, lane), scalar.sampled[id])
        << "sampled mismatch at element " << id << " lane " << lane;
    ASSERT_EQ(batch.SettledAt(id, lane), scalar.settled[id])
        << "settled mismatch at element " << id << " lane " << lane;
    ASSERT_EQ(batch.SettleAt(id, lane), scalar.settle_at[id])
        << "settle_at mismatch at element " << id << " lane " << lane;
    ASSERT_EQ(batch.TimingErrorAt(id, lane), scalar.TimingErrorAt(id))
        << "timing-error mismatch at element " << id << " lane " << lane;
  }
  ASSERT_EQ(batch.lane_events[static_cast<std::size_t>(lane)], scalar.events)
      << "event count mismatch in lane " << lane;
}

TEST(BatchSim, FuzzDifferentialMatchesScalar) {
  const Library lib = Lsi10kLike();
  const std::array<CircuitSpec::Profile, 2> profiles = {
      CircuitSpec::Profile::kDenseControl,
      CircuitSpec::Profile::kSlicedControl};
  const std::array<int, 3> widths = {64, 7, 1};
  int total_timing_errors = 0;

  for (std::size_t c = 0; c < profiles.size(); ++c) {
    const MappedNetlist net =
        MakeFuzzNetlist(profiles[c], 17 + c, lib);
    const std::size_t n = net.NumElements();
    const double clock = 0.6 * AnalyzeTiming(net).critical_delay;
    std::vector<GateId> gates;
    for (GateId id = 0; id < n; ++id) {
      if (!net.IsInput(id) && !net.cell(id).IsConstant()) gates.push_back(id);
    }
    BatchEventSim engine(net);

    // Shared storage for the dense planes lanes point into; stable addresses
    // across the Run (lanes may share a plane, like an MC chunk does).
    std::vector<std::vector<double>> scale_store;
    std::vector<std::vector<double>> extra_store;
    scale_store.reserve(kBatchLanes);
    extra_store.reserve(kBatchLanes);

    for (std::size_t round = 0; round < widths.size() * 2; ++round) {
      const int lanes = widths[round % widths.size()];
      Rng rng = Rng::ForStream(0xBA7C4 + c, round);
      scale_store.clear();
      extra_store.clear();

      BatchEventSimConfig cfg;
      cfg.clock = clock;
      cfg.lanes = lanes;
      std::vector<std::uint64_t> prev(net.NumInputs());
      std::vector<std::uint64_t> next(net.NumInputs());
      for (auto& w : prev) w = rng.Next();
      for (auto& w : next) w = rng.Next();

      for (int l = 0; l < lanes; ++l) {
        switch (rng.Below(5)) {
          case 0:  // nominal delays
            break;
          case 1: {  // fresh per-lane scale plane
            std::vector<double> s(n, 1.0);
            for (std::size_t g = 0; g < n; ++g) {
              s[g] = 0.5 + rng.Uniform();
            }
            scale_store.push_back(std::move(s));
            cfg.delay_scale[static_cast<std::size_t>(l)] =
                scale_store.back().data();
            break;
          }
          case 2:  // plane shared with an earlier lane, if any
            if (!scale_store.empty()) {
              cfg.delay_scale[static_cast<std::size_t>(l)] =
                  scale_store.front().data();
            }
            break;
          case 3: {  // dense extra plane plus a sparse override
            std::vector<double> e(n, 0.0);
            for (std::size_t g = 0; g < n; ++g) {
              e[g] = rng.Uniform();
            }
            extra_store.push_back(std::move(e));
            cfg.extra_delay[static_cast<std::size_t>(l)] =
                extra_store.back().data();
            cfg.extra_overrides.push_back(BatchDelayOverride{
                l, gates[rng.Below(gates.size())], 2.0 * rng.Uniform()});
            break;
          }
          case 4:  // sparse override only (campaign-style permanent fault)
            cfg.extra_overrides.push_back(BatchDelayOverride{
                l, gates[rng.Below(gates.size())], 3.0 * rng.Uniform()});
            break;
        }
        if (rng.Chance(0.4)) {  // transient faults ride along any mode
          cfg.transient_faults.push_back(
              BatchTransientFault{l, gates[rng.Below(gates.size())],
                                  rng.Below(3), 3.0 * rng.Uniform()});
        }
      }

      const BatchEventSimResult& batch = engine.Run(prev, next, cfg);
      for (int l = 0; l < lanes; ++l) {
        const EventSimConfig scalar_cfg = ScalarConfigForLane(cfg, n, l);
        const EventSimResult scalar = SimulateTransition(
            net, LanePattern(prev, l), LanePattern(next, l), scalar_cfg);
        ExpectLaneMatchesScalar(net, batch, scalar, l);
        for (const auto& o : net.outputs()) {
          if (scalar.TimingErrorAt(o.driver)) ++total_timing_errors;
        }
      }
    }
  }
  // The fuzz must actually exercise the timing-error plane, not just settle.
  EXPECT_GT(total_timing_errors, 0);
}

// A random DAG over a parsed library whose 7-pin cell has a two-word truth
// table and a distinct delay per pin. Fanins may repeat, so the merge's
// duplicate-pin path runs on the wide cell too, and transient faults count
// the edges such gates schedule.
TEST(BatchSim, WideCellDifferentialMatchesScalar) {
  Rng fn_rng(7);
  std::string bits;
  for (int m = 0; m < 128; ++m) bits += fn_rng.Chance(0.5) ? '1' : '0';
  const Library lib = ParseLibrary("wide", R"(
cell INV   area=1 energy=0.7 delays=1 func=10
cell NAND2 area=2 energy=1.4 delays=1.4,1.1 func=1110
cell XOR2  area=5 energy=3.5 delays=2.6,2.2 func=0110
cell W7    area=6 energy=4 delays=1,1.25,1.5,1.75,2,2.25,2.5 func=)" +
                                               bits + "\n");
  const Cell* w7 = lib.ByNameOrThrow("W7");
  const std::vector<const Cell*> cells = lib.AllCells();

  MappedNetlist net("wide_dag");
  for (int i = 0; i < 10; ++i) net.AddInput(IndexedName("i", i));
  Rng dag_rng(77);
  for (int g = 0; g < 60; ++g) {
    const Cell* cell = g % 3 == 0 ? w7 : cells[dag_rng.Below(cells.size())];
    std::vector<GateId> fanins;
    for (int p = 0; p < cell->num_pins(); ++p) {
      fanins.push_back(static_cast<GateId>(dag_rng.Below(net.NumElements())));
    }
    net.AddGate(cell, std::move(fanins));
  }
  for (GateId id = static_cast<GateId>(net.NumElements()) - 6;
       id < net.NumElements(); ++id) {
    net.AddOutput(IndexedName("o", id), id);
  }

  const std::size_t n = net.NumElements();
  BatchEventSim engine(net);
  BatchEventSimConfig cfg;
  cfg.clock = 0.6 * AnalyzeTiming(net).critical_delay;
  std::vector<std::vector<double>> scale_store(kBatchLanes);
  Rng rng = Rng::ForStream(0x3170, 0);
  for (int l = 0; l < kBatchLanes; ++l) {
    auto& plane = scale_store[static_cast<std::size_t>(l)];
    plane.resize(n);
    for (double& s : plane) s = 0.5 + rng.Uniform();
    cfg.delay_scale[static_cast<std::size_t>(l)] = plane.data();
  }
  int timing_errors = 0;
  for (int round = 0; round < 4; ++round) {
    std::vector<std::uint64_t> prev(net.NumInputs());
    std::vector<std::uint64_t> next(net.NumInputs());
    for (auto& w : prev) w = rng.Next();
    for (auto& w : next) w = rng.Next();
    cfg.transient_faults.clear();
    for (int l = 0; l < kBatchLanes; ++l) {
      if (rng.Chance(0.5)) {
        cfg.transient_faults.push_back(BatchTransientFault{
            l, static_cast<GateId>(10 + rng.Below(60)), rng.Below(3),
            3.0 * rng.Uniform()});
      }
    }
    const BatchEventSimResult& batch = engine.Run(prev, next, cfg);
    for (int l = 0; l < kBatchLanes; ++l) {
      const EventSimResult scalar = SimulateTransition(
          net, LanePattern(prev, l), LanePattern(next, l),
          ScalarConfigForLane(cfg, n, l));
      ExpectLaneMatchesScalar(net, batch, scalar, l);
      for (const auto& o : net.outputs()) {
        if (scalar.TimingErrorAt(o.driver)) ++timing_errors;
      }
    }
  }
  EXPECT_GT(timing_errors, 0);
}

TEST(BatchSim, TransientFaultIsConfinedToItsLane) {
  const Library lib = Lsi10kLike();
  MappedNetlist net("chain");
  const GateId a = net.AddInput("a");
  const Cell* buf = lib.ByNameOrThrow("BUF");
  const GateId g1 = net.AddGate(buf, {a}, "g1");
  const GateId g2 = net.AddGate(buf, {g1}, "g2");
  net.AddOutput("y", g2);

  const double unit = net.cell(g1).pin_delay(0);
  BatchEventSim engine(net);
  BatchEventSimConfig cfg;
  cfg.lanes = 3;
  cfg.clock = 2.5 * unit;
  // Lane 1's first edge at g1 is pushed past the clock; lanes 0 and 2 see
  // the nominal chain.
  cfg.transient_faults.push_back(BatchTransientFault{1, g1, 0, 2.0 * unit});
  const std::vector<std::uint64_t> prev = {0b000};
  const std::vector<std::uint64_t> nxt = {0b111};
  const BatchEventSimResult& r = engine.Run(prev, nxt, cfg);

  for (int l : {0, 2}) {
    EXPECT_FALSE(r.TimingErrorAt(g2, l));
    EXPECT_EQ(r.SettleAt(g2, l), 2.0 * unit);
  }
  EXPECT_TRUE(r.TimingErrorAt(g2, 1));
  EXPECT_EQ(r.SettleAt(g2, 1), 4.0 * unit);
  EXPECT_EQ(r.TimingErrorWord(g2), 0b010u);
  EXPECT_EQ(r.lane_events[0], 3u);
  EXPECT_EQ(r.lane_events[1], 3u);
}

TEST(BatchSim, ValidatesConfig) {
  const Library lib = Lsi10kLike();
  MappedNetlist net("tiny");
  const GateId a = net.AddInput("a");
  const GateId g = net.AddGate(lib.ByNameOrThrow("INV"), {a}, "g");
  net.AddOutput("y", g);
  BatchEventSim engine(net);
  const std::vector<std::uint64_t> w = {0};

  BatchEventSimConfig cfg;
  cfg.lanes = 0;
  EXPECT_THROW(engine.Run(w, w, cfg), std::invalid_argument);
  cfg.lanes = kBatchLanes + 1;
  EXPECT_THROW(engine.Run(w, w, cfg), std::invalid_argument);

  cfg = BatchEventSimConfig{};
  EXPECT_THROW(engine.Run({}, w, cfg), std::invalid_argument);

  cfg = BatchEventSimConfig{};
  const std::vector<double> bad_scale = {1.0, -0.5};
  cfg.delay_scale[0] = bad_scale.data();
  EXPECT_THROW(engine.Run(w, w, cfg), std::invalid_argument);

  cfg = BatchEventSimConfig{};
  cfg.extra_overrides.push_back(BatchDelayOverride{63, g, 1.0});
  cfg.lanes = 2;  // override lane beyond the active width
  EXPECT_THROW(engine.Run(w, w, cfg), std::invalid_argument);

  cfg = BatchEventSimConfig{};
  cfg.transient_faults.push_back(BatchTransientFault{0, a, 0, 1.0});
  EXPECT_THROW(engine.Run(w, w, cfg), std::invalid_argument);  // input site

  cfg = BatchEventSimConfig{};
  cfg.clock = -1.0;
  EXPECT_THROW(engine.Run(w, w, cfg), std::invalid_argument);
}

TEST(MappedNetlist, EvalParallelMatchesScalarSteadyState) {
  const Library lib = Lsi10kLike();
  const MappedNetlist net =
      MakeFuzzNetlist(CircuitSpec::Profile::kDenseControl, 5, lib);
  Rng rng = Rng::ForStream(99, 0);
  std::vector<std::uint64_t> words(net.NumInputs());
  for (auto& w : words) w = rng.Next();
  const auto batch = net.EvalParallel(words);
  ASSERT_EQ(batch.size(), net.NumElements());
  for (int lane = 0; lane < 64; lane += 13) {
    const auto scalar = SteadyState(net, LanePattern(words, lane));
    for (GateId id = 0; id < net.NumElements(); ++id) {
      ASSERT_EQ((batch[id] >> lane) & 1u, scalar[id] ? 1u : 0u)
          << "element " << id << " lane " << lane;
    }
  }
}

// ---------------------------------------------------------------------------
// Consumer identity: the Monte-Carlo yield engine and the injection campaign
// classify through the batched engine only. Their results (doubles
// included) must equal, at every thread count, the literals recorded from
// the one-trial-at-a-time scalar classifier they replaced.
// Doubles are hex-float literals, so the comparisons are bit-exact.

struct YieldRecord {
  std::size_t trials, violations_original, violations_protected,
      masked_trials, residual_trials, unexcited_trials, scan_truncations;
  std::uint64_t masked_events, residual_events;
  double yield_original, yield_protected, residual_rate, residual_stderr,
      relative_error, effective_samples, clock, protected_clock;
};

struct EscapeLiteral {
  std::size_t trial;
  GateId site;
  std::uint64_t transition_index;
  double delta;
  const char* previous;
  const char* next;
  std::size_t output_index;
  bool shrunk;
};

struct CampaignRecord {
  std::size_t sites, trials, benign, masked, escapes;
  std::uint64_t masked_events;
  double clock, protected_clock, delta;
  std::vector<EscapeLiteral> escape_records;
};

std::string Bits(const std::vector<bool>& bits) {
  std::string s;
  for (const bool b : bits) s.push_back(b ? '1' : '0');
  return s;
}

void ExpectYieldMatches(const YieldRecord& want, const YieldMcResult& got) {
  EXPECT_EQ(got.trials, want.trials);
  EXPECT_EQ(got.violations_original, want.violations_original);
  EXPECT_EQ(got.violations_protected, want.violations_protected);
  EXPECT_EQ(got.masked_trials, want.masked_trials);
  EXPECT_EQ(got.residual_trials, want.residual_trials);
  EXPECT_EQ(got.unexcited_trials, want.unexcited_trials);
  EXPECT_EQ(got.scan_truncations, want.scan_truncations);
  EXPECT_EQ(got.masked_events, want.masked_events);
  EXPECT_EQ(got.residual_events, want.residual_events);
  EXPECT_EQ(got.yield_original, want.yield_original);
  EXPECT_EQ(got.yield_protected, want.yield_protected);
  EXPECT_EQ(got.residual_rate, want.residual_rate);
  EXPECT_EQ(got.residual_stderr, want.residual_stderr);
  EXPECT_EQ(got.relative_error, want.relative_error);
  EXPECT_EQ(got.effective_samples, want.effective_samples);
  EXPECT_EQ(got.clock, want.clock);
  EXPECT_EQ(got.protected_clock, want.protected_clock);
}

void ExpectCampaignMatches(const CampaignRecord& want,
                           const InjectionCampaignResult& got) {
  EXPECT_EQ(got.sites, want.sites);
  EXPECT_EQ(got.trials, want.trials);
  EXPECT_EQ(got.benign, want.benign);
  EXPECT_EQ(got.masked, want.masked);
  EXPECT_EQ(got.escapes, want.escapes);
  EXPECT_EQ(got.masked_events, want.masked_events);
  EXPECT_EQ(got.clock, want.clock);
  EXPECT_EQ(got.protected_clock, want.protected_clock);
  EXPECT_EQ(got.delta, want.delta);
  ASSERT_EQ(got.escape_records.size(), want.escape_records.size());
  for (std::size_t i = 0; i < want.escape_records.size(); ++i) {
    const EscapeRecord& x = got.escape_records[i];
    const EscapeLiteral& y = want.escape_records[i];
    EXPECT_EQ(x.trial, y.trial) << "record " << i;
    EXPECT_EQ(x.site, y.site) << "record " << i;
    EXPECT_EQ(x.transition_index, y.transition_index) << "record " << i;
    EXPECT_EQ(x.delta, y.delta) << "record " << i;
    EXPECT_EQ(Bits(x.previous), y.previous) << "record " << i;
    EXPECT_EQ(Bits(x.next), y.next) << "record " << i;
    EXPECT_EQ(x.output_index, y.output_index) << "record " << i;
    EXPECT_EQ(x.shrunk, y.shrunk) << "record " << i;
  }
}

class BatchConsumersTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = new Library(Lsi10kLike());
    flow_ = new FlowResult(RunMaskingFlow(RippleComparatorNetwork(6), *lib_));
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

Library* BatchConsumersTest::lib_ = nullptr;
FlowResult* BatchConsumersTest::flow_ = nullptr;

// The second case's sigma makes many trials residual by the escape scan; it
// pins the fold that stops counting events after a trial's first escaping
// transition.
TEST_F(BatchConsumersTest, YieldMcMatchesScalarRecordAcrossThreads) {
  struct YieldCase {
    double sigma;
    int classify_transitions;
    YieldRecord want;
  };
  const std::vector<YieldCase> cases = {
      {0.15, 4,
       {400, 202, 202, 201, 1, 190, 0, 11, 0, 0x1.fae147ae147aep-2,
        0x1.feb851eb851ecp-1, 0x1.47ae147ae147bp-9, 0x1.47ae147ae147bp-9,
        0x1p+0, 0x1.9p+8, 0x1.1666666666666p+4, 0x1.3ccccccccccccp+4}},
      {0.4, 8,
       {400, 214, 213, 151, 62, 128, 0, 26, 0, 0x1.dc28f5c28f5c2p-2,
        0x1.b0a3d70a3d70ap-1, 0x1.3d70a3d70a3d7p-3, 0x1.28d7f66611077p-6,
        0x1.dec7ae7313355p-4, 0x1.9p+8, 0x1.1666666666666p+4,
        0x1.3ccccccccccccp+4}},
  };
  for (const YieldCase& c : cases) {
    YieldMcOptions options;
    options.trials = 400;
    options.seed = 20090209;
    options.model.sigma = c.sigma;
    options.classify_transitions = c.classify_transitions;
    for (const int threads : {1, 8}) {
      options.threads = threads;
      SCOPED_TRACE(testing::Message() << "sigma " << c.sigma << " threads "
                                      << threads);
      const YieldMcResult batched = EstimateTimingYield(*flow_, options);
      ExpectYieldMatches(c.want, batched);
      EXPECT_GT(batched.words_simulated, 0u) << "batched path did not run";
      EXPECT_GT(batched.lane_utilization, 0.0);
    }
  }
}

TEST_F(BatchConsumersTest, YieldMcImportanceSamplingMatchesScalarRecord) {
  const YieldRecord want = {
      300, 274, 274, 271, 3, 249, 0, 23, 0,
      0x1.d99035525a198p-2, 0x1.ffe3fc0720a24p-1, 0x1.c03f8df5dc6bcp-13,
      0x1.16ccc8605a2fdp-13, 0x1.3e73b7d1a732ap-1, 0x1.0eaebed49a2eep+5,
      0x1.1666666666666p+4, 0x1.3ccccccccccccp+4};
  YieldMcOptions options;
  options.trials = 300;
  options.seed = 777;
  options.model.sigma = 0.12;
  options.classify_transitions = 4;
  options.importance_sampling = true;
  for (const int threads : {1, 8}) {
    options.threads = threads;
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    ExpectYieldMatches(want, EstimateTimingYield(*flow_, options));
  }
}

// The spatially correlated model draws its shared components before the
// per-gate Gaussians; this pins that sampling path, the 16-transition
// classification stream and the lane packing (words and lanes) of a
// 2-thread run.
TEST_F(BatchConsumersTest, YieldMcSpatialModelMatchesRecord) {
  const YieldRecord want = {
      400, 178, 187, 181, 6, 140, 0, 47, 0,
      0x1.1c28f5c28f5c2p-1, 0x1.f851eb851eb85p-1, 0x1.eb851eb851eb8p-7,
      0x1.8ecd49d955534p-8, 0x1.9f6b2ced0e36cp-2, 0x1.9p+8,
      0x1.1666666666666p+4, 0x1.3ccccccccccccp+4};
  YieldMcOptions options;
  options.trials = 400;
  options.seed = 5150;
  options.model.kind = VariationModelKind::kSpatiallyCorrelated;
  options.model.sigma = 0.25;
  options.model.correlation_fraction = 0.5;
  options.classify_transitions = 16;
  options.threads = 2;
  const YieldMcResult got = EstimateTimingYield(*flow_, options);
  ExpectYieldMatches(want, got);
  EXPECT_EQ(got.words_simulated, 49u);
  EXPECT_EQ(got.lanes_simulated, 2992u);
}

// Campaign fixtures: both fault kinds at 3x the guard window over the
// exhaustive speed-path sites, and at 8x over random gates — the latter
// escapes, so the escape records (shrunk and raw) are compared too.
struct CampaignCase {
  FaultKind kind;
  FaultSiteStrategy strategy;
  double delta_fraction;
};

InjectOptions CampaignCaseOptions(const CampaignCase& c) {
  InjectOptions options;
  options.fault_kind = c.kind;
  options.strategy = c.strategy;
  options.vectors_per_site = 5;
  options.delta_fraction = c.delta_fraction;
  options.seed = 31;
  return options;
}

const std::vector<CampaignCase>& CampaignCases() {
  static const std::vector<CampaignCase> cases = {
      {FaultKind::kPermanentDelta, FaultSiteStrategy::kExhaustiveSpeedPaths,
       3.0},
      {FaultKind::kTransient, FaultSiteStrategy::kExhaustiveSpeedPaths, 3.0},
      {FaultKind::kPermanentDelta, FaultSiteStrategy::kRandomGates, 8.0},
      {FaultKind::kTransient, FaultSiteStrategy::kRandomGates, 8.0},
  };
  return cases;
}

TEST_F(BatchConsumersTest, CampaignMatchesScalarRecordForBothFaultKinds) {
  const double window_3x = 0x1.4e147ae034cd3p+2;
  const double window_8x = 0x1.bd70a3d680ccfp+3;
  const double clock = 0x1.1666666666666p+4;
  const double protected_clock = 0x1.3ccccccccccccp+4;
  const std::vector<CampaignRecord> want = {
      {12, 60, 48, 12, 0, 12, clock, protected_clock, window_3x, {}},
      {12, 60, 56, 4, 0, 4, clock, protected_clock, window_3x, {}},
      {24, 120, 89, 13, 18, 13, clock, protected_clock, window_8x,
       {
           {0, 12, 0, 0x1.a04b851e37df8p+3, "000001000001", "000001000000", 0,
            true},
           {5, 13, 0, 0x1.a04b851e37df8p+3, "000001000001", "000001000000", 0,
            true},
           {7, 13, 0, 0x1.a04b851e37df8p+3, "000001000010", "000001000011", 0,
            true},
           {10, 14, 0, 0x1.99c51eb7d37c8p+3, "000001000001", "000000000001",
            0, true},
           {12, 14, 0, window_8x, "111010010011", "111011010011", 0, false},
           {14, 14, 0, window_8x, "010111111100", "010110111100", 0, false},
           {15, 15, 0, window_8x, "111111000011", "111101000011", 0, false},
           {20, 16, 0, window_8x, "111111000111", "111011000111", 0, false},
           {21, 16, 0, window_8x, "011011010100", "011001100001", 0, false},
           {25, 17, 0, window_8x, "101111011111", "101111010111", 0, false},
           {30, 18, 0, window_8x, "101111011111", "101111010111", 0, false},
           {35, 19, 0, window_8x, "111111001111", "110111001111", 0, false},
           {70, 27, 0, window_8x, "011111111111", "011111101111", 0, false},
           {90, 31, 0, window_8x, "110111001111", "110111001011", 0, false},
           {95, 32, 0, window_8x, "110111001111", "110111001011", 0, false},
           {103, 33, 0, window_8x, "101000011100", "100111010011", 0, false},
           {105, 34, 0, window_8x, "111011000111", "111011000101", 0, false},
           {116, 36, 0, window_8x, "001111001100", "111101001011", 0, false},
       }},
      {24, 120, 108, 6, 6, 6, clock, protected_clock, window_8x,
       {
           {12, 14, 0, 0x1.99c51eb7d37c8p+3, "001010000001", "001011000001",
            0, true},
           {14, 14, 0, 0x1.99c51eb7d37c8p+3, "000011000000", "000010000000",
            0, true},
           {95, 32, 0, 0x1.2067ae1421e4bp+3, "000111000111", "000111000011",
            0, true},
           {103, 33, 0, 0x1.19e147adbd81ap+3, "000101000001", "000101000011",
            0, true},
           {105, 34, 0, window_8x, "111011000111", "111011000101", 0, false},
           {116, 36, 1, window_8x, "001111001100", "111101001011", 0, false},
       }},
  };
  ASSERT_EQ(want.size(), CampaignCases().size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    InjectOptions options = CampaignCaseOptions(CampaignCases()[k]);
    for (const int threads : {1, 8}) {
      options.threads = threads;
      SCOPED_TRACE(testing::Message() << "case " << k << " threads "
                                      << threads);
      const InjectionCampaignResult batched =
          RunFaultInjectionCampaign(*flow_, options);
      ExpectCampaignMatches(want[k], batched);
      EXPECT_GT(batched.words_simulated, 0u);
    }
  }
}

// A live scalar oracle next to the recorded literals: every raw escape the
// batched campaign reports must replay as an escape, at the same output,
// through the scalar engine's single-trial classifier.
TEST_F(BatchConsumersTest, CampaignEscapesReplayThroughScalarOracle) {
  std::size_t replayed = 0;
  for (const CampaignCase& c : CampaignCases()) {
    InjectOptions options = CampaignCaseOptions(c);
    options.shrink = false;
    const InjectionCampaignResult r =
        RunFaultInjectionCampaign(*flow_, options);
    ASSERT_EQ(r.escape_records.size(), r.escapes);
    for (const EscapeRecord& rec : r.escape_records) {
      EXPECT_FALSE(rec.shrunk);
      std::size_t output = flow_->protected_circuit.netlist.NumOutputs();
      EXPECT_EQ(ClassifyFaultTrial(flow_->protected_circuit, rec.Fault(),
                                   rec.previous, rec.next, r.clock,
                                   r.protected_clock, &output),
                InjectOutcome::kEscape)
          << "trial " << rec.trial;
      EXPECT_EQ(output, rec.output_index) << "trial " << rec.trial;
      ++replayed;
    }
  }
  EXPECT_EQ(replayed, 24u) << "the 8x fixtures no longer escape";
}

// The configurations the yield_mc and inject_campaign benches once gated
// against the scalar engine: `yield_mc cu 2000 0.05` and the smoke
// campaigns.
TEST(BatchConsumers, YieldMcBenchConfigMatchesScalarRecord) {
  const Library lib = Lsi10kLike();
  const FlowResult flow =
      RunMaskingFlow(GenerateCircuit(PaperCircuitByName("cu").spec), lib);
  YieldMcOptions options;
  options.trials = 2000;
  options.seed = 20090420;
  options.model.sigma = 0.05;
  options.classify_transitions = 8;
  options.threads = 8;
  ExpectYieldMatches(
      {2000, 976, 1120, 1120, 0, 1115, 0, 10, 0, 0x1.0624dd2f1a9fcp-1,
       0x1p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.f4p+10, 0x1.b333333333334p+4,
       0x1.d99999999999ap+4},
      EstimateTimingYield(flow, options));
}

TEST(BatchConsumers, InjectSmokeCampaignsMatchScalarRecord) {
  const std::map<std::string, CampaignRecord> want = {
      {"C432",
       {16, 128, 112, 16, 0, 16, 0x1.d333333333333p+4, 0x1.f999999999999p+4,
        0x1.75c28f5a03343p+1, {}}},
      {"sparc_ifu_invctl",
       {96, 768, 704, 64, 0, 97, 0x1.f99999999999ap+4, 0x1.1p+5,
        0x1.947ae1458852ep+1, {}}},
  };
  const Library lib = Lsi10kLike();
  std::size_t checked = 0;
  for (const PaperCircuitInfo& info : Table1SmokeCircuits()) {
    SCOPED_TRACE(info.spec.name);
    const auto it = want.find(info.spec.name);
    ASSERT_NE(it, want.end()) << "no scalar record for this smoke circuit";
    const FlowResult flow = RunMaskingFlow(GenerateCircuit(info.spec), lib);
    InjectOptions options;
    options.vectors_per_site = 8;
    options.threads = 8;
    ExpectCampaignMatches(it->second, RunFaultInjectionCampaign(flow, options));
    ++checked;
  }
  EXPECT_EQ(checked, want.size());
}

}  // namespace
}  // namespace sm
