#include <gtest/gtest.h>

#include <limits>

#include "liblib/lsi10k.h"
#include "map/mapped_bdd.h"
#include "map/tech_map.h"
#include "spcf/spcf.h"
#include "sta/sta.h"
#include "util/rng.h"
#include "util/strings.h"

namespace sm {
namespace {

// Fig. 2(a) comparator under the unit delay model (see map_sta_test).
MappedNetlist PaperComparator(const Library& lib) {
  MappedNetlist net("cmp2");
  const GateId a0 = net.AddInput("a0");
  const GateId a1 = net.AddInput("a1");
  const GateId b0 = net.AddInput("b0");
  const GateId b1 = net.AddInput("b1");
  const Cell* inv = lib.ByNameOrThrow("INV");
  const Cell* and2 = lib.ByNameOrThrow("AND2");
  const Cell* or2 = lib.ByNameOrThrow("OR2");
  const GateId nb1 = net.AddGate(inv, {b1}, "nb1");
  const GateId nb0 = net.AddGate(inv, {b0}, "nb0");
  const GateId g1 = net.AddGate(and2, {a1, nb1}, "g1");
  const GateId g2 = net.AddGate(or2, {a0, nb0}, "g2");
  const GateId g3 = net.AddGate(or2, {a1, nb1}, "g3");
  const GateId g4 = net.AddGate(and2, {g2, g3}, "g4");
  const GateId y = net.AddGate(or2, {g1, g4}, "y");
  net.AddOutput("y", y);
  return net;
}

// Per-pattern floating-mode settle time, computed numerically and
// independently of the BDD machinery: the value at z settles at the earliest
// time some satisfied prime implicant of the final value's set has all its
// literals settled.
std::vector<double> PatternSettleTimes(const MappedNetlist& net,
                                       std::uint64_t pattern) {
  std::vector<double> settle(net.NumElements(), 0.0);
  std::vector<bool> value(net.NumElements(), false);
  std::size_t next_input = 0;
  for (GateId id = 0; id < net.NumElements(); ++id) {
    if (net.IsInput(id)) {
      value[id] = (pattern >> next_input++) & 1u;
      settle[id] = 0.0;
      continue;
    }
    const Cell& cell = net.cell(id);
    if (cell.IsConstant()) {
      value[id] = cell.function().Get(0);
      settle[id] = 0.0;
      continue;
    }
    const auto& fin = net.fanins(id);
    std::uint64_t m = 0;
    for (int p = 0; p < cell.num_pins(); ++p) {
      if (value[fin[static_cast<std::size_t>(p)]]) m |= 1ull << p;
    }
    value[id] = cell.function().Get(m);
    const Sop& primes =
        value[id] ? cell.OnSetPrimes() : cell.OffSetPrimes();
    double best = std::numeric_limits<double>::infinity();
    for (const Cube& p : primes.cubes()) {
      if (!p.CoversMinterm(static_cast<std::uint32_t>(m))) continue;
      double worst = 0.0;
      for (int pin = 0; pin < cell.num_pins(); ++pin) {
        if (!p.HasVar(pin)) continue;
        worst = std::max(worst,
                         settle[fin[static_cast<std::size_t>(pin)]] +
                             cell.pin_delay(pin));
      }
      best = std::min(best, worst);
    }
    settle[id] = best;
  }
  return settle;
}

TEST(Spcf, GoldenComparatorMatchesPaper) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  const TimingInfo t = AnalyzeTiming(net);
  ASSERT_DOUBLE_EQ(t.critical_delay, 7.0);

  BddManager mgr(4);
  const SpcfResult r = ComputeSpcf(mgr, net, t, SpcfOptions{});
  EXPECT_DOUBLE_EQ(r.target_arrival, 6.3);
  ASSERT_EQ(r.critical_outputs.size(), 1u);

  // Paper, Sec. 4.2: Σ_y = a1' + a0'·b1 (inputs a0,a1,b0,b1 = vars 0..3).
  const auto expected =
      mgr.Or(mgr.NotVar(1), mgr.And(mgr.NotVar(0), mgr.Var(3)));
  EXPECT_EQ(r.sigma[0], expected);
  EXPECT_EQ(r.sigma_union, expected);
  EXPECT_DOUBLE_EQ(r.critical_minterms, 10.0);
}

TEST(Spcf, AllThreeAlgorithmsOnComparator) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  const TimingInfo t = AnalyzeTiming(net);
  BddManager mgr(4);

  SpcfOptions o;
  o.algorithm = SpcfAlgorithm::kShortPathBased;
  const SpcfResult short_r = ComputeSpcf(mgr, net, t, o);
  o.algorithm = SpcfAlgorithm::kPathBasedExtension;
  const SpcfResult path_r = ComputeSpcf(mgr, net, t, o);
  o.algorithm = SpcfAlgorithm::kNodeBased;
  const SpcfResult node_r = ComputeSpcf(mgr, net, t, o);

  // Exact algorithms agree; the node-based result is a superset.
  EXPECT_EQ(short_r.sigma_union, path_r.sigma_union);
  EXPECT_TRUE(mgr.Implies(short_r.sigma_union, node_r.sigma_union));
  EXPECT_GE(node_r.critical_minterms, short_r.critical_minterms);
}

TEST(Spcf, ZeroGuardBandMeansNoSpeedPaths) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  const TimingInfo t = AnalyzeTiming(net);
  BddManager mgr(4);
  SpcfOptions o;
  o.guard_band = 0.0;
  const SpcfResult r = ComputeSpcf(mgr, net, t, o);
  EXPECT_EQ(r.sigma_union, mgr.False());
  EXPECT_TRUE(r.critical_outputs.empty());
  EXPECT_EQ(r.critical_minterms, 0.0);
}

TEST(Spcf, HugeGuardBandMakesEverythingCritical) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  const TimingInfo t = AnalyzeTiming(net);
  BddManager mgr(4);
  SpcfOptions o;
  o.guard_band = 0.99;  // target 0.07 — nothing settles that fast
  const SpcfResult r = ComputeSpcf(mgr, net, t, o);
  EXPECT_EQ(r.sigma_union, mgr.True());
  EXPECT_DOUBLE_EQ(r.critical_minterms, 16.0);
}

TEST(Spcf, MonotoneInGuardBand) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  const TimingInfo t = AnalyzeTiming(net);
  BddManager mgr(4);
  BddManager::Ref previous = mgr.False();
  for (double gb : {0.0, 0.05, 0.1, 0.2, 0.4, 0.8}) {
    SpcfOptions o;
    o.guard_band = gb;
    const SpcfResult r = ComputeSpcf(mgr, net, t, o);
    EXPECT_TRUE(mgr.Implies(previous, r.sigma_union))
        << "SPCF must grow with the guard band (gb=" << gb << ")";
    previous = r.sigma_union;
  }
}

TEST(TimedFunction, ChiWindowAndMonotonicity) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  BddManager mgr(4);
  const auto global = BuildMappedGlobalBdds(mgr, net);
  TimedFunctionEngine eng(mgr, net, global);

  const GateId y = net.output(0).driver;
  EXPECT_EQ(eng.MaxArrivalTicks(y), 7000);
  EXPECT_EQ(eng.MinArrivalTicks(y), 4000);

  // Beyond the max arrival, χ collapses to the global function.
  EXPECT_EQ(eng.Chi(y, true, 7000), global[y]);
  EXPECT_EQ(eng.Chi(y, false, 99999), mgr.Not(global[y]));
  // Before the min arrival, nothing has settled.
  EXPECT_EQ(eng.Chi(y, true, 3999), mgr.False());
  // Monotone in t.
  BddManager::Ref prev = mgr.False();
  for (std::int64_t t = 3000; t <= 8000; t += 500) {
    const auto cur = eng.SettledBy(y, t);
    EXPECT_TRUE(mgr.Implies(prev, cur)) << "t=" << t;
    prev = cur;
  }
  EXPECT_GT(eng.MemoEntries(), 0u);
}

TEST(TimedFunction, LongPathDualityHoldsEverywhere) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  BddManager mgr(4);
  const auto global = BuildMappedGlobalBdds(mgr, net);
  TimedFunctionEngine eng(mgr, net, global);
  for (GateId z = 0; z < net.NumElements(); ++z) {
    for (std::int64_t t : {-1000ll, 0ll, 2000ll, 4500ll, 6300ll, 7000ll}) {
      for (bool v : {false, true}) {
        const auto fv = v ? global[z] : mgr.Not(global[z]);
        EXPECT_EQ(eng.LongPathActivation(z, v, t),
                  mgr.And(fv, mgr.Not(eng.Chi(z, v, t))))
            << "duality broken at element " << z << " t=" << t;
      }
    }
  }
}

// ---- Random-circuit properties against the numeric per-pattern oracle ----

struct SpcfCase {
  std::uint64_t seed;
  double guard_band;
};

class SpcfRandomTest : public ::testing::TestWithParam<SpcfCase> {};

Network RandomNetwork(std::uint64_t seed) {
  Rng rng(seed);
  Network net("rand" + std::to_string(seed));
  std::vector<NodeId> pool;
  const int num_inputs = 3 + static_cast<int>(rng.Below(6));  // 3..8
  for (int i = 0; i < num_inputs; ++i) {
    pool.push_back(net.AddInput(IndexedName("i", i)));
  }
  const int nodes = 10 + static_cast<int>(rng.Below(20));
  for (int g = 0; g < nodes; ++g) {
    const int kk = static_cast<int>(rng.Range(1, 4));
    std::vector<NodeId> fanins;
    for (int i = 0; i < kk; ++i) fanins.push_back(pool[rng.Below(pool.size())]);
    TruthTable tt(kk);
    for (std::uint64_t m = 0; m < tt.num_minterms_space(); ++m) {
      tt.Set(m, rng.Chance(0.5));
    }
    if (tt.IsConst0() || tt.IsConst1()) continue;
    pool.push_back(net.AddNode(fanins, Sop::FromTruthTable(tt)));
  }
  for (int o = 0; o < 3 && o < static_cast<int>(pool.size()); ++o) {
    net.AddOutput(IndexedName("o", o),
                  pool[pool.size() - 1 - static_cast<std::size_t>(o)]);
  }
  return net;
}

TEST_P(SpcfRandomTest, MatchesPerPatternOracleAndAlgorithmOrdering) {
  const SpcfCase c = GetParam();
  const Network ti = RandomNetwork(c.seed);
  const Library lib = Lsi10kLike();
  const TechMapResult mapped = DecomposeAndMap(ti, lib);
  const MappedNetlist& net = mapped.netlist;
  const TimingInfo t = AnalyzeTiming(net);
  if (t.critical_delay <= 0) GTEST_SKIP() << "degenerate circuit";

  BddManager mgr(static_cast<int>(net.NumInputs()));
  SpcfOptions o;
  o.guard_band = c.guard_band;
  o.algorithm = SpcfAlgorithm::kShortPathBased;
  const SpcfResult exact = ComputeSpcf(mgr, net, t, o);
  o.algorithm = SpcfAlgorithm::kPathBasedExtension;
  const SpcfResult pathext = ComputeSpcf(mgr, net, t, o);
  o.algorithm = SpcfAlgorithm::kNodeBased;
  const SpcfResult node = ComputeSpcf(mgr, net, t, o);

  // (1) the two exact algorithms agree output by output;
  for (std::size_t i = 0; i < net.NumOutputs(); ++i) {
    EXPECT_EQ(exact.sigma[i], pathext.sigma[i]) << "output " << i;
    // (2) node-based over-approximates per output;
    EXPECT_TRUE(mgr.Implies(exact.sigma[i], node.sigma[i])) << "output " << i;
  }

  // (3) exhaustive check against the numeric settle-time oracle.
  const std::size_t ni = net.NumInputs();
  ASSERT_LE(ni, 10u);
  std::vector<bool> assignment(ni);
  for (std::uint64_t m = 0; m < (1ull << ni); ++m) {
    const auto settle = PatternSettleTimes(net, m);
    for (std::size_t v = 0; v < ni; ++v) assignment[v] = (m >> v) & 1u;
    for (std::size_t i = 0; i < net.NumOutputs(); ++i) {
      const GateId drv = net.output(i).driver;
      const bool late = settle[drv] > exact.target_arrival + 1e-9;
      EXPECT_EQ(mgr.Eval(exact.sigma[i], assignment), late)
          << "pattern " << m << " output " << i << " settle " << settle[drv]
          << " target " << exact.target_arrival;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SpcfRandomTest,
    ::testing::Values(SpcfCase{1, 0.1}, SpcfCase{2, 0.1}, SpcfCase{3, 0.15},
                      SpcfCase{4, 0.2}, SpcfCase{5, 0.05}, SpcfCase{6, 0.1},
                      SpcfCase{7, 0.3}, SpcfCase{8, 0.1}, SpcfCase{9, 0.25},
                      SpcfCase{10, 0.1}, SpcfCase{11, 0.02},
                      SpcfCase{12, 0.5}));

TEST(Spcf, NonCriticalOutputsHaveEmptySigma) {
  // Two outputs, one shallow (a AND b), one deep chain; only the deep one is
  // critical at a 10% guard band.
  const Library lib = UnitLibrary();
  MappedNetlist net("two");
  const GateId a = net.AddInput("a");
  const GateId b = net.AddInput("b");
  const Cell* and2 = lib.ByNameOrThrow("AND2");
  const Cell* inv = lib.ByNameOrThrow("INV");
  const GateId shallow = net.AddGate(and2, {a, b}, "shallow");
  GateId chain = shallow;
  for (int i = 0; i < 6; ++i) {
    chain = net.AddGate(inv, {chain}, IndexedName("c", i));
  }
  net.AddOutput("fast", shallow);
  net.AddOutput("slow", chain);
  const TimingInfo t = AnalyzeTiming(net);
  BddManager mgr(2);
  const SpcfResult r = ComputeSpcf(mgr, net, t, SpcfOptions{});
  EXPECT_EQ(r.critical_outputs, (std::vector<std::size_t>{1}));
  EXPECT_EQ(r.sigma[0], mgr.False());
  EXPECT_NE(r.sigma[1], mgr.False());
}

TEST(Spcf, RejectsBadGuardBand) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  const TimingInfo t = AnalyzeTiming(net);
  BddManager mgr(4);
  SpcfOptions o;
  o.guard_band = 1.0;
  EXPECT_THROW(ComputeSpcf(mgr, net, t, o), std::invalid_argument);
  o.guard_band = -0.1;
  EXPECT_THROW(ComputeSpcf(mgr, net, t, o), std::invalid_argument);
}

}  // namespace
}  // namespace sm
