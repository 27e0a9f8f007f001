// Randomized cross-module properties over the generated benchmark suite —
// the invariants every pass must preserve regardless of circuit shape.
#include <gtest/gtest.h>

#include "boolean/isop.h"
#include "liblib/lsi10k.h"
#include "map/tech_map.h"
#include "network/eliminate.h"
#include "network/global_bdd.h"
#include "network/sweep.h"
#include "network/topo.h"
#include "sta/paths.h"
#include "suite/paper_suite.h"
#include "util/rng.h"

namespace sm {
namespace {

class SmallCircuitTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SmallCircuitTest, SweepPreservesFunction) {
  const Network net = GenerateCircuit(PaperCircuitByName(GetParam()).spec);
  const SweepResult s = Sweep(net);
  EXPECT_EQ(FirstMismatchingOutput(net, s.network), -1);
  EXPECT_LE(s.network.NumLogicNodes(), net.NumLogicNodes());
  // Sweeping a swept network is a fixpoint in node count.
  const SweepResult again = Sweep(s.network);
  EXPECT_EQ(again.network.NumLogicNodes(), s.network.NumLogicNodes());
}

TEST_P(SmallCircuitTest, EliminatePreservesFunction) {
  const Network net = GenerateCircuit(PaperCircuitByName(GetParam()).spec);
  const Network flat = EliminateNodes(net);
  EXPECT_EQ(FirstMismatchingOutput(net, flat), -1);
  EXPECT_LE(MaxLevel(flat), MaxLevel(net));
}

TEST_P(SmallCircuitTest, PathEnumerationAgreesWithCounting) {
  const Library lib = Lsi10kLike();
  const Network ti = GenerateCircuit(PaperCircuitByName(GetParam()).spec);
  const TechMapResult mapped = DecomposeAndMap(ti, lib);
  const TimingInfo t = AnalyzeTiming(mapped.netlist);
  const double threshold = 0.9 * t.critical_delay;
  const auto paths = EnumerateSpeedPaths(mapped.netlist, t, threshold,
                                         /*limit=*/1u << 20);
  EXPECT_EQ(paths.size(), CountSpeedPaths(mapped.netlist, t, threshold));
  EXPECT_FALSE(paths.empty());
  // Every enumerated path really exceeds the threshold, and the worst path
  // realizes the critical delay.
  for (const auto& p : paths) EXPECT_GT(p.delay, threshold);
  EXPECT_DOUBLE_EQ(WorstPath(mapped.netlist, t).delay, t.critical_delay);
}

INSTANTIATE_TEST_SUITE_P(Circuits, SmallCircuitTest,
                         ::testing::Values("i1", "cmb", "x2", "cu", "frg1",
                                           "C432", "alu2"));

TEST(Property, SopFromTruthTableIsIrredundant) {
  Rng rng(777);
  for (int iter = 0; iter < 40; ++iter) {
    const int n = 2 + static_cast<int>(rng.Below(6));
    TruthTable f(n);
    for (std::uint64_t m = 0; m < f.num_minterms_space(); ++m) {
      f.Set(m, rng.Chance(0.4));
    }
    const Sop cover = Sop::FromTruthTable(f);
    EXPECT_EQ(cover.ToTruthTable(), f);
    // Irredundancy: removing any cube loses some on-set minterm.
    for (std::size_t i = 0; i < cover.NumCubes(); ++i) {
      Sop reduced = cover;
      reduced.RemoveCube(i);
      EXPECT_NE(reduced.ToTruthTable(), f)
          << "cube " << i << " is redundant";
    }
  }
}

TEST(Property, MapperModesAgreeFunctionally) {
  const Library lib = Lsi10kLike();
  for (const char* name : {"cu", "frg1", "C432"}) {
    const Network ti = GenerateCircuit(PaperCircuitByName(name).spec);
    TechMapOptions area;
    TechMapOptions delay;
    delay.mode = TechMapOptions::Mode::kDelay;
    const TechMapResult ra = DecomposeAndMap(ti, lib, area);
    const TechMapResult rd = DecomposeAndMap(ti, lib, delay);
    const double da = AnalyzeTiming(ra.netlist).critical_delay;
    const double dd = AnalyzeTiming(rd.netlist).critical_delay;
    EXPECT_LE(dd, da + 1e-9) << name;
    EXPECT_LE(ra.netlist.TotalArea(), rd.netlist.TotalArea() * 1.01 + 1e-9)
        << name << ": area mode should not cost more area than delay mode";
  }
}

TEST(Property, GeneratedCircuitsAreStableAcrossProcesses) {
  // The suite's seeds derive from circuit names; two generations in the
  // same process must agree node-for-node (determinism backs every
  // experiment's reproducibility).
  for (const auto& info : Table1Circuits()) {
    const Network a = GenerateCircuit(info.spec);
    const Network b = GenerateCircuit(info.spec);
    ASSERT_EQ(a.NumNodes(), b.NumNodes());
    for (NodeId id = 0; id < a.NumNodes(); ++id) {
      EXPECT_EQ(a.node_name(id), b.node_name(id));
      EXPECT_EQ(a.fanins(id), b.fanins(id));
    }
  }
}

}  // namespace
}  // namespace sm
