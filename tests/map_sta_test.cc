#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/flow.h"
#include "liblib/library.h"
#include "liblib/lsi10k.h"
#include "map/mapped_bdd.h"
#include "map/mapped_netlist.h"
#include "map/netlist_io.h"
#include "map/tech_map.h"
#include "network/blif.h"
#include "network/decompose.h"
#include "network/global_bdd.h"
#include "network/structural.h"
#include "sta/paths.h"
#include "sta/sta.h"
#include "suite/paper_suite.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/strings.h"

namespace sm {
namespace {

// The paper's Fig. 2(a) 2-bit comparator, built gate-for-gate:
//   y = a1·b1' + (a0 + b0')·(a1 + b1')
// Unit delay model: inverters 1, two-input gates 2. Critical delay Δ = 7.
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
  net.CheckInvariants();
  return net;
}

TEST(MappedNetlist, BasicAccountingOnComparator) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  EXPECT_EQ(net.NumInputs(), 4u);
  EXPECT_EQ(net.NumGates(), 7u);
  EXPECT_EQ(net.NumLogicGates(), 7u);
  EXPECT_EQ(net.NumOutputs(), 1u);
  EXPECT_GT(net.TotalArea(), 0);
  EXPECT_EQ(net.FindByName("g4"), 9u);
  EXPECT_EQ(net.InputIndex(net.FindByName("b0")), 2);
  EXPECT_EQ(net.InputIndex(net.FindByName("g1")), -1);
}

TEST(MappedNetlist, EvalParallelMatchesComparatorSemantics) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  // Drive all 16 input combinations in one 64-bit word batch.
  std::vector<std::uint64_t> words(4, 0);
  for (std::uint64_t m = 0; m < 16; ++m) {
    for (int v = 0; v < 4; ++v) {
      if ((m >> v) & 1) words[static_cast<std::size_t>(v)] |= 1ull << m;
    }
  }
  const auto values = net.EvalParallel(words);
  const std::uint64_t y = values[net.output(0).driver];
  for (std::uint64_t m = 0; m < 16; ++m) {
    const unsigned a = static_cast<unsigned>((m & 1) | ((m >> 1) & 1) << 1);
    const unsigned b =
        static_cast<unsigned>(((m >> 2) & 1) | ((m >> 3) & 1) << 1);
    EXPECT_EQ((y >> m) & 1, (a >= b) ? 1u : 0u) << "a=" << a << " b=" << b;
  }
}

// Library-format line for a `pins`-pin cell with a seeded random function
// and a distinct delay on every pin.
std::string RandomCellLine(const std::string& name, int pins,
                           std::uint64_t seed) {
  Rng rng(seed);
  std::string delays;
  for (int p = 0; p < pins; ++p) {
    if (p > 0) delays += ',';
    delays += std::to_string(1.0 + 0.25 * p);
  }
  std::string bits;
  for (std::uint64_t m = 0; m < (1ull << pins); ++m) {
    bits += rng.Chance(0.5) ? '1' : '0';
  }
  return "cell " + name + " area=4 energy=2 delays=" + delays +
         " func=" + bits + "\n";
}

// Every built-in cell, plus parsed 7- and 10-pin cells whose tables span
// several words, evaluated through a one-gate netlist over its whole
// minterm space.
TEST(MappedNetlist, EvalParallelMatchesCellTablesExhaustively) {
  const Library libs[] = {
      Lsi10kLike(), UnitLibrary(),
      ParseLibrary("wide", RandomCellLine("W7", 7, 7) +
                               RandomCellLine("W10", 10, 10))};
  int wide_cells = 0;
  for (const Library& lib : libs) {
    for (const Cell* cell : lib.AllCells()) {
      const int k = cell->num_pins();
      if (k > 6) ++wide_cells;
      MappedNetlist net(cell->name());
      std::vector<GateId> pins;
      for (int p = 0; p < k; ++p) {
        pins.push_back(net.AddInput(IndexedName("x", p)));
      }
      const GateId g = net.AddGate(cell, pins);
      const std::uint64_t minterms = cell->function().num_minterms_space();
      std::vector<std::uint64_t> words(pins.size());
      std::vector<std::uint64_t> values;
      for (std::uint64_t base = 0; base < minterms; base += 64) {
        for (int p = 0; p < k; ++p) {
          std::uint64_t w = 0;
          for (std::uint64_t l = 0; l < 64; ++l) {
            w |= (((base + l) >> p) & 1u) << l;
          }
          words[static_cast<std::size_t>(p)] = w;
        }
        net.EvalParallel(words, values);
        ASSERT_EQ(net.EvalParallel(words), values) << cell->name();
        for (std::uint64_t l = 0; l < 64 && base + l < minterms; ++l) {
          ASSERT_EQ((values[g] >> l) & 1u,
                    cell->function().Get(base + l) ? 1u : 0u)
              << cell->name() << " minterm " << base + l;
        }
      }
    }
  }
  EXPECT_EQ(wide_cells, 2);
}

TEST(MappedNetlist, RejectsMalformedConstruction) {
  const Library lib = UnitLibrary();
  MappedNetlist net("bad");
  const GateId a = net.AddInput("a");
  EXPECT_THROW(net.AddGate(lib.ByNameOrThrow("AND2"), {a}, "g"),
               std::invalid_argument);  // pin count
  EXPECT_THROW(net.AddGate(nullptr, {}, "g"), std::invalid_argument);
  EXPECT_THROW(net.AddInput("a"), std::invalid_argument);  // dup name
  EXPECT_THROW(net.AddOutput("y", 99), std::invalid_argument);
}

// -------------------------------------------------------------------- STA

TEST(Sta, ComparatorArrivalsMatchHandCalculation) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  const TimingInfo t = AnalyzeTiming(net);
  EXPECT_DOUBLE_EQ(t.critical_delay, 7.0);
  EXPECT_DOUBLE_EQ(t.clock, 7.0);
  EXPECT_DOUBLE_EQ(t.max_arrival[net.FindByName("nb1")], 1.0);
  EXPECT_DOUBLE_EQ(t.max_arrival[net.FindByName("g1")], 3.0);
  EXPECT_DOUBLE_EQ(t.max_arrival[net.FindByName("g2")], 3.0);
  EXPECT_DOUBLE_EQ(t.max_arrival[net.FindByName("g4")], 5.0);
  EXPECT_DOUBLE_EQ(t.max_arrival[net.FindByName("y")], 7.0);
  // Min arrivals: g2 can settle via a0 after 2.
  EXPECT_DOUBLE_EQ(t.min_arrival[net.FindByName("g2")], 2.0);
  EXPECT_DOUBLE_EQ(t.min_arrival[net.FindByName("y")], 4.0);
  // Slacks: y zero, g1 has slack 2 (required 5, arrival 3).
  EXPECT_DOUBLE_EQ(t.Slack(net.FindByName("y")), 0.0);
  EXPECT_DOUBLE_EQ(t.Slack(net.FindByName("g1")), 2.0);
  EXPECT_DOUBLE_EQ(t.Slack(net.FindByName("g4")), 0.0);
}

TEST(Sta, CriticalOutputsUnderGuardBand) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  const TimingInfo t = AnalyzeTiming(net);
  EXPECT_EQ(CriticalOutputs(net, t, 0.1).size(), 1u);
  // With an enormous guard band everything is critical; with zero, only
  // paths strictly beyond the clock (none) would be.
  EXPECT_EQ(CriticalOutputs(net, t, 0.9).size(), 1u);
  EXPECT_TRUE(CriticalOutputs(net, t, 0.0).empty());
}

TEST(Sta, ExplicitClockChangesSlackNotArrival) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  const TimingInfo t = AnalyzeTiming(net, 10.0);
  EXPECT_DOUBLE_EQ(t.critical_delay, 7.0);
  EXPECT_DOUBLE_EQ(t.clock, 10.0);
  EXPECT_DOUBLE_EQ(t.Slack(net.FindByName("y")), 3.0);
}

TEST(Paths, WorstPathIsSevenUnits) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  const TimingInfo t = AnalyzeTiming(net);
  const TimingPath p = WorstPath(net, t);
  EXPECT_DOUBLE_EQ(p.delay, 7.0);
  // PI, INV, OR, AND, OR — five elements.
  EXPECT_EQ(p.elements.size(), 5u);
  EXPECT_TRUE(net.IsInput(p.elements.front()));
  EXPECT_EQ(p.elements.back(), net.output(0).driver);
}

TEST(Paths, ExactlyTwoSpeedPathsWithinTenPercent) {
  // The paper highlights exactly two speed-paths within 10% of Δ = 7.
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  const TimingInfo t = AnalyzeTiming(net);
  const auto paths = EnumerateSpeedPaths(net, t, 0.9 * 7.0);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_DOUBLE_EQ(paths[0].delay, 7.0);
  EXPECT_DOUBLE_EQ(paths[1].delay, 7.0);
  // Both start at the b inputs and run through g4.
  for (const auto& p : paths) {
    const std::string& start = net.element(p.elements.front()).name;
    EXPECT_TRUE(start == "b0" || start == "b1") << start;
  }
  EXPECT_EQ(CountSpeedPaths(net, t, 0.9 * 7.0), 2u);
  // Lowering the threshold below 6 units picks up the two 6-delay paths.
  EXPECT_EQ(CountSpeedPaths(net, t, 5.9), 4u);
  // Everything: 6 PI->PO paths total in this circuit (a1/b1 through g1,
  // a0/b0 through g2, a1/b1 through g3).
  EXPECT_EQ(CountSpeedPaths(net, t, 0.0), 6u);
}

TEST(Paths, EnumerationLimitSaturates) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = PaperComparator(lib);
  const TimingInfo t = AnalyzeTiming(net);
  EXPECT_EQ(EnumerateSpeedPaths(net, t, 0.0, 3).size(), 3u);
  EXPECT_EQ(CountSpeedPaths(net, t, 0.0, 5), 5u);
}

// ----------------------------------------------------------------- Mapper

Network RandomNetwork(std::uint64_t seed, int num_inputs, int num_nodes) {
  Rng rng(seed);
  Network net("rand" + std::to_string(seed));
  std::vector<NodeId> pool;
  for (int i = 0; i < num_inputs; ++i) {
    pool.push_back(net.AddInput(IndexedName("i", i)));
  }
  for (int g = 0; g < num_nodes; ++g) {
    const int k = static_cast<int>(rng.Range(1, 4));
    std::vector<NodeId> fanins;
    for (int i = 0; i < k; ++i) fanins.push_back(pool[rng.Below(pool.size())]);
    TruthTable tt(k);
    for (std::uint64_t m = 0; m < tt.num_minterms_space(); ++m) {
      tt.Set(m, rng.Chance(0.5));
    }
    if (tt.IsConst0() || tt.IsConst1()) continue;
    pool.push_back(net.AddNode(fanins, Sop::FromTruthTable(tt)));
  }
  const int outs = std::min<int>(4, static_cast<int>(pool.size()));
  for (int o = 0; o < outs; ++o) {
    net.AddOutput(IndexedName("o", o),
                  pool[pool.size() - 1 - static_cast<std::size_t>(o)]);
  }
  return net;
}

// Functional equivalence between a network and its mapped netlist, by BDD.
void ExpectMappedEquivalent(const Network& net, const MappedNetlist& mapped) {
  ASSERT_EQ(net.NumInputs(), mapped.NumInputs());
  ASSERT_EQ(net.NumOutputs(), mapped.NumOutputs());
  BddManager mgr(static_cast<int>(net.NumInputs()));
  std::vector<NodeId> roots_n;
  for (const auto& o : net.outputs()) roots_n.push_back(o.driver);
  std::vector<GateId> roots_m;
  for (const auto& o : mapped.outputs()) roots_m.push_back(o.driver);
  const auto gn = BuildGlobalBdds(mgr, net, roots_n);
  const auto gm = BuildMappedGlobalBdds(mgr, mapped, roots_m);
  for (std::size_t i = 0; i < net.NumOutputs(); ++i) {
    EXPECT_EQ(gn[net.output(i).driver], gm[mapped.output(i).driver])
        << "output " << i << " mismatches after mapping";
  }
}

class TechMapRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(TechMapRandomTest, AreaModePreservesFunction) {
  const Network net = RandomNetwork(7000 + GetParam(), 6, 20);
  const Library lib = Lsi10kLike();
  const TechMapResult r = DecomposeAndMap(net, lib);
  ExpectMappedEquivalent(net, r.netlist);
}

TEST_P(TechMapRandomTest, DelayModePreservesFunctionAndIsNoSlower) {
  const Network net = RandomNetwork(8000 + GetParam(), 6, 20);
  const Library lib = Lsi10kLike();
  TechMapOptions area_opts;
  TechMapOptions delay_opts;
  delay_opts.mode = TechMapOptions::Mode::kDelay;
  const TechMapResult ra = DecomposeAndMap(net, lib, area_opts);
  const TechMapResult rd = DecomposeAndMap(net, lib, delay_opts);
  ExpectMappedEquivalent(net, rd.netlist);
  const double da = AnalyzeTiming(ra.netlist).critical_delay;
  const double dd = AnalyzeTiming(rd.netlist).critical_delay;
  EXPECT_LE(dd, da + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TechMapRandomTest, ::testing::Range(0, 10));

TEST(TechMap, MapsComparatorNetworkEquivalently) {
  // Tech-independent comparator; mapping must preserve the function.
  Network net("cmp2_ti");
  const NodeId a0 = net.AddInput("a0");
  const NodeId a1 = net.AddInput("a1");
  const NodeId b0 = net.AddInput("b0");
  const NodeId b1 = net.AddInput("b1");
  const NodeId nb1 = AddNot(net, b1, "nb1");
  const NodeId nb0 = AddNot(net, b0, "nb0");
  const NodeId g1 = AddAnd(net, {a1, nb1}, "g1");
  const NodeId g2 = AddOr(net, {a0, nb0}, "g2");
  const NodeId g3 = AddOr(net, {a1, nb1}, "g3");
  const NodeId g4 = AddAnd(net, {g2, g3}, "g4");
  const NodeId y = AddOr(net, {g1, g4}, "y");
  net.AddOutput("y", y);
  const Library lib = Lsi10kLike();  // must outlive the mapped netlist
  const TechMapResult r = DecomposeAndMap(net, lib);
  ExpectMappedEquivalent(net, r.netlist);
  EXPECT_GT(r.netlist.NumGates(), 0u);
}

TEST(TechMap, UsesComplexCellsToSaveArea) {
  // f = ~((a & b) | c) is exactly AOI21; area mode should not expand it to
  // three simple gates (AOI21 area 3 < INV+AND2+OR2 = 7).
  Network net("aoi");
  const NodeId a = net.AddInput("a");
  const NodeId b = net.AddInput("b");
  const NodeId c = net.AddInput("c");
  const NodeId g = AddAnd(net, {a, b}, "g");
  const NodeId o = AddOr(net, {g, c}, "o");
  const NodeId y = AddNot(net, o, "y");
  net.AddOutput("y", y);
  const Library lib = Lsi10kLike();
  const TechMapResult r = DecomposeAndMap(net, lib);
  EXPECT_EQ(r.netlist.NumGates(), 1u);
  EXPECT_EQ(r.netlist.cell(r.netlist.output(0).driver).name(), "AOI21");
}

TEST(TechMap, ConstantsMapToTieCells) {
  Network net("tie");
  net.AddInput("a");
  const NodeId one = net.AddNode({}, Sop::Const1(0), "one");
  net.AddOutput("y", one);
  const Library lib = Lsi10kLike();
  const TechMapResult r = DecomposeAndMap(net, lib);
  EXPECT_TRUE(r.netlist.cell(r.netlist.output(0).driver).IsConstant());
  EXPECT_TRUE(r.netlist.cell(r.netlist.output(0).driver).function().Get(0));
}

TEST(TechMap, OutputDrivenByInput) {
  Network net("wire");
  const NodeId a = net.AddInput("a");
  net.AddOutput("y", a);
  const Library lib = Lsi10kLike();
  const TechMapResult r = DecomposeAndMap(net, lib);
  EXPECT_TRUE(r.netlist.IsInput(r.netlist.output(0).driver));
}

TEST(TechMap, RejectsNonSubjectGraph) {
  Network net("bad");
  const NodeId a = net.AddInput("a");
  const NodeId b = net.AddInput("b");
  const NodeId x = AddXor2(net, a, b, "x");
  net.AddOutput("y", x);
  EXPECT_THROW(TechMap(net, Lsi10kLike()), std::invalid_argument);
  EXPECT_NO_THROW(DecomposeAndMap(net, Lsi10kLike()));
  // A buffer is not an inverter: a subject graph holding one is rejected
  // rather than mapped as ~a & b.
  Network buffered("buffered");
  const NodeId p = buffered.AddInput("a");
  const NodeId q = buffered.AddInput("b");
  buffered.AddOutput("y", AddAnd(buffered, {AddBuf(buffered, p), q}));
  EXPECT_THROW(TechMap(buffered, Lsi10kLike()), std::invalid_argument);
  const Library lib = Lsi10kLike();
  ExpectMappedEquivalent(buffered, DecomposeAndMap(buffered, lib).netlist);
}

// A cut's function treats every leaf as a free variable, even a leaf inside
// another leaf's cone. Here y = ~(a & ~a) & ~(b & ~a): the cut {a, b, na}
// of y has na = ~a among its leaves and a inside na's cone. Evaluated with
// free leaves it is ~((a | b) & na), one OAI21. Composing the fanin cuts'
// tables instead ties a to na's cone, makes a & ~a constant 0 and maps y
// to an AOI21 fed by a tie cell.
TEST(TechMap, CutLeavesAreFreeEvenInsideAnotherLeafsCone) {
  Network net("free_leaves");
  const NodeId a = net.AddInput("a");
  const NodeId b = net.AddInput("b");
  const NodeId na = AddNot(net, a, "na");
  const NodeId t0 = AddAnd(net, {a, na}, "t0");
  const NodeId t1 = AddAnd(net, {b, na}, "t1");
  const NodeId u0 = AddNot(net, t0, "u0");
  const NodeId u1 = AddNot(net, t1, "u1");
  const NodeId y = AddAnd(net, {u0, u1}, "y");
  net.AddOutput("y", y);
  ASSERT_TRUE(IsAndInvNetwork(net));
  const Library lib = Lsi10kLike();
  const std::string want =
      ".model free_leaves\n"
      ".inputs a b\n"
      ".outputs y\n"
      ".gate INV p0=a Y=na\n"
      ".gate OAI21 p0=a p1=b p2=na Y=y\n"
      ".end\n";
  for (const auto mode :
       {TechMapOptions::Mode::kArea, TechMapOptions::Mode::kDelay}) {
    TechMapOptions options;
    options.mode = mode;
    EXPECT_EQ(WriteMappedBlifString(TechMap(net, lib, options).netlist), want);
  }
}

std::uint64_t DigestSubject(const DecomposeResult& d) {
  Hasher h;
  h.AddBytes(WriteBlifString(d.network));
  for (NodeId s : d.node_map) h.Add(s);
  return h.Digest();
}

std::uint64_t DigestMapped(const TechMapResult& m) {
  Hasher h;
  h.AddBytes(WriteMappedBlifString(m.netlist));
  for (GateId g : m.node_map) h.Add(g);
  return h.Digest();
}

// Byte digests of the subject graphs and mapped netlists of the 20 Table-2
// circuits (area mode) and of their flows' masking networks (the delay mode
// IntegrateMasking uses), recorded before the mapper's internals were
// rewritten. A change to decomposition, cut enumeration, pruning or any DP
// tie-break moves one of them.
struct MapDigests {
  const char* circuit;
  std::uint64_t subject;
  std::uint64_t original;
  std::uint64_t mask_subject;
  std::uint64_t mask;
};

TEST(TechMap, Table2NetlistsMatchRecordedDigests) {
  const std::vector<MapDigests> want = {
      {"i1", 0x399fa99009e92f26ull, 0x4e5b257cf5634f36ull,
       0xa57171f7516a9298ull, 0x45a4f9ae4422e1d0ull},
      {"cmb", 0xe1340e71bbc30e10ull, 0x120c7535a7376368ull,
       0x909071f374bb0f5cull, 0xd8e848e56e498d7eull},
      {"x2", 0x7023045cea807cc9ull, 0xb58f6bc2032a31a1ull,
       0x7d38f79fe844abb2ull, 0x7c66e2ebaa868e43ull},
      {"cu", 0x9ace625e3bc36a2dull, 0x191039eee6fe39cdull,
       0x420c55fae87a06f1ull, 0x0caff0aaf6c57e99ull},
      {"too_large", 0xeb6178353f04af97ull, 0xd362d1ca5db438e2ull,
       0x6f1f12f2d6fa16c3ull, 0x7e214917ba8f41d2ull},
      {"k2", 0x72bda21dc552f10bull, 0x96de200e3fa0177aull,
       0x51dfe1811177511cull, 0xc00fa3755ce2ed64ull},
      {"alu2", 0x3d562fe5e2d76b93ull, 0x37ab59399adac9f5ull,
       0xe4ba59f0315bb9dfull, 0xa0568946f55d8be1ull},
      {"alu4", 0x2dbcd7be1944d051ull, 0xf6d03bdb0bf28f1cull,
       0xdcc0ecd1da1745a1ull, 0x967645372014b873ull},
      {"apex4", 0x28c14cc2fdf1fa0eull, 0xa8d24a8ba0f9a455ull,
       0x160f3a3e323e8c78ull, 0x8da7a7301114c9d1ull},
      {"apex6", 0xf2f78b66fa29a508ull, 0x238d24871f33877cull,
       0x706fab28b278d252ull, 0x6cfe20b0f331e31eull},
      {"frg1", 0x041a56958eff0f8aull, 0x083fbcda692aeaa1ull,
       0xac2c73e1a2813aafull, 0x13fb1bba980ad333ull},
      {"C432", 0xbd47d9669ef3af19ull, 0x78d2cb50d2b8c202ull,
       0x26ebe917f6a4413eull, 0x07a541f9324fd807ull},
      {"C880", 0x336a36a5ab5446b1ull, 0xd5c82db10a1871a1ull,
       0xb8260c0f468c86a0ull, 0xec17876820689d50ull},
      {"C2670", 0x9742d9b10102c290ull, 0x6c30bf5525929c79ull,
       0x9378926056c64b9aull, 0xea6c42d91a5a080eull},
      {"sparc_ifu_dec", 0xdd4ecbf98527ed3bull, 0xab700e5981ada246ull,
       0xce1b48bd2274e4a2ull, 0x5d9dbee31448e8d7ull},
      {"sparc_ifu_invctl", 0x61f660376533e89full, 0x151af55a437c78c4ull,
       0xc927a436fcdd0b59ull, 0xfaeaed3cc2c2d1feull},
      {"sparc_ifu_ifqdp", 0x9b02ac4c5d1f0269ull, 0x52806c677c09fffcull,
       0xe63be72fd78bda51ull, 0x8f8cd069eaf02923ull},
      {"sparc_ifu_dcl", 0xf44867f317c1cba0ull, 0xfc794398fee87c43ull,
       0x8f7859bf94188722ull, 0x1196d75813f4ff3eull},
      {"lsu_stb_ctl", 0xfaee249b4ed0e441ull, 0x7161eed24e08e69dull,
       0x7e4d3f64c03cc777ull, 0x54c3413efac73f47ull},
      {"sparc_exu_ecl", 0xd9a2bd13bcd81e9aull, 0x4562d57dfc8fb412ull,
       0x8ad68d97ee8214fbull, 0xe2d6a743869dfcfaull},
  };
  const std::vector<PaperCircuitInfo> infos = Table2Circuits();
  const std::vector<Network> nets = GenerateCircuits(infos, 1);
  const Library lib = Lsi10kLike();
  FlowOptions flow_options;
  flow_options.spcf.guard_band = 0.1;
  const TechMapOptions mask_options = IntegrateOptions{}.mask_map_options;
  ASSERT_EQ(want.size(), nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const Network& ti = nets[i];
    const DecomposeResult subject = DecomposeToAndInv(ti);
    const TechMapResult original = TechMap(subject.network, lib);
    const FlowResult flow = RunMaskingFlow(ti, lib, flow_options);
    EXPECT_EQ(WriteMappedBlifString(original.netlist),
              WriteMappedBlifString(flow.original))
        << ti.name() << ": the flow maps C differently";
    const DecomposeResult mask_subject =
        DecomposeToAndInv(flow.masking.network);
    const TechMapResult mask =
        TechMap(mask_subject.network, lib, mask_options);
    const MapDigests got = {want[i].circuit, DigestSubject(subject),
                            DigestMapped(original),
                            DigestSubject(mask_subject), DigestMapped(mask)};
    EXPECT_EQ(ti.name(), want[i].circuit);
    if (got.subject != want[i].subject || got.original != want[i].original ||
        got.mask_subject != want[i].mask_subject || got.mask != want[i].mask) {
      char row[160];
      std::snprintf(row, sizeof(row),
                    "{\"%s\", 0x%016" PRIx64 "ull, 0x%016" PRIx64
                    "ull, 0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull},",
                    ti.name().c_str(), got.subject, got.original,
                    got.mask_subject, got.mask);
      ADD_FAILURE() << "digests moved; got " << row;
    }
  }
}

}  // namespace
}  // namespace sm
