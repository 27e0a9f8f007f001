#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "harness/flow.h"
#include "liblib/lsi10k.h"
#include "sta/paths.h"
#include "sta/sta.h"
#include "suite/circuit_gen.h"
#include "suite/paper_suite.h"
#include "variation/variation.h"

namespace sm {
namespace {

// Unit delay model: INV 1, two-input gates 2.
//
// Chain: a → inv1 → inv2 → y.  One PI→PO path of delay 2.
MappedNetlist ChainNetlist(const Library& lib) {
  MappedNetlist net("chain");
  const GateId a = net.AddInput("a");
  const Cell* inv = lib.ByNameOrThrow("INV");
  const GateId i1 = net.AddGate(inv, {a}, "i1");
  const GateId i2 = net.AddGate(inv, {i1}, "i2");
  net.AddOutput("y", i2);
  net.CheckInvariants();
  return net;
}

// Diamond with a short bypass:
//   g1 = AND2(a, b), y = OR2(g1, a).
// Paths to y: a→g1→y (4), b→g1→y (4), a→y (2).
MappedNetlist DiamondNetlist(const Library& lib) {
  MappedNetlist net("diamond");
  const GateId a = net.AddInput("a");
  const GateId b = net.AddInput("b");
  const Cell* and2 = lib.ByNameOrThrow("AND2");
  const Cell* or2 = lib.ByNameOrThrow("OR2");
  const GateId g1 = net.AddGate(and2, {a, b}, "g1");
  const GateId y = net.AddGate(or2, {g1, a}, "y");
  net.AddOutput("y", y);
  net.CheckInvariants();
  return net;
}

TEST(SpeedPaths, ThresholdExactlyAtPathDelayExcludesThePath) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = ChainNetlist(lib);
  const TimingInfo timing = AnalyzeTiming(net);
  ASSERT_DOUBLE_EQ(timing.critical_delay, 2.0);

  // Speed-paths are strictly longer than the threshold: equality is "meets
  // timing" in the floating-mode model.
  EXPECT_EQ(EnumerateSpeedPaths(net, timing, 1.9).size(), 1u);
  EXPECT_EQ(CountSpeedPaths(net, timing, 1.9), 1u);
  EXPECT_TRUE(EnumerateSpeedPaths(net, timing, 2.0).empty());
  EXPECT_EQ(CountSpeedPaths(net, timing, 2.0), 0u);
}

TEST(SpeedPaths, RelaxedClockYieldsNoSpeedPaths) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = DiamondNetlist(lib);
  // A relaxed clock (well above Δ) puts the speed-path threshold above
  // every path delay.
  const TimingInfo timing = AnalyzeTiming(net, /*clock=*/100.0);
  const double threshold = 0.9 * timing.clock;
  EXPECT_TRUE(EnumerateSpeedPaths(net, timing, threshold).empty());
  EXPECT_EQ(CountSpeedPaths(net, timing, threshold), 0u);
}

TEST(SpeedPaths, EnumerationFindsAllPathsSortedByDelay) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = DiamondNetlist(lib);
  const TimingInfo timing = AnalyzeTiming(net);
  ASSERT_DOUBLE_EQ(timing.critical_delay, 4.0);

  const auto all = EnumerateSpeedPaths(net, timing, 0.0);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_DOUBLE_EQ(all[0].delay, 4.0);
  EXPECT_DOUBLE_EQ(all[1].delay, 4.0);
  EXPECT_DOUBLE_EQ(all[2].delay, 2.0);
  // Every enumerated path starts at a PI and ends at the output driver.
  for (const auto& p : all) {
    EXPECT_TRUE(net.IsInput(p.elements.front()));
    EXPECT_EQ(p.elements.back(), net.output(0).driver);
  }

  // Only the two long paths clear a threshold between the delays.
  EXPECT_EQ(EnumerateSpeedPaths(net, timing, 3.0).size(), 2u);
  EXPECT_EQ(CountSpeedPaths(net, timing, 3.0), 2u);
}

TEST(SpeedPaths, LimitAndCapSaturate) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = DiamondNetlist(lib);
  const TimingInfo timing = AnalyzeTiming(net);

  EXPECT_EQ(EnumerateSpeedPaths(net, timing, 0.0, /*limit=*/1).size(), 1u);
  EXPECT_EQ(EnumerateSpeedPaths(net, timing, 0.0, /*limit=*/2).size(), 2u);
  // A limit beyond the path count returns everything.
  EXPECT_EQ(EnumerateSpeedPaths(net, timing, 0.0, /*limit=*/100).size(), 3u);

  EXPECT_EQ(CountSpeedPaths(net, timing, 0.0, /*cap=*/1), 1u);
  EXPECT_EQ(CountSpeedPaths(net, timing, 0.0, /*cap=*/2), 2u);
  EXPECT_EQ(CountSpeedPaths(net, timing, 0.0, /*cap=*/100), 3u);
}

TEST(SpeedPaths, SharedDriverCountsOncePerOutput) {
  const Library lib = UnitLibrary();
  MappedNetlist net("shared");
  const GateId a = net.AddInput("a");
  const GateId i1 = net.AddGate(lib.ByNameOrThrow("INV"), {a}, "i1");
  net.AddOutput("y0", i1);
  net.AddOutput("y1", i1);
  net.CheckInvariants();
  const TimingInfo timing = AnalyzeTiming(net);

  // Each output samples independently, so the single physical path is
  // reported once per output.
  EXPECT_EQ(CountSpeedPaths(net, timing, 0.5), 2u);
  EXPECT_EQ(EnumerateSpeedPaths(net, timing, 0.5).size(), 2u);
}

// Reference STA straight off the netlist's cells: the max-arrival
// recurrence and the arrival-defining walk as written before the compiled
// view existed — max from -inf over pins in order, pin delay times scale,
// the first maximum wins.
std::vector<double> ReferenceMaxArrival(const MappedNetlist& net,
                                        const std::vector<double>& scale) {
  std::vector<double> arrival(net.NumElements(), 0.0);
  for (GateId id = 0; id < net.NumElements(); ++id) {
    if (net.IsInput(id) || net.cell(id).IsConstant()) continue;
    const Cell& cell = net.cell(id);
    double a = -std::numeric_limits<double>::infinity();
    for (int p = 0; p < cell.num_pins(); ++p) {
      a = std::max(a, arrival[net.fanins(id)[static_cast<std::size_t>(p)]] +
                          cell.pin_delay(p) * scale[id]);
    }
    arrival[id] = a;
  }
  return arrival;
}

GateId ReferencePathHead(const MappedNetlist& net,
                         const std::vector<double>& arrival,
                         const std::vector<double>& scale, GateId from) {
  GateId at = from;
  while (!net.IsInput(at) && !net.cell(at).IsConstant()) {
    const Cell& cell = net.cell(at);
    int best_pin = 0;
    double best = -std::numeric_limits<double>::infinity();
    for (int p = 0; p < cell.num_pins(); ++p) {
      const double a = arrival[net.fanins(at)[static_cast<std::size_t>(p)]] +
                       cell.pin_delay(p) * scale[at];
      if (a > best) {
        best = a;
        best_pin = p;
      }
    }
    at = net.fanins(at)[static_cast<std::size_t>(best_pin)];
  }
  return at;
}

// The compiled view, AnalyzeTiming and ArrivalDefiningPath against the
// reference, bit for bit, on every Table-1 protected netlist under 64
// sampled delay planes — half of them importance-sampling shifted.
TEST(TimingView, MatchesReferenceOnTable1ProtectedNetlists) {
  const Library lib = Lsi10kLike();
  for (const PaperCircuitInfo& info : Table1Circuits()) {
    SCOPED_TRACE(info.spec.name);
    const FlowResult flow = RunMaskingFlow(GenerateCircuit(info.spec), lib);
    const MappedNetlist& net = flow.protected_circuit.netlist;
    const TimingView view(net);
    ASSERT_EQ(view.NumElements(), net.NumElements());
    const DelayScaleSampler sampler(net, VariationModel{});
    std::vector<double> shift(net.NumElements(), 0.0);
    for (GateId id = 0; id < net.NumElements(); ++id) {
      if (!net.IsInput(id) && id % 3 == 0) shift[id] = 0.4;
    }
    std::vector<double> arrival;
    for (std::uint64_t k = 0; k < 64; ++k) {
      const std::vector<double> scale =
          k % 2 == 0 ? sampler.Sample(2009, k)
                     : sampler.SampleShifted(2009, k, shift).scale;
      const std::vector<double> want = ReferenceMaxArrival(net, scale);
      view.MaxArrival(scale.data(), arrival);
      const TimingInfo timing = AnalyzeTiming(net, -1, &scale);
      for (GateId id = 0; id < net.NumElements(); ++id) {
        ASSERT_EQ(arrival[id], want[id]) << "plane " << k << " element " << id;
        ASSERT_EQ(timing.max_arrival[id], want[id])
            << "plane " << k << " element " << id;
      }
      for (const auto& o : net.outputs()) {
        const GateId head = ReferencePathHead(net, want, scale, o.driver);
        EXPECT_EQ(view.PathHead(o.driver, arrival, scale.data()), head)
            << "plane " << k << " output " << o.name;
        EXPECT_EQ(ArrivalDefiningPath(view, timing.max_arrival, o.driver,
                                      scale.data())
                      .back()
                      .gate,
                  head)
            << "plane " << k << " output " << o.name;
      }
    }
  }
}

// A tie cell, a gate fed twice by one net and exact arrival ties, on which
// the lowest pin must define the arrival:
//   g1 = AND2(t, a), g2 = AND2(b, b), g3 = OR2(g1, g2), i1 = INV(a),
//   g4 = AND2(i1, g2); outputs g3, g4 and the tie cell t itself.
TEST(TimingView, TieCellsDuplicateFaninsAndExactTies) {
  const Library lib = UnitLibrary();
  MappedNetlist net("ties");
  const GateId a = net.AddInput("a");
  const GateId b = net.AddInput("b");
  const GateId t = net.AddGate(lib.ByNameOrThrow("TIE1"), {}, "t");
  const Cell* and2 = lib.ByNameOrThrow("AND2");
  const GateId g1 = net.AddGate(and2, {t, a}, "g1");
  const GateId g2 = net.AddGate(and2, {b, b}, "g2");
  const GateId g3 = net.AddGate(lib.ByNameOrThrow("OR2"), {g1, g2}, "g3");
  const GateId i1 = net.AddGate(lib.ByNameOrThrow("INV"), {a}, "i1");
  const GateId g4 = net.AddGate(and2, {i1, g2}, "g4");
  net.AddOutput("y3", g3);
  net.AddOutput("y4", g4);
  net.AddOutput("yt", t);
  net.CheckInvariants();

  const TimingView view(net);
  EXPECT_TRUE(view.IsLeaf(a));
  EXPECT_TRUE(view.IsLeaf(t));
  EXPECT_EQ(view.NumPins(g2), 2);
  EXPECT_EQ(view.Fanin(g2, 1), b);

  // Nominal: g1 and g2 both settle at 2, so g3's pins tie and pin 0 (g1)
  // wins; inside g1 the tie cell and a tie again, so the walk ends at t.
  std::vector<double> arrival;
  view.MaxArrival(nullptr, arrival);
  EXPECT_EQ(arrival, (std::vector<double>{0, 0, 0, 2, 2, 4, 1, 4}));
  EXPECT_EQ(view.DefiningPin(g3, arrival, nullptr), 0);
  EXPECT_EQ(view.PathHead(g3, arrival, nullptr), t);
  EXPECT_EQ(view.PathHead(g4, arrival, nullptr), b);
  EXPECT_EQ(view.PathHead(t, arrival, nullptr), t);
  const std::vector<PathStep> path =
      ArrivalDefiningPath(view, arrival, g3, nullptr);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0].gate, g3);
  EXPECT_EQ(path[0].pin, 0);
  EXPECT_EQ(path[1].gate, g1);
  EXPECT_EQ(path[1].pin, 0);
  EXPECT_EQ(path[2].gate, t);
  EXPECT_EQ(path[2].pin, -1);

  // Halving g2 makes it settle at 1, so g4's pins tie at 3 and i1 (pin 0)
  // defines g4; g3 still follows g1 to the tie cell.
  std::vector<double> scale(net.NumElements(), 1.0);
  scale[g2] = 0.5;
  view.MaxArrival(scale.data(), arrival);
  EXPECT_EQ(arrival, (std::vector<double>{0, 0, 0, 2, 1, 4, 1, 3}));
  EXPECT_EQ(view.PathHead(g4, arrival, scale.data()), a);
  EXPECT_EQ(view.PathHead(g3, arrival, scale.data()), t);
  EXPECT_EQ(AnalyzeTiming(net, -1, &scale).max_arrival, arrival);
  EXPECT_EQ(ReferenceMaxArrival(net, scale), arrival);
}

}  // namespace
}  // namespace sm
