#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "liblib/lsi10k.h"
#include "map/mapped_bdd.h"
#include "map/netlist_io.h"
#include "map/tech_map.h"
#include "suite/paper_suite.h"
#include "suite/structured.h"
#include "util/check.h"
#include "util/strings.h"

namespace sm {
namespace {

void ExpectNetlistsEquivalent(const MappedNetlist& a, const MappedNetlist& b) {
  ASSERT_EQ(a.NumInputs(), b.NumInputs());
  ASSERT_EQ(a.NumOutputs(), b.NumOutputs());
  BddManager mgr(static_cast<int>(a.NumInputs()));
  std::vector<GateId> ra;
  std::vector<GateId> rb;
  for (const auto& o : a.outputs()) ra.push_back(o.driver);
  for (const auto& o : b.outputs()) rb.push_back(o.driver);
  const auto ga = BuildMappedGlobalBdds(mgr, a, ra);
  const auto gb = BuildMappedGlobalBdds(mgr, b, rb);
  for (std::size_t i = 0; i < a.NumOutputs(); ++i) {
    EXPECT_EQ(ga[a.output(i).driver], gb[b.output(i).driver]) << i;
  }
}

// The `assign Y = ...` body of `cell`'s primitive module, as WriteVerilog
// emits it for a one-gate netlist.
std::string PrimitiveBody(const Cell& cell) {
  MappedNetlist net("one_gate");
  std::vector<GateId> pins;
  for (int p = 0; p < cell.num_pins(); ++p) {
    pins.push_back(net.AddInput(IndexedName("x", p)));
  }
  net.AddOutput("y", net.AddGate(&cell, pins));
  const std::string v = WriteVerilogString(net);
  const std::size_t module = v.find("module " + cell.name() + "(");
  const std::string assign = "assign Y = ";
  const std::size_t body = v.find(assign, module) + assign.size();
  return v.substr(body, v.find(';', body) - body);
}

TEST(MappedBlif, RoundTripComparator) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = Comparator2Mapped(lib);
  const std::string text = WriteMappedBlifString(net);
  EXPECT_NE(text.find(".gate AND2"), std::string::npos);
  const MappedNetlist again = ReadMappedBlifString(text, lib);
  EXPECT_EQ(again.NumGates(), net.NumGates());
  ExpectNetlistsEquivalent(net, again);
}

TEST(MappedBlif, RoundTripGeneratedCircuits) {
  const Library lib = Lsi10kLike();
  for (const char* name : {"C432", "apex6", "cu"}) {
    const Network ti = GenerateCircuit(PaperCircuitByName(name).spec);
    const TechMapResult r = DecomposeAndMap(ti, lib);
    const MappedNetlist again =
        ReadMappedBlifString(WriteMappedBlifString(r.netlist), lib);
    ExpectNetlistsEquivalent(r.netlist, again);
  }
}

TEST(MappedBlif, OutputAliasSurvives) {
  const Library lib = UnitLibrary();
  MappedNetlist net("alias");
  const GateId a = net.AddInput("a");
  const GateId g = net.AddGate(lib.ByNameOrThrow("INV"), {a}, "inv_gate");
  net.AddOutput("differently_named", g);
  const MappedNetlist again =
      ReadMappedBlifString(WriteMappedBlifString(net), lib);
  EXPECT_EQ(again.output(0).name, "differently_named");
  ExpectNetlistsEquivalent(net, again);
}

TEST(MappedBlif, Errors) {
  const Library lib = UnitLibrary();
  EXPECT_THROW(ReadMappedBlifString(
                   ".model m\n.inputs a\n.outputs y\n"
                   ".gate NOPE p0=a Y=y\n.end\n",
                   lib),
               ParseError);  // unknown cell
  EXPECT_THROW(ReadMappedBlifString(
                   ".model m\n.inputs a\n.outputs y\n"
                   ".gate AND2 p0=a Y=y\n.end\n",
                   lib),
               ParseError);  // unbound pin
  EXPECT_THROW(ReadMappedBlifString(
                   ".model m\n.inputs a\n.outputs y\n.end\n", lib),
               ParseError);  // undriven output
  EXPECT_THROW(ReadMappedBlifString(
                   ".model m\n.inputs a b\n.outputs y\n"
                   ".names a b y\n11 1\n.end\n",
                   lib),
               ParseError);  // non-buffer .names
  EXPECT_THROW(ReadMappedBlifString(
                   ".model m\n.inputs a\n.outputs y\n"
                   ".gate INV p0=a Y=y\n.gate INV p0=a Y=y\n.end\n",
                   lib),
               ParseError);  // double-driven net
}

TEST(Verilog, EmitsStructuralNetlist) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = Comparator2Mapped(lib);
  const std::string v = WriteVerilogString(net);
  EXPECT_NE(v.find("module cmp2("), std::string::npos);
  EXPECT_NE(v.find("module INV(output Y, input p0);"), std::string::npos);
  EXPECT_NE(v.find("AND2 u_g1 (.Y(g1), .p0(a1), .p1(nb1));"),
            std::string::npos);
  EXPECT_NE(v.find("output y;"), std::string::npos);
  // Primitive bodies contain a sum-of-products assign.
  EXPECT_NE(v.find("assign Y = "), std::string::npos);
  // No primitives mode drops the cell modules.
  const std::string bare = WriteVerilogString(net, false);
  EXPECT_EQ(bare.find("module INV"), std::string::npos);
}

TEST(Verilog, PrimitiveBodiesMatchRecord) {
  // Recorded from the writer; both libraries share these functions.
  const std::map<std::string, std::string> kBodies = {
      {"INV", "(~p0)"},
      {"BUF", "(p0)"},
      {"NAND2", "(~p1) | (~p0)"},
      {"NAND3", "(~p2) | (~p1) | (~p0)"},
      {"NAND4", "(~p3) | (~p2) | (~p1) | (~p0)"},
      {"NOR2", "(~p0 & ~p1)"},
      {"NOR3", "(~p0 & ~p1 & ~p2)"},
      {"NOR4", "(~p0 & ~p1 & ~p2 & ~p3)"},
      {"AND2", "(p0 & p1)"},
      {"AND3", "(p0 & p1 & p2)"},
      {"AND4", "(p0 & p1 & p2 & p3)"},
      {"OR2", "(p1) | (p0)"},
      {"OR3", "(p2) | (p1) | (p0)"},
      {"OR4", "(p3) | (p2) | (p1) | (p0)"},
      {"XOR2", "(p0 & ~p1) | (~p0 & p1)"},
      {"XNOR2", "(~p0 & ~p1) | (p0 & p1)"},
      {"AOI21", "(~p1 & ~p2) | (~p0 & ~p2)"},
      {"AOI22", "(~p1 & ~p3) | (~p0 & ~p3) | (~p1 & ~p2) | (~p0 & ~p2)"},
      {"OAI21", "(~p2) | (~p0 & ~p1)"},
      {"OAI22", "(~p2 & ~p3) | (~p0 & ~p1)"},
      {"MUX2", "(p0 & p2) | (~p0 & p1)"},
      {"MAJ3", "(p1 & p2) | (p0 & p2) | (p0 & p1)"},
      {"TIE0", "1'b0"},
      {"TIE1", "1'b1"},
  };
  const Library libs[] = {Lsi10kLike(), UnitLibrary()};
  for (const Library& lib : libs) {
    ASSERT_EQ(lib.NumCells(), kBodies.size()) << lib.name();
    for (const Cell* cell : lib.AllCells()) {
      const auto it = kBodies.find(cell->name());
      ASSERT_NE(it, kBodies.end()) << cell->name();
      EXPECT_EQ(PrimitiveBody(*cell), it->second)
          << lib.name() << " " << cell->name();
    }
  }
}

TEST(Verilog, SanitizesAwkwardNames) {
  const Library lib = UnitLibrary();
  MappedNetlist net("weird name");
  const GateId a = net.AddInput("sig[3]");
  const GateId g = net.AddGate(lib.ByNameOrThrow("INV"), {a}, "1bad");
  net.AddOutput("out.x", g);
  const std::string v = WriteVerilogString(net);
  EXPECT_EQ(v.find('['), std::string::npos);
  EXPECT_NE(v.find("sig_3_"), std::string::npos);
  EXPECT_NE(v.find("n_1bad"), std::string::npos);
}

TEST(Dot, ContainsAllElements) {
  const Library lib = UnitLibrary();
  const MappedNetlist net = Comparator2Mapped(lib);
  const std::string dot = WriteDotString(net);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("g4\\nAND2"), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);
  // 11 elements + 1 output marker.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(dot.begin(), dot.end(), '[')),
            net.NumElements() + net.NumOutputs());
}

}  // namespace
}  // namespace sm
