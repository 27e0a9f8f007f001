#include "suite/structured.h"

#include "network/structural.h"
#include "util/check.h"
#include "util/strings.h"

namespace sm {

Network Comparator2Network() {
  Network net("cmp2");
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
  return net;
}

MappedNetlist Comparator2Mapped(const Library& lib) {
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

Network RippleComparatorNetwork(int bits) {
  SM_REQUIRE(bits >= 1, "comparator needs at least one bit");
  Network net("ripple_cmp" + std::to_string(bits));
  std::vector<NodeId> a(static_cast<std::size_t>(bits));
  std::vector<NodeId> b(static_cast<std::size_t>(bits));
  for (int i = 0; i < bits; ++i) {
    a[static_cast<std::size_t>(i)] = net.AddInput(IndexedName("a", i));
  }
  for (int i = 0; i < bits; ++i) {
    b[static_cast<std::size_t>(i)] = net.AddInput(IndexedName("b", i));
  }
  NodeId res = net.AddNode({}, Sop::Const1(0), "res_init");
  // Process LSB first; the bit handled last (the MSB) takes priority.
  for (int i = 0; i < bits; ++i) {
    const std::string s = std::to_string(i);
    const NodeId nb = AddNot(net, b[static_cast<std::size_t>(i)], "nb" + s);
    const NodeId gt =
        AddAnd(net, {a[static_cast<std::size_t>(i)], nb}, "gt" + s);
    const NodeId eq = AddXnor2(net, a[static_cast<std::size_t>(i)],
                               b[static_cast<std::size_t>(i)], "eq" + s);
    const NodeId keep = AddAnd(net, {eq, res}, "keep" + s);
    res = AddOr(net, {gt, keep}, "res" + s);
  }
  net.AddOutput("ge", res);
  return net;
}

Network RippleCarryAdderNetwork(int bits) {
  SM_REQUIRE(bits >= 1, "adder needs at least one bit");
  Network net("rca" + std::to_string(bits));
  std::vector<NodeId> a(static_cast<std::size_t>(bits));
  std::vector<NodeId> b(static_cast<std::size_t>(bits));
  for (int i = 0; i < bits; ++i) {
    a[static_cast<std::size_t>(i)] = net.AddInput(IndexedName("a", i));
  }
  for (int i = 0; i < bits; ++i) {
    b[static_cast<std::size_t>(i)] = net.AddInput(IndexedName("b", i));
  }
  NodeId carry = net.AddInput("cin");
  std::vector<NodeId> sums;
  for (int i = 0; i < bits; ++i) {
    const std::string s = std::to_string(i);
    const NodeId axb = AddXor2(net, a[static_cast<std::size_t>(i)],
                               b[static_cast<std::size_t>(i)], "axb" + s);
    const NodeId sum = AddXor2(net, axb, carry, "sum" + s);
    const NodeId g = AddAnd(net, {a[static_cast<std::size_t>(i)],
                                  b[static_cast<std::size_t>(i)]},
                            "g" + s);
    const NodeId p = AddAnd(net, {axb, carry}, "p" + s);
    carry = AddOr(net, {g, p}, "c" + s);
    sums.push_back(sum);
  }
  for (int i = 0; i < bits; ++i) {
    net.AddOutput(IndexedName("s", i), sums[static_cast<std::size_t>(i)]);
  }
  net.AddOutput("cout", carry);
  return net;
}

Network MiniAluNetwork(int bits) {
  SM_REQUIRE(bits >= 1, "ALU needs at least one bit");
  Network net("alu" + std::to_string(bits));
  std::vector<NodeId> a(static_cast<std::size_t>(bits));
  std::vector<NodeId> b(static_cast<std::size_t>(bits));
  for (int i = 0; i < bits; ++i) {
    a[static_cast<std::size_t>(i)] = net.AddInput(IndexedName("a", i));
  }
  for (int i = 0; i < bits; ++i) {
    b[static_cast<std::size_t>(i)] = net.AddInput(IndexedName("b", i));
  }
  const NodeId op0 = net.AddInput("op0");
  const NodeId op1 = net.AddInput("op1");

  // opcode decode: 00 add, 01 and, 10 or, 11 xor.
  const NodeId nop0 = AddNot(net, op0, "nop0");
  const NodeId nop1 = AddNot(net, op1, "nop1");
  const NodeId is_add = AddAnd(net, {nop0, nop1}, "is_add");
  const NodeId is_and = AddAnd(net, {op0, nop1}, "is_and");
  const NodeId is_or = AddAnd(net, {nop0, op1}, "is_or");
  const NodeId is_xor = AddAnd(net, {op0, op1}, "is_xor");

  NodeId carry = net.AddNode({}, Sop::Const0(0), "c_init");
  for (int i = 0; i < bits; ++i) {
    const std::string s = std::to_string(i);
    const NodeId ai = a[static_cast<std::size_t>(i)];
    const NodeId bi = b[static_cast<std::size_t>(i)];
    const NodeId axb = AddXor2(net, ai, bi, "axb" + s);
    const NodeId sum = AddXor2(net, axb, carry, "sum" + s);
    const NodeId gg = AddAnd(net, {ai, bi}, "gg" + s);
    const NodeId pp = AddAnd(net, {axb, carry}, "pp" + s);
    carry = AddOr(net, {gg, pp}, "cc" + s);

    const NodeId andv = AddAnd(net, {ai, bi}, "andv" + s);
    const NodeId orv = AddOr(net, {ai, bi}, "orv" + s);

    const NodeId t_add = AddAnd(net, {is_add, sum}, "t_add" + s);
    const NodeId t_and = AddAnd(net, {is_and, andv}, "t_and" + s);
    const NodeId t_or = AddAnd(net, {is_or, orv}, "t_or" + s);
    const NodeId t_xor = AddAnd(net, {is_xor, axb}, "t_xor" + s);
    const NodeId r = AddOr(net, {t_add, t_and, t_or, t_xor}, "r" + s);
    net.AddOutput("r" + s, r);
  }
  const NodeId cout_add = AddAnd(net, {is_add, carry}, "cout_gate");
  net.AddOutput("cout", cout_add);
  return net;
}

}  // namespace sm
