#include <gtest/gtest.h>

#include "network/eliminate.h"
#include "network/global_bdd.h"
#include "network/structural.h"
#include "network/topo.h"
#include "suite/structured.h"
#include "util/rng.h"
#include "util/strings.h"

namespace sm {
namespace {

TEST(Eliminate, FlattensShallowChains) {
  // A chain of five 2-input nodes over 6 inputs collapses into one node.
  Network net("chain");
  std::vector<NodeId> in;
  for (int i = 0; i < 6; ++i) in.push_back(net.AddInput(IndexedName("i", i)));
  NodeId acc = AddAnd(net, {in[0], in[1]}, "n0");
  for (int i = 2; i < 6; ++i) {
    acc = AddOr(net, {acc, in[static_cast<std::size_t>(i)]},
                IndexedName("n", i - 1));
  }
  net.AddOutput("y", acc);
  const Network flat = EliminateNodes(net);
  EXPECT_EQ(flat.NumLogicNodes(), 1u);
  EXPECT_EQ(FirstMismatchingOutput(net, flat), -1);
  EXPECT_LT(MaxLevel(flat), MaxLevel(net));
}

TEST(Eliminate, RespectsMaxWidth) {
  // 20 inputs OR'd pairwise then together: full flattening would need a
  // 20-input node; with max_width 12 intermediate nodes must remain.
  Network net("wide");
  std::vector<NodeId> in;
  for (int i = 0; i < 20; ++i) in.push_back(net.AddInput(IndexedName("i", i)));
  std::vector<NodeId> layer;
  for (int i = 0; i < 20; i += 2) {
    layer.push_back(AddOr(net, {in[static_cast<std::size_t>(i)],
                                in[static_cast<std::size_t>(i + 1)]},
                          IndexedName("p", i / 2)));
  }
  NodeId acc = layer[0];
  for (std::size_t i = 1; i < layer.size(); ++i) {
    acc = AddOr(net, {acc, layer[i]}, IndexedName("q", i));
  }
  net.AddOutput("y", acc);
  EliminateOptions options;
  options.max_width = 12;
  const Network flat = EliminateNodes(net, options);
  EXPECT_EQ(FirstMismatchingOutput(net, flat), -1);
  for (NodeId id = 0; id < flat.NumNodes(); ++id) {
    if (flat.kind(id) == NodeKind::kLogic) {
      EXPECT_LE(flat.fanins(id).size(), 12u);
    }
  }
  EXPECT_GT(flat.NumLogicNodes(), 1u);
}

TEST(Eliminate, KeepsHighFanoutNodes) {
  Network net("shared");
  const NodeId a = net.AddInput("a");
  const NodeId b = net.AddInput("b");
  const NodeId shared = AddXor2(net, a, b, "shared");
  // `shared` feeds many consumers — above max_fanout it must stay a node.
  for (int i = 0; i < 8; ++i) {
    const NodeId c = net.AddInput(IndexedName("c", i));
    net.AddOutput(IndexedName("y", i),
                  AddAnd(net, {shared, c}, IndexedName("g", i)));
  }
  EliminateOptions options;
  options.max_fanout = 4;
  const Network flat = EliminateNodes(net, options);
  EXPECT_EQ(FirstMismatchingOutput(net, flat), -1);
  EXPECT_NE(flat.FindByName("shared"), kInvalidNode);
}

TEST(Eliminate, WideOriginalNodesCopiedVerbatim) {
  Network net("verywide");
  std::vector<NodeId> in;
  for (int i = 0; i < 16; ++i) in.push_back(net.AddInput(IndexedName("i", i)));
  // One 16-input node, wider than max_width 12.
  Sop f(16);
  for (int i = 0; i < 16; ++i) f.AddCube(Cube::Literal(i, true));
  const NodeId big = net.AddNode(in, f, "big");
  net.AddOutput("y", big);
  EliminateOptions options;
  options.max_width = 12;
  const Network flat = EliminateNodes(net, options);
  EXPECT_EQ(FirstMismatchingOutput(net, flat), -1);
  EXPECT_NE(flat.FindByName("big"), kInvalidNode);
}

TEST(Eliminate, ValidatesOptions) {
  const Network net = Comparator2Network();
  EliminateOptions bad;
  bad.elim_width = 10;
  bad.max_width = 5;
  EXPECT_THROW(EliminateNodes(net, bad), std::invalid_argument);
  bad.elim_width = 0;
  EXPECT_THROW(EliminateNodes(net, bad), std::invalid_argument);
}

class EliminateRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(EliminateRandomTest, PreservesFunctionAndReducesDepth) {
  Rng rng(6000 + static_cast<std::uint64_t>(GetParam()));
  Network net("rand");
  std::vector<NodeId> pool;
  for (int i = 0; i < 8; ++i) pool.push_back(net.AddInput(IndexedName("i", i)));
  for (int g = 0; g < 30; ++g) {
    const int k = static_cast<int>(rng.Range(1, 3));
    std::vector<NodeId> fanins;
    for (int i = 0; i < k; ++i) fanins.push_back(pool[rng.Below(pool.size())]);
    TruthTable tt(k);
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
  const Network flat = EliminateNodes(net);
  EXPECT_EQ(FirstMismatchingOutput(net, flat), -1);
  EXPECT_LE(MaxLevel(flat), MaxLevel(net));
  EXPECT_LE(flat.NumLogicNodes(), net.NumLogicNodes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EliminateRandomTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace sm
