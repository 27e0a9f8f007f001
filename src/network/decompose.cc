#include "network/decompose.h"

#include <algorithm>
#include <array>
#include <queue>
#include <unordered_map>

#include "boolean/isop.h"
#include "util/check.h"
#include "util/strings.h"

namespace sm {
namespace {

// Builds AND2/INV structure in a light arena, with structural hashing and
// per-node arrival estimates (INV = 1, AND2 = 2 — the unit-delay ratios;
// only the relative ordering matters). Trees are combined Huffman-style:
// earliest-arriving operands first, which minimizes the tree's completion
// time. Arena ids follow creation order; only the nodes that survive
// pruning become a Network.
class Builder {
 public:
  enum class Kind : std::uint8_t { kInput, kConst0, kConst1, kAnd, kInv };
  struct Node {
    Kind kind;
    // AND: both operands, the smaller id first; INV: the operand; input:
    // the node of the source network it stands for.
    std::array<NodeId, 2> fanin;
  };

  // Inputs and constants, ready at time 0.
  NodeId Leaf(Kind kind, NodeId source = kInvalidNode) {
    return Add(Node{kind, {source, kInvalidNode}}, 0.0);
  }

  NodeId And(NodeId a, NodeId b) {
    if (a > b) std::swap(a, b);
    const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
    const auto [it, inserted] =
        and_cache_.emplace(key, static_cast<NodeId>(nodes_.size()));
    if (!inserted) return it->second;
    return Add(Node{Kind::kAnd, {a, b}},
               std::max(arrival_[a], arrival_[b]) + 2.0);
  }

  NodeId Not(NodeId a) {
    if (inv_[a] == kInvalidNode) {
      const NodeId id =
          Add(Node{Kind::kInv, {a, kInvalidNode}}, arrival_[a] + 1.0);
      inv_[a] = id;
    }
    return inv_[a];
  }

  NodeId AndTree(std::vector<NodeId> ops) {
    SM_CHECK(!ops.empty(), "AndTree needs operands");
    auto later = [this](NodeId x, NodeId y) {
      return arrival_[x] > arrival_[y];
    };
    std::priority_queue<NodeId, std::vector<NodeId>, decltype(later)> queue(
        later, std::move(ops));
    while (queue.size() > 1) {
      const NodeId a = queue.top();
      queue.pop();
      const NodeId b = queue.top();
      queue.pop();
      queue.push(And(a, b));
    }
    return queue.top();
  }

  NodeId OrTree(std::vector<NodeId> ops) {
    SM_CHECK(!ops.empty(), "OrTree needs operands");
    if (ops.size() == 1) return ops[0];
    for (NodeId& op : ops) op = Not(op);
    return Not(AndTree(std::move(ops)));
  }

  // OR-of-AND structure for a cover; `leaf` maps SOP variables to nodes.
  NodeId BuildSop(const Sop& f, const std::vector<NodeId>& leaf) {
    SM_CHECK(!f.IsConst0() && !f.cubes().empty(), "constant covers handled by caller");
    std::vector<NodeId> cube_roots;
    cube_roots.reserve(f.NumCubes());
    for (const Cube& c : f.cubes()) {
      std::vector<NodeId> literals;
      for (int v = 0; v < f.num_vars(); ++v) {
        if (!c.HasVar(v)) continue;
        const NodeId l = leaf[static_cast<std::size_t>(v)];
        literals.push_back(c.VarPhase(v) ? l : Not(l));
      }
      SM_CHECK(!literals.empty(), "universe cube in a non-constant SOP");
      cube_roots.push_back(AndTree(std::move(literals)));
    }
    return OrTree(std::move(cube_roots));
  }

  double Arrival(NodeId id) const { return arrival_[id]; }
  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  NodeId Add(const Node& node, double arrival) {
    const NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(node);
    arrival_.push_back(arrival);
    inv_.push_back(kInvalidNode);
    return id;
  }

  std::vector<Node> nodes_;
  std::vector<double> arrival_;
  std::vector<NodeId> inv_;  // node -> its inverter, or kInvalidNode
  std::unordered_map<std::uint64_t, NodeId> and_cache_;
};

}  // namespace

bool IsAndInvNetwork(const Network& net) {
  for (NodeId id = 0; id < net.NumNodes(); ++id) {
    if (net.kind(id) != NodeKind::kLogic) continue;
    const Sop& f = net.function(id);
    const bool is_and2 = f.num_vars() == 2 && f.NumCubes() == 1 &&
                         f.cubes()[0].NumLiterals() == 2 &&
                         f.cubes()[0].pos() == 0b11;
    const bool is_inv = f.num_vars() == 1 && f.NumCubes() == 1 &&
                        f.cubes()[0].neg() == 0b1 && f.cubes()[0].pos() == 0;
    const bool is_const = f.num_vars() == 0;
    if (!is_and2 && !is_inv && !is_const) return false;
  }
  return true;
}

DecomposeResult DecomposeToAndInv(const Network& net) {
  using Kind = Builder::Kind;
  Builder b;
  std::vector<NodeId> root(net.NumNodes(), kInvalidNode);  // in the arena
  for (NodeId id = 0; id < net.NumNodes(); ++id) {
    if (net.kind(id) == NodeKind::kInput) {
      root[id] = b.Leaf(Kind::kInput, id);
      continue;
    }
    const Sop& f = net.function(id);
    const auto& fanins = net.fanins(id);

    if (f.num_vars() == 0 || f.IsConst0() || f.IsConst1()) {
      root[id] = b.Leaf(f.IsConst1() ? Kind::kConst1 : Kind::kConst0);
      continue;
    }

    std::vector<NodeId> leaf;
    leaf.reserve(fanins.size());
    for (NodeId fin : fanins) {
      SM_CHECK(root[fin] != kInvalidNode, "fanin not yet decomposed");
      leaf.push_back(root[fin]);
    }

    // Dual-polarity decomposition: build both the cover of f and the
    // inverted cover of ~f, keep the earlier-arriving root. Structural
    // hashing dedupes shared pieces; pruning drops the losing branch.
    const NodeId pos_root = b.BuildSop(f, leaf);
    NodeId chosen = pos_root;
    if (f.num_vars() <= kMaxTruthVars) {
      const TruthTable tt = f.ToTruthTable();
      const Sop comp = Isop(~tt, TruthTable::Const0(tt.num_vars()));
      if (!comp.IsConst0() && !comp.cubes().empty()) {
        const NodeId neg_root = b.Not(b.BuildSop(comp, leaf));
        if (b.Arrival(neg_root) < b.Arrival(pos_root)) chosen = neg_root;
      }
    }
    root[id] = chosen;
  }

  // Keep only the arena nodes reachable from the outputs (inputs are always
  // preserved), named after their arena ids.
  const std::vector<Builder::Node>& arena = b.nodes();
  std::vector<bool> live(arena.size(), false);
  {
    std::vector<NodeId> stack;
    for (const auto& o : net.outputs()) stack.push_back(root[o.driver]);
    while (!stack.empty()) {
      const NodeId id = stack.back();
      stack.pop_back();
      if (live[id]) continue;
      live[id] = true;
      const Builder::Node& node = arena[id];
      if (node.kind == Kind::kAnd) stack.push_back(node.fanin[1]);
      if (node.kind == Kind::kAnd || node.kind == Kind::kInv) {
        stack.push_back(node.fanin[0]);
      }
    }
  }
  DecomposeResult result{Network(net.name()),
                         std::vector<NodeId>(net.NumNodes(), kInvalidNode)};
  Network& out = result.network;
  const Sop and2(2,
                 {Cube::Literal(0, true).Intersect(Cube::Literal(1, true))});
  const Sop inv(1, {Cube::Literal(0, false)});
  std::vector<NodeId> remap(arena.size(), kInvalidNode);
  for (NodeId id = 0; id < arena.size(); ++id) {
    const Builder::Node& node = arena[id];
    if (node.kind == Kind::kInput) {
      remap[id] = out.AddInput(net.node_name(node.fanin[0]));
      continue;
    }
    if (!live[id]) continue;
    const std::string name = IndexedName("n", id);
    switch (node.kind) {
      case Kind::kConst0:
        remap[id] = out.AddNode({}, Sop::Const0(0), name);
        break;
      case Kind::kConst1:
        remap[id] = out.AddNode({}, Sop::Const1(0), name);
        break;
      case Kind::kAnd:
        remap[id] = out.AddNode({remap[node.fanin[0]], remap[node.fanin[1]]},
                                and2, name);
        break;
      default:  // kInv
        remap[id] = out.AddNode({remap[node.fanin[0]]}, inv, name);
        break;
    }
  }
  for (const auto& o : net.outputs()) {
    out.AddOutput(o.name, remap[root[o.driver]]);
  }
  for (NodeId id = 0; id < net.NumNodes(); ++id) {
    result.node_map[id] = remap[root[id]];
  }
  out.CheckInvariants();
  return result;
}

}  // namespace sm
