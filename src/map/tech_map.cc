#include "map/tech_map.h"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "network/decompose.h"
#include "util/check.h"

namespace sm {
namespace {

using Mode = TechMapOptions::Mode;

// Cut enumeration bounds: leaves per cut (further clamped to the library's
// widest cell) and non-trivial cuts kept per node.
constexpr int kMaxCutLeaves = 4;
constexpr std::size_t kMaxCutsPerNode = 16;
static_assert(kMaxCutLeaves <= 5, "a cut's table and its mask fit a word");

// Truth tables of the cut variables, bit m = value at minterm m.
constexpr std::array<std::uint64_t, kMaxCutLeaves> kVarBits = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull};

// Minterm bits in use by a table over `k` variables.
std::uint64_t TableMask(int k) {
  return (1ull << (1u << k)) - 1;
}

// Sorted leaf ids, held inline.
struct Cut {
  int size = 0;
  std::array<NodeId, kMaxCutLeaves> leaf{};

  const NodeId* begin() const { return leaf.data(); }
  const NodeId* end() const { return leaf.data() + size; }
  bool operator==(const Cut& o) const {
    return std::equal(begin(), end(), o.begin(), o.end());
  }
};

// Fewer leaves first, then lexicographic.
bool CutLess(const Cut& a, const Cut& b) {
  if (a.size != b.size) return a.size < b.size;
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

// Sorted union of two cuts into `out`; false when it exceeds k leaves.
bool MergeCuts(const Cut& a, const Cut& b, int k, Cut& out) {
  int i = 0;
  int j = 0;
  out.size = 0;
  while (i < a.size || j < b.size) {
    NodeId next;
    if (j == b.size || (i < a.size && a.leaf[i] < b.leaf[j])) {
      next = a.leaf[i++];
    } else if (i == a.size || b.leaf[j] < a.leaf[i]) {
      next = b.leaf[j++];
    } else {
      next = a.leaf[i++];
      ++j;
    }
    if (out.size == k) return false;
    out.leaf[out.size++] = next;
  }
  return true;
}

struct Match {
  const Cell* cell;
  std::array<int, kMaxCutLeaves> perm;  // perm[pin] = leaf index of the pin
};

// Permutation-complete match table: (k, truth-table word) -> matches.
class MatchTable {
 public:
  MatchTable(const Library& lib, int max_leaves) {
    for (const Cell* cell : lib.AllCells()) {
      const int k = cell->num_pins();
      if (k < 1 || k > max_leaves) continue;
      std::vector<int> perm(static_cast<std::size_t>(k));
      std::iota(perm.begin(), perm.end(), 0);
      do {
        auto& bucket = table_[k][cell->function().Remap(perm, k).words()[0]];
        // One permutation per (cell, key) suffices: pin delays are
        // per-pin, so keep the first permutation found for each cell.
        const bool seen = std::any_of(
            bucket.begin(), bucket.end(),
            [cell](const Match& m) { return m.cell == cell; });
        if (!seen) {
          Match m{cell, {}};
          std::copy(perm.begin(), perm.end(), m.perm.begin());
          bucket.push_back(m);
        }
      } while (std::next_permutation(perm.begin(), perm.end()));
    }
  }

  const std::vector<Match>* Find(int k, std::uint64_t bits) const {
    const auto it = table_[k].find(bits);
    return it == table_[k].end() ? nullptr : &it->second;
  }

 private:
  std::array<std::unordered_map<std::uint64_t, std::vector<Match>>,
             kMaxCutLeaves + 1>
      table_;
};

// The subject graph in flat arrays.
struct SubjectNode {
  std::array<NodeId, 2> fanin{};
  int num_fanins = 0;
  bool leaf_only = false;  // primary input or constant
};

// Function of a node over a cut, by DFS from the node down to the leaves.
// Every leaf is a free variable, even one inside another leaf's cone, so
// the table is that of the gate wired to the leaves, not a composition of
// the fanin cuts' tables.
class CutEvaluator {
 public:
  explicit CutEvaluator(const std::vector<SubjectNode>& nodes)
      : nodes_(nodes), value_(nodes.size()), stamp_(nodes.size(), 0) {}

  std::uint64_t operator()(NodeId root, const Cut& cut, std::uint64_t mask) {
    ++epoch_;
    for (int i = 0; i < cut.size; ++i) {
      stamp_[cut.leaf[i]] = epoch_;
      value_[cut.leaf[i]] = kVarBits[static_cast<std::size_t>(i)] & mask;
    }
    stack_.assign(1, root);
    while (!stack_.empty()) {
      const NodeId id = stack_.back();
      if (stamp_[id] == epoch_) {
        stack_.pop_back();
        continue;
      }
      const SubjectNode& s = nodes_[id];
      SM_CHECK(!s.leaf_only,
               "cut does not cover the cone (reached a free input)");
      bool ready = true;
      for (int i = 0; i < s.num_fanins; ++i) {
        if (stamp_[s.fanin[i]] != epoch_) {
          stack_.push_back(s.fanin[i]);
          ready = false;
        }
      }
      if (!ready) continue;
      stack_.pop_back();
      // A one-fanin node is an inverter: IsAndInvNetwork admits no buffers.
      value_[id] = s.num_fanins == 1
                       ? ~value_[s.fanin[0]] & mask
                       : value_[s.fanin[0]] & value_[s.fanin[1]];
      stamp_[id] = epoch_;
    }
    return value_[root];
  }

 private:
  const std::vector<SubjectNode>& nodes_;
  std::vector<std::uint64_t> value_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<NodeId> stack_;
};

struct Choice {
  const Cell* cell = nullptr;
  Cut leaves;
  std::array<int, kMaxCutLeaves> perm{};
  double cost = std::numeric_limits<double>::infinity();     // area flow
  double arrival = std::numeric_limits<double>::infinity();  // delay mode
};

}  // namespace

TechMapResult TechMap(const Network& subject, const Library& lib,
                      const TechMapOptions& options) {
  SM_REQUIRE(IsAndInvNetwork(subject),
             "TechMap requires an AND2/INV subject graph");
  SM_REQUIRE(lib.SmallestInverter() != nullptr, "library lacks an inverter");
  const int k = std::min(kMaxCutLeaves, lib.MaxPins());
  SM_REQUIRE(k >= 2, "mapper needs cuts of at least 2 leaves");
  const MatchTable matches(lib, k);

  const std::size_t n = subject.NumNodes();
  std::vector<SubjectNode> nodes(n);
  std::vector<double> refs(n, 0.0);  // fanout count, at least 1
  for (NodeId id = 0; id < n; ++id) {
    const auto& fin = subject.fanins(id);
    SubjectNode& s = nodes[id];
    s.num_fanins = static_cast<int>(fin.size());
    std::copy(fin.begin(), fin.end(), s.fanin.begin());
    s.leaf_only = subject.kind(id) == NodeKind::kInput || fin.empty();
    for (NodeId f : fin) refs[f] += 1.0;
  }
  for (double& r : refs) r = std::max(r, 1.0);

  // --- cut enumeration + matching DP, one topological pass -------------
  // The cuts of node id are pool[first[id] .. first[id + 1]): the trivial
  // cut {id}, used by fanouts, then the node's own cuts.
  std::vector<Cut> pool;
  std::vector<std::size_t> first(n + 1, 0);
  std::vector<Choice> best(n);
  CutEvaluator cut_function(nodes);
  std::vector<Cut> mine;
  for (NodeId id = 0; id < n; ++id) {
    const SubjectNode& s = nodes[id];
    pool.push_back(Cut{1, {id}});
    if (s.leaf_only) {
      first[id + 1] = pool.size();
      continue;
    }

    mine.clear();
    const NodeId f0 = s.fanin[0];
    if (s.num_fanins == 1) {
      mine.assign(pool.begin() + static_cast<std::ptrdiff_t>(first[f0]),
                  pool.begin() + static_cast<std::ptrdiff_t>(first[f0 + 1]));
    } else {
      const NodeId f1 = s.fanin[1];
      Cut m;
      for (std::size_t a = first[f0]; a < first[f0 + 1]; ++a) {
        for (std::size_t b = first[f1]; b < first[f1 + 1]; ++b) {
          if (MergeCuts(pool[a], pool[b], k, m)) mine.push_back(m);
        }
      }
    }
    // Dedupe and prune: smaller cuts first, cap the list.
    std::sort(mine.begin(), mine.end(), CutLess);
    mine.erase(std::unique(mine.begin(), mine.end()), mine.end());
    if (mine.size() > kMaxCutsPerNode) mine.resize(kMaxCutsPerNode);
    // The direct-fanin cut is the feasibility anchor (it always matches an
    // AND2 or inverter); re-append it if pruning dropped it.
    {
      Cut direct{1, {f0}};
      if (s.num_fanins == 2 && s.fanin[1] != f0) {
        direct = Cut{2, {std::min(f0, s.fanin[1]), std::max(f0, s.fanin[1])}};
      }
      if (std::find(mine.begin(), mine.end(), direct) == mine.end()) {
        mine.push_back(direct);
      }
    }
    pool.insert(pool.end(), mine.begin(), mine.end());
    first[id + 1] = pool.size();

    // DP over matches of each cut.
    Choice& my = best[id];
    for (const Cut& cut : mine) {
      const std::uint64_t mask = TableMask(cut.size);
      const std::uint64_t f = cut_function(id, cut, mask);
      // A constant cut function means the node is structurally constant
      // (e.g. AND of a signal with its inverse); a tie cell realizes it.
      if (f == 0 || f == mask) {
        const Cell* tie_cell = lib.SmallestConstant(f == mask);
        if (tie_cell != nullptr &&
            (options.mode == Mode::kArea ? tie_cell->area() < my.cost
                                         : 0.0 < my.arrival)) {
          my = Choice{tie_cell, {}, {}, tie_cell->area(), 0.0};
        }
        continue;
      }
      const std::vector<Match>* bucket = matches.Find(cut.size, f);
      if (bucket == nullptr) continue;
      for (const Match& m : *bucket) {
        double flow = m.cell->area();
        for (NodeId leaf : cut) {
          if (!nodes[leaf].leaf_only) flow += best[leaf].cost / refs[leaf];
        }
        double arrival = 0;
        for (int pin = 0; pin < m.cell->num_pins(); ++pin) {
          const NodeId leaf = cut.leaf[static_cast<std::size_t>(
              m.perm[static_cast<std::size_t>(pin)])];
          const double leaf_arr =
              nodes[leaf].leaf_only ? 0.0 : best[leaf].arrival;
          arrival = std::max(arrival, leaf_arr + m.cell->pin_delay(pin));
        }
        const bool better =
            options.mode == Mode::kArea
                ? (flow < my.cost ||
                   (flow == my.cost && arrival < my.arrival))
                : (arrival < my.arrival ||
                   (arrival == my.arrival && flow < my.cost));
        if (better) {
          my = Choice{m.cell, cut, m.perm, flow, arrival};
        }
      }
    }
    SM_CHECK(my.cell != nullptr,
             "no library match for node " << subject.node_name(id)
                                          << " — library incomplete");
    // Leaf-only nodes keep arrival 0 / cost 0 implicitly via leaf_only.
  }

  // --- extraction -------------------------------------------------------
  TechMapResult result{MappedNetlist(subject.name()),
                       std::vector<GateId>(n, kInvalidGate)};
  MappedNetlist& out = result.netlist;
  for (NodeId id : subject.inputs()) {
    result.node_map[id] = out.AddInput(subject.node_name(id));
  }

  GateId tie[2] = {kInvalidGate, kInvalidGate};
  auto get_tie = [&](bool value) {
    GateId& slot = tie[value ? 1 : 0];
    if (slot == kInvalidGate) {
      const Cell* c = lib.SmallestConstant(value);
      SM_REQUIRE(c != nullptr, "library lacks a tie cell");
      slot = out.AddGate(c, {}, value ? "_tie1" : "_tie0");
    }
    return slot;
  };

  // Iterative realization from the outputs.
  std::vector<NodeId> work;
  for (const auto& o : subject.outputs()) work.push_back(o.driver);
  while (!work.empty()) {
    const NodeId id = work.back();
    if (result.node_map[id] != kInvalidGate) {
      work.pop_back();
      continue;
    }
    if (nodes[id].num_fanins == 0 && subject.kind(id) == NodeKind::kLogic) {
      result.node_map[id] = get_tie(subject.function(id).IsConst1());
      work.pop_back();
      continue;
    }
    const Choice& ch = best[id];
    if (ch.cell != nullptr && ch.cell->IsConstant()) {
      result.node_map[id] = get_tie(ch.cell->function().Get(0));
      work.pop_back();
      continue;
    }
    bool ready = true;
    for (NodeId leaf : ch.leaves) {
      if (result.node_map[leaf] == kInvalidGate) {
        work.push_back(leaf);
        ready = false;
      }
    }
    if (!ready) continue;
    work.pop_back();
    std::vector<GateId> fanin_gates(static_cast<std::size_t>(
        ch.cell->num_pins()));
    for (int pin = 0; pin < ch.cell->num_pins(); ++pin) {
      const NodeId leaf = ch.leaves.leaf[static_cast<std::size_t>(
          ch.perm[static_cast<std::size_t>(pin)])];
      fanin_gates[static_cast<std::size_t>(pin)] = result.node_map[leaf];
    }
    result.node_map[id] =
        out.AddGate(ch.cell, std::move(fanin_gates), subject.node_name(id));
  }

  for (const auto& o : subject.outputs()) {
    out.AddOutput(o.name, result.node_map[o.driver]);
  }
  out.CheckInvariants();
  return result;
}

TechMapResult DecomposeAndMap(const Network& net, const Library& lib,
                              const TechMapOptions& options) {
  const DecomposeResult d = DecomposeToAndInv(net);
  TechMapResult mapped = TechMap(d.network, lib, options);
  // Re-express node_map in terms of the original network's ids.
  std::vector<GateId> remapped(net.NumNodes(), kInvalidGate);
  for (NodeId id = 0; id < net.NumNodes(); ++id) {
    const NodeId s = d.node_map[id];
    if (s != kInvalidNode) remapped[id] = mapped.node_map[s];
  }
  mapped.node_map = std::move(remapped);
  return mapped;
}

}  // namespace sm
