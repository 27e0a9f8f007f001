// Reduced ordered binary decision diagrams.
//
// speedmask uses BDDs for all *global* (primary-input-space) reasoning: the
// timed characteristic functions of Sec. 3, SPCF minterm counting, cube
// essential weights and the formal safety/coverage checks of Sec. 4. A hard
// node limit turns pathological growth into a typed exception rather than an
// OOM.
//
// The kernel is built for throughput:
//  - Complement edges: a Ref is (node index << 1) | complement, with one ⊤
//    terminal and the CUDD canonical form (the then-edge of a stored node is
//    never complemented). Negation is a single bit flip, and a function and
//    its complement share every node — which halves the timed-function
//    engine's work, since the χ recursions constantly pair a global function
//    with its negation.
//  - The unique table is a custom open-addressing hash table (power-of-two
//    capacity, stored 64-bit keys, linear probing, geometric doubling)
//    instead of std::unordered_map.
//  - The ITE/XOR operation cache is a direct-mapped array that starts small
//    and grows with the node count up to a configurable ceiling, so tiny
//    scratch managers cost kilobytes while big SPCF runs keep a large cache.
//  - ITE calls are normalized before the cache lookup (constant/complement
//    operand rewrites, canonical operand order for the commutative forms,
//    regular predicate and then-operand) so symmetric and complemented calls
//    all share one cache slot. `Stats()` exposes the work counters the
//    benches and the SPCF flow report.
//
// Memory manager v2 — node lifetime and variable order:
//  - External references: callers that need refs to survive a collection
//    register them as roots (scoped `BddRef` handles, `BddRootScope` for a
//    whole vector, `BddRootSource` for owners of many refs such as the
//    timed-function engine's memo tables). Unregistered refs stay valid
//    until the next explicit GarbageCollect/Checkpoint/Reorder — Boolean
//    operations themselves NEVER collect.
//  - Mark-and-sweep GC over the unique table: marks from the registered
//    roots, sweeps dead nodes onto a free list (indices are reused, so live
//    refs are never relocated), rebuilds the unique table, and invalidates
//    exactly the op-cache entries that touch a swept node.
//  - Rudell sifting dynamic reordering: adjacent-level swaps rewrite the
//    affected nodes in place (a node keeps its index and its function, so
//    registered refs survive), with a deterministic trigger policy set by
//    `BddManagerOptions::reorder` — kOff, kOnce (sift while the heap is in
//    its initial growth phase, then freeze the order for the manager's
//    lifetime) or kAuto (keep sifting whenever the live size doubles).
//  - `Checkpoint()` is the single safe point: callers invoke it only when
//    every live ref is reachable from a registered root; the SPCF flow does
//    so between global-BDD gates and between outputs.
//  - Everything is a deterministic function of the operation sequence: same
//    ops + same checkpoints → same node counts, same GC runs, same swaps —
//    the 1-vs-8-thread byte-identity contracts of the benches hold. GC never
//    changes BDD structure; a reorder does (it changes variable order), so
//    flows that must be byte-identical across warm/cold managers keep
//    reordering off (the default).
//
// Variable order starts as variable index (0 at the root) and is permuted
// only by reordering. Callers choose the index order; the network layer
// assigns PI indices in declaration order, which matches the generator's
// locality and keeps BDDs compact.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/cancel.h"

namespace sm {

class BddOverflowError : public std::runtime_error {
 public:
  explicit BddOverflowError(const std::string& what)
      : std::runtime_error(what) {}
};

enum class BddReorderMode {
  kOff,  // static order (the default; structure is reproducible)
  // One reordering episode: sift at the trigger and again each time the live
  // size doubles, until a triggered reorder no longer shrinks the heap
  // meaningfully (<5%); from then on the order is frozen. Warm managers thus
  // pay the sifting cost during their first request(s) only.
  kOnce,
  kAuto,  // keep sifting whenever the live size doubles since the last pass
};

const char* ToString(BddReorderMode mode);

struct BddManagerOptions {
  std::size_t node_limit = 40'000'000;
  // Caps the operation cache at 2^op_cache_log2 entries; the cache starts
  // small and grows with the node count up to that ceiling.
  int op_cache_log2 = 20;
  // Checkpoint() garbage-collects once this many nodes were allocated since
  // the previous collection (SIZE_MAX disables GC at checkpoints).
  std::size_t gc_threshold = 32'768;
  BddReorderMode reorder = BddReorderMode::kOff;
  // Live-node count at which kOnce/kAuto fire their (first) sifting pass.
  std::size_t reorder_trigger_nodes = 4'096;
  // Global adjacent-swap budget per sifting pass (cost bound).
  std::size_t max_swaps = 1'000'000;
  // A variable's sift aborts a direction once the live size exceeds
  // max_growth × the size when its sift started.
  double max_growth = 1.2;
};

// Work counters of one manager, cumulative since construction. All counts
// are deterministic functions of the operation sequence, so they double as
// machine-checkable perf metrics (bench/micro_bdd).
struct BddStats {
  std::size_t num_nodes = 0;        // live nodes incl. the ⊤ terminal
  std::size_t allocated_nodes = 0;  // node slots incl. free-listed ones
  std::size_t peak_live_nodes = 0;  // max live nodes ever
  std::size_t free_nodes = 0;       // reclaimed slots awaiting reuse
  std::size_t ext_roots = 0;        // currently registered single-ref roots
  std::size_t gc_runs = 0;          // mark-and-sweep collections
  std::size_t gc_reclaimed = 0;     // nodes swept onto the free list
  std::size_t reorder_runs = 0;     // sifting passes completed
  std::size_t reorder_swaps = 0;    // adjacent-level swaps performed
  std::size_t unique_lookups = 0;   // MakeNode interning attempts
  std::size_t unique_probes = 0;    // slots inspected across all lookups
  std::size_t unique_resizes = 0;   // geometric doublings performed
  std::size_t unique_capacity = 0;  // current slot count (power of two)
  double load_factor = 0;           // current used/capacity
  double peak_load_factor = 0;      // max load ever reached before a resize
  std::size_t cache_hits = 0;       // ITE/XOR op-cache hits
  std::size_t cache_misses = 0;     // ITE/XOR op-cache misses
  std::size_t cache_capacity = 0;   // current op-cache entries (power of two)
  // Recursive expansions actually performed (= cache misses that had to
  // cofactor and rebuild). The primary deterministic work measure.
  std::size_t ite_recursions = 0;
};

// Owners of many live refs (memo tables, partially built result vectors)
// implement this to participate in the mark phase without registering each
// ref individually.
class BddRootSource {
 public:
  virtual ~BddRootSource() = default;
  virtual void AppendRoots(std::vector<std::uint32_t>* out) const = 0;
};

class BddManager {
 public:
  // (node index << 1) | complement bit. The single ⊤ terminal is node 0, so
  // True is ref 0 and False is its complement edge, ref 1.
  using Ref = std::uint32_t;

  static constexpr Ref kTrue = 0;
  static constexpr Ref kFalse = 1;

  explicit BddManager(int num_vars, const BddManagerOptions& options);
  // Legacy signature; equivalent to options with the given node limit and
  // op-cache ceiling (GC at checkpoints on, reordering off).
  explicit BddManager(int num_vars, std::size_t node_limit = 40'000'000,
                      int op_cache_log2 = 20);

  int num_vars() const { return num_vars_; }
  const BddManagerOptions& options() const { return options_; }

  Ref False() const { return kFalse; }
  Ref True() const { return kTrue; }
  Ref Var(int var);
  Ref NotVar(int var);

  // O(1): complement edges make negation a bit flip.
  Ref Not(Ref f) const { return f ^ Ref{1}; }
  Ref And(Ref f, Ref g);
  Ref Or(Ref f, Ref g);
  Ref Xor(Ref f, Ref g);
  Ref Xnor(Ref f, Ref g) { return Not(Xor(f, g)); }
  // f & ~g.
  Ref Diff(Ref f, Ref g) { return And(f, Not(g)); }
  Ref Ite(Ref f, Ref g, Ref h);

  bool Implies(Ref f, Ref g) { return Diff(f, g) == kFalse; }

  Ref Cofactor(Ref f, int var, bool value);
  // Existential quantification over `vars` (ascending or not; sorted inside).
  Ref Exists(Ref f, std::vector<int> vars);
  // Substitutes `g` for variable `var` in `f`.
  Ref Compose(Ref f, int var, Ref g);

  bool IsConst(Ref f) const { return (f >> 1) == 0; }

  // Fraction of the 2^num_vars minterm space satisfying f, in [0, 1].
  double SatFraction(Ref f);
  // Number of satisfying minterms over `over_vars` variables (defaults to
  // the manager width). Exact up to double precision; saturates at +inf only
  // beyond 2^1023.
  double SatCount(Ref f, int over_vars = -1);
  // log2 of the satisfying-minterm count; -inf for the empty function.
  double Log2SatCount(Ref f, int over_vars = -1);

  // One satisfying assignment as (var, value) pairs for the variables on the
  // chosen path; requires f != False. The chosen path (not its validity)
  // depends on the current variable order.
  std::vector<std::pair<int, bool>> SatOne(Ref f) const;

  std::vector<int> Support(Ref f) const;

  // Evaluates f under a full assignment (values[i] = variable i).
  bool Eval(Ref f, const std::vector<bool>& values) const;

  // Structural accessors for external traversals; Low/High return the
  // cofactors of f (the stored edge with f's complement bit applied).
  // Requires !IsConst(f).
  int TopVar(Ref f) const;
  Ref Low(Ref f) const;
  Ref High(Ref f) const;

  // Live nodes (including the ⊤ terminal); free-listed slots not counted.
  std::size_t NumNodes() const { return live_nodes_; }
  // Allocated node slots, live or free (monotone between collections).
  std::size_t AllocatedNodes() const { return nodes_.size(); }
  // Nodes reachable from f.
  std::size_t DagSize(Ref f) const;

  // ---- External references (GC roots) -----------------------------------
  // A registered ref (and everything reachable from it) survives GC and
  // keeps its Ref value across GC and reordering. Register/Unregister must
  // balance; `BddRef`/`BddRootScope` do so scoped.
  void RegisterRoot(Ref f);
  void UnregisterRoot(Ref f);
  // Cheap already-held audit: is f's node currently pinned by at least one
  // registered single-ref root?
  bool IsRegistered(Ref f) const;
  // The pointed-to vector is scanned at mark time; it may grow/shrink while
  // registered (entries must be valid refs or constants).
  void RegisterRootVector(const std::vector<Ref>* roots);
  void UnregisterRootVector(const std::vector<Ref>* roots);
  void RegisterRootSource(const BddRootSource* source);
  void UnregisterRootSource(const BddRootSource* source);

  // ---- Garbage collection and reordering --------------------------------
  // Mark-and-sweep from the registered roots. Every unregistered ref is
  // invalidated. Returns the number of nodes reclaimed. Safe to call only
  // when no unregistered ref is live (no Boolean operation in progress).
  std::size_t GarbageCollect();
  // Rudell sifting to convergence: full passes until one shrinks the heap
  // by less than 2% (at most 8; collects first). Same safety contract as
  // GarbageCollect. Registered refs keep their values and their functions;
  // the variable order — and therefore BDD structure, SatOne paths and
  // DagSize — changes. Under kOnce this may end the reordering episode.
  void Reorder();
  // The policy-driven safe point: runs a sifting pass and/or a collection
  // when the configured triggers fire. Returns true when it did anything.
  bool Checkpoint();

  // Current position of `var` in the order (0 = root) and its inverse.
  int LevelOfVar(int var) const;
  int VarAtLevel(int level) const;
  // var_at_level as a vector (the full current order, root first).
  std::vector<int> VariableOrder() const;

  // Attaches (or with nullptr detaches) a cooperative cancellation token.
  // While attached, Checkpoint() and every few thousand ITE/XOR recursions
  // poll it and abort by throwing CancelledError; recursion counts are
  // charged to its work budget. An abort can leave dead unregistered nodes
  // behind — detach the token and GarbageCollect() to return the manager to
  // a clean reusable state (the daemon's warm-manager recovery path).
  void SetCancelToken(const CancelToken* token) { cancel_ = token; }
  const CancelToken* cancel_token() const { return cancel_; }

  // Snapshot of the cumulative work counters.
  BddStats Stats() const;

  // Exhaustive internal consistency check (unique table ↔ node store ↔ free
  // list ↔ live count ↔ canonical form ↔ level-ordering). O(nodes + slots);
  // for tests.
  bool DebugCheckInvariants() const;

  // Operation-cache slot hash for the normalized triple (f, g, h). Exposed
  // so tests can assert its collision rate; not part of the BDD semantics.
  static std::uint64_t CacheKey(Ref f, Ref g, Ref h);

 private:
  struct Node {
    std::uint32_t var;
    Ref lo;
    Ref hi;
  };

  // Open-addressing unique-table slot. `key` packs (var, lo, hi); key == 0
  // marks an empty slot (no interned node packs to 0 because lo == hi nodes
  // are never created).
  struct UniqueSlot {
    std::uint64_t key = 0;
    Ref ref = 0;
  };

  // Direct-mapped lossy cache. The full operand triple is stored and
  // compared — a hash-only key would make hash collisions return wrong
  // results. XOR entries are tagged by h == kXorTag (never a valid ref).
  struct CacheEntry {
    Ref f = kInvalidRef;
    Ref g = 0;
    Ref h = 0;
    Ref result = 0;
  };

  static constexpr Ref kInvalidRef = ~Ref{0};
  static constexpr Ref kXorTag = ~Ref{0} - 1;
  // Cancellation poll stride: the token is checked once per this many + 1
  // ITE/XOR recursions (power-of-two mask on ite_recursions_), bounding
  // abort latency to microseconds while keeping the hot path branch-cheap.
  static constexpr std::size_t kCancelStrideMask = 0x1FFF;

  bool IsFreeSlot(std::size_t index) const;
  Ref MakeNode(std::uint32_t var, Ref lo, Ref hi);
  Ref IteRec(Ref f, Ref g, Ref h);
  Ref XorRec(Ref f, Ref g);
  bool CacheLookup(Ref f, Ref g, Ref h, Ref* result);
  void CacheStore(Ref f, Ref g, Ref h, Ref result);
  void GrowUniqueTable();
  void GrowOpCache();
  void UniqueInsert(std::uint64_t key, Ref ref);
  void UniqueErase(std::uint64_t key);
  Ref ExistsRec(Ref f, const std::vector<int>& vars,
                std::unordered_map<Ref, Ref>& memo);
  Ref ComposeRec(Ref f, int var, Ref g, std::unordered_map<Ref, Ref>& memo);
  double SatFractionRec(Ref f, std::unordered_map<Ref, double>& memo) const;

  // GC helpers.
  void MarkRoots(std::vector<bool>* marked) const;
  // Reordering helpers (valid only while reordering_).
  void BuildReorderScratch();
  void DropReorderScratch();
  void SiftPass();
  void SiftVar(int var, std::size_t pass_budget);
  void SwapLevels(int level);
  void DecRefRec(Ref f);
  bool ReorderTriggered() const;

  static std::uint64_t UniqueKey(std::uint32_t var, Ref lo, Ref hi);

  // Polled at Checkpoint() and on an ITE-recursion stride; not owned.
  const CancelToken* cancel_ = nullptr;

  int num_vars_;
  BddManagerOptions options_;
  std::size_t op_cache_max_;
  std::vector<Node> nodes_;

  std::vector<UniqueSlot> unique_;
  std::size_t unique_used_ = 0;

  std::vector<CacheEntry> op_cache_;
  // Node count at which the op cache next grows; SIZE_MAX once at max size.
  std::size_t cache_grow_at_ = 0;

  // Variable order: level_of_var_ is indexed by variable id (with the
  // terminal's sentinel id mapping to itself so top-level comparisons need
  // no branch); var_at_level_ is its inverse over the real variables.
  std::vector<std::uint32_t> level_of_var_;
  std::vector<std::uint32_t> var_at_level_;

  // Node lifetime. Free slots carry the terminal's sentinel var and chain
  // through their lo field (0 = end; the terminal itself is never free).
  std::uint32_t free_head_ = 0;
  std::size_t free_count_ = 0;
  std::size_t live_nodes_ = 0;
  std::size_t peak_live_nodes_ = 0;
  std::size_t allocs_since_gc_ = 0;

  // GC roots.
  std::vector<std::uint32_t> ext_refs_;  // per node index
  std::size_t ext_root_count_ = 0;
  std::vector<const std::vector<Ref>*> root_vectors_;
  std::vector<const BddRootSource*> root_sources_;

  // Reordering state/scratch.
  bool reordering_ = false;
  bool reordered_once_ = false;   // at least one reorder has run
  bool reorder_frozen_ = false;   // kOnce episode over: order is final
  std::size_t next_auto_reorder_at_ = 0;
  std::vector<std::uint32_t> ref_count_;  // parent counts, reorder-only
  std::vector<std::vector<std::uint32_t>> var_nodes_;  // per-var index lists
  std::vector<std::uint32_t> visit_epoch_;
  std::uint32_t epoch_ = 0;
  std::size_t pass_swaps_ = 0;  // swaps used by the running pass

  // Work counters (see BddStats).
  std::size_t unique_lookups_ = 0;
  std::size_t unique_probes_ = 0;
  std::size_t unique_resizes_ = 0;
  double peak_load_ = 0;
  std::size_t cache_hits_ = 0;
  std::size_t cache_misses_ = 0;
  std::size_t ite_recursions_ = 0;
  std::size_t gc_runs_ = 0;
  std::size_t gc_reclaimed_ = 0;
  std::size_t reorder_runs_ = 0;
  std::size_t reorder_swaps_ = 0;
};

// Move-only scoped external reference: registers in the constructor,
// unregisters in the destructor. The manager must outlive the handle.
class BddRef {
 public:
  BddRef() = default;
  BddRef(BddManager& mgr, BddManager::Ref ref) : mgr_(&mgr), ref_(ref) {
    mgr_->RegisterRoot(ref_);
  }
  BddRef(BddRef&& other) noexcept : mgr_(other.mgr_), ref_(other.ref_) {
    other.mgr_ = nullptr;
  }
  BddRef& operator=(BddRef&& other) noexcept {
    if (this != &other) {
      Reset();
      mgr_ = other.mgr_;
      ref_ = other.ref_;
      other.mgr_ = nullptr;
    }
    return *this;
  }
  BddRef(const BddRef&) = delete;
  BddRef& operator=(const BddRef&) = delete;
  ~BddRef() { Reset(); }

  void Reset() {
    if (mgr_ != nullptr) mgr_->UnregisterRoot(ref_);
    mgr_ = nullptr;
  }
  // Re-points the handle (unregisters the old ref, registers the new one).
  void Assign(BddManager& mgr, BddManager::Ref ref) {
    mgr.RegisterRoot(ref);  // register first: ref may share the old node
    Reset();
    mgr_ = &mgr;
    ref_ = ref;
  }
  BddManager::Ref get() const { return ref_; }
  bool held() const { return mgr_ != nullptr; }

 private:
  BddManager* mgr_ = nullptr;
  BddManager::Ref ref_ = BddManager::kFalse;
};

// Attaches a cancel token to a manager for the current scope and detaches
// it on every exit, the CancelledError unwind included, so a manager that
// outlives the scope never keeps a dangling token pointer. Attach is a
// no-op when either argument is null.
class BddCancelScope {
 public:
  BddCancelScope() = default;
  BddCancelScope(const BddCancelScope&) = delete;
  BddCancelScope& operator=(const BddCancelScope&) = delete;
  ~BddCancelScope() {
    if (mgr_ != nullptr) mgr_->SetCancelToken(nullptr);
  }
  void Attach(BddManager* mgr, const CancelToken* token) {
    if (mgr == nullptr || token == nullptr) return;
    mgr_ = mgr;
    mgr_->SetCancelToken(token);
  }

 private:
  BddManager* mgr_ = nullptr;
};

// Scoped registration of a caller-owned vector of refs as GC roots. The
// vector may be mutated while registered; it is scanned at mark time.
class BddRootScope {
 public:
  BddRootScope(BddManager& mgr, const std::vector<BddManager::Ref>* roots)
      : mgr_(&mgr), roots_(roots) {
    mgr_->RegisterRootVector(roots_);
  }
  BddRootScope(const BddRootScope&) = delete;
  BddRootScope& operator=(const BddRootScope&) = delete;
  ~BddRootScope() { mgr_->UnregisterRootVector(roots_); }

 private:
  BddManager* mgr_;
  const std::vector<BddManager::Ref>* roots_;
};

}  // namespace sm
