// Cut-based technology mapping.
//
// Input: an AND2/INV subject graph (from DecomposeToAndInv). For every node
// we enumerate K-feasible cuts (K = 4, or the library's widest cell if
// narrower; at most 16 cuts per node), compute each cut's local function,
// and match it against the library by permutation-complete truth-table
// lookup. A dynamic program then chooses per-node matches minimizing either
// area flow (area mode) or arrival time (delay mode, area flow as
// tie-break) — the standard mapper structure (ABC-style) in a compact form.
//
// The flow maps the original circuit in area mode (Table 2's baseline) and
// the error-masking circuit in delay mode (to bank slack).
#pragma once

#include <vector>

#include "liblib/library.h"
#include "map/mapped_netlist.h"
#include "network/network.h"

namespace sm {

struct TechMapOptions {
  enum class Mode { kArea, kDelay };
  Mode mode = Mode::kArea;
};

struct TechMapResult {
  MappedNetlist netlist;
  // Network node -> element computing the same signal (kInvalidGate when the
  // node was absorbed into a gate's interior).
  std::vector<GateId> node_map;
};

// `subject` must satisfy IsAndInvNetwork (constants allowed). `lib` must
// contain at least an inverter, a 2-input AND, and tie cells, and must
// outlive the returned netlist.
TechMapResult TechMap(const Network& subject, const Library& lib,
                      const TechMapOptions& options = {});

// Convenience: decompose + map a general technology-independent network.
TechMapResult DecomposeAndMap(const Network& net, const Library& lib,
                              const TechMapOptions& options = {});

}  // namespace sm
