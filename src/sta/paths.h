// Path-level queries: critical-path extraction and speed-path enumeration.
// A "speed-path" (paper terminology) is any PI→PO path whose delay exceeds
// (1 - guard_band) · Δ.
#pragma once

#include <vector>

#include "sta/sta.h"

namespace sm {

struct TimingPath {
  std::vector<GateId> elements;  // PI first, PO driver last
  double delay = 0;
};

// One worst path (ties broken deterministically by lowest pin index).
TimingPath WorstPath(const MappedNetlist& net, const TimingInfo& timing);

// One step of an arrival-defining walk: `gate`, entered through its pin
// `pin`; -1 at the walk's head (a primary input or a tie cell).
struct PathStep {
  GateId gate;
  int pin;
};

// Walks back from `from` along the arrival-defining pin of each gate (the
// first maximum of fanin arrival + pin delay, so the lowest pin wins ties)
// and returns the steps from `from` to the head. `scale`, when non-null,
// multiplies every pin delay of gate g by (*scale)[g] — the delay plane
// `timing` was analyzed under.
std::vector<PathStep> ArrivalDefiningPath(
    const MappedNetlist& net, const TimingInfo& timing, GateId from,
    const std::vector<double>* scale = nullptr);

// All paths with delay > threshold, capped at `limit` paths (DFS order,
// deterministic). Use CountSpeedPaths when only the count matters.
std::vector<TimingPath> EnumerateSpeedPaths(const MappedNetlist& net,
                                            const TimingInfo& timing,
                                            double threshold,
                                            std::size_t limit = 10000);

// Number of PI→PO paths with delay > threshold, saturating at `cap`.
std::size_t CountSpeedPaths(const MappedNetlist& net, const TimingInfo& timing,
                            double threshold,
                            std::size_t cap = 1u << 30);

}  // namespace sm
