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

// Walks back from `from` along the arrival-defining pin of each gate
// (TimingView::DefiningPin) and returns the steps from `from` to the head.
// `max_arrival` and `scale` are the arrivals and the delay plane the walk
// reads (TimingView::MaxArrival, TimingInfo::max_arrival).
std::vector<PathStep> ArrivalDefiningPath(const TimingView& view,
                                          const std::vector<double>& max_arrival,
                                          GateId from,
                                          const double* scale = nullptr);

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
