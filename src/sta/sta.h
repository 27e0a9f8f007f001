// Static timing analysis over mapped netlists.
//
// Fixed pin-to-output delays (see liblib/cell.h). Produces max/min arrival
// times, required times against a clock (default: the critical-path delay Δ),
// and per-element slack. The SPCF engine consumes the arrival windows for
// pruning; the masking flow consumes slack to find critical outputs.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "map/mapped_netlist.h"

namespace sm {

struct TimingInfo {
  double clock = 0;           // required time applied at every output
  double critical_delay = 0;  // max over outputs of max arrival
  std::vector<double> max_arrival;  // latest settling, per element
  std::vector<double> min_arrival;  // earliest possible settling, per element
  std::vector<double> required;     // latest allowed settling, per element

  double Slack(GateId id) const {
    return required[id] - max_arrival[id];
  }
};

// A netlist's timing structure compiled into flat arrays: CSR fanins (one
// fanin array plus per-element offsets) with one pin delay per fanin slot.
// Primary inputs and tie cells are the leaves — they own no fanin slot and
// arrive at 0. The view holds the one max-arrival recurrence and the one
// arrival-defining pin choice of the STA: AnalyzeTiming, the path walks and
// the Monte-Carlo trial loop all run these loops. Build it once per netlist
// and reuse it; it is immutable, so threads may share it.
//
// `scale`, wherever taken, is a per-element delay multiplier (pin delays of
// element g are multiplied by scale[g]); nullptr means 1.0 everywhere.
class TimingView {
 public:
  explicit TimingView(const MappedNetlist& net);

  std::size_t NumElements() const { return begin_.size() - 1; }
  int NumPins(GateId id) const {
    return static_cast<int>(begin_[id + 1] - begin_[id]);
  }
  bool IsLeaf(GateId id) const { return NumPins(id) == 0; }
  GateId Fanin(GateId id, int pin) const {
    return fanin_[begin_[id] + static_cast<std::uint32_t>(pin)];
  }
  double PinDelay(GateId id, int pin) const {
    return pin_delay_[begin_[id] + static_cast<std::uint32_t>(pin)];
  }

  // Forward max-arrival pass into `arrival` (resized to NumElements(), so a
  // reused buffer never reallocates): leaves arrive at 0, and gate g at the
  // max over its pins p of arrival[fanin p] + pin_delay(p) · scale[g].
  void MaxArrival(const double* scale, std::vector<double>& arrival) const;

  // The arrival-defining pin of gate `id` (not a leaf) under `arrival`: the
  // first maximum of fanin arrival + scaled pin delay, so the lowest pin
  // wins ties.
  int DefiningPin(GateId id, const std::vector<double>& arrival,
                  const double* scale) const {
    const std::uint32_t b = begin_[id];
    const std::uint32_t e = begin_[id + 1];
    const double s = scale != nullptr ? scale[id] : 1.0;
    int best_pin = 0;
    double best = -std::numeric_limits<double>::infinity();
    for (std::uint32_t k = b; k < e; ++k) {
      const double a = arrival[fanin_[k]] + pin_delay_[k] * s;
      if (a > best) {
        best = a;
        best_pin = static_cast<int>(k - b);
      }
    }
    return best_pin;
  }

  // The leaf (primary input or tie cell) the arrival-defining walk from
  // `from` ends at: ArrivalDefiningPath(...).back().gate, without building
  // the path.
  GateId PathHead(GateId from, const std::vector<double>& arrival,
                  const double* scale) const {
    GateId at = from;
    while (!IsLeaf(at)) at = Fanin(at, DefiningPin(at, arrival, scale));
    return at;
  }

 private:
  std::vector<std::uint32_t> begin_;  // g's slots: [begin_[g], begin_[g + 1])
  std::vector<GateId> fanin_;
  std::vector<double> pin_delay_;
};

// clock < 0 means "use the critical-path delay as the clock period".
// `delay_scale`, when given, multiplies every pin delay of element i by
// delay_scale[i] — the hook for body-bias speed-up (scale < 1) and aging
// (scale > 1) studies.
TimingInfo AnalyzeTiming(const MappedNetlist& net, double clock = -1,
                         const std::vector<double>* delay_scale = nullptr);

// Outputs whose driver has slack < guard_band * clock, i.e. the "critical
// primary outputs" of the paper (speed-paths within guard_band of Δ
// terminate there). Returns output indices.
std::vector<std::size_t> CriticalOutputs(const MappedNetlist& net,
                                         const TimingInfo& timing,
                                         double guard_band);

}  // namespace sm
