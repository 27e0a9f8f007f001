#include "sta/sta.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace sm {

TimingView::TimingView(const MappedNetlist& net) {
  const std::size_t n = net.NumElements();
  begin_.reserve(n + 1);
  begin_.push_back(0);
  for (GateId id = 0; id < n; ++id) {
    // Leaves (primary inputs, tie cells) have no fanins: an empty range.
    const MappedNetlist::Element& e = net.element(id);
    if (e.cell != nullptr) {
      const std::vector<double>& delays = e.cell->pin_delays();
      fanin_.insert(fanin_.end(), e.fanins.begin(), e.fanins.end());
      pin_delay_.insert(pin_delay_.end(), delays.begin(), delays.end());
    }
    begin_.push_back(static_cast<std::uint32_t>(fanin_.size()));
  }
}

void TimingView::MaxArrival(const double* scale,
                            std::vector<double>& arrival) const {
  const std::size_t n = NumElements();
  arrival.resize(n);
  double* a = arrival.data();
  for (std::size_t id = 0; id < n; ++id) {
    const std::uint32_t b = begin_[id];
    const std::uint32_t e = begin_[id + 1];
    if (b == e) {
      a[id] = 0.0;
      continue;
    }
    const double s = scale != nullptr ? scale[id] : 1.0;
    double max_a = -std::numeric_limits<double>::infinity();
    for (std::uint32_t k = b; k < e; ++k) {
      max_a = std::max(max_a, a[fanin_[k]] + pin_delay_[k] * s);
    }
    a[id] = max_a;
  }
}

TimingInfo AnalyzeTiming(const MappedNetlist& net, double clock,
                         const std::vector<double>* delay_scale) {
  const std::size_t n = net.NumElements();
  SM_REQUIRE(delay_scale == nullptr || delay_scale->size() == n,
             "delay scale must be per-element");
  const TimingView view(net);
  const double* scale =
      delay_scale == nullptr ? nullptr : delay_scale->data();
  const auto scale_of = [scale](GateId id) {
    return scale == nullptr ? 1.0 : scale[id];
  };
  TimingInfo t;
  view.MaxArrival(scale, t.max_arrival);
  t.min_arrival.assign(n, 0.0);
  t.required.assign(n, std::numeric_limits<double>::infinity());

  for (GateId id = 0; id < n; ++id) {
    if (view.IsLeaf(id)) continue;  // PIs and tie cells settle at 0
    double min_a = std::numeric_limits<double>::infinity();
    for (int p = 0; p < view.NumPins(id); ++p) {
      min_a = std::min(min_a, t.min_arrival[view.Fanin(id, p)] +
                                  view.PinDelay(id, p) * scale_of(id));
    }
    t.min_arrival[id] = min_a;
  }

  for (const auto& o : net.outputs()) {
    t.critical_delay = std::max(t.critical_delay, t.max_arrival[o.driver]);
  }
  t.clock = clock < 0 ? t.critical_delay : clock;

  for (const auto& o : net.outputs()) {
    t.required[o.driver] = std::min(t.required[o.driver], t.clock);
  }
  for (GateId id = static_cast<GateId>(n); id-- > 0;) {
    const double r = t.required[id];
    if (!std::isfinite(r)) continue;  // dangling element
    for (int p = 0; p < view.NumPins(id); ++p) {
      const GateId f = view.Fanin(id, p);
      t.required[f] =
          std::min(t.required[f], r - view.PinDelay(id, p) * scale_of(id));
    }
  }
  return t;
}

std::vector<std::size_t> CriticalOutputs(const MappedNetlist& net,
                                         const TimingInfo& timing,
                                         double guard_band) {
  SM_REQUIRE(guard_band >= 0 && guard_band < 1,
             "guard band must be a fraction of the clock in [0, 1)");
  const double target = (1.0 - guard_band) * timing.clock;
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < net.NumOutputs(); ++i) {
    if (timing.max_arrival[net.output(i).driver] > target) out.push_back(i);
  }
  return out;
}

}  // namespace sm
