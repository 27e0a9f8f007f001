#include "sim/event_sim.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "util/check.h"

namespace sm {
namespace {

// Per-element delay modifiers must be sane: a negative or non-finite entry
// would silently produce events travelling backwards in time (or a hung
// queue), which is indistinguishable from a masking-guarantee violation in
// the fault-injection campaigns that consume these results.
void RequireValidDelays(const std::vector<double>& v, const char* what) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    SM_REQUIRE(std::isfinite(v[i]) && v[i] >= 0,
               what << "[" << i << "] must be finite and non-negative, got "
                    << v[i]);
  }
}

bool EvalCell(const Cell& cell, const std::vector<bool>& value,
              const std::vector<GateId>& fanins) {
  std::uint64_t m = 0;
  for (int p = 0; p < cell.num_pins(); ++p) {
    if (value[fanins[static_cast<std::size_t>(p)]]) m |= 1ull << p;
  }
  return cell.function().Get(m);
}

struct Event {
  double time;
  GateId gate;
  bool value;
  std::uint64_t seq;  // tie-break for deterministic ordering

  bool operator>(const Event& o) const {
    if (time != o.time) return time > o.time;
    if (gate != o.gate) return gate > o.gate;
    return seq > o.seq;
  }
};

}  // namespace

std::vector<bool> SteadyState(const MappedNetlist& net,
                              const std::vector<bool>& pattern) {
  SM_REQUIRE(pattern.size() == net.NumInputs(),
             "SteadyState needs one bit per primary input");
  std::vector<bool> value(net.NumElements(), false);
  std::size_t next_input = 0;
  for (GateId id = 0; id < net.NumElements(); ++id) {
    if (net.IsInput(id)) {
      value[id] = pattern[next_input++];
      continue;
    }
    const Cell& cell = net.cell(id);
    value[id] = cell.IsConstant() ? cell.function().Get(0)
                                  : EvalCell(cell, value, net.fanins(id));
  }
  return value;
}

EventSimResult SimulateTransition(const MappedNetlist& net,
                                  const std::vector<bool>& previous,
                                  const std::vector<bool>& next,
                                  const EventSimConfig& config) {
  SM_REQUIRE(previous.size() == net.NumInputs() &&
                 next.size() == net.NumInputs(),
             "SimulateTransition needs one bit per primary input");
  SM_REQUIRE(config.extra_delay.empty() ||
                 config.extra_delay.size() == net.NumElements(),
             "extra_delay must be empty or per-element");
  SM_REQUIRE(config.delay_scale.empty() ||
                 config.delay_scale.size() == net.NumElements(),
             "delay_scale must be empty or per-element");
  RequireValidDelays(config.extra_delay, "extra_delay");
  RequireValidDelays(config.delay_scale, "delay_scale");
  for (const TransientFault& f : config.transient_faults) {
    SM_REQUIRE(f.gate < net.NumElements() && !net.IsInput(f.gate),
               "transient fault site must be a non-input element, got gate "
                   << f.gate);
    SM_REQUIRE(std::isfinite(f.delta) && f.delta >= 0,
               "transient fault delta must be finite and non-negative, got "
                   << f.delta);
  }
  SM_REQUIRE(config.clock >= 0, "clock must be non-negative");

  const auto& fanouts = net.Fanouts();
  EventSimResult r;
  r.settle_at.assign(net.NumElements(), 0.0);

  // Start from the steady state of the previous pattern.
  std::vector<bool> value = SteadyState(net, previous);
  std::vector<bool> at_clock = value;

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  std::uint64_t seq = 0;
  std::size_t next_input = 0;
  for (GateId id = 0; id < net.NumElements(); ++id) {
    if (!net.IsInput(id)) continue;
    const bool nv = next[next_input++];
    if (nv != value[id]) queue.push(Event{0.0, id, nv, seq++});
  }

  auto extra = [&config](GateId id) {
    return config.extra_delay.empty() ? 0.0 : config.extra_delay[id];
  };
  auto scale = [&config](GateId id) {
    return config.delay_scale.empty() ? 1.0 : config.delay_scale[id];
  };
  // One counter per fault, counting events scheduled at that fault's gate.
  // Scheduling order is deterministic (the queue breaks ties on gate then
  // sequence number), so "the k-th transition" is well defined.
  std::vector<std::uint64_t> fault_seen(config.transient_faults.size(), 0);
  auto transient = [&config, &fault_seen](GateId id) {
    double d = 0;
    for (std::size_t i = 0; i < config.transient_faults.size(); ++i) {
      const TransientFault& f = config.transient_faults[i];
      if (f.gate != id) continue;
      if (fault_seen[i]++ == f.transition_index) d += f.delta;
    }
    return d;
  };
  // Edges at one gate output cannot overtake each other: a later-scheduled
  // edge lands no earlier than any edge already scheduled there. Without
  // this clamp a transient-delayed (or slow-pin) edge could execute after a
  // newer edge and freeze the gate at a stale value — the last scheduled
  // edge must be the last executed for the sim to converge to steady state.
  std::vector<double> last_out(net.NumElements(), 0.0);

  while (!queue.empty()) {
    const Event e = queue.top();
    queue.pop();
    ++r.events;
    if (value[e.gate] == e.value) continue;  // glitch already cancelled
    value[e.gate] = e.value;
    r.settle_at[e.gate] = e.time;
    if (e.time <= config.clock) at_clock[e.gate] = e.value;
    // Propagate to fanouts: re-evaluate each consuming gate and schedule the
    // output change through every pin that observed this transition. A gate
    // fed on several pins is listed once per pin, adjacently; visit it once.
    const auto& fanout = fanouts[e.gate];
    for (std::size_t i = 0; i < fanout.size(); ++i) {
      const GateId g = fanout[i];
      if (i > 0 && fanout[i - 1] == g) continue;
      const Cell& cell = net.cell(g);
      const auto& fin = net.fanins(g);
      const bool nv = EvalCell(cell, value, fin);
      for (int p = 0; p < cell.num_pins(); ++p) {
        if (fin[static_cast<std::size_t>(p)] != e.gate) continue;
        const double t =
            std::max(last_out[g], e.time + cell.pin_delay(p) * scale(g) +
                                      extra(g) + transient(g));
        last_out[g] = t;
        queue.push(Event{t, g, nv, seq++});
      }
    }
  }

  r.sampled = std::move(at_clock);
  r.settled = std::move(value);
  // Cross-check: the settled values must equal the zero-delay evaluation of
  // the next pattern (transport-delay simulation converges to steady state).
  SM_CHECK(r.settled == SteadyState(net, next),
           "event simulation failed to converge to the steady state");
  return r;
}

}  // namespace sm
