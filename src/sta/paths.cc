#include "sta/paths.h"

#include <algorithm>

#include "util/check.h"

namespace sm {
namespace {

// Backward DFS from an output driver enumerating every path whose total
// delay exceeds `threshold`. `suffix` is the delay from the current node's
// output to the sampled output. Pruning: the best completion of the current
// prefix is max_arrival[node] + suffix; if that misses the threshold the
// whole subtree is skipped, making enumeration output-sensitive.
struct Enumerator {
  const MappedNetlist& net;
  const TimingInfo& timing;
  double threshold;
  std::size_t limit;                 // stop after this many paths
  std::vector<TimingPath>* paths;    // nullptr: count only
  std::size_t count = 0;
  std::vector<GateId> prefix;        // output-side first, reversed on emit

  void Visit(GateId id, double suffix) {
    if (count >= limit) return;
    if (timing.max_arrival[id] + suffix <= threshold) return;
    prefix.push_back(id);
    if (net.IsInput(id) ||
        (net.element(id).cell != nullptr && net.cell(id).IsConstant())) {
      // A full path: PI (or tie cell) to output.
      ++count;
      if (paths != nullptr) {
        TimingPath p;
        p.elements.assign(prefix.rbegin(), prefix.rend());
        p.delay = suffix;  // all pin delays accumulated on the way down
        paths->push_back(std::move(p));
      }
    } else {
      const Cell& cell = net.cell(id);
      const auto& fin = net.fanins(id);
      for (int p = 0; p < cell.num_pins(); ++p) {
        Visit(fin[static_cast<std::size_t>(p)], suffix + cell.pin_delay(p));
      }
    }
    prefix.pop_back();
  }
};

}  // namespace

TimingPath WorstPath(const MappedNetlist& net, const TimingInfo& timing) {
  SM_REQUIRE(net.NumOutputs() > 0, "WorstPath needs at least one output");
  // Find the worst output, then walk backward along the arrival-defining pin.
  GateId at = net.output(0).driver;
  for (const auto& o : net.outputs()) {
    if (timing.max_arrival[o.driver] > timing.max_arrival[at]) at = o.driver;
  }
  TimingPath path;
  path.delay = timing.max_arrival[at];
  const TimingView view(net);
  for (const PathStep& step :
       ArrivalDefiningPath(view, timing.max_arrival, at)) {
    path.elements.push_back(step.gate);
  }
  std::reverse(path.elements.begin(), path.elements.end());
  return path;
}

std::vector<PathStep> ArrivalDefiningPath(const TimingView& view,
                                          const std::vector<double>& max_arrival,
                                          GateId from, const double* scale) {
  std::vector<PathStep> steps;
  GateId at = from;
  while (!view.IsLeaf(at)) {
    const int pin = view.DefiningPin(at, max_arrival, scale);
    steps.push_back(PathStep{at, pin});
    at = view.Fanin(at, pin);
  }
  steps.push_back(PathStep{at, -1});
  return steps;
}

std::vector<TimingPath> EnumerateSpeedPaths(const MappedNetlist& net,
                                            const TimingInfo& timing,
                                            double threshold,
                                            std::size_t limit) {
  std::vector<TimingPath> paths;
  Enumerator e{net, timing, threshold, limit, &paths, 0, {}};
  for (const auto& o : net.outputs()) {
    e.Visit(o.driver, 0.0);
  }
  // The same driver may feed several outputs; paths repeat per output by
  // design (each output samples independently). Sort by decreasing delay.
  std::stable_sort(paths.begin(), paths.end(),
                   [](const TimingPath& a, const TimingPath& b) {
                     return a.delay > b.delay;
                   });
  return paths;
}

std::size_t CountSpeedPaths(const MappedNetlist& net, const TimingInfo& timing,
                            double threshold, std::size_t cap) {
  Enumerator e{net, timing, threshold, cap, nullptr, 0, {}};
  for (const auto& o : net.outputs()) {
    e.Visit(o.driver, 0.0);
  }
  return e.count;
}

}  // namespace sm
