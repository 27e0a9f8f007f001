#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

// Nearest-rank position (1-based) of percentile p among n samples. The
// epsilon keeps a product such as 0.999 · 10000 from rounding up a rank.
double Rank(double p, std::size_t n) {
  return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = Rank(p, values.size());
  const std::size_t index =
      rank < 1 ? 0 : std::min(values.size() - 1,
                              static_cast<std::size_t>(rank) - 1);
  return values[index];
}

double Median(std::vector<double> values) { return Percentile(values, 50); }

double TailPercentile(std::size_t n, std::size_t min_beyond) {
  static constexpr double kLevels[] = {99.9, 99.5, 99, 98, 97,
                                       95,   90,   80, 75, 50};
  for (const double p : kLevels) {
    // Samples strictly beyond the nearest-rank position of p.
    const double rank = Rank(p, n);
    if (static_cast<double>(n) - rank >= static_cast<double>(min_beyond)) {
      return p;
    }
  }
  return 0;
}

OpenLoopTiming AccountOpenLoop(const OpenLoopSample& s) {
  constexpr double kMs = 1e-6;
  OpenLoopTiming t;
  t.latency_ms = static_cast<double>(s.done_ns - s.due_ns) * kMs;
  t.queue_ms = static_cast<double>(std::max<std::int64_t>(0, s.ready_ns - s.due_ns)) * kMs;
  const std::int64_t could_send = std::max(s.due_ns, s.ready_ns);
  t.generator_late_ms =
      static_cast<double>(std::max<std::int64_t>(0, s.sent_ns - could_send)) * kMs;
  return t;
}

}  // namespace perfbench
