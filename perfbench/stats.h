// Order statistics and open-loop accounting for the benchmark.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// The highest percentile among 99.9, 99.5, 99, 98, 97, 95, 90, 80, 75 and
// 50 that has at least `min_beyond` of `n` samples strictly above its rank,
// i.e. n·(1 − p/100) ≥ min_beyond. 0 when not even the median qualifies.
double TailPercentile(std::size_t n, std::size_t min_beyond = 10);

// One request of an open-loop schedule, times in nanoseconds on one clock.
struct OpenLoopSample {
  std::int64_t due_ns = 0;    // when the schedule says it is sent
  std::int64_t ready_ns = 0;  // when a connection became free for it
  std::int64_t sent_ns = 0;   // when the generator actually sent it
  std::int64_t done_ns = 0;   // when its response arrived
};

struct OpenLoopTiming {
  double latency_ms = 0;     // done − due: includes every wait a stall causes
  double queue_ms = 0;       // ready − due, ≥ 0: waited for a free connection
  double generator_late_ms = 0;  // sent − max(due, ready), ≥ 0: the
                                 // generator's own lateness
};

OpenLoopTiming AccountOpenLoop(const OpenLoopSample& s);

}  // namespace perfbench
