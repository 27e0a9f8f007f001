#include "workload.h"

#include "stats.h"
#include "util/hash.h"

namespace perfbench {

std::uint64_t DeriveSeed(std::uint64_t seed, const std::string& label) {
  return sm::HashMix64(sm::HashCombine(seed, Fnv1a64(label))) | 1;
}

double MedianSelfMs(
    const std::vector<std::map<std::string, std::int64_t>>& per_pass,
    const std::string& span) {
  std::vector<double> ms;
  for (const auto& self : per_pass) {
    const auto it = self.find(span);
    ms.push_back(it == self.end() ? 0 : Millis(it->second));
  }
  return Median(ms);
}

}  // namespace perfbench
