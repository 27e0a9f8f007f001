#include "host_speed.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr int kKernelRepeats = 9;
constexpr std::uint32_t kNodes = 20000;
constexpr std::uint32_t kFanin = 4;
constexpr int kSweeps = 3;

// Keeps the kernel's result alive so the compiler cannot drop the work.
volatile std::uint32_t g_kernel_sink = 0;

// The kernel's own mixer (the first half of murmur3's 64-bit finaliser),
// kept here so that no change to the program's hashing reaches the kernel.
std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

// Builds a random graph of kNodes nodes with kFanin fanins each, one vector
// per node, and sweeps depth = 1 + max fanin depth over it in node order.
double KernelOnceMs() {
  const std::int64_t t0 = NowNs();
  std::vector<std::vector<std::uint32_t>> fanins(kNodes);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    for (std::uint32_t k = 0; k < kFanin; ++k) {
      fanins[i].push_back(
          static_cast<std::uint32_t>(Mix(i * kFanin + k) % kNodes));
    }
  }
  std::vector<std::uint32_t> depth(kNodes, 0);
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      std::uint32_t d = 0;
      for (const std::uint32_t j : fanins[i]) d = std::max(d, depth[j] + 1);
      depth[i] = d % 64;
    }
  }
  g_kernel_sink = depth[kNodes / 2];
  return static_cast<double>(NowNs() - t0) * 1e-6;
}

}  // namespace

double ReferenceKernelMs() {
  std::vector<double> ms;
  for (int r = 0; r < kKernelRepeats; ++r) ms.push_back(KernelOnceMs());
  return Median(ms);
}

}  // namespace perfbench
