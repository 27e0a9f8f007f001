// Host-speed reference for the benchmark's end-to-end times.
//
// The shared host the benchmark was developed on changes speed in phases of
// seconds to minutes: the same flow pass took 0.85 s in one phase and 1.4 s
// in the next, and a whole run can fall inside either phase. A fixed
// reference kernel, timed next to the measured work, slows down by about
// the same factor. Of five kernels tried over a 200 s run (hash-table churn
// at two sizes, tree churn, a sort, and the depth sweep below) the depth
// sweep followed the flow pass time most closely: correlation 0.85, and the
// flow-to-kernel ratio moved 7% between the fastest and slowest quarters of
// passes while the flow time moved 38%. A tight ALU loop and a plain
// pointer chase did not follow the phases at all.
//
// Every end-to-end time is therefore scaled to the speed at which the
// kernel takes kReferenceKernelMs. The kernel is the benchmark's own code,
// so a change to the program does not change it; the raw figures are
// printed next to the scaled ones.
#pragma once

namespace perfbench {

// Kernel time, in ms, that defines the reference host speed.
inline constexpr double kReferenceKernelMs = 2.5;

// Median time of the reference kernel over a few repeats, in ms. The kernel
// builds a random 20,000-node graph with 4 fanins per node, one vector per
// node, and sweeps depth = 1 + max fanin depth over it three times: node
// allocation, scattered dependent loads and data-dependent branches, like a
// timing pass over one of the program's netlists.
double ReferenceKernelMs();

// Brackets one timed section with kernel samples taken just before and just
// after it.
class HostSpeed {
 public:
  HostSpeed() : before_ms_(ReferenceKernelMs()) {}

  // Takes the sample after the section and returns the factor that scales
  // a time measured in the section to the reference speed (a rate is
  // divided by it).
  double Scale() const {
    const double after_ms = ReferenceKernelMs();
    return kReferenceKernelMs / (0.5 * (before_ms_ + after_ms));
  }

 private:
  double before_ms_;
};

}  // namespace perfbench
