#include "variation/monte_carlo.h"

#include <algorithm>
#include <cmath>

#include "sim/batch_sim.h"
#include "sta/sta.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sm {
namespace {

// Arrival-vs-deadline comparisons ignore sub-ulp noise: the nominal critical
// path sits exactly at T and must not read as a violation.
constexpr double kEps = 1e-9;

// The classification pattern stream must be independent of the sampling
// stream of the same trial; offsetting the stream index by a large odd
// constant keeps the two families disjoint for any realistic trial count.
constexpr std::uint64_t kClassifyStreamOffset = 0x9e3779b97f4a7c15ULL;

// Trials per thread-pool task; chunk boundaries fix the batch packing.
constexpr std::size_t kChunk = 64;
// Node-visit budget of the per-trial escape scan; an exhausted budget
// truncates the scan (scan_truncations) and treats the rest as masked.
constexpr std::size_t kScanBudget = 200000;
// Importance sampling shifts the gates within kIsGuardFraction · clock of
// their deadline by a total of kIsShift sigmas. E[w²] = exp(‖μ‖²) whatever
// the circuit size: 1.5 keeps ~10% effective samples, 2.5+ collapses them.
constexpr double kIsShift = 1.5;
constexpr double kIsGuardFraction = 0.2;

struct TrialOutcome {
  bool violates_original = false;
  bool violates_protected = false;
  bool residual = false;
  bool excited = false;  // some error (masked or not) was observed
  bool scan_truncated = false;
  std::uint32_t masked_events = 0;
  std::uint32_t residual_events = 0;
  double log_weight = 0;
};

// A violating trial's deferred classification work: its delay plane, kept
// so a chunk's trials can be packed into 64-lane batched runs, and the
// per-transition counts that come back lane by lane, folded in transition
// order. Its pattern pairs are drawn straight into the chunk's lane words.
struct TrialPlan {
  std::size_t trial = 0;
  std::vector<double> scale;
  std::vector<std::uint32_t> err_counts;
  std::vector<std::uint32_t> tap_counts;
};

// One chunk's worker state, reused by each of its trials. Transition i of
// the k-th violating trial is lane k · classify_transitions + i: bit
// lane % 64 of words[lane / 64].
struct ChunkState {
  std::vector<double> orig_scale;
  std::vector<double> orig_arrival;
  std::vector<double> prot_arrival;
  std::vector<std::size_t> late_outputs;
  std::vector<TrialPlan> pending;
  std::vector<LanePatterns> words;
};

bool AnyOutputLate(const MappedNetlist& net,
                   const std::vector<double>& arrival, double deadline) {
  for (const auto& o : net.outputs()) {
    if (arrival[o.driver] > deadline + kEps) return true;
  }
  return false;
}

// Structural escape scan. For a trial whose protected netlist misses the
// clock, decides whether the violation is guaranteed-masked or can escape:
//
//   * a late path through the mux's d0 pin (the copied original y) whose
//     NOMINAL delay exceeds the SPCF target Δ_y is covered — every pattern
//     activating it settles after Δ_y at nominal delays, is in Σ_y, and so
//     raises e (floating-mode activation depends on the pattern only, not
//     on the delays, so the trial's slowdown cannot create new activating
//     patterns for it);
//   * a late d0 path that is nominally SHORT (≤ Δ_y) escapes: its patterns
//     need not be in Σ_y, so e may be 0 while y errs;
//   * any late path through the mux select (e) or d1 (ỹ) pin means the
//     masking circuit itself missed timing — an escape;
//   * a late unprotected output has no mux at all — an escape.
//
// The scan is a pruned DFS: subtrees with no scaled-late path (scaled
// arrival bound) or with only nominally-long paths (nominal min-arrival
// bound, covered mode) are skipped. Structural paths overapproximate
// sensitizable ones, so a reported escape may be a false path — the
// classification errs on the pessimistic side, like STA itself.
struct EscapeScanner {
  const TimingView& view;
  const std::vector<double>& scaled;  // trial max-arrivals of the netlist
  const TimingInfo& nominal;          // unscaled STA of the same netlist
  const std::vector<double>& scale;
  double scaled_deadline = 0;
  double nominal_threshold = 0;  // Δ_y: nominally-longer d0 paths are covered
  std::size_t budget = 0;
  bool covered_mode = false;  // true inside the d0 (original y) subtree
  bool truncated = false;

  // True when an uncovered scaled-late path exists under `id`; suffixes are
  // the scaled/nominal delays from id's output to the sampled output.
  bool Visit(GateId id, double s_suffix, double n_suffix) {
    if (budget == 0) {
      truncated = true;
      return false;
    }
    --budget;
    if (scaled[id] + s_suffix <= scaled_deadline + kEps) {
      return false;  // nothing below is scaled-late
    }
    if (covered_mode &&
        nominal.min_arrival[id] + n_suffix > nominal_threshold + kEps) {
      return false;  // every path below is nominally long — covered
    }
    if (view.IsLeaf(id)) {
      return !covered_mode || n_suffix <= nominal_threshold + kEps;
    }
    for (int p = 0; p < view.NumPins(id); ++p) {
      const double d = view.PinDelay(id, p);
      if (Visit(view.Fanin(id, p), s_suffix + d * scale[id], n_suffix + d)) {
        return true;
      }
    }
    return false;
  }
};

}  // namespace

YieldMcResult RunTimingYieldMc(const MappedNetlist& original,
                               const ProtectedCircuit& protected_circuit,
                               const YieldMcOptions& options) {
  SM_REQUIRE(options.trials > 0, "need at least one trial");
  const MappedNetlist& prot = protected_circuit.netlist;

  // Nominal timing fixes the clock and (for importance sampling) the set of
  // speed-path gates whose distribution is shifted.
  const TimingInfo nominal = AnalyzeTiming(original);
  const double clock = options.clock < 0 ? nominal.critical_delay
                                         : options.clock;
  SM_REQUIRE(clock > 0, "clock must be positive");
  const double prot_clock = protected_circuit.SamplingClock(clock);
  const double coverage_target =
      options.coverage_target_arrival < 0
          ? (1.0 - options.guard_band) * clock
          : options.coverage_target_arrival;

  // Nominal timing of the protected netlist: min-arrivals prune the escape
  // scan's covered subtrees, slacks pick the importance-sampling shift set.
  const TimingInfo prot_nominal = AnalyzeTiming(prot, prot_clock);

  // Which protected outputs carry a masking mux, by driver id.
  std::vector<const ProtectedCircuit::Tap*> tap_of(prot.NumElements(),
                                                   nullptr);
  for (const auto& tap : protected_circuit.taps) tap_of[tap.mux] = &tap;

  // Variation is sampled once per trial over the protected netlist (the
  // superset); the copied original gates share their copy's draw so C and
  // C ∪ C̃ see the same silicon.
  const std::vector<GateId> orig_in_prot =
      protected_circuit.OriginalToProtected(original);
  const DelayScaleSampler sampler(prot, options.model);

  std::vector<double> shift;
  if (options.importance_sampling) {
    // Shift toward slowdown along a single direction over the low-slack
    // gates, L2-normalized so the TOTAL shift magnitude is kIsShift sigmas
    // however many gates qualify. (A per-gate shift would give the weights
    // a log-variance proportional to the gate count — on thousand-gate
    // circuits every likelihood ratio collapses to ~0 and the estimator
    // dies. With ‖μ‖ fixed, E[w²] = exp(‖μ‖²) independent of size.)
    shift.assign(prot.NumElements(), 0.0);
    const double window = kIsGuardFraction * prot_clock;
    double norm2 = 0;
    for (GateId id = 0; id < prot.NumElements(); ++id) {
      if (prot.IsInput(id)) continue;
      if (!std::isfinite(prot_nominal.required[id])) continue;  // dangling
      const double score = window - prot_nominal.Slack(id);
      if (score > 0) {
        shift[id] = score;
        norm2 += score * score;
      }
    }
    if (norm2 > 0) {
      const double k = kIsShift / std::sqrt(norm2);
      for (double& s : shift) s *= k;
    }
  }

  // Pre-warm the fanout cache: trials only read the netlists, but the cache
  // is built lazily and must not be raced.
  (void)prot.Fanouts();
  (void)original.Fanouts();

  // Trial STA runs on compiled views: one flat forward max-arrival pass per
  // netlist into the chunk's buffers, nothing allocated per trial.
  const TimingView orig_view(original);
  const TimingView prot_view(prot);
  const std::size_t num_inputs = prot.NumInputs();
  const auto transitions =
      static_cast<std::size_t>(std::max(options.classify_transitions, 0));
  constexpr auto kWidth = static_cast<std::size_t>(kBatchLanes);

  std::vector<TrialOutcome> outcomes(options.trials);
  // Samples, times and scans trial t. A violating trial leaves its delay
  // plane in a plan and its classification pattern pairs in the chunk's
  // lane words for the batched runs; the pairs come from the trial's
  // private classify stream, so how the trials are packed never shifts a
  // draw.
  const auto run_trial = [&](std::size_t t, ChunkState& cs) {
    // Cancellation: skip instead of throwing across the pool; the post-pool
    // Check() raises the typed error once every worker has drained.
    if (options.cancel != nullptr && options.cancel->Status() != ErrorCode::kOk) {
      return;
    }
    if (options.cancel != nullptr) options.cancel->ConsumeWork(1);
    TrialOutcome& out = outcomes[t];
    ShiftedSample sample = sampler.SampleShifted(options.seed, t, shift);
    out.log_weight = sample.log_weight;

    cs.orig_scale.resize(original.NumElements());
    for (GateId id = 0; id < original.NumElements(); ++id) {
      cs.orig_scale[id] = orig_in_prot[id] != kInvalidGate
                              ? sample.scale[orig_in_prot[id]]
                              : 1.0;
    }

    orig_view.MaxArrival(cs.orig_scale.data(), cs.orig_arrival);
    out.violates_original = AnyOutputLate(original, cs.orig_arrival, clock);

    prot_view.MaxArrival(sample.scale.data(), cs.prot_arrival);
    out.violates_protected = AnyOutputLate(prot, cs.prot_arrival, prot_clock);
    if (!out.violates_protected) return;  // STA bounds the simulator: safe

    // Structural escape scan over every late output. Late unprotected
    // outputs escape outright; through a mux, the select and d1 subtrees
    // must be clean and d0 may only be late along nominally-long (covered)
    // paths. The d0 branch compares nominal delays without the mux pin —
    // Δ_y is measured at the original circuit's outputs.
    std::vector<std::size_t>& late_outputs = cs.late_outputs;
    late_outputs.clear();
    EscapeScanner scanner{prot_view, cs.prot_arrival, prot_nominal,
                          sample.scale};
    scanner.scaled_deadline = prot_clock;
    scanner.nominal_threshold = coverage_target;
    scanner.budget = kScanBudget;
    for (std::size_t oi = 0; oi < prot.NumOutputs(); ++oi) {
      const GateId driver = prot.output(oi).driver;
      if (cs.prot_arrival[driver] <= prot_clock + kEps) continue;
      late_outputs.push_back(oi);
      if (out.residual) continue;  // already classified; keep listing
      if (tap_of[driver] == nullptr) {
        out.residual = true;  // no mux guards this output
        continue;
      }
      for (int p = 0; p < prot_view.NumPins(driver) && !out.residual; ++p) {
        const double d = prot_view.PinDelay(driver, p);
        scanner.covered_mode = p == 1;  // pins are (select e, d0 y, d1 ỹ)
        out.residual = scanner.Visit(prot_view.Fanin(driver, p),
                                     d * sample.scale[driver],
                                     scanner.covered_mode ? 0.0 : d);
      }
    }
    out.scan_truncated = scanner.truncated;
    if (transitions == 0) return;

    // Excite the violation under the trial delays. Transitions alternate
    // between targeted single-input toggles down the arrival-defining paths
    // of the late outputs (these sensitize the blamed speed-path with high
    // probability) and fully random pattern pairs (these catch escapes STA
    // blamed on one output but that surface on another). Each pattern bit
    // is drawn straight into its lane of the chunk's words.
    const std::size_t first_lane = cs.pending.size() * transitions;
    while (cs.words.size() * kWidth < first_lane + transitions) {
      cs.words.emplace_back(num_inputs);
    }
    Rng rng = Rng::ForStream(options.seed, t + kClassifyStreamOffset);
    for (std::size_t i = 0; i < transitions; ++i) {
      const std::size_t lane = first_lane + i;
      LanePatterns& word = cs.words[lane / kWidth];
      const std::size_t shift = lane % kWidth;
      const std::uint64_t bit = std::uint64_t{1} << shift;
      for (std::size_t v = 0; v < num_inputs; ++v) {
        word.next[v] |= std::uint64_t{rng.Bit()} << shift;
      }
      if (i % 2 == 0 && !late_outputs.empty()) {
        const std::size_t oi = late_outputs[(i / 2) % late_outputs.size()];
        // Toggling the input at the head of the arrival-defining path
        // launches a transition down the exact path STA blamed — random
        // transitions almost never sensitize a specific speed-path.
        const GateId head = prot_view.PathHead(
            prot.output(oi).driver, cs.prot_arrival, sample.scale.data());
        for (std::size_t v = 0; v < num_inputs; ++v) {
          word.previous[v] |= word.next[v] & bit;
        }
        const int pi = prot.IsInput(head) ? prot.InputIndex(head) : -1;
        if (pi >= 0) word.previous[static_cast<std::size_t>(pi)] ^= bit;
      } else {
        for (std::size_t v = 0; v < num_inputs; ++v) {
          word.previous[v] |= std::uint64_t{rng.Bit()} << shift;
        }
      }
    }
    TrialPlan& plan = cs.pending.emplace_back();
    plan.trial = t;
    plan.scale = std::move(sample.scale);
    plan.err_counts.assign(transitions, 0);
    plan.tap_counts.assign(transitions, 0);
  };

  // Counts one lane of a batched run: outputs latching a timing error, and
  // taps whose copied original output y missed the raw clock while the
  // indicator e was raised — the paper's e_i·(y_i ⊕ ỹ_i) wearout events.
  const auto count_lane = [&](const BatchEventSimResult& sim, int lane,
                              TrialPlan& plan, std::size_t transition) {
    std::uint32_t errs = 0;
    for (const auto& o : prot.outputs()) {
      if (sim.TimingErrorAt(o.driver, lane)) ++errs;
    }
    std::uint32_t taps = 0;
    for (const auto& tap : protected_circuit.taps) {
      if (sim.MaskedTapAt(tap.indicator, tap.original, lane, clock)) ++taps;
    }
    plan.err_counts[transition] = errs;
    plan.tap_counts[transition] = taps;
  };

  BatchTelemetry telemetry;
  const auto run_chunk = [&](std::size_t lo, std::size_t hi) {
    // Phase A: STA + escape scan per trial; violating trials leave a plan
    // and their classification patterns in the lane words.
    ChunkState cs;
    for (std::size_t t = lo; t < hi; ++t) run_trial(t, cs);
    if (cs.pending.empty()) return;

    // Phase B: run the batched engine on each lane word. Lanes of one
    // trial share its delay plane by pointer.
    const std::size_t lanes = cs.pending.size() * transitions;
    BatchEventSim engine(prot);
    for (std::size_t base = 0; base < lanes; base += kWidth) {
      const int count = static_cast<int>(std::min(lanes - base, kWidth));
      BatchEventSimConfig cfg;
      cfg.clock = prot_clock;
      cfg.lanes = count;
      for (int l = 0; l < count; ++l) {
        const std::size_t lane = base + static_cast<std::size_t>(l);
        cfg.delay_scale[static_cast<std::size_t>(l)] =
            cs.pending[lane / transitions].scale.data();
      }
      const LanePatterns& word = cs.words[base / kWidth];
      const BatchEventSimResult& sim =
          engine.Run(word.previous, word.next, cfg);
      ++telemetry.words;
      for (int l = 0; l < count; ++l) {
        const std::size_t lane = base + static_cast<std::size_t>(l);
        count_lane(sim, l, cs.pending[lane / transitions],
                   lane % transitions);
      }
    }
    telemetry.lanes += lanes;

    // Phase C: fold the per-transition counts in transition order, up to
    // and including the first transition that lets an error escape. A trial
    // the scan already found residual therefore counts its first transition
    // only.
    for (TrialPlan& plan : cs.pending) {
      TrialOutcome& out = outcomes[plan.trial];
      for (std::size_t j = 0; j < plan.err_counts.size(); ++j) {
        if (plan.err_counts[j] > 0) {
          out.residual_events += plan.err_counts[j];
          out.residual = true;
        }
        out.masked_events += plan.tap_counts[j];
        if (out.residual) break;
      }
      out.excited = out.masked_events > 0 || out.residual_events > 0;
    }
  };

  WallTimer timer;
  {
    ThreadPool pool(options.threads);
    pool.ParallelFor(0, options.trials, kChunk, run_chunk);
  }
  // Raise the typed error only after the pool has drained: the workers
  // skipped (never threw), so no exception crosses a thread boundary.
  if (options.cancel != nullptr) options.cancel->Check();

  // Sequential reduction in trial order: bit-identical for any thread count.
  YieldMcResult r;
  r.trials = options.trials;
  r.clock = clock;
  r.protected_clock = prot_clock;
  double sum_w = 0, sum_w2 = 0;
  double sum_viol = 0, sum_res = 0, sum_res2 = 0;
  for (const TrialOutcome& out : outcomes) {
    const double w = std::exp(out.log_weight);
    sum_w += w;
    sum_w2 += w * w;
    if (out.violates_original) {
      ++r.violations_original;
      sum_viol += w;
    }
    if (out.violates_protected) ++r.violations_protected;
    if (out.scan_truncated) ++r.scan_truncations;
    if (out.residual) {
      ++r.residual_trials;
      sum_res += w;
      sum_res2 += w * w;
    } else if (out.violates_protected) {
      ++r.masked_trials;
      if (!out.excited) ++r.unexcited_trials;
    }
    r.masked_events += out.masked_events;
    r.residual_events += out.residual_events;
  }
  const auto n = static_cast<double>(options.trials);
  r.yield_original = 1.0 - sum_viol / n;
  r.residual_rate = sum_res / n;
  r.yield_protected = 1.0 - r.residual_rate;
  if (options.trials > 1) {
    const double mean = r.residual_rate;
    const double var =
        std::max(0.0, (sum_res2 / n - mean * mean) * (n / (n - 1.0)));
    r.residual_stderr = std::sqrt(var / n);
    r.relative_error = mean > 0 ? r.residual_stderr / mean : 0;
  }
  r.effective_samples = sum_w2 > 0 ? (sum_w * sum_w) / sum_w2 : 0;
  r.words_simulated = telemetry.words;
  r.lanes_simulated = telemetry.lanes;
  r.lane_utilization = telemetry.LaneUtilization();
  r.seconds = timer.Seconds();
  r.trials_per_second = r.seconds > 0 ? n / r.seconds : 0;
  return r;
}

}  // namespace sm
