// Flow-level entry point for the timing-fault injection campaign: takes a
// finished masking-flow result and adversarially attacks its protected
// netlist at runtime. Thin wiring over inject/campaign.h, plus the
// reproducer dump (BLIF + JSON) an escape turns into a bug report.
#pragma once

#include <string>
#include <vector>

#include "harness/flow.h"
#include "inject/campaign.h"
#include "service/json.h"

namespace sm {

// Runs the campaign on flow.original vs flow.protected_circuit. A negative
// options.clock resolves to the flow's nominal critical delay Δ, and
// options.guard_band is overridden by the guard band the flow's SPCF was
// actually built with (Δ_y = (1 − guard_band)·Δ) — the campaign must attack
// the window the shipped guarantee covers, not a caller-typed one.
InjectionCampaignResult RunFaultInjectionCampaign(
    const FlowResult& flow, const InjectOptions& options = {});

// The guard band recovered from the flow's SPCF target arrival.
double FlowGuardBand(const FlowResult& flow);

// One escape record as a JSON object: fault site/kind/delta, transition
// index, the vector pair as "01" strings and the escaping output. The
// daemon's inject_campaign result lists exactly these objects.
Json EscapeRecordToJson(const EscapeRecord& rec);

// The reproducer text for one escape record: EscapeRecordToJson plus the
// replay clocks, dumped canonically. `protected_clock` is the sampling
// instant ReplayEscapesAtOutputs must be called with; `clock` is the raw
// per-output deadline ClassifyFaultTrial additionally needs.
std::string EncodeEscapeRecordJson(const EscapeRecord& rec, double clock,
                                   double protected_clock);

// Dumps up to `max_files` escape reproducers into `dir` (created by the
// caller): for escape i, `<stem>_escape<i>.blif` holds the protected
// netlist and `<stem>_escape<i>.json` the record from
// EncodeEscapeRecordJson. Returns the paths written (JSON after its BLIF).
std::vector<std::string> WriteEscapeReproducers(
    const FlowResult& flow, const InjectionCampaignResult& result,
    const std::string& dir, const std::string& stem,
    std::size_t max_files = 4);

}  // namespace sm
