// Bridges a finished Dataset into the conservation-law registry
// (audit/laws.h): builds the region partition and metric bounds from the
// dataset's own topology and walks every structure the laws cover.
//
// Two entry points because the checks split by when their inputs exist:
// the per-day KPI laws run as each day completes (the simulator does, when
// ScenarioConfig::audit is set, and on each restored day of a resumed run;
// a run that streams its KPI rows to a sink keeps no others), while the
// whole-run laws need the merged probes and ledgers. audit_dataset() runs
// both over an already-finished Dataset that holds its rows — the post-hoc
// path for replayed stores and examples/audit_store.
#pragma once

#include "audit/report.h"
#include "sim/simulator.h"

namespace cellscope::sim {

// Every law over a finished dataset: per-day KPI checks over the stored
// rows plus the whole-run laws. Read-only. Throws std::logic_error for a
// Dataset whose KPI rows went to a sink (KpiStore::records).
[[nodiscard]] audit::AuditReport audit_dataset(const Dataset& ds);

// Only the whole-run laws (voice accounting, quality closure, signaling
// balance, metric ranges, and checkpoint consistency after a resume). The
// simulator calls this at end of run after running the per-day checks
// in-process; it reads KPI counts only, so it runs on a sink run too.
void audit_dataset_global(const Dataset& ds, audit::AuditReport& report);

}  // namespace cellscope::sim
