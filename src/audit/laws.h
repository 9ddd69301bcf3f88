// The conservation-law registry.
//
// Each check_* function verifies one law over the telemetry/analysis
// structures a finished run produced, appending to an AuditReport. The laws
// span layers on purpose — each one compares two independent computations
// of the same physical quantity, so a quiet double-count or loss *between*
// layers (scheduler -> telemetry -> analysis -> store) trips a check even
// when every layer is self-consistent:
//
//   kpi-partition     every KPI row's cell belongs to exactly one region of
//                     the full partition, and the per-day regional sums add
//                     up to the day's national sum (gap days excluded on
//                     both sides).
//   kpi-aggregation   the analysis layer's KpiGroupSeries sum-reduction
//                     over the region partition reproduces the direct
//                     per-day sums over the raw telemetry rows.
//   kpi-range         per-row metric-range laws: volumes, counts and
//                     throughputs are non-negative, TTI utilization is in
//                     [0, 1], loss percentages are in [0, 100].
//   voice-accounting  per day, call attempts == completed + blocked +
//                     dropped (blocked = interconnect overflow), and the
//                     ledger's lifetime attempt counter equals the day sum.
//   quality-closure   per feed, generated = delivered + lost closes:
//                     the expected/observed totals equal their per-day
//                     sums and observed never exceeds expected.
//   signaling-balance signaling event counts balance per day — every
//                     attach carries exactly one authentication and one
//                     session establishment, bearer setups match releases,
//                     service requests match ECM-IDLE transitions, failures
//                     never exceed totals — and the probe's lifetime event
//                     counter equals the day-total sum.
//   mobility-range    entropy lies in [0, ln(sites)], radius of gyration
//                     is >= 0, both in the daily aggregates and in every
//                     distribution band.
//
// The store-reconcile law (bytes/rows written vs read back) lives in the
// store layer (store::audit_store), which sits above sim in the layer
// graph. sim/dataset_audit.h bridges a whole Dataset into these checks.
//
// All checks are read-only and draw no randomness: auditing a run cannot
// change it.
#pragma once

#include <span>

#include "analysis/aggregation.h"
#include "analysis/distribution.h"
#include "analysis/network_metrics.h"
#include "audit/report.h"
#include "geo/uk_model.h"
#include "radio/topology.h"
#include "telemetry/kpi.h"
#include "telemetry/probes.h"
#include "telemetry/quality.h"
#include "traffic/voice.h"

namespace cellscope::audit {

// The full-partition grouping the KPI conservation laws sum over: every
// cell (any RAT) assigned to exactly one geo::Region by its site. Unlike
// analysis::group_by_region — five figure counties plus an all-group — this
// covers the whole country with no overlap, so regional sums must equal the
// national sum exactly.
[[nodiscard]] analysis::CellGrouping region_partition(
    const radio::RadioTopology& topology);

// Bounds for the metric-range laws.
struct MetricBounds {
  // ln(site count): entropy is in nats over towers visited, so no user-day
  // can exceed the uniform distribution over every site.
  double entropy_max = 0.0;
  double loss_pct_max = 100.0;
};
[[nodiscard]] MetricBounds bounds_for(const radio::RadioTopology& topology);

// --- Per-day checks (kpi-partition, kpi-range, and kpi-aggregation
// below): run in-process after each simulated day, and per stored day by
// the post-hoc auditor. `rows` is one day's KPI feed output.
void check_kpi_day(SimDay day, std::span<const telemetry::CellDayRecord> rows,
                   const analysis::CellGrouping& partition,
                   const MetricBounds& bounds, AuditReport& report);

// voice-accounting for a single day (the lifetime-counter cross-check
// lives in check_voice_accounting).
void check_voice_day(const traffic::VoiceDayCalls& day, AuditReport& report);

// kpi-aggregation: KpiGroupSeries (kSum reduction, a mean*count float path)
// vs direct sums over the raw rows, per day per region, within a relative
// tolerance of 1e-9 — the two paths reduce in different orders, so bitwise
// equality is not required, but anything beyond rounding is a lost or
// double-counted cell. Each day is checked on its own, so the in-process
// hook runs it per day on the rows a day delivers (a streaming run keeps
// no others), and the post-hoc auditor per stored day. `rows` run in store
// order; a day split into two runs is reported, not merged.
void check_kpi_aggregation(std::span<const telemetry::CellDayRecord> rows,
                           const analysis::CellGrouping& partition,
                           AuditReport& report);

// --- Whole-run checks.

void check_voice_accounting(const traffic::VoiceCallLedger& ledger,
                            AuditReport& report);

void check_quality_closure(const telemetry::FeedQualityReport& quality,
                           AuditReport& report);

void check_signaling_balance(const telemetry::SignalingProbe& probe,
                             AuditReport& report);

// mobility-range over the national daily aggregates and distribution bands.
void check_mobility_ranges(const analysis::GroupedDailySeries& entropy,
                           const analysis::GroupedDailySeries& gyration,
                           const analysis::DistributionSeries& entropy_dist,
                           const analysis::DistributionSeries& gyration_dist,
                           const MetricBounds& bounds, AuditReport& report);

// checkpoint-consistency: only meaningful for a RESUMED run. The simulator
// records the restored ledger sizes (KPI rows, lifetime voice attempts,
// signaling days) at the moment it fast-forwards; this law re-derives each
// from the FINAL ledgers' prefix up to the resume day and requires exact
// equality — a resumed run that re-simulated a checkpointed day (double
// count) or skipped one (loss) cannot reconcile. Never runs for fresh
// runs: there is no restore point to reconcile against.
void check_checkpoint_consistency(SimDay resumed_from_day,
                                  std::uint64_t recorded_kpi_rows,
                                  std::uint64_t recorded_voice_attempts,
                                  std::uint64_t recorded_signaling_days,
                                  const telemetry::KpiStore& kpis,
                                  const traffic::VoiceCallLedger& voice,
                                  const telemetry::SignalingProbe& signaling,
                                  AuditReport& report);

}  // namespace cellscope::audit
