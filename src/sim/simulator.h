// The simulator: runs a scenario end to end and materializes every dataset
// the paper's figures need.
//
// Day-by-day loop:
//   1. every subscriber's trajectory is generated (policy-modulated),
//      resolved to serving cells, and turned into a UserDayObservation;
//   2. observations stream into the February home detector, the mobility
//      metric aggregates (national / per-region / per-cluster) and, once
//      homes are known, the Inner London mobility matrix;
//   3. if KPI collection is open, per-(cell, hour) offered load accumulates
//      from the demand and voice models, the interconnect converts national
//      off-net voice into a per-hour loss, the LTE scheduler produces each
//      cell's hourly KPIs, and the aggregator reduces them to daily medians;
//   4. signaling events stream into the passive probe.
//
// The per-user work fans out over a persistent worker pool (sim/pool.h)
// that reduces fixed-size user chunks in index order; place building, the
// distribution seal and the KPI day close (sim/phases.h,
// sim/kpi_day_closer.h) fan out over the same pool on fixed grids of their
// own. The returned Dataset is bit-identical for any worker_threads
// setting.
//
// The returned Dataset owns everything a bench or example reads, except
// the KPI rows of a run with a DatasetSink: those belong to the sink.
#pragma once

#include <memory>
#include <span>

#include "analysis/aggregation.h"
#include "analysis/distribution.h"
#include "audit/report.h"
#include "analysis/home_detection.h"
#include "analysis/mobility_matrix.h"
#include "analysis/validation.h"
#include "common/timeseries.h"
#include "mobility/policy.h"
#include "population/device.h"
#include "population/subscriber.h"
#include "radio/topology.h"
#include "sim/checkpoint.h"
#include "sim/scenario.h"
#include "telemetry/kpi.h"
#include "telemetry/probes.h"
#include "telemetry/quality.h"
#include "traffic/voice.h"

namespace cellscope::sim {

struct Dataset {
  ScenarioConfig config;

  // Substrate (owned; analysis structures reference into these).
  std::unique_ptr<geo::UkGeography> geography;
  std::unique_ptr<population::DeviceCatalog> catalog;
  std::unique_ptr<population::Population> population;
  std::unique_ptr<radio::RadioTopology> topology;
  std::unique_ptr<mobility::PolicyTimeline> policy;

  // Home detection (window: the February warm-up) + Fig 2 validation.
  std::vector<analysis::HomeRecord> homes;
  analysis::HomeValidation home_validation;

  // Mobility aggregates over eligible (native smartphone) users.
  // Group 0 of `national` is the whole country; regional groups follow
  // geo::Region order; cluster groups follow geo::OacCluster order.
  analysis::GroupedDailySeries entropy_national;   // 1 group
  analysis::GroupedDailySeries gyration_national;  // 1 group
  analysis::GroupedDailySeries entropy_by_region;
  analysis::GroupedDailySeries gyration_by_region;
  analysis::GroupedDailySeries entropy_by_cluster;
  analysis::GroupedDailySeries gyration_by_cluster;

  // Inner London relocation matrix (Fig 7).
  std::unique_ptr<analysis::MobilityMatrix> london_matrix;
  std::size_t london_residents_tracked = 0;

  // Network KPIs (daily medians per 4G cell) and signaling counters.
  telemetry::KpiStore kpis;
  telemetry::SignalingProbe signaling;

  // National per-day call accounting over the KPI window: every attempt
  // classified completed / blocked (interconnect overflow) / dropped
  // (in-call trunk loss). Model-side bookkeeping, so measurement-plane
  // faults never thin it — the audit's voice-accounting law closes over it.
  traffic::VoiceCallLedger voice_calls;

  // Data-quality accounting for the collected feeds. Empty when the
  // scenario injects no faults (a perfect feed has nothing to report).
  telemetry::FeedQualityReport quality;

  // Interconnect diagnostics: national off-net voice minutes offered in the
  // busiest hour of each day, and that hour's trunk loss.
  DailySeries offnet_busy_hour_minutes;
  DailySeries interconnect_busy_hour_loss_pct;

  // Optional per-4-hour-bin mobility aggregates (six groups, bin 0 =
  // 00:00-04:00), populated when collect_binned_mobility is set.
  analysis::GroupedDailySeries entropy_by_bin;
  analysis::GroupedDailySeries gyration_by_bin;

  // Inbound roamers active per day (the population the paper filters OUT;
  // its collapse is the travel-ban signature).
  DailySeries roamers_active;

  // Per-day distribution bands of the per-user mobility metrics (national):
  // backs the paper's "all percentiles are close to the median" commentary.
  analysis::DistributionSeries gyration_distribution;
  analysis::DistributionSeries entropy_distribution;

  // Measured share of connected time served by 4G during the KPI window
  // (Section 2.4 reports ~75% for the real network).
  double measured_lte_time_share = 0.0;

  std::size_t eligible_users = 0;

  // Conservation-audit results, populated when ScenarioConfig::audit is
  // set (empty otherwise). Derived bookkeeping about the run, not part of
  // the run itself: the store never serializes it and dataset equality
  // ignores it.
  audit::AuditReport audit_report;

  // Crash-safety bookkeeping (docs/RECOVERY.md). Like audit_report this is
  // derived metadata about HOW the run executed, not part of the run's
  // output: the store never serializes it and dataset equality ignores it
  // (a resumed run must be bit-identical to an uninterrupted one).
  struct RunRecovery {
    bool resumed = false;
    SimDay resumed_from_day = 0;  // checkpoint high-water mark
    // Ledger sizes recorded at restore time; the checkpoint-consistency
    // audit law reconciles the final ledgers' prefixes against these.
    std::uint64_t checkpoint_kpi_rows = 0;
    std::uint64_t checkpoint_voice_attempts = 0;
    std::uint64_t checkpoint_signaling_days = 0;
    // Supervised-execution totals (sim/supervisor.h).
    std::uint64_t supervisor_retries = 0;
    std::uint64_t supervisor_failures = 0;
    std::uint64_t supervisor_stalls = 0;
  };
  RunRecovery recovery;

  // Convenience baselines (week-9 national averages).
  [[nodiscard]] double entropy_baseline() const {
    return entropy_national.week_baseline(0, 9);
  }
  [[nodiscard]] double gyration_baseline() const {
    return gyration_national.week_baseline(0, 9);
  }
};

// Streaming hook for feed consumers that want rows as they are produced
// (the on-disk store in src/store implements this). The simulator calls
// on_kpi_day() once per collected KPI day, in day order, with the day's
// finalized cell-day rows, so a sink can persist the dominant feed
// incrementally with bounded memory instead of walking the finished
// Dataset. The sink owns those rows: the run keeps each day only until
// its checkpoint record is encoded, and Dataset::kpis keeps their counts.
class DatasetSink {
 public:
  virtual ~DatasetSink() = default;
  virtual void on_kpi_day(SimDay day,
                          std::span<const telemetry::CellDayRecord> rows) = 0;
};

// Builds the deterministic substrate (geography, device catalog,
// population, radio topology, policy timeline) and the window shape of
// every series into `ds`, and sets eligible_users. Everything here derives
// from the config alone, so read_dataset() and the checkpoint restore
// rebuild it with this instead of serializing it.
void build_substrate(const ScenarioConfig& config, Dataset& ds);

class Simulator {
 public:
  explicit Simulator(ScenarioConfig config);

  // Runs the whole window and returns the populated dataset. A non-null
  // sink receives feed rows as days complete and takes them over: the
  // returned kpis hold the row count and day range, no rows (see
  // telemetry::KpiStore::release_rows). A non-null checkpoint makes
  // the run resumable: its saved state (if any) fast-forwards the run to
  // the first incomplete day — with restored KPI days re-streamed through
  // `sink` first, so a streaming store ends up byte-identical — and every
  // completed day is checkpointed. Throws RunInterrupted (sim/interrupt.h)
  // at a day boundary when an interrupt was requested, and DayFailed
  // (sim/supervisor.h) when a day exhausted its supervised retries.
  [[nodiscard]] Dataset run(DatasetSink* sink = nullptr,
                            CheckpointSink* checkpoint = nullptr);

 private:
  ScenarioConfig config_;
};

// Convenience: configure + run.
[[nodiscard]] Dataset run_scenario(const ScenarioConfig& config);
[[nodiscard]] Dataset run_scenario(const ScenarioConfig& config,
                                   DatasetSink* sink);

}  // namespace cellscope::sim
