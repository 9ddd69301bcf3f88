// Run manifest: one JSON document describing a completed run.
//
// The paper ships per-stage accounting next to its measurements; the
// manifest is our equivalent for the simulation itself — enough metadata
// (config digest, seed, build, thread count) to reproduce the run, plus
// enough accounting (per-phase wall time, throughput, metrics snapshot,
// feed-quality summary) to compare runs across commits. BENCH_*.json perf
// trajectories and the CI artifacts read these.
//
// The obs layer knows nothing about scenarios or feeds: callers translate
// their domain structures (ScenarioConfig, FeedQualityReport) into the
// plain fields below.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cellscope::obs {

struct RunManifest {
  // Identity / reproducibility.
  std::string name;           // run label, e.g. the bench slug
  std::string tool = "cellscope";
  std::string git_describe;   // build provenance (see build_describe())
  std::string config_digest;  // hex digest of the scenario config
  std::uint64_t seed = 0;
  std::uint64_t users = 0;
  int worker_threads = 1;
  int first_week = 0;
  int last_week = 0;

  // Accounting.
  double wall_seconds = 0.0;
  double user_days_per_sec = 0.0;
  long peak_rss_kb = 0;
  std::vector<PhaseTotal> phases;      // top-level, disjoint in time
  std::vector<MetricSnapshot> metrics;

  // Per-feed quality summary (mirrors telemetry::FeedQuality totals).
  struct FeedSummary {
    std::string name;
    std::uint64_t expected = 0;
    std::uint64_t observed = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t duplicates = 0;
    double completeness = 1.0;
  };
  std::vector<FeedSummary> feeds;

  // Conservation-audit summary (mirrors audit::AuditReport counts; the obs
  // layer stays below audit, so only plain counters cross over). Present in
  // the JSON only when the audit ran (audit_enabled).
  struct AuditLaw {
    std::string name;
    std::uint64_t checks = 0;
    std::uint64_t violations = 0;
  };
  bool audit_enabled = false;
  std::uint64_t audit_checks = 0;
  std::uint64_t audit_violations = 0;
  std::vector<AuditLaw> audit_laws;

  // Crash-safety summary (docs/RECOVERY.md). Always emitted — CI asserts on
  // these fields without probing for key presence. `interrupted` marks a run
  // cut short by SIGINT/SIGTERM (checkpoint flushed, resumable); `resumed`
  // marks a run that fast-forwarded from a checkpoint, in which case
  // `resumed_from_day` is the last restored day. The supervisor counters
  // mirror the `supervisor.*` metrics.
  // `day_failed` marks a run the supervisor gave up on (DayFailed, exit 5):
  // the manifest then accounts for the partial run up to the failed day.
  bool interrupted = false;
  bool day_failed = false;
  bool resumed = false;
  int resumed_from_day = -1;
  std::uint64_t supervisor_retries = 0;
  std::uint64_t supervisor_failures = 0;
  std::uint64_t supervisor_stalls = 0;

  // Run-health timeline summary (docs/OBSERVABILITY.md). Mirrors the
  // `<slug>.timeline.csv/.json` exports; emitted only when samples exist.
  struct TimelineSummary {
    std::uint64_t samples = 0;
    long steady_rss_kb = 0;
    double rss_slope_kb_per_day = 0.0;
    double rss_slope_kpi_kb_per_day = 0.0;  // days >= the first KPI day
    double rows_per_sec = 0.0;   // from the final sample
    double users_per_sec = 0.0;  // from the final sample
  };
  TimelineSummary timeline;
};

// Serializes the manifest as a single pretty-printed JSON object.
void write_manifest_json(std::ostream& os, const RunManifest& manifest);

}  // namespace cellscope::obs
