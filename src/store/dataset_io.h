// Dataset <-> store directory: the logical layer of cellstore.
//
// A store directory holds one serialized simulation run: a plain-text
// `store.manifest` carrying the scenario's config digest, plus one columnar
// feed file (shard.h) per logical feed — the per-cell daily KPI rows (the
// dominant feed, streamed day by day while the simulation runs), signaling
// counters, detected homes, census validation points, every daily series,
// distribution bands, the London relocation matrix, the quality ledger and
// a scalar feed for the leftover fields. Each feed is one section of
// sim/dataset_codec.h, and every feed decodes through FeedScanner (scan.h).
//
// The substrate (geography, population, topology, policy) is NOT
// serialized: it derives deterministically from the config seed, so
// read_dataset() rebuilds it with sim::build_substrate() and restores only
// measured state on top. Doubles travel as raw IEEE 754 bits, integer
// accumulators verbatim — write-then-read is bitwise identical on every
// Dataset field (test_store_replay enforces this).
//
// Corruption never throws: shards that fail CRC/structural validation,
// shards holding a row the decoder refuses (an out-of-range index), and
// feed files that are missing or unreadable are quarantined into the
// dataset's telemetry/quality ledger under the "store" feed, the intact
// remainder is loaded, and the outcome is marked kDegraded — partial data
// is never silently served as complete (load_or_run re-simulates instead).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "audit/report.h"
#include "sim/simulator.h"

namespace cellscope::store {

// Feed files inside a store directory, in write order.
[[nodiscard]] const std::vector<std::string>& dataset_feeds();

// Name of the manifest file inside a store directory.
inline constexpr const char* kManifestFile = "store.manifest";

struct WriteStats {
  std::uint64_t bytes_written = 0;
  std::uint64_t rows_written = 0;
  std::uint64_t shards_written = 0;
};

// Streaming writer: give it to run_scenario() as the DatasetSink so the
// KPI feed (cells x days rows — everything else is small) is flushed to
// disk shard by shard while the simulation runs, then call finish() with
// the completed dataset to write the remaining feeds and the manifest.
class DatasetWriter final : public sim::DatasetSink {
 public:
  // Creates `dir` (and parents) if needed. Throws std::runtime_error when
  // the directory or a feed file cannot be created.
  explicit DatasetWriter(std::string dir);
  ~DatasetWriter() override;

  void on_kpi_day(SimDay day,
                  std::span<const telemetry::CellDayRecord> rows) override;

  // Writes every non-streamed feed plus the manifest and closes all files.
  // When no KPI rows were streamed through on_kpi_day(), they are written
  // from `ds.kpis` here, so finish() alone serializes a materialized
  // dataset. Throws std::logic_error, publishing nothing, when the KPI
  // rows are in neither place (a Dataset whose rows another sink took
  // over) or the streamed count disagrees with ds.kpis.row_count().
  WriteStats finish(const sim::Dataset& ds);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Serializes a materialized dataset into `dir` (convenience over
// DatasetWriter for datasets that were not simulated with a sink).
WriteStats write_dataset(const sim::Dataset& ds, const std::string& dir);

// Crash-safety options for simulate_to_store().
struct StoreRunOptions {
  // Crash injection (tests, the CI crash-resume job): SIGKILL the process
  // right after the n-th day's checkpoint publishes. 0 disables.
  int kill_after_days = 0;
};

// Runs the scenario with a DatasetWriter attached: the store is written
// while the simulation runs, and the run's Dataset is returned with its
// KPI rows released (the store owns them: ds.kpis keeps the row count, the
// day range and the per-day counts, and records() throws). Every other
// field is the run's. Read the store back (read_dataset) or scan it
// (scan.h) for the rows.
//
// The run is crash-safe (docs/RECOVERY.md): a digest-keyed day-granular
// checkpoint (store/checkpoint.h) rides in `dir`, so a killed or
// interrupted run re-invoked with the same config and dir resumes at the
// first incomplete day and produces a byte-identical store. The checkpoint
// is removed once the manifest publishes.
[[nodiscard]] sim::Dataset simulate_to_store(const sim::ScenarioConfig& config,
                                             const std::string& dir);
[[nodiscard]] sim::Dataset simulate_to_store(const sim::ScenarioConfig& config,
                                             const std::string& dir,
                                             const StoreRunOptions& options);

struct ReadOutcome {
  enum class Status {
    kMissing,         // no manifest — nothing stored here
    kDigestMismatch,  // stored run is a different scenario
    kOk,              // complete, bitwise-faithful dataset
    kDegraded,        // dataset loaded but data was quarantined/missing
  };

  Status status = Status::kMissing;
  std::string error;  // human-readable detail for non-kOk outcomes
  std::uint64_t bytes_read = 0;
  std::uint64_t rows_read = 0;
  std::uint64_t shards_quarantined = 0;
  std::vector<std::string> quarantine_log;
  // Present for kOk and kDegraded. A degraded dataset carries its losses in
  // dataset->quality (feed "store") like any degraded measurement feed.
  std::optional<sim::Dataset> dataset;

  [[nodiscard]] bool complete() const { return status == Status::kOk; }
};

// Loads the dataset stored in `dir` for `config`. The substrate is rebuilt
// from the config; the stored digest must match config_digest(config).
[[nodiscard]] ReadOutcome read_dataset(const std::string& dir,
                                       const sim::ScenarioConfig& config);

// The digest recorded in `dir`'s manifest, or "" when absent/unreadable.
[[nodiscard]] std::string stored_digest(const std::string& dir);

struct ScanStats {
  std::uint64_t rows = 0;
  std::uint64_t bytes = 0;  // on-disk feed bytes scanned
  std::uint64_t shards_quarantined = 0;
};

// Out-of-core scan over the stored KPI feed (the dominant one): decodes
// shard by shard straight off the file mapping and invokes `row` for each
// record in store order, holding at most one shard of decoded rows in
// memory — a feed far larger than RAM streams through fine. Corrupt shards
// (or a wholly unreadable feed) are skipped and counted, never thrown.
ScanStats scan_kpis(
    const std::string& dir,
    const std::function<void(const telemetry::CellDayRecord&)>& row);

// Physical store audit: the store-reconcile conservation law. Re-reads
// every feed listed in `dir`'s manifest and checks that (a) the manifest is
// present and well-formed, (b) every feed opens with zero quarantined
// shards, and (c) the total rows and bytes read back equal the rows=/bytes=
// accounting the writer recorded at finish() — what was written is what
// reads back, with nothing lost, truncated or grown in between. Stores
// written before the accounting lines existed skip check (c) (the lines
// are absent, not zero). Read-only; never throws on corruption — damage
// becomes violations.
[[nodiscard]] audit::AuditReport audit_store(const std::string& dir);

}  // namespace cellscope::store
