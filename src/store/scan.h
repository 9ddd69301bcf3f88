// Vectorized columnar scan engine over cellstore feed files.
//
// The figure pipelines each consume a few columns of the dominant KPI feed
// over day/region slices, yet full replay (dataset_io.h) rebuilds entire
// Datasets first. FeedScanner reads a CSF1 feed the way a column store
// should be read:
//
//   * column projection by name      — untouched columns are never decoded;
//   * predicate pushdown             — a day range is checked against each
//     shard's footer entry (min_day/max_day) BEFORE any payload byte is
//     touched, so out-of-range shards are pruned for free; a per-key byte
//     mask (e.g. cells of a region grouping) filters rows after decoding
//     only the key column;
//   * batched decode                 — delta/zigzag/varint columns decode a
//     shard at a time into reusable buffers, no per-row virtual calls;
//   * late materialization           — fixed-width (kRaw64) columns of rows
//     that failed the predicate are never decoded at all: survivors gather
//     at 8-byte stride straight off the mapping.
//
// It is the store's only decoder: read_dataset and scan_kpis (dataset_io.h)
// read every feed through it too. kBytes columns project like any other,
// each row surfacing as a string_view into the file mapping.
//
// Corruption semantics are therefore full replay's: a shard that fails
// CRC, structural validation (including a column layout that disagrees
// with the schema) or row decode is quarantined — counted, logged, skipped
// — and a wholly unreadable feed is one quarantine unit with ok() ==
// false. The scanner never throws on bad input and never serves a
// partially decoded shard: a shard contributes all of its surviving rows
// or none.
//
// Batch lifetime: a ScanBatch only holds spans into buffers owned by the
// scanner (and, for kBytes, views into its mapping). They are valid until
// the next next() call or the scanner's destruction, whichever comes first
// — copy out anything that must outlive the loop. A batch never spans a
// shard boundary, so the final batch of each shard may be short.
//
// The adapters at the bottom port the figure pipelines onto the scan path
// while keeping full replay as the reference oracle: each one re-checks
// feed integrity (footer row counts vs the scalar feed's expected counts,
// zero quarantined shards) and returns nullopt on ANY damage, so callers
// degrade to the replay/re-simulate path instead of trusting partial data
// — the same never-serve-partial-as-complete contract read_dataset keeps.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/aggregation.h"
#include "analysis/network_metrics.h"
#include "common/timeseries.h"
#include "store/feeds.h"
#include "store/shard.h"
#include "telemetry/quality.h"

namespace cellscope::store {

// Row predicate, pushed down as far as the layout allows: the day range
// prunes whole shards against the footer index; the key mask drops rows
// after decoding only the key column.
struct ScanPredicate {
  std::int64_t min_day = std::numeric_limits<std::int64_t>::min();
  std::int64_t max_day = std::numeric_limits<std::int64_t>::max();

  // Optional key filter: a row passes when key_mask is null, or when the
  // key column's value k satisfies 0 <= k < key_mask->size() and
  // (*key_mask)[k] != 0. The mask must outlive the scanner.
  std::string key_column;
  const std::vector<std::uint8_t>* key_mask = nullptr;

  [[nodiscard]] bool day_bounded() const {
    return min_day != std::numeric_limits<std::int64_t>::min() ||
           max_day != std::numeric_limits<std::int64_t>::max();
  }
  [[nodiscard]] bool keyed() const { return key_mask != nullptr; }
};

struct ScanOptions {
  static constexpr std::size_t kDefaultBatchRows = 4096;

  // Projection, by schema column name. Empty = every column of the feed.
  std::vector<std::string> columns;
  ScanPredicate predicate;
  std::size_t batch_rows = kDefaultBatchRows;
};

// Physical accounting of one scan. bytes_decoded counts column payload
// bytes actually decoded — under projection + late materialization it is
// typically a small fraction of bytes_file.
struct ScanTotals {
  std::uint64_t shards_total = 0;        // listed in the footer
  std::uint64_t shards_pruned = 0;       // skipped via the footer day range
  std::uint64_t shards_scanned = 0;      // decoded
  std::uint64_t shards_quarantined = 0;  // CRC/structural/decode failures
  std::uint64_t rows_decoded = 0;        // rows in scanned shards
  std::uint64_t rows_emitted = 0;        // rows that passed the predicate
  std::uint64_t bytes_file = 0;          // on-disk feed size
  std::uint64_t bytes_decoded = 0;       // payload bytes actually decoded
};

// One projected column of a batch. Exactly one of the spans is populated,
// by encoding: kRaw64 columns surface as doubles (raw IEEE 754 bits off the
// file), kVarint / kDeltaZigzagVarint columns as int64, kBytes columns as
// views into the file mapping, one per row.
struct ScanColumn {
  std::string_view name;
  Encoding encoding = Encoding::kRaw64;
  std::span<const std::int64_t> i64;
  std::span<const double> f64;
  std::span<const std::string_view> bytes;
};

class ScanBatch {
 public:
  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] const std::vector<ScanColumn>& columns() const {
    return columns_;
  }
  [[nodiscard]] const ScanColumn& column(std::size_t i) const {
    return columns_[i];
  }

 private:
  friend class FeedScanner;
  std::size_t rows_ = 0;
  std::vector<ScanColumn> columns_;
};

class FeedScanner {
 public:
  // Opens the feed file at `csf_path` under `schema`. Never throws on bad
  // input: a missing/corrupt file or invalid options surface as
  // ok() == false with the reason in error().
  FeedScanner(std::string csf_path, const FeedSchema& schema,
              ScanOptions options);
  ~FeedScanner();

  FeedScanner(FeedScanner&&) = default;
  FeedScanner& operator=(FeedScanner&&) = delete;
  FeedScanner(const FeedScanner&) = delete;
  FeedScanner& operator=(const FeedScanner&) = delete;

  // Store-directory convenience: scans dir/<feed>.csf.
  [[nodiscard]] static FeedScanner open(const std::string& dir,
                                        const FeedSchema& schema,
                                        ScanOptions options);

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& error() const { return error_; }

  // Fills `batch` with the next run of predicate-surviving rows; false at
  // end of feed. Corrupt shards are quarantined and skipped, never served.
  bool next(ScanBatch& batch);

  [[nodiscard]] const ScanTotals& totals() const { return totals_; }
  [[nodiscard]] const std::vector<std::string>& quarantine_log() const {
    return quarantine_log_;
  }

  // Footer-level metadata over the validated shards — available without
  // decoding a single payload byte.
  [[nodiscard]] std::uint64_t footer_rows() const { return footer_rows_; }
  [[nodiscard]] std::int64_t footer_min_day() const { return footer_min_day_; }
  [[nodiscard]] std::int64_t footer_max_day() const { return footer_max_day_; }

 private:
  FeedSchema schema_;
  ScanOptions options_;
  std::unique_ptr<FeedFileReader> reader_;
  bool ok_ = false;
  std::string error_;
  ScanTotals totals_;
  std::vector<std::string> quarantine_log_;
  std::uint64_t footer_rows_ = 0;
  std::int64_t footer_min_day_ = 0;
  std::int64_t footer_max_day_ = 0;

  std::vector<std::size_t> projection_;  // schema column index per batch col
  std::size_t key_col_ = FeedSchema::npos;
  std::size_t shard_i_ = 0;

  // Per-shard staging (reused, cleared not shrunk): one buffer per
  // projected column, plus scratch for gate columns and the selection.
  std::vector<std::vector<std::int64_t>> staged_i64_;
  std::vector<std::vector<double>> staged_f64_;
  std::vector<std::vector<std::string_view>> staged_bytes_;
  std::vector<std::int64_t> scratch_day_;
  std::vector<std::int64_t> scratch_key_;
  std::vector<std::int64_t> scratch_i64_;
  std::vector<std::size_t> selection_;
  std::size_t staged_rows_ = 0;
  std::size_t staged_pos_ = 0;
  bool metrics_recorded_ = false;

  bool stage_next_shard();
  bool decode_shard(const ShardView& shard);
  void quarantine(const std::string& reason);
  void record_metrics();
};

// ------------------------------------------------- figure-pipeline adapters
//
// Each adapter computes exactly what the corresponding full-replay pipeline
// computes — bitwise — or returns nullopt when the store shows any damage
// or inconsistency (the caller then uses the replayed Dataset instead).

// One scalar of the `scalars` feed (u64 half), or nullopt when the feed is
// unreadable, quarantined, or lacks the id.
[[nodiscard]] std::optional<std::uint64_t> scan_scalar_u64(
    const std::string& dir, ScalarId id);

// analysis::KpiGroupSeries{kpis, grouping, metric, reduction} rebuilt from
// a projected scan of the stored KPI feed: only the day, cell and one
// metric column are decoded, with the grouping pushed down as a cell mask.
// `min_day`/`max_day` optionally clip the scan (footer-pruned); the series
// then covers the clipped range. Verified against the scalar feed's
// expected row count before any row is trusted.
[[nodiscard]] std::optional<analysis::KpiGroupSeries> scan_kpi_group_series(
    const std::string& dir, const analysis::CellGrouping& grouping,
    telemetry::KpiMetric metric,
    analysis::CellReduction reduction = analysis::CellReduction::kMedian,
    std::int64_t min_day = std::numeric_limits<std::int64_t>::min(),
    std::int64_t max_day = std::numeric_limits<std::int64_t>::max());

// One GroupedDailySeries restored from the stored `series` feed by id
// (series_id pushed down as a key mask), sized [first_day, last_day] like
// read_dataset sizes it from the config.
[[nodiscard]] std::optional<analysis::GroupedDailySeries> scan_grouped_series(
    const std::string& dir, SeriesId id, std::size_t group_count,
    SimDay first_day, SimDay last_day);

// Ungrouped variant (offnet minutes, interconnect loss, roamers).
[[nodiscard]] std::optional<DailySeries> scan_daily_series(
    const std::string& dir, SeriesId id, SimDay first_day, SimDay last_day);

// Charges one scan->replay degradation event to the quality ledger: when
// an adapter above returns nullopt and the caller answers from the
// replayed Dataset instead, that downgrade is a data-quality fact and must
// land in the ledger exactly once per fallback event — not once per
// adapter probed, and never zero times. The unit is one quarantine on the
// synthetic "scan" feed (the store's own damage is already charged to
// "store" by read_dataset; this entry records that the *fast path* was
// refused). `what` names the degraded query for the obs counters
// (scan.fallbacks total + scan.fallback.<what>).
void note_scan_fallback(telemetry::FeedQualityReport& quality,
                        std::string_view what);

}  // namespace cellscope::store
