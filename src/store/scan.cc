#include "store/scan.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "obs/runtime.h"
#include "obs/timeline.h"

namespace cellscope::store {

namespace {

// Sequential full-shard decode of an integer column (kVarint surfaces as a
// non-negative int64, kDeltaZigzagVarint natively). False on overrun.
bool decode_i64_column(const ColumnView& column, std::size_t rows,
                       std::vector<std::int64_t>& out) {
  out.clear();
  out.reserve(rows);
  ColumnCursor cursor{column};
  if (column.encoding == Encoding::kVarint) {
    for (std::size_t i = 0; i < rows; ++i) {
      std::uint64_t v = 0;
      if (!cursor.next_u64(v)) return false;
      out.push_back(static_cast<std::int64_t>(v));
    }
    return true;
  }
  for (std::size_t i = 0; i < rows; ++i) {
    std::int64_t v = 0;
    if (!cursor.next_i64(v)) return false;
    out.push_back(v);
  }
  return true;
}

// kRaw64 payloads are position-addressable: exactly 8 bytes per row, so a
// selection can gather survivors without touching the rest — the late
// materialization half of the scan contract.
bool raw64_payload_valid(const ColumnView& column, std::size_t rows) {
  return column.bytes / 8 == rows && column.bytes % 8 == 0;
}

double raw64_at(const ColumnView& column, std::size_t row) {
  return std::bit_cast<double>(read_u64(column.data + row * 8));
}

}  // namespace

FeedScanner::FeedScanner(std::string csf_path, const FeedSchema& schema,
                         ScanOptions options)
    : schema_(schema), options_(std::move(options)) {
  if (options_.batch_rows == 0)
    options_.batch_rows = ScanOptions::kDefaultBatchRows;

  // Resolve the projection against the schema before touching the file:
  // a bad projection is caller error, not data damage, so it fails the
  // scanner without charging the quarantine ledger.
  if (options_.columns.empty())
    for (const auto& column : schema_.columns())
      options_.columns.push_back(column.name);
  for (const auto& name : options_.columns) {
    const std::size_t index = schema_.column_index(name);
    if (index == FeedSchema::npos) {
      error_ = "unknown column '" + name + "' in feed '" + schema_.feed() +
               "'";
      return;
    }
    projection_.push_back(index);
  }
  const auto& predicate = options_.predicate;
  if (predicate.day_bounded() && schema_.day_column() == FeedSchema::npos) {
    error_ = "feed '" + schema_.feed() + "' has no day column to filter on";
    return;
  }
  if (predicate.keyed()) {
    key_col_ = schema_.column_index(predicate.key_column);
    if (key_col_ == FeedSchema::npos ||
        schema_.columns()[key_col_].encoding == Encoding::kBytes) {
      error_ = "key column '" + predicate.key_column +
               "' missing or not integer-encoded";
      return;
    }
  }

  reader_ = std::make_unique<FeedFileReader>(csf_path);
  totals_.bytes_file = reader_->file_bytes();
  if (reader_->status() != FeedFileReader::Status::kOk) {
    // Whole-file failure is one quarantine unit, exactly as the replay
    // loader accounts it.
    error_ = reader_->error().empty() ? "unreadable feed file: " + csf_path
                                      : reader_->error();
    totals_.shards_quarantined = 1;
    quarantine_log_.push_back(schema_.feed() + ": " + error_);
    return;
  }
  totals_.shards_quarantined = reader_->quarantined_shards();
  for (const auto& entry : reader_->quarantine_log())
    quarantine_log_.push_back(entry);
  totals_.shards_total =
      reader_->shards().size() + reader_->quarantined_shards();
  footer_rows_ = reader_->total_rows();
  bool first = true;
  for (const auto& shard : reader_->shards()) {
    footer_min_day_ = first ? shard.min_day
                            : std::min(footer_min_day_, shard.min_day);
    footer_max_day_ = first ? shard.max_day
                            : std::max(footer_max_day_, shard.max_day);
    first = false;
  }
  staged_i64_.resize(projection_.size());
  staged_f64_.resize(projection_.size());
  staged_bytes_.resize(projection_.size());
  ok_ = true;
}

FeedScanner::~FeedScanner() { record_metrics(); }

FeedScanner FeedScanner::open(const std::string& dir,
                              const FeedSchema& schema, ScanOptions options) {
  return FeedScanner{dir + "/" + feed_file_name(schema.feed()), schema,
                     std::move(options)};
}

bool FeedScanner::next(ScanBatch& batch) {
  batch.rows_ = 0;
  batch.columns_.clear();
  if (!ok_) return false;
  while (staged_pos_ == staged_rows_)
    if (!stage_next_shard()) return false;

  const std::size_t n =
      std::min(options_.batch_rows, staged_rows_ - staged_pos_);
  batch.rows_ = n;
  batch.columns_.resize(projection_.size());
  for (std::size_t j = 0; j < projection_.size(); ++j) {
    const FeedColumn& schema_column = schema_.columns()[projection_[j]];
    ScanColumn& out = batch.columns_[j];
    out = ScanColumn{};
    out.name = schema_column.name;
    out.encoding = schema_column.encoding;
    if (schema_column.encoding == Encoding::kRaw64) {
      out.f64 = std::span<const double>{staged_f64_[j]}.subspan(staged_pos_,
                                                                n);
    } else if (schema_column.encoding == Encoding::kBytes) {
      out.bytes = std::span<const std::string_view>{staged_bytes_[j]}.subspan(
          staged_pos_, n);
    } else {
      out.i64 = std::span<const std::int64_t>{staged_i64_[j]}.subspan(
          staged_pos_, n);
    }
  }
  staged_pos_ += n;
  return true;
}

bool FeedScanner::stage_next_shard() {
  const auto& shards = reader_->shards();
  const auto& predicate = options_.predicate;
  while (shard_i_ < shards.size()) {
    const ShardView& shard = shards[shard_i_++];
    // Footer pushdown: the index entry carries the shard's day range, so a
    // disjoint shard is skipped before a single payload byte is read.
    if (shard.max_day < predicate.min_day ||
        shard.min_day > predicate.max_day) {
      ++totals_.shards_pruned;
      continue;
    }
    // Batches surface columns by schema encoding, and every encoding spends
    // a byte per row or more, so no row count sizes a buffer beyond them.
    bool layout_ok = shard.columns.size() == schema_.size();
    for (std::size_t c = 0; layout_ok && c < shard.columns.size(); ++c)
      layout_ok = shard.columns[c].encoding == schema_.columns()[c].encoding &&
                  shard.columns[c].bytes >= shard.rows;
    if (!layout_ok) {
      quarantine("column layout disagrees with the schema");
      continue;
    }
    if (!decode_shard(shard)) {
      // All-or-nothing: a failed shard stages zero rows, so a torn or
      // bit-flipped shard can never leak partial rows into a batch.
      staged_rows_ = 0;
      staged_pos_ = 0;
      quarantine("row decode failed");
      continue;
    }
    ++totals_.shards_scanned;
    totals_.rows_decoded += shard.rows;
    totals_.rows_emitted += staged_rows_;
    obs::timeline().maybe_sample();
    if (staged_rows_ > 0) return true;
  }
  record_metrics();
  return false;
}

bool FeedScanner::decode_shard(const ShardView& shard) {
  staged_rows_ = 0;
  staged_pos_ = 0;
  const auto rows = static_cast<std::size_t>(shard.rows);
  const auto& predicate = options_.predicate;
  const std::size_t day_col = schema_.day_column();

  // A shard wholly inside the day range needs no per-row day test.
  const bool day_filter =
      predicate.day_bounded() && !(shard.min_day >= predicate.min_day &&
                                   shard.max_day <= predicate.max_day);
  const bool keyed = predicate.keyed();
  const bool identity = !day_filter && !keyed;

  // 1. Gate columns + selection. Only the columns the predicate needs are
  //    decoded here; everything else waits for step 2 (or never decodes).
  bool have_day = false;
  bool have_key = false;
  if (day_filter) {
    const ColumnView& column = shard.columns[day_col];
    if (!decode_i64_column(column, rows, scratch_day_)) return false;
    totals_.bytes_decoded += column.bytes;
    have_day = true;
  }
  if (keyed) {
    const ColumnView& column = shard.columns[key_col_];
    if (key_col_ == day_col && have_day) {
      scratch_key_ = scratch_day_;
    } else {
      if (!decode_i64_column(column, rows, scratch_key_)) return false;
      totals_.bytes_decoded += column.bytes;
    }
    have_key = true;
  }
  if (!identity) {
    selection_.clear();
    const std::vector<std::uint8_t>* mask = keyed ? predicate.key_mask
                                                  : nullptr;
    for (std::size_t i = 0; i < rows; ++i) {
      if (day_filter && (scratch_day_[i] < predicate.min_day ||
                         scratch_day_[i] > predicate.max_day))
        continue;
      if (mask != nullptr) {
        const std::int64_t key = scratch_key_[i];
        if (key < 0 || static_cast<std::uint64_t>(key) >= mask->size() ||
            (*mask)[static_cast<std::size_t>(key)] == 0)
          continue;
      }
      selection_.push_back(i);
    }
  }

  // 2. Materialize the projection for surviving rows only.
  for (std::size_t j = 0; j < projection_.size(); ++j) {
    const std::size_t ci = projection_[j];
    const ColumnView& column = shard.columns[ci];
    if (column.encoding == Encoding::kRaw64) {
      if (!raw64_payload_valid(column, rows)) return false;
      auto& out = staged_f64_[j];
      out.clear();
      if (identity) {
        out.reserve(rows);
        for (std::size_t i = 0; i < rows; ++i) out.push_back(raw64_at(column, i));
        totals_.bytes_decoded += column.bytes;
      } else {
        out.reserve(selection_.size());
        for (const std::size_t i : selection_)
          out.push_back(raw64_at(column, i));
        totals_.bytes_decoded += selection_.size() * 8;
      }
      continue;
    }
    if (column.encoding == Encoding::kBytes) {
      // One [varint length][bytes] value per row, viewed in the mapping.
      auto& out = staged_bytes_[j];
      out.clear();
      ColumnCursor cursor{column};
      for (std::size_t i = 0; i < rows; ++i) {
        std::uint64_t n = 0;
        const std::uint8_t* data = nullptr;
        if (!cursor.next_u64(n) || n > column.bytes ||
            !cursor.next_bytes(static_cast<std::size_t>(n), data))
          return false;
        out.emplace_back(reinterpret_cast<const char*>(data), n);
      }
      totals_.bytes_decoded += column.bytes;
      if (!identity) {  // the selection ascends: compact in place
        for (std::size_t k = 0; k < selection_.size(); ++k)
          out[k] = out[selection_[k]];
        out.resize(selection_.size());
      }
      continue;
    }
    // Variable-width columns are sequential-only: decode the shard's worth
    // once (reusing a gate column's scratch when it is the same column),
    // then keep all rows or gather the selection.
    const std::vector<std::int64_t>* decoded = nullptr;
    if (ci == day_col && have_day) {
      decoded = &scratch_day_;
    } else if (ci == key_col_ && have_key) {
      decoded = &scratch_key_;
    } else {
      if (!decode_i64_column(column, rows, scratch_i64_)) return false;
      totals_.bytes_decoded += column.bytes;
      decoded = &scratch_i64_;
    }
    auto& out = staged_i64_[j];
    out.clear();
    if (identity) {
      out = *decoded;
    } else {
      out.reserve(selection_.size());
      for (const std::size_t i : selection_) out.push_back((*decoded)[i]);
    }
  }
  staged_rows_ = identity ? rows : selection_.size();
  return true;
}

void FeedScanner::quarantine(const std::string& reason) {
  ++totals_.shards_quarantined;
  quarantine_log_.push_back(schema_.feed() + " shard " +
                            std::to_string(shard_i_ - 1) + ": " + reason);
}

void FeedScanner::record_metrics() {
  if (metrics_recorded_ || !obs::enabled()) return;
  metrics_recorded_ = true;
  auto& registry = obs::metrics();
  registry.add("scan.rows_decoded", totals_.rows_decoded);
  registry.add("scan.rows_emitted", totals_.rows_emitted);
  registry.add("scan.bytes_decoded", totals_.bytes_decoded);
  registry.add("scan.shards_pruned", totals_.shards_pruned);
  registry.add("scan.shards_quarantined", totals_.shards_quarantined);
  obs::track_bytes(obs::Subsystem::kStore, totals_.bytes_decoded);
}

// ------------------------------------------------- figure-pipeline adapters

std::optional<std::uint64_t> scan_scalar_u64(const std::string& dir,
                                             ScalarId id) {
  ScanOptions options;
  options.columns = {"id", "uvalue"};
  FeedScanner scanner =
      FeedScanner::open(dir, feed_schema("scalars"), std::move(options));
  if (!scanner.ok()) return std::nullopt;
  std::optional<std::uint64_t> value;
  ScanBatch batch;
  while (scanner.next(batch)) {
    const auto ids = batch.column(0).i64;
    const auto uvalues = batch.column(1).i64;
    for (std::size_t i = 0; i < batch.rows(); ++i)
      if (static_cast<std::uint64_t>(ids[i]) == id)
        value = static_cast<std::uint64_t>(uvalues[i]);
  }
  if (scanner.totals().shards_quarantined > 0) return std::nullopt;
  return value;
}

std::optional<analysis::KpiGroupSeries> scan_kpi_group_series(
    const std::string& dir, const analysis::CellGrouping& grouping,
    telemetry::KpiMetric metric, analysis::CellReduction reduction,
    std::int64_t min_day, std::int64_t max_day) {
  // Completeness gate: the scalar feed says how many KPI rows a complete
  // store holds. Any shortfall — quarantine, truncation, a missing feed —
  // and the caller must fall back to the replay path rather than aggregate
  // partial data as if it were the whole network.
  const auto expected = scan_scalar_u64(dir, kKpiRowCount);
  if (!expected) return std::nullopt;

  const FeedSchema& schema = feed_schema("kpis");
  const bool has_all =
      grouping.all_group != analysis::CellGrouping::kUngrouped;
  std::vector<std::uint8_t> mask(grouping.group_of.size(), 0);
  for (std::size_t i = 0; i < mask.size(); ++i)
    mask[i] = (has_all ||
               grouping.group_of[i] != analysis::CellGrouping::kUngrouped)
                  ? 1
                  : 0;

  ScanOptions options;
  options.columns = {"day", "cell",
                     schema.columns()[kpi_metric_column(metric)].name};
  options.predicate.min_day = min_day;
  options.predicate.max_day = max_day;
  options.predicate.key_column = "cell";
  options.predicate.key_mask = &mask;
  FeedScanner scanner = FeedScanner::open(dir, schema, std::move(options));
  if (!scanner.ok() || scanner.totals().shards_quarantined > 0)
    return std::nullopt;
  if (scanner.footer_rows() != *expected) return std::nullopt;
  if (scanner.footer_rows() == 0) return analysis::KpiGroupSeries{};

  const auto first_day = static_cast<SimDay>(
      std::max<std::int64_t>(scanner.footer_min_day(), min_day));
  const auto last_day = static_cast<SimDay>(
      std::min<std::int64_t>(scanner.footer_max_day(), max_day));
  if (first_day > last_day) return analysis::KpiGroupSeries{};

  analysis::KpiGroupSeriesBuilder builder{grouping, first_day, last_day,
                                          reduction};
  ScanBatch batch;
  while (scanner.next(batch)) {
    const auto days = batch.column(0).i64;
    const auto cells = batch.column(1).i64;
    const auto values = batch.column(2).f64;
    for (std::size_t i = 0; i < batch.rows(); ++i)
      builder.add(static_cast<SimDay>(days[i]),
                  static_cast<std::uint32_t>(cells[i]), values[i]);
  }
  // Decode-time quarantines surface after the loop: damaged stores never
  // produce a series.
  if (scanner.totals().shards_quarantined > 0) return std::nullopt;
  return builder.finish();
}

std::optional<analysis::GroupedDailySeries> scan_grouped_series(
    const std::string& dir, SeriesId id, std::size_t group_count,
    SimDay first_day, SimDay last_day) {
  // The series id doubles as a key predicate: only the requested series'
  // rows survive, so the raw64 sum column late-materializes per series.
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(id) + 1, 0);
  mask[static_cast<std::size_t>(id)] = 1;

  ScanOptions options;
  options.columns = {"group", "day", "sum", "count"};
  options.predicate.min_day = first_day;
  options.predicate.max_day = last_day;
  options.predicate.key_column = "series_id";
  options.predicate.key_mask = &mask;
  FeedScanner scanner =
      FeedScanner::open(dir, feed_schema("series"), std::move(options));
  if (!scanner.ok()) return std::nullopt;

  analysis::GroupedDailySeries out{group_count, first_day, last_day};
  ScanBatch batch;
  while (scanner.next(batch)) {
    const auto groups = batch.column(0).i64;
    const auto days = batch.column(1).i64;
    const auto sums = batch.column(2).f64;
    const auto counts = batch.column(3).i64;
    for (std::size_t i = 0; i < batch.rows(); ++i) {
      const auto group = static_cast<std::uint64_t>(groups[i]);
      if (group >= group_count) continue;
      out.group_mutable(static_cast<std::size_t>(group))
          .restore(static_cast<SimDay>(days[i]), sums[i],
                   static_cast<std::size_t>(counts[i]));
    }
  }
  if (scanner.totals().shards_quarantined > 0) return std::nullopt;
  return out;
}

std::optional<DailySeries> scan_daily_series(const std::string& dir,
                                             SeriesId id, SimDay first_day,
                                             SimDay last_day) {
  auto grouped = scan_grouped_series(dir, id, 1, first_day, last_day);
  if (!grouped) return std::nullopt;
  return grouped->group(0);
}

void note_scan_fallback(telemetry::FeedQualityReport& quality,
                        std::string_view what) {
  quality.quarantine("scan", 1);
  if (obs::enabled()) {
    auto& registry = obs::metrics();
    registry.add("scan.fallbacks", 1);
    registry.add("scan.fallback." + std::string(what), 1);
  }
}

}  // namespace cellscope::store
