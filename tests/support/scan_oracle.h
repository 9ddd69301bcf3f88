// Differential harness for the vectorized scan engine (store/scan.h).
//
// The contract under test: any projected, predicated scan of a stored KPI
// feed is bitwise-equal to the same slice cut from fully replayed rows by
// plain scalar code. The oracle here never touches the scanner's decode
// paths — it re-computes every projected cell straight from
// telemetry::CellDayRecord values (doubles compared by their IEEE 754 bit
// patterns, never by epsilon), so a bug in the gather, the late
// materialization or the delta-decode reuse cannot hide on both sides of
// the comparison.
//
// The same harness covers damaged stores: FeedFileReader validates CRCs
// for scan and replay alike, so both paths quarantine the same shards and
// the surviving rows must still agree bit for bit. Feeding the oracle the
// records replayed from the damaged store closes that loop.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstddef>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "store/feeds.h"
#include "store/scan.h"
#include "store/shard.h"
#include "telemetry/kpi.h"

namespace cellscope::store::testsupport {

inline std::uint64_t double_bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

// One projected slice with every cell as its raw 64-bit pattern: integer
// columns cast, kRaw64 columns bit_cast, so equality is bit equality.
struct Slice {
  std::vector<std::string> columns;
  std::vector<std::vector<std::uint64_t>> rows;
};

// Column `column` of the kpis schema evaluated on one replayed record —
// the scalar-code counterpart of whatever the scanner decodes.
inline std::uint64_t kpi_column_bits(const telemetry::CellDayRecord& record,
                                     std::size_t column) {
  if (column == 0)
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(record.day));
  if (column == 1) return record.cell.value();
  return double_bits(telemetry::kpi_value(
      record, static_cast<telemetry::KpiMetric>(column - 2)));
}

// The reference slice: predicate and projection applied to replayed
// records in store order, one branchy scalar loop, no scanner code.
inline Slice kpi_oracle_slice(
    const std::vector<telemetry::CellDayRecord>& records,
    const ScanOptions& options) {
  const FeedSchema& schema = feed_schema("kpis");
  std::vector<std::size_t> projection;
  if (options.columns.empty()) {
    for (std::size_t c = 0; c < schema.size(); ++c) projection.push_back(c);
  } else {
    for (const auto& name : options.columns) {
      const std::size_t c = schema.column_index(name);
      EXPECT_NE(c, FeedSchema::npos) << "oracle projection: " << name;
      projection.push_back(c);
    }
  }
  Slice slice;
  for (const std::size_t c : projection)
    slice.columns.push_back(schema.columns()[c].name);

  const ScanPredicate& pred = options.predicate;
  std::size_t key_col = FeedSchema::npos;
  if (pred.keyed()) {
    key_col = schema.column_index(pred.key_column);
    EXPECT_NE(key_col, FeedSchema::npos) << "oracle key: " << pred.key_column;
  }
  for (const auto& record : records) {
    const auto day = static_cast<std::int64_t>(record.day);
    if (day < pred.min_day || day > pred.max_day) continue;
    if (pred.keyed()) {
      const auto key =
          static_cast<std::int64_t>(kpi_column_bits(record, key_col));
      if (key < 0 || static_cast<std::size_t>(key) >= pred.key_mask->size() ||
          (*pred.key_mask)[static_cast<std::size_t>(key)] == 0)
        continue;
    }
    auto& row = slice.rows.emplace_back();
    row.reserve(projection.size());
    for (const std::size_t c : projection)
      row.push_back(kpi_column_bits(record, c));
  }
  return slice;
}

// Everything one scan produced, flattened for comparison.
struct ScanRun {
  bool ok = false;
  std::string error;
  Slice slice;
  ScanTotals totals;
  std::vector<std::string> quarantine_log;
};

// Drains a FeedScanner over `dir`'s kpis feed batch by batch. Each batch
// is converted before the next next() call — exactly the span-lifetime
// contract scan.h documents.
inline ScanRun drain_kpi_scan(const std::string& dir, ScanOptions options) {
  const std::size_t batch_cap = options.batch_rows != 0
                                    ? options.batch_rows
                                    : ScanOptions::kDefaultBatchRows;
  FeedScanner scanner =
      FeedScanner::open(dir, feed_schema("kpis"), std::move(options));
  ScanRun run;
  run.ok = scanner.ok();
  run.error = scanner.error();
  if (run.ok) {
    ScanBatch batch;
    while (scanner.next(batch)) {
      EXPECT_GT(batch.rows(), 0u);
      EXPECT_LE(batch.rows(), batch_cap);
      if (run.slice.columns.empty())
        for (const auto& column : batch.columns())
          run.slice.columns.emplace_back(column.name);
      for (std::size_t i = 0; i < batch.rows(); ++i) {
        auto& row = run.slice.rows.emplace_back();
        row.reserve(batch.columns().size());
        for (const auto& column : batch.columns())
          row.push_back(column.encoding == Encoding::kRaw64
                            ? double_bits(column.f64[i])
                            : static_cast<std::uint64_t>(column.i64[i]));
      }
    }
  }
  run.totals = scanner.totals();
  run.quarantine_log = scanner.quarantine_log();
  return run;
}

// The differential assertion: scan == oracle bit for bit, plus the
// accounting invariants every finished scan must satisfy.
inline void expect_scan_matches_replay(
    const std::string& dir,
    const std::vector<telemetry::CellDayRecord>& replayed,
    const ScanOptions& options) {
  const Slice expected = kpi_oracle_slice(replayed, options);
  const ScanRun run = drain_kpi_scan(dir, options);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.totals.rows_emitted, expected.rows.size());
  ASSERT_EQ(run.slice.rows.size(), expected.rows.size());
  if (!run.slice.rows.empty()) {
    EXPECT_EQ(run.slice.columns, expected.columns);
  }
  for (std::size_t i = 0; i < expected.rows.size(); ++i) {
    if (run.slice.rows[i] == expected.rows[i]) continue;
    for (std::size_t c = 0; c < expected.rows[i].size(); ++c)
      EXPECT_EQ(run.slice.rows[i][c], expected.rows[i][c])
          << "row " << i << " column " << expected.columns[c]
          << " (bit patterns)";
    return;  // the first divergent row pinpoints the bug; stop there
  }
  EXPECT_GE(run.totals.rows_decoded, run.totals.rows_emitted);
  EXPECT_EQ(run.totals.shards_total, run.totals.shards_pruned +
                                         run.totals.shards_scanned +
                                         run.totals.shards_quarantined);
}

// The metric members of CellDayRecord in KpiMetric (and stored-column)
// order, for loops that touch all eleven without copy-pasted field lists.
inline constexpr double telemetry::CellDayRecord::* kKpiFields[] = {
    &telemetry::CellDayRecord::dl_volume_mb,
    &telemetry::CellDayRecord::ul_volume_mb,
    &telemetry::CellDayRecord::active_dl_users,
    &telemetry::CellDayRecord::tti_utilization,
    &telemetry::CellDayRecord::user_dl_throughput_mbps,
    &telemetry::CellDayRecord::active_data_seconds,
    &telemetry::CellDayRecord::connected_users,
    &telemetry::CellDayRecord::voice_volume_mb,
    &telemetry::CellDayRecord::simultaneous_voice_users,
    &telemetry::CellDayRecord::voice_dl_loss_pct,
    &telemetry::CellDayRecord::voice_ul_loss_pct,
};
static_assert(std::size(kKpiFields) == telemetry::kKpiMetricCount);

// Full-replay reference decode of one kpis feed file: FeedFileReader plus
// a sequential ColumnCursor per column — none of the scanner's vectorized
// machinery, so it stays independent of the scanner that read_dataset()
// itself decodes through. A shard that fails row decode drops whole; an
// unreadable file reports readable == false. This is the oracle for
// damaged synthetic feeds where no read_dataset() replay exists.
struct ReferenceDecode {
  bool readable = false;
  std::uint64_t shards_quarantined = 0;
  std::vector<telemetry::CellDayRecord> records;
};

inline ReferenceDecode reference_decode_kpis(const std::string& path) {
  ReferenceDecode out;
  FeedFileReader reader{path};
  out.shards_quarantined = reader.quarantined_shards();
  if (reader.status() != FeedFileReader::Status::kOk) {
    if (reader.status() == FeedFileReader::Status::kCorrupt &&
        out.shards_quarantined == 0)
      out.shards_quarantined = 1;
    return out;
  }
  out.readable = true;
  const FeedSchema& schema = feed_schema("kpis");
  std::vector<std::vector<std::uint64_t>> columns;
  for (const auto& shard : reader.shards()) {
    if (shard.columns.size() != schema.size()) {
      ++out.shards_quarantined;
      continue;
    }
    columns.assign(schema.size(), {});
    bool bad = false;
    for (std::size_t c = 0; c < schema.size() && !bad; ++c) {
      ColumnCursor cursor{shard.columns[c]};
      columns[c].reserve(shard.rows);
      for (std::uint64_t r = 0; r < shard.rows && !bad; ++r) {
        switch (schema.columns()[c].encoding) {
          case Encoding::kRaw64: {
            double v = 0.0;
            bad = !cursor.next_f64(v);
            if (!bad) columns[c].push_back(double_bits(v));
            break;
          }
          case Encoding::kVarint: {
            std::uint64_t v = 0;
            bad = !cursor.next_u64(v);
            if (!bad) columns[c].push_back(v);
            break;
          }
          case Encoding::kDeltaZigzagVarint: {
            std::int64_t v = 0;
            bad = !cursor.next_i64(v);
            if (!bad) columns[c].push_back(static_cast<std::uint64_t>(v));
            break;
          }
          default:
            bad = true;  // kBytes never appears in the kpis schema
        }
      }
    }
    if (bad) {
      ++out.shards_quarantined;
      continue;
    }
    for (std::uint64_t r = 0; r < shard.rows; ++r) {
      telemetry::CellDayRecord record;
      record.day = static_cast<SimDay>(
          static_cast<std::int64_t>(columns[0][r]));
      record.cell = CellId{static_cast<std::uint32_t>(columns[1][r])};
      for (int m = 0; m < telemetry::kKpiMetricCount; ++m)
        record.*kKpiFields[m] = std::bit_cast<double>(columns[2 + m][r]);
      out.records.push_back(record);
    }
  }
  return out;
}

// Writes `records` as a kpis-schema feed file with `rows_per_shard`-row
// shards — the multi-shard fixture for pruning, batching and corruption
// tests without paying for a large simulation.
inline std::uint64_t write_kpi_feed(const std::string& path,
                                    const std::vector<telemetry::CellDayRecord>&
                                        records,
                                    std::size_t rows_per_shard) {
  FeedFileWriter writer{path, feed_schema("kpis").encodings(), rows_per_shard};
  for (const auto& record : records) {
    writer.i64(0, static_cast<std::int64_t>(record.day));
    writer.i64(1, static_cast<std::int64_t>(record.cell.value()));
    for (int m = 0; m < telemetry::kKpiMetricCount; ++m)
      writer.f64(kpi_metric_column(static_cast<telemetry::KpiMetric>(m)),
                 telemetry::kpi_value(record,
                                      static_cast<telemetry::KpiMetric>(m)));
    writer.end_row(static_cast<std::int64_t>(record.day));
  }
  return writer.close();
}

}  // namespace cellscope::store::testsupport
