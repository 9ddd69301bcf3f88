// Named feed schemas: the column registry of every cellstore feed.
//
// The section table (sim/dataset_codec.h) writes and reads each feed's
// columns by index; this registry gives those columns their names and
// encodings. A FeedSchema names every column, fixes its Encoding, and
// knows which column (if any) carries the day the row was tagged with,
// which is what lets the scanner resolve projections by name and push day
// predicates down to the shard footer. test_dataset_codec checks that the
// section encoders and this registry agree column for column.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/dataset_codec.h"
#include "store/format.h"
#include "telemetry/kpi.h"

namespace cellscope::store {

// ------------------------------------------------------------- on-disk ids

// The ids live with the section table (sim/dataset_codec.h); the scan
// adapters and their callers name them here.
using sim::ScalarId;
using sim::SeriesId;
using enum sim::ScalarId;
using enum sim::SeriesId;

// ------------------------------------------------------------ feed schemas

struct FeedColumn {
  std::string name;
  Encoding encoding = Encoding::kRaw64;
};

class FeedSchema {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  FeedSchema() = default;
  FeedSchema(std::string feed, std::vector<FeedColumn> columns,
             std::size_t day_column = npos)
      : feed_(std::move(feed)),
        columns_(std::move(columns)),
        day_column_(day_column) {}

  [[nodiscard]] const std::string& feed() const { return feed_; }
  [[nodiscard]] const std::vector<FeedColumn>& columns() const {
    return columns_;
  }
  [[nodiscard]] std::size_t size() const { return columns_.size(); }

  // The column carrying the day each row was end_row()-tagged with, or
  // npos for feeds whose rows are not day-keyed (homes, validation,
  // scalars). Day-range predicates require a day column.
  [[nodiscard]] std::size_t day_column() const { return day_column_; }

  // Index of the column named `name`, or npos.
  [[nodiscard]] std::size_t column_index(std::string_view name) const {
    for (std::size_t i = 0; i < columns_.size(); ++i)
      if (columns_[i].name == name) return i;
    return npos;
  }

  // The bare encoding list FeedFileWriter takes.
  [[nodiscard]] std::vector<Encoding> encodings() const {
    std::vector<Encoding> out;
    out.reserve(columns_.size());
    for (const auto& c : columns_) out.push_back(c.encoding);
    return out;
  }

 private:
  std::string feed_;
  std::vector<FeedColumn> columns_;
  std::size_t day_column_ = npos;
};

// The schema of one of the dataset_feeds(); throws std::out_of_range on an
// unknown feed name. The returned reference is to a process-wide constant.
[[nodiscard]] const FeedSchema& feed_schema(std::string_view feed);

// Column index of a KPI metric inside the "kpis" schema (day and cell come
// first, then the metrics in KpiMetric order).
[[nodiscard]] inline std::size_t kpi_metric_column(
    telemetry::KpiMetric metric) {
  return 2 + static_cast<std::size_t>(metric);
}

}  // namespace cellscope::store
