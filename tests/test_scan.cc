// The vectorized scan engine, proven equal to full replay.
//
// Every test here is differential: the scanner's projected, predicated,
// late-materialized output is compared BIT for BIT against the same slice
// computed by plain scalar code from fully replayed rows
// (support/scan_oracle.h). The suite runs the comparison three ways:
//
//   * a real simulated store (clean and measurement-faulted), where the
//     replay side is the Dataset the simulation produced;
//   * a synthetic multi-shard feed, where the oracle is the row list the
//     test wrote and a sequential reference decode stands in for replay;
//   * damaged stores, where both paths must quarantine the same shards and
//     agree on every surviving row — never crash, never serve partial
//     data as complete.
//
// Plus the accounting contracts that ride on the scan path: scan_kpis is
// single-pass (store.bytes_read == one file size), and the scan.* obs
// metrics stay out of config_digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <unistd.h>
#include <vector>

#include "analysis/aggregation.h"
#include "analysis/network_metrics.h"
#include "obs/runtime.h"
#include "sim/simulator.h"
#include "store/dataset_io.h"
#include "store/format.h"
#include "store/scan.h"
#include "support/scan_oracle.h"

namespace cellscope::store {
namespace {

using testsupport::double_bits;
using testsupport::drain_kpi_scan;
using testsupport::expect_scan_matches_replay;
using testsupport::kpi_oracle_slice;
using testsupport::reference_decode_kpis;
using testsupport::ScanRun;
using testsupport::write_kpi_feed;

sim::ScenarioConfig tiny_config() {
  sim::ScenarioConfig config = sim::default_scenario();
  config.num_users = 600;
  config.seed = 91;
  config.user_chunk = 128;
  config.worker_threads = 2;
  return config;
}

// ~5% measurement-plane row loss plus outages: the faulted half of the
// property matrix. The store is intact — the KPI stream itself is holey.
sim::ScenarioConfig faulted_config() {
  sim::ScenarioConfig config = tiny_config();
  config.seed = 92;
  config.faults.observation_loss_rate = 0.05;
  config.faults.kpi_record_loss_rate = 0.05;
  config.faults.kpi_record_duplication_rate = 0.01;
  config.faults.cell_outage_daily_prob = 0.02;
  return config;
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream file{path, std::ios::in | std::ios::out | std::ios::binary};
  ASSERT_TRUE(file.good()) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
  ASSERT_TRUE(file.good()) << path;
}

// Deterministic multi-shard fixture data: day-major like the real store,
// with sign flips, exact zeros, a negative zero and a denormal sprinkled
// in so bit-equality is tested on awkward doubles, not just round ones.
std::vector<telemetry::CellDayRecord> synthetic_records(int days, int cells,
                                                        std::uint32_t seed) {
  std::mt19937 rng{seed};
  std::uniform_real_distribution<double> value{-1.0e3, 1.0e6};
  std::vector<telemetry::CellDayRecord> records;
  records.reserve(static_cast<std::size_t>(days) * cells);
  for (int d = 0; d < days; ++d) {
    for (int c = 0; c < cells; ++c) {
      telemetry::CellDayRecord record;
      record.day = d;
      record.cell = CellId{static_cast<std::uint32_t>(c)};
      for (int m = 0; m < telemetry::kKpiMetricCount; ++m)
        record.*testsupport::kKpiFields[m] = value(rng);
      const int spice = (d * cells + c) % 101;
      if (spice == 0) record.dl_volume_mb = -0.0;
      if (spice == 1) record.ul_volume_mb = 4.9406564584124654e-324;
      if (spice == 2) record.tti_utilization = 0.0;
      records.push_back(record);
    }
  }
  return records;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "cellscan_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

constexpr int kSynDays = 40;
constexpr int kSynCells = 64;
constexpr std::size_t kSynRowsPerShard = 256;  // 10 shards of 2560 rows

// Writes the synthetic feed into a fresh store-shaped dir and returns it.
std::string synthetic_store(const std::string& name,
                            const std::vector<telemetry::CellDayRecord>& rows) {
  const std::string dir = fresh_dir(name);
  write_kpi_feed(dir + "/" + feed_file_name("kpis"), rows, kSynRowsPerShard);
  return dir;
}

// One pristine simulated store per suite; tests clone what they damage.
// PID-keyed base path: ctest runs each test in its own process.
class ScanEngine : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    base_dir_ = new std::string(::testing::TempDir() + "cellscan_base_" +
                                std::to_string(::getpid()));
    std::filesystem::remove_all(*base_dir_);
    (void)simulate_to_store(tiny_config(), *base_dir_);
    // The scan oracle: the same scenario without a sink, so it keeps its
    // KPI rows.
    live_ = new sim::Dataset(sim::run_scenario(tiny_config()));
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*base_dir_);
    delete live_;
    live_ = nullptr;
    delete base_dir_;
    base_dir_ = nullptr;
  }

  static const sim::Dataset& live() { return *live_; }
  static const std::string& dir() { return *base_dir_; }

  static std::string clone(const std::string& name) {
    const std::string copy = ::testing::TempDir() + "cellscan_" + name;
    std::filesystem::remove_all(copy);
    std::filesystem::copy(*base_dir_, copy);
    return copy;
  }

 private:
  static std::string* base_dir_;
  static sim::Dataset* live_;
};
std::string* ScanEngine::base_dir_ = nullptr;
sim::Dataset* ScanEngine::live_ = nullptr;

// ------------------------------------------------- engine basics

TEST_F(ScanEngine, FullScanMatchesReplayBitwise) {
  expect_scan_matches_replay(dir(), live().kpis.records(), ScanOptions{});

  const ScanRun run = drain_kpi_scan(dir(), ScanOptions{});
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.totals.rows_decoded, live().kpis.records().size());
  EXPECT_EQ(run.totals.rows_emitted, run.totals.rows_decoded);
  EXPECT_EQ(run.totals.shards_quarantined, 0u);
  EXPECT_EQ(run.totals.bytes_file,
            std::filesystem::file_size(dir() + "/" + feed_file_name("kpis")));
}

TEST_F(ScanEngine, ProjectionDecodesFewerBytesAndStillMatches) {
  ScanOptions narrow;
  narrow.columns = {"day", "cell", "dl_volume_mb"};
  expect_scan_matches_replay(dir(), live().kpis.records(), narrow);

  const ScanRun full = drain_kpi_scan(dir(), ScanOptions{});
  const ScanRun projected = drain_kpi_scan(dir(), narrow);
  ASSERT_TRUE(full.ok && projected.ok);
  EXPECT_LT(projected.totals.bytes_decoded, full.totals.bytes_decoded);
  EXPECT_EQ(projected.totals.rows_emitted, full.totals.rows_emitted);
}

TEST_F(ScanEngine, InvalidProjectionFailsUpFrontWithoutQuarantine) {
  ScanOptions bad;
  bad.columns = {"day", "no_such_column"};
  FeedScanner unknown = FeedScanner::open(dir(), feed_schema("kpis"), bad);
  EXPECT_FALSE(unknown.ok());
  EXPECT_FALSE(unknown.error().empty());
  // A caller error is not data damage: nothing lands in quarantine.
  EXPECT_EQ(unknown.totals().shards_quarantined, 0u);

  // kBytes columns project as views into the mapping: length-framed names
  // come back byte for byte, across shard boundaries.
  const std::vector<std::string> names = {"", "kpi-feed",
                                          "a much longer feed name"};
  const std::string path =
      fresh_dir("bytes_projection") + "/" + feed_file_name("quality");
  {
    FeedFileWriter writer{path, feed_schema("quality").encodings(), 2};
    for (std::size_t i = 0; i < names.size(); ++i) {
      writer.u64(0, i);
      writer.bytes(1, names[i]);
      writer.i64(2, 0);
      for (std::size_t c = 3; c < 7; ++c) writer.u64(c, i);
      writer.end_row(0);
    }
    writer.close();
  }
  ScanOptions blob;
  blob.columns = {"name"};
  FeedScanner bytes{path, feed_schema("quality"), blob};
  ASSERT_TRUE(bytes.ok()) << bytes.error();
  std::vector<std::string> scanned;
  ScanBatch batch;
  while (bytes.next(batch))
    for (const std::string_view name : batch.column(0).bytes)
      scanned.emplace_back(name);
  EXPECT_EQ(scanned, names);
  EXPECT_EQ(bytes.totals().shards_quarantined, 0u);
}

TEST_F(ScanEngine, MissingFeedIsOneQuarantineUnit) {
  const std::string empty = fresh_dir("missing_feed");
  FeedScanner scanner =
      FeedScanner::open(empty, feed_schema("kpis"), ScanOptions{});
  EXPECT_FALSE(scanner.ok());
  EXPECT_EQ(scanner.totals().shards_quarantined, 1u);
  EXPECT_FALSE(scanner.quarantine_log().empty());
}

// ------------------------------------------------- synthetic multi-shard

TEST(ScanSynthetic, DayRangePruneSkipsShardsBeforeAnyDecode) {
  const auto rows = synthetic_records(kSynDays, kSynCells, 0xA11CE);
  const std::string dir = synthetic_store("prune", rows);

  ScanOptions sliced;
  sliced.predicate.min_day = 10;
  sliced.predicate.max_day = 19;
  expect_scan_matches_replay(dir, rows, sliced);

  const ScanRun full = drain_kpi_scan(dir, ScanOptions{});
  const ScanRun run = drain_kpi_scan(dir, sliced);
  ASSERT_TRUE(full.ok && run.ok);
  // 2560 rows in 256-row shards: the slice covers days 10..19 of 40, so
  // most shards fall wholly outside the range and are pruned off the
  // footer without touching a payload byte.
  EXPECT_GE(run.totals.shards_pruned, 4u);
  EXPECT_LT(run.totals.bytes_decoded, full.totals.bytes_decoded);
  EXPECT_EQ(run.totals.rows_emitted,
            static_cast<std::uint64_t>(10 * kSynCells));
}

TEST(ScanSynthetic, BatchesNeverSpanShards) {
  const auto rows = synthetic_records(kSynDays, kSynCells, 0xB0B);
  const std::string dir = synthetic_store("batches", rows);

  ScanOptions big;
  big.batch_rows = 8192;  // far larger than any shard
  FeedScanner scanner =
      FeedScanner::open(dir, feed_schema("kpis"), std::move(big));
  ASSERT_TRUE(scanner.ok()) << scanner.error();
  ScanBatch batch;
  std::size_t batches = 0, total = 0;
  while (scanner.next(batch)) {
    EXPECT_LE(batch.rows(), kSynRowsPerShard);
    total += batch.rows();
    ++batches;
  }
  EXPECT_EQ(total, rows.size());
  // One batch per shard: a batch never crosses a shard boundary even when
  // batch_rows would allow it.
  EXPECT_EQ(batches, rows.size() / kSynRowsPerShard);
}

// The property matrix the issue asks for: random projections x day/region
// predicates x batch sizes (1, 7, 64 and odd ones), every combination
// bitwise-equal to the oracle slice.
TEST(ScanSynthetic, PropertyRandomSlicesMatchOracle) {
  const auto rows = synthetic_records(kSynDays, kSynCells, 0x5EED);
  const std::string dir = synthetic_store("property", rows);
  const FeedSchema& schema = feed_schema("kpis");

  std::mt19937 rng{20200313};
  const std::size_t batch_sizes[] = {1, 7, 64, 333, 4095, 8193};
  std::vector<std::uint8_t> mask;  // outlives the scanner per iteration
  for (int iter = 0; iter < 48; ++iter) {
    ScanOptions options;
    options.batch_rows = batch_sizes[rng() % std::size(batch_sizes)];
    // Random projection: each column in with p=1/2; empty means "all".
    for (std::size_t c = 0; c < schema.size(); ++c)
      if (rng() % 2 == 0)
        options.columns.emplace_back(schema.columns()[c].name);
    if (rng() % 4 == 0) options.columns.clear();
    // Random day range, sometimes half- or un-bounded, sometimes empty.
    if (rng() % 4 != 0)
      options.predicate.min_day = static_cast<std::int64_t>(rng() % 50) - 5;
    if (rng() % 4 != 0)
      options.predicate.max_day = static_cast<std::int64_t>(rng() % 50) - 5;
    // Random cell mask ("region" pushdown), p=1/2.
    if (rng() % 2 == 0) {
      mask.assign(kSynCells + (rng() % 2 ? 7 : 0), 0);
      for (auto& bit : mask) bit = rng() % 3 == 0;
      options.predicate.key_column = "cell";
      options.predicate.key_mask = &mask;
    }
    SCOPED_TRACE("iteration " + std::to_string(iter) + ", batch_rows " +
                 std::to_string(options.batch_rows));
    expect_scan_matches_replay(dir, rows, options);
  }
}

// Same property, real stores: clean and ~5% measurement-faulted. The
// replay side is a sinkless run of the same scenario.
using ScanProperty = ::testing::TestWithParam<bool>;

TEST_P(ScanProperty, RandomSlicesMatchReplayedDataset) {
  const bool faulted = GetParam();
  const sim::ScenarioConfig config =
      faulted ? faulted_config() : tiny_config();
  const std::string dir = fresh_dir(faulted ? "prop_faulted" : "prop_clean");
  (void)simulate_to_store(config, dir);
  const sim::Dataset live = sim::run_scenario(config);
  if (faulted) {
    ASSERT_FALSE(live.quality.empty());
  }
  const FeedSchema& schema = feed_schema("kpis");

  std::mt19937 rng{faulted ? 777u : 333u};
  const std::size_t batch_sizes[] = {1, 7, 64, 4095, 8193};
  std::vector<std::uint8_t> mask;
  const std::size_t cell_space = live.topology->cells().size() + 3;
  for (int iter = 0; iter < 10; ++iter) {
    ScanOptions options;
    options.batch_rows = batch_sizes[rng() % std::size(batch_sizes)];
    for (std::size_t c = 0; c < schema.size(); ++c)
      if (rng() % 2 == 0)
        options.columns.emplace_back(schema.columns()[c].name);
    if (rng() % 4 == 0) options.columns.clear();
    if (rng() % 3 != 0) {
      options.predicate.min_day =
          config.first_day() + static_cast<std::int64_t>(rng() % 30);
      options.predicate.max_day =
          options.predicate.min_day + static_cast<std::int64_t>(rng() % 40);
    }
    if (rng() % 2 == 0) {
      mask.assign(cell_space, 0);
      for (auto& bit : mask) bit = rng() % 2;
      options.predicate.key_column = "cell";
      options.predicate.key_mask = &mask;
    }
    SCOPED_TRACE("iteration " + std::to_string(iter));
    expect_scan_matches_replay(dir, live.kpis.records(), options);
  }
}

INSTANTIATE_TEST_SUITE_P(Stores, ScanProperty, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "faulted" : "clean";
                         });

// ------------------------------------------------- corruption matrix

// Flip one byte inside every shard of the synthetic feed in turn: the
// scanner must quarantine exactly what the sequential reference decode
// quarantines and agree bitwise on every surviving row.
TEST(ScanCorruption, PerShardBitFlipsQuarantineLikeReplay) {
  const auto rows = synthetic_records(kSynDays, kSynCells, 0xDEAD);
  const std::string pristine = synthetic_store("flip_pristine", rows);
  const std::string name = feed_file_name("kpis");
  const auto size = std::filesystem::file_size(pristine + "/" + name);
  const std::size_t shard_count = rows.size() / kSynRowsPerShard;

  // Payload offsets spread across the whole file, plus the structural
  // landmarks (header, first shard header, footer region, tail).
  std::vector<std::uint64_t> offsets = {9, 40, size - 17, size - 9};
  for (std::size_t s = 0; s < shard_count; ++s)
    offsets.push_back(8 + (size - 80) * s / shard_count + 100);

  for (const std::uint64_t offset : offsets) {
    ASSERT_LT(offset, size);
    SCOPED_TRACE("byte " + std::to_string(offset) + " of " +
                 std::to_string(size));
    const std::string dir = fresh_dir("flip_" + std::to_string(offset));
    std::filesystem::copy(pristine + "/" + name, dir + "/" + name);
    flip_byte(dir + "/" + name, offset);

    const auto reference = reference_decode_kpis(dir + "/" + name);
    const ScanRun run = drain_kpi_scan(dir, ScanOptions{});
    EXPECT_EQ(run.ok, reference.readable);
    EXPECT_EQ(run.totals.shards_quarantined, reference.shards_quarantined);
    if (!reference.readable) continue;
    EXPECT_GE(run.totals.shards_quarantined, 1u);
    EXPECT_FALSE(run.quarantine_log.empty());
    // Surviving rows agree bit for bit with the replay-shaped decode.
    const auto expected = kpi_oracle_slice(reference.records, ScanOptions{});
    EXPECT_EQ(run.slice.rows, expected.rows);
    EXPECT_LT(run.totals.rows_emitted, rows.size());
  }
}

// Truncation at every structural boundary of the CSF1 layout: never a
// crash, never a partial feed served as complete, adapters degrade to
// nullopt so callers fall back to re-simulation.
TEST_F(ScanEngine, TruncationMatrixDegradesAndNeverServesPartial) {
  const std::string name = feed_file_name("kpis");
  const auto size =
      std::filesystem::file_size(dir() + "/" + name);
  ASSERT_GT(size, 64u);
  const auto grouping =
      analysis::group_by_region(*live().geography, *live().topology);
  const std::vector<std::uint64_t> cuts = {
      0, 1, 8, 8 + 31, 8 + 32, 8 + 32 + 16,
      size - 17, size - 16, size - 48 - 16, size - 8, size - 1,
  };
  for (const std::uint64_t cut : cuts) {
    SCOPED_TRACE("truncated to " + std::to_string(cut) + " of " +
                 std::to_string(size) + " bytes");
    const std::string damaged = clone("cut_" + std::to_string(cut));
    std::filesystem::resize_file(damaged + "/" + name, cut);

    const ScanRun run = drain_kpi_scan(damaged, ScanOptions{});
    EXPECT_GE(run.totals.shards_quarantined, 1u);
    EXPECT_FALSE(run.quarantine_log.empty());
    EXPECT_LT(run.slice.rows.size(), live().kpis.records().size());

    // The adapter refuses the feed outright - the caller re-simulates
    // rather than trusting a torn store.
    EXPECT_FALSE(scan_kpi_group_series(damaged, grouping,
                                       telemetry::KpiMetric::kDlVolume)
                     .has_value());
  }
}

// A CRC-corrupted shard under the scan path lands in the same quality
// ledger, with the same degraded outcome, as under full replay - and the
// rows both paths still serve are identical.
TEST_F(ScanEngine, CorruptedShardScanAgreesWithDegradedReplay) {
  const std::string damaged = clone("bitflip");
  flip_byte(damaged + "/" + feed_file_name("kpis"), 64);

  const ReadOutcome outcome = read_dataset(damaged, tiny_config());
  ASSERT_EQ(outcome.status, ReadOutcome::Status::kDegraded) << outcome.error;
  ASSERT_TRUE(outcome.dataset.has_value());
  std::uint64_t ledgered = 0;
  for (const auto& feed : outcome.dataset->quality.feeds())
    if (feed.name == "store") ledgered = feed.quarantined_records;
  EXPECT_GE(ledgered, 1u);

  // Scan and degraded replay agree on every surviving row.
  expect_scan_matches_replay(damaged, outcome.dataset->kpis.records(),
                             ScanOptions{});
  const ScanRun run = drain_kpi_scan(damaged, ScanOptions{});
  EXPECT_GE(run.totals.shards_quarantined, 1u);

  // The figure adapter sees the damage and steps aside.
  const auto grouping =
      analysis::group_by_region(*live().geography, *live().topology);
  EXPECT_FALSE(scan_kpi_group_series(damaged, grouping,
                                     telemetry::KpiMetric::kDlVolume)
                   .has_value());
  // load_or_run's contract then re-simulates; the replayed dataset stays
  // available as the degraded fallback the benches use.
  EXPECT_LT(outcome.dataset->kpis.records().size(),
            live().kpis.records().size());
}

// ------------------------------------------------- figure adapters

TEST_F(ScanEngine, AdaptersMatchInMemoryPipelinesBitwise) {
  const auto grouping =
      analysis::group_by_region(*live().geography, *live().topology);

  for (const auto metric : {telemetry::KpiMetric::kDlVolume,
                            telemetry::KpiMetric::kConnectedUsers,
                            telemetry::KpiMetric::kVoiceDlLoss}) {
    const auto scanned = scan_kpi_group_series(dir(), grouping, metric);
    ASSERT_TRUE(scanned.has_value());
    const analysis::KpiGroupSeries replayed{live().kpis, grouping, metric};
    ASSERT_EQ(scanned->group_count(), replayed.group_count());
    for (std::size_t g = 0; g < replayed.group_count(); ++g) {
      const DailySeries& a = scanned->group(g);
      const DailySeries& b = replayed.group(g);
      ASSERT_EQ(a.first_day(), b.first_day());
      ASSERT_EQ(a.last_day(), b.last_day());
      for (SimDay d = a.first_day(); d <= a.last_day(); ++d) {
        EXPECT_EQ(a.count(d), b.count(d));
        EXPECT_EQ(double_bits(a.day_sum(d)), double_bits(b.day_sum(d)))
            << "metric " << static_cast<int>(metric) << " group " << g
            << " day " << d;
      }
      const auto wa = scanned->weekly_delta(g, 9, 9, 19);
      const auto wb = replayed.weekly_delta(g, 9, 9, 19);
      ASSERT_EQ(wa.size(), wb.size());
      for (std::size_t i = 0; i < wa.size(); ++i) {
        EXPECT_EQ(wa[i].week, wb[i].week);
        EXPECT_EQ(double_bits(wa[i].value), double_bits(wb[i].value));
      }
    }
  }

  const SimDay first = live().config.first_day();
  const SimDay last = live().config.last_day();
  const auto gyration =
      scan_grouped_series(dir(), kGyrationNational, 1, first, last);
  ASSERT_TRUE(gyration.has_value());
  for (SimDay d = first; d <= last; ++d) {
    EXPECT_EQ(gyration->group(0).count(d),
              live().gyration_national.group(0).count(d));
    EXPECT_EQ(double_bits(gyration->group(0).day_sum(d)),
              double_bits(live().gyration_national.group(0).day_sum(d)));
  }

  const auto offnet = scan_daily_series(dir(), kOffnetBusyHour, first, last);
  ASSERT_TRUE(offnet.has_value());
  for (SimDay d = first; d <= last; ++d)
    EXPECT_EQ(double_bits(offnet->day_sum(d)),
              double_bits(live().offnet_busy_hour_minutes.day_sum(d)));

  const auto row_count = scan_scalar_u64(dir(), ScalarId::kKpiRowCount);
  ASSERT_TRUE(row_count.has_value());
  EXPECT_EQ(*row_count, live().kpis.records().size());
}

// ------------------------------------------------- accounting contracts

// The exporter regression: scan_kpis must read the feed file ONCE however
// many feeds the caller exports from the pass - store.bytes_read grows by
// exactly one file size per call, not one per exported feed.
TEST_F(ScanEngine, ScanKpisIsSinglePassOnBytesRead) {
  const auto file_bytes =
      std::filesystem::file_size(dir() + "/" + feed_file_name("kpis"));
  obs::set_enabled(true);
  obs::reset();

  std::uint64_t rows = 0;
  const ScanStats stats =
      scan_kpis(dir(), [&](const telemetry::CellDayRecord&) { ++rows; });
  EXPECT_EQ(rows, live().kpis.records().size());
  EXPECT_EQ(stats.rows, rows);
  EXPECT_EQ(stats.shards_quarantined, 0u);
  EXPECT_EQ(stats.bytes, file_bytes);
  EXPECT_EQ(obs::metrics().counter_value("store.bytes_read"), file_bytes);
  EXPECT_EQ(obs::metrics().counter_value("store.rows_read"), stats.rows);

  // A second pass doubles the counter - each call is exactly one read.
  scan_kpis(dir(), [](const telemetry::CellDayRecord&) {});
  EXPECT_EQ(obs::metrics().counter_value("store.bytes_read"), 2 * file_bytes);

  obs::set_enabled(false);
  obs::reset();
}

// scan.* observability is diagnostics, not model configuration: recording
// it must not perturb config_digest, and the store a scan read stays
// loadable under the exact digest it was written with.
TEST_F(ScanEngine, ScanMetricsStayOutOfConfigDigest) {
  const std::string digest = sim::config_digest(tiny_config());
  EXPECT_EQ(stored_digest(dir()), digest);

  obs::set_enabled(true);
  obs::reset();
  ScanOptions options;
  options.columns = {"day", "dl_volume_mb"};
  options.predicate.min_day = tiny_config().first_day() + 3;
  (void)drain_kpi_scan(dir(), options);
  (void)drain_kpi_scan(dir(), ScanOptions{});

  // The scan recorded its metrics...
  bool saw_scan_metric = false;
  for (const auto& metric : obs::metrics().snapshot())
    saw_scan_metric |= metric.name.rfind("scan.", 0) == 0;
  EXPECT_TRUE(saw_scan_metric);
  obs::set_enabled(false);
  obs::reset();

  // ...and the digest is byte-identical: scan options and scan.* metrics
  // have no representation in ScenarioConfig, by construction.
  EXPECT_EQ(sim::config_digest(tiny_config()), digest);
  EXPECT_EQ(stored_digest(dir()), digest);
  const ReadOutcome outcome = read_dataset(dir(), tiny_config());
  EXPECT_EQ(outcome.status, ReadOutcome::Status::kOk);
}

// When a bench (or the query service) falls back from an adapter scan to
// replayed data, the quality ledger records the degradation on the
// synthetic "scan" feed exactly once per EVENT — not once per series the
// event touched, and never zero. Double-charging inflated the audit's
// degradation totals; the helper is now the single bookkeeping point.
TEST_F(ScanEngine, NoteScanFallbackChargesLedgerOncePerEvent) {
  telemetry::FeedQualityReport quality;
  EXPECT_EQ(quality.feed("scan").quarantined_records, 0u);

  note_scan_fallback(quality, "fig03_national_series");
  EXPECT_EQ(quality.feed("scan").quarantined_records, 1u);

  // A second, distinct event is a second charge; the label does not key
  // any dedup — events are counted, not labels.
  note_scan_fallback(quality, "fig03_national_series");
  note_scan_fallback(quality, "fig08_kpi_dl_volume");
  EXPECT_EQ(quality.feed("scan").quarantined_records, 3u);

  // With obs enabled the same call also feeds the scan.fallback counters
  // (total plus one per label), still one ledger charge per call.
  obs::set_enabled(true);
  obs::reset();
  note_scan_fallback(quality, "fig09_trunk_series");
  note_scan_fallback(quality, "fig09_trunk_series");
  EXPECT_EQ(quality.feed("scan").quarantined_records, 5u);
  EXPECT_EQ(obs::metrics().counter_value("scan.fallbacks"), 2u);
  EXPECT_EQ(
      obs::metrics().counter_value("scan.fallback.fig09_trunk_series"), 2u);
  obs::set_enabled(false);
  obs::reset();
}

}  // namespace
}  // namespace cellscope::store
