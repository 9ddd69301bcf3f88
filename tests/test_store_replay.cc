// The store replay contract, enforced.
//
// simulate-once / replay-many only works if a replayed Dataset is the
// same object as the live one — not approximately, but bit for bit on
// every field, for clean and fault-injected scenarios, at any
// worker_threads. This suite writes datasets through both the streaming
// sink and the materialized path, reads them back, and runs the same
// bit-level comparison the thread-matrix determinism suite uses. A
// streaming run hands its KPI rows to the store, so the rows a replay must
// reproduce come from a sinkless run of the same config, never from the
// store under test. It then closes the loop on the golden fixtures:
// figures rendered from a replayed dataset must be byte-identical to the
// committed CSVs.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/simulator.h"
#include "store/dataset_io.h"
#include "store/format.h"
#include "support/dataset_compare.h"
#include "support/figure_csv.h"

namespace cellscope::store {
namespace {

using sim::testsupport::expect_datasets_identical;
using sim::testsupport::expect_run_fields_identical;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "cellstore_replay_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Small scale, small chunks, binned mobility on: the same shape the
// thread-matrix suite uses, so every Dataset container is exercised.
sim::ScenarioConfig replay_config() {
  sim::ScenarioConfig config = sim::default_scenario();
  config.num_users = 2'000;
  config.seed = 555;
  config.user_chunk = 128;
  config.collect_binned_mobility = true;
  return config;
}

// Measurement-plane faults on: the quality ledger and the fault-shaped
// KPI stream must survive the round trip too.
sim::ScenarioConfig faulted_config() {
  sim::ScenarioConfig config = sim::default_scenario();
  config.num_users = 1'500;
  config.seed = 4242;
  config.user_chunk = 96;
  config.faults.signaling_outages_per_week = 1.0;
  config.faults.signaling_outage_mean_hours = 6.0;
  config.faults.observation_loss_rate = 0.02;
  config.faults.kpi_record_loss_rate = 0.01;
  config.faults.kpi_record_duplication_rate = 0.005;
  config.faults.cell_outage_daily_prob = 0.01;
  return config;
}

class CleanThreads : public ::testing::TestWithParam<int> {};

TEST_P(CleanThreads, RoundTripIsBitIdentical) {
  sim::ScenarioConfig config = replay_config();
  config.worker_threads = GetParam();
  const std::string dir =
      fresh_dir("clean_t" + std::to_string(GetParam()));
  const sim::Dataset live = simulate_to_store(config, dir);
  const sim::Dataset oracle = sim::run_scenario(config);

  const ReadOutcome outcome = read_dataset(dir, config);
  ASSERT_EQ(outcome.status, ReadOutcome::Status::kOk) << outcome.error;
  ASSERT_TRUE(outcome.dataset.has_value());
  EXPECT_TRUE(outcome.complete());
  EXPECT_EQ(outcome.shards_quarantined, 0u);
  EXPECT_GT(outcome.rows_read, 0u);
  EXPECT_GT(outcome.bytes_read, 0u);
  expect_run_fields_identical(live, *outcome.dataset);
  expect_datasets_identical(oracle, *outcome.dataset);
}

INSTANTIATE_TEST_SUITE_P(Workers, CleanThreads, ::testing::Values(1, 3),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

TEST(StoreReplay, FaultedRoundTripIsBitIdentical) {
  sim::ScenarioConfig config = faulted_config();
  config.worker_threads = 3;
  const std::string dir = fresh_dir("faulted");
  const sim::Dataset live = simulate_to_store(config, dir);
  ASSERT_FALSE(live.quality.empty());
  const sim::Dataset oracle = sim::run_scenario(config);

  const ReadOutcome outcome = read_dataset(dir, config);
  ASSERT_EQ(outcome.status, ReadOutcome::Status::kOk) << outcome.error;
  ASSERT_TRUE(outcome.dataset.has_value());
  expect_run_fields_identical(live, *outcome.dataset);
  expect_datasets_identical(oracle, *outcome.dataset);
}

// The streaming sink (shards flushed while the simulation runs) and the
// materialized write (a sinkless run's whole dataset at finish) must
// produce the same store — same bytes on disk, same dataset back.
TEST(StoreReplay, StreamedAndMaterializedWritesAreByteIdentical) {
  const sim::ScenarioConfig config = replay_config();
  const std::string streamed_dir = fresh_dir("streamed");
  const std::string materialized_dir = fresh_dir("materialized");

  const sim::Dataset live = simulate_to_store(config, streamed_dir);
  const sim::Dataset materialized = sim::run_scenario(config);
  write_dataset(materialized, materialized_dir);

  for (const auto& feed : dataset_feeds()) {
    const std::string name = feed_file_name(feed);
    EXPECT_EQ(slurp(streamed_dir + "/" + name),
              slurp(materialized_dir + "/" + name))
        << name;
  }
  const ReadOutcome outcome = read_dataset(materialized_dir, config);
  ASSERT_EQ(outcome.status, ReadOutcome::Status::kOk) << outcome.error;
  expect_run_fields_identical(live, *outcome.dataset);
  expect_datasets_identical(materialized, *outcome.dataset);
}

// A Dataset whose KPI rows went to a store has none to write: finishing a
// store from it must fail before any feed or the manifest publishes,
// instead of publishing an empty KPI feed under a count of N rows.
TEST(DatasetWriter, FinishRefusesAReleasedDataset) {
  const sim::ScenarioConfig config = replay_config();
  const sim::Dataset live = simulate_to_store(config, fresh_dir("released"));
  ASSERT_TRUE(live.kpis.released());
  const std::string dir = fresh_dir("from_released");
  EXPECT_THROW(write_dataset(live, dir), std::logic_error);
  EXPECT_FALSE(std::filesystem::exists(dir + "/" + kManifestFile));
  for (const auto& feed : dataset_feeds())
    EXPECT_FALSE(std::filesystem::exists(dir + "/" + feed_file_name(feed)))
        << feed;
  EXPECT_EQ(read_dataset(dir, config).status, ReadOutcome::Status::kMissing);
}

TEST(StoreReplay, DigestMismatchRefusesToLoad) {
  const sim::ScenarioConfig config = replay_config();
  const std::string dir = fresh_dir("digest");
  write_dataset(sim::run_scenario(config), dir);

  sim::ScenarioConfig other = config;
  other.seed += 1;
  const ReadOutcome outcome = read_dataset(dir, other);
  EXPECT_EQ(outcome.status, ReadOutcome::Status::kDigestMismatch);
  EXPECT_FALSE(outcome.dataset.has_value());
  EXPECT_FALSE(outcome.complete());
  EXPECT_EQ(stored_digest(dir), sim::config_digest(config));
}

TEST(StoreReplay, EmptyDirectoryReportsMissing) {
  const ReadOutcome outcome =
      read_dataset(fresh_dir("void"), replay_config());
  EXPECT_EQ(outcome.status, ReadOutcome::Status::kMissing);
  EXPECT_FALSE(outcome.dataset.has_value());
}

// The figures a replayed dataset renders must be byte-identical to the
// committed golden fixtures — replaying a cached store instead of
// re-simulating can never move a published figure.
TEST(StoreReplay, GoldenFiguresFromReplayMatchFixturesByteExactly) {
  const sim::ScenarioConfig config = sim::testsupport::golden_config();
  const std::string dir = fresh_dir("golden");
  const sim::Dataset live = simulate_to_store(config, dir);
  // The KPI figures need rows, which the streaming run handed to the store.
  const sim::Dataset oracle = sim::run_scenario(config);

  const ReadOutcome outcome = read_dataset(dir, config);
  ASSERT_EQ(outcome.status, ReadOutcome::Status::kOk) << outcome.error;
  const sim::Dataset& replayed = *outcome.dataset;

  const std::string fig03 = sim::testsupport::fig03_csv(replayed);
  const std::string fig08 = sim::testsupport::fig08_csv(replayed);
  const std::string fig09 = sim::testsupport::fig09_csv(replayed);
  EXPECT_EQ(fig03, sim::testsupport::fig03_csv(live));
  EXPECT_EQ(fig08, sim::testsupport::fig08_csv(oracle));
  EXPECT_EQ(fig09, sim::testsupport::fig09_csv(oracle));
  EXPECT_EQ(fig03,
            slurp(std::string(CELLSCOPE_GOLDEN_DIR) +
                  "/fig03_national_mobility.csv"));
  EXPECT_EQ(fig08, slurp(std::string(CELLSCOPE_GOLDEN_DIR) +
                         "/fig08_network_kpis.csv"));
  EXPECT_EQ(fig09, slurp(std::string(CELLSCOPE_GOLDEN_DIR) +
                         "/fig09_voice_traffic.csv"));
}

}  // namespace
}  // namespace cellscope::store
