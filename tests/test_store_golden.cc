// CSF1 byte pins across commits.
//
// The store-replay and crash-resume suites diff two stores written by the
// same build, so a change that moves the on-disk bytes of EVERY run alike
// (a reordered column, a re-framed blob, a dropped zero row) passes them.
// This suite pins the bytes themselves: each feed file of two reference
// stores, plus store.manifest, has its size and CRC32C checked in under
// tests/golden/. The clean store covers every Dataset container (binned
// mobility on); the faulted one gives quality.csf its feed-name blobs.
//
// Regenerating (ONLY after an intentional on-disk format change, with the
// diff reviewed like source):
//
//   CELLSCOPE_UPDATE_GOLDEN=1 ./build/tests/test_store_golden
//
// rewrites tests/golden/store_*.txt in the source tree; commit the result.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "store/dataset_io.h"
#include "store/format.h"

namespace cellscope::store {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "cellstore_golden_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// One line per file: name, size and CRC32C of its bytes, in manifest order.
std::string store_fingerprint(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& feed : dataset_feeds())
    names.push_back(feed_file_name(feed));
  names.push_back(kManifestFile);
  std::string out;
  for (const auto& name : names) {
    std::ifstream in{dir + "/" + name, std::ios::binary};
    EXPECT_TRUE(in.good()) << "cannot read " << dir << "/" << name;
    const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                          std::istreambuf_iterator<char>()};
    char line[160];
    std::snprintf(line, sizeof line, "%s size=%zu crc32c=%08x\n", name.c_str(),
                  bytes.size(),
                  static_cast<unsigned>(crc32c(bytes.data(), bytes.size())));
    out += line;
  }
  return out;
}

void check_golden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(CELLSCOPE_GOLDEN_DIR) + "/" + name;
  if (const char* update = std::getenv("CELLSCOPE_UPDATE_GOLDEN");
      update != nullptr && update[0] != '\0' && update[0] != '0') {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "golden updated: " << path << " — review and commit it";
  }
  std::ifstream in{path, std::ios::binary};
  ASSERT_TRUE(in.good())
      << "missing golden fixture " << path
      << " — generate with CELLSCOPE_UPDATE_GOLDEN=1 and commit it";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << name << ": the CSF1 bytes drifted from the pinned store. If the "
      << "format change is intentional, regenerate with "
         "CELLSCOPE_UPDATE_GOLDEN=1 and commit the diff.";
}

TEST(StoreGolden, CleanStoreBytesMatchFixture) {
  sim::ScenarioConfig config = sim::default_scenario();
  config.num_users = 2'000;
  config.seed = 555;
  config.user_chunk = 128;
  config.worker_threads = 2;
  config.collect_binned_mobility = true;
  const std::string dir = fresh_dir("clean");
  (void)simulate_to_store(config, dir);
  check_golden("store_clean.txt", store_fingerprint(dir));
}

TEST(StoreGolden, FaultedStoreBytesMatchFixture) {
  sim::ScenarioConfig config = sim::default_scenario();
  config.num_users = 1'500;
  config.seed = 4242;
  config.user_chunk = 96;
  config.worker_threads = 2;
  config.faults.signaling_outages_per_week = 1.0;
  config.faults.signaling_outage_mean_hours = 6.0;
  config.faults.observation_loss_rate = 0.02;
  config.faults.kpi_record_loss_rate = 0.01;
  config.faults.kpi_record_duplication_rate = 0.005;
  config.faults.cell_outage_daily_prob = 0.01;
  const std::string dir = fresh_dir("faulted");
  const sim::Dataset live = simulate_to_store(config, dir);
  ASSERT_FALSE(live.quality.empty()) << "the faulted store must carry names";
  check_golden("store_faulted.txt", store_fingerprint(dir));
}

}  // namespace
}  // namespace cellscope::store
