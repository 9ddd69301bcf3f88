// Determinism of the vectorized scan path, closed against the golden
// fixtures.
//
// The engine's contract is bit-identical Datasets at any worker_threads;
// the scan engine's contract is bit-identity with full replay. Composing
// the two: Fig 3, Fig 8 and Fig 9 rendered ENTIRELY through the scan
// adapters (store/scan.h) from a store written at 1, 8 or 32 workers must
// be byte-identical to the checked-in golden CSVs — the same bytes the
// in-memory pipeline renders. Any divergence in the scanner's pruning,
// gathers, late materialization or the shared reduction path
// (KpiGroupSeriesBuilder) fails here before it can move a published
// figure.
//
// The fixtures are the same files test_golden_figures maintains;
// regenerate them there (CELLSCOPE_UPDATE_GOLDEN=1), never here.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/simulator.h"
#include "store/dataset_io.h"
#include "support/figure_csv.h"

namespace cellscope::store {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << "cannot read " << path
                         << " — generate with CELLSCOPE_UPDATE_GOLDEN=1 "
                            "./build/tests/test_golden_figures and commit it";
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string golden(const std::string& name) {
  return slurp(std::string(CELLSCOPE_GOLDEN_DIR) + "/" + name);
}

class ScanThreads : public ::testing::TestWithParam<int> {};

TEST_P(ScanThreads, FiguresViaScanPathMatchGoldenByteExactly) {
  sim::ScenarioConfig config = sim::testsupport::golden_config();
  config.worker_threads = GetParam();
  const std::string dir = ::testing::TempDir() + "cellscan_determinism_t" +
                          std::to_string(GetParam());
  std::filesystem::remove_all(dir);
  const sim::Dataset live = simulate_to_store(config, dir);
  // The in-memory KPI pipeline needs rows, which the streaming run handed
  // to the store: a sinkless run of the same config supplies them.
  const sim::Dataset oracle = sim::run_scenario(config);

  // Every figure through the scan adapters, against the in-memory
  // pipeline AND the committed fixture bytes.
  const std::string fig03 = sim::testsupport::fig03_csv_scan(dir, live);
  EXPECT_EQ(fig03, sim::testsupport::fig03_csv(live));
  EXPECT_EQ(fig03, golden("fig03_national_mobility.csv"));

  const std::string fig08 = sim::testsupport::fig08_csv_scan(dir, live);
  EXPECT_EQ(fig08, sim::testsupport::fig08_csv(oracle));
  EXPECT_EQ(fig08, golden("fig08_network_kpis.csv"));

  const std::string fig09 = sim::testsupport::fig09_csv_scan(dir, live);
  EXPECT_EQ(fig09, sim::testsupport::fig09_csv(oracle));
  EXPECT_EQ(fig09, golden("fig09_voice_traffic.csv"));
}

INSTANTIATE_TEST_SUITE_P(Workers, ScanThreads, ::testing::Values(1, 8, 32),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace cellscope::store
