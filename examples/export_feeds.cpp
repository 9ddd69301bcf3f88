// export_feeds: simulate once into a cellstore, then dump every feed as
// CSV — the "data-warehouse export" entry point for anyone who wants to
// analyze or plot the synthetic measurement campaign with their own
// tooling.
//
//   ./build/examples/export_feeds <output-dir> [num_users] [seed]
//
// The run is backed by the on-disk feed store (docs/STORAGE.md): the
// simulation streams into a cellstore directory and the dominant feed
// (kpis.csv, one row per cell-day) is exported *out-of-core*, decoded
// shard by shard straight off the store's mmap reader instead of from the
// in-memory dataset. Re-running with the same scenario replays the cached
// store bitwise-identically and skips the simulation entirely.
//
// The store lives under $CELLSCOPE_STORE_DIR/<config-digest>/ when that
// variable is set (shareable cache across runs and benches), otherwise
// under <output-dir>/store/<config-digest>/.
//
// Writes: kpis.csv, mobility_national.csv, mobility_by_region.csv,
//         mobility_by_cluster.csv, london_matrix.csv, signaling.csv
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "analysis/export.h"
#include "sim/simulator.h"
#include "store/dataset_io.h"

using namespace cellscope;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: export_feeds <output-dir> [num_users] [seed]\n";
    return 2;
  }
  const std::filesystem::path out_dir{argv[1]};
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::cerr << "cannot create " << out_dir << ": " << ec.message() << "\n";
    return 2;
  }

  sim::ScenarioConfig config = sim::default_scenario();
  if (argc > 2) config.num_users = static_cast<std::uint32_t>(std::atoi(argv[2]));
  if (argc > 3) config.seed = std::strtoull(argv[3], nullptr, 10);

  const char* store_root = std::getenv("CELLSCOPE_STORE_DIR");
  const std::string store_dir =
      (store_root != nullptr && store_root[0] != '\0'
           ? std::string(store_root)
           : (out_dir / "store").string()) +
      "/" + sim::config_digest(config);

  auto outcome = store::read_dataset(store_dir, config);
  sim::Dataset data;
  if (outcome.complete()) {
    std::cout << "export_feeds: replaying cellstore " << store_dir << " ("
              << outcome.rows_read << " rows, no simulation)...\n";
    data = std::move(*outcome.dataset);
  } else {
    std::cout << "export_feeds: simulating " << config.num_users
              << " subscribers (seed " << config.seed << ") into "
              << store_dir << "...\n";
    data = store::simulate_to_store(config, store_dir);
  }

  const auto write = [&](const std::string& name, const auto& writer) {
    const auto path = out_dir / name;
    std::ofstream os{path};
    if (!os) {
      std::cerr << "cannot open " << path << "\n";
      std::exit(2);
    }
    writer(os);
    std::cout << "  wrote " << path.string() << "\n";
  };

  // The dominant feed is exported out-of-core: rows decode shard by shard
  // off the store file, never materializing more than one shard at a time.
  write("kpis.csv", [&](std::ostream& os) {
    analysis::export_kpis_csv_header(os);
    const auto stats =
        store::scan_kpis(store_dir, [&](const telemetry::CellDayRecord& r) {
          analysis::export_kpi_row_csv(os, r, *data.topology,
                                       *data.geography);
        });
    if (stats.shards_quarantined > 0)
      std::cerr << "  warning: " << stats.shards_quarantined
                << " kpi shard(s) quarantined during export\n";
  });

  write("mobility_national.csv", [&](std::ostream& os) {
    const std::vector<std::string> names = {"gyration_km"};
    analysis::export_grouped_series_csv(os, data.gyration_national, names);
  });

  write("mobility_by_region.csv", [&](std::ostream& os) {
    std::vector<std::string> names;
    for (int r = 0; r < geo::kRegionCount; ++r)
      names.emplace_back(geo::region_name(static_cast<geo::Region>(r)));
    analysis::export_grouped_series_csv(os, data.gyration_by_region, names);
  });

  write("mobility_by_cluster.csv", [&](std::ostream& os) {
    std::vector<std::string> names;
    for (const auto cluster : geo::all_oac_clusters())
      names.emplace_back(geo::oac_name(cluster));
    analysis::export_grouped_series_csv(os, data.entropy_by_cluster, names);
  });

  if (data.london_matrix) {
    write("london_matrix.csv", [&](std::ostream& os) {
      analysis::export_mobility_matrix_csv(os, *data.london_matrix,
                                           *data.geography, 9);
    });
  }

  write("signaling.csv", [&](std::ostream& os) {
    analysis::export_signaling_csv(os, data.signaling);
  });

  std::cout << "done: " << data.kpis.row_count()
            << " KPI rows across " << data.topology->lte_cells().size()
            << " cells (store: " << store_dir << ").\n";
  return 0;
}
