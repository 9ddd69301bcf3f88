// Microbenchmarks of the hot analysis kernels (google-benchmark), plus the
// top-K tower ablation called out in DESIGN.md Section 5.
//
// These quantify the per-record cost of the paper's pipeline stages:
// entropy (Eq 1), radius of gyration (Eq 2), the combined per-user-day
// metric computation at several top-K settings, the LTE scheduler hour,
// home-detection ingestion, and two pieces of the per-user day kernel: one
// KPI user-day of signaling and one user-hour of voice.
//
// With CELLSCOPE_OBS_DIR set, the full google-benchmark report (per-kernel
// ns/op) is additionally written to <dir>/perf_kernels.json — the
// machine-readable baseline the BENCH_*.json perf trajectory tracks.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/home_detection.h"
#include "analysis/mobility_metrics.h"
#include "common/rng.h"
#include "obs/runtime.h"
#include "radio/scheduler.h"
#include "sim/pool.h"
#include "store/scan.h"
#include "store/shard.h"
#include "telemetry/probes.h"
#include "traffic/core_network.h"
#include "traffic/voice.h"

using namespace cellscope;

namespace {

telemetry::UserDayObservation make_observation(int towers, Rng& rng) {
  telemetry::UserDayObservation obs;
  obs.user = UserId{7};
  obs.day = 30;
  double remaining = 24.0;
  for (int t = 0; t < towers; ++t) {
    telemetry::TowerStay stay;
    stay.site = SiteId{static_cast<std::uint32_t>(t)};
    stay.location = {51.5 + rng.uniform(-0.2, 0.2),
                     -0.1 + rng.uniform(-0.3, 0.3)};
    stay.county = CountyId{0};
    stay.district = PostcodeDistrictId{static_cast<std::uint32_t>(t % 5)};
    const double h =
        t + 1 == towers ? remaining : remaining * rng.uniform(0.2, 0.6);
    stay.hours = static_cast<float>(h);
    remaining -= h;
    stay.night_hours = static_cast<float>(h / 3.0);
    stay.bin_hours[0] = static_cast<float>(h / 6.0);
    obs.stays.push_back(stay);
  }
  return obs;
}

void BM_Entropy(benchmark::State& state) {
  Rng rng{1};
  std::vector<double> dwell(static_cast<std::size_t>(state.range(0)));
  for (auto& d : dwell) d = rng.uniform(0.1, 8.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::entropy_from_dwell(dwell));
}
BENCHMARK(BM_Entropy)->Arg(4)->Arg(8)->Arg(20);

void BM_Gyration(benchmark::State& state) {
  Rng rng{2};
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<LatLon> locations(n);
  std::vector<double> hours(n);
  for (std::size_t i = 0; i < n; ++i) {
    locations[i] = {51.0 + rng.uniform(0, 1), -1.0 + rng.uniform(0, 1)};
    hours[i] = rng.uniform(0.1, 8.0);
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::gyration_from_stays(locations, hours));
}
BENCHMARK(BM_Gyration)->Arg(4)->Arg(8)->Arg(20);

// Top-K ablation: K = 5, 10, 20 (paper), unlimited.
void BM_DayMetricsTopK(benchmark::State& state) {
  Rng rng{3};
  const auto obs = make_observation(24, rng);
  analysis::MobilityMetricOptions options;
  options.top_k = static_cast<int>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::compute_day_metrics(obs, options));
}
BENCHMARK(BM_DayMetricsTopK)->Arg(5)->Arg(10)->Arg(20)->Arg(0);

void BM_SchedulerHour(benchmark::State& state) {
  radio::Cell cell;
  cell.id = CellId{1};
  radio::CellHourLoad load;
  load.offered_dl_mb = 900.0;
  load.offered_ul_mb = 80.0;
  load.active_dl_user_seconds = 2600.0;
  load.app_limited_dl_mbps = 2.8;
  load.connected_users = 45.0;
  load.voice_dl_mb = 4.0;
  load.voice_ul_mb = 4.0;
  load.voice_user_seconds = 1300.0;
  load.offnet_voice_fraction = 0.55;
  radio::LteScheduler scheduler;
  for (auto _ : state)
    benchmark::DoNotOptimize(scheduler.schedule_hour(cell, load, 0.4));
}
BENCHMARK(BM_SchedulerHour);

// Dispatch-overhead comparison for the day loop's two engine designs: the
// old per-day spawn/join of fresh std::thread objects vs one round of the
// persistent WorkerPool (sim/pool.h). The per-item work is tiny on purpose
// — what is measured is the cost of standing a day's fan-out up and tearing
// it down, which the simulator pays once per simulated day.
constexpr std::size_t kDispatchItems = 8'192;
constexpr std::size_t kDispatchChunk = 512;

void BM_DayDispatchThreadSpawn(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    std::atomic<std::uint64_t> sum{0};
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([w, workers, &sum] {
        std::uint64_t local = 0;
        for (std::size_t i = w; i < kDispatchItems; i += workers) local += i;
        sum.fetch_add(local, std::memory_order_relaxed);
      });
    }
    for (auto& t : threads) t.join();
    benchmark::DoNotOptimize(sum.load());
  }
}
BENCHMARK(BM_DayDispatchThreadSpawn)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_DayDispatchWorkerPool(benchmark::State& state) {
  sim::WorkerPool pool{static_cast<int>(state.range(0))};
  std::vector<std::uint64_t> partials(pool.window(), 0);
  for (auto _ : state) {
    std::uint64_t sum = 0;
    pool.run(
        kDispatchItems, kDispatchChunk,
        [&partials](std::size_t, std::size_t slot, std::size_t begin,
                    std::size_t end, int) {
          std::uint64_t local = 0;
          for (std::size_t i = begin; i < end; ++i) local += i;
          partials[slot] = local;
        },
        [&partials, &sum](std::size_t, std::size_t slot) {
          sum += partials[slot];
        });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_DayDispatchWorkerPool)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// cellstore throughput over a KPI-shaped feed (2 delta-varint id columns +
// 11 raw64 metric columns — the store's dominant feed). Items = rows,
// bytes = on-disk feed bytes, so the JSON report carries rows/s and MB/s.
std::vector<store::Encoding> kpi_like_schema() {
  std::vector<store::Encoding> schema{store::Encoding::kDeltaZigzagVarint,
                                      store::Encoding::kDeltaZigzagVarint};
  for (int m = 0; m < 11; ++m) schema.push_back(store::Encoding::kRaw64);
  return schema;
}

struct KpiShapedRow {
  std::int64_t day = 0;
  std::int64_t cell = 0;
  double metrics[11] = {};
};

std::vector<KpiShapedRow> make_kpi_shaped_rows(std::size_t n) {
  Rng rng{11};
  std::vector<KpiShapedRow> rows(n);
  constexpr std::int64_t kCells = 512;  // day-major, cell-ascending layout
  for (std::size_t i = 0; i < n; ++i) {
    rows[i].day = static_cast<std::int64_t>(i) / kCells;
    rows[i].cell = static_cast<std::int64_t>(i) % kCells;
    for (auto& m : rows[i].metrics) m = rng.uniform(0.0, 500.0);
  }
  return rows;
}

std::string bench_store_path() {
  return (std::filesystem::temp_directory_path() / "cellscope_bench_kpis.csf")
      .string();
}

std::uint64_t write_kpi_shaped_feed(const std::string& path,
                                    const std::vector<KpiShapedRow>& rows) {
  store::FeedFileWriter writer{path, kpi_like_schema()};
  for (const auto& r : rows) {
    writer.i64(0, r.day);
    writer.i64(1, r.cell);
    for (int m = 0; m < 11; ++m)
      writer.f64(static_cast<std::size_t>(2 + m), r.metrics[m]);
    writer.end_row(r.day);
  }
  return writer.close();
}

void BM_StoreWriteKpis(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto rows = make_kpi_shaped_rows(n);
  const std::string path = bench_store_path();
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    bytes = write_kpi_shaped_feed(path, rows);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  std::filesystem::remove(path);
}
BENCHMARK(BM_StoreWriteKpis)->Arg(16'384)->Arg(131'072);

void BM_StoreReadKpis(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::string path = bench_store_path();
  const std::uint64_t bytes =
      write_kpi_shaped_feed(path, make_kpi_shaped_rows(n));
  for (auto _ : state) {
    store::FeedFileReader reader{path};
    double sum = 0.0;
    std::uint64_t rows_read = 0;
    for (const auto& shard : reader.shards()) {
      store::ColumnCursor days{shard.columns[0]};
      store::ColumnCursor cells{shard.columns[1]};
      std::vector<store::ColumnCursor> metrics;
      for (int m = 0; m < 11; ++m)
        metrics.emplace_back(shard.columns[static_cast<std::size_t>(2 + m)]);
      for (std::uint64_t i = 0; i < shard.rows; ++i) {
        std::int64_t day = 0, cell = 0;
        double value = 0.0;
        if (!days.next_i64(day) || !cells.next_i64(cell)) break;
        for (auto& cursor : metrics) {
          cursor.next_f64(value);
          sum += value;
        }
        ++rows_read;
      }
    }
    benchmark::DoNotOptimize(sum);
    benchmark::DoNotOptimize(rows_read);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  std::filesystem::remove(path);
}
BENCHMARK(BM_StoreReadKpis)->Arg(16'384)->Arg(131'072);

// Vectorized scan-path kernels (store/scan.h). The bench feed is shaped
// exactly like the "kpis" feed, so the registry schema drives the scanner.

// Full-projection decode throughput: every column of every shard through
// the batched decoder. Items = rows, so the JSON report carries the
// decode rows/s figure the perf gate tracks.
void BM_ScanDecodeRows(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::string path = bench_store_path();
  const std::uint64_t bytes =
      write_kpi_shaped_feed(path, make_kpi_shaped_rows(n));
  const store::FeedSchema& schema = store::feed_schema("kpis");
  for (auto _ : state) {
    store::FeedScanner scanner{path, schema, store::ScanOptions{}};
    store::ScanBatch batch;
    std::uint64_t rows_read = 0;
    double sum = 0.0;
    while (scanner.next(batch)) {
      rows_read += batch.rows();
      for (const double v : batch.column(2).f64) sum += v;
    }
    benchmark::DoNotOptimize(rows_read);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  std::filesystem::remove(path);
}
BENCHMARK(BM_ScanDecodeRows)->Arg(131'072);

// End-to-end projected-query latency: open + footer day pruning to the
// middle third of the days + a quarter-of-the-cells key mask + two metric
// columns late-materialized — the shape of one figure-panel query.
void BM_ScanProjectedQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::string path = bench_store_path();
  write_kpi_shaped_feed(path, make_kpi_shaped_rows(n));
  const store::FeedSchema& schema = store::feed_schema("kpis");
  constexpr std::int64_t kCells = 512;  // layout of make_kpi_shaped_rows
  const std::int64_t days = static_cast<std::int64_t>(n) / kCells;
  std::vector<std::uint8_t> mask(kCells, 0);
  for (std::int64_t c = 0; c < kCells / 4; ++c)
    mask[static_cast<std::size_t>(c)] = 1;
  for (auto _ : state) {
    store::ScanOptions options;
    options.columns = {"day", "cell", "dl_volume_mb", "connected_users"};
    options.predicate.min_day = days / 3;
    options.predicate.max_day = 2 * days / 3;
    options.predicate.key_column = "cell";
    options.predicate.key_mask = &mask;
    store::FeedScanner scanner{path, schema, std::move(options)};
    store::ScanBatch batch;
    std::uint64_t rows_emitted = 0;
    double sum = 0.0;
    while (scanner.next(batch)) {
      rows_emitted += batch.rows();
      for (const double v : batch.column(2).f64) sum += v;
    }
    benchmark::DoNotOptimize(rows_emitted);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
  std::filesystem::remove(path);
}
BENCHMARK(BM_ScanProjectedQuery)->Arg(131'072);

void BM_HomeDetectorObserve(benchmark::State& state) {
  Rng rng{4};
  std::vector<telemetry::UserDayObservation> observations;
  for (int i = 0; i < 64; ++i) {
    auto obs = make_observation(4, rng);
    obs.user = UserId{static_cast<std::uint32_t>(i % 16)};
    obs.day = i % 20;
    observations.push_back(std::move(obs));
  }
  for (auto _ : state) {
    analysis::HomeDetector detector;
    for (const auto& obs : observations) detector.observe(obs);
    benchmark::DoNotOptimize(detector.finalize());
  }
}
BENCHMARK(BM_HomeDetectorObserve);

// One KPI user-day of signaling into the simulator's per-chunk counter: a
// 6-stay day with 12 active data hours and 2 calls (about 30 events).
void BM_SignalingDay(benchmark::State& state) {
  const traffic::SignalingGenerator generator;
  population::Subscriber user;
  user.id = UserId{7};
  user.native = true;
  user.smartphone = true;
  const std::vector<traffic::CellStay> stays = {
      {CellId{1}, 0, 8},   {CellId{2}, 8, 12},  {CellId{3}, 12, 13},
      {CellId{2}, 13, 18}, {CellId{4}, 18, 21}, {CellId{1}, 21, 24}};
  telemetry::SignalingDayCounter counter;
  Rng rng{5};
  for (auto _ : state) {
    generator.generate_day(user, stays, 40, 12, 2, rng, counter);
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_SignalingDay);

// One user-hour of voice through the day's rate table, cycling the hours
// of a surge day.
void BM_VoiceHour(benchmark::State& state) {
  const mobility::PolicyTimeline policy;
  const traffic::VoiceModel model{policy};
  const traffic::VoiceDayRates rates = model.day_rates(week_start_day(12));
  population::Subscriber user;
  user.smartphone = true;
  Rng rng{6};
  int hour = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.sample_hour(user, rates, hour, rng));
    hour = hour + 1 == kHoursPerDay ? 0 : hour + 1;
  }
}
BENCHMARK(BM_VoiceHour);

}  // namespace

// BENCHMARK_MAIN(), plus JSON output into CELLSCOPE_OBS_DIR when set.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string format_flag;
  if (const char* dir = std::getenv("CELLSCOPE_OBS_DIR")) {
    // Hardened env-var contract: an unusable output dir is a configuration
    // error — report it and exit 2 rather than degrade silently.
    std::string obs_dir;
    try {
      obs_dir = cellscope::obs::ensure_obs_dir(dir);
    } catch (const std::runtime_error& error) {
      std::cerr << "CELLSCOPE_OBS_DIR: " << error.what() << "\n";
      return 2;
    }
    out_flag = "--benchmark_out=" + obs_dir + "/perf_kernels.json";
    format_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int arg_count = static_cast<int>(args.size());
  benchmark::Initialize(&arg_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(arg_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
