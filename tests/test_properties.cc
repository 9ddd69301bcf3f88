// Cross-module property tests: invariants that must hold for arbitrary
// (seeded) inputs, swept with parameterized suites.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/mobility_metrics.h"
#include "mobility/relocation.h"
#include "mobility/trajectory.h"
#include "obs/metrics.h"
#include "population/generator.h"
#include "radio/scheduler.h"
#include "radio/topology.h"
#include "sim/kpi_day_closer.h"
#include "sim/pool.h"

namespace cellscope {
namespace {

// ---------------------------------------------------------------------
// Trajectory invariants across many users, days and seeds.
class TrajectoryPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static void SetUpTestSuite() {
    geography_ = new geo::UkGeography(geo::UkGeography::build());
    catalog_ = new population::DeviceCatalog(
        population::DeviceCatalog::build(1));
  }
  static void TearDownTestSuite() {
    delete catalog_;
    delete geography_;
  }
  static const geo::UkGeography* geography_;
  static const population::DeviceCatalog* catalog_;
};
const geo::UkGeography* TrajectoryPropertyTest::geography_ = nullptr;
const population::DeviceCatalog* TrajectoryPropertyTest::catalog_ = nullptr;

TEST_P(TrajectoryPropertyTest, PlansAreAlwaysWellFormed) {
  const std::uint64_t seed = GetParam();
  population::PopulationGenerator generator{*geography_, *catalog_};
  population::PopulationConfig pop_config;
  pop_config.num_users = 400;
  pop_config.seed = seed;
  const auto population = generator.generate(pop_config);

  mobility::PolicyTimeline policy;
  mobility::PlacesBuilder builder{*geography_};
  mobility::TrajectoryGenerator trajectories{*geography_, policy};
  mobility::RelocationModel relocation{*geography_, policy};

  Rng root{seed};
  for (std::size_t i = 0; i < population.subscribers.size(); i += 7) {
    const auto& user = population.subscribers[i];
    Rng prng = root.fork("places", i);
    auto places = builder.build(user, prng);
    mobility::UserState state;
    for (SimDay day = 0; day < 98; day += 3) {
      Rng rng = root.fork("day", i * 1000 + static_cast<std::size_t>(day));
      relocation.maybe_decide(user, places, state, day, rng);
      const auto plan = trajectories.plan_day(user, places, state, day, rng);
      if (state.departed) {
        EXPECT_TRUE(plan.empty());
        continue;
      }
      // Full 24h coverage, ordered, valid place indices.
      int covered = 0;
      int previous_end = 0;
      for (const auto& stay : plan.stays) {
        EXPECT_EQ(stay.start_hour, previous_end);
        EXPECT_GT(stay.end_hour, stay.start_hour);
        EXPECT_LE(stay.end_hour, kHoursPerDay);
        EXPECT_LT(stay.place, places.size());
        covered += stay.end_hour - stay.start_hour;
        previous_end = stay.end_hour;
      }
      EXPECT_EQ(covered, kHoursPerDay);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrajectoryPropertyTest,
                         ::testing::Values(1, 17, 99, 1234));

// ---------------------------------------------------------------------
// Mobility-metric invariants over randomized observations.
class MetricsPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetricsPropertyTest, EntropyAndGyrationBounds) {
  Rng rng{GetParam()};
  for (int round = 0; round < 200; ++round) {
    const int towers = 1 + static_cast<int>(rng.uniform_index(12));
    telemetry::UserDayObservation obs;
    obs.user = UserId{1};
    obs.day = 10;
    const LatLon origin{51.0 + rng.uniform(), -1.0 + rng.uniform()};
    double max_pairwise = 0.0;
    for (int t = 0; t < towers; ++t) {
      telemetry::TowerStay stay;
      stay.site = SiteId{static_cast<std::uint32_t>(t)};
      stay.location = offset_km(origin, rng.uniform(-25.0, 25.0),
                                rng.uniform(-25.0, 25.0));
      stay.hours = static_cast<float>(rng.uniform(0.1, 12.0));
      obs.stays.push_back(stay);
    }
    for (const auto& a : obs.stays)
      for (const auto& b : obs.stays)
        max_pairwise =
            std::max(max_pairwise, distance_km(a.location, b.location));

    const auto metrics = analysis::compute_day_metrics(obs);
    ASSERT_TRUE(metrics.has_value());
    // 0 <= entropy <= log(#towers).
    EXPECT_GE(metrics->entropy, 0.0);
    EXPECT_LE(metrics->entropy, std::log(double(towers)) + 1e-9);
    // 0 <= gyration <= max pairwise distance.
    EXPECT_GE(metrics->gyration_km, 0.0);
    EXPECT_LE(metrics->gyration_km, max_pairwise + 1e-9);
    // Sum of bin metrics' dwell equals the whole-day dwell.
    double bin_hours = 0.0;
    for (int bin = 0; bin < kFourHourBinsPerDay; ++bin) {
      analysis::MobilityMetricOptions options;
      options.four_hour_bin = bin;
      if (const auto m = analysis::compute_day_metrics(obs, options))
        bin_hours += m->hours_observed;
    }
    // (bin_hours were synthesized as zero here; whole-day only check)
    EXPECT_NEAR(metrics->hours_observed, obs.total_hours(), 1e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsPropertyTest,
                         ::testing::Values(3, 31, 314));

// ---------------------------------------------------------------------
// Scheduler invariants over randomized loads.
class SchedulerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerPropertyTest, ConservationAndBounds) {
  Rng rng{GetParam()};
  radio::LteScheduler scheduler;
  radio::Cell cell;
  cell.dl_capacity_mbps = 75.0;
  cell.ul_capacity_mbps = 25.0;
  const double dl_cap_mb = 75.0 * 0.85 * 3600 / 8;
  for (int round = 0; round < 500; ++round) {
    radio::CellHourLoad load;
    load.offered_dl_mb = rng.uniform(0.0, 60'000.0);
    load.offered_ul_mb = rng.uniform(0.0, 20'000.0);
    load.active_dl_user_seconds = rng.uniform(0.0, 3600.0 * 60);
    load.app_limited_dl_mbps = rng.uniform(0.3, 8.0);
    load.connected_users = rng.uniform(0.0, 200.0);
    load.voice_dl_mb = rng.uniform(0.0, 50.0);
    load.voice_ul_mb = load.voice_dl_mb;
    load.voice_user_seconds = rng.uniform(0.0, 3600.0 * 5);
    load.offnet_voice_fraction = rng.uniform(0.0, 1.0);
    const double trunk_loss = rng.uniform(0.0, 5.0);

    const auto kpi = scheduler.schedule_hour(cell, load, trunk_loss);
    // Served data never exceeds offered or capacity.
    EXPECT_LE(kpi.data_dl_mb, load.offered_dl_mb + 1e-9);
    EXPECT_LE(kpi.dl_volume_mb, dl_cap_mb + load.voice_dl_mb + 1e-6);
    EXPECT_GE(kpi.data_dl_mb, 0.0);
    // Voice is never dropped by the scheduler.
    EXPECT_DOUBLE_EQ(kpi.voice_volume_mb,
                     load.voice_dl_mb + load.voice_ul_mb);
    // Utilization and throughput stay in range.
    EXPECT_GE(kpi.tti_utilization, 0.0);
    EXPECT_LE(kpi.tti_utilization, 1.0);
    EXPECT_GE(kpi.user_dl_throughput_mbps, 0.0);
    EXPECT_LE(kpi.user_dl_throughput_mbps,
              std::max(load.app_limited_dl_mbps, 75.0 * 0.85) + 1e-9);
    // DL voice loss >= UL voice loss (the interconnect only hurts DL).
    EXPECT_GE(kpi.voice_dl_loss_pct, kpi.voice_ul_loss_pct - 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerPropertyTest,
                         ::testing::Values(7, 77, 777));

// ---------------------------------------------------------------------
// Topology invariants across deployment scales.
class TopologyPropertyTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TopologyPropertyTest, ServingCellAlwaysResolvesInDistrict) {
  const auto geography = geo::UkGeography::build();
  radio::TopologyConfig config;
  config.expected_subscribers = GetParam();
  config.seed = GetParam();
  const auto topology = radio::RadioTopology::build(geography, config);
  Rng rng{GetParam()};
  for (int round = 0; round < 300; ++round) {
    const auto& district = geography.districts()[rng.uniform_index(
        geography.districts().size())];
    const LatLon p = offset_km(district.center,
                               rng.uniform(-district.radius_km, district.radius_km),
                               rng.uniform(-district.radius_km, district.radius_km));
    const auto cell_id =
        topology.serving_cell(district.id, p, radio::Rat::k4G);
    ASSERT_TRUE(cell_id.valid());
    const auto& cell = topology.cell(cell_id);
    EXPECT_EQ(cell.rat, radio::Rat::k4G);
    EXPECT_EQ(topology.site(cell.site).district, district.id);
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, TopologyPropertyTest,
                         ::testing::Values(5'000u, 20'000u, 60'000u));

// ---------------------------------------------------------------------
// Chunked-reduction invariants behind the simulator's determinism contract
// (sim/pool.h): the cursor hands out each chunk exactly once under racing
// claimants, the pool reduces chunks in strictly ascending order on the
// calling thread, and chunk-order merges reproduce a single-chunk fold.

// Raw concurrent claimants (no pool): every index in [0, total) is claimed
// by exactly one thread. Runs under the TSan CI job.
class ChunkCursorPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ChunkCursorPropertyTest, EveryChunkClaimedExactlyOnce) {
  const int n_threads = GetParam();
  constexpr std::size_t kTotal = 10'000;
  sim::ChunkCursor cursor{kTotal};
  std::vector<std::vector<std::size_t>> claimed(
      static_cast<std::size_t>(n_threads));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n_threads));
  for (int t = 0; t < n_threads; ++t) {
    threads.emplace_back([&, t] {
      std::size_t chunk = 0;
      while (cursor.next(chunk))
        claimed[static_cast<std::size_t>(t)].push_back(chunk);
    });
  }
  for (auto& thread : threads) thread.join();

  std::vector<int> seen(kTotal, 0);
  for (const auto& mine : claimed) {
    std::size_t previous = 0;
    bool first = true;
    for (const std::size_t chunk : mine) {
      ASSERT_LT(chunk, kTotal);
      ++seen[chunk];
      // Claims are monotone per thread (the window gate relies on this).
      if (!first) {
        EXPECT_GT(chunk, previous);
      }
      previous = chunk;
      first = false;
    }
  }
  for (std::size_t c = 0; c < kTotal; ++c)
    EXPECT_EQ(seen[c], 1) << "chunk " << c;
}

INSTANTIATE_TEST_SUITE_P(Threads, ChunkCursorPropertyTest,
                         ::testing::Values(1, 2, 4, 8));

// Pool handoff: every item is worked exactly once, reduce sees chunks in
// strictly ascending order, and a slot is never overwritten before the
// reduction that frees it (the stamp check). Runs under the TSan CI job.
class WorkerPoolPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(WorkerPoolPropertyTest, ReducesEveryChunkInOrder) {
  constexpr std::size_t kItems = 1'003;
  constexpr std::size_t kChunk = 17;
  const std::size_t n_chunks = (kItems + kChunk - 1) / kChunk;
  sim::WorkerPool pool{GetParam()};
  for (int round = 0; round < 3; ++round) {
    std::vector<std::size_t> slot_stamp(pool.window(), ~std::size_t{0});
    std::vector<std::size_t> reduced_order;
    std::vector<int> item_seen(kItems, 0);
    std::size_t items_reduced = 0;
    pool.run(
        kItems, kChunk,
        [&](std::size_t chunk, std::size_t slot, std::size_t begin,
            std::size_t end, std::size_t worker) {
          ASSERT_LT(worker, static_cast<std::size_t>(pool.workers()));
          ASSERT_EQ(begin, chunk * kChunk);
          ASSERT_EQ(end, std::min(begin + kChunk, kItems));
          slot_stamp[slot] = chunk;
          for (std::size_t i = begin; i < end; ++i) ++item_seen[i];
        },
        [&](std::size_t chunk, std::size_t slot) {
          // The slot still carries this chunk's stamp: nobody reused it
          // before this reduction released it.
          EXPECT_EQ(slot_stamp[slot], chunk);
          reduced_order.push_back(chunk);
          items_reduced += std::min(chunk * kChunk + kChunk, kItems) -
                           chunk * kChunk;
        });

    ASSERT_EQ(reduced_order.size(), n_chunks) << "round " << round;
    for (std::size_t c = 0; c < n_chunks; ++c)
      EXPECT_EQ(reduced_order[c], c) << "round " << round;
    EXPECT_EQ(items_reduced, kItems);
    for (std::size_t i = 0; i < kItems; ++i)
      EXPECT_EQ(item_seen[i], 1) << "item " << i;
    // Dynamic pulling accounts every chunk to exactly one worker.
    std::uint64_t total = 0;
    for (const auto count : pool.chunks_per_worker()) total += count;
    EXPECT_EQ(total, n_chunks);
  }
  EXPECT_EQ(pool.runs(), 3u);
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkerPoolPropertyTest,
                         ::testing::Values(1, 2, 3, 8));

// A throw ends the pool's job at the failed chunk: run() rethrows on the
// caller only after every started work() has returned, chunks below the
// failure were reduced in order, the failed chunk and every later one were
// not, and the same pool then runs a clean job. Covers a throw from work
// (from every chunk at or above k, so the lowest one's must win) and from
// reduce. Runs under the TSan CI job.
class WorkerPoolFailurePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(WorkerPoolFailurePropertyTest, RethrowsAfterEveryStartedChunkReturns) {
  constexpr std::size_t kItems = 1'003;
  constexpr std::size_t kChunk = 17;
  const std::size_t n_chunks = (kItems + kChunk - 1) / kChunk;
  sim::WorkerPool pool{GetParam()};
  for (const bool from_reduce : {false, true}) {
    for (const std::size_t failing : {std::size_t{0}, std::size_t{1},
                                      std::size_t{7}, n_chunks - 1}) {
      SCOPED_TRACE((from_reduce ? "reduce throws at chunk " : "work throws at chunk ") +
                   std::to_string(failing));
      std::atomic<int> in_work{0};
      std::vector<std::size_t> reduced;
      std::string caught;
      try {
        pool.run(
            kItems, kChunk,
            [&](std::size_t chunk, std::size_t, std::size_t, std::size_t,
                std::size_t) {
              in_work.fetch_add(1);
              // Stay inside work() for a moment so that on many workers the
              // throw races chunks that are still running.
              std::this_thread::yield();
              in_work.fetch_sub(1);
              if (!from_reduce && chunk >= failing)
                throw std::runtime_error("chunk " + std::to_string(chunk));
            },
            [&](std::size_t chunk, std::size_t) {
              if (from_reduce && chunk == failing)
                throw std::runtime_error("chunk " + std::to_string(chunk));
              reduced.push_back(chunk);
            });
      } catch (const std::runtime_error& e) {
        caught = e.what();
        EXPECT_EQ(in_work.load(), 0) << "run() returned with work running";
      }
      EXPECT_EQ(caught, "chunk " + std::to_string(failing));
      ASSERT_EQ(reduced.size(), failing);
      for (std::size_t c = 0; c < failing; ++c) EXPECT_EQ(reduced[c], c);

      // The next job runs normally: every item once, every chunk reduced.
      std::vector<int> item_seen(kItems, 0);
      std::vector<std::size_t> clean_order;
      pool.run(
          kItems, kChunk,
          [&](std::size_t, std::size_t, std::size_t begin, std::size_t end,
              std::size_t) {
            for (std::size_t i = begin; i < end; ++i) ++item_seen[i];
          },
          [&](std::size_t chunk, std::size_t) { clean_order.push_back(chunk); });
      ASSERT_EQ(clean_order.size(), n_chunks);
      for (std::size_t c = 0; c < n_chunks; ++c) EXPECT_EQ(clean_order[c], c);
      for (std::size_t i = 0; i < kItems; ++i)
        EXPECT_EQ(item_seen[i], 1) << "item " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkerPoolFailurePropertyTest,
                         ::testing::Values(1, 2, 4, 8));

// Chunk-order merge_load folds equal a single serial fold, for ANY chunk
// partition, when the addends are exactly representable (dyadic rationals:
// k/64 with k in [0, 1024]). This is the algebraic core of the determinism
// contract — the simulator's bits depend on the chunk grid only through
// rounding, which this test removes to isolate the merge semantics
// (including the offnet_voice_fraction last-writer rule).
class ChunkMergePropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ChunkMergePropertyTest, AnyPartitionMatchesSerialFold) {
  Rng rng{GetParam()};
  constexpr std::size_t kItems = 500;
  std::vector<radio::CellHourLoad> items(kItems);
  const auto dyadic = [&] {
    return static_cast<double>(rng.uniform_int(0, 1024)) / 64.0;
  };
  for (auto& item : items) {
    item.offered_dl_mb = dyadic();
    item.offered_ul_mb = dyadic();
    item.active_dl_user_seconds = dyadic();
    item.app_limited_dl_mbps = dyadic();
    item.connected_users = 1.0;
    if (rng.chance(0.3)) {
      item.voice_dl_mb = dyadic();
      item.voice_ul_mb = dyadic();
      item.voice_user_seconds = 1.0 + dyadic();
      item.offnet_voice_fraction = dyadic() / 16.0;
    }
  }

  radio::CellHourLoad serial;
  for (const auto& item : items) radio::merge_load(serial, item);

  for (int trial = 0; trial < 20; ++trial) {
    radio::CellHourLoad total;
    std::size_t begin = 0;
    while (begin < kItems) {
      const std::size_t size =
          std::min<std::size_t>(1 + rng.uniform_index(40), kItems - begin);
      radio::CellHourLoad partial;
      for (std::size_t i = begin; i < begin + size; ++i)
        radio::merge_load(partial, items[i]);
      radio::merge_load(total, partial);
      begin += size;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.offered_dl_mb),
              std::bit_cast<std::uint64_t>(total.offered_dl_mb));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.offered_ul_mb),
              std::bit_cast<std::uint64_t>(total.offered_ul_mb));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.active_dl_user_seconds),
              std::bit_cast<std::uint64_t>(total.active_dl_user_seconds));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.app_limited_dl_mbps),
              std::bit_cast<std::uint64_t>(total.app_limited_dl_mbps));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.connected_users),
              std::bit_cast<std::uint64_t>(total.connected_users));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.voice_user_seconds),
              std::bit_cast<std::uint64_t>(total.voice_user_seconds));
    // Last writer with voice wins, independent of the partition.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.offnet_voice_fraction),
              std::bit_cast<std::uint64_t>(total.offnet_voice_fraction));
  }
}

TEST_P(ChunkMergePropertyTest, HourArrayPartitionSumsAreExact) {
  Rng rng{GetParam() + 17};
  constexpr std::size_t kItems = 400;
  std::vector<std::array<double, kHoursPerDay>> items(kItems);
  for (auto& item : items)
    for (auto& v : item)
      v = static_cast<double>(rng.uniform_int(0, 4096)) / 128.0;

  std::array<double, kHoursPerDay> serial{};
  for (const auto& item : items)
    for (int h = 0; h < kHoursPerDay; ++h)
      serial[static_cast<std::size_t>(h)] += item[static_cast<std::size_t>(h)];

  for (int trial = 0; trial < 20; ++trial) {
    std::array<double, kHoursPerDay> total{};
    std::size_t begin = 0;
    while (begin < kItems) {
      const std::size_t size =
          std::min<std::size_t>(1 + rng.uniform_index(64), kItems - begin);
      std::array<double, kHoursPerDay> partial{};
      for (std::size_t i = begin; i < begin + size; ++i)
        for (int h = 0; h < kHoursPerDay; ++h)
          partial[static_cast<std::size_t>(h)] +=
              items[i][static_cast<std::size_t>(h)];
      for (int h = 0; h < kHoursPerDay; ++h)
        total[static_cast<std::size_t>(h)] +=
            partial[static_cast<std::size_t>(h)];
      begin += size;
    }
    for (int h = 0; h < kHoursPerDay; ++h)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    serial[static_cast<std::size_t>(h)]),
                std::bit_cast<std::uint64_t>(
                    total[static_cast<std::size_t>(h)]))
          << "hour " << h;
  }
}

// Counter deltas merged shard-by-shard equal a single-shard fold for any
// partition of the increments (uint64 addition is associative).
TEST_P(ChunkMergePropertyTest, MetricsShardPartitionsAreExact) {
  Rng rng{GetParam() + 99};
  obs::MetricsRegistry registry;
  const obs::MetricId a = registry.counter("prop.a");
  const obs::MetricId b = registry.counter("prop.b");

  constexpr std::size_t kIncrements = 2'000;
  std::vector<std::pair<obs::MetricId, std::uint64_t>> increments;
  increments.reserve(kIncrements);
  std::uint64_t expect_a = 0;
  std::uint64_t expect_b = 0;
  for (std::size_t i = 0; i < kIncrements; ++i) {
    const auto n = static_cast<std::uint64_t>(rng.uniform_int(0, 9));
    if (rng.chance(0.5)) {
      increments.emplace_back(a, n);
      expect_a += n;
    } else {
      increments.emplace_back(b, n);
      expect_b += n;
    }
  }

  std::size_t begin = 0;
  while (begin < kIncrements) {
    const std::size_t size =
        std::min<std::size_t>(1 + rng.uniform_index(300), kIncrements - begin);
    obs::MetricsShard shard;
    for (std::size_t i = begin; i < begin + size; ++i)
      shard.add(increments[i].first, increments[i].second);
    registry.merge(shard);
    begin += size;
  }
  EXPECT_EQ(registry.counter_value("prop.a"), expect_a);
  EXPECT_EQ(registry.counter_value("prop.b"), expect_b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChunkMergePropertyTest,
                         ::testing::Values(1u, 7u, 99u));

// The simulator's compact chunk loads (sim/kpi_day_closer.h), merged in
// chunk order, equal the dense per-chunk [cell-hour] grids they replaced
// bit for bit. Random touches with inexact addends land on random
// cell-hours over random chunk partitions; the buffers are reused across
// chunks as the reorder window reuses them, and some chunks are reset
// mid-way and replayed from their start, as a supervised retry does.
class ChunkLoadPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ChunkLoadPropertyTest, CompactBuffersMergeLikeDenseGrids) {
  Rng rng{GetParam()};
  struct Touch {
    std::uint32_t ordinal = 0;
    int hour = 0;
    radio::CellHourLoad add;  // connected_users is the simulator's 1.0
    double offnet_minutes = 0.0;
  };
  const auto cells = static_cast<std::uint32_t>(1 + rng.uniform_index(80));
  const std::size_t slots = std::size_t{cells} * kHoursPerDay;
  constexpr std::size_t kTouches = 4'000;
  std::vector<Touch> touches(kTouches);
  for (Touch& t : touches) {
    // Skewed toward low ordinals so slots see many additions each.
    t.ordinal = static_cast<std::uint32_t>(
        rng.uniform_index(1 + rng.uniform_index(cells)));
    t.hour = static_cast<int>(rng.uniform_index(kHoursPerDay));
    t.add.offered_dl_mb = rng.uniform(0.0, 900.0);
    t.add.offered_ul_mb = rng.uniform(0.0, 90.0);
    t.add.active_dl_user_seconds = rng.uniform(0.0, 3'600.0);
    t.add.app_limited_dl_mbps = rng.uniform(0.0, 20.0) * 1e3 / 7.0;
    if (rng.chance(0.3)) {
      t.add.voice_dl_mb = rng.uniform(0.0, 3.0);
      t.add.voice_ul_mb = rng.uniform(0.0, 3.0);
      t.add.voice_user_seconds = rng.uniform(1.0, 600.0);
      t.add.offnet_voice_fraction = rng.uniform(0.0, 0.6);
      t.offnet_minutes = rng.uniform(0.0, 10.0) / 3.0;
    }
  }
  // The simulator's per-user-hour accumulation into a (cell, hour) slot.
  const auto accumulate = [](radio::CellHourLoad& load, const Touch& t) {
    load.connected_users += 1.0;
    load.offered_dl_mb += t.add.offered_dl_mb;
    load.offered_ul_mb += t.add.offered_ul_mb;
    load.active_dl_user_seconds += t.add.active_dl_user_seconds;
    load.app_limited_dl_mbps += t.add.app_limited_dl_mbps;
    if (t.add.voice_user_seconds > 0.0) {
      load.voice_dl_mb += t.add.voice_dl_mb;
      load.voice_ul_mb += t.add.voice_ul_mb;
      load.voice_user_seconds += t.add.voice_user_seconds;
      load.offnet_voice_fraction = t.add.offnet_voice_fraction;
    }
  };
  const auto touch = [&](sim::ChunkLoad& chunk, const Touch& t) {
    accumulate(chunk.at(t.ordinal, t.hour), t);
    chunk.offnet_minutes[static_cast<std::size_t>(t.hour)] += t.offnet_minutes;
    ++chunk.voice_attempts[static_cast<std::size_t>(t.hour)];
  };

  for (int trial = 0; trial < 8; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // Reference: one dense grid per chunk, merged slot by slot in chunk
    // order through its dirty list.
    std::vector<radio::CellHourLoad> reference(slots);
    std::array<double, kHoursPerDay> reference_offnet{};
    std::array<std::uint64_t, kHoursPerDay> reference_attempts{};
    sim::KpiDayCloser::DayLoad day;
    day.cell_hours.assign(slots, {});
    std::vector<sim::ChunkLoad> window(3);
    for (auto& chunk : window) chunk.size_for(cells);

    std::size_t begin = 0;
    for (std::size_t k = 0; begin < kTouches; ++k) {
      const std::size_t end =
          std::min(kTouches, begin + 1 + rng.uniform_index(600));
      std::vector<radio::CellHourLoad> dense(slots);
      std::vector<std::uint32_t> dirty;
      std::array<double, kHoursPerDay> offnet{};
      for (std::size_t i = begin; i < end; ++i) {
        const Touch& t = touches[i];
        const std::size_t slot = std::size_t{t.ordinal} * kHoursPerDay +
                                 static_cast<std::size_t>(t.hour);
        if (dense[slot].connected_users == 0.0)
          dirty.push_back(static_cast<std::uint32_t>(slot));
        accumulate(dense[slot], t);
        offnet[static_cast<std::size_t>(t.hour)] += t.offnet_minutes;
        ++reference_attempts[static_cast<std::size_t>(t.hour)];
      }
      for (const std::uint32_t slot : dirty)
        radio::merge_load(reference[slot], dense[slot]);
      for (std::size_t h = 0; h < kHoursPerDay; ++h)
        reference_offnet[h] += offnet[h];

      sim::ChunkLoad& chunk = window[k % window.size()];
      if (rng.chance(0.3)) {
        // A failed attempt that got part-way, then the supervisor's reset.
        const std::size_t failed_at = begin + rng.uniform_index(end - begin);
        for (std::size_t i = begin; i < failed_at; ++i)
          touch(chunk, touches[i]);
        chunk.clear();
      }
      for (std::size_t i = begin; i < end; ++i) touch(chunk, touches[i]);
      EXPECT_EQ(chunk.touched(), dirty.size());
      chunk.merge_into(day);
      EXPECT_EQ(chunk.touched(), 0u);
      begin = end;
    }

    for (std::size_t slot = 0; slot < slots; ++slot) {
      const radio::CellHourLoad& want = reference[slot];
      const radio::CellHourLoad& got = day.cell_hours[slot];
      for (const auto field :
           {&radio::CellHourLoad::offered_dl_mb,
            &radio::CellHourLoad::offered_ul_mb,
            &radio::CellHourLoad::active_dl_user_seconds,
            &radio::CellHourLoad::app_limited_dl_mbps,
            &radio::CellHourLoad::connected_users,
            &radio::CellHourLoad::voice_dl_mb,
            &radio::CellHourLoad::voice_ul_mb,
            &radio::CellHourLoad::voice_user_seconds,
            &radio::CellHourLoad::offnet_voice_fraction})
        ASSERT_EQ(std::bit_cast<std::uint64_t>(want.*field),
                  std::bit_cast<std::uint64_t>(got.*field))
            << "slot " << slot;
    }
    for (std::size_t h = 0; h < kHoursPerDay; ++h) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(reference_offnet[h]),
                std::bit_cast<std::uint64_t>(day.offnet_minutes[h]));
      EXPECT_EQ(reference_attempts[h], day.voice_attempts[h]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChunkLoadPropertyTest,
                         ::testing::Values(3u, 41u, 2024u));

}  // namespace
}  // namespace cellscope
