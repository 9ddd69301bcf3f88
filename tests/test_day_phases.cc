// The simulator's phases that fan out over the WorkerPool outside the
// per-user day: place building, distribution sealing and the KPI day close.
// Each must equal its serial form bit for bit at any worker count; the
// KPI day close is checked against the inline code it replaced, kept here
// as the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "audit/laws.h"
#include "mobility/place.h"
#include "obs/runtime.h"
#include "radio/scheduler.h"
#include "sim/faults.h"
#include "sim/kpi_day_closer.h"
#include "sim/phases.h"
#include "sim/pool.h"
#include "sim/run_state.h"
#include "sim/simulator.h"
#include "support/dataset_compare.h"
#include "telemetry/kpi.h"
#include "traffic/interconnect.h"

namespace cellscope::sim {
namespace {

using testsupport::bits;

ScenarioConfig phase_config() {
  ScenarioConfig config = default_scenario();
  config.num_users = 3'000;
  config.seed = 515;
  return config;
}

ScenarioConfig faulted(ScenarioConfig config) {
  config.faults.kpi_outages_per_week = 2.0;
  config.faults.cell_outage_daily_prob = 0.05;
  config.faults.kpi_record_loss_rate = 0.05;
  config.faults.kpi_record_duplication_rate = 0.03;
  return config;
}

// ------------------------------------------------------------ places

TEST(PlacesPhase, ChunkedBuildEqualsSerialForks) {
  Dataset ds;
  const ScenarioConfig config = phase_config();
  build_substrate(config, ds);
  const auto& subscribers = ds.population->subscribers;
  // More users than one chunk, and not a multiple of it.
  ASSERT_GT(subscribers.size(), 2 * kPlaceChunk);
  ASSERT_NE(subscribers.size() % kPlaceChunk, 0u);
  const Rng root{config.seed};

  const mobility::PlacesBuilder builder{*ds.geography};
  std::vector<mobility::UserPlaces> serial;
  for (std::size_t i = 0; i < subscribers.size(); ++i) {
    Rng user_rng = root.fork("user-places", i);
    serial.push_back(builder.build(subscribers[i], user_rng));
  }

  for (const int workers : {1, 3, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    WorkerPool pool{workers};
    const auto built =
        build_user_places(pool, *ds.geography, subscribers, root);
    ASSERT_EQ(built.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      const auto& a = serial[i];
      const auto& b = built[i];
      ASSERT_EQ(a.places.size(), b.places.size()) << "user " << i;
      for (std::size_t p = 0; p < a.places.size(); ++p) {
        EXPECT_EQ(a.places[p].kind, b.places[p].kind);
        EXPECT_EQ(a.places[p].district, b.places[p].district);
        EXPECT_EQ(a.places[p].county, b.places[p].county);
        EXPECT_EQ(bits(a.places[p].location.lat_deg),
                  bits(b.places[p].location.lat_deg));
        EXPECT_EQ(bits(a.places[p].location.lon_deg),
                  bits(b.places[p].location.lon_deg));
        EXPECT_EQ(bits(a.places[p].weight), bits(b.places[p].weight));
      }
      EXPECT_EQ(a.work_index, b.work_index) << "user " << i;
      EXPECT_EQ(a.getaway_index, b.getaway_index) << "user " << i;
      EXPECT_EQ(a.refuge_index, b.refuge_index) << "user " << i;
      EXPECT_EQ(a.errand_indices, b.errand_indices) << "user " << i;
      EXPECT_EQ(a.leisure_indices, b.leisure_indices) << "user " << i;
    }
  }
}

// ------------------------------------------------------------- seal

TEST(SealPhase, SealsEveryDistributionLikeTheSerialSeal) {
  const SimDay first = 30;
  const SimDay last = 33;
  Rng rng{99};
  Dataset serial;
  serial.gyration_distribution = analysis::DistributionSeries{first, last};
  serial.entropy_distribution = analysis::DistributionSeries{first, last};
  for (SimDay d = first; d <= last; ++d) {
    for (int i = 0; i < 5'000 + 100 * d; ++i) {
      serial.gyration_distribution.add(d, rng.lognormal(1.0, 1.2));
      serial.entropy_distribution.add(d, rng.chance(0.1) ? -0.0
                                                         : rng.uniform(0, 3));
    }
  }
  for (const int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    Dataset reference;
    reference.gyration_distribution = serial.gyration_distribution;
    reference.entropy_distribution = serial.entropy_distribution;
    Dataset parallel;
    parallel.gyration_distribution = serial.gyration_distribution;
    parallel.entropy_distribution = serial.entropy_distribution;
    WorkerPool pool{workers};
    for (SimDay d = first; d <= last; ++d) {
      reference.gyration_distribution.seal_day(d);
      reference.entropy_distribution.seal_day(d);
      seal_distributions(pool, parallel, d);
      EXPECT_TRUE(parallel.gyration_distribution.sealed_day(d));
      EXPECT_TRUE(parallel.entropy_distribution.sealed_day(d));
    }
    testsupport::expect_distribution_identical(
        reference.gyration_distribution, parallel.gyration_distribution,
        "gyration");
    testsupport::expect_distribution_identical(
        reference.entropy_distribution, parallel.entropy_distribution,
        "entropy");
  }
}

// ------------------------------------------------------ KPI day close

// Records every streamed day, rows included.
class RecordingSink final : public DatasetSink {
 public:
  void on_kpi_day(SimDay day,
                  std::span<const telemetry::CellDayRecord> rows) override {
    days.push_back(day);
    rows_seen.insert(rows_seen.end(), rows.begin(), rows.end());
  }
  std::vector<SimDay> days;
  std::vector<telemetry::CellDayRecord> rows_seen;
};

// One day's hand-built input: random offered load on a fraction of the
// cell-hours (a few past capacity, some carrying voice) and random
// national off-net minutes and call attempts.
KpiDayCloser::DayLoad hand_built_load(const radio::RadioTopology& topology,
                                      bool legacy, SimDay day) {
  Rng rng = Rng{7}.fork("load", static_cast<std::uint64_t>(day));
  KpiDayCloser::DayLoad load;
  load.cell_hours.assign(topology.cells().size() * kHoursPerDay, {});
  for (const auto& cell : topology.cells()) {
    if (!legacy && cell.rat != radio::Rat::k4G) continue;
    for (std::size_t h = 0; h < kHoursPerDay; ++h) {
      if (!rng.chance(0.7)) continue;
      auto& slot = load.cell_hours[cell.id.value() * kHoursPerDay + h];
      slot.connected_users = static_cast<double>(rng.uniform_int(1, 40));
      slot.offered_dl_mb =
          rng.chance(0.05) ? rng.uniform(25'000, 60'000) : rng.uniform(0, 900);
      slot.offered_ul_mb = rng.uniform(0, 90);
      slot.active_dl_user_seconds =
          rng.chance(0.1) ? 0.0 : rng.uniform(0, 20'000);
      slot.app_limited_dl_mbps =
          rng.uniform(0.5, 20) * slot.active_dl_user_seconds;
      if (rng.chance(0.4)) {
        slot.voice_dl_mb = rng.uniform(0, 3);
        slot.voice_ul_mb = rng.uniform(0, 3);
        slot.voice_user_seconds = rng.uniform(1, 5'000);
        slot.offnet_voice_fraction = rng.uniform(0, 0.6);
      }
    }
  }
  for (std::size_t h = 0; h < kHoursPerDay; ++h) {
    load.offnet_minutes[h] = rng.uniform(0, 2'000) * (day % 3 + 1);
    load.voice_attempts[h] = static_cast<std::uint64_t>(rng.uniform_int(0, 900));
  }
  return load;
}

// The same load as the closer reads it: the collected cells' slots, by
// ordinal. Uncollected cells carry no load in hand_built_load.
KpiDayCloser::DayLoad by_ordinal(const KpiDayCloser::DayLoad& load,
                                 const KpiDayCloser& closer,
                                 const radio::RadioTopology& topology) {
  KpiDayCloser::DayLoad out = load;
  out.cell_hours.assign(closer.collected_cells() * kHoursPerDay, {});
  for (const auto& cell : topology.cells()) {
    const std::uint32_t ordinal = closer.ordinal(cell.id);
    if (ordinal == KpiDayCloser::kNotCollected) continue;
    std::copy_n(load.cell_hours.begin() +
                    static_cast<std::ptrdiff_t>(cell.id.value() * kHoursPerDay),
                kHoursPerDay,
                out.cell_hours.begin() +
                    static_cast<std::ptrdiff_t>(ordinal * kHoursPerDay));
  }
  return out;
}

// The KPI day close as Simulator::run inlined it before the KpiDayCloser:
// one serial scheduler, a whole-day sample block per cell reduced in cell
// order, and the export faults, audit and sink on the same rows.
struct InlineReference {
  explicit InlineReference(const ScenarioConfig& config,
                           const radio::RadioTopology& topology)
      : interconnect(config.interconnect),
        reduction(config.kpi_reduction),
        samples(topology.cells().size()) {}

  traffic::VoiceInterconnect interconnect;
  radio::LteScheduler scheduler;
  radio::SchedulerCounters counters;
  std::uint64_t cells_scheduled = 0;
  telemetry::DailyReduction reduction;
  std::vector<telemetry::CellDaySamples> samples;  // by CellId value
};

void reference_close(const ScenarioConfig& config,
                     const radio::RadioTopology& topology,
                     const FaultPlan& fault_plan, SimDay day,
                     KpiDayCloser::DayLoad load, InlineReference& ref,
                     RunState& run_state, Dataset& ds, DatasetSink* sink) {
  const bool faults_on = fault_plan.enabled();
  auto& hour_loads = load.cell_hours;
  const auto& offnet_minutes = load.offnet_minutes;
  const auto& voice_attempts_hour = load.voice_attempts;
  for (auto& cell : ref.samples) cell.hours = 0;

  const int calibration_week = config.kpi_first_week;
  const double day_busy_hour =
      *std::max_element(offnet_minutes.begin(), offnet_minutes.end());
  if (iso_week(day) == calibration_week) {
    run_state.week9_busy_hour_minutes =
        std::max(run_state.week9_busy_hour_minutes, day_busy_hour);
  } else if (!run_state.interconnect_calibrated) {
    ref.interconnect.calibrate(
        std::max(run_state.week9_busy_hour_minutes, 1.0));
    run_state.interconnect_calibrated = true;
  }
  std::array<double, kHoursPerDay> hour_loss{};
  for (int h = 0; h < kHoursPerDay; ++h) {
    hour_loss[static_cast<std::size_t>(h)] =
        run_state.interconnect_calibrated
            ? ref.interconnect.dl_loss_pct(day, offnet_minutes[h])
            : ref.interconnect.params().base_loss_pct;
  }
  ds.offnet_busy_hour_minutes.set(day, day_busy_hour);
  const auto busy_hour_index = static_cast<std::size_t>(
      std::max_element(offnet_minutes.begin(), offnet_minutes.end()) -
      offnet_minutes.begin());
  ds.interconnect_busy_hour_loss_pct.set(day, hour_loss[busy_hour_index]);

  traffic::VoiceDayCalls vday;
  vday.day = day;
  for (int h = 0; h < kHoursPerDay; ++h) {
    const std::uint64_t attempts =
        voice_attempts_hour[static_cast<std::size_t>(h)];
    vday.attempts += attempts;
    if (attempts == 0) continue;
    double overflow_frac = 0.0;
    if (run_state.interconnect_calibrated) {
      const double cap = ref.interconnect.capacity(day);
      const double offered = offnet_minutes[static_cast<std::size_t>(h)];
      if (offered > cap && offered > 0.0)
        overflow_frac = (offered - cap) / offered;
    }
    const auto blocked = std::min(
        attempts, static_cast<std::uint64_t>(static_cast<double>(attempts) *
                                             overflow_frac *
                                             config.voice.offnet_fraction));
    const std::uint64_t through = attempts - blocked;
    const auto dropped = std::min(
        through, static_cast<std::uint64_t>(
                     static_cast<double>(through) *
                     hour_loss[static_cast<std::size_t>(h)] / 100.0));
    vday.blocked += blocked;
    vday.dropped += dropped;
    vday.completed += through - dropped;
  }
  ds.voice_calls.record_day(vday);

  std::uint64_t cells_scheduled = 0;
  const auto schedule_cell = [&](CellId cell_id) {
    ++cells_scheduled;
    if (faults_on && fault_plan.cell_out(cell_id, day)) return;
    const radio::Cell& cell = topology.cell(cell_id);
    for (int h = 0; h < kHoursPerDay; ++h) {
      if (faults_on && fault_plan.kpi_feed_down(day, h)) continue;
      auto& load_slot = hour_loads[cell_id.value() * kHoursPerDay +
                                   static_cast<std::size_t>(h)];
      if (load_slot.active_dl_user_seconds > 0.0)
        load_slot.app_limited_dl_mbps /= load_slot.active_dl_user_seconds;
      ref.samples[cell_id.value()].record(ref.scheduler.schedule_hour(
          cell, load_slot, hour_loss[static_cast<std::size_t>(h)],
          &ref.counters));
    }
  };
  if (config.collect_legacy_kpis) {
    for (const auto& cell : topology.cells()) schedule_cell(cell.id);
  } else {
    for (const auto cell_id : topology.lte_cells()) schedule_cell(cell_id);
  }
  ref.cells_scheduled += cells_scheduled;

  const analysis::CellGrouping partition = audit::region_partition(topology);
  const audit::MetricBounds bounds = audit::bounds_for(topology);
  // Cells with no recorded hours produce no row (dark, or not collected).
  std::vector<telemetry::CellDayRecord> day_records;
  for (std::size_t c = 0; c < ref.samples.size(); ++c) {
    if (ref.samples[c].hours == 0) continue;
    day_records.push_back(ref.samples[c].reduce(
        CellId{static_cast<std::uint32_t>(c)}, day, ref.reduction));
  }
  if (!faults_on) {
    if (config.audit) {
      audit::check_kpi_day(day, day_records, partition, bounds,
                           ds.audit_report);
      audit::check_kpi_aggregation(day_records, partition, ds.audit_report);
    }
    if (sink != nullptr && !day_records.empty())
      sink->on_kpi_day(day, day_records);
    ds.kpis.add_day(std::move(day_records));
    return;
  }
  std::vector<telemetry::CellDayRecord> kept;
  std::uint64_t observed = 0;
  for (const auto& record : day_records) {
    if (fault_plan.drop_kpi_record(record.cell.value(), day)) continue;
    ++observed;
    kept.push_back(record);
    if (fault_plan.duplicate_kpi_record(record.cell.value(), day)) {
      ds.quality.duplicate("kpi-feed");
      kept.push_back(record);
    }
  }
  ds.quality.expect("kpi-feed", day, cells_scheduled);
  ds.quality.observe("kpi-feed", day, observed);
  if (config.audit) {
    audit::check_kpi_day(day, kept, partition, bounds, ds.audit_report);
    audit::check_kpi_aggregation(kept, partition, ds.audit_report);
  }
  if (sink != nullptr && !kept.empty()) sink->on_kpi_day(day, kept);
  ds.kpis.add_day(std::move(kept));
}

struct CloserCase {
  int workers;
  bool faulted;
  bool legacy;
};

class KpiDayCloserTest : public ::testing::TestWithParam<CloserCase> {};

// Days spanning the calibration week's end (week 9 accumulates the busy
// hour, week 10 dimensions the trunks and loses calls), with the same
// hand-built load on both sides.
TEST_P(KpiDayCloserTest, MatchesTheInlineReference) {
  const CloserCase c = GetParam();
  ScenarioConfig config = phase_config();
  if (c.faulted) config = faulted(config);
  config.collect_legacy_kpis = c.legacy;
  config.audit = true;

  Dataset want;
  Dataset got;
  build_substrate(config, want);
  build_substrate(config, got);
  const radio::RadioTopology& topology = *got.topology;
  const FaultPlan plan =
      FaultPlan::build(config.faults, config.seed, config.first_day(),
                       config.last_day(), topology.cells().size());
  ASSERT_EQ(plan.enabled(), c.faulted);
  RunState want_state{{}, {}};
  RunState got_state{{}, {}};
  InlineReference ref{config, topology};
  RecordingSink want_sink;
  RecordingSink got_sink;

  WorkerPool pool{c.workers};
  KpiDayCloser closer{config, topology, plan, pool};
  const SimDay week10 = week_start_day(10);
  for (SimDay day = week10 - 3; day <= week10 + 3; ++day) {
    SCOPED_TRACE("day " + std::to_string(day));
    const auto load = hand_built_load(topology, c.legacy, day);
    const std::size_t want_before = want.kpis.records().size();
    reference_close(config, topology, plan, day, load, ref, want_state, want,
                    &want_sink);
    closer.begin_day(day);
    closer.day_load() = by_ordinal(load, closer, topology);
    const std::uint64_t rows = closer.close(got_state, got, &got_sink);
    EXPECT_EQ(rows, want.kpis.records().size() - want_before);
  }

  testsupport::expect_datasets_identical(want, got);
  EXPECT_EQ(want_sink.days, got_sink.days);
  ASSERT_EQ(want_sink.rows_seen.size(), got_sink.rows_seen.size());
  for (std::size_t i = 0; i < want_sink.rows_seen.size(); ++i) {
    EXPECT_EQ(want_sink.rows_seen[i].cell, got_sink.rows_seen[i].cell);
    EXPECT_EQ(bits(want_sink.rows_seen[i].tti_utilization),
              bits(got_sink.rows_seen[i].tti_utilization));
  }
  EXPECT_EQ(bits(want_state.week9_busy_hour_minutes),
            bits(got_state.week9_busy_hour_minutes));
  EXPECT_EQ(want_state.interconnect_calibrated,
            got_state.interconnect_calibrated);
  EXPECT_GT(got.audit_report.checks_evaluated(), 0u);
  EXPECT_EQ(want.audit_report.checks_evaluated(),
            got.audit_report.checks_evaluated());
  EXPECT_EQ(want.audit_report.violations().size(),
            got.audit_report.violations().size());

  // The scheduler totals: every cell-hour counted once, whichever worker
  // scheduled it.
  EXPECT_EQ(ref.cells_scheduled, closer.counters().cells_scheduled);
  EXPECT_EQ(ref.counters.hours_scheduled,
            closer.counters().scheduler.hours_scheduled);
  EXPECT_EQ(ref.counters.hours_dl_saturated,
            closer.counters().scheduler.hours_dl_saturated);
  EXPECT_GT(closer.counters().scheduler.hours_dl_saturated, 0u);
  EXPECT_EQ(ref.interconnect.hours_evaluated(),
            closer.interconnect().hours_evaluated());
  EXPECT_EQ(ref.interconnect.hours_saturated(),
            closer.interconnect().hours_saturated());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, KpiDayCloserTest,
    ::testing::Values(CloserCase{1, false, false}, CloserCase{8, false, false},
                      CloserCase{1, true, false}, CloserCase{8, true, false},
                      CloserCase{3, false, true}, CloserCase{4, true, true}),
    [](const auto& info) {
      return "threads" + std::to_string(info.param.workers) +
             (info.param.faulted ? "_faulted" : "_clean") +
             (info.param.legacy ? "_legacy" : "");
    });

// A serving cell the day does not collect has no ordinal, and a chunk
// load refuses it without touching a slot: the day grid it merges into
// stays zero.
TEST(KpiDayCloserLoad, RefusesAnUncollectedServingCell) {
  const ScenarioConfig config = phase_config();
  ASSERT_FALSE(config.collect_legacy_kpis);
  Dataset ds;
  build_substrate(config, ds);
  const radio::RadioTopology& topology = *ds.topology;
  const FaultPlan plan;
  WorkerPool pool{2};
  KpiDayCloser closer{config, topology, plan, pool};
  ASSERT_EQ(closer.collected_cells(), topology.lte_cells().size());

  const auto legacy = std::find_if(
      topology.cells().begin(), topology.cells().end(),
      [](const radio::Cell& cell) { return cell.rat != radio::Rat::k4G; });
  ASSERT_NE(legacy, topology.cells().end());
  EXPECT_EQ(closer.ordinal(legacy->id), KpiDayCloser::kNotCollected);
  EXPECT_EQ(closer.ordinal(topology.lte_cells().back()),
            topology.lte_cells().size() - 1);

  ChunkLoad unsized;
  EXPECT_THROW((void)unsized.at(0, 0), std::logic_error);
  EXPECT_EQ(unsized.touched(), 0u);

  ChunkLoad chunk;
  chunk.size_for(closer.collected_cells());
  EXPECT_THROW((void)chunk.at(closer.ordinal(legacy->id), 5),
               std::logic_error);
  EXPECT_THROW(
      (void)chunk.at(static_cast<std::uint32_t>(closer.collected_cells()), 0),
      std::logic_error);
  EXPECT_EQ(chunk.touched(), 0u);

  closer.begin_day(week_start_day(10));
  chunk.merge_into(closer.day_load());
  for (const radio::CellHourLoad& slot : closer.day_load().cell_hours) {
    EXPECT_EQ(bits(slot.connected_users), 0u);
    EXPECT_EQ(bits(slot.offered_dl_mb), 0u);
  }

  // A day load sized for other cells is refused before any slot moves.
  chunk.at(0, 3).connected_users = 1.0;
  KpiDayCloser::DayLoad other;
  other.cell_hours.resize(kHoursPerDay);
  EXPECT_THROW(chunk.merge_into(other), std::logic_error);
  EXPECT_EQ(bits(other.cell_hours[3].connected_users), 0u);
  EXPECT_EQ(chunk.touched(), 1u);
}

// A cell in a whole-day outage, or on a day whose KPI feed is down for all
// 24 hours, records no hour and reduces to no row; its load is still
// consumed, so the next day starts from zero.
TEST(KpiDayCloserLoad, DarkAndFeedDownCellsReduceToNoRow) {
  ScenarioConfig config = phase_config();
  config.faults.kpi_outages_per_week = 3.0;
  config.faults.kpi_outage_mean_hours = 60.0;
  config.faults.cell_outage_daily_prob = 0.05;
  Dataset ds;
  build_substrate(config, ds);
  const radio::RadioTopology& topology = *ds.topology;
  const FaultPlan plan =
      FaultPlan::build(config.faults, config.seed, config.first_day(),
                       config.last_day(), topology.cells().size());
  WorkerPool pool{3};
  KpiDayCloser closer{config, topology, plan, pool};
  RunState state{{}, {}};

  SimDay feed_down = -1;
  SimDay partly_dark = -1;
  for (SimDay day = config.kpi_first_day(); day <= config.last_day(); ++day) {
    const int down = plan.kpi_down_hours(day);
    std::size_t dark = 0;
    for (const CellId cell : topology.lte_cells())
      if (plan.cell_out(cell, day)) ++dark;
    if (down == kHoursPerDay && feed_down < 0) feed_down = day;
    if (down < kHoursPerDay && dark > 0 && partly_dark < 0) partly_dark = day;
  }
  ASSERT_GE(feed_down, 0) << "no day with the KPI feed down all day";
  ASSERT_GE(partly_dark, 0) << "no collected day with a dark cell";

  // Ascending, as a run closes its days.
  for (const SimDay day : {std::min(feed_down, partly_dark),
                           std::max(feed_down, partly_dark)}) {
    SCOPED_TRACE("day " + std::to_string(day));
    closer.begin_day(day);
    closer.day_load() =
        by_ordinal(hand_built_load(topology, false, day), closer, topology);
    const std::size_t before = ds.kpis.records().size();
    (void)closer.close(state, ds, nullptr);
    const std::span<const telemetry::CellDayRecord> rows{
        ds.kpis.records().data() + before,
        ds.kpis.records().size() - before};
    if (day == feed_down) {
      EXPECT_TRUE(rows.empty());
    } else {
      std::vector<CellId> lit;
      for (const CellId cell : topology.lte_cells())
        if (!plan.cell_out(cell, day)) lit.push_back(cell);
      ASSERT_EQ(rows.size(), lit.size());
      for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(rows[i].cell, lit[i]);
    }
    for (const radio::CellHourLoad& slot : closer.day_load().cell_hours)
      EXPECT_EQ(bits(slot.connected_users), 0u);
  }
}

// The same totals as the run publishes them: a whole simulation's
// scheduler.* counters are equal at 1 and 8 workers, clean and faulted.
TEST(KpiDayCloserTotals, PublishedSchedulerTotalsEqualAtOneAndEightWorkers) {
  for (const bool with_faults : {false, true}) {
    SCOPED_TRACE(with_faults ? "faulted" : "clean");
    ScenarioConfig config = phase_config();
    config.num_users = 1'200;
    config.user_chunk = 128;
    if (with_faults) config = faulted(config);
    std::array<std::array<std::uint64_t, 3>, 2> totals{};
    for (const int i : {0, 1}) {
      config.worker_threads = i == 0 ? 1 : 8;
      obs::reset();
      obs::set_enabled(true);
      (void)run_scenario(config);
      obs::set_enabled(false);
      const auto& registry = obs::metrics();
      totals[static_cast<std::size_t>(i)] = {
          registry.counter_value("scheduler.cells_scheduled"),
          registry.counter_value("scheduler.hours_scheduled"),
          registry.counter_value("scheduler.hours_dl_saturated")};
      obs::reset();
    }
    EXPECT_GT(totals[0][0], 0u);
    EXPECT_GT(totals[0][1], 0u);
    EXPECT_EQ(totals[0], totals[1]);
  }
}

}  // namespace
}  // namespace cellscope::sim
