// Run-health timeline: the slope/steady-state estimators over synthetic
// series, sampling mechanics (day boundaries, wall-clock fallback rate
// limit), the tracked-byte subsystem counters (a checkpointed run's and a
// store-streaming run's sim_bytes included), CSV/JSON export shape and the
// disabled-is-inert contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <span>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "obs/metrics.h"
#include "obs/runtime.h"
#include "obs/timeline.h"
#include "sim/simulator.h"
#include "store/dataset_io.h"

namespace cellscope::obs {
namespace {

// Same discipline as ObsTest: the timeline hangs off the process-wide obs
// runtime, so every test starts and ends with it disabled and clean.
class TimelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    reset();
  }
  void TearDown() override {
    set_enabled(false);
    reset();
  }
};

TimelineSample day_sample(std::int64_t day, long rss_kb) {
  TimelineSample s;
  s.day = day;
  s.rss_kb = rss_kb;
  return s;
}

TEST_F(TimelineTest, SlopeFitsExactLine) {
  // rss = 1000 + 25 * day: the fit must recover the slope exactly.
  std::vector<TimelineSample> samples;
  for (std::int64_t d = 0; d < 10; ++d)
    samples.push_back(day_sample(d, 1000 + 25 * static_cast<long>(d)));
  EXPECT_DOUBLE_EQ(rss_slope_kb_per_day(samples), 25.0);
}

TEST_F(TimelineTest, SlopeIgnoresFallbackSamplesAndDegenerateSeries) {
  std::vector<TimelineSample> samples;
  samples.push_back(day_sample(0, 1000));
  samples.push_back(day_sample(-1, 999999));  // fallback: must not skew
  samples.push_back(day_sample(1, 1010));
  samples.push_back(day_sample(-1, 1));
  samples.push_back(day_sample(2, 1020));
  EXPECT_DOUBLE_EQ(rss_slope_kb_per_day(samples), 10.0);

  // Fewer than two day samples -> no fit.
  EXPECT_DOUBLE_EQ(rss_slope_kb_per_day({}), 0.0);
  std::vector<TimelineSample> one{day_sample(3, 5000)};
  EXPECT_DOUBLE_EQ(rss_slope_kb_per_day(one), 0.0);
  // All samples on the same day -> zero denominator -> 0, not NaN.
  std::vector<TimelineSample> stacked{day_sample(4, 100), day_sample(4, 200)};
  EXPECT_TRUE(std::isfinite(rss_slope_kb_per_day(stacked)));
  EXPECT_DOUBLE_EQ(rss_slope_kb_per_day(stacked), 0.0);
}

TEST_F(TimelineTest, KpiDaySlopeFitsOnlyDaysFromTheFirstKpiDay) {
  // Warm-up growth to day 20, a release at day 21, then a flat KPI period
  // growing 2 kB/day: the all-days fit mixes them, the KPI-day fit sees
  // the KPI days only.
  std::vector<TimelineSample> samples;
  for (std::int64_t d = 0; d < 21; ++d)
    samples.push_back(day_sample(d, 50'000 + 500 * static_cast<long>(d)));
  samples.push_back(day_sample(-1, 1));  // fallback: still excluded
  for (std::int64_t d = 21; d < 98; ++d)
    samples.push_back(day_sample(d, 40'000 + 2 * static_cast<long>(d)));
  EXPECT_DOUBLE_EQ(rss_slope_kb_per_day(samples, 21), 2.0);
  EXPECT_NE(rss_slope_kb_per_day(samples), 2.0);
  EXPECT_DOUBLE_EQ(rss_slope_kb_per_day(samples, 0),
                   rss_slope_kb_per_day(samples));
  // No KPI day sampled yet -> no fit.
  EXPECT_DOUBLE_EQ(rss_slope_kb_per_day(samples, 200), 0.0);
}

TEST_F(TimelineTest, SteadyRssIsMedianOfSecondHalf) {
  // Warm-up ramp then plateau: the estimate must sit on the plateau, not
  // the mean of the whole series.
  std::vector<TimelineSample> samples;
  for (std::int64_t d = 0; d < 5; ++d)
    samples.push_back(day_sample(d, 100 * (static_cast<long>(d) + 1)));
  for (std::int64_t d = 5; d < 10; ++d) samples.push_back(day_sample(d, 2000));
  EXPECT_EQ(steady_rss_kb(samples), 2000);
  // Fallback samples excluded entirely.
  samples.push_back(day_sample(-1, 9999999));
  EXPECT_EQ(steady_rss_kb(samples), 2000);
  // No day samples -> 0.
  std::vector<TimelineSample> fallback_only{day_sample(-1, 500)};
  EXPECT_EQ(steady_rss_kb(fallback_only), 0);
}

TEST_F(TimelineTest, TrackedBytesAccumulatePerSubsystemAndReset) {
  reset_tracked_bytes();
  EXPECT_EQ(tracked_bytes(Subsystem::kSim), 0u);
  track_bytes(Subsystem::kSim, 100);
  track_bytes(Subsystem::kSim, 28);
  track_bytes(Subsystem::kStore, 512);
  track_bytes(Subsystem::kAnalysis, 7);
  EXPECT_EQ(tracked_bytes(Subsystem::kSim), 128u);
  EXPECT_EQ(tracked_bytes(Subsystem::kStore), 512u);
  EXPECT_EQ(tracked_bytes(Subsystem::kAnalysis), 7u);
  reset_tracked_bytes();
  EXPECT_EQ(tracked_bytes(Subsystem::kSim), 0u);
  EXPECT_EQ(tracked_bytes(Subsystem::kStore), 0u);
  EXPECT_EQ(tracked_bytes(Subsystem::kAnalysis), 0u);

  EXPECT_STREQ(subsystem_name(Subsystem::kSim), "sim");
  EXPECT_STREQ(subsystem_name(Subsystem::kStore), "store");
  EXPECT_STREQ(subsystem_name(Subsystem::kAnalysis), "analysis");
}

// sim_bytes counts the KPI rows the simulator retains. A checkpoint record
// is handed to the sink and freed the same day, so it adds nothing.
TEST_F(TimelineTest, SimBytesCountRetainedKpiRowsOnly) {
  class InMemoryCheckpoint final : public sim::CheckpointSink {
   public:
    [[nodiscard]] std::span<const std::uint8_t> resume_payload()
        const override {
      return {};
    }
    [[nodiscard]] SimDay resume_day() const override { return -1; }
    void on_day_complete(SimDay,
                         const std::vector<std::uint8_t>& state) override {
      log.insert(log.end(), state.begin(), state.end());
    }
    std::vector<std::uint8_t> log;
  };
  sim::ScenarioConfig config = sim::default_scenario();
  config.num_users = 300;
  config.last_week = 10;
  InMemoryCheckpoint checkpoint;
  set_enabled(true);
  const sim::Dataset ds = sim::Simulator{config}.run(nullptr, &checkpoint);
  ASSERT_FALSE(checkpoint.log.empty());
  ASSERT_FALSE(ds.kpis.records().empty());
  EXPECT_EQ(tracked_bytes(Subsystem::kSim),
            ds.kpis.records().size() * sizeof(telemetry::CellDayRecord));
}

// A run with a store sink hands every KPI row to the writer, so the
// simulator retains no KPI bytes; the store accounts for what it flushed.
TEST_F(TimelineTest, SimBytesCountNoKpiRowsOfASinkRun) {
  sim::ScenarioConfig config = sim::default_scenario();
  config.num_users = 300;
  config.last_week = 10;
  const std::string dir =
      ::testing::TempDir() + "timeline_sink_run_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  set_enabled(true);
  store::DatasetWriter writer{dir};
  const sim::Dataset ds = sim::Simulator{config}.run(&writer);
  ASSERT_GT(ds.kpis.row_count(), 0u);
  ASSERT_TRUE(ds.kpis.released());
  EXPECT_EQ(tracked_bytes(Subsystem::kSim), 0u);
  EXPECT_EQ(tracked_bytes(Subsystem::kStore),
            ds.kpis.row_count() * sizeof(telemetry::CellDayRecord));
  (void)writer.finish(ds);
  std::filesystem::remove_all(dir);
}

TEST_F(TimelineTest, DisabledTimelineIsInert) {
  ASSERT_FALSE(enabled());
  timeline().sample_day(0);
  timeline().maybe_sample(0.0);
  EXPECT_TRUE(timeline().empty());
  EXPECT_EQ(timeline().sample_count(), 0u);
}

TEST_F(TimelineTest, DaySamplesCaptureCountersAndLatencies) {
  set_enabled(true);
  reset_tracked_bytes();
  track_bytes(Subsystem::kSim, 4096);
  track_bytes(Subsystem::kStore, 1024);
  metrics().add("sim.kpi_rows", 500);
  metrics().add("sim.user_days", 250);
  timeline().record_checkpoint_ms(12.5);
  timeline().record_flush_ms(3.25);
  timeline().sample_day(0);
  timeline().sample_day(1);

  const auto samples = timeline().samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].day, 0);
  EXPECT_EQ(samples[1].day, 1);
  EXPECT_GE(samples[1].elapsed_seconds, samples[0].elapsed_seconds);
  EXPECT_GT(samples[0].rss_kb, 0);
  EXPECT_GE(samples[0].peak_rss_kb, samples[0].rss_kb / 2);  // same order
  EXPECT_EQ(samples[0].sim_bytes, 4096u);
  EXPECT_EQ(samples[0].store_bytes, 1024u);
  EXPECT_EQ(samples[0].analysis_bytes, 0u);
  EXPECT_DOUBLE_EQ(samples[0].checkpoint_ms, 12.5);
  EXPECT_DOUBLE_EQ(samples[0].flush_ms, 3.25);
  EXPECT_EQ(samples[0].open_worker_lanes, 0u);
  // Rates derive from cumulative registry counters; with counters set they
  // are positive once any wall time has elapsed.
  if (samples[1].elapsed_seconds > 0.0) {
    EXPECT_GT(samples[1].rows_per_sec, 0.0);
    EXPECT_GT(samples[1].users_per_sec, 0.0);
  }
}

TEST_F(TimelineTest, MaybeSampleRateLimitsAgainstLastSample) {
  set_enabled(true);
  timeline().sample_day(0);
  // Immediately after a sample, a long-interval fallback must decline...
  timeline().maybe_sample(3600.0);
  EXPECT_EQ(timeline().sample_count(), 1u);
  // ...and a zero-interval fallback must fire, tagged day = -1.
  timeline().maybe_sample(0.0);
  ASSERT_EQ(timeline().sample_count(), 2u);
  EXPECT_EQ(timeline().samples().back().day, -1);
  // First-ever sample always fires regardless of interval.
  reset();
  set_enabled(true);
  timeline().maybe_sample(3600.0);
  EXPECT_EQ(timeline().sample_count(), 1u);
}

TEST_F(TimelineTest, CsvAndJsonExportShape) {
  set_enabled(true);
  timeline().record_checkpoint_ms(1.5);
  timeline().sample_day(0);
  timeline().sample_day(1);
  timeline().maybe_sample(0.0);

  std::ostringstream csv;
  timeline().write_csv(csv);
  const std::string csv_text = csv.str();
  EXPECT_NE(csv_text.find(
                "day,elapsed_seconds,rss_kb,peak_rss_kb,sim_bytes,"
                "store_bytes,analysis_bytes,rows_per_sec,users_per_sec,"
                "checkpoint_ms,flush_ms,open_worker_lanes"),
            std::string::npos);
  // Header + one row per sample.
  const auto rows = std::count(csv_text.begin(), csv_text.end(), '\n');
  EXPECT_EQ(rows, 4);

  std::ostringstream json;
  timeline().write_json(json, 1);
  const std::string json_text = json.str();
  EXPECT_NE(json_text.find("\"schema\": \"cellscope-timeline/1\""),
            std::string::npos);
  EXPECT_NE(json_text.find("\"rss_slope_kb_per_day\""), std::string::npos);
  EXPECT_NE(json_text.find("\"rss_slope_kpi_kb_per_day\""),
            std::string::npos);
  EXPECT_NE(json_text.find("\"steady_rss_kb\""), std::string::npos);
  EXPECT_NE(json_text.find("\"day\": -1"), std::string::npos);
  int braces = 0, brackets = 0;
  for (const char c : json_text) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);

  // Summary accessors agree with the free functions over samples().
  const auto samples = timeline().samples();
  EXPECT_DOUBLE_EQ(timeline().slope_kb_per_day(),
                   rss_slope_kb_per_day(samples));
  EXPECT_EQ(timeline().steady_rss(), steady_rss_kb(samples));
}

TEST_F(TimelineTest, ResetDropsSamplesAndLatencies) {
  set_enabled(true);
  timeline().record_checkpoint_ms(9.0);
  timeline().sample_day(0);
  ASSERT_EQ(timeline().sample_count(), 1u);
  timeline().reset();
  EXPECT_TRUE(timeline().empty());
  timeline().sample_day(0);
  const auto samples = timeline().samples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0].checkpoint_ms, 0.0);  // latency cleared too
}

}  // namespace
}  // namespace cellscope::obs
