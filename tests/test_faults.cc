// Deterministic fault injection: plan determinism, stream independence,
// spec parsing, and the end-to-end degraded-feed contract.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/faults.h"
#include "sim/simulator.h"

namespace cellscope::sim {
namespace {

FaultConfig busy_faults() {
  FaultConfig config;
  config.signaling_outages_per_week = 1.0;
  config.signaling_outage_mean_hours = 6.0;
  config.kpi_outages_per_week = 1.5;
  config.kpi_outage_mean_hours = 4.0;
  config.cell_outage_daily_prob = 0.01;
  config.observation_loss_rate = 0.05;
  config.kpi_record_loss_rate = 0.05;
  config.kpi_record_duplication_rate = 0.02;
  return config;
}

TEST(FaultConfig_, AnyIsFalseOnlyWhenEveryKnobIsZero) {
  EXPECT_FALSE(FaultConfig{}.any());
  FaultConfig config;
  config.observation_loss_rate = 0.01;
  EXPECT_TRUE(config.any());
  // Mean durations alone don't enable anything.
  FaultConfig durations_only;
  durations_only.signaling_outage_mean_hours = 48.0;
  durations_only.cell_outage_mean_days = 9.0;
  EXPECT_FALSE(durations_only.any());
}

TEST(FaultConfig_, ValidateRejectsBadKnobs) {
  FaultConfig config;
  config.observation_loss_rate = -0.1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = FaultConfig{};
  config.kpi_record_loss_rate = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = FaultConfig{};
  config.signaling_outages_per_week = -1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  EXPECT_NO_THROW(busy_faults().validate());
}

TEST(ParseFaultSpec, ParsesKnownKeys) {
  const auto config = parse_fault_spec(
      "loss=0.05,dup=0.01,sig_outages=2,sig_hours=3.5,kpi_outages=1,"
      "kpi_hours=8,cell_daily=0.004,cell_days=3");
  EXPECT_DOUBLE_EQ(config.observation_loss_rate, 0.05);
  EXPECT_DOUBLE_EQ(config.kpi_record_loss_rate, 0.05);
  EXPECT_DOUBLE_EQ(config.kpi_record_duplication_rate, 0.01);
  EXPECT_DOUBLE_EQ(config.signaling_outages_per_week, 2.0);
  EXPECT_DOUBLE_EQ(config.signaling_outage_mean_hours, 3.5);
  EXPECT_DOUBLE_EQ(config.kpi_outages_per_week, 1.0);
  EXPECT_DOUBLE_EQ(config.kpi_outage_mean_hours, 8.0);
  EXPECT_DOUBLE_EQ(config.cell_outage_daily_prob, 0.004);
  EXPECT_DOUBLE_EQ(config.cell_outage_mean_days, 3.0);
}

TEST(ParseFaultSpec, SpecificLossKeysOverrideIndependently) {
  const auto config = parse_fault_spec("obs_loss=0.1,kpi_loss=0.2");
  EXPECT_DOUBLE_EQ(config.observation_loss_rate, 0.1);
  EXPECT_DOUBLE_EQ(config.kpi_record_loss_rate, 0.2);
}

TEST(ParseFaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_fault_spec("bogus=1"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("loss"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("loss=abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("loss=2"), std::invalid_argument);
  EXPECT_TRUE(parse_fault_spec("").any() == false);
}

TEST(FaultPlan_, ZeroConfigBuildsDisabledPlan) {
  const auto plan = FaultPlan::build(FaultConfig{}, 42, 0, 97, 100);
  EXPECT_FALSE(plan.enabled());
  EXPECT_TRUE(plan.signaling_windows().empty());
  EXPECT_FALSE(plan.signaling_down(10, 3));
  EXPECT_FALSE(plan.kpi_feed_down(10, 3));
  EXPECT_FALSE(plan.cell_out(CellId{5}, 10));
  EXPECT_FALSE(plan.drop_observation(7, 10));
  EXPECT_FALSE(plan.drop_kpi_record(7, 10));
  EXPECT_FALSE(plan.duplicate_kpi_record(7, 10));
}

TEST(FaultPlan_, SameSeedSameConfigYieldsIdenticalPlans) {
  const auto config = busy_faults();
  const auto a = FaultPlan::build(config, 42, 0, 97, 200);
  const auto b = FaultPlan::build(config, 42, 0, 97, 200);
  ASSERT_EQ(a.signaling_windows().size(), b.signaling_windows().size());
  for (std::size_t i = 0; i < a.signaling_windows().size(); ++i) {
    EXPECT_EQ(a.signaling_windows()[i].start, b.signaling_windows()[i].start);
    EXPECT_EQ(a.signaling_windows()[i].end, b.signaling_windows()[i].end);
  }
  ASSERT_EQ(a.kpi_windows().size(), b.kpi_windows().size());
  EXPECT_EQ(a.cell_outage_cell_days(), b.cell_outage_cell_days());
  for (SimDay d = 0; d <= 97; ++d) {
    for (std::uint32_t id = 0; id < 50; ++id) {
      EXPECT_EQ(a.drop_observation(id, d), b.drop_observation(id, d));
      EXPECT_EQ(a.drop_kpi_record(id, d), b.drop_kpi_record(id, d));
      EXPECT_EQ(a.duplicate_kpi_record(id, d), b.duplicate_kpi_record(id, d));
    }
  }
}

TEST(FaultPlan_, DifferentSeedsYieldDifferentRealizations) {
  const auto config = busy_faults();
  const auto a = FaultPlan::build(config, 42, 0, 97, 200);
  const auto b = FaultPlan::build(config, 43, 0, 97, 200);
  int differences = 0;
  for (SimDay d = 0; d <= 97; ++d)
    for (std::uint32_t id = 0; id < 50; ++id)
      if (a.drop_observation(id, d) != b.drop_observation(id, d))
        ++differences;
  EXPECT_GT(differences, 0);
}

TEST(FaultPlan_, FaultFamiliesDrawIndependentStreams) {
  // Toggling one module's knobs must not perturb another module's plan:
  // the experiments stay comparable as fault dimensions are swept.
  auto base = busy_faults();
  auto kpi_heavy = base;
  kpi_heavy.kpi_outages_per_week = 5.0;
  kpi_heavy.kpi_record_loss_rate = 0.5;
  kpi_heavy.kpi_record_duplication_rate = 0.3;
  kpi_heavy.cell_outage_daily_prob = 0.2;

  const auto a = FaultPlan::build(base, 42, 0, 97, 200);
  const auto b = FaultPlan::build(kpi_heavy, 42, 0, 97, 200);

  // Signaling windows and observation-loss decisions are untouched.
  ASSERT_EQ(a.signaling_windows().size(), b.signaling_windows().size());
  for (std::size_t i = 0; i < a.signaling_windows().size(); ++i) {
    EXPECT_EQ(a.signaling_windows()[i].start, b.signaling_windows()[i].start);
    EXPECT_EQ(a.signaling_windows()[i].end, b.signaling_windows()[i].end);
  }
  for (SimDay d = 0; d <= 97; ++d)
    for (std::uint32_t id = 0; id < 50; ++id)
      EXPECT_EQ(a.drop_observation(id, d), b.drop_observation(id, d));
}

TEST(FaultPlan_, WindowsMatchTheHourBitmap) {
  auto config = busy_faults();
  const auto plan = FaultPlan::build(config, 7, 0, 97, 0);
  for (const auto& window : plan.signaling_windows()) {
    for (SimHour h = window.start; h < window.end; ++h) {
      EXPECT_TRUE(plan.signaling_down(
          static_cast<SimDay>(h / kHoursPerDay),
          static_cast<int>(h % kHoursPerDay)))
          << h;
    }
  }
  // The day mask is the hour bitmap, one bit per hour.
  for (SimDay d = -1; d <= 98; ++d)
    for (int h = 0; h < kHoursPerDay; ++h)
      EXPECT_EQ((plan.signaling_down_mask(d) >> h) & 1u,
                plan.signaling_down(d, h) ? 1u : 0u)
          << d << " " << h;
  // Total down-hours across days equals the bitmap population.
  int down_hours = 0;
  for (SimDay d = 0; d <= 97; ++d) down_hours += plan.signaling_down_hours(d);
  int window_hours = 0;
  for (const auto& w : plan.signaling_windows())
    for (SimHour h = w.start; h < w.end; ++h)
      if (!plan.signaling_down(static_cast<SimDay>(h / kHoursPerDay),
                               static_cast<int>(h % kHoursPerDay)))
        ADD_FAILURE();
      else
        ++window_hours;
  // Windows may overlap, so bitmap hours <= summed window hours.
  EXPECT_LE(down_hours, window_hours);
  EXPECT_GT(down_hours, 0);
}

TEST(FaultPlan_, RecordDecisionsApproximateTheConfiguredRate) {
  FaultConfig config;
  config.kpi_record_loss_rate = 0.10;
  const auto plan = FaultPlan::build(config, 42, 0, 97, 0);
  int dropped = 0;
  const int trials = 20'000;
  for (int k = 0; k < trials; ++k)
    if (plan.drop_kpi_record(static_cast<std::uint32_t>(k % 250),
                             static_cast<SimDay>(k / 250)))
      ++dropped;
  const double rate = static_cast<double>(dropped) / trials;
  EXPECT_NEAR(rate, 0.10, 0.01);
}

// --- End-to-end: the simulator under injected faults. ---

ScenarioConfig small_config() {
  ScenarioConfig config = smoke_scenario();
  config.num_users = 1'500;
  config.last_week = 11;  // keep the windowed runs fast
  config.seed = 99;
  return config;
}

TEST(SimulatorFaults, CleanRunKeepsQualityReportEmpty) {
  const auto data = run_scenario(small_config());
  EXPECT_TRUE(data.quality.empty());
}

TEST(SimulatorFaults, FaultedRunBooksLossesInTheQualityReport) {
  auto config = small_config();
  config.faults = uniform_loss_faults(0.10);
  const auto data = run_scenario(config);

  ASSERT_FALSE(data.quality.empty());
  const auto* obs = data.quality.find("user-observations");
  ASSERT_NE(obs, nullptr);
  EXPECT_GT(obs->expected_records, 0u);
  EXPECT_LT(obs->observed_records, obs->expected_records);
  EXPECT_NEAR(obs->completeness(), 0.90, 0.03);

  const auto* kpi = data.quality.find("kpi-feed");
  ASSERT_NE(kpi, nullptr);
  EXPECT_GT(kpi->expected_records, 0u);
  EXPECT_LT(kpi->observed_records, kpi->expected_records);
  EXPECT_NEAR(kpi->completeness(), 0.90, 0.05);

  const auto* events = data.quality.find("signaling-events");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->expected_records, 0u);
}

TEST(SimulatorFaults, KpiOnlyFaultsLeaveMobilityIdenticalToClean) {
  // Module isolation end-to-end: faults confined to the KPI feed must not
  // move a single mobility sample — the signaling-derived series are
  // bit-identical to the clean run.
  auto clean_config = small_config();
  auto faulted_config = small_config();
  faulted_config.faults.kpi_record_loss_rate = 0.2;
  faulted_config.faults.kpi_record_duplication_rate = 0.1;

  const auto clean = run_scenario(clean_config);
  const auto faulted = run_scenario(faulted_config);

  const auto& clean_gyration = clean.gyration_national.group(0);
  const auto& faulted_gyration = faulted.gyration_national.group(0);
  for (SimDay d = clean_gyration.first_day(); d <= clean_gyration.last_day();
       ++d) {
    ASSERT_EQ(clean_gyration.has(d), faulted_gyration.has(d)) << d;
    if (!clean_gyration.has(d)) continue;
    EXPECT_EQ(clean_gyration.value(d), faulted_gyration.value(d)) << d;
    EXPECT_EQ(clean_gyration.count(d), faulted_gyration.count(d)) << d;
  }
  // And the KPI feed did lose rows.
  EXPECT_LT(faulted.kpis.records().size(), clean.kpis.records().size());
  const auto* kpi = faulted.quality.find("kpi-feed");
  ASSERT_NE(kpi, nullptr);
  EXPECT_GT(kpi->duplicate_records, 0u);
}

TEST(SimulatorFaults, ObservationLossThinsMobilitySampleCounts) {
  auto clean_config = small_config();
  auto faulted_config = small_config();
  faulted_config.faults.observation_loss_rate = 0.25;

  const auto clean = run_scenario(clean_config);
  const auto faulted = run_scenario(faulted_config);

  const auto& clean_gyration = clean.gyration_national.group(0);
  const auto& faulted_gyration = faulted.gyration_national.group(0);
  std::uint64_t clean_samples = 0;
  std::uint64_t faulted_samples = 0;
  for (SimDay d = clean_gyration.first_day(); d <= clean_gyration.last_day();
       ++d) {
    clean_samples += clean_gyration.count(d);
    faulted_samples += faulted_gyration.count(d);
  }
  // ~25% of user-day records vanish; the survivors are an unbiased sample.
  const double kept =
      static_cast<double>(faulted_samples) / static_cast<double>(clean_samples);
  EXPECT_NEAR(kept, 0.75, 0.03);
  // KPI feed is untouched by observation loss.
  EXPECT_EQ(faulted.kpis.records().size(), clean.kpis.records().size());
}

}  // namespace
}  // namespace cellscope::sim
