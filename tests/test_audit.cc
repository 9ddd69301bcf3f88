// The conservation audit, audited.
//
// Two halves. The property half: clean runs — any seed, faults on or off,
// audited in-process or post-hoc — must produce a report with zero
// violations and nonzero checks under every registered law. The mutation
// half: for each law, corrupt exactly one accumulator the law closes over
// and prove the audit fires — under that law and ONLY that law. A check
// that cannot fail is not a check, so every law earns its place here by
// catching its own planted bug.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "audit/laws.h"
#include "audit/report.h"
#include "sim/dataset_audit.h"
#include "sim/simulator.h"
#include "store/dataset_io.h"
#include "store/format.h"

namespace cellscope::audit {
namespace {

// Every dataset-side law the in-process audit must exercise on a clean
// run (store-reconcile lives in the store layer and is tested below).
constexpr const char* kDatasetLaws[] = {
    "kpi-partition",   "kpi-aggregation",   "kpi-range",
    "voice-accounting", "quality-closure",  "signaling-balance",
    "mobility-range",
};

void expect_clean_with_all_laws(const AuditReport& report) {
  EXPECT_TRUE(report.clean());
  for (const AuditViolation& v : report.violations())
    ADD_FAILURE() << "[" << v.law << "] " << v.subject << ": " << v.detail;
  EXPECT_GT(report.checks_evaluated(), 0u);
  for (const char* law : kDatasetLaws)
    EXPECT_GT(report.checks_for(law), 0u) << law << " never ran";
}

// A single violation, and no collateral reports under any other law.
void expect_only_law_fired(const AuditReport& report, std::string_view law,
                           std::uint64_t count = 1) {
  EXPECT_EQ(report.violations_for(law), count);
  EXPECT_EQ(report.violations().size(), count)
      << "a law other than " << law << " also fired";
}

// ---------------------------------------------------------------- clean

sim::ScenarioConfig audited_smoke(std::uint64_t seed) {
  sim::ScenarioConfig config = sim::smoke_scenario();
  config.seed = seed;
  config.audit = true;
  return config;
}

TEST(AuditClean, InProcessAuditHoldsAcrossSeeds) {
  for (const std::uint64_t seed : {1u, 99u}) {
    const sim::Dataset ds = sim::run_scenario(audited_smoke(seed));
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_clean_with_all_laws(ds.audit_report);
  }
}

TEST(AuditClean, FaultedRunStillSatisfiesEveryLaw) {
  // The laws close over model-side quantities and gap-excluded telemetry,
  // so measurement-plane damage must not read as a conservation failure.
  sim::ScenarioConfig config = audited_smoke(31337);
  config.faults.signaling_outages_per_week = 1.0;
  config.faults.signaling_outage_mean_hours = 6.0;
  config.faults.observation_loss_rate = 0.05;
  config.faults.kpi_record_loss_rate = 0.02;
  config.faults.kpi_record_duplication_rate = 0.01;
  config.faults.cell_outage_daily_prob = 0.02;
  const sim::Dataset ds = sim::run_scenario(config);
  ASSERT_FALSE(ds.quality.empty());
  expect_clean_with_all_laws(ds.audit_report);
}

TEST(AuditClean, PostHocAuditMatchesInProcess) {
  // Auditing a finished Dataset must evaluate exactly the checks the
  // in-process hooks evaluated: both walk the same day runs.
  const sim::Dataset ds = sim::run_scenario(audited_smoke(7));
  const AuditReport post_hoc = sim::audit_dataset(ds);
  expect_clean_with_all_laws(post_hoc);
  for (const char* law : kDatasetLaws)
    EXPECT_EQ(post_hoc.checks_for(law), ds.audit_report.checks_for(law))
        << law;
}

TEST(AuditClean, UnauditedRunRecordsNoChecks) {
  sim::ScenarioConfig config = audited_smoke(7);
  config.audit = false;
  const sim::Dataset ds = sim::run_scenario(config);
  EXPECT_EQ(ds.audit_report.checks_evaluated(), 0u);
  EXPECT_TRUE(ds.audit_report.clean());
}

// ------------------------------------------------------ mutation matrix

// A two-region partition over three cells, for law-level mutations that
// need no simulated topology.
analysis::CellGrouping tiny_partition() {
  analysis::CellGrouping partition;
  partition.names = {"north", "south"};
  partition.group_of = {0, 0, 1};
  return partition;
}

telemetry::CellDayRecord clean_row(std::uint32_t cell, SimDay day) {
  telemetry::CellDayRecord row;
  row.cell = CellId{cell};
  row.day = day;
  row.dl_volume_mb = 100.0;
  row.ul_volume_mb = 10.0;
  row.active_dl_users = 5.0;
  row.tti_utilization = 0.5;
  row.user_dl_throughput_mbps = 20.0;
  row.active_data_seconds = 1000.0;
  row.connected_users = 40.0;
  row.voice_volume_mb = 8.0;
  row.simultaneous_voice_users = 2.0;
  row.voice_dl_loss_pct = 0.1;
  row.voice_ul_loss_pct = 0.1;
  return row;
}

MetricBounds tiny_bounds() {
  MetricBounds bounds;
  bounds.entropy_max = 3.0;
  return bounds;
}

TEST(AuditMutation, CleanRowsPassTheDayChecks) {
  AuditReport report;
  const std::vector<telemetry::CellDayRecord> rows = {
      clean_row(0, 5), clean_row(1, 5), clean_row(2, 5)};
  check_kpi_day(5, rows, tiny_partition(), tiny_bounds(), report);
  EXPECT_TRUE(report.clean());
  EXPECT_GT(report.checks_for("kpi-range"), 0u);
  EXPECT_GT(report.checks_for("kpi-partition"), 0u);
}

TEST(AuditMutation, OutOfRangeTtiTripsKpiRangeOnly) {
  AuditReport report;
  std::vector<telemetry::CellDayRecord> rows = {clean_row(0, 5),
                                                clean_row(1, 5)};
  rows[1].tti_utilization = 1.5;  // a scheduler cannot use 150% of its TTIs
  check_kpi_day(5, rows, tiny_partition(), tiny_bounds(), report);
  expect_only_law_fired(report, "kpi-range");
  EXPECT_NE(report.violations()[0].detail.find("tti_utilization"),
            std::string::npos);
}

TEST(AuditMutation, NaNVolumeTripsKpiRangeOnly) {
  AuditReport report;
  std::vector<telemetry::CellDayRecord> rows = {clean_row(0, 5)};
  rows[0].dl_volume_mb = std::numeric_limits<double>::quiet_NaN();
  check_kpi_day(5, rows, tiny_partition(), tiny_bounds(), report);
  expect_only_law_fired(report, "kpi-range");
}

TEST(AuditMutation, UnpartitionedCellTripsKpiPartitionOnly) {
  AuditReport report;
  // Cell 9 exists in no region: a row the regional sums would silently
  // drop, which is exactly the loss the partition law exists to catch.
  const std::vector<telemetry::CellDayRecord> rows = {clean_row(0, 5),
                                                      clean_row(9, 5)};
  check_kpi_day(5, rows, tiny_partition(), tiny_bounds(), report);
  expect_only_law_fired(report, "kpi-partition");
}

TEST(AuditMutation, MisfiledDayTripsKpiPartitionOnly) {
  AuditReport report;
  const std::vector<telemetry::CellDayRecord> rows = {clean_row(0, 6)};
  check_kpi_day(5, rows, tiny_partition(), tiny_bounds(), report);
  expect_only_law_fired(report, "kpi-partition");
}

TEST(AuditMutation, SplitDayRunTripsKpiAggregationOnly) {
  // A day's rows split across two runs (a corrupted store ordering): the
  // analysis reduction keeps only the last run, the direct scan sees both,
  // and the cross-layer comparison must notice the disagreement.
  telemetry::KpiStore kpis;
  telemetry::CellDayRecord first = clean_row(0, 5);
  telemetry::CellDayRecord second = clean_row(1, 5);
  second.dl_volume_mb = 50.0;
  second.connected_users = 10.0;
  second.voice_volume_mb = 1.0;
  kpis.add_day({first, clean_row(2, 6), second});
  AuditReport report;
  check_kpi_aggregation(kpis.records(), tiny_partition(), report);
  EXPECT_GT(report.violations_for("kpi-aggregation"), 0u);
  EXPECT_EQ(report.violations().size(),
            report.violations_for("kpi-aggregation"));
}

TEST(AuditMutation, CleanKpiStorePassesAggregation) {
  telemetry::KpiStore kpis;
  kpis.add_day({clean_row(0, 5), clean_row(1, 5), clean_row(2, 5)});
  kpis.add_day({clean_row(0, 6), clean_row(2, 6)});
  AuditReport report;
  check_kpi_aggregation(kpis.records(), tiny_partition(), report);
  EXPECT_TRUE(report.clean());
  EXPECT_GT(report.checks_for("kpi-aggregation"), 0u);
}

TEST(AuditMutation, UnclassifiedAttemptTripsVoiceAccountingOnly) {
  traffic::VoiceCallLedger ledger;
  // 10 attempts, 9 classified: one call vanished between the voice model
  // and the interconnect.
  ledger.record_day({5, 10, 7, 1, 1});
  AuditReport report;
  check_voice_accounting(ledger, report);
  expect_only_law_fired(report, "voice-accounting");
}

TEST(AuditMutation, OutOfOrderLedgerTripsVoiceAccountingOnly) {
  traffic::VoiceCallLedger ledger;
  ledger.record_day({6, 10, 10, 0, 0});
  ledger.record_day({5, 10, 10, 0, 0});
  AuditReport report;
  check_voice_accounting(ledger, report);
  expect_only_law_fired(report, "voice-accounting");
}

TEST(AuditMutation, CleanLedgerPassesVoiceAccounting) {
  traffic::VoiceCallLedger ledger;
  ledger.record_day({5, 10, 8, 1, 1});
  ledger.record_day({6, 4, 4, 0, 0});
  AuditReport report;
  check_voice_accounting(ledger, report);
  EXPECT_TRUE(report.clean());
  EXPECT_GT(report.checks_for("voice-accounting"), 0u);
}

TEST(AuditMutation, DoctoredFeedTotalTripsQualityClosureOnly) {
  telemetry::FeedQualityReport quality;
  quality.expect("kpi", 5, 10);
  quality.observe("kpi", 5, 8);
  // Inflate the feed total without touching the per-day ledger: the
  // generated = delivered + lost closure no longer closes.
  quality.feed("kpi").observed_records += 5;
  AuditReport report;
  check_quality_closure(quality, report);
  expect_only_law_fired(report, "quality-closure");
}

TEST(AuditMutation, OverDeliveredDayTripsQualityClosureOnly) {
  telemetry::FeedQualityReport quality;
  quality.expect("signaling", 3, 4);
  quality.observe("signaling", 3, 6);  // more rows delivered than generated
  AuditReport report;
  check_quality_closure(quality, report);
  expect_only_law_fired(report, "quality-closure");
}

TEST(AuditMutation, UnbalancedEventPairTripsSignalingBalanceOnly) {
  telemetry::SignalingProbe probe;
  telemetry::DailySignalingCounts day;
  day.day = 3;
  using traffic::SignalingEventType;
  day.total[static_cast<std::size_t>(SignalingEventType::kAttach)] = 10;
  // 9 authentications for 10 attaches: one attach skipped AKA.
  day.total[static_cast<std::size_t>(SignalingEventType::kAuthentication)] =
      9;
  day.total[static_cast<std::size_t>(
      SignalingEventType::kSessionEstablishment)] = 10;
  probe.restore_day(day);
  AuditReport report;
  check_signaling_balance(probe, report);
  expect_only_law_fired(report, "signaling-balance");
}

TEST(AuditMutation, FailuresAboveTotalTripSignalingBalanceOnly) {
  telemetry::SignalingProbe probe;
  telemetry::DailySignalingCounts day;
  day.day = 3;
  using traffic::SignalingEventType;
  constexpr auto kHandover =
      static_cast<std::size_t>(SignalingEventType::kHandover);
  day.total[kHandover] = 4;
  day.failures[kHandover] = 7;
  probe.restore_day(day);
  AuditReport report;
  check_signaling_balance(probe, report);
  expect_only_law_fired(report, "signaling-balance");
}

TEST(AuditMutation, EntropyAboveLogSitesTripsMobilityRangeOnly) {
  analysis::GroupedDailySeries entropy(1, 0, 2);
  analysis::GroupedDailySeries gyration(1, 0, 2);
  entropy.add(0, 1, tiny_bounds().entropy_max + 0.5);
  gyration.add(0, 1, 4.0);
  AuditReport report;
  check_mobility_ranges(entropy, gyration, {}, {}, tiny_bounds(), report);
  expect_only_law_fired(report, "mobility-range");
}

TEST(AuditMutation, NegativeGyrationTripsMobilityRangeOnly) {
  analysis::GroupedDailySeries entropy(1, 0, 2);
  analysis::GroupedDailySeries gyration(1, 0, 2);
  entropy.add(0, 1, 1.0);
  gyration.add(0, 1, -0.5);  // a radius cannot be negative
  AuditReport report;
  check_mobility_ranges(entropy, gyration, {}, {}, tiny_bounds(), report);
  expect_only_law_fired(report, "mobility-range");
}

TEST(AuditMutation, DisorderedPercentileBandTripsMobilityRangeOnly) {
  analysis::DistributionSeries dist(0, 2);
  stats::Summary summary;
  summary.n = 10;
  summary.mean = 1.0;
  summary.p10 = 2.0;  // p10 above p25: bands out of order
  summary.p25 = 1.0;
  summary.median = 1.2;
  summary.p75 = 1.5;
  summary.p90 = 1.8;
  dist.restore_day(1, summary);
  AuditReport report;
  analysis::GroupedDailySeries none;
  check_mobility_ranges(none, none, dist, {}, tiny_bounds(), report);
  expect_only_law_fired(report, "mobility-range");
}

// --------------------------------------- checkpoint-consistency (resume)
//
// This law only runs for RESUMED runs (it is gated on Dataset::recovery in
// sim/dataset_audit.cc, and deliberately absent from kDatasetLaws above —
// a fresh run has no restore point to reconcile). The clean-path + law
// coverage over a real resumed simulation lives in test_determinism; here
// the mutation half proves each of its three checks fires.

struct ResumeLedgers {
  telemetry::KpiStore kpis;
  traffic::VoiceCallLedger voice;
  telemetry::SignalingProbe signaling;
};

// Final ledgers of a run resumed after day 5: the prefix (days <= 5) holds
// 2 KPI rows, 10 voice attempts and 1 signaling day.
ResumeLedgers resumed_ledgers() {
  ResumeLedgers ledgers;
  ledgers.kpis.add_day({clean_row(0, 5), clean_row(1, 5)});
  ledgers.kpis.add_day({clean_row(0, 6)});
  ledgers.voice.record_day({5, 10, 8, 1, 1});
  ledgers.voice.record_day({6, 4, 4, 0, 0});
  telemetry::DailySignalingCounts d5;
  d5.day = 5;
  ledgers.signaling.restore_day(d5);
  telemetry::DailySignalingCounts d6;
  d6.day = 6;
  ledgers.signaling.restore_day(d6);
  return ledgers;
}

TEST(AuditMutation, CleanResumeRecordPassesCheckpointConsistency) {
  const ResumeLedgers ledgers = resumed_ledgers();
  AuditReport report;
  check_checkpoint_consistency(5, 2, 10, 1, ledgers.kpis, ledgers.voice,
                               ledgers.signaling, report);
  EXPECT_TRUE(report.clean());
  EXPECT_GT(report.checks_for("checkpoint-consistency"), 0u);
}

TEST(AuditMutation, ReplayedKpiDayTripsCheckpointConsistencyOnly) {
  // The restore recorded 1 row but the final prefix holds 2: the resumed
  // run re-simulated a checkpointed day and double-counted its rows.
  const ResumeLedgers ledgers = resumed_ledgers();
  AuditReport report;
  check_checkpoint_consistency(5, 1, 10, 1, ledgers.kpis, ledgers.voice,
                               ledgers.signaling, report);
  expect_only_law_fired(report, "checkpoint-consistency");
}

TEST(AuditMutation, LostVoiceAttemptsTripCheckpointConsistencyOnly) {
  // The restore held 14 attempts but the final prefix only sums to 10:
  // the resume dropped checkpointed voice days on the floor.
  const ResumeLedgers ledgers = resumed_ledgers();
  AuditReport report;
  check_checkpoint_consistency(5, 2, 14, 1, ledgers.kpis, ledgers.voice,
                               ledgers.signaling, report);
  expect_only_law_fired(report, "checkpoint-consistency");
}

TEST(AuditMutation, SignalingDayCountMismatchTripsCheckpointConsistencyOnly) {
  const ResumeLedgers ledgers = resumed_ledgers();
  AuditReport report;
  check_checkpoint_consistency(5, 2, 10, 2, ledgers.kpis, ledgers.voice,
                               ledgers.signaling, report);
  expect_only_law_fired(report, "checkpoint-consistency");
}

// ------------------------------------------------- store reconciliation

sim::ScenarioConfig store_config() {
  sim::ScenarioConfig config = sim::default_scenario();
  config.num_users = 600;
  config.seed = 77;
  config.user_chunk = 128;
  return config;
}

std::string fresh_store(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "cellstore_audit_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// A run that streams its KPI rows to a store keeps none of them, so the
// in-process per-day hook is the only place kpi-aggregation sees them. It
// must still check every day: as many checks as a sinkless run, and as
// many as a post-hoc audit of the rows the store holds.
TEST(AuditClean, SinkRunChecksEveryKpiDay) {
  const sim::ScenarioConfig config = audited_smoke(7);
  const sim::Dataset sinkless = sim::run_scenario(config);
  const std::string dir = fresh_store("sink_run");
  const sim::Dataset streamed = store::simulate_to_store(config, dir);
  ASSERT_TRUE(streamed.kpis.released());
  expect_clean_with_all_laws(streamed.audit_report);
  for (const char* law : kDatasetLaws)
    EXPECT_EQ(streamed.audit_report.checks_for(law),
              sinkless.audit_report.checks_for(law))
        << law;

  const store::ReadOutcome stored = store::read_dataset(dir, config);
  ASSERT_TRUE(stored.complete()) << stored.error;
  const AuditReport post_hoc = sim::audit_dataset(*stored.dataset);
  for (const char* law : kDatasetLaws)
    EXPECT_EQ(post_hoc.checks_for(law), streamed.audit_report.checks_for(law))
        << law;
}

TEST(AuditStore, PristineStoreReconciles) {
  const std::string dir = fresh_store("clean");
  (void)store::simulate_to_store(store_config(), dir);
  const AuditReport report = store::audit_store(dir);
  EXPECT_TRUE(report.clean());
  for (const AuditViolation& v : report.violations())
    ADD_FAILURE() << v.subject << ": " << v.detail;
  EXPECT_GT(report.checks_for("store-reconcile"), 0u);
}

TEST(AuditStore, FlippedFeedByteTripsStoreReconcileOnly) {
  const std::string dir = fresh_store("flip");
  (void)store::simulate_to_store(store_config(), dir);
  const std::string path = dir + "/" + store::feed_file_name("kpis");
  const auto size = std::filesystem::file_size(path);
  std::fstream file{path, std::ios::in | std::ios::out | std::ios::binary};
  ASSERT_TRUE(file.good());
  file.seekg(static_cast<std::streamoff>(size / 2));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);  // xor so the byte always changes
  file.seekp(static_cast<std::streamoff>(size / 2));
  file.write(&byte, 1);
  file.close();
  const AuditReport report = store::audit_store(dir);
  EXPECT_FALSE(report.clean());
  EXPECT_GT(report.violations_for("store-reconcile"), 0u);
  EXPECT_EQ(report.violations().size(),
            report.violations_for("store-reconcile"));
}

TEST(AuditStore, DoctoredManifestRowCountTripsStoreReconcileOnly) {
  const std::string dir = fresh_store("rows");
  (void)store::simulate_to_store(store_config(), dir);
  // Rewrite the writer's physical accounting: claim one extra row.
  const std::string manifest_path =
      dir + "/" + std::string(store::kManifestFile);
  std::ifstream in{manifest_path};
  std::ostringstream doctored;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("rows=", 0) == 0) {
      const std::uint64_t rows = std::strtoull(line.c_str() + 5, nullptr, 10);
      doctored << "rows=" << rows + 1 << "\n";
    } else {
      doctored << line << "\n";
    }
  }
  in.close();
  std::ofstream{manifest_path, std::ios::trunc} << doctored.str();
  const AuditReport report = store::audit_store(dir);
  expect_only_law_fired(report, "store-reconcile");
  EXPECT_EQ(report.violations()[0].subject, "rows");
}

TEST(AuditStore, DeletedFeedTripsStoreReconcile) {
  const std::string dir = fresh_store("deleted");
  (void)store::simulate_to_store(store_config(), dir);
  ASSERT_TRUE(
      std::filesystem::remove(dir + "/" + store::feed_file_name("voice")));
  const AuditReport report = store::audit_store(dir);
  EXPECT_GT(report.violations_for("store-reconcile"), 0u);
}

TEST(AuditStore, MissingManifestIsAViolationNotACrash) {
  const AuditReport report = store::audit_store(fresh_store("void"));
  expect_only_law_fired(report, "store-reconcile");
}

// ------------------------------------------------------- report plumbing

TEST(AuditReportTest, CountsAndMergeAccumulate) {
  AuditReport a;
  a.add_checks("kpi-range", 3);
  a.add_violation({"kpi-range", "cell 1", 1.0, 2.0, "bad"});
  AuditReport b;
  b.add_checks("kpi-range", 2);
  b.add_checks("voice-accounting");
  a.merge(b);
  EXPECT_EQ(a.checks_evaluated(), 6u);
  EXPECT_EQ(a.checks_for("kpi-range"), 5u);
  EXPECT_EQ(a.violations_for("kpi-range"), 1u);
  EXPECT_EQ(a.checks_for("voice-accounting"), 1u);
  EXPECT_FALSE(a.clean());
  ASSERT_EQ(a.laws().size(), 2u);
  EXPECT_EQ(a.laws()[0].law, "kpi-range");  // registration order
}

TEST(AuditReportTest, JsonAndCsvCarryTheViolation) {
  AuditReport report;
  report.add_checks("voice-accounting", 4);
  report.add_violation({"voice-accounting", "day 12", 10.0, 9.0,
                        "attempts != completed + blocked + dropped"});
  std::ostringstream json;
  report.write_json(json);
  EXPECT_NE(json.str().find("\"schema\": \"cellscope-audit-report/1\""),
            std::string::npos);
  EXPECT_NE(json.str().find("\"clean\": false"), std::string::npos);
  EXPECT_NE(json.str().find("\"subject\": \"day 12\""), std::string::npos);
  std::ostringstream csv;
  report.write_csv(csv);
  EXPECT_NE(csv.str().find("law,subject,expected,actual,detail"),
            std::string::npos);
  EXPECT_NE(csv.str().find("\"voice-accounting\",\"day 12\",10,9"),
            std::string::npos);
}

TEST(AuditReportTest, PrintSummarizesPerLaw) {
  AuditReport report;
  report.add_checks("mobility-range", 2);
  std::ostringstream out;
  report.print(out);
  EXPECT_NE(out.str().find("2 checks, 0 violation(s)"), std::string::npos);
}

}  // namespace
}  // namespace cellscope::audit
