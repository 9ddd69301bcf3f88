// CSV import: parsing, strictness, and the export -> import round trip.
#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "analysis/export.h"
#include "analysis/import.h"

namespace cellscope::analysis {
namespace {

const char kHeader[] =
    "day,date,cell,site,district,dl_mb,ul_mb,active_dl_users,"
    "tti_utilization,user_dl_tput_mbps,connected_users,voice_mb,"
    "voice_users,voice_dl_loss_pct,voice_ul_loss_pct\n";

TEST(ImportKpis, ParsesWellFormedRows) {
  std::istringstream is{
      std::string(kHeader) +
      "21,2020-02-24,3,1,EC1,100.5,10.5,2.5,0.01,3.2,40,1.5,0.2,0.4,0.3\n"
      "21,2020-02-24,7,2,WC1,50,5,1,0.005,2.8,20,0.7,0.1,0.5,0.2\n"
      "22,2020-02-25,3,1,EC1,90,9,2,0.009,3.1,38,1.4,0.2,0.4,0.3\n"};
  const auto result = import_kpis_csv(is);
  EXPECT_EQ(result.rows, 3u);
  EXPECT_EQ(result.cell_count, 8u);  // max cell id 7 + 1
  ASSERT_EQ(result.store.records().size(), 3u);
  EXPECT_EQ(result.store.first_day(), 21);
  EXPECT_EQ(result.store.last_day(), 22);
  const auto& first = result.store.records()[0];
  EXPECT_EQ(first.cell, CellId{3});
  EXPECT_DOUBLE_EQ(first.dl_volume_mb, 100.5);
  EXPECT_DOUBLE_EQ(first.voice_ul_loss_pct, 0.3);
}

TEST(ImportKpis, AllowsDayGaps) {
  std::istringstream is{
      std::string(kHeader) +
      "21,2020-02-24,0,0,A,1,1,1,0.1,1,1,1,1,1,1\n"
      "25,2020-02-28,0,0,A,2,1,1,0.1,1,1,1,1,1,1\n"};
  const auto result = import_kpis_csv(is);
  EXPECT_EQ(result.store.first_day(), 21);
  EXPECT_EQ(result.store.last_day(), 25);
}

TEST(ImportKpis, RejectsMalformedInput) {
  std::istringstream empty{""};
  EXPECT_THROW((void)import_kpis_csv(empty), std::runtime_error);

  std::istringstream bad_header{"nope\n"};
  EXPECT_THROW((void)import_kpis_csv(bad_header), std::runtime_error);

  std::istringstream short_row{std::string(kHeader) + "21,x,0,0,A,1\n"};
  EXPECT_THROW((void)import_kpis_csv(short_row), std::runtime_error);

  std::istringstream bad_number{
      std::string(kHeader) +
      "21,2020-02-24,0,0,A,abc,1,1,0.1,1,1,1,1,1,1\n"};
  EXPECT_THROW((void)import_kpis_csv(bad_number), std::runtime_error);

  std::istringstream backwards{
      std::string(kHeader) +
      "22,2020-02-25,0,0,A,1,1,1,0.1,1,1,1,1,1,1\n"
      "21,2020-02-24,0,0,A,1,1,1,0.1,1,1,1,1,1,1\n"};
  EXPECT_THROW((void)import_kpis_csv(backwards), std::runtime_error);
}

TEST(ImportKpis, LenientModeQuarantinesAndDeduplicates) {
  // A degraded warehouse dump: malformed rows interleaved with good ones,
  // a duplicated (cell, day) key and out-of-order days.
  std::istringstream is{
      std::string(kHeader) +
      "22,2020-02-25,3,1,EC1,90,9,2,0.009,3.1,38,1.4,0.2,0.4,0.3\n"
      "21,2020-02-24,3,1,EC1,100.5,10.5,2.5,0.01,3.2,40,1.5,0.2,0.4,0.3\n"
      "21,x,0,0,A,1\n"                                              // short
      "21,2020-02-24,7,2,WC1,abc,5,1,0.005,2.8,20,0.7,0.1,0.5,0.2\n"  // bad
      "21,2020-02-24,7,2,WC1,50,5,1,0.005,2.8,20,0.7,0.1,0.5,0.2\n"
      "21,2020-02-24,3,1,EC1,999,99,9,0.09,9.9,99,9,9,9,9\n"  // duplicate
      "\n"
      "22,2020-02-25,7,2,WC1,45,4,1,0.004,2.7,19,0.6,0.1,0.5,0.2\n"};
  ImportOptions options;
  options.lenient = true;
  const auto result = import_kpis_csv(is, options);

  EXPECT_EQ(result.rows, 4u);
  EXPECT_EQ(result.quarantined, 2u);
  EXPECT_EQ(result.duplicates_dropped, 1u);
  ASSERT_EQ(result.quarantine_log.size(), 2u);
  EXPECT_EQ(result.quarantine_log[0].line, 4u);
  EXPECT_NE(result.quarantine_log[0].reason.find("15 fields"),
            std::string::npos);
  EXPECT_EQ(result.quarantine_log[1].line, 5u);
  EXPECT_NE(result.quarantine_log[1].reason.find("bad number"),
            std::string::npos);

  // Days were re-sorted; first occurrence of the duplicate key won.
  EXPECT_EQ(result.store.first_day(), 21);
  EXPECT_EQ(result.store.last_day(), 22);
  ASSERT_EQ(result.store.records().size(), 4u);
  const auto& day21_cell3 = result.store.records()[0];
  EXPECT_EQ(day21_cell3.day, 21);
  EXPECT_EQ(day21_cell3.cell, CellId{3});
  EXPECT_DOUBLE_EQ(day21_cell3.dl_volume_mb, 100.5);

  // The quality ledger books everything under "kpi-import".
  const auto* feed = result.quality.find("kpi-import");
  ASSERT_NE(feed, nullptr);
  EXPECT_EQ(feed->observed_records, 4u);
  EXPECT_EQ(feed->quarantined_records, 2u);
  EXPECT_EQ(feed->duplicate_records, 1u);
}

TEST(ImportKpis, LenientQuarantineLogIsCappedButCountersAreExact) {
  std::string corpus{kHeader};
  for (int i = 0; i < 30; ++i) corpus += "garbage row\n";
  std::istringstream is{corpus};
  ImportOptions options;
  options.lenient = true;
  options.max_quarantine_log = 5;
  const auto result = import_kpis_csv(is, options);
  EXPECT_EQ(result.rows, 0u);
  EXPECT_EQ(result.quarantined, 30u);
  EXPECT_EQ(result.quarantine_log.size(), 5u);
}

TEST(ImportKpis, LenientModeStillRejectsBadHeaders) {
  ImportOptions options;
  options.lenient = true;
  std::istringstream empty{""};
  EXPECT_THROW((void)import_kpis_csv(empty, options), std::runtime_error);
  std::istringstream bad_header{"nope\n"};
  EXPECT_THROW((void)import_kpis_csv(bad_header, options),
               std::runtime_error);
}

TEST(ImportKpis, StrictOptionsMatchDefaultBehaviour) {
  const std::string corpus =
      std::string(kHeader) +
      "21,2020-02-24,3,1,EC1,100.5,10.5,2.5,0.01,3.2,40,1.5,0.2,0.4,0.3\n";
  std::istringstream a{corpus};
  std::istringstream b{corpus};
  const auto strict_default = import_kpis_csv(a);
  const auto strict_explicit = import_kpis_csv(b, ImportOptions{});
  EXPECT_EQ(strict_default.rows, strict_explicit.rows);
  EXPECT_TRUE(strict_explicit.quality.empty());
  EXPECT_EQ(strict_explicit.quarantined, 0u);

  std::istringstream bad{std::string(kHeader) + "21,x,0,0,A,1\n"};
  EXPECT_THROW((void)import_kpis_csv(bad, ImportOptions{}),
               std::runtime_error);
}

TEST(ImportKpis, AcceptsCrlfLineEndings) {
  // A warehouse dump that crossed a Windows box: every line, header
  // included, ends in \r\n. Both modes must parse it identically to the
  // \n-terminated original.
  std::istringstream is{
      std::string(kHeader).substr(0, sizeof(kHeader) - 2) +
      "\r\n"
      "21,2020-02-24,3,1,EC1,100.5,10.5,2.5,0.01,3.2,40,1.5,0.2,0.4,0.3\r\n"
      "22,2020-02-25,3,1,EC1,90,9,2,0.009,3.1,38,1.4,0.2,0.4,0.3\r\n"};
  const auto strict = import_kpis_csv(is);
  EXPECT_EQ(strict.rows, 2u);
  ASSERT_EQ(strict.store.records().size(), 2u);
  EXPECT_DOUBLE_EQ(strict.store.records()[0].voice_ul_loss_pct, 0.3);

  std::istringstream again{
      std::string(kHeader).substr(0, sizeof(kHeader) - 2) +
      "\r\n"
      "21,2020-02-24,3,1,EC1,100.5,10.5,2.5,0.01,3.2,40,1.5,0.2,0.4,0.3\r\n"};
  ImportOptions options;
  options.lenient = true;
  const auto lenient = import_kpis_csv(again, options);
  EXPECT_EQ(lenient.rows, 1u);
  EXPECT_EQ(lenient.quarantined, 0u);
}

TEST(ImportKpis, TruncatedFinalLineIsQuarantinedInLenientMode) {
  // The feed was clipped mid-write: the last line stops in the middle of a
  // field and has no trailing newline.
  std::istringstream is{
      std::string(kHeader) +
      "21,2020-02-24,3,1,EC1,100.5,10.5,2.5,0.01,3.2,40,1.5,0.2,0.4,0.3\n"
      "22,2020-02-25,3,1,EC1,90,9,2,0.0"};
  ImportOptions options;
  options.lenient = true;
  const auto result = import_kpis_csv(is, options);
  EXPECT_EQ(result.rows, 1u);
  EXPECT_EQ(result.quarantined, 1u);
  ASSERT_EQ(result.quarantine_log.size(), 1u);
  EXPECT_EQ(result.quarantine_log[0].line, 3u);
  EXPECT_NE(result.quarantine_log[0].reason.find("unterminated final line"),
            std::string::npos);
}

TEST(ImportKpis, TruncatedFinalLineThrowsWithContextInStrictMode) {
  std::istringstream is{
      std::string(kHeader) +
      "21,2020-02-24,3,1,EC1,100.5,10.5,2.5,0.01,3.2,40,1.5,0.2,0.4,0.3\n"
      "22,2020-02-25,3,1,EC1,90,9"};
  try {
    (void)import_kpis_csv(is);
    FAIL() << "truncated final line must throw in strict mode";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("unterminated final line"),
              std::string::npos);
  }
}

TEST(ImportKpis, CompleteFinalLineWithoutNewlineIsAccepted) {
  // No trailing newline but the row itself is whole — legal, not truncated.
  std::istringstream is{
      std::string(kHeader) +
      "21,2020-02-24,3,1,EC1,100.5,10.5,2.5,0.01,3.2,40,1.5,0.2,0.4,0.3"};
  const auto result = import_kpis_csv(is);
  EXPECT_EQ(result.rows, 1u);
}

TEST(ImportKpis, RoundTripsThroughExport) {
  // Build a small store, export it, re-import it, and compare series.
  const auto geography = geo::UkGeography::build();
  radio::TopologyConfig topo_config;
  topo_config.expected_subscribers = 20'000;
  const auto topology = radio::RadioTopology::build(geography, topo_config);

  telemetry::KpiStore original;
  Rng rng{5};
  for (SimDay d = 21; d <= 27; ++d) {
    std::vector<telemetry::CellDayRecord> rows;
    for (const auto cell : topology.lte_cells()) {
      radio::CellHourKpi kpi;
      kpi.dl_volume_mb = rng.uniform(0.0, 200.0);
      kpi.ul_volume_mb = rng.uniform(0.0, 20.0);
      kpi.active_dl_users = rng.uniform(0.0, 5.0);
      kpi.connected_users = rng.uniform(0.0, 60.0);
      telemetry::CellDaySamples samples;
      samples.record(kpi);
      rows.push_back(
          samples.reduce(cell, d, telemetry::DailyReduction::kMedian));
    }
    original.add_day(std::move(rows));
  }

  std::stringstream buffer;
  export_kpis_csv(buffer, original, topology, geography);
  const auto imported = import_kpis_csv(buffer);

  ASSERT_EQ(imported.store.records().size(), original.records().size());
  const auto grouping = group_by_region(geography, topology);
  KpiGroupSeries before{original, grouping, telemetry::KpiMetric::kDlVolume};
  KpiGroupSeries after{imported.store, grouping,
                       telemetry::KpiMetric::kDlVolume};
  for (std::size_t g = 0; g < grouping.group_count(); ++g) {
    for (SimDay d = 21; d <= 27; ++d) {
      if (!before.group(g).has(d)) continue;
      // CSV stores ~6 significant digits; compare accordingly.
      EXPECT_NEAR(after.group(g).value(d), before.group(g).value(d),
                  1e-3 * std::max(1.0, before.group(g).value(d)))
          << g << " " << d;
    }
  }
}

TEST(GroupingFromNames, AssignsGroupsInFirstAppearanceOrder) {
  const std::vector<std::string> names = {"north", "south", "north", "",
                                          "east"};
  const auto grouping = grouping_from_names(names);
  ASSERT_EQ(grouping.names.size(), 3u);
  EXPECT_EQ(grouping.names[0], "north");
  EXPECT_EQ(grouping.names[1], "south");
  EXPECT_EQ(grouping.names[2], "east");
  EXPECT_EQ(grouping.group_of[0], 0);
  EXPECT_EQ(grouping.group_of[1], 1);
  EXPECT_EQ(grouping.group_of[2], 0);
  EXPECT_EQ(grouping.group_of[3], CellGrouping::kUngrouped);
  EXPECT_EQ(grouping.group_of[4], 2);
}

}  // namespace
}  // namespace cellscope::analysis
