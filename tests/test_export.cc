// CSV exporters.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/export.h"

namespace cellscope::analysis {
namespace {

int line_count(const std::string& text) {
  int lines = 0;
  for (const char c : text) lines += c == '\n';
  return lines;
}

class ExportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    geography_ = new geo::UkGeography(geo::UkGeography::build());
    radio::TopologyConfig config;
    config.expected_subscribers = 20'000;
    topology_ =
        new radio::RadioTopology(radio::RadioTopology::build(*geography_, config));
  }
  static void TearDownTestSuite() {
    delete topology_;
    delete geography_;
  }
  static const geo::UkGeography& geo() { return *geography_; }
  static const radio::RadioTopology& topo() { return *topology_; }

 private:
  static const geo::UkGeography* geography_;
  static const radio::RadioTopology* topology_;
};
const geo::UkGeography* ExportTest::geography_ = nullptr;
const radio::RadioTopology* ExportTest::topology_ = nullptr;

TEST_F(ExportTest, KpiCsvHasHeaderAndOneRowPerRecord) {
  telemetry::KpiStore store;
  radio::CellHourKpi kpi;
  kpi.dl_volume_mb = 42.5;
  telemetry::CellDaySamples samples;
  samples.record(kpi);
  store.add_day({samples.reduce(topo().lte_cells()[0], 25,
                                telemetry::DailyReduction::kMedian),
                 samples.reduce(topo().lte_cells()[1], 25,
                                telemetry::DailyReduction::kMedian)});

  std::ostringstream os;
  export_kpis_csv(os, store, topo(), geo());
  const std::string out = os.str();
  EXPECT_EQ(line_count(out), 3);  // header + 2 rows
  EXPECT_NE(out.find("day,date,cell"), std::string::npos);
  EXPECT_NE(out.find("2020-02-28"), std::string::npos);  // day 25
  EXPECT_NE(out.find("42.5"), std::string::npos);
}

TEST_F(ExportTest, GroupedSeriesCsv) {
  GroupedDailySeries series{2, 0, 2};
  series.add(0, 0, 1.5);
  series.add(0, 0, 2.5);
  series.add(1, 2, 7.0);
  const std::vector<std::string> names = {"national", "london"};
  std::ostringstream os;
  export_grouped_series_csv(os, series, names);
  const std::string out = os.str();
  EXPECT_EQ(line_count(out), 3);  // header + 2 populated (group, day) pairs
  EXPECT_NE(out.find("national,2,2"), std::string::npos);  // mean 2, count 2
  EXPECT_NE(out.find("london,7,1"), std::string::npos);
}

TEST_F(ExportTest, MobilityMatrixCsv) {
  const auto inner = *geo().county_by_name("Inner London");
  MobilityMatrix matrix{geo(), inner, 21, 34};
  telemetry::UserDayObservation obs;
  obs.user = UserId{1};
  obs.day = 22;
  telemetry::TowerStay stay;
  stay.site = SiteId{0};
  stay.county = inner;
  stay.district = geo().districts_in(inner).front();
  stay.hours = 24.0f;
  obs.stays.push_back(stay);
  matrix.observe(obs);

  std::ostringstream os;
  export_mobility_matrix_csv(os, matrix, geo(), 9, 2);
  const std::string out = os.str();
  EXPECT_NE(out.find("county,day,date"), std::string::npos);
  EXPECT_NE(out.find("Inner London"), std::string::npos);
  // Only day 22 carries an observation; the other 13 days of the window are
  // feed gaps and produce no rows. (home + 2 receiving counties) x 1 covered
  // day + header.
  EXPECT_EQ(line_count(out), 1 + 3 * 1);
  EXPECT_EQ(matrix.covered_days(), 1);
}

TEST_F(ExportTest, SignalingCsvSkipsEmptyCounters) {
  telemetry::SignalingProbe probe;
  traffic::SignalingEvent event;
  event.user = UserId{1};
  event.hour = first_hour(30) + 9;
  event.type = traffic::SignalingEventType::kAttach;
  event.success = false;
  probe.on_event(event);

  std::ostringstream os;
  export_signaling_csv(os, probe);
  const std::string out = os.str();
  EXPECT_EQ(line_count(out), 2);  // header + the one non-zero counter
  EXPECT_NE(out.find("Attach,1,1"), std::string::npos);
}

}  // namespace
}  // namespace cellscope::analysis
