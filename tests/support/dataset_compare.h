// Bit-level Dataset comparison helpers, shared between the thread-matrix
// determinism suite (test_determinism.cc), the store replay suite
// (test_store_replay.cc) and the store tests. All enforce the same
// contract — two Datasets must match on EVERY field at the bit level,
// float fields included — so the comparison lives in one place.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>

#include "sim/simulator.h"

namespace cellscope::sim::testsupport {

// Bit-level double comparison: EXPECT_DOUBLE_EQ tolerates 4 ulps, which is
// exactly the slop this contract forbids.
inline std::uint64_t bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

#define EXPECT_BITS_EQ(a, b) \
  EXPECT_EQ(::cellscope::sim::testsupport::bits(a), \
            ::cellscope::sim::testsupport::bits(b))

inline void expect_series_identical(const DailySeries& a, const DailySeries& b,
                                    const std::string& what) {
  ASSERT_EQ(a.first_day(), b.first_day()) << what;
  ASSERT_EQ(a.last_day(), b.last_day()) << what;
  if (a.empty() || b.empty()) {
    EXPECT_EQ(a.empty(), b.empty()) << what;
    return;
  }
  for (SimDay d = a.first_day(); d <= a.last_day(); ++d) {
    ASSERT_EQ(a.has(d), b.has(d)) << what << " day " << d;
    if (!a.has(d)) continue;
    EXPECT_EQ(a.count(d), b.count(d)) << what << " day " << d;
    EXPECT_BITS_EQ(a.value(d), b.value(d)) << what << " day " << d;
  }
}

inline void expect_grouped_identical(const analysis::GroupedDailySeries& a,
                                     const analysis::GroupedDailySeries& b,
                                     const std::string& what) {
  ASSERT_EQ(a.group_count(), b.group_count()) << what;
  for (std::size_t g = 0; g < a.group_count(); ++g)
    expect_series_identical(a.group(g), b.group(g),
                            what + " group " + std::to_string(g));
}

inline void expect_distribution_identical(
    const analysis::DistributionSeries& a,
    const analysis::DistributionSeries& b, const std::string& what) {
  ASSERT_EQ(a.first_day(), b.first_day()) << what;
  ASSERT_EQ(a.last_day(), b.last_day()) << what;
  for (SimDay d = a.first_day(); d <= a.last_day(); ++d) {
    ASSERT_EQ(a.has(d), b.has(d)) << what << " day " << d;
    if (!a.has(d)) continue;
    const auto& sa = a.day_summary(d);
    const auto& sb = b.day_summary(d);
    EXPECT_EQ(sa.n, sb.n) << what << " day " << d;
    EXPECT_BITS_EQ(sa.mean, sb.mean) << what << " day " << d;
    EXPECT_BITS_EQ(sa.p10, sb.p10) << what << " day " << d;
    EXPECT_BITS_EQ(sa.p25, sb.p25) << what << " day " << d;
    EXPECT_BITS_EQ(sa.median, sb.median) << what << " day " << d;
    EXPECT_BITS_EQ(sa.p75, sb.p75) << what << " day " << d;
    EXPECT_BITS_EQ(sa.p90, sb.p90) << what << " day " << d;
  }
}

inline void expect_quality_identical(const telemetry::FeedQualityReport& a,
                                     const telemetry::FeedQualityReport& b) {
  ASSERT_EQ(a.feeds().size(), b.feeds().size());
  for (std::size_t i = 0; i < a.feeds().size(); ++i) {
    const auto& fa = a.feeds()[i];
    const auto& fb = b.feeds()[i];
    EXPECT_EQ(fa.name, fb.name);
    EXPECT_EQ(fa.expected_records, fb.expected_records) << fa.name;
    EXPECT_EQ(fa.observed_records, fb.observed_records) << fa.name;
    EXPECT_EQ(fa.quarantined_records, fb.quarantined_records) << fa.name;
    EXPECT_EQ(fa.duplicate_records, fb.duplicate_records) << fa.name;
    ASSERT_EQ(fa.days.size(), fb.days.size()) << fa.name;
    auto ita = fa.days.begin();
    auto itb = fb.days.begin();
    for (; ita != fa.days.end(); ++ita, ++itb) {
      EXPECT_EQ(ita->first, itb->first) << fa.name;
      EXPECT_EQ(ita->second.expected, itb->second.expected)
          << fa.name << " day " << ita->first;
      EXPECT_EQ(ita->second.observed, itb->second.observed)
          << fa.name << " day " << ita->first;
    }
  }
}

// Two runs' KPI rows: every field of every record, in order.
inline void expect_kpi_rows_identical(
    std::span<const telemetry::CellDayRecord> a,
    std::span<const telemetry::CellDayRecord> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& ra = a[i];
    const auto& rb = b[i];
    ASSERT_EQ(ra.cell, rb.cell) << i;
    ASSERT_EQ(ra.day, rb.day) << i;
    for (int m = 0; m < telemetry::kKpiMetricCount; ++m) {
      EXPECT_BITS_EQ(
          telemetry::kpi_value(ra, static_cast<telemetry::KpiMetric>(m)),
          telemetry::kpi_value(rb, static_cast<telemetry::KpiMetric>(m)))
          << "record " << i << " metric "
          << telemetry::kpi_metric_name(static_cast<telemetry::KpiMetric>(m));
    }
  }
}

// What a KpiStore says about its rows, released or not: the row count,
// the day range and every day's count.
inline void expect_kpi_counts_identical(const telemetry::KpiStore& a,
                                        const telemetry::KpiStore& b) {
  EXPECT_EQ(a.row_count(), b.row_count());
  ASSERT_EQ(a.empty(), b.empty());
  if (a.empty()) return;
  ASSERT_EQ(a.first_day(), b.first_day());
  ASSERT_EQ(a.last_day(), b.last_day());
  for (SimDay d = a.first_day(); d <= a.last_day(); ++d)
    EXPECT_EQ(a.rows_through(d), b.rows_through(d)) << "KPI rows through " << d;
}

// Every Dataset field but the KPI rows themselves, bit for bit: a run with
// a sink hands its rows over, so only their counts are compared here.
// Substrate (geography/population/topology/policy) is built serially
// before the day loop from the same seed, so it is covered transitively: a
// divergent substrate would diverge everything below.
inline void expect_run_fields_identical(const Dataset& a, const Dataset& b) {
  // Homes + Fig 2 validation.
  ASSERT_EQ(a.homes.size(), b.homes.size());
  for (std::size_t i = 0; i < a.homes.size(); ++i) {
    EXPECT_EQ(a.homes[i].user, b.homes[i].user) << i;
    EXPECT_EQ(a.homes[i].home_site, b.homes[i].home_site) << i;
    EXPECT_EQ(a.homes[i].home_district, b.homes[i].home_district) << i;
    EXPECT_EQ(a.homes[i].home_county, b.homes[i].home_county) << i;
    EXPECT_BITS_EQ(a.homes[i].night_hours, b.homes[i].night_hours) << i;
    EXPECT_EQ(a.homes[i].nights_observed, b.homes[i].nights_observed) << i;
  }
  ASSERT_EQ(a.home_validation.points.size(), b.home_validation.points.size());
  for (std::size_t i = 0; i < a.home_validation.points.size(); ++i) {
    EXPECT_EQ(a.home_validation.points[i].lad, b.home_validation.points[i].lad);
    EXPECT_EQ(a.home_validation.points[i].inferred_residents,
              b.home_validation.points[i].inferred_residents);
  }
  EXPECT_BITS_EQ(a.home_validation.fit.slope, b.home_validation.fit.slope);
  EXPECT_BITS_EQ(a.home_validation.fit.r_squared,
                 b.home_validation.fit.r_squared);

  // Mobility aggregates (Figs 3, 5, 6) and distribution bands.
  expect_grouped_identical(a.entropy_national, b.entropy_national, "entropy");
  expect_grouped_identical(a.gyration_national, b.gyration_national,
                           "gyration");
  expect_grouped_identical(a.entropy_by_region, b.entropy_by_region,
                           "entropy_by_region");
  expect_grouped_identical(a.gyration_by_region, b.gyration_by_region,
                           "gyration_by_region");
  expect_grouped_identical(a.entropy_by_cluster, b.entropy_by_cluster,
                           "entropy_by_cluster");
  expect_grouped_identical(a.gyration_by_cluster, b.gyration_by_cluster,
                           "gyration_by_cluster");
  expect_grouped_identical(a.entropy_by_bin, b.entropy_by_bin,
                           "entropy_by_bin");
  expect_grouped_identical(a.gyration_by_bin, b.gyration_by_bin,
                           "gyration_by_bin");
  expect_distribution_identical(a.gyration_distribution,
                                b.gyration_distribution, "gyration_dist");
  expect_distribution_identical(a.entropy_distribution, b.entropy_distribution,
                                "entropy_dist");

  // London relocation matrix (Fig 7).
  ASSERT_EQ(a.london_matrix != nullptr, b.london_matrix != nullptr);
  EXPECT_EQ(a.london_residents_tracked, b.london_residents_tracked);
  if (a.london_matrix != nullptr) {
    const SimDay first = a.config.first_day();
    const SimDay last = a.config.last_day();
    for (SimDay d = first; d <= last; ++d) {
      EXPECT_EQ(a.london_matrix->day_observations(d),
                b.london_matrix->day_observations(d))
          << d;
      for (const auto& county : a.geography->counties()) {
        EXPECT_BITS_EQ(a.london_matrix->presence(county.id, d),
                       b.london_matrix->presence(county.id, d))
            << "county " << county.id.value() << " day " << d;
      }
    }
  }

  // Network KPI rows (Fig 8..12 inputs): what the store says about them,
  // whether it still holds them or not.
  expect_kpi_counts_identical(a.kpis, b.kpis);

  // Signaling counters.
  ASSERT_EQ(a.signaling.days().size(), b.signaling.days().size());
  for (std::size_t i = 0; i < a.signaling.days().size(); ++i) {
    const auto& da = a.signaling.days()[i];
    const auto& db = b.signaling.days()[i];
    EXPECT_EQ(da.day, db.day);
    EXPECT_EQ(da.total, db.total) << "day " << da.day;
    EXPECT_EQ(da.failures, db.failures) << "day " << da.day;
  }

  // Voice call accounting (the audit's voice-accounting law input).
  ASSERT_EQ(a.voice_calls.days().size(), b.voice_calls.days().size());
  for (std::size_t i = 0; i < a.voice_calls.days().size(); ++i) {
    const auto& va = a.voice_calls.days()[i];
    const auto& vb = b.voice_calls.days()[i];
    EXPECT_EQ(va.day, vb.day);
    EXPECT_EQ(va.attempts, vb.attempts) << "day " << va.day;
    EXPECT_EQ(va.completed, vb.completed) << "day " << va.day;
    EXPECT_EQ(va.blocked, vb.blocked) << "day " << va.day;
    EXPECT_EQ(va.dropped, vb.dropped) << "day " << va.day;
  }
  EXPECT_EQ(a.voice_calls.total_attempts(), b.voice_calls.total_attempts());
  // ds.audit_report is deliberately NOT compared: it is derived bookkeeping
  // about the dataset, not part of the dataset, and only exists when the
  // run had audit enabled.

  // Quality ledger, interconnect diagnostics, scalars.
  expect_quality_identical(a.quality, b.quality);
  expect_series_identical(a.offnet_busy_hour_minutes,
                          b.offnet_busy_hour_minutes, "offnet_busy_hour");
  expect_series_identical(a.interconnect_busy_hour_loss_pct,
                          b.interconnect_busy_hour_loss_pct,
                          "interconnect_loss");
  expect_series_identical(a.roamers_active, b.roamers_active, "roamers");
  EXPECT_BITS_EQ(a.measured_lte_time_share, b.measured_lte_time_share);
  EXPECT_EQ(a.eligible_users, b.eligible_users);
}

// Every Dataset field, KPI rows included, bit for bit. Both Datasets must
// hold their rows (KpiStore::records throws for a released one).
inline void expect_datasets_identical(const Dataset& a, const Dataset& b) {
  expect_run_fields_identical(a, b);
  expect_kpi_rows_identical(a.kpis.records(), b.kpis.records());
}

}  // namespace cellscope::sim::testsupport
