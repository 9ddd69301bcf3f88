#include "audit/laws.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "geo/admin.h"
#include "traffic/core_network.h"

namespace cellscope::audit {

namespace {

// Two float reductions of the same cells agree to rounding but not bitwise
// (different summation orders). Anything past 1e-9 relative is a lost or
// double-counted term, not noise: the sums involved have at most ~1e5
// addends of comparable magnitude.
constexpr double kRelTol = 1e-9;

bool nearly_equal(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= kRelTol * scale;
}

std::string day_subject(SimDay day) { return "day " + std::to_string(day); }

// One row-level range check; returns false (and records a violation) on the
// first out-of-bounds field so a single corrupt row yields one violation.
bool check_row_ranges(const telemetry::CellDayRecord& row,
                      const MetricBounds& bounds, AuditReport& report) {
  const std::string subject =
      "cell " + std::to_string(row.cell.value()) + " / " +
      day_subject(row.day);
  const auto fail = [&](std::string_view field, double lo, double hi,
                        double actual) {
    report.add_violation(
        {"kpi-range", subject, lo, actual,
         std::string(field) + " outside [" + std::to_string(lo) + ", " +
             std::to_string(hi) + "]"});
    return false;
  };
  struct Field {
    std::string_view name;
    double value;
    double lo;
    double hi;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const Field fields[] = {
      {"dl_volume_mb", row.dl_volume_mb, 0.0, inf},
      {"ul_volume_mb", row.ul_volume_mb, 0.0, inf},
      {"active_dl_users", row.active_dl_users, 0.0, inf},
      {"tti_utilization", row.tti_utilization, 0.0, 1.0},
      {"user_dl_throughput_mbps", row.user_dl_throughput_mbps, 0.0, inf},
      {"active_data_seconds", row.active_data_seconds, 0.0, inf},
      {"connected_users", row.connected_users, 0.0, inf},
      {"voice_volume_mb", row.voice_volume_mb, 0.0, inf},
      {"simultaneous_voice_users", row.simultaneous_voice_users, 0.0, inf},
      {"voice_dl_loss_pct", row.voice_dl_loss_pct, 0.0, bounds.loss_pct_max},
      {"voice_ul_loss_pct", row.voice_ul_loss_pct, 0.0, bounds.loss_pct_max},
  };
  for (const Field& f : fields) {
    if (std::isnan(f.value) || f.value < f.lo || f.value > f.hi)
      return fail(f.name, f.lo, f.hi, f.value);
  }
  return true;
}

}  // namespace

analysis::CellGrouping region_partition(const radio::RadioTopology& topology) {
  analysis::CellGrouping grouping;
  grouping.names.reserve(geo::kRegionCount);
  for (int r = 0; r < geo::kRegionCount; ++r)
    grouping.names.emplace_back(
        geo::region_name(static_cast<geo::Region>(r)));
  grouping.group_of.assign(topology.cells().size(),
                           analysis::CellGrouping::kUngrouped);
  for (const radio::Cell& cell : topology.cells()) {
    const radio::CellSite& site = topology.site(cell.site);
    grouping.group_of[cell.id.value()] =
        static_cast<std::int32_t>(site.region);
  }
  return grouping;
}

MetricBounds bounds_for(const radio::RadioTopology& topology) {
  MetricBounds bounds;
  bounds.entropy_max =
      std::log(static_cast<double>(std::max<std::size_t>(
          topology.sites().size(), 1)));
  return bounds;
}

void check_kpi_day(SimDay day, std::span<const telemetry::CellDayRecord> rows,
                   const analysis::CellGrouping& partition,
                   const MetricBounds& bounds, AuditReport& report) {
  const std::size_t groups = partition.group_count();
  // Representative conserved quantities: a volume, a population count and
  // the anomaly metric of the paper.
  const telemetry::KpiMetric metrics[] = {
      telemetry::KpiMetric::kDlVolume,
      telemetry::KpiMetric::kConnectedUsers,
      telemetry::KpiMetric::kVoiceVolume,
  };
  constexpr std::size_t kMetrics = std::size(metrics);
  std::vector<double> regional(groups * kMetrics, 0.0);
  std::array<double, kMetrics> national{};

  report.add_checks("kpi-range", rows.size());
  report.add_checks("kpi-partition", rows.size());
  for (const telemetry::CellDayRecord& row : rows) {
    const bool in_range = check_row_ranges(row, bounds, report);
    const std::string subject =
        "cell " + std::to_string(row.cell.value()) + " / " +
        day_subject(day);
    if (row.day != day) {
      report.add_violation({"kpi-partition", subject,
                            static_cast<double>(day),
                            static_cast<double>(row.day),
                            "row filed under the wrong day"});
      continue;
    }
    const std::size_t id = static_cast<std::size_t>(row.cell.value());
    const std::int32_t group =
        id < partition.group_of.size() ? partition.group_of[id]
                                       : analysis::CellGrouping::kUngrouped;
    if (group < 0 || static_cast<std::size_t>(group) >= groups) {
      report.add_violation({"kpi-partition", subject, 0.0,
                            static_cast<double>(group),
                            "cell belongs to no region of the partition"});
      continue;
    }
    // A range-corrupt row (a NaN especially) would poison both sides of
    // the partition sums and read as a second, spurious violation; the row
    // is already accounted under kpi-range, so keep the laws orthogonal.
    if (!in_range) continue;
    for (std::size_t m = 0; m < kMetrics; ++m) {
      const double value = telemetry::kpi_value(row, metrics[m]);
      regional[static_cast<std::size_t>(group) * kMetrics + m] += value;
      national[m] += value;
    }
  }

  // Σ regional == national per conserved metric: holds only if every row
  // landed in exactly one region above.
  report.add_checks("kpi-partition", kMetrics);
  for (std::size_t m = 0; m < kMetrics; ++m) {
    double sum = 0.0;
    for (std::size_t g = 0; g < groups; ++g)
      sum += regional[g * kMetrics + m];
    if (!nearly_equal(sum, national[m])) {
      report.add_violation(
          {"kpi-partition",
           std::string(telemetry::kpi_metric_name(metrics[m])) + " / " +
               day_subject(day),
           national[m], sum,
           "regional sums do not add up to the national sum"});
    }
  }
}

void check_voice_day(const traffic::VoiceDayCalls& day, AuditReport& report) {
  report.add_checks("voice-accounting");
  const std::uint64_t classified = day.completed + day.blocked + day.dropped;
  if (classified != day.attempts) {
    report.add_violation(
        {"voice-accounting", day_subject(day.day),
         static_cast<double>(day.attempts), static_cast<double>(classified),
         "attempts != completed + blocked + dropped"});
  }
}

void check_kpi_aggregation(std::span<const telemetry::CellDayRecord> rows,
                           const analysis::CellGrouping& partition,
                           AuditReport& report) {
  if (rows.empty()) return;
  const telemetry::KpiMetric metrics[] = {
      telemetry::KpiMetric::kDlVolume,
      telemetry::KpiMetric::kConnectedUsers,
      telemetry::KpiMetric::kVoiceVolume,
  };
  const std::size_t groups = partition.group_count();
  for (const telemetry::KpiMetric metric : metrics) {
    const analysis::KpiGroupSeries reduced(rows, partition, metric,
                                           analysis::CellReduction::kSum);
    std::vector<double> direct(groups, 0.0);
    std::vector<std::uint64_t> cells(groups, 0);
    const auto flush = [&](SimDay day) {
      for (std::size_t g = 0; g < groups; ++g) {
        if (cells[g] == 0) continue;  // the day is a gap for this group
        const std::string subject =
            std::string(telemetry::kpi_metric_name(metric)) + " / " +
            partition.names[g] + " / " + day_subject(day);
        report.add_checks("kpi-aggregation", 2);
        const std::size_t reporting = reduced.cells_reporting(g, day);
        if (reporting != cells[g]) {
          report.add_violation({"kpi-aggregation", subject,
                                static_cast<double>(cells[g]),
                                static_cast<double>(reporting),
                                "cells reporting into the group reduction "
                                "disagree with the raw rows"});
        }
        const double group_sum = reduced.group(g).value_or(
            day, std::numeric_limits<double>::quiet_NaN());
        if (!nearly_equal(group_sum, direct[g])) {
          report.add_violation(
              {"kpi-aggregation", subject, direct[g], group_sum,
               "group sum-reduction disagrees with the direct row sum"});
        }
        direct[g] = 0.0;
        cells[g] = 0;
      }
    };
    SimDay current = rows.front().day;
    for (const telemetry::CellDayRecord& row : rows) {
      if (row.day != current) {
        flush(current);
        current = row.day;
      }
      const std::size_t id = static_cast<std::size_t>(row.cell.value());
      if (id >= partition.group_of.size()) continue;
      const std::int32_t group = partition.group_of[id];
      if (group < 0) continue;  // coverage is kpi-partition's law
      direct[static_cast<std::size_t>(group)] +=
          telemetry::kpi_value(row, metric);
      ++cells[static_cast<std::size_t>(group)];
    }
    flush(current);
  }
}

void check_voice_accounting(const traffic::VoiceCallLedger& ledger,
                            AuditReport& report) {
  std::uint64_t attempts_sum = 0;
  SimDay previous = -1;
  for (const traffic::VoiceDayCalls& day : ledger.days()) {
    check_voice_day(day, report);
    report.add_checks("voice-accounting");
    if (day.day <= previous && previous >= 0) {
      report.add_violation({"voice-accounting", day_subject(day.day),
                            static_cast<double>(previous + 1),
                            static_cast<double>(day.day),
                            "ledger days out of chronological order"});
    }
    previous = day.day;
    attempts_sum += day.attempts;
  }
  // Lifetime counter vs day rows: the counter is accumulated independently,
  // so a serialization path that drops or duplicates a day trips this even
  // when each surviving row still closes.
  report.add_checks("voice-accounting");
  if (ledger.total_attempts() != attempts_sum) {
    report.add_violation({"voice-accounting", "ledger total",
                          static_cast<double>(attempts_sum),
                          static_cast<double>(ledger.total_attempts()),
                          "lifetime attempt counter disagrees with the "
                          "per-day rows"});
  }
}

void check_quality_closure(const telemetry::FeedQualityReport& quality,
                           AuditReport& report) {
  // One check for the whole-ledger evaluation: a clean scenario's ledger
  // is empty (a perfect feed has nothing to report), and the law holding
  // vacuously is still the law having run.
  report.add_checks("quality-closure");
  for (const telemetry::FeedQuality& feed : quality.feeds()) {
    std::uint64_t expected_sum = 0;
    std::uint64_t observed_sum = 0;
    for (const auto& [day, counts] : feed.days) {
      expected_sum += counts.expected;
      observed_sum += counts.observed;
      report.add_checks("quality-closure");
      if (counts.observed > counts.expected) {
        report.add_violation(
            {"quality-closure", feed.name + " / " + day_subject(day),
             static_cast<double>(counts.expected),
             static_cast<double>(counts.observed),
             "more records observed than generated"});
      }
    }
    report.add_checks("quality-closure", 2);
    if (feed.expected_records != expected_sum) {
      report.add_violation({"quality-closure", feed.name + " / expected",
                            static_cast<double>(expected_sum),
                            static_cast<double>(feed.expected_records),
                            "feed expected total disagrees with its per-day "
                            "ledger"});
    }
    if (feed.observed_records != observed_sum) {
      report.add_violation({"quality-closure", feed.name + " / observed",
                            static_cast<double>(observed_sum),
                            static_cast<double>(feed.observed_records),
                            "feed observed total disagrees with its per-day "
                            "ledger"});
    }
  }
}

void check_signaling_balance(const telemetry::SignalingProbe& probe,
                             AuditReport& report) {
  using traffic::SignalingEventType;
  // Event pairs the core-network model emits within the same hour, so
  // hour-granular feed outages drop both sides together and the balance
  // survives degraded runs. (attach/detach does NOT pair in-hour — a detach
  // lands at the end of the day — so it is deliberately not a law here.)
  struct Pair {
    SignalingEventType a;
    SignalingEventType b;
  };
  constexpr Pair kPairs[] = {
      {SignalingEventType::kAuthentication, SignalingEventType::kAttach},
      {SignalingEventType::kSessionEstablishment, SignalingEventType::kAttach},
      {SignalingEventType::kServiceRequest,
       SignalingEventType::kEcmIdleTransition},
      {SignalingEventType::kDedicatedBearerSetup,
       SignalingEventType::kDedicatedBearerRelease},
  };
  std::uint64_t total_events = 0;
  for (const telemetry::DailySignalingCounts& day : probe.days()) {
    total_events += day.total_events();
    report.add_checks("signaling-balance", std::size(kPairs));
    for (const Pair& pair : kPairs) {
      const std::uint64_t a = day.total[static_cast<std::size_t>(pair.a)];
      const std::uint64_t b = day.total[static_cast<std::size_t>(pair.b)];
      if (a != b) {
        report.add_violation(
            {"signaling-balance",
             std::string(traffic::signaling_event_name(pair.a)) + " / " +
                 day_subject(day.day),
             static_cast<double>(b), static_cast<double>(a),
             std::string(traffic::signaling_event_name(pair.a)) +
                 " count does not balance " +
                 std::string(traffic::signaling_event_name(pair.b))});
      }
    }
    report.add_checks("signaling-balance",
                      traffic::kSignalingEventTypeCount);
    for (int t = 0; t < traffic::kSignalingEventTypeCount; ++t) {
      if (day.failures[static_cast<std::size_t>(t)] >
          day.total[static_cast<std::size_t>(t)]) {
        report.add_violation(
            {"signaling-balance",
             std::string(traffic::signaling_event_name(
                 static_cast<SignalingEventType>(t))) +
                 " / " + day_subject(day.day),
             static_cast<double>(day.total[static_cast<std::size_t>(t)]),
             static_cast<double>(day.failures[static_cast<std::size_t>(t)]),
             "more failures than events"});
      }
    }
  }
  report.add_checks("signaling-balance");
  if (probe.events_ingested() != total_events) {
    report.add_violation({"signaling-balance", "probe total",
                          static_cast<double>(total_events),
                          static_cast<double>(probe.events_ingested()),
                          "lifetime ingest counter disagrees with the "
                          "per-day counts"});
  }
}

namespace {

void check_grouped_range(const analysis::GroupedDailySeries& series,
                         std::string_view metric, double lo, double hi,
                         AuditReport& report) {
  for (std::size_t g = 0; g < series.group_count(); ++g) {
    const DailySeries& days = series.group(g);
    if (days.empty()) continue;
    for (SimDay day = days.first_day(); day <= days.last_day(); ++day) {
      if (!days.has(day)) continue;
      const double value = days.value(day);
      report.add_checks("mobility-range");
      if (std::isnan(value) || value < lo - kRelTol ||
          value > hi * (1.0 + kRelTol) + kRelTol) {
        report.add_violation(
            {"mobility-range",
             std::string(metric) + " / group " + std::to_string(g) + " / " +
                 day_subject(day),
             hi, value,
             std::string(metric) + " outside [" + std::to_string(lo) + ", " +
                 std::to_string(hi) + "]"});
      }
    }
  }
}

void check_distribution_range(const analysis::DistributionSeries& dist,
                              std::string_view metric, double lo, double hi,
                              AuditReport& report) {
  if (dist.last_day() < dist.first_day()) return;
  for (SimDay day = dist.first_day(); day <= dist.last_day(); ++day) {
    if (!dist.sealed_day(day)) continue;
    const stats::Summary& s = dist.day_summary(day);
    if (s.n == 0) continue;
    report.add_checks("mobility-range", 2);
    const bool ordered = s.p10 <= s.p25 && s.p25 <= s.median &&
                         s.median <= s.p75 && s.p75 <= s.p90;
    if (!ordered) {
      report.add_violation(
          {"mobility-range", std::string(metric) + " / " + day_subject(day),
           s.median, s.p10,
           "percentile bands out of order (p10..p90 must be "
           "non-decreasing)"});
    }
    const double band_lo = std::min(s.p10, s.mean);
    const double band_hi = std::max(s.p90, s.mean);
    if (std::isnan(band_lo) || std::isnan(band_hi) ||
        band_lo < lo - kRelTol || band_hi > hi * (1.0 + kRelTol) + kRelTol) {
      report.add_violation(
          {"mobility-range", std::string(metric) + " / " + day_subject(day),
           hi, band_hi,
           std::string(metric) + " distribution band outside [" +
               std::to_string(lo) + ", " + std::to_string(hi) + "]"});
    }
  }
}

}  // namespace

void check_mobility_ranges(const analysis::GroupedDailySeries& entropy,
                           const analysis::GroupedDailySeries& gyration,
                           const analysis::DistributionSeries& entropy_dist,
                           const analysis::DistributionSeries& gyration_dist,
                           const MetricBounds& bounds, AuditReport& report) {
  // Entropy is Shannon entropy in nats over the sites a user visited, so the
  // per-user (and hence per-group average) value cannot exceed the uniform
  // distribution over every site in the country.
  const double gyration_max = std::numeric_limits<double>::infinity();
  check_grouped_range(entropy, "entropy", 0.0, bounds.entropy_max, report);
  check_grouped_range(gyration, "gyration", 0.0, gyration_max, report);
  check_distribution_range(entropy_dist, "entropy", 0.0, bounds.entropy_max,
                           report);
  check_distribution_range(gyration_dist, "gyration", 0.0, gyration_max,
                           report);
}

void check_checkpoint_consistency(SimDay resumed_from_day,
                                  std::uint64_t recorded_kpi_rows,
                                  std::uint64_t recorded_voice_attempts,
                                  std::uint64_t recorded_signaling_days,
                                  const telemetry::KpiStore& kpis,
                                  const traffic::VoiceCallLedger& voice,
                                  const telemetry::SignalingProbe& signaling,
                                  AuditReport& report) {
  constexpr const char* kLaw = "checkpoint-consistency";
  const std::string subject = "resumed from " + day_subject(resumed_from_day);

  // Each final ledger's prefix (days <= resume day) must equal what the
  // restore produced — integer counts, so equality is exact.
  const std::uint64_t kpi_rows = kpis.rows_through(resumed_from_day);
  report.add_checks(kLaw);
  if (kpi_rows != recorded_kpi_rows) {
    report.add_violation({kLaw, "kpis / " + subject,
                          static_cast<double>(recorded_kpi_rows),
                          static_cast<double>(kpi_rows),
                          "KPI rows at or before the resume day != rows "
                          "restored from the checkpoint"});
  }

  std::uint64_t voice_attempts = 0;
  for (const auto& d : voice.days())
    if (d.day <= resumed_from_day) voice_attempts += d.attempts;
  report.add_checks(kLaw);
  if (voice_attempts != recorded_voice_attempts) {
    report.add_violation({kLaw, "voice / " + subject,
                          static_cast<double>(recorded_voice_attempts),
                          static_cast<double>(voice_attempts),
                          "voice attempts at or before the resume day != "
                          "attempts restored from the checkpoint"});
  }

  std::uint64_t signaling_days = 0;
  for (const auto& d : signaling.days())
    if (d.day <= resumed_from_day) ++signaling_days;
  report.add_checks(kLaw);
  if (signaling_days != recorded_signaling_days) {
    report.add_violation({kLaw, "signaling / " + subject,
                          static_cast<double>(recorded_signaling_days),
                          static_cast<double>(signaling_days),
                          "signaling days at or before the resume day != "
                          "days restored from the checkpoint"});
  }
}

}  // namespace cellscope::audit
