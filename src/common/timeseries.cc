#include "common/timeseries.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/stats.h"

namespace cellscope {

DailySeries::DailySeries(SimDay first_day, SimDay last_day)
    : first_day_(first_day), last_day_(last_day) {
  if (last_day < first_day)
    throw std::invalid_argument("DailySeries: last_day before first_day");
  const auto n = static_cast<std::size_t>(last_day - first_day + 1);
  sums_.assign(n, 0.0);
  counts_.assign(n, 0);
}

std::size_t DailySeries::index(SimDay day) const {
  if (day < first_day_ || day > last_day_)
    throw std::out_of_range("DailySeries: day " + std::to_string(day) +
                            " outside the window [" +
                            std::to_string(first_day_) + ", " +
                            std::to_string(last_day_) + "]");
  return static_cast<std::size_t>(day - first_day_);
}

void DailySeries::set(SimDay day, double value) {
  const auto i = index(day);
  sums_[i] = value;
  counts_[i] = 1;
}

void DailySeries::add(SimDay day, double value) {
  const auto i = index(day);
  sums_[i] += value;
  ++counts_[i];
}

bool DailySeries::has(SimDay day) const {
  if (day < first_day_ || day > last_day_) return false;
  return counts_[index(day)] > 0;
}

double DailySeries::value(SimDay day) const {
  if (!has(day))
    throw std::out_of_range("DailySeries::value: no data for day " +
                            std::to_string(day) +
                            " (use has()/value_or() for gap-tolerant reads)");
  const auto i = index(day);
  return sums_[i] / static_cast<double>(counts_[i]);
}

double DailySeries::value_or(SimDay day, double fallback) const {
  return has(day) ? value(day) : fallback;
}

std::size_t DailySeries::count(SimDay day) const {
  if (day < first_day_ || day > last_day_) return 0;
  return counts_[index(day)];
}

double DailySeries::day_sum(SimDay day) const {
  if (day < first_day_ || day > last_day_) return 0.0;
  return sums_[index(day)];
}

void DailySeries::restore(SimDay day, double sum, std::size_t count) {
  if (day < first_day_ || day > last_day_) return;
  const auto i = index(day);
  sums_[i] = sum;
  counts_[i] = count;
}

std::vector<double> DailySeries::week_values(int iso_week_number) const {
  std::vector<double> out;
  const SimDay start = week_start_day(iso_week_number);
  for (SimDay d = start; d < start + kDaysPerWeek; ++d)
    if (has(d)) out.push_back(value(d));
  return out;
}

double DailySeries::week_mean(int iso_week_number) const {
  return stats::mean(week_values(iso_week_number));
}

double DailySeries::week_median(int iso_week_number) const {
  return stats::median(week_values(iso_week_number));
}

int DailySeries::week_covered_days(int iso_week_number) const {
  int covered = 0;
  const SimDay start = week_start_day(iso_week_number);
  for (SimDay d = start; d < start + kDaysPerWeek; ++d)
    if (has(d)) ++covered;
  return covered;
}

std::vector<DayPoint> daily_delta_percent(const DailySeries& series,
                                          double baseline) {
  std::vector<DayPoint> out;
  for (SimDay d = series.first_day(); d <= series.last_day(); ++d)
    if (series.has(d))
      out.push_back({d, stats::delta_percent(series.value(d), baseline)});
  return out;
}

std::vector<WeekPoint> weekly_median_delta_percent(const DailySeries& series,
                                                   double baseline,
                                                   int from_week, int to_week,
                                                   int min_samples) {
  std::vector<WeekPoint> out;
  const auto threshold = static_cast<std::size_t>(std::max(min_samples, 1));
  for (int w = from_week; w <= to_week; ++w) {
    const auto values = series.week_values(w);
    if (values.size() < threshold) continue;
    out.push_back({w, stats::delta_percent(stats::median(values), baseline)});
  }
  return out;
}

std::vector<WeekPoint> weekly_mean_delta_percent(const DailySeries& series,
                                                 double baseline,
                                                 int from_week, int to_week,
                                                 int min_samples) {
  std::vector<WeekPoint> out;
  const auto threshold = static_cast<std::size_t>(std::max(min_samples, 1));
  for (int w = from_week; w <= to_week; ++w) {
    const auto values = series.week_values(w);
    if (values.size() < threshold) continue;
    out.push_back({w, stats::delta_percent(stats::mean(values), baseline)});
  }
  return out;
}

}  // namespace cellscope
