// Daily / weekly time-series containers.
//
// Every figure in the paper is one of two shapes:
//   * a per-day series of "% change vs the week-9 reference" (Figs 3, 7), or
//   * a per-week series of the *median* daily value, again as % change vs
//     week 9 (Figs 5, 6, 8..12).
// DailySeries holds the raw per-day values (averaging repeated adds, since
// the paper reports the average daily value across users); the free
// functions derive the two figure shapes from it.
#pragma once

#include <cstddef>
#include <vector>

#include "common/simtime.h"

namespace cellscope {

class DailySeries {
 public:
  DailySeries() = default;
  // Covers days [first_day, last_day], both inclusive.
  DailySeries(SimDay first_day, SimDay last_day);

  // Overwrites the day's value. Throws std::out_of_range for a day outside
  // the window, as add() does.
  void set(SimDay day, double value);
  // Accumulates; value(day) then returns the mean of everything added.
  void add(SimDay day, double value);

  [[nodiscard]] bool has(SimDay day) const;
  // Mean of added values (or the set value). A missing day is NOT zero:
  // querying a day with no data (or outside the window) throws
  // std::out_of_range. Callers that genuinely want zero-filling (or any
  // other sentinel) must say so via value_or().
  [[nodiscard]] double value(SimDay day) const;
  // value(day) if the day has data, `fallback` otherwise.
  [[nodiscard]] double value_or(SimDay day, double fallback = 0.0) const;
  [[nodiscard]] std::size_t count(SimDay day) const;

  [[nodiscard]] SimDay first_day() const { return first_day_; }
  [[nodiscard]] SimDay last_day() const { return last_day_; }
  [[nodiscard]] bool empty() const { return sums_.empty(); }

  // Mean / median of recorded daily values within an ISO week. Missing days
  // are skipped, not zero-filled; a week with no data at all returns 0
  // (check week_covered_days() when that matters).
  [[nodiscard]] double week_mean(int iso_week_number) const;
  [[nodiscard]] double week_median(int iso_week_number) const;

  // All recorded daily values within an ISO week, in day order.
  [[nodiscard]] std::vector<double> week_values(int iso_week_number) const;

  // Number of days with data within an ISO week (0..7): the per-week
  // coverage a degraded feed leaves behind.
  [[nodiscard]] int week_covered_days(int iso_week_number) const;

  [[nodiscard]] int first_week() const { return iso_week(first_day_); }
  [[nodiscard]] int last_week() const { return iso_week(last_day_); }

  // Raw accumulator access for serialization (store/dataset_io). value()
  // divides sum by count, so a bitwise round trip must move the raw sum.
  // Days outside the window return 0 / are ignored.
  [[nodiscard]] double day_sum(SimDay day) const;
  void restore(SimDay day, double sum, std::size_t count);

 private:
  // Throws std::out_of_range outside [first_day_, last_day_].
  [[nodiscard]] std::size_t index(SimDay day) const;

  SimDay first_day_ = 0;
  SimDay last_day_ = -1;
  std::vector<double> sums_;
  std::vector<std::size_t> counts_;
};

// One point of a weekly figure line.
struct WeekPoint {
  int week = 0;       // ISO 2020 week number
  double value = 0.0; // typically a delta-% already
};

// Per-day % change of `series` vs `baseline` (paper: "percentage of change
// in the average daily value compared to average weekly value in week 9").
// Days without data are skipped.
struct DayPoint {
  SimDay day = 0;
  double value = 0.0;
};
[[nodiscard]] std::vector<DayPoint> daily_delta_percent(
    const DailySeries& series, double baseline);

// Per-week % change of the weekly *median* daily value vs `baseline`
// (the reduction used throughout Section 4's figures). Weeks with fewer
// than `min_samples` covered days are omitted entirely — a median over one
// or two surviving days of a mostly-dark week is noise, not signal.
[[nodiscard]] std::vector<WeekPoint> weekly_median_delta_percent(
    const DailySeries& series, double baseline, int from_week, int to_week,
    int min_samples = 1);

// Same but reducing each week by the mean (the documented ablation).
[[nodiscard]] std::vector<WeekPoint> weekly_mean_delta_percent(
    const DailySeries& series, double baseline, int from_week, int to_week,
    int min_samples = 1);

}  // namespace cellscope
