#include "analysis/mobility_metrics.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "common/simtime.h"

namespace cellscope::analysis {

double entropy_from_dwell(std::span<const double> hours) {
  double total = 0.0;
  for (const double h : hours) total += h;
  if (total <= 0.0) return 0.0;
  double e = 0.0;
  for (const double h : hours) {
    if (h <= 0.0) continue;
    const double p = h / total;
    e -= p * std::log(p);
  }
  return e;
}

double gyration_from_stays(std::span<const LatLon> locations,
                           std::span<const double> hours) {
  if (locations.size() != hours.size() || locations.empty()) return 0.0;
  double total = 0.0;
  for (const double h : hours) total += h;
  if (total <= 0.0) return 0.0;

  // Time-weighted centre of mass.
  double lat = 0.0, lon = 0.0;
  for (std::size_t j = 0; j < locations.size(); ++j) {
    lat += hours[j] * locations[j].lat_deg;
    lon += hours[j] * locations[j].lon_deg;
  }
  const LatLon cm{lat / total, lon / total};

  double accum = 0.0;
  for (std::size_t j = 0; j < locations.size(); ++j) {
    const double d = distance_km(locations[j], cm);
    accum += hours[j] * d * d;
  }
  return std::sqrt(accum / total);
}

std::optional<DayMetrics> compute_day_metrics(
    const telemetry::UserDayObservation& observation,
    const MobilityMetricOptions& options) {
  // A simulated day has at most one tower per hour, so its entries fit in
  // the stack buffers; only a larger hand-built observation uses the heap.
  struct Entry {
    LatLon location;
    double hours;
  };
  std::array<Entry, kHoursPerDay> entry_stack;
  std::array<LatLon, kHoursPerDay> location_stack;
  std::array<double, kHoursPerDay> hour_stack;
  std::vector<Entry> entry_heap;
  std::vector<LatLon> location_heap;
  std::vector<double> hour_heap;
  std::span<Entry> entries{entry_stack};
  std::span<LatLon> locations{location_stack};
  std::span<double> hours{hour_stack};
  if (const std::size_t n = observation.stays.size(); n > kHoursPerDay) {
    entry_heap.resize(n);
    location_heap.resize(n);
    hour_heap.resize(n);
    entries = entry_heap;
    locations = location_heap;
    hours = hour_heap;
  }

  // Extract dwell time per tower in the selected window.
  std::size_t n = 0;
  for (const auto& stay : observation.stays) {
    const double h =
        options.four_hour_bin
            ? static_cast<double>(stay.bin_hours[static_cast<std::size_t>(
                  *options.four_hour_bin)])
            : static_cast<double>(stay.hours);
    if (h > 0.0) entries[n++] = {stay.location, h};
  }
  if (n == 0) return std::nullopt;

  // Top-K towers by dwell time (Section 2.3 keeps the top 20).
  if (options.top_k > 0 && n > static_cast<std::size_t>(options.top_k)) {
    std::nth_element(entries.begin(),
                     entries.begin() + (options.top_k - 1),
                     entries.begin() + static_cast<std::ptrdiff_t>(n),
                     [](const Entry& a, const Entry& b) {
                       return a.hours > b.hours;
                     });
    n = static_cast<std::size_t>(options.top_k);
  }

  double total = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    locations[j] = entries[j].location;
    hours[j] = entries[j].hours;
    total += entries[j].hours;
  }

  DayMetrics metrics;
  metrics.entropy = entropy_from_dwell(hours.first(n));
  metrics.gyration_km =
      gyration_from_stays(locations.first(n), hours.first(n));
  metrics.towers_visited = static_cast<int>(n);
  metrics.hours_observed = total;
  return metrics;
}

}  // namespace cellscope::analysis
