#include "sim/faults.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>

namespace cellscope::sim {

namespace {

// Key for the per-record decision streams: unique per (id, day) inside any
// realistic window (day fits comfortably in 20 bits).
constexpr std::uint64_t record_key(std::uint32_t id, SimDay day) {
  return (static_cast<std::uint64_t>(id) << 20) ^
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(day));
}

void check_rate(double value, const char* name) {
  if (value < 0.0 || value > 1.0)
    throw std::invalid_argument(std::string("FaultConfig: ") + name +
                                " must be in [0, 1]");
}

void check_nonnegative(double value, const char* name) {
  if (value < 0.0 || !std::isfinite(value))
    throw std::invalid_argument(std::string("FaultConfig: ") + name +
                                " must be finite and >= 0");
}

// Draws the outage windows of one feed and marks them in an hourly bitmap.
std::vector<FaultPlan::Window> draw_windows(Rng rng, double per_week,
                                            double mean_hours,
                                            SimDay first_day, SimDay last_day,
                                            std::vector<std::uint8_t>& down) {
  std::vector<FaultPlan::Window> windows;
  if (per_week <= 0.0) return windows;
  const auto n_days = static_cast<std::size_t>(last_day - first_day + 1);
  const auto total_hours = static_cast<std::uint64_t>(n_days) * kHoursPerDay;
  const double weeks = static_cast<double>(n_days) / kDaysPerWeek;
  const std::uint64_t count = rng.poisson(per_week * weeks);
  if (count == 0) return windows;

  down.assign(total_hours, 0);
  const SimHour base = first_hour(first_day);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto start_offset = rng.uniform_index(total_hours);
    const auto duration = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(
               rng.exponential(std::max(mean_hours, 1.0)))));
    const auto end_offset = std::min<std::uint64_t>(
        total_hours, start_offset + duration);
    windows.push_back({base + static_cast<SimHour>(start_offset),
                       base + static_cast<SimHour>(end_offset)});
    for (auto h = start_offset; h < end_offset; ++h) down[h] = 1;
  }
  std::sort(windows.begin(), windows.end(),
            [](const auto& a, const auto& b) { return a.start < b.start; });
  return windows;
}

double parse_spec_number(std::string_view text, std::string_view key) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    throw std::invalid_argument("fault spec: bad number '" +
                                std::string(text) + "' for key '" +
                                std::string(key) + "'");
  return value;
}

}  // namespace

bool FaultConfig::any() const {
  return signaling_outages_per_week > 0.0 || kpi_outages_per_week > 0.0 ||
         cell_outage_daily_prob > 0.0 || observation_loss_rate > 0.0 ||
         kpi_record_loss_rate > 0.0 || kpi_record_duplication_rate > 0.0;
}

void FaultConfig::validate() const {
  check_nonnegative(signaling_outages_per_week, "signaling_outages_per_week");
  check_nonnegative(signaling_outage_mean_hours,
                    "signaling_outage_mean_hours");
  check_nonnegative(kpi_outages_per_week, "kpi_outages_per_week");
  check_nonnegative(kpi_outage_mean_hours, "kpi_outage_mean_hours");
  check_nonnegative(cell_outage_mean_days, "cell_outage_mean_days");
  check_rate(cell_outage_daily_prob, "cell_outage_daily_prob");
  check_rate(observation_loss_rate, "observation_loss_rate");
  check_rate(kpi_record_loss_rate, "kpi_record_loss_rate");
  check_rate(kpi_record_duplication_rate, "kpi_record_duplication_rate");
}

FaultConfig uniform_loss_faults(double rate) {
  FaultConfig config;
  config.observation_loss_rate = rate;
  config.kpi_record_loss_rate = rate;
  config.signaling_outages_per_week = 0.25;
  config.signaling_outage_mean_hours = 6.0;
  config.kpi_outages_per_week = 0.25;
  config.kpi_outage_mean_hours = 4.0;
  config.cell_outage_daily_prob = 0.002;
  config.validate();
  return config;
}

FaultConfig parse_fault_spec(std::string_view spec) {
  FaultConfig config;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    auto comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const auto entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    if (eq == std::string_view::npos)
      throw std::invalid_argument("fault spec: expected key=value, got '" +
                                  std::string(entry) + "'");
    const auto key = entry.substr(0, eq);
    const double value = parse_spec_number(entry.substr(eq + 1), key);
    if (key == "loss") {
      config.observation_loss_rate = value;
      config.kpi_record_loss_rate = value;
    } else if (key == "obs_loss") {
      config.observation_loss_rate = value;
    } else if (key == "kpi_loss") {
      config.kpi_record_loss_rate = value;
    } else if (key == "dup") {
      config.kpi_record_duplication_rate = value;
    } else if (key == "sig_outages") {
      config.signaling_outages_per_week = value;
    } else if (key == "sig_hours") {
      config.signaling_outage_mean_hours = value;
    } else if (key == "kpi_outages") {
      config.kpi_outages_per_week = value;
    } else if (key == "kpi_hours") {
      config.kpi_outage_mean_hours = value;
    } else if (key == "cell_daily") {
      config.cell_outage_daily_prob = value;
    } else if (key == "cell_days") {
      config.cell_outage_mean_days = value;
    } else {
      throw std::invalid_argument("fault spec: unknown key '" +
                                  std::string(key) + "'");
    }
  }
  config.validate();
  return config;
}

FaultPlan FaultPlan::build(const FaultConfig& config, std::uint64_t seed,
                           SimDay first_day, SimDay last_day,
                           std::size_t cell_count) {
  config.validate();
  FaultPlan plan;
  if (!config.any() || last_day < first_day) return plan;

  plan.enabled_ = true;
  plan.first_day_ = first_day;
  plan.last_day_ = last_day;
  plan.n_days_ = static_cast<std::size_t>(last_day - first_day + 1);
  plan.n_cells_ = cell_count;
  plan.observation_loss_rate_ = config.observation_loss_rate;
  plan.kpi_record_loss_rate_ = config.kpi_record_loss_rate;
  plan.kpi_record_duplication_rate_ = config.kpi_record_duplication_rate;

  // Every fault family forks its own stream off "faults", so each family's
  // realization depends only on the scenario seed and its own knobs.
  const Rng root = Rng{seed}.fork("faults");

  plan.signaling_windows_ = draw_windows(
      root.fork("signaling-outages"), config.signaling_outages_per_week,
      config.signaling_outage_mean_hours, first_day, last_day,
      plan.signaling_down_);
  plan.kpi_windows_ = draw_windows(
      root.fork("kpi-outages"), config.kpi_outages_per_week,
      config.kpi_outage_mean_hours, first_day, last_day, plan.kpi_down_);

  if (config.cell_outage_daily_prob > 0.0 && cell_count > 0) {
    plan.cell_out_.assign(cell_count * plan.n_days_, 0);
    for (std::size_t c = 0; c < cell_count; ++c) {
      // Per-cell stream: adding cells extends, never reshuffles, the plan.
      Rng cell_rng = root.fork("cell-outages", c);
      for (std::size_t d = 0; d < plan.n_days_; ++d) {
        if (plan.cell_out_[c * plan.n_days_ + d]) continue;
        if (!cell_rng.chance(config.cell_outage_daily_prob)) continue;
        const auto run = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::llround(cell_rng.exponential(
                   std::max(config.cell_outage_mean_days, 1.0)))));
        for (std::size_t k = d; k < std::min(plan.n_days_, d + run); ++k) {
          plan.cell_out_[c * plan.n_days_ + k] = 1;
          ++plan.cell_outage_cell_days_;
        }
      }
    }
  }

  plan.observation_loss_rng_ = root.fork("observation-loss");
  plan.kpi_loss_rng_ = root.fork("kpi-record-loss");
  plan.kpi_dup_rng_ = root.fork("kpi-record-duplication");
  return plan;
}

bool FaultPlan::signaling_down(SimDay day, int hour) const {
  if (signaling_down_.empty() || !in_window(day)) return false;
  const auto offset =
      static_cast<std::size_t>(day - first_day_) * kHoursPerDay +
      static_cast<std::size_t>(hour);
  return signaling_down_[offset] != 0;
}

bool FaultPlan::kpi_feed_down(SimDay day, int hour) const {
  if (kpi_down_.empty() || !in_window(day)) return false;
  const auto offset =
      static_cast<std::size_t>(day - first_day_) * kHoursPerDay +
      static_cast<std::size_t>(hour);
  return kpi_down_[offset] != 0;
}

int FaultPlan::signaling_down_hours(SimDay day) const {
  return std::popcount(signaling_down_mask(day));
}

std::uint32_t FaultPlan::signaling_down_mask(SimDay day) const {
  std::uint32_t mask = 0;
  for (int h = 0; h < kHoursPerDay; ++h)
    if (signaling_down(day, h)) mask |= 1u << h;
  return mask;
}

int FaultPlan::kpi_down_hours(SimDay day) const {
  int hours = 0;
  for (int h = 0; h < kHoursPerDay; ++h)
    if (kpi_feed_down(day, h)) ++hours;
  return hours;
}

bool FaultPlan::cell_out(CellId cell, SimDay day) const {
  if (cell_out_.empty() || !in_window(day)) return false;
  const std::size_t c = cell.value();
  if (c >= n_cells_) return false;
  return cell_out_[c * n_days_ +
                   static_cast<std::size_t>(day - first_day_)] != 0;
}

bool FaultPlan::drop_observation(std::uint32_t user, SimDay day) const {
  if (observation_loss_rate_ <= 0.0) return false;
  return observation_loss_rng_.fork("rec", record_key(user, day)).uniform() <
         observation_loss_rate_;
}

bool FaultPlan::drop_kpi_record(std::uint32_t cell, SimDay day) const {
  if (kpi_record_loss_rate_ <= 0.0) return false;
  return kpi_loss_rng_.fork("rec", record_key(cell, day)).uniform() <
         kpi_record_loss_rate_;
}

bool FaultPlan::duplicate_kpi_record(std::uint32_t cell, SimDay day) const {
  if (kpi_record_duplication_rate_ <= 0.0) return false;
  return kpi_dup_rng_.fork("rec", record_key(cell, day)).uniform() <
         kpi_record_duplication_rate_;
}

}  // namespace cellscope::sim
