#include "sim/kpi_day_closer.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/run_state.h"
#include "sim/simulator.h"

namespace cellscope::sim {

KpiDayCloser::KpiDayCloser(const ScenarioConfig& config,
                           const radio::RadioTopology& topology,
                           const FaultPlan& faults, WorkerPool& pool)
    : config_(config),
      topology_(topology),
      faults_(faults),
      pool_(pool),
      interconnect_(config.interconnect),
      ordinal_(topology.cells().size(), kNotCollected),
      chunks_(pool.window()) {
  if (config_.collect_legacy_kpis) {
    for (const auto& cell : topology_.cells()) cells_.push_back(cell.id);
  } else {
    cells_ = topology_.lte_cells();
  }
  // Chunk rows concatenate into cell order only if the cells ascend.
  if (std::adjacent_find(cells_.begin(), cells_.end(),
                         [](CellId a, CellId b) {
                           return a.value() >= b.value();
                         }) != cells_.end())
    throw std::logic_error("KpiDayCloser: cells out of id order");
  for (std::size_t i = 0; i < cells_.size(); ++i)
    ordinal_[cells_[i].value()] = static_cast<std::uint32_t>(i);
  load_.cell_hours.resize(cells_.size() * kHoursPerDay);
  if (config_.audit) {
    audit_partition_ = audit::region_partition(topology_);
    audit_bounds_ = audit::bounds_for(topology_);
  }
}

void KpiDayCloser::restore(const RunState& state) {
  if (state.interconnect_calibrated)
    interconnect_.calibrate(std::max(state.week9_busy_hour_minutes, 1.0));
}

void KpiDayCloser::audit_day(SimDay day,
                             std::span<const telemetry::CellDayRecord> rows,
                             audit::AuditReport& report) const {
  audit::check_kpi_day(day, rows, audit_partition_, audit_bounds_, report);
  audit::check_kpi_aggregation(rows, audit_partition_, report);
}

void KpiDayCloser::begin_day(SimDay day) {
  day_ = day;
  // The grid needs no reset: close() zeroes every cell's slots as it reads
  // them.
  load_.offnet_minutes.fill(0.0);
  load_.voice_attempts.fill(0);
}

void KpiDayCloser::schedule_cell(
    std::size_t ordinal, const std::array<double, kHoursPerDay>& hour_loss,
    telemetry::CellDaySamples& samples, ChunkRows& chunk) {
  const CellId cell_id = cells_[ordinal];
  const std::span<radio::CellHourLoad> hours{
      load_.cell_hours.data() + ordinal * kHoursPerDay, kHoursPerDay};
  // A cell in an outage run is dark for the whole day: no hourly samples,
  // so it reduces to no row.
  const bool faults_on = faults_.enabled();
  if (faults_on && faults_.cell_out(cell_id, day_)) {
    std::fill(hours.begin(), hours.end(), radio::CellHourLoad{});
    return;
  }
  const radio::Cell& cell = topology_.cell(cell_id);
  samples.hours = 0;
  for (int h = 0; h < kHoursPerDay; ++h) {
    radio::CellHourLoad load =
        std::exchange(hours[static_cast<std::size_t>(h)], {});
    // Hours inside a KPI-collection outage are lost before daily
    // aggregation (the day reduces over its surviving hours).
    if (faults_on && faults_.kpi_feed_down(day_, h)) continue;
    if (load.active_dl_user_seconds > 0.0)
      load.app_limited_dl_mbps /= load.active_dl_user_seconds;
    samples.record(scheduler_.schedule_hour(
        cell, load, hour_loss[static_cast<std::size_t>(h)],
        &chunk.scheduler));
  }
  if (samples.hours > 0)
    chunk.rows.push_back(
        samples.reduce(cell_id, day_, config_.kpi_reduction));
}

std::vector<telemetry::CellDayRecord> KpiDayCloser::schedule_cells(
    const std::array<double, kHoursPerDay>& hour_loss) {
  std::vector<telemetry::CellDayRecord> rows;
  rows.reserve(cells_.size());
  // Each chunk schedules and reduces its cells in ordinal order, so the
  // chunks' rows concatenate into cell order.
  pool_.run(
      cells_.size(), kCellChunk,
      [&](std::size_t, std::size_t slot, std::size_t begin, std::size_t end,
          std::size_t) {
        ChunkRows& chunk = chunks_[slot];
        telemetry::CellDaySamples samples;
        for (std::size_t i = begin; i < end; ++i)
          schedule_cell(i, hour_loss, samples, chunk);
      },
      [&](std::size_t, std::size_t slot) {
        ChunkRows& chunk = chunks_[slot];
        rows.insert(rows.end(), chunk.rows.begin(), chunk.rows.end());
        chunk.rows.clear();
        counters_.scheduler += chunk.scheduler;
        chunk.scheduler = {};
      });
  counters_.cells_scheduled += cells_.size();
  return rows;
}

std::uint64_t KpiDayCloser::close(RunState& state, Dataset& ds,
                                  DatasetSink* sink) {
  const SimDay day = day_;
  const auto& offnet = load_.offnet_minutes;

  // Interconnect: dimensioned against the first KPI week's busy hour.
  const double day_busy_hour = *std::max_element(offnet.begin(), offnet.end());
  if (iso_week(day) == config_.kpi_first_week) {
    state.week9_busy_hour_minutes =
        std::max(state.week9_busy_hour_minutes, day_busy_hour);
  } else if (!state.interconnect_calibrated) {
    interconnect_.calibrate(std::max(state.week9_busy_hour_minutes, 1.0));
    state.interconnect_calibrated = true;
  }
  std::array<double, kHoursPerDay> hour_loss{};
  for (std::size_t h = 0; h < kHoursPerDay; ++h) {
    hour_loss[h] = state.interconnect_calibrated
                       ? interconnect_.dl_loss_pct(day, offnet[h])
                       : interconnect_.params().base_loss_pct;
  }
  ds.offnet_busy_hour_minutes.set(day, day_busy_hour);
  const auto busy_hour_index = static_cast<std::size_t>(
      std::max_element(offnet.begin(), offnet.end()) - offnet.begin());
  ds.interconnect_busy_hour_loss_pct.set(day, hour_loss[busy_hour_index]);

  // Classify the day's call attempts for the voice ledger. Blocked: the
  // off-net share of attempts in hours whose offered interconnect minutes
  // exceed trunk capacity (turned away at setup). Dropped: the in-call
  // casualties of the hour's trunk loss among what got through. Integer
  // floors on already-computed quantities — no RNG, no float accumulation
  // into any other structure — so the ledger moves no other output's bit.
  traffic::VoiceDayCalls vday;
  vday.day = day;
  for (std::size_t h = 0; h < kHoursPerDay; ++h) {
    const std::uint64_t attempts = load_.voice_attempts[h];
    vday.attempts += attempts;
    if (attempts == 0) continue;
    double overflow_frac = 0.0;
    if (state.interconnect_calibrated) {
      const double cap = interconnect_.capacity(day);
      const double offered = offnet[h];
      if (offered > cap && offered > 0.0)
        overflow_frac = (offered - cap) / offered;
    }
    const auto blocked = std::min(
        attempts, static_cast<std::uint64_t>(static_cast<double>(attempts) *
                                             overflow_frac *
                                             config_.voice.offnet_fraction));
    const std::uint64_t through = attempts - blocked;
    const auto dropped = std::min(
        through, static_cast<std::uint64_t>(static_cast<double>(through) *
                                            hour_loss[h] / 100.0));
    vday.blocked += blocked;
    vday.dropped += dropped;
    vday.completed += through - dropped;
  }
  ds.voice_calls.record_day(vday);

  std::vector<telemetry::CellDayRecord> rows = schedule_cells(hour_loss);

  if (faults_.enabled()) {
    // Warehouse-export faults: lose or duplicate whole cell-day rows.
    std::vector<telemetry::CellDayRecord> kept;
    kept.reserve(rows.size());
    std::uint64_t observed = 0;
    for (const auto& record : rows) {
      if (faults_.drop_kpi_record(record.cell.value(), day)) continue;
      ++observed;
      kept.push_back(record);
      if (faults_.duplicate_kpi_record(record.cell.value(), day)) {
        ds.quality.duplicate("kpi-feed");
        kept.push_back(record);
      }
    }
    ds.quality.expect("kpi-feed", day, cells_.size());
    ds.quality.observe("kpi-feed", day, observed);
    rows = std::move(kept);
  }
  // The audit sees what the feed delivered: conservation must hold over a
  // degraded feed too, since a duplicated row lands on both sides of every
  // sum.
  if (config_.audit) audit_day(day, rows, ds.audit_report);
  if (sink != nullptr && !rows.empty()) sink->on_kpi_day(day, rows);
  const std::uint64_t n_rows = rows.size();
  ds.kpis.add_day(std::move(rows));
  return n_rows;
}

void ChunkLoad::size_for(std::size_t cells) {
  clear();
  slot_of_.assign(cells * kHoursPerDay, 0);
  dirty_.reserve(slot_of_.size());
  loads_.reserve(slot_of_.size());
}

void ChunkLoad::merge_into(KpiDayCloser::DayLoad& day) {
  if (day.cell_hours.size() != slot_of_.size())
    throw std::logic_error("ChunkLoad: day load covers other cells");
  for (std::size_t k = 0; k < dirty_.size(); ++k)
    radio::merge_load(day.cell_hours[dirty_[k]], loads_[k]);
  for (std::size_t h = 0; h < kHoursPerDay; ++h) {
    day.offnet_minutes[h] += offnet_minutes[h];
    day.voice_attempts[h] += voice_attempts[h];
  }
  clear();
}

void ChunkLoad::clear() {
  for (const std::uint32_t slot : dirty_) slot_of_[slot] = 0;
  dirty_.clear();
  loads_.clear();
  offnet_minutes.fill(0.0);
  voice_attempts.fill(0);
}

void ChunkLoad::refuse(std::uint32_t ordinal) {
  throw std::logic_error("ChunkLoad: ordinal " + std::to_string(ordinal) +
                         " is not a collected cell of the slot map");
}

}  // namespace cellscope::sim
