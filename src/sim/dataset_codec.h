// One Dataset codec: the section table. The CSF1 store (store/dataset_io.h)
// and the checkpoint log (sim/checkpoint.h) hold a Dataset as the same ten
// sections, one per CSF1 feed. Each has one encoder, encode_section, that
// emits rows through the FeedFileWriter call shape (u64/i64/f64/bytes(col,
// value), end_row(day)), and one decoder, DatasetDecoder::apply, that reads
// them back through the matching reader shape. Dispatch is static: the
// checkpoint encode runs every simulated day. Column names and encodings
// live in store/feeds.cc. The ids are CSF1 format: append, never renumber.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace cellscope::sim {

// ------------------------------------------------------------- on-disk ids

// Series ids of the `series` section: the grouped series (kGroupedSeries
// order), then the plain daily series as group 0 (kDailySeries order).
enum SeriesId : std::uint64_t {
  kEntropyNational = 0,
  kGyrationNational,
  kEntropyByRegion,
  kGyrationByRegion,
  kEntropyByCluster,
  kGyrationByCluster,
  kEntropyByBin,
  kGyrationByBin,
  kOffnetBusyHour,
  kInterconnectLoss,
  kRoamersActive,
};

enum DistId : std::uint64_t { kGyrationDist = 0, kEntropyDist = 1 };

enum MatrixRowKind : std::uint64_t { kPresenceRow = 0, kObservationsRow = 1 };

enum QualityRowKind : std::uint64_t { kFeedTotalsRow = 0, kFeedDayRow = 1 };

// Scalar ids of the `scalars` section; each row is (id, double bits, u64).
enum ScalarId : std::uint64_t {
  kLteTimeShare = 0,
  kEligibleUsers,
  kLondonResidents,
  kLondonPresent,
  kLondonHomeCounty,
  kMatrixFirstDay,
  kMatrixLastDay,
  kFitSlope,
  kFitIntercept,
  kFitRSquared,
  kFitN,
  kExpectedMarketShare,
  kKpiRowCount,
  kHomeRowCount,
  kSignalingDayCount,
  kVoiceDayCount,
};

inline constexpr std::array<analysis::GroupedDailySeries Dataset::*, 8>
    kGroupedSeries = {
        &Dataset::entropy_national,   &Dataset::gyration_national,
        &Dataset::entropy_by_region,  &Dataset::gyration_by_region,
        &Dataset::entropy_by_cluster, &Dataset::gyration_by_cluster,
        &Dataset::entropy_by_bin,     &Dataset::gyration_by_bin};
inline constexpr std::array<DailySeries Dataset::*, 3> kDailySeries = {
    &Dataset::offnet_busy_hour_minutes,
    &Dataset::interconnect_busy_hour_loss_pct, &Dataset::roamers_active};
static_assert(kOffnetBusyHour == kGroupedSeries.size() &&
              kRoamersActive + 1 ==
                  kGroupedSeries.size() + kDailySeries.size());

// Indexed by DistId.
inline constexpr std::array<analysis::DistributionSeries Dataset::*, 2>
    kDistributions = {&Dataset::gyration_distribution,
                      &Dataset::entropy_distribution};

// ---------------------------------------------------------------- sections

enum class Section : std::uint8_t {
  kKpis, kSignaling, kHomes, kValidation, kSeries,
  kDistributions, kMatrix, kQuality, kVoice, kScalars,
};

// Feed names indexed by Section, in the store manifest's feed order.
inline constexpr std::array<std::string_view, 10> kSectionNames = {
    "kpis",   "signaling", "homes",   "validation", "series",
    "distributions", "matrix", "quality", "voice", "scalars"};
// Every section, scalars first: they carry the matrix shape and the row
// counts that make a short section detectable.
inline constexpr std::array<Section, 10> kDecodeOrder = {
    Section::kScalars, Section::kKpis,   Section::kSignaling,
    Section::kHomes,   Section::kValidation, Section::kSeries,
    Section::kDistributions, Section::kMatrix, Section::kQuality,
    Section::kVoice};

[[nodiscard]] inline std::string_view section_name(Section section) {
  return kSectionNames[static_cast<std::size_t>(section)];
}

// -------------------------------------------------------------- row shape

// put_row / get_row set and read columns 0, 1, 2, ... in order, each
// through the call its value type selects: std::uint64_t u64 (kVarint),
// std::int64_t i64 (kDeltaZigzagVarint), double f64 (kRaw64),
// std::string_view bytes (kBytes). A Day reads an i64, nullopt unless it
// fits a SimDay.
using Day = std::optional<SimDay>;

template <class W, class V>
void put_column(W& w, std::size_t col, const V& v) {
  if constexpr (std::is_same_v<V, std::uint64_t>) w.u64(col, v);
  else if constexpr (std::is_same_v<V, std::int64_t>) w.i64(col, v);
  else if constexpr (std::is_same_v<V, double>) w.f64(col, v);
  else w.bytes(col, std::string_view{v});
}

template <class W, class... V>
void put_row(W& w, std::int64_t day, const V&... values) {
  std::size_t col = 0;
  (put_column(w, col++, values), ...);
  w.end_row(day);
}

template <class V, class R>
V get_column(R& row, std::size_t col) {
  if constexpr (std::is_same_v<V, std::uint64_t>) return row.u64(col);
  else if constexpr (std::is_same_v<V, std::int64_t>) return row.i64(col);
  else if constexpr (std::is_same_v<V, Day>) {
    const std::int64_t day = row.i64(col);
    return day < std::numeric_limits<SimDay>::min() ||
                   day > std::numeric_limits<SimDay>::max()
               ? Day{}
               : Day{static_cast<SimDay>(day)};
  }
  else if constexpr (std::is_same_v<V, double>) return row.f64(col);
  else return row.bytes(col);
}

template <class... V, class R>
std::tuple<V...> get_row(R& row) {
  return [&]<std::size_t... Col>(std::index_sequence<Col...>) {
    // A braced list evaluates its elements left to right.
    return std::tuple<V...>{get_column<V>(row, Col)...};
  }(std::index_sequence_for<V...>{});
}

// ---------------------------------------------------------------- encoders

template <class W>
void encode_kpi_row(const telemetry::CellDayRecord& r, W& w) {
  w.i64(0, r.day);
  w.i64(1, r.cell.value());
  for (std::size_t m = 0; m < telemetry::kKpiFields.size(); ++m)
    w.f64(2 + m, r.*telemetry::kKpiFields[m]);
  w.end_row(r.day);
}

// Days a series never touched or a distribution never sealed are default
// state, not data, and emit no row; a sealed day is state even at n == 0.
// Given `only_day`, a dated section emits that day's rows alone (the rows
// of a checkpoint record); sections without days (homes, validation,
// scalars, quality totals) are emitted whole either way.
template <class W>
void encode_section(Section section, const Dataset& ds, W& w,
                    std::optional<SimDay> only_day = std::nullopt) {
  using U = std::uint64_t;
  using I = std::int64_t;
  const SimDay lo = only_day.value_or(std::numeric_limits<SimDay>::min());
  const SimDay hi = only_day.value_or(std::numeric_limits<SimDay>::max());
  // The rows of a day-sorted vector whose day lies in [lo, hi].
  const auto dated = [lo, hi](const auto& rows) {
    const auto begin = std::partition_point(
        rows.begin(), rows.end(), [lo](const auto& r) { return r.day < lo; });
    const auto end = std::partition_point(
        begin, rows.end(), [hi](const auto& r) { return r.day <= hi; });
    return std::span{begin, end};
  };
  switch (section) {
    case Section::kKpis:
      // A checkpoint record reads its day from the rows a streaming run
      // still holds; the store needs every row, which a released store
      // refuses to pretend it has.
      for (const auto& r : only_day ? dated(ds.kpis.retained())
                                    : std::span{ds.kpis.records()})
        encode_kpi_row(r, w);
      return;
    case Section::kSignaling:
      for (const auto& d : dated(ds.signaling.days())) {
        w.i64(0, d.day);
        for (std::size_t t = 0; t < d.total.size(); ++t) {
          w.u64(1 + 2 * t, d.total[t]);
          w.u64(2 + 2 * t, d.failures[t]);
        }
        w.end_row(d.day);
      }
      return;
    case Section::kHomes:
      for (const auto& h : ds.homes)
        put_row(w, 0, I{h.user.value()}, U{h.home_site.value()},
                U{h.home_district.value()}, U{h.home_county.value()},
                h.night_hours, static_cast<U>(h.nights_observed));
      return;
    case Section::kValidation:
      for (const auto& p : ds.home_validation.points)
        put_row(w, 0, I{p.lad.value()}, I{p.census_population},
                I{p.inferred_residents});
      return;
    case Section::kSeries: {
      const auto put = [&](U id, U group, const DailySeries& s) {
        for (SimDay day = std::max(s.first_day(), lo);
             day <= std::min(s.last_day(), hi); ++day)
          if (const U count = s.count(day); count > 0)
            put_row(w, day, id, group, I{day}, s.day_sum(day), count);
      };
      for (std::size_t id = 0; id < kGroupedSeries.size(); ++id) {
        const analysis::GroupedDailySeries& g = ds.*kGroupedSeries[id];
        for (std::size_t group = 0; group < g.group_count(); ++group)
          put(id, group, g.group(group));
      }
      for (std::size_t k = 0; k < kDailySeries.size(); ++k)
        put(kOffnetBusyHour + k, 0, ds.*kDailySeries[k]);
      return;
    }
    case Section::kDistributions:
      for (std::size_t id = 0; id < kDistributions.size(); ++id) {
        const analysis::DistributionSeries& d = ds.*kDistributions[id];
        for (SimDay day = std::max(d.first_day(), lo);
             day <= std::min(d.last_day(), hi); ++day) {
          if (!d.sealed_day(day)) continue;
          const stats::Summary& s = d.day_summary(day);
          put_row(w, day, U{id}, I{day}, U{s.n}, s.mean, s.p10, s.p25,
                  s.median, s.p75, s.p90);
        }
      }
      return;
    case Section::kMatrix: {
      if (ds.london_matrix == nullptr) return;
      const analysis::MobilityMatrix& m = *ds.london_matrix;
      const SimDay first = std::max(m.first_day(), lo);
      const SimDay last = std::min(m.last_day(), hi);
      for (U c = 0; c < ds.geography->counties().size(); ++c)
        for (SimDay day = first; day <= last; ++day)
          if (const double presence =
                  m.presence(CountyId{static_cast<std::uint32_t>(c)}, day);
              presence != 0.0)
            put_row(w, day, U{kPresenceRow}, c, I{day}, presence, U{0});
      for (SimDay day = first; day <= last; ++day)
        if (const U observations = m.day_observations(day); observations > 0)
          put_row(w, day, U{kObservationsRow}, U{0}, I{day}, 0.0,
                  observations);
      return;
    }
    case Section::kQuality:
      // Feeds in ledger order (the order is state: the report keeps feeds
      // in first-touch order); day rows name their feed by that position.
      for (U i = 0; i < ds.quality.feeds().size(); ++i) {
        const telemetry::FeedQuality& f = ds.quality.feeds()[i];
        put_row(w, 0, U{kFeedTotalsRow}, std::string_view{f.name}, I{0},
                U{f.expected_records}, U{f.observed_records},
                U{f.quarantined_records}, U{f.duplicate_records});
        for (auto it = f.days.lower_bound(lo);
             it != f.days.end() && it->first <= hi; ++it)
          put_row(w, it->first, U{kFeedDayRow}, std::string_view{},
                  I{it->first}, i, U{it->second.expected},
                  U{it->second.observed}, U{0});
      }
      return;
    case Section::kVoice:
      for (const auto& d : dated(ds.voice_calls.days()))
        put_row(w, d.day, I{d.day}, U{d.attempts}, U{d.completed},
                U{d.blocked}, U{d.dropped});
      return;
    case Section::kScalars: {
      const auto put = [&](ScalarId id, double fvalue, U uvalue) {
        put_row(w, 0, U{id}, fvalue, uvalue);
      };
      const analysis::MobilityMatrix* m = ds.london_matrix.get();
      const analysis::HomeValidation& v = ds.home_validation;
      put(kLteTimeShare, ds.measured_lte_time_share, 0);
      put(kEligibleUsers, 0.0, ds.eligible_users);
      put(kLondonResidents, 0.0, ds.london_residents_tracked);
      put(kLondonPresent, 0.0, m != nullptr ? 1 : 0);
      if (m != nullptr) {
        put(kLondonHomeCounty, 0.0, m->home_county().value());
        put(kMatrixFirstDay, 0.0, static_cast<U>(m->first_day()));
        put(kMatrixLastDay, 0.0, static_cast<U>(m->last_day()));
      }
      put(kFitSlope, v.fit.slope, 0);
      put(kFitIntercept, v.fit.intercept, 0);
      put(kFitRSquared, v.fit.r_squared, 0);
      put(kFitN, 0.0, v.fit.n);
      put(kExpectedMarketShare, v.expected_market_share, 0);
      put(kKpiRowCount, 0.0, ds.kpis.row_count());
      put(kHomeRowCount, 0.0, ds.homes.size());
      put(kSignalingDayCount, 0.0, ds.signaling.days().size());
      put(kVoiceDayCount, 0.0, ds.voice_calls.days().size());
      return;
    }
  }
}

// The Dataset half of day `day`'s checkpoint record (sim/run_state.h):
// every section in kDecodeOrder through the blob adapters of
// sim/checkpoint.h, each closed by a 0 byte. Dated sections hold that
// day's rows alone; homes and validation are emitted only `with_homes`.
void encode_sections(const Dataset& ds, SimDay day, bool with_homes,
                     BlobWriter& w);

// ---------------------------------------------------------------- decoders

// One KPI row, or nullopt when its day or cell id cannot be represented.
template <class R>
[[nodiscard]] std::optional<telemetry::CellDayRecord> decode_kpi_row(R& row) {
  telemetry::CellDayRecord r;
  const Day day = get_column<Day>(row, 0);
  const std::int64_t cell = row.i64(1);
  for (std::size_t m = 0; m < telemetry::kKpiFields.size(); ++m)
    r.*telemetry::kKpiFields[m] = row.f64(2 + m);
  if (!day || cell < 0 || cell > std::numeric_limits<std::uint32_t>::max())
    return std::nullopt;
  r.day = *day;
  r.cell = CellId{static_cast<std::uint32_t>(cell)};
  return r;
}

// Decodes sections in kDecodeOrder, each followed by close(), into a Dataset
// holding its substrate and window shape; every index is checked first.
// The store decodes each section once. A checkpoint log decodes every
// record's sections in turn through one decoder: dated rows accumulate
// (days must keep moving forward across records), scalars and quality
// totals are restated whole by each record, and homes and validation
// arrive in one record only.
class DatasetDecoder {
 public:
  explicit DatasetDecoder(Dataset& ds) : ds_(ds) {}

  // False, applying nothing, when the row is refused: an id, index or day
  // the Dataset's config and substrate do not allow, out of day order, or
  // validation after a record already closed it.
  template <class R>
  bool apply(Section section, R& row);

  // False when the section is inconsistent (a matrix shape outside the
  // config window, or unlike the shape an earlier record set).
  bool close(Section section);

  // True when the sections hold exactly the rows the scalars counted.
  [[nodiscard]] bool complete() const;

 private:
  Dataset& ds_;
  std::map<std::uint64_t, std::pair<double, std::uint64_t>> scalars_;
  std::vector<telemetry::CellDayRecord> kpi_day_;  // rows of the open day
  std::vector<std::string> quality_names_;  // this section's totals, in order
  bool validation_closed_ = false;  // a closed section held validation rows

  [[nodiscard]] std::pair<double, std::uint64_t> scalar(ScalarId id) const;
};

// Applies one record's sections through `decoder`, whose Dataset holds the
// substrate, the window shape and every earlier record of the log. Throws
// BlobError on truncated input, a refused row, an inconsistent section, or
// row counts that disagree with the record's scalars.
void decode_sections(DatasetDecoder& decoder, BlobReader& r);

template <class R>
bool DatasetDecoder::apply(Section section, R& row) {
  using U = std::uint64_t;
  using I = std::int64_t;
  const auto u32 = [](auto v) { return static_cast<std::uint32_t>(v); };
  switch (section) {
    case Section::kKpis: {
      // Rows regroup into one add_day() batch per day; a day that does not
      // move forward could only be a remnant of damage.
      const auto r = decode_kpi_row(row);
      if (!r) return false;
      if (!kpi_day_.empty() && r->day != kpi_day_.front().day)
        ds_.kpis.add_day(std::exchange(kpi_day_, {}));
      if (kpi_day_.empty() && !ds_.kpis.empty() &&
          r->day <= ds_.kpis.last_day())
        return false;
      kpi_day_.push_back(*r);
      return true;
    }
    case Section::kSignaling: {
      telemetry::DailySignalingCounts counts;
      const Day day = get_column<Day>(row, 0);
      for (std::size_t t = 0; t < counts.total.size(); ++t) {
        counts.total[t] = row.u64(1 + 2 * t);
        counts.failures[t] = row.u64(2 + 2 * t);
      }
      const auto& days = ds_.signaling.days();
      if (!day || (!days.empty() && *day <= days.back().day)) return false;
      counts.day = *day;
      ds_.signaling.restore_day(counts);
      return true;
    }
    case Section::kHomes: {
      const auto [user, site, district, county, hours, nights] =
          get_row<I, U, U, U, double, U>(row);
      if (user < 0 ||
          static_cast<U>(user) >= ds_.population->subscribers.size())
        return false;
      ds_.homes.push_back({UserId{u32(user)}, SiteId{u32(site)},
                           PostcodeDistrictId{u32(district)},
                           CountyId{u32(county)}, hours,
                           static_cast<int>(nights)});
      return true;
    }
    case Section::kValidation: {
      const auto [lad, census, inferred] = get_row<I, I, I>(row);
      if (validation_closed_ || lad < 0 ||
          lad > std::numeric_limits<std::uint32_t>::max())
        return false;
      ds_.home_validation.points.push_back({LadId{u32(lad)}, census, inferred});
      return true;
    }
    case Section::kSeries: {
      const auto [id, group, day, sum, count] =
          get_row<U, U, Day, double, U>(row);
      DailySeries* target = nullptr;
      if (id < kGroupedSeries.size()) {
        analysis::GroupedDailySeries& g = ds_.*kGroupedSeries[id];
        if (group < g.group_count()) target = &g.group_mutable(group);
      } else if (id - kGroupedSeries.size() < kDailySeries.size() &&
                 group == 0) {
        target = &(ds_.*kDailySeries[id - kGroupedSeries.size()]);
      }
      if (target == nullptr || !day) return false;
      target->restore(*day, sum, count);
      return true;
    }
    case Section::kDistributions: {
      const auto [id, day, n, mean, p10, p25, median, p75, p90] =
          get_row<U, Day, U, double, double, double, double, double, double>(
              row);
      if (id >= kDistributions.size() || !day) return false;
      (ds_.*kDistributions[id])
          .restore_day(*day, {n, mean, p10, p25, median, p75, p90});
      return true;
    }
    case Section::kMatrix: {
      const auto [kind, county, day, presence, observations] =
          get_row<U, U, Day, double, U>(row);
      if (ds_.london_matrix == nullptr || !day) return false;
      if (kind == kPresenceRow && county < ds_.geography->counties().size())
        ds_.london_matrix->restore_presence(CountyId{u32(county)}, *day,
                                            presence);
      else if (kind == kObservationsRow)
        ds_.london_matrix->restore_observations(*day, observations);
      else
        return false;
      return true;
    }
    case Section::kQuality: {
      const auto [kind, name, day, a, b, c, d] =
          get_row<U, std::string_view, Day, U, U, U, U>(row);
      if (kind == kFeedTotalsRow) {
        telemetry::FeedQuality& f = ds_.quality.feed(name);
        f.expected_records = a;
        f.observed_records = b;
        f.quarantined_records = c;
        f.duplicate_records = d;
        quality_names_.emplace_back(name);
        return true;
      }
      if (kind != kFeedDayRow || a >= quality_names_.size() || !day)
        return false;
      ds_.quality.feed(quality_names_[a]).days[*day] = {b, c};
      return true;
    }
    case Section::kVoice: {
      const auto [day, attempts, completed, blocked, dropped] =
          get_row<Day, U, U, U, U>(row);
      const auto& days = ds_.voice_calls.days();
      if (!day || (!days.empty() && *day <= days.back().day)) return false;
      ds_.voice_calls.record_day({*day, attempts, completed, blocked, dropped});
      return true;
    }
    case Section::kScalars: {
      const auto [id, fvalue, uvalue] = get_row<U, double, U>(row);
      scalars_[id] = {fvalue, uvalue};
      return true;
    }
  }
  return false;
}

}  // namespace cellscope::sim
