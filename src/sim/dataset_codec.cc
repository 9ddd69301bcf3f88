#include "sim/dataset_codec.h"

#include <memory>
#include <string>

namespace cellscope::sim {

std::pair<double, std::uint64_t> DatasetDecoder::scalar(ScalarId id) const {
  const auto it = scalars_.find(id);
  return it == scalars_.end() ? std::pair<double, std::uint64_t>{}
                              : it->second;
}

bool DatasetDecoder::close(Section section) {
  if (section == Section::kKpis)
    ds_.kpis.add_day(std::exchange(kpi_day_, {}));
  if (section == Section::kValidation)
    validation_closed_ = !ds_.home_validation.points.empty();
  // A later record restates the totals; its day rows index its own.
  if (section == Section::kQuality) quality_names_.clear();
  if (section != Section::kScalars) return true;

  analysis::HomeValidation& v = ds_.home_validation;
  ds_.measured_lte_time_share = scalar(kLteTimeShare).first;
  ds_.eligible_users = scalar(kEligibleUsers).second;
  ds_.london_residents_tracked = scalar(kLondonResidents).second;
  v.fit.slope = scalar(kFitSlope).first;
  v.fit.intercept = scalar(kFitIntercept).first;
  v.fit.r_squared = scalar(kFitRSquared).first;
  v.fit.n = scalar(kFitN).second;
  v.expected_market_share = scalar(kExpectedMarketShare).first;
  if (scalar(kLondonPresent).second == 0)
    return ds_.london_matrix == nullptr;
  // The matrix allocates counties x days: its shape must name a real
  // county and a non-empty range inside the config window.
  const std::uint64_t county = scalar(kLondonHomeCounty).second;
  const auto first = static_cast<std::int64_t>(scalar(kMatrixFirstDay).second);
  const auto last = static_cast<std::int64_t>(scalar(kMatrixLastDay).second);
  if (county >= ds_.geography->counties().size() ||
      first < ds_.config.first_day() || last > ds_.config.last_day() ||
      first > last)
    return false;
  // Built once: a later checkpoint record restates the shape, and a new
  // matrix would drop the presence rows the earlier records restored.
  if (const auto* m = ds_.london_matrix.get())
    return m->home_county().value() == county && m->first_day() == first &&
           m->last_day() == last;
  ds_.london_matrix = std::make_unique<analysis::MobilityMatrix>(
      *ds_.geography, CountyId{static_cast<std::uint32_t>(county)},
      static_cast<SimDay>(first), static_cast<SimDay>(last));
  return true;
}

bool DatasetDecoder::complete() const {
  return ds_.kpis.row_count() == scalar(kKpiRowCount).second &&
         ds_.homes.size() == scalar(kHomeRowCount).second &&
         ds_.signaling.days().size() == scalar(kSignalingDayCount).second &&
         ds_.voice_calls.days().size() == scalar(kVoiceDayCount).second;
}

void encode_sections(const Dataset& ds, SimDay day, bool with_homes,
                     BlobWriter& w) {
  BlobRowWriter rows{w};
  for (const Section section : kDecodeOrder) {
    if (with_homes ||
        (section != Section::kHomes && section != Section::kValidation))
      encode_section(section, ds, rows, day);
    w.u8(0);
  }
}

void decode_sections(DatasetDecoder& decoder, BlobReader& r) {
  for (const Section section : kDecodeOrder) {
    const std::string what =
        "checkpoint record: section " + std::string(section_name(section));
    BlobRowReader row{r};
    while (row.next())
      if (!decoder.apply(section, row))
        throw BlobError{what + " refused a row"};
    if (!decoder.close(section)) throw BlobError{what + " is inconsistent"};
  }
  if (!decoder.complete())
    throw BlobError{"checkpoint record: section row counts disagree"};
}

}  // namespace cellscope::sim
