#include "sim/dataset_audit.h"

#include <span>

#include "audit/laws.h"

namespace cellscope::sim {

void audit_dataset_global(const Dataset& ds, audit::AuditReport& report) {
  const audit::MetricBounds bounds = audit::bounds_for(*ds.topology);

  audit::check_voice_accounting(ds.voice_calls, report);
  audit::check_quality_closure(ds.quality, report);
  audit::check_signaling_balance(ds.signaling, report);
  audit::check_mobility_ranges(ds.entropy_national, ds.gyration_national,
                               ds.entropy_distribution,
                               ds.gyration_distribution, bounds, report);
  audit::check_mobility_ranges(ds.entropy_by_region, ds.gyration_by_region,
                               {}, {}, bounds, report);
  audit::check_mobility_ranges(ds.entropy_by_cluster, ds.gyration_by_cluster,
                               {}, {}, bounds, report);
  if (ds.entropy_by_bin.group_count() > 0) {
    audit::check_mobility_ranges(ds.entropy_by_bin, ds.gyration_by_bin, {},
                                 {}, bounds, report);
  }

  // The measured 4G time share is a fraction of connected hours.
  report.add_checks("mobility-range");
  if (ds.measured_lte_time_share < 0.0 || ds.measured_lte_time_share > 1.0) {
    report.add_violation({"mobility-range", "measured_lte_time_share", 1.0,
                          ds.measured_lte_time_share,
                          "4G time share outside [0, 1]"});
  }

  // Resumed runs only: the restored ledger prefixes must reconcile with
  // the sizes recorded at the moment of the fast-forward.
  if (ds.recovery.resumed) {
    audit::check_checkpoint_consistency(
        ds.recovery.resumed_from_day, ds.recovery.checkpoint_kpi_rows,
        ds.recovery.checkpoint_voice_attempts,
        ds.recovery.checkpoint_signaling_days, ds.kpis, ds.voice_calls,
        ds.signaling, report);
  }
}

audit::AuditReport audit_dataset(const Dataset& ds) {
  audit::AuditReport report;
  const audit::MetricBounds bounds = audit::bounds_for(*ds.topology);
  const analysis::CellGrouping partition =
      audit::region_partition(*ds.topology);

  // Per-day KPI checks over the stored rows (day-ordered runs), as the
  // closer runs them in-process.
  const auto& records = ds.kpis.records();
  std::size_t begin = 0;
  while (begin < records.size()) {
    std::size_t end = begin;
    while (end < records.size() && records[end].day == records[begin].day)
      ++end;
    const std::span<const telemetry::CellDayRecord> day{
        records.data() + begin, end - begin};
    audit::check_kpi_day(records[begin].day, day, partition, bounds, report);
    audit::check_kpi_aggregation(day, partition, report);
    begin = end;
  }

  audit_dataset_global(ds, report);
  return report;
}

}  // namespace cellscope::sim
