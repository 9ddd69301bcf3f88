#include "obs/manifest.h"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "obs/json.h"

namespace cellscope::obs {

namespace {

// JSON has no NaN/Inf; degenerate values serialize as 0.
std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

const char* kind_name(MetricSnapshot::Kind kind) {
  switch (kind) {
    case MetricSnapshot::Kind::kCounter: return "counter";
    case MetricSnapshot::Kind::kGauge: return "gauge";
    case MetricSnapshot::Kind::kHistogram: return "histogram";
  }
  return "unknown";
}

}  // namespace

void write_manifest_json(std::ostream& os, const RunManifest& m) {
  os << "{\n";
  os << "  \"schema\": \"cellscope-run-manifest/1\",\n";
  os << "  \"name\": \"" << json_escape(m.name) << "\",\n";
  os << "  \"tool\": \"" << json_escape(m.tool) << "\",\n";
  os << "  \"git_describe\": \"" << json_escape(m.git_describe) << "\",\n";
  os << "  \"config_digest\": \"" << json_escape(m.config_digest) << "\",\n";
  os << "  \"seed\": " << m.seed << ",\n";
  os << "  \"users\": " << m.users << ",\n";
  os << "  \"worker_threads\": " << m.worker_threads << ",\n";
  os << "  \"first_week\": " << m.first_week << ",\n";
  os << "  \"last_week\": " << m.last_week << ",\n";
  os << "  \"wall_seconds\": " << number(m.wall_seconds) << ",\n";
  os << "  \"user_days_per_sec\": " << number(m.user_days_per_sec) << ",\n";
  os << "  \"peak_rss_kb\": " << m.peak_rss_kb << ",\n";

  os << "  \"phases\": [";
  for (std::size_t i = 0; i < m.phases.size(); ++i) {
    const auto& p = m.phases[i];
    os << (i ? "," : "") << "\n    {\"name\": \"" << json_escape(p.name)
       << "\", \"category\": \"" << json_escape(p.category)
       << "\", \"count\": " << p.count
       << ", \"total_ms\": " << number(p.total_ms)
       << ", \"mean_ms\": " << number(p.mean_ms()) << "}";
  }
  os << (m.phases.empty() ? "" : "\n  ") << "],\n";

  os << "  \"metrics\": [";
  for (std::size_t i = 0; i < m.metrics.size(); ++i) {
    const auto& s = m.metrics[i];
    os << (i ? "," : "") << "\n    {\"name\": \"" << json_escape(s.name)
       << "\", \"kind\": \"" << kind_name(s.kind) << "\"";
    switch (s.kind) {
      case MetricSnapshot::Kind::kCounter:
        os << ", \"count\": " << s.count;
        break;
      case MetricSnapshot::Kind::kGauge:
        os << ", \"value\": " << number(s.value);
        break;
      case MetricSnapshot::Kind::kHistogram:
        os << ", \"count\": " << s.count << ", \"sum\": " << number(s.value)
           << ", \"min\": " << number(s.min) << ", \"max\": " << number(s.max)
           << ", \"p50\": " << number(s.p50)
           << ", \"p95\": " << number(s.p95)
           << ", \"p99\": " << number(s.p99);
        break;
    }
    os << "}";
  }
  os << (m.metrics.empty() ? "" : "\n  ") << "],\n";

  os << "  \"feeds\": [";
  for (std::size_t i = 0; i < m.feeds.size(); ++i) {
    const auto& f = m.feeds[i];
    os << (i ? "," : "") << "\n    {\"name\": \"" << json_escape(f.name)
       << "\", \"expected\": " << f.expected
       << ", \"observed\": " << f.observed
       << ", \"quarantined\": " << f.quarantined
       << ", \"duplicates\": " << f.duplicates
       << ", \"completeness\": " << number(f.completeness) << "}";
  }
  os << (m.feeds.empty() ? "" : "\n  ") << "],\n";

  os << "  \"recovery\": {\"interrupted\": "
     << (m.interrupted ? "true" : "false")
     << ", \"day_failed\": " << (m.day_failed ? "true" : "false")
     << ", \"resumed\": " << (m.resumed ? "true" : "false")
     << ", \"resumed_from_day\": " << m.resumed_from_day
     << ", \"supervisor_retries\": " << m.supervisor_retries
     << ", \"supervisor_failures\": " << m.supervisor_failures
     << ", \"supervisor_stalls\": " << m.supervisor_stalls << "}";

  if (m.timeline.samples > 0) {
    os << ",\n  \"timeline\": {\"samples\": " << m.timeline.samples
       << ", \"steady_rss_kb\": " << m.timeline.steady_rss_kb
       << ", \"rss_slope_kb_per_day\": "
       << number(m.timeline.rss_slope_kb_per_day)
       << ", \"rss_slope_kpi_kb_per_day\": "
       << number(m.timeline.rss_slope_kpi_kb_per_day)
       << ", \"rows_per_sec\": " << number(m.timeline.rows_per_sec)
       << ", \"users_per_sec\": " << number(m.timeline.users_per_sec) << "}";
  }

  if (m.audit_enabled) {
    os << ",\n  \"audit\": {\"enabled\": true, \"checks\": " << m.audit_checks
       << ", \"violations\": " << m.audit_violations << ", \"laws\": [";
    for (std::size_t i = 0; i < m.audit_laws.size(); ++i) {
      const auto& law = m.audit_laws[i];
      os << (i ? "," : "") << "\n    {\"name\": \"" << json_escape(law.name)
         << "\", \"checks\": " << law.checks
         << ", \"violations\": " << law.violations << "}";
    }
    os << (m.audit_laws.empty() ? "" : "\n  ") << "]}";
  }
  os << "\n}\n";
}

}  // namespace cellscope::obs
