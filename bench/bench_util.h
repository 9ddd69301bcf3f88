// Shared helpers for the figure-reproduction benches.
//
// Every bench_figXX binary regenerates one table/figure of the paper from a
// fresh simulation of the default scenario and prints (a) the figure's rows
// and (b) "paper vs measured" claim lines that EXPERIMENTS.md tracks.
// Scale can be overridden without recompiling via environment variables:
//   CELLSCOPE_BENCH_USERS    subscriber count (default: scenario default)
//   CELLSCOPE_BENCH_SEED     scenario seed    (default 42)
//   CELLSCOPE_BENCH_THREADS  simulator worker threads (default 1 = serial)
//   CELLSCOPE_BENCH_FAULTS   fault-injection spec, e.g. "loss=0.05,dup=0.01"
//                            (see sim::parse_fault_spec; default: no faults)
//   CELLSCOPE_OBS_DIR        when set, enables the observability runtime
//                            and writes <slug>.trace.json (Chrome trace),
//                            <slug>.phases.csv, <slug>.manifest.json and the
//                            run-health timeline <slug>.timeline.{csv,json}
//                            into that directory (see docs/OBSERVABILITY.md).
//                            An uncreatable or unwritable directory prints
//                            the reason and exits 2.
//   CELLSCOPE_STORE_DIR      when set, simulate once / replay many: the
//                            run's dataset is cached as a cellstore under
//                            <dir>/<config-digest>/ and later runs of the
//                            same scenario replay it bitwise-identically
//                            instead of re-simulating (see docs/STORAGE.md)
//   CELLSCOPE_AUDIT          "1" runs the conservation audit (docs/AUDIT.md):
//                            in-process during simulation, post-hoc over a
//                            replayed store, plus the store-reconcile law
//                            when CELLSCOPE_STORE_DIR is in play. The report
//                            prints after the figures; any violation exits 3
//                            (after writing <slug>.audit.{json,csv} when
//                            CELLSCOPE_OBS_DIR is set). "0"/unset: off.
//   CELLSCOPE_CRASH_AT_DAY   crash injection (docs/RECOVERY.md): SIGKILL the
//                            process right after the n-th day's checkpoint
//                            is published. Requires CELLSCOPE_STORE_DIR —
//                            the point is to leave a resumable store behind.
// Malformed numeric overrides exit with status 2 and a one-line error.
//
// Crash-safe execution (docs/RECOVERY.md): every bench installs SIGINT /
// SIGTERM handlers that request a cooperative interrupt; the simulator
// unwinds at the next day boundary with its checkpoint flushed, the bench
// still writes the obs manifest + quality ledger for the partial run, and
// exits 4 (interrupted — resumable) as opposed to 5 (a day failed after the
// supervisor exhausted its retries — also resumable, rerun to retry).
#pragma once

#include <cctype>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/atomic_file.h"
#include "common/table.h"
#include "common/timeseries.h"
#include "obs/manifest.h"
#include "obs/runtime.h"
#include "sim/dataset_audit.h"
#include "sim/interrupt.h"
#include "sim/simulator.h"
#include "sim/supervisor.h"
#include "store/dataset_io.h"

namespace cellscope::bench {

// Full-string non-negative integer parse for environment overrides. Exits 2
// with a one-line error on anything else — empty strings, signs, trailing
// junk ("40k"), overflow — matching the CELLSCOPE_BENCH_FAULTS behaviour.
inline unsigned long long parse_env_count(const char* var, const char* text) {
  unsigned long long value = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (text == end || ec != std::errc{} || ptr != end) {
    std::cerr << var << ": malformed value '" << text
              << "' (expected a non-negative integer)\n";
    std::exit(2);
  }
  return value;
}

inline sim::ScenarioConfig figure_scenario(bool with_kpis) {
  sim::ScenarioConfig config = sim::default_scenario();
  if (const char* users = std::getenv("CELLSCOPE_BENCH_USERS")) {
    const auto value = parse_env_count("CELLSCOPE_BENCH_USERS", users);
    if (value == 0 || value > 0xffffffffULL) {
      std::cerr << "CELLSCOPE_BENCH_USERS: value '" << users
                << "' out of range\n";
      std::exit(2);
    }
    config.num_users = static_cast<std::uint32_t>(value);
  }
  if (const char* seed = std::getenv("CELLSCOPE_BENCH_SEED"))
    config.seed = parse_env_count("CELLSCOPE_BENCH_SEED", seed);
  if (const char* threads = std::getenv("CELLSCOPE_BENCH_THREADS")) {
    const auto value = parse_env_count("CELLSCOPE_BENCH_THREADS", threads);
    if (value < 1 || value > 256) {
      std::cerr << "CELLSCOPE_BENCH_THREADS: value '" << threads
                << "' out of range [1, 256]\n";
      std::exit(2);
    }
    config.worker_threads = static_cast<int>(value);
  }
  if (const char* faults = std::getenv("CELLSCOPE_BENCH_FAULTS")) {
    try {
      config.faults = sim::parse_fault_spec(faults);
    } catch (const std::invalid_argument& error) {
      std::cerr << "CELLSCOPE_BENCH_FAULTS: " << error.what() << "\n";
      std::exit(2);
    }
  }
  if (const char* audit = std::getenv("CELLSCOPE_AUDIT")) {
    if (std::strcmp(audit, "1") == 0) {
      config.audit = true;
    } else if (std::strcmp(audit, "0") != 0 && audit[0] != '\0') {
      std::cerr << "CELLSCOPE_AUDIT: malformed value '" << audit
                << "' (expected 0 or 1)\n";
      std::exit(2);
    }
  }
  config.collect_kpis = with_kpis;
  config.collect_signaling = with_kpis;
  return config;
}

// Filename slug for a bench banner: "Figure 3: national mobility" ->
// "figure-3-national-mobility".
inline std::string slugify(const std::string& text) {
  std::string slug;
  for (const char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!slug.empty() && slug.back() != '-') {
      slug += '-';
    }
  }
  while (!slug.empty() && slug.back() == '-') slug.pop_back();
  return slug.empty() ? std::string("bench") : slug;
}

// Resolves and validates CELLSCOPE_OBS_DIR up front. An uncreatable or
// unwritable directory is a configuration error under the hardened env-var
// contract: print the reason and exit 2, never degrade silently.
inline std::string checked_obs_dir() {
  try {
    return obs::ensure_obs_dir(obs::obs_dir_from_env());
  } catch (const std::runtime_error& error) {
    std::cerr << "CELLSCOPE_OBS_DIR: " << error.what() << "\n";
    std::exit(2);
  }
}

// Standard observability epilogue: prints the phase-timing summary and
// writes the Chrome trace, per-phase CSV, run manifest and run-health
// timeline into CELLSCOPE_OBS_DIR. Only called when the runtime is enabled.
// Every file publishes atomically (tmp + fsync + rename) so a crash
// mid-epilogue never leaves a torn manifest; `interrupted` marks a
// SIGINT/SIGTERM run and `day_failed` a supervisor-exhausted one — both
// manifests describe a resumable partial dataset.
inline void write_obs_outputs(const std::string& slug,
                              const sim::ScenarioConfig& config,
                              const sim::Dataset& data,
                              double wall_seconds, bool interrupted = false,
                              bool day_failed = false) {
  const std::string dir = checked_obs_dir();
  obs::Tracer& tracer = obs::tracer();

  const auto days =
      static_cast<double>(config.last_day() - config.first_day() + 1);
  const double user_days = static_cast<double>(config.num_users) * days;

  obs::RunManifest manifest;
  manifest.name = slug;
  manifest.git_describe = obs::build_describe();
  manifest.config_digest = sim::config_digest(config);
  manifest.seed = config.seed;
  manifest.users = config.num_users;
  manifest.worker_threads = config.worker_threads;
  manifest.first_week = config.first_week;
  manifest.last_week = config.last_week;
  manifest.wall_seconds = wall_seconds;
  manifest.user_days_per_sec =
      wall_seconds > 0.0 ? user_days / wall_seconds : 0.0;
  manifest.peak_rss_kb = obs::peak_rss_kb();
  manifest.phases = tracer.phase_totals();
  // Publish the resource gauge before snapshotting so interrupted and
  // day-failed manifests carry it too (the simulator only sets it on the
  // clean path, which these runs never reach).
  obs::metrics().set_gauge("process.peak_rss_kb",
                           static_cast<double>(obs::peak_rss_kb()));
  manifest.metrics = obs::metrics().snapshot();
  if (config.audit) {
    manifest.audit_enabled = true;
    manifest.audit_checks = data.audit_report.checks_evaluated();
    manifest.audit_violations = data.audit_report.violations().size();
    for (const auto& law : data.audit_report.laws()) {
      manifest.audit_laws.push_back(
          {law.law, law.checks, law.violations});
    }
  }
  for (const auto& feed : data.quality.feeds()) {
    obs::RunManifest::FeedSummary summary;
    summary.name = feed.name;
    summary.expected = feed.expected_records;
    summary.observed = feed.observed_records;
    summary.quarantined = feed.quarantined_records;
    summary.duplicates = feed.duplicate_records;
    summary.completeness = feed.completeness();
    manifest.feeds.push_back(std::move(summary));
  }
  manifest.interrupted = interrupted;
  manifest.day_failed = day_failed;
  manifest.resumed = data.recovery.resumed;
  manifest.resumed_from_day = data.recovery.resumed
                                  ? static_cast<int>(data.recovery.resumed_from_day)
                                  : -1;
  manifest.supervisor_retries = data.recovery.supervisor_retries;
  manifest.supervisor_failures = data.recovery.supervisor_failures;
  manifest.supervisor_stalls = data.recovery.supervisor_stalls;

  // Run-health timeline summary (docs/OBSERVABILITY.md): the per-day RSS
  // series behind the perf gate's memory-slope check.
  obs::Timeline& timeline = obs::timeline();
  const auto timeline_samples = timeline.samples();
  if (!timeline_samples.empty()) {
    manifest.timeline.samples = timeline_samples.size();
    manifest.timeline.steady_rss_kb = obs::steady_rss_kb(timeline_samples);
    manifest.timeline.rss_slope_kb_per_day =
        obs::rss_slope_kb_per_day(timeline_samples);
    manifest.timeline.rss_slope_kpi_kb_per_day = obs::rss_slope_kb_per_day(
        timeline_samples, config.kpi_first_day());
    manifest.timeline.rows_per_sec = timeline_samples.back().rows_per_sec;
    manifest.timeline.users_per_sec = timeline_samples.back().users_per_sec;
  }

  const std::string base = dir + "/" + slug;
  const auto publish = [](const std::string& path, const auto& write) {
    std::ostringstream out;
    write(out);
    write_file_atomic(path, out.str());
  };
  publish(base + ".trace.json",
          [&](std::ostream& out) { tracer.write_chrome_trace(out); });
  publish(base + ".phases.csv",
          [&](std::ostream& out) { tracer.write_phase_csv(out); });
  publish(base + ".manifest.json",
          [&](std::ostream& out) { obs::write_manifest_json(out, manifest); });
  if (!timeline_samples.empty()) {
    publish(base + ".timeline.csv",
            [&](std::ostream& out) { timeline.write_csv(out); });
    publish(base + ".timeline.json",
            [&](std::ostream& out) {
              timeline.write_json(out, config.kpi_first_day());
            });
  }
  if (config.audit) {
    // Machine-readable audit report next to the manifest (CI uploads the
    // JSON as an artifact).
    publish(base + ".audit.json",
            [&](std::ostream& out) { data.audit_report.write_json(out); });
    publish(base + ".audit.csv",
            [&](std::ostream& out) { data.audit_report.write_csv(out); });
  }

  print_banner(std::cout, "Observability: phase timing");
  TextTable table({"phase", "count", "total_ms", "mean_ms"});
  for (const auto& phase : manifest.phases)
    table.row()
        .cell(phase.name)
        .cell(static_cast<long long>(phase.count))
        .cell(phase.total_ms, 1)
        .cell(phase.mean_ms(), 2);
  table.print(std::cout);
  std::cout << "wall " << wall_seconds << " s, "
            << manifest.user_days_per_sec << " user-days/s; outputs in "
            << dir << "/ (" << slug << ".{trace.json,phases.csv,manifest.json})\n";
}

// Simulate once, replay many: with CELLSCOPE_STORE_DIR set, look for a
// cellstore written by a previous run of the *same* scenario (keyed by the
// config digest, which covers every model parameter and the fault plan but
// not the thread count) and replay it instead of simulating. A cache miss,
// digest mismatch or degraded/corrupt store falls back to simulating — and
// writes the store for next time. Replay is bitwise-identical to the
// simulation it replaces (test_store_replay), so cached benches print the
// exact same figures.
//
// A simulated run hands its KPI rows to the store as it goes, so the
// Dataset it returns holds none. The figures need them: read the store
// just written back (silently; the replay banner marks a cache hit only)
// and carry over the run's own bookkeeping, which the store does not
// keep. A read-back that is not complete is an error, never a Dataset
// without rows.
inline sim::Dataset load_or_run(const sim::ScenarioConfig& config) {
  store::StoreRunOptions options;
  if (const char* crash = std::getenv("CELLSCOPE_CRASH_AT_DAY")) {
    const auto value = parse_env_count("CELLSCOPE_CRASH_AT_DAY", crash);
    if (value > 0x7fffffffULL) {
      std::cerr << "CELLSCOPE_CRASH_AT_DAY: value '" << crash
                << "' out of range\n";
      std::exit(2);
    }
    options.kill_after_days = static_cast<int>(value);
  }
  const char* root = std::getenv("CELLSCOPE_STORE_DIR");
  if (root == nullptr || root[0] == '\0') {
    if (options.kill_after_days > 0) {
      // Crash injection without a store would just lose the run: the whole
      // point is dying with a resumable checkpoint behind.
      std::cerr << "CELLSCOPE_CRASH_AT_DAY requires CELLSCOPE_STORE_DIR\n";
      std::exit(2);
    }
    return sim::run_scenario(config);
  }
  const std::string dir =
      std::string(root) + "/" + sim::config_digest(config);
  auto outcome = store::read_dataset(dir, config);
  if (outcome.complete()) {
    std::cout << "(replayed cellstore " << dir << ": " << outcome.rows_read
              << " rows, " << outcome.bytes_read
              << " bytes, no simulation)\n";
    return std::move(*outcome.dataset);
  }
  if (outcome.status == store::ReadOutcome::Status::kDegraded)
    std::cout << "(cellstore " << dir << " degraded — " << outcome.error
              << "; re-simulating)\n";
  sim::Dataset::RunRecovery recovery;
  audit::AuditReport audit_report;
  {
    sim::Dataset run = store::simulate_to_store(config, dir, options);
    recovery = run.recovery;
    audit_report = std::move(run.audit_report);
  }
#if defined(__GLIBC__)
  // The run's per-user state went back to the pool workers' malloc arenas,
  // where the read-back on this thread cannot reuse it: return those pages
  // first, or the read-back stacks a second substrate and every row on top
  // of them (at 400k that set the bench's peak RSS, 754 instead of 602
  // MiB).
  malloc_trim(0);
#endif
  auto written = store::read_dataset(dir, config);
  if (!written.complete())
    throw std::runtime_error("cellstore " + dir +
                             " did not read back complete after the run "
                             "wrote it: " + written.error);
  sim::Dataset data = std::move(*written.dataset);
  data.recovery = recovery;
  data.audit_report = std::move(audit_report);
  return data;
}

// One figure run plus the cellstore (if any) that backs it. When store_dir
// is non-empty, the directory holds a *complete* store of this run's
// scenario — either just replayed or just written — so the vectorized scan
// adapters (store/scan.h) can serve projected queries straight off it. The
// replayed Dataset stays around as the reference oracle and the fallback
// whenever a scan adapter reports damage.
struct FigureRun {
  sim::Dataset data;
  std::string store_dir;
};

inline FigureRun run_figure_scenario_ex(bool with_kpis,
                                        const std::string& banner) {
  const auto config = figure_scenario(with_kpis);
  std::cout << banner << "\n(simulating " << config.num_users
            << " subscribers, seed " << config.seed << ", weeks "
            << config.first_week << "-" << config.last_week
            << (config.worker_threads > 1
                    ? ", " + std::to_string(config.worker_threads) + " threads"
                    : std::string{})
            << ")\n";
  // Fault banner only on faulted runs so clean bench output is unchanged.
  if (config.faults.any())
    std::cout << "(degraded feeds: obs_loss=" << config.faults.observation_loss_rate
              << " kpi_loss=" << config.faults.kpi_record_loss_rate
              << " dup=" << config.faults.kpi_record_duplication_rate
              << " sig_outages/wk=" << config.faults.signaling_outages_per_week
              << " kpi_outages/wk=" << config.faults.kpi_outages_per_week
              << " cell_daily=" << config.faults.cell_outage_daily_prob
              << ")\n";
  // Observability is opt-in via CELLSCOPE_OBS_DIR; with it unset the run is
  // untouched and no files are written. A set-but-unusable dir fails fast
  // (exit 2) instead of surfacing hours later in the epilogue.
  const bool obs_on = obs::enable_from_env();
  if (obs_on) checked_obs_dir();
  // Cooperative interrupts: ^C / SIGTERM request a stop at the next day
  // boundary, after that day's checkpoint is flushed (docs/RECOVERY.md).
  sim::reset_interrupt();
  std::signal(SIGINT, [](int) { sim::request_interrupt(); });
  std::signal(SIGTERM, [](int) { sim::request_interrupt(); });
  const auto start = std::chrono::steady_clock::now();
  sim::Dataset data;
  try {
    data = load_or_run(config);
  } catch (const sim::RunInterrupted& stop) {
    const double wall_seconds = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - start)
                                    .count();
    std::cout << "\n(interrupted after day " << stop.last_completed_day
              << "; checkpoint flushed — rerun with the same "
                 "CELLSCOPE_STORE_DIR to resume)\n";
    if (stop.partial != nullptr) {
      for (const auto& feed : stop.partial->quality.feeds())
        std::cout << "  feed " << feed.name << ": " << feed.observed_records
                  << "/" << feed.expected_records << " records ("
                  << feed.completeness() * 100.0 << "% complete)\n";
      if (obs_on)
        write_obs_outputs(slugify(banner), config, *stop.partial,
                          wall_seconds, /*interrupted=*/true);
    }
    std::exit(4);
  } catch (const sim::DayFailed& failed) {
    const double wall_seconds = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - start)
                                    .count();
    std::cerr << "day " << failed.day
              << " failed after exhausting supervisor retries: "
              << failed.what()
              << "\n(previous day's checkpoint is intact — rerun with the "
                 "same CELLSCOPE_STORE_DIR to retry from there)\n";
    // The partial run still gets its accounting: manifest (peak RSS +
    // metrics snapshot + timeline) flagged day_failed, like exit 4 does
    // for interrupts.
    if (obs_on && failed.partial != nullptr)
      write_obs_outputs(slugify(banner), config, *failed.partial,
                        wall_seconds, /*interrupted=*/false,
                        /*day_failed=*/true);
    std::exit(5);
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (data.recovery.resumed)
    std::cout << "(resumed from checkpoint: days through "
              << data.recovery.resumed_from_day
              << " restored, simulation continued from day "
              << data.recovery.resumed_from_day + 1 << ")\n";
  if (config.audit) {
    // A simulated run audited itself in-process (checks > 0); a replayed
    // store arrives unaudited, so run the full post-hoc pass over it here.
    if (data.audit_report.checks_evaluated() == 0)
      data.audit_report = sim::audit_dataset(data);
    // When a cellstore is in play, reconcile its physical accounting too
    // (the store was either just written or just replayed).
    if (const char* root = std::getenv("CELLSCOPE_STORE_DIR");
        root != nullptr && root[0] != '\0') {
      const std::string dir =
          std::string(root) + "/" + sim::config_digest(config);
      data.audit_report.merge(store::audit_store(dir));
    }
  }
  if (obs_on) write_obs_outputs(slugify(banner), config, data, wall_seconds);
  if (config.audit) {
    std::cout << "\n";
    data.audit_report.print(std::cout);
    if (!data.audit_report.clean()) {
      std::cerr << "conservation audit FAILED: "
                << data.audit_report.violations().size()
                << " violation(s)\n";
      std::exit(3);
    }
  }
  FigureRun run;
  run.data = std::move(data);
  if (const char* root = std::getenv("CELLSCOPE_STORE_DIR");
      root != nullptr && root[0] != '\0')
    run.store_dir = std::string(root) + "/" + sim::config_digest(config);
  return run;
}

inline sim::Dataset run_figure_scenario(bool with_kpis,
                                        const std::string& banner) {
  return run_figure_scenario_ex(with_kpis, banner).data;
}

// Renders several weekly series as one table: a week column plus one column
// per named series. All series must cover the same weeks.
inline void print_week_table(std::ostream& os, const std::string& title,
                             const std::vector<std::string>& names,
                             const std::vector<std::vector<WeekPoint>>& series,
                             int precision = 1) {
  print_banner(os, title);
  std::vector<std::string> headers{"week"};
  headers.insert(headers.end(), names.begin(), names.end());
  TextTable table{headers};
  if (series.empty()) return;
  for (std::size_t i = 0; i < series.front().size(); ++i) {
    table.row().cell(series.front()[i].week);
    for (const auto& s : series)
      if (i < s.size()) table.cell(s[i].value, precision);
  }
  table.print(os);
}

// The weekly value for one week from a series (0 when absent).
inline double week_value(const std::vector<WeekPoint>& series, int week) {
  for (const auto& p : series)
    if (p.week == week) return p.value;
  return 0.0;
}

// Minimum value across a week range.
inline double min_over_weeks(const std::vector<WeekPoint>& series,
                             int from_week, int to_week) {
  double best = 0.0;
  bool any = false;
  for (const auto& p : series) {
    if (p.week < from_week || p.week > to_week) continue;
    if (!any || p.value < best) best = p.value;
    any = true;
  }
  return best;
}

// Mean value across a week range.
inline double mean_over_weeks(const std::vector<WeekPoint>& series,
                              int from_week, int to_week) {
  double sum = 0.0;
  int n = 0;
  for (const auto& p : series) {
    if (p.week < from_week || p.week > to_week) continue;
    sum += p.value;
    ++n;
  }
  return n ? sum / n : 0.0;
}

inline std::string pct(double value, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.*f%%", precision, value);
  return buf;
}

// Tracks overall claim health so the binary's exit code reflects shape
// fidelity (0 even on mismatch — benches report, tests enforce).
class ClaimChecker {
 public:
  void check(const std::string& claim, const std::string& paper,
             double measured, bool ok) {
    print_claim(std::cout, claim, paper, pct(measured), ok);
    if (!ok) ++failures_;
  }
  void check_text(const std::string& claim, const std::string& paper,
                  const std::string& measured, bool ok) {
    print_claim(std::cout, claim, paper, measured, ok);
    if (!ok) ++failures_;
  }
  [[nodiscard]] int failures() const { return failures_; }
  void summary() const {
    std::cout << (failures_ == 0 ? "\nAll shape checks passed.\n"
                                 : "\nWARNING: " + std::to_string(failures_) +
                                       " shape check(s) off target.\n");
  }

 private:
  int failures_ = 0;
};

}  // namespace cellscope::bench
