// cellbench: the cellscope benchmark.
//
//   cellbench --workload simulate|replay|query --seed N --seconds S
//             --trace 0|1 [--scale default|smoke] [--work-dir DIR]
//             [--spans-dir DIR]
//
// Every workload runs the same three stages over one scenario (40,000 users,
// weeks 6-19, 4 worker threads by default):
//
//   simulate  DatasetWriter + CheckpointManager -> Simulator::run -> finish
//             -> clear into a fresh directory (store::simulate_to_store's
//             public sequence, with each call wrapped and timed);
//   replay    store::read_dataset of that store by a single caller;
//   query     serve::QueryService over that store, four closed-loop
//             clients: a cold pass of distinct KPI group-series questions
//             (every query a miss) and a hot pass over the 22-question
//             figure corpus (every timed query a cache hit).
//
// The workload decides which stage gets the measured --seconds; the other
// stages run a fixed, short budget so every end-to-end metric exists in
// every run. The seed sets the scenario seed and the cold question order.
//
// Outputs are checked: each fresh store must audit clean and read back kOk
// with the writer's rows and bytes; every query answer must be byte-equal to
// a direct single-threaded adapter answer. Failed checks count into
// `failed`; any failure exits 1. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). A traced run also
// writes its spans to --spans-dir. See perfbench/README.md.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "analysis/network_metrics.h"
#include "common/rng.h"
#include "obs/runtime.h"
#include "serve/query.h"
#include "serve/service.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "spans.h"
#include "stats.h"
#include "store/checkpoint.h"
#include "store/dataset_io.h"
#include "store/feeds.h"
#include "store/scan.h"
#include "store/shard.h"

namespace fs = std::filesystem;
namespace pb = perfbench;
using namespace cellscope;
using pb::Clock;

namespace {

// ----------------------------------------------------------------- metrics

// End-to-end metrics: every untraced run prints all of them.
const std::vector<std::string> kEndToEnd = {
    "setup_s",           "user_days_per_s",    "peak_rss_mb",
    "rss_slope_kb_per_day", "replay_p50_ms",   "replay_tail_ms",
    "query_miss_p50_ms", "query_miss_tail_ms", "query_miss_per_s",
    "query_hit_p50_us",
};

// Per-layer metrics: every traced run prints all of them.
const std::vector<std::string> kPerLayer = {
    "sim.substrate_ms",         "sim.first_day_ms",
    "sim.mobility_day_ms",      "sim.kpi_day_ms",
    "mobility.places_ms",       "sim.users_ms",
    "sim.apply_ms",             "radio.schedule_ms",
    "sim.pool_efficiency",      "store.flush_ms",
    "store.checkpoint_ms",      "store.checkpoint_p50_ms",
    "store.checkpoint_bytes",   "store.finish_ms",
    "store.bytes_written",      "store.rows_written",
    "store.read_ms",            "store.validate_ms",
    "store.decode_ms",          "store.bytes_read",
    "store.scan_open_ms",       "store.scan_decode_ms",
    "store.scan_shards_pruned", "store.scan_shards_scanned",
    "store.scan_bytes_decoded_ratio", "store.scan_emit_ratio",
    "serve.adapter_ms",         "serve.miss_overhead_ms",
    "serve.hit_ratio_cold",     "serve.hit_ratio_hot",
    "serve.sheds",              "serve.waits",
    "serve.evictions",          "serve.cache_bytes",
    "obs.trace_overhead_pct",   "error_rate",
};

// ------------------------------------------------------------------ options

enum class Workload { kSimulate, kReplay, kQuery };

struct Options {
  Workload workload = Workload::kSimulate;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".bench_build/work";
  std::string spans_dir = ".bench_build/spans";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "cellbench: " << why
            << "\nusage: cellbench --workload simulate|replay|query --seed N "
               "--seconds S --trace 0|1 [--scale default|smoke] "
               "[--work-dir DIR] [--spans-dir DIR]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        have_workload = true;
        o.workload_name = value;
        if (value == "simulate") o.workload = Workload::kSimulate;
        else if (value == "replay") o.workload = Workload::kReplay;
        else if (value == "query") o.workload = Workload::kQuery;
        else usage("unknown workload " + value);
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
        if (!(o.seconds > 0)) usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--scale") {
        if (value != "default" && value != "smoke") usage("bad --scale");
        o.smoke = value == "smoke";
      } else if (flag == "--work-dir") {
        o.work_dir = value;
      } else if (flag == "--spans-dir") {
        o.spans_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

// ------------------------------------------------------------------- bench

// Counts every operation and every failed check.
class Tally {
 public:
  void ok(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& why, std::uint64_t n = 1) {
    attempted_ += n;
    failed_ += n;
    problem(why);
  }
  // A failed self-check that is not an operation.
  void problem(const std::string& why) {
    std::lock_guard lock(mutex_);
    ++problems_;
    if (problems_ <= 20) std::cerr << "cellbench: FAILED " << why << "\n";
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return failed_ == 0 && problems_ == 0; }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::mutex mutex_;
  std::uint64_t problems_ = 0;
};

struct Bench {
  Options opt;
  sim::ScenarioConfig config;
  std::string digest;
  int threads = 4;
  std::uint64_t days = 0;
  pb::Report report;
  pb::SpanLog spans{false};
  Tally tally;
  std::string run_dir;          // this process's working directory
  std::string store_dir;        // the store replay and query read
  store::WriteStats store_stats;  // what the writer reported for it
};

// ------------------------------------------------------------ simulate stage

// Forwards the KPI stream to the writer and times each flush.
class TimedSink final : public sim::DatasetSink {
 public:
  TimedSink(sim::DatasetSink& inner, pb::SpanLog& spans, std::uint64_t parent,
            std::uint64_t op)
      : inner_(inner), spans_(spans), parent_(parent), op_(op) {}

  void on_kpi_day(SimDay day,
                  std::span<const telemetry::CellDayRecord> rows) override {
    const auto start = Clock::now();
    inner_.on_kpi_day(day, rows);
    const auto stop = Clock::now();
    const double ms = pb::ms_between(start, stop);
    total_ms += ms;
    since_last_day_ms += ms;
    spans_.add("store.flush", start, stop, parent_, op_);
  }

  double total_ms = 0.0;
  double since_last_day_ms = 0.0;  // flush time inside the current day

 private:
  sim::DatasetSink& inner_;
  pb::SpanLog& spans_;
  std::uint64_t parent_;
  std::uint64_t op_;
};

// The day callback: forwards each checkpoint to the manager, samples RSS,
// and times the gap since the previous day (minus flushes) and the publish.
class DayProbe final : public sim::CheckpointSink {
 public:
  DayProbe(store::CheckpointManager& inner, TimedSink& sink,
           pb::SpanLog& spans, std::uint64_t parent, std::uint64_t op)
      : inner_(inner), sink_(sink), spans_(spans), parent_(parent), op_(op) {}

  [[nodiscard]] std::span<const std::uint8_t> resume_payload() const override {
    return inner_.resume_payload();
  }
  [[nodiscard]] SimDay resume_day() const override {
    return inner_.resume_day();
  }

  void start() { last_exit_ = Clock::now(); }

  void on_day_complete(SimDay day,
                       const std::vector<std::uint8_t>& state) override {
    const auto enter = Clock::now();
    days.push_back(day);
    gap_ms.push_back(pb::ms_between(last_exit_, enter) -
                     sink_.since_last_day_ms);
    sink_.since_last_day_ms = 0.0;
    spans_.add("sim.day", last_exit_, enter, parent_, op_);
    rss_kb.push_back(static_cast<double>(obs::current_rss_kb()));
    const auto publish = Clock::now();
    inner_.on_day_complete(day, state);
    last_exit_ = Clock::now();
    checkpoint_ms.push_back(pb::ms_between(publish, last_exit_));
    spans_.add("store.checkpoint", publish, last_exit_, parent_, op_);
    last_blob_bytes = state.size();
  }

  std::vector<double> days, gap_ms, rss_kb, checkpoint_ms;
  std::size_t last_blob_bytes = 0;

 private:
  store::CheckpointManager& inner_;
  TimedSink& sink_;
  pb::SpanLog& spans_;
  std::uint64_t parent_;
  std::uint64_t op_;
  Clock::time_point last_exit_;
};

struct SimRun {
  double wall_ms = 0.0;
  double user_days_per_s = 0.0;
  double rss_slope_kb_per_day = 0.0;
  store::WriteStats stats;
  double first_day_ms = 0.0;
  std::vector<double> mobility_gap_ms, kpi_gap_ms, checkpoint_ms;
  double flush_ms = 0.0;
  double finish_ms = 0.0;
  double accounted_ms = 0.0;
  std::size_t checkpoint_bytes = 0;
  std::vector<obs::PhaseTotal> phases;  // obs phases, traced runs only
};

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

// One simulate-to-store sequence into a fresh `dir`. A traced sequence
// turns the obs runtime on and reads its phase totals back afterwards.
SimRun simulate_to_store(Bench& b, const sim::ScenarioConfig& config,
                         const std::string& dir, bool traced) {
  fs::remove_all(dir);
  if (traced) {
    obs::reset();
    obs::set_enabled(true);
  }
  SimRun r;
  std::optional<sim::Dataset> ds;  // released after the clock stops
  const std::uint64_t op = b.spans.new_op();
  const auto t0 = Clock::now();
  {
    const pb::SpanLog::Scope seq(b.spans, "simulate_to_store", 0, op);
    const auto open_span = b.spans.begin("store.open", seq.id(), op);
    store::DatasetWriter writer{dir};
    store::CheckpointManager manager{obs::ensure_obs_dir(dir),
                                     sim::config_digest(config)};
    b.spans.end(open_span);
    sim::Simulator simulator{config};
    const auto run_span = b.spans.begin("sim.run", seq.id(), op);
    TimedSink sink{writer, b.spans, run_span, op};
    DayProbe probe{manager, sink, b.spans, run_span, op};
    probe.start();
    ds.emplace(simulator.run(&sink, &probe));
    b.spans.end(run_span);
    const auto finish_start = Clock::now();
    {
      const pb::SpanLog::Scope s(b.spans, "store.finish", seq.id(), op);
      r.stats = writer.finish(*ds);
    }
    r.finish_ms = pb::ms_since(finish_start);
    {
      const pb::SpanLog::Scope s(b.spans, "store.clear", seq.id(), op);
      manager.clear();
    }

    const double kpi_first = config.kpi_first_day();
    for (std::size_t i = 0; i < probe.days.size(); ++i) {
      if (i == 0) r.first_day_ms = probe.gap_ms[0];
      else if (probe.days[i] < kpi_first) r.mobility_gap_ms.push_back(probe.gap_ms[i]);
      else r.kpi_gap_ms.push_back(probe.gap_ms[i]);
    }
    r.checkpoint_ms = probe.checkpoint_ms;
    r.checkpoint_bytes = probe.last_blob_bytes;
    r.flush_ms = sink.total_ms;
    r.rss_slope_kb_per_day = pb::slope(probe.days, probe.rss_kb);
  }
  r.wall_ms = pb::ms_since(t0);
  ds.reset();
  if (traced) {
    r.phases = obs::tracer().all_totals();
    obs::set_enabled(false);
  }
  const double days = config.last_day() - config.first_day() + 1;
  r.user_days_per_s = static_cast<double>(config.num_users) * days /
                      (r.wall_ms / 1000.0);
  r.accounted_ms = r.first_day_ms + sum(r.mobility_gap_ms) +
                   sum(r.kpi_gap_ms) + r.flush_ms + sum(r.checkpoint_ms) +
                   r.finish_ms;
  return r;
}

// A fresh store must audit clean and read back complete, with exactly the
// rows and bytes its writer reported.
void check_store(Bench& b, const std::string& dir,
                 const store::WriteStats& stats) {
  const auto audit = store::audit_store(dir);
  if (!audit.clean()) {
    audit.print(std::cerr);
    b.tally.fail("store audit of " + dir);
    return;
  }
  const auto out = store::read_dataset(dir, b.config);
  if (out.status != store::ReadOutcome::Status::kOk ||
      out.rows_read != stats.rows_written ||
      out.bytes_read != stats.bytes_written) {
    b.tally.fail("read-back of " + dir + ": " + out.error);
    return;
  }
  b.tally.ok();
}

double phase_ms(const std::vector<obs::PhaseTotal>& phases,
                const std::string& name) {
  for (const auto& p : phases)
    if (p.name == name) return p.total_ms;
  return 0.0;
}

void report_sim_layers(Bench& b, const SimRun& r) {
  auto& rep = b.report;
  rep.metric("sim.first_day_ms", r.first_day_ms, "ms");
  rep.timing("sim.mobility_day (gap per pre-KPI day)", r.mobility_gap_ms, 90,
             "ms", "sim.mobility_day_ms");
  rep.timing("sim.kpi_day (gap per KPI day)", r.kpi_gap_ms, 90, "ms",
             "sim.kpi_day_ms");
  rep.metric("mobility.places_ms", phase_ms(r.phases, "setup.places"), "ms");
  const double users_ms = phase_ms(r.phases, "day.users");
  rep.metric("sim.users_ms", users_ms, "ms");
  rep.metric("sim.apply_ms", phase_ms(r.phases, "day.apply"), "ms");
  rep.metric("radio.schedule_ms", phase_ms(r.phases, "day.schedule"), "ms");
  rep.metric("sim.pool_efficiency",
             phase_ms(r.phases, "day.users.chunk") /
                 (users_ms * static_cast<double>(b.threads)),
             "ratio");
  rep.metric("store.flush_ms", r.flush_ms, "ms");
  rep.metric("store.checkpoint_ms", sum(r.checkpoint_ms), "ms");
  rep.timing("store.checkpoint (per day)", r.checkpoint_ms, 90, "ms",
             "store.checkpoint_p50_ms");
  rep.metric("store.checkpoint_bytes",
             static_cast<double>(r.checkpoint_bytes), "bytes");
  rep.metric("store.finish_ms", r.finish_ms, "ms");
  rep.metric("store.bytes_written", static_cast<double>(r.stats.bytes_written),
             "bytes");
  rep.metric("store.rows_written", static_cast<double>(r.stats.rows_written),
             "rows");
}

// The traced sequence must account for its own wall time: first day + day
// gaps + flushes + checkpoints + finish within 5%.
void check_accounting(Bench& b, const SimRun& r) {
  const double share = (r.wall_ms - r.accounted_ms) / r.wall_ms;
  std::cout << "  traced accounting: " << r.accounted_ms << " of "
            << r.wall_ms << " ms (" << 100.0 * share << "% unaccounted)\n";
  if (std::abs(share) > 0.05)
    b.tally.problem("traced spans account for " +
                    std::to_string(r.accounted_ms) + " of " +
                    std::to_string(r.wall_ms) + " ms");
}

// Byte-for-byte comparison of every regular file in two store directories.
bool same_store_bytes(const std::string& a, const std::string& b) {
  const auto listing = [](const std::string& dir) {
    std::vector<std::string> names;
    for (const auto& e : fs::directory_iterator(dir))
      if (e.is_regular_file()) names.push_back(e.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
  };
  const auto names = listing(a);
  if (names != listing(b)) return false;
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  for (const auto& n : names)
    if (slurp(a + "/" + n) != slurp(b + "/" + n)) return false;
  return true;
}

// ---------------------------------------------------------------- replay

struct ReplayTimes {
  std::vector<double> read_ms;
  std::vector<double> validate_ms;  // traced runs only
  std::uint64_t bytes_read = 0;
};

// Reads the store at least `min_reads` times and for at least `seconds`.
// A traced replay also times a validating open of every feed file.
void replay(Bench& b, std::size_t min_reads, double seconds, bool traced,
            ReplayTimes& out) {
  const auto start = Clock::now();
  std::size_t reads = 0;
  while (reads < min_reads || pb::ms_since(start) < seconds * 1000.0) {
    ++reads;
    const std::uint64_t op = b.spans.new_op();
    {
      const auto span = b.spans.begin("store.read_dataset", 0, op);
      const auto t = Clock::now();
      const store::ReadOutcome got = store::read_dataset(b.store_dir, b.config);
      out.read_ms.push_back(pb::ms_since(t));
      b.spans.end(span);
      out.bytes_read = got.bytes_read;
      if (got.status != store::ReadOutcome::Status::kOk ||
          got.rows_read != b.store_stats.rows_written ||
          got.bytes_read != b.store_stats.bytes_written)
        b.tally.fail("replay read " + std::to_string(reads) + ": " + got.error);
      else
        b.tally.ok();
    }
    if (!traced) continue;
    const auto span = b.spans.begin("store.validate", 0, op);
    const auto t = Clock::now();
    bool valid = true;
    for (const auto& feed : store::dataset_feeds()) {
      const store::FeedFileReader reader{b.store_dir + "/" + feed + ".csf"};
      valid = valid && reader.status() == store::FeedFileReader::Status::kOk &&
              reader.quarantined_shards() == 0;
    }
    out.validate_ms.push_back(pb::ms_since(t));
    b.spans.end(span);
    if (!valid) b.tally.problem("validating open of the store's feeds");
  }
}

// ----------------------------------------------------------------- query

struct QueryStage {
  QueryStage(const std::string& dir, const std::string& digest)
      : service(dir, digest) {}

  serve::QueryService service;
  std::array<analysis::CellGrouping, 2> groupings;  // region, cluster
  std::vector<serve::Query> cold;  // distinct questions, seeded order
  std::size_t cold_next = 0;       // first question not asked yet
  std::vector<serve::Query> hot;   // the figure corpus
  std::vector<std::string> hot_oracle;
  std::size_t hot_set_bytes = 0;
};

constexpr std::array<const char*, 2> kGroupings = {"region", "cluster"};

const analysis::CellGrouping& grouping_of(const QueryStage& q,
                                          const serve::Query& query) {
  return q.groupings[query.grouping == kGroupings[0] ? 0 : 1];
}

std::optional<std::string> direct_answer(const Bench& b, const QueryStage& q,
                                         const serve::Query& query) {
  const std::string& dir = b.store_dir;
  switch (query.kind) {
    case serve::QueryKind::kScalar: {
      const auto v =
          store::scan_scalar_u64(dir, static_cast<store::ScalarId>(query.id));
      if (v) return serve::encode_scalar(*v);
      break;
    }
    case serve::QueryKind::kDailySeries: {
      const auto v = store::scan_daily_series(
          dir, static_cast<store::SeriesId>(query.id),
          static_cast<SimDay>(query.min_day), static_cast<SimDay>(query.max_day));
      if (v) return serve::encode_daily(*v);
      break;
    }
    case serve::QueryKind::kGroupedSeries: {
      const auto v = store::scan_grouped_series(
          dir, static_cast<store::SeriesId>(query.id), query.group_count,
          static_cast<SimDay>(query.min_day), static_cast<SimDay>(query.max_day));
      if (v) return serve::encode_grouped(*v);
      break;
    }
    case serve::QueryKind::kKpiGroupSeries: {
      const auto v = store::scan_kpi_group_series(
          dir, grouping_of(q, query), query.metric, query.reduction,
          query.min_day, query.max_day);
      if (v) return serve::encode_kpi(*v);
      break;
    }
  }
  return std::nullopt;
}

// Cold questions: every KPI metric x both groupings x every 7-28-day window
// inside the KPI period, in a seeded order.
std::vector<serve::Query> cold_questions(const Bench& b) {
  std::vector<serve::Query> out;
  const SimDay lo = b.config.kpi_first_day();
  const SimDay hi = b.config.last_day();
  for (int m = 0; m < telemetry::kKpiMetricCount; ++m)
    for (const char* g : kGroupings)
      for (SimDay len = 7; len <= 28; ++len)
        for (SimDay first = lo; first + len - 1 <= hi; ++first) {
          serve::Query q;
          q.kind = serve::QueryKind::kKpiGroupSeries;
          q.metric = static_cast<telemetry::KpiMetric>(m);
          q.grouping = g;
          q.min_day = first;
          q.max_day = first + len - 1;
          out.push_back(q);
        }
  Rng(b.opt.seed).fork("perfbench-cold-order").shuffle(out);
  return out;
}

// The 22-question figure corpus of bench_ext_query_load, full window.
std::vector<serve::Query> hot_questions(const Bench& b, std::size_t regions) {
  std::vector<serve::Query> out;
  const auto add = [&](serve::QueryKind kind, std::uint64_t id,
                       std::uint64_t groups = 0) {
    serve::Query q;
    q.kind = kind;
    q.id = id;
    q.group_count = groups;
    if (kind != serve::QueryKind::kScalar) {
      q.min_day = b.config.first_day();
      q.max_day = b.config.last_day();
    }
    out.push_back(q);
  };
  using K = serve::QueryKind;
  add(K::kScalar, store::kKpiRowCount);
  add(K::kScalar, store::kEligibleUsers);
  add(K::kScalar, store::kLondonResidents);
  add(K::kScalar, store::kSignalingDayCount);
  add(K::kDailySeries, store::kRoamersActive);
  add(K::kDailySeries, store::kOffnetBusyHour);
  add(K::kDailySeries, store::kInterconnectLoss);
  add(K::kGroupedSeries, store::kEntropyNational, 1);
  add(K::kGroupedSeries, store::kGyrationNational, 1);
  add(K::kGroupedSeries, store::kEntropyByRegion, regions);
  add(K::kGroupedSeries, store::kGyrationByRegion, regions);
  for (int m = 0; m < telemetry::kKpiMetricCount; ++m) {
    serve::Query q;
    q.kind = K::kKpiGroupSeries;
    q.metric = static_cast<telemetry::KpiMetric>(m);
    q.grouping = kGroupings[0];
    out.push_back(q);
  }
  return out;
}

// Builds the service over the store, with the region and cluster groupings
// from a timed substrate build, plus the hot corpus and its direct answers.
std::unique_ptr<QueryStage> build_query_stage(Bench& b,
                                              std::vector<double>& substrate_ms) {
  auto q = std::make_unique<QueryStage>(b.store_dir, b.digest);
  sim::Dataset substrate;
  for (int i = 0; i < 5; ++i) {
    substrate = sim::Dataset{};
    const auto t = Clock::now();
    sim::build_substrate(b.config, substrate);
    substrate_ms.push_back(pb::ms_since(t));
  }
  q->groupings[0] =
      analysis::group_by_region(*substrate.geography, *substrate.topology);
  q->groupings[1] =
      analysis::group_by_cluster(*substrate.geography, *substrate.topology);
  for (std::size_t g = 0; g < kGroupings.size(); ++g)
    q->service.register_grouping(kGroupings[g], q->groupings[g]);
  q->cold = cold_questions(b);
  q->hot = hot_questions(b, q->groupings[0].group_count());
  for (const auto& query : q->hot) {
    auto answer = direct_answer(b, *q, query);
    if (!answer) b.tally.problem("direct answer refused for a hot question");
    q->hot_oracle.push_back(answer.value_or(""));
  }
  return q;
}

// Runs body(i) for i in [0, b.threads) on that many threads and joins them.
// An exception on a thread becomes a failed check instead of a crash.
template <typename Body>
void on_threads(Bench& b, Body body) {
  std::vector<std::thread> threads;
  for (int i = 0; i < b.threads; ++i) {
    threads.emplace_back([&b, &body, i] {
      try {
        body(static_cast<std::size_t>(i));
      } catch (const std::exception& e) {
        b.tally.problem(std::string("client thread: ") + e.what());
      }
    });
  }
  for (auto& t : threads) t.join();
}

struct ColdPass {
  std::vector<double> latency_ms;
  std::vector<serve::Query> asked;
  std::vector<std::shared_ptr<const serve::QueryValue>> answers;
  std::vector<serve::QueryStatus> status;
  double wall_s = 0.0;
  serve::ServiceStats before, after;
};

// Closed loop: each client asks the next unasked cold question when its
// previous one returns, for at least `seconds` and `min_queries` queries.
ColdPass cold_pass(Bench& b, QueryStage& q, std::size_t min_queries,
                   double seconds) {
  ColdPass pass;
  pass.before = q.service.stats();
  std::atomic<std::size_t> next{q.cold_next};
  std::atomic<std::size_t> done{0};
  struct Local {
    std::vector<double> latency_ms;
    std::vector<std::size_t> index;
    std::vector<serve::QueryResponse> responses;
  };
  std::vector<Local> local(static_cast<std::size_t>(b.threads));
  const auto start = Clock::now();
  on_threads(b, [&](std::size_t c) {
    Local& mine = local[c];
    while (done.load() < min_queries ||
           pb::ms_since(start) < seconds * 1000.0) {
      const std::size_t i = next.fetch_add(1);
      if (i >= q.cold.size()) break;
      const std::uint64_t op = b.spans.new_op();
      const auto span = b.spans.begin("serve.query.cold", 0, op);
      const auto t = Clock::now();
      serve::QueryResponse response = q.service.run(q.cold[i]);
      mine.latency_ms.push_back(pb::ms_since(t));
      b.spans.end(span);
      mine.index.push_back(i);
      mine.responses.push_back(std::move(response));
      done.fetch_add(1);
    }
  });
  pass.wall_s = pb::ms_since(start) / 1000.0;
  pass.after = q.service.stats();
  q.cold_next = std::min(next.load(), q.cold.size());
  for (auto& mine : local) {
    pass.latency_ms.insert(pass.latency_ms.end(), mine.latency_ms.begin(),
                           mine.latency_ms.end());
    for (std::size_t k = 0; k < mine.index.size(); ++k) {
      pass.asked.push_back(q.cold[mine.index[k]]);
      pass.status.push_back(mine.responses[k].status);
      pass.answers.push_back(mine.responses[k].value);
    }
  }
  return pass;
}

// Checks every cold answer against a direct adapter call made outside the
// timed loop (the calls run on b.threads threads, one call per thread at a
// time); returns the direct calls' latencies.
std::vector<double> verify_cold(Bench& b, const QueryStage& q,
                                const ColdPass& pass) {
  std::vector<double> adapter_ms(pass.asked.size());
  std::atomic<std::size_t> next{0};
  on_threads(b, [&](std::size_t) {
    for (std::size_t i = next.fetch_add(1); i < pass.asked.size();
         i = next.fetch_add(1)) {
      const auto t = Clock::now();
      const auto answer = direct_answer(b, q, pass.asked[i]);
      adapter_ms[i] = pb::ms_since(t);
      if (pass.status[i] != serve::QueryStatus::kOk)
        b.tally.fail("cold query answered with status " +
                     std::to_string(static_cast<int>(pass.status[i])));
      else if (!answer || pass.answers[i]->payload != *answer)
        b.tally.fail("cold answer differs from the direct adapter answer");
      else
        b.tally.ok();
    }
  });
  return adapter_ms;
}

struct HotPass {
  pb::LatencyHistogram hits;
  std::uint64_t not_hits = 0;
  double wall_s = 0.0;
  serve::ServiceStats before, after;
};

// Asks each hot question once (unmeasured warm-up), then runs closed-loop
// clients drawing Zipf(s=1.2) over the corpus for `seconds`, timing hits.
HotPass hot_pass(Bench& b, QueryStage& q, double seconds) {
  for (std::size_t i = 0; i < q.hot.size(); ++i) {
    const auto r = q.service.run(q.hot[i]);
    if (r.status != serve::QueryStatus::kOk || r.value->payload != q.hot_oracle[i])
      b.tally.fail("hot warm-up answer differs from the direct answer");
    else
      b.tally.ok();
    if (r.value) q.hot_set_bytes += r.value->memory_bytes();
  }
  HotPass pass;
  pass.before = q.service.stats();
  struct Local {
    pb::LatencyHistogram hits;
    std::uint64_t ok = 0, failed = 0, not_hits = 0;
  };
  std::vector<Local> local(static_cast<std::size_t>(b.threads));
  const Rng root = Rng(b.opt.seed).fork("perfbench-hot");
  const std::uint64_t op = b.spans.new_op();
  const auto start = Clock::now();
  on_threads(b, [&](std::size_t c) {
    const pb::SpanLog::Scope span(b.spans, "serve.hot_client", 0, op);
    Rng rng = root.fork("client", c);
    Local& mine = local[c];
    while (pb::ms_since(start) < seconds * 1000.0) {
      for (int k = 0; k < 64; ++k) {
        const std::size_t i = rng.zipf(q.hot.size(), 1.2);
        const auto t = Clock::now();
        const serve::QueryResponse r = q.service.run(q.hot[i]);
        const auto ns =
            std::chrono::duration<double, std::nano>(Clock::now() - t).count();
        if (r.status == serve::QueryStatus::kOk &&
            r.value->payload == q.hot_oracle[i])
          ++mine.ok;
        else
          ++mine.failed;
        if (r.cache_hit) mine.hits.add_ns(ns);
        else ++mine.not_hits;
      }
    }
  });
  pass.wall_s = pb::ms_since(start) / 1000.0;
  pass.after = q.service.stats();
  for (const auto& mine : local) {
    pass.hits.merge(mine.hits);
    pass.not_hits += mine.not_hits;
    b.tally.ok(mine.ok);
    if (mine.failed) b.tally.fail("hot answer differs from the direct answer", mine.failed);
  }
  return pass;
}

double hit_ratio(const serve::ServiceStats& before,
                 const serve::ServiceStats& after) {
  const auto requests = after.requests - before.requests;
  return requests ? static_cast<double>(after.hits - before.hits) /
                        static_cast<double>(requests)
                  : 0.0;
}

struct ScanTimes {
  std::vector<double> open_ms, decode_ms;
  store::ScanTotals totals;
  std::size_t questions = 0;
};

// Re-runs cold questions directly on a FeedScanner configured the way the
// KPI adapter configures it, timing its constructor and its next() loop.
ScanTimes scan_attribution(const Bench& b, const QueryStage& q,
                           const std::vector<serve::Query>& questions) {
  ScanTimes out;
  const store::FeedSchema& schema = store::feed_schema("kpis");
  for (const auto& query : questions) {
    const auto& grouping = grouping_of(q, query);
    std::vector<std::uint8_t> mask(grouping.group_of.size());
    for (std::size_t i = 0; i < mask.size(); ++i)
      mask[i] = grouping.all_group != analysis::CellGrouping::kUngrouped ||
                grouping.group_of[i] != analysis::CellGrouping::kUngrouped;
    store::ScanOptions options;
    options.columns = {"day", "cell",
                       schema.columns()[store::kpi_metric_column(query.metric)].name};
    options.predicate.min_day = query.min_day;
    options.predicate.max_day = query.max_day;
    options.predicate.key_column = "cell";
    options.predicate.key_mask = &mask;
    const auto t0 = Clock::now();
    store::FeedScanner scanner =
        store::FeedScanner::open(b.store_dir, schema, std::move(options));
    out.open_ms.push_back(pb::ms_since(t0));
    const auto t1 = Clock::now();
    store::ScanBatch batch;
    while (scanner.next(batch)) {
    }
    out.decode_ms.push_back(pb::ms_since(t1));
    const auto& t = scanner.totals();
    out.totals.shards_pruned += t.shards_pruned;
    out.totals.shards_scanned += t.shards_scanned;
    out.totals.rows_decoded += t.rows_decoded;
    out.totals.rows_emitted += t.rows_emitted;
    out.totals.bytes_file += t.bytes_file;
    out.totals.bytes_decoded += t.bytes_decoded;
    ++out.questions;
  }
  return out;
}

// ------------------------------------------------------------------- runner

// How many operations and seconds each stage gets. The workload's own stage
// gets the measured seconds; the others a fixed short budget.
struct Budget {
  std::size_t reads_min;
  double reads_s;
  double read_tail_pct;
  std::size_t cold_min;
  double cold_s;
  double hot_s;
};

Budget budget_for(const Options& o) {
  // Enough operations that each tail has at least 15 samples beyond it: a
  // tail resting on exactly 10 moved by a third between runs on a busy host.
  constexpr std::size_t kCrossReads = 60;  // p75: 15 beyond
  constexpr std::size_t kColdMin = 300;    // p90: 30 beyond
  switch (o.workload) {
    case Workload::kSimulate:
      return {kCrossReads, 0.0, 75, kColdMin, 0.0, 0.5};
    case Workload::kReplay:
      return {150, o.seconds, 90, kColdMin, 0.0, 0.5};  // p90: 15 beyond
    case Workload::kQuery:
      return {kCrossReads, 0.0, 75, kColdMin, 0.6 * o.seconds, 0.4 * o.seconds};
  }
  return {};
}

constexpr double kColdTailPct = 90;

double overhead_pct(double untraced, double traced, bool higher_is_better) {
  return higher_is_better ? 100.0 * (untraced / traced - 1.0)
                          : 100.0 * (traced / untraced - 1.0);
}

int run(Bench& b) {
  const Options& o = b.opt;
  auto& rep = b.report;
  const Budget budget = budget_for(o);
  const bool traced = o.trace;
  std::cout << "cellbench: workload " << o.workload_name << ", seed " << o.seed
            << ", " << b.config.num_users << " users x " << b.days
            << " days, " << b.threads << " threads, " << o.seconds
            << " s measured, trace " << traced << "\n";

  // ---- simulate (the workload's own stage, or the others' set-up)
  const auto setup_start = Clock::now();
  std::vector<SimRun> runs;
  double setup_s = 0.0;
  double headline_untraced = 0.0, headline_traced = 0.0;
  if (o.workload == Workload::kSimulate) {
    // Set-up: a smoke-scale, four-week pass through the same sequence,
    // three times, so the binary, the allocator and the working directory
    // are warm before the measured sequences.
    std::vector<double> warm_s;
    auto warm = sim::smoke_scenario();
    warm.seed = o.seed;
    warm.last_week = warm.kpi_first_week;
    warm.worker_threads = b.threads;
    for (int i = 0; i < 3; ++i) {
      const auto t = Clock::now();
      (void)simulate_to_store(b, warm, b.run_dir + "/warmup", false);
      warm_s.push_back(pb::ms_since(t) / 1000.0);
    }
    fs::remove_all(b.run_dir + "/warmup");
    setup_s = pb::median(warm_s);

    // Measured: whole sequences for o.seconds. A traced run splits them:
    // untraced first, then traced, and compares the stores' bytes.
    const auto start = Clock::now();
    std::vector<double> untraced_udps, traced_udps;
    for (int i = 0;; ++i) {
      const bool traced_iter = traced && i == 1;
      const std::string dir = b.run_dir + "/store-" + std::to_string(i);
      b.spans.set_on(traced_iter);
      SimRun r = simulate_to_store(b, b.config, dir, traced_iter);
      b.spans.set_on(false);
      check_store(b, dir, r.stats);
      (traced_iter ? traced_udps : untraced_udps).push_back(r.user_days_per_s);
      runs.push_back(std::move(r));
      if (traced_iter) {
        const std::string first = b.run_dir + "/store-0";
        const bool same = same_store_bytes(first, dir);
        std::cout << "  traced store bytes identical to untraced: "
                  << (same ? "yes" : "NO") << "\n";
        if (!same) b.tally.problem("traced store differs from untraced store");
        break;
      }
      if (traced) continue;  // keep store-0 for the byte comparison
      if (pb::ms_since(start) >= o.seconds * 1000.0) break;
      fs::remove_all(dir);
    }
    if (traced) {
      headline_untraced = pb::median(untraced_udps);
      headline_traced = pb::median(traced_udps);
    }
    b.store_dir = b.run_dir + "/store-" + std::to_string(runs.size() - 1);
  } else {
    b.spans.set_on(traced);
    b.store_dir = b.run_dir + "/store";
    runs.push_back(simulate_to_store(b, b.config, b.store_dir, traced));
    b.spans.set_on(false);
    check_store(b, b.store_dir, runs.back().stats);
  }
  b.store_stats = runs.back().stats;

  std::vector<double> substrate_ms;
  std::unique_ptr<QueryStage> query_stage;
  if (o.workload == Workload::kQuery)
    query_stage = build_query_stage(b, substrate_ms);
  if (o.workload != Workload::kSimulate)
    setup_s = pb::ms_since(setup_start) / 1000.0;

  std::vector<double> wall_ms, udps, slopes;
  for (const auto& r : runs) {
    wall_ms.push_back(r.wall_ms);
    udps.push_back(r.user_days_per_s);
    slopes.push_back(r.rss_slope_kb_per_day);
  }
  std::cout << "simulate (" << runs.size() << " sequences, "
            << b.store_stats.bytes_written << " store bytes, "
            << b.store_stats.rows_written << " rows)\n";
  rep.metric("setup_s", setup_s, "s");
  rep.timing("simulate_to_store", wall_ms, 90, "ms");
  rep.metric("user_days_per_s", pb::median(udps), "user-days/s");
  rep.metric("rss_slope_kb_per_day", pb::median(slopes), "kB/day");

  // ---- replay
  ReplayTimes replay_times;
  {
    std::cout << "replay\n";
    const bool split = traced && o.workload == Workload::kReplay;
    if (split) {
      ReplayTimes untraced_half;
      replay(b, budget.reads_min / 2, budget.reads_s / 2, false, untraced_half);
      b.spans.set_on(true);
      obs::reset();
      obs::set_enabled(true);
      replay(b, budget.reads_min / 2, budget.reads_s / 2, true, replay_times);
      obs::set_enabled(false);
      b.spans.set_on(false);
      headline_untraced = pb::median(untraced_half.read_ms);
      headline_traced = pb::median(replay_times.read_ms);
      replay_times.read_ms.insert(replay_times.read_ms.end(),
                                  untraced_half.read_ms.begin(),
                                  untraced_half.read_ms.end());
    } else {
      b.spans.set_on(traced);
      replay(b, budget.reads_min, budget.reads_s, traced, replay_times);
      b.spans.set_on(false);
    }
    rep.timing("read_dataset", replay_times.read_ms, budget.read_tail_pct, "ms",
               "replay_p50_ms", "replay_tail_ms");
  }

  // ---- query
  if (!query_stage) query_stage = build_query_stage(b, substrate_ms);
  QueryStage& q = *query_stage;
  std::cout << "query (" << q.cold.size() << " distinct cold questions, hot set "
            << q.hot.size() << " questions)\n";
  ColdPass cold;
  if (traced && o.workload == Workload::kQuery) {
    ColdPass untraced_half = cold_pass(b, q, budget.cold_min, budget.cold_s / 2);
    b.spans.set_on(true);
    obs::reset();
    obs::set_enabled(true);
    cold = cold_pass(b, q, budget.cold_min, budget.cold_s / 2);
    obs::set_enabled(false);
    headline_untraced = pb::median(untraced_half.latency_ms);
    headline_traced = pb::median(cold.latency_ms);
    (void)verify_cold(b, q, untraced_half);
  } else {
    b.spans.set_on(traced);
    cold = cold_pass(b, q, budget.cold_min, budget.cold_s);
  }
  const std::vector<double> adapter_ms = verify_cold(b, q, cold);
  const HotPass hot = hot_pass(b, q, budget.hot_s);
  b.spans.set_on(false);
  rep.timing("cold query (miss)", cold.latency_ms, kColdTailPct, "ms",
             "query_miss_p50_ms", "query_miss_tail_ms");
  rep.metric("query_miss_per_s",
             static_cast<double>(cold.latency_ms.size()) / cold.wall_s,
             "queries/s");
  std::cout << "  hot hits: " << hot.hits.count() << " in " << hot.wall_s
            << " s, p99 " << hot.hits.quantile_ns(0.99) / 1000.0 << " us, "
            << hot.not_hits << " not hits; hot set " << q.hot_set_bytes
            << " bytes of a " << (serve::QueryServiceOptions{}.cache_bytes >> 20)
            << " MiB cache\n";
  if (hot.hits.count() == 0) b.tally.problem("the hot pass timed no cache hit");
  rep.metric("query_hit_p50_us", hot.hits.quantile_ns(0.5) / 1000.0, "us");
  rep.metric("peak_rss_mb", static_cast<double>(obs::peak_rss_kb()) / 1024.0,
             "MB");
  rep.metric("error_rate",
             b.tally.attempted() ? static_cast<double>(b.tally.failed()) /
                                       static_cast<double>(b.tally.attempted())
                                 : 0.0,
             "fraction");

  if (traced) {
    std::cout << "per-layer attribution (traced)\n";
    const SimRun& sim_run = runs.back();
    if (o.workload == Workload::kSimulate) check_accounting(b, sim_run);
    rep.timing("sim.substrate", substrate_ms, 90, "ms", "sim.substrate_ms");
    report_sim_layers(b, sim_run);
    const double read_p50 = pb::median(replay_times.read_ms);
    const double validate_p50 = pb::median(replay_times.validate_ms);
    rep.metric("store.read_ms", read_p50, "ms");
    rep.timing("store.validate", replay_times.validate_ms, 90, "ms",
               "store.validate_ms");
    rep.metric("store.decode_ms",
               read_p50 - validate_p50 - pb::median(substrate_ms), "ms");
    rep.metric("store.bytes_read", static_cast<double>(replay_times.bytes_read),
               "bytes");

    const std::size_t n_scan = std::min<std::size_t>(cold.asked.size(), 60);
    const ScanTimes scan = scan_attribution(
        b, q, {cold.asked.begin(), cold.asked.begin() + static_cast<long>(n_scan)});
    rep.timing("store.scan_open (FeedScanner ctor)", scan.open_ms, 90, "ms",
               "store.scan_open_ms");
    rep.timing("store.scan_decode (next() loop)", scan.decode_ms, 90, "ms",
               "store.scan_decode_ms");
    const double nq = static_cast<double>(scan.questions);
    rep.metric("store.scan_shards_pruned",
               static_cast<double>(scan.totals.shards_pruned) / nq,
               "shards/query");
    rep.metric("store.scan_shards_scanned",
               static_cast<double>(scan.totals.shards_scanned) / nq,
               "shards/query");
    rep.metric("store.scan_bytes_decoded_ratio",
               static_cast<double>(scan.totals.bytes_decoded) /
                   static_cast<double>(scan.totals.bytes_file),
               "ratio");
    rep.metric("store.scan_emit_ratio",
               static_cast<double>(scan.totals.rows_emitted) /
                   static_cast<double>(scan.totals.rows_decoded),
               "ratio");
    rep.timing("serve.adapter (direct scan_kpi_group_series)", adapter_ms, 90,
               "ms", "serve.adapter_ms");
    rep.metric("serve.miss_overhead_ms",
               pb::median(cold.latency_ms) - pb::median(adapter_ms), "ms");
    rep.metric("serve.hit_ratio_cold", hit_ratio(cold.before, cold.after),
               "ratio");
    rep.metric("serve.hit_ratio_hot", hit_ratio(hot.before, hot.after), "ratio");
    const auto stats = q.service.stats();
    rep.metric("serve.sheds", static_cast<double>(stats.sheds), "count");
    rep.metric("serve.waits", static_cast<double>(stats.waits), "count");
    rep.metric("serve.evictions", static_cast<double>(stats.evictions), "count");
    rep.metric("serve.cache_bytes", static_cast<double>(stats.cache_bytes),
               "bytes");
    const bool higher_better = o.workload == Workload::kSimulate;
    rep.metric("obs.trace_overhead_pct",
               overhead_pct(headline_untraced, headline_traced, higher_better),
               "%");

    fs::create_directories(o.spans_dir);
    const std::string spans_path = o.spans_dir + "/" + o.workload_name +
                                   "-seed" + std::to_string(o.seed) +
                                   ".spans.json";
    if (!b.spans.write_json(spans_path))
      b.tally.problem("cannot write " + spans_path);
    std::cout << "  spans: " << b.spans.size() << " written to " << spans_path
              << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Bench b;
  b.opt = parse_options(argc, argv);
  b.config = b.opt.smoke ? sim::smoke_scenario() : sim::default_scenario();
  b.config.seed = b.opt.seed;
  b.threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  b.config.worker_threads = b.threads;
  b.digest = sim::config_digest(b.config);
  b.days = static_cast<std::uint64_t>(b.config.last_day() -
                                      b.config.first_day() + 1);
  b.run_dir = b.opt.work_dir + "/" + b.opt.workload_name + "-" +
              std::to_string(::getpid());

  try {
    fs::remove_all(b.run_dir);
    fs::create_directories(b.run_dir);
    run(b);
  } catch (const std::exception& e) {
    std::cerr << "cellbench: " << e.what() << "\n";
    fs::remove_all(b.run_dir);
    return 1;
  }
  fs::remove_all(b.run_dir);

  std::vector<std::string> problems;
  const std::string metrics =
      b.report.json(b.opt.trace ? kPerLayer : kEndToEnd, problems);
  for (const auto& p : problems) b.tally.problem(p);
  std::cout << "{\"correct\": " << (b.tally.correct() ? "true" : "false")
            << ", \"attempted\": " << b.tally.attempted()
            << ", \"failed\": " << b.tally.failed()
            << ", \"metrics\": " << metrics << "}" << std::endl;
  return b.tally.correct() ? 0 : 1;
}
