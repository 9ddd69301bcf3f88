// The determinism contract, enforced.
//
// ScenarioConfig::worker_threads is documented as a pure runtime knob: the
// chunked worker pool (sim/pool.h) reduces per-chunk buffers in chunk-index
// order, so a run's Dataset must be BIT-identical — not merely close —
// whatever the thread count. This suite runs the same scenario at 1, 2, 3
// and 8 workers and compares every Dataset field at the bit level, float
// fields included, clean and under measurement-plane faults. Any reduction
// reordered by a future change fails here first.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/runtime.h"
#include "obs/timeline.h"
#include "sim/checkpoint.h"
#include "sim/dataset_audit.h"
#include "sim/simulator.h"
#include "store/dataset_io.h"
#include "support/dataset_compare.h"

namespace cellscope::sim {
namespace {

using testsupport::expect_datasets_identical;

// Small scale, small chunks: many chunks per day and (at 8 workers) more
// workers than chunks in flight, so the reorder window actually reorders.
ScenarioConfig matrix_config() {
  ScenarioConfig config = default_scenario();
  config.num_users = 2'500;
  config.seed = 987;
  config.user_chunk = 128;
  config.collect_binned_mobility = true;
  return config;
}

class ThreadMatrix : public ::testing::TestWithParam<int> {
 protected:
  // The single-worker run is the reference; computed once for the suite.
  static const Dataset& reference() {
    static const Dataset* serial = [] {
      auto config = matrix_config();
      config.worker_threads = 1;
      return new Dataset(run_scenario(config));
    }();
    return *serial;
  }
};

TEST_P(ThreadMatrix, DatasetBitIdenticalToSerial) {
  auto config = matrix_config();
  config.worker_threads = GetParam();
  const Dataset parallel = run_scenario(config);
  expect_datasets_identical(reference(), parallel);
}

INSTANTIATE_TEST_SUITE_P(Workers, ThreadMatrix, ::testing::Values(2, 3, 8),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

// The same contract must hold when the measurement plane is degraded: the
// fault plan keys off (user, day, cell, hour) — never off which worker
// handled the record — so the quality ledger is part of the stable output.
TEST(ThreadMatrixFaulted, QualityLedgerAndDatasetBitIdentical) {
  ScenarioConfig config = default_scenario();
  config.num_users = 1'500;
  config.seed = 4242;
  config.user_chunk = 96;
  config.faults.signaling_outages_per_week = 1.0;
  config.faults.signaling_outage_mean_hours = 6.0;
  config.faults.observation_loss_rate = 0.02;
  config.faults.kpi_record_loss_rate = 0.01;
  config.faults.kpi_record_duplication_rate = 0.005;
  config.faults.cell_outage_daily_prob = 0.01;

  config.worker_threads = 1;
  const Dataset serial = run_scenario(config);
  config.worker_threads = 3;
  const Dataset parallel = run_scenario(config);
  ASSERT_FALSE(serial.quality.empty());
  expect_datasets_identical(serial, parallel);
}

// The digest draws the line the engine promises: the thread count is not
// scenario identity, the chunk grid is.
TEST(DeterminismContract, DigestExcludesThreadsIncludesChunk) {
  auto a = matrix_config();
  auto b = matrix_config();
  b.worker_threads = 32;
  EXPECT_EQ(config_digest(a), config_digest(b));
  b.user_chunk = a.user_chunk * 2;
  EXPECT_NE(config_digest(a), config_digest(b));
}

// The conservation audit is passive bookkeeping: an audited run must
// produce the same Dataset, bit for bit, as an unaudited one — observing
// the run cannot change it. The audit flag, like worker_threads, stays out
// of the config digest for the same reason.
TEST(DeterminismContract, AuditedRunBitIdenticalToUnaudited) {
  auto config = matrix_config();
  config.worker_threads = 2;
  const Dataset plain = run_scenario(config);
  config.audit = true;
  const Dataset audited = run_scenario(config);
  EXPECT_GT(audited.audit_report.checks_evaluated(), 0u);
  EXPECT_TRUE(audited.audit_report.clean());
  expect_datasets_identical(plain, audited);
  EXPECT_EQ(config_digest(plain.config), config_digest(audited.config));
}

// The run-health timeline reads clocks, /proc and registry counters —
// never RNG streams or model state — so a sampled run must produce the
// same Dataset, bit for bit, as an unsampled one at every worker count.
// 1 worker (serial), 8 (contended) and 32 (far more workers than chunks
// in flight) all compare against one unsampled serial reference.
TEST(DeterminismContract, TimelineSampledRunBitIdenticalToUnsampled) {
  ScenarioConfig config = default_scenario();
  config.num_users = 1'500;
  config.seed = 31337;
  config.user_chunk = 128;

  obs::set_enabled(false);
  obs::reset();
  config.worker_threads = 1;
  const Dataset plain = run_scenario(config);
  const auto n_days = static_cast<std::uint64_t>(config.last_day() -
                                                 config.first_day() + 1);

  for (const int workers : {1, 8, 32}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    config.worker_threads = workers;
    obs::reset();
    obs::set_enabled(true);
    const Dataset sampled = run_scenario(config);
    obs::set_enabled(false);
    // The timeline really sampled: one day-boundary sample per simulated
    // day, with a live RSS reading and the registry-backed gauges wired in.
    EXPECT_GE(obs::timeline().sample_count(), n_days);
    const auto samples = obs::timeline().samples();
    ASSERT_FALSE(samples.empty());
    EXPECT_GT(samples.back().rss_kb, 0);
    EXPECT_GT(samples.back().users_per_sec, 0.0);
    obs::reset();
    // ...and perturbed nothing.
    expect_datasets_identical(plain, sampled);
  }
}

TEST(DeterminismContract, RejectsBadChunkSize) {
  auto config = matrix_config();
  config.user_chunk = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.user_chunk = (1u << 20) + 1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

// ------------------------------------------------- checkpoint/resume
//
// The resume contract (sim/checkpoint.h): a run restored from any day's
// checkpoint must finish with a Dataset BIT-identical to the uninterrupted
// run, at any worker count on either side of the interruption. An
// in-memory sink records every day's record from one full run; each test
// primes a fresh sink with the log of records up to one day and lets a
// second run fast-forward from it.
class MemoryCheckpoint final : public CheckpointSink {
 public:
  [[nodiscard]] std::span<const std::uint8_t> resume_payload()
      const override {
    return {resume_payload_.data(), resume_payload_.size()};
  }
  [[nodiscard]] SimDay resume_day() const override { return resume_day_; }
  void on_day_complete(SimDay day,
                       const std::vector<std::uint8_t>& state) override {
    saved_.emplace_back(day, state);
  }

  // The log `recorder` saved through its record `last`.
  void prime(const MemoryCheckpoint& recorder, std::size_t last) {
    resume_payload_.clear();
    for (std::size_t i = 0; i <= last; ++i) {
      const std::vector<std::uint8_t>& record = recorder.saved()[i].second;
      resume_payload_.insert(resume_payload_.end(), record.begin(),
                             record.end());
    }
    resume_day_ = recorder.saved()[last].first;
  }
  [[nodiscard]] const std::vector<
      std::pair<SimDay, std::vector<std::uint8_t>>>&
  saved() const {
    return saved_;
  }

 private:
  SimDay resume_day_ = -1;
  std::vector<std::uint8_t> resume_payload_;
  std::vector<std::pair<SimDay, std::vector<std::uint8_t>>> saved_;
};

// The serial reference run, with every day's checkpoint record recorded;
// computed once for the whole resume suite.
struct RecordedRun {
  Dataset dataset;
  MemoryCheckpoint checkpoints;
};
const RecordedRun& recorded_reference() {
  static const RecordedRun* run = [] {
    auto* r = new RecordedRun;
    auto config = matrix_config();
    config.worker_threads = 1;
    Simulator simulator{config};
    r->dataset = simulator.run(nullptr, &r->checkpoints);
    return r;
  }();
  return *run;
}

Dataset resume_from(const MemoryCheckpoint& recorder, std::size_t index,
                    int workers, bool audit = false) {
  MemoryCheckpoint source;
  source.prime(recorder, index);
  auto config = matrix_config();
  config.worker_threads = workers;
  config.audit = audit;
  Simulator simulator{config};
  return simulator.run(nullptr, &source);
}

class ResumeMatrix : public ::testing::TestWithParam<int> {};

TEST_P(ResumeMatrix, ResumedRunBitIdenticalToUninterrupted) {
  const RecordedRun& full = recorded_reference();
  ASSERT_GT(full.checkpoints.saved().size(), 3u);
  EXPECT_FALSE(full.dataset.recovery.resumed);
  const std::size_t mid = full.checkpoints.saved().size() / 2;
  const Dataset resumed =
      resume_from(full.checkpoints, mid, GetParam());
  EXPECT_TRUE(resumed.recovery.resumed);
  EXPECT_EQ(resumed.recovery.resumed_from_day,
            full.checkpoints.saved()[mid].first);
  expect_datasets_identical(full.dataset, resumed);
}

INSTANTIATE_TEST_SUITE_P(Workers, ResumeMatrix, ::testing::Values(1, 2, 8),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

// The extreme restore points: the very first day (home detection barely
// begun, nothing calibrated) and the second-to-last (every calibration
// finalized, one day left to simulate).
TEST(CheckpointResume, BoundaryDaysResumeBitIdentical) {
  const RecordedRun& full = recorded_reference();
  const auto& saved = full.checkpoints.saved();
  ASSERT_GT(saved.size(), 3u);
  for (const std::size_t index : {std::size_t{0}, saved.size() - 2}) {
    SCOPED_TRACE("resumed after day " +
                 std::to_string(saved[index].first));
    const Dataset resumed = resume_from(full.checkpoints, index, 2);
    expect_datasets_identical(full.dataset, resumed);
  }
}

// A resumed run re-checkpoints the days it simulates; those blobs must be
// byte-identical to the full run's blobs for the same days — otherwise a
// second crash after a resume would restore drifted state.
TEST(CheckpointResume, ResumedCheckpointsByteIdenticalToFullRuns) {
  const RecordedRun& full = recorded_reference();
  const auto& saved = full.checkpoints.saved();
  ASSERT_GT(saved.size(), 3u);
  const std::size_t mid = saved.size() / 2;
  MemoryCheckpoint source;
  source.prime(full.checkpoints, mid);
  auto config = matrix_config();
  config.worker_threads = 2;
  Simulator simulator{config};
  (void)simulator.run(nullptr, &source);
  ASSERT_EQ(source.saved().size(), saved.size() - mid - 1);
  for (std::size_t i = 0; i < source.saved().size(); ++i) {
    EXPECT_EQ(source.saved()[i].first, saved[mid + 1 + i].first);
    EXPECT_EQ(source.saved()[i].second, saved[mid + 1 + i].second)
        << "checkpoint blob for day " << source.saved()[i].first;
  }
}

// The contract holds under measurement-plane faults too: the quality
// ledger, the fault plan's RNG stream and the degraded feeds all resume
// exactly where they stopped.
TEST(CheckpointResume, FaultedResumeBitIdenticalIncludingQualityLedger) {
  ScenarioConfig config = default_scenario();
  config.num_users = 1'500;
  config.seed = 4242;
  config.user_chunk = 96;
  config.faults.signaling_outages_per_week = 1.0;
  config.faults.signaling_outage_mean_hours = 6.0;
  config.faults.observation_loss_rate = 0.05;
  config.faults.kpi_record_loss_rate = 0.05;
  config.faults.kpi_record_duplication_rate = 0.005;
  config.worker_threads = 1;
  MemoryCheckpoint recorder;
  Simulator full_sim{config};
  const Dataset full = full_sim.run(nullptr, &recorder);
  ASSERT_FALSE(full.quality.empty());
  ASSERT_GT(recorder.saved().size(), 2u);

  const std::size_t mid = recorder.saved().size() / 2;
  MemoryCheckpoint source;
  source.prime(recorder, mid);
  config.worker_threads = 3;
  Simulator resumed_sim{config};
  const Dataset resumed = resumed_sim.run(nullptr, &source);
  expect_datasets_identical(full, resumed);
}

// The log reproduces the run from every restore point: resuming after each
// day of a small run finishes bit-identical to the uninterrupted run and
// re-records the same records. The window runs through the lockdown
// (week 13), past every phase change: homes finalize and the KPI window
// opens on day 21, the interconnect calibrates on day 28, and refuges are
// appended from the lockdown on.
void expect_every_day_resumes(ScenarioConfig config) {
  config.num_users = 300;
  config.last_week = 14;
  config.user_chunk = 64;
  config.worker_threads = 2;
  MemoryCheckpoint recorder;
  const Dataset full = Simulator{config}.run(nullptr, &recorder);
  const auto& saved = recorder.saved();
  ASSERT_EQ(saved.size(),
            static_cast<std::size_t>(config.last_day() - config.first_day() + 1));
  for (std::size_t k = 0; k + 1 < saved.size(); ++k) {
    SCOPED_TRACE("resumed after day " + std::to_string(saved[k].first));
    MemoryCheckpoint source;
    source.prime(recorder, k);
    const Dataset resumed = Simulator{config}.run(nullptr, &source);
    expect_datasets_identical(full, resumed);
    ASSERT_EQ(source.saved().size(), saved.size() - k - 1);
    for (std::size_t i = 0; i < source.saved().size(); ++i)
      ASSERT_EQ(source.saved()[i].second, saved[k + 1 + i].second)
          << "record for day " << source.saved()[i].first;
  }
}

TEST(CheckpointResume, EveryDayOfTheLogResumesBitIdentical) {
  expect_every_day_resumes(default_scenario());
}

TEST(CheckpointResume, EveryDayOfAFaultedLogResumesBitIdentical) {
  ScenarioConfig config = default_scenario();
  config.seed = 4243;
  config.faults.signaling_outages_per_week = 1.0;
  config.faults.signaling_outage_mean_hours = 6.0;
  config.faults.observation_loss_rate = 0.05;
  config.faults.kpi_record_loss_rate = 0.05;
  config.faults.kpi_record_duplication_rate = 0.005;
  expect_every_day_resumes(config);
}

// checkpoint-consistency (audit/laws.h) only exists for resumed runs: the
// restored ledger prefixes must reconcile with the sizes recorded at the
// fast-forward. A clean resume passes it; a fresh run never evaluates it.
TEST(CheckpointResume, ResumedRunPassesCheckpointConsistencyLaw) {
  const RecordedRun& full = recorded_reference();
  const std::size_t mid = full.checkpoints.saved().size() / 2;
  const Dataset resumed =
      resume_from(full.checkpoints, mid, 2, /*audit=*/true);
  EXPECT_GT(resumed.audit_report.checks_for("checkpoint-consistency"), 0u);
  EXPECT_TRUE(resumed.audit_report.clean());
  const audit::AuditReport fresh = audit_dataset(full.dataset);
  EXPECT_EQ(fresh.checks_for("checkpoint-consistency"), 0u);
}

// The audit report is not checkpointed, so a resumed run audits its
// restored KPI days as it replays them, with a sink or without: every
// per-day law (kpi-aggregation among them) evaluates as many checks as in
// the uninterrupted run, and the sink still receives every row.
class RowCountingSink final : public DatasetSink {
 public:
  void on_kpi_day(SimDay,
                  std::span<const telemetry::CellDayRecord> rows) override {
    rows_ += rows.size();
  }
  [[nodiscard]] std::uint64_t rows() const { return rows_; }

 private:
  std::uint64_t rows_ = 0;
};

TEST(CheckpointResume, AuditedResumeChecksEveryRestoredKpiDay) {
  const RecordedRun& full = recorded_reference();
  ScenarioConfig config = matrix_config();
  config.worker_threads = 2;
  config.audit = true;
  const Dataset one_shot = run_scenario(config);
  const std::size_t mid = full.checkpoints.saved().size() / 2;
  for (const bool with_sink : {false, true}) {
    SCOPED_TRACE(with_sink ? "sink run" : "sinkless run");
    MemoryCheckpoint source;
    source.prime(full.checkpoints, mid);
    RowCountingSink sink;
    const Dataset resumed =
        Simulator{config}.run(with_sink ? &sink : nullptr, &source);
    ASSERT_GT(resumed.recovery.checkpoint_kpi_rows, 0u);
    EXPECT_TRUE(resumed.audit_report.clean());
    for (const char* law : {"kpi-partition", "kpi-range", "kpi-aggregation"})
      EXPECT_EQ(resumed.audit_report.checks_for(law),
                one_shot.audit_report.checks_for(law))
          << law;
    EXPECT_EQ(resumed.kpis.released(), with_sink);
    if (with_sink) {
      EXPECT_EQ(sink.rows(), one_shot.kpis.row_count());
    }
  }
}

// ------------------------------------------------- KPI row ownership
//
// A run with a DatasetSink hands each KPI day to the sink and keeps only
// its counts (telemetry::KpiStore::release_rows). Nothing else may move:
// every other field equals the sinkless run's, bit for bit, and the rows
// the store decodes are the rows the sinkless run kept.
class SinkRun : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(SinkRun, MatchesTheSinklessRun) {
  const auto [workers, faulted] = GetParam();
  ScenarioConfig config = default_scenario();
  config.num_users = 1'500;
  config.seed = faulted ? 4242 : 987;
  config.user_chunk = faulted ? 96 : 128;
  config.worker_threads = workers;
  if (faulted) {
    config.faults.signaling_outages_per_week = 1.0;
    config.faults.signaling_outage_mean_hours = 6.0;
    config.faults.observation_loss_rate = 0.02;
    config.faults.kpi_record_loss_rate = 0.01;
    config.faults.kpi_record_duplication_rate = 0.005;
    config.faults.cell_outage_daily_prob = 0.01;
  }
  const Dataset sinkless = run_scenario(config);
  ASSERT_FALSE(sinkless.kpis.released());
  ASSERT_GT(sinkless.kpis.row_count(), 0u);

  const std::string dir = ::testing::TempDir() + "sink_run_" +
                          std::to_string(workers) +
                          (faulted ? "_faulted" : "_clean");
  std::filesystem::remove_all(dir);
  const Dataset streamed = store::simulate_to_store(config, dir);

  testsupport::expect_run_fields_identical(sinkless, streamed);
  EXPECT_TRUE(streamed.kpis.released());
  EXPECT_TRUE(streamed.kpis.retained().empty());
  EXPECT_THROW((void)streamed.kpis.records(), std::logic_error);
  EXPECT_EQ(streamed.kpis.row_count(), sinkless.kpis.records().size());
  EXPECT_EQ(streamed.kpis.first_day(), sinkless.kpis.first_day());
  EXPECT_EQ(streamed.kpis.last_day(), sinkless.kpis.last_day());

  std::vector<telemetry::CellDayRecord> stored;
  const store::ScanStats scanned = store::scan_kpis(
      dir, [&](const telemetry::CellDayRecord& r) { stored.push_back(r); });
  EXPECT_EQ(scanned.shards_quarantined, 0u);
  testsupport::expect_kpi_rows_identical(sinkless.kpis.records(), stored);
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Workers, SinkRun,
    ::testing::Combine(::testing::Values(1, 3, 8), ::testing::Bool()),
    [](const auto& info) {
      return "threads" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_faulted" : "_clean");
    });

}  // namespace
}  // namespace cellscope::sim
