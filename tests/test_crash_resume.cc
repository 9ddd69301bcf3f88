// Crash/resume, the hard way: a child process SIGKILLs itself mid-run —
// no destructors, no flushes, exactly what a power cut or OOM kill leaves
// behind — and a fresh process resumes from the surviving store directory.
// The contract (sim/checkpoint.h, docs/RECOVERY.md) is that the resumed
// run's Dataset is bit-identical and the published store byte-identical to
// a run that was never interrupted, clean and under measurement-plane
// faults alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <fstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "sim/simulator.h"
#include "store/checkpoint.h"
#include "store/dataset_io.h"
#include "store/format.h"
#include "support/dataset_compare.h"

namespace cellscope::store {
namespace {

sim::ScenarioConfig crash_config() {
  sim::ScenarioConfig config = sim::default_scenario();
  config.num_users = 600;
  config.seed = 77;
  config.user_chunk = 128;
  config.worker_threads = 2;
  return config;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "crash_resume_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<std::uint8_t> slurp(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// Both directories hold exactly the same file names with exactly the same
// bytes — the store-level half of the resume contract.
void expect_dirs_byte_identical(const std::string& a, const std::string& b) {
  std::vector<std::string> names_a, names_b;
  for (const auto& entry : std::filesystem::directory_iterator(a))
    names_a.push_back(entry.path().filename().string());
  for (const auto& entry : std::filesystem::directory_iterator(b))
    names_b.push_back(entry.path().filename().string());
  std::sort(names_a.begin(), names_a.end());
  std::sort(names_b.begin(), names_b.end());
  ASSERT_EQ(names_a, names_b);
  for (const std::string& name : names_a)
    EXPECT_EQ(slurp(a + "/" + name), slurp(b + "/" + name))
        << name << " differs between " << a << " and " << b;
}

// One child process per entry of `kills`, each resuming what the previous
// one left and SIGKILLing itself after that many checkpoint records of its
// own; then a resume to completion, compared with an uninterrupted run.
void expect_crash_resume_identical(const sim::ScenarioConfig& config,
                                   const std::string& name,
                                   const std::vector<int>& kills) {
  const std::string crash_dir = fresh_dir(name);
  const std::string ref_dir = fresh_dir(name + "_ref");

  int days_done = 0;
  for (const int kill_after : kills) {
    // The child simulates with crash injection armed: right after its
    // kill_after-th record persists, it SIGKILLs itself. No gtest
    // machinery in the child — it either dies by signal (expected) or
    // exits 0 (a bug the parent's WIFSIGNALED assert catches).
    const pid_t child = fork();
    ASSERT_NE(child, -1);
    if (child == 0) {
      StoreRunOptions options;
      options.kill_after_days = kill_after;
      (void)simulate_to_store(config, crash_dir, options);
      _exit(0);
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of crashing";
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    // The wreckage: a checkpoint log holding every day simulated so far,
    // no published manifest (the run never finished), and in-flight *.tmp
    // litter is possible.
    days_done += kill_after;
    EXPECT_TRUE(std::filesystem::exists(crash_dir + "/checkpoint.ckpt"));
    EXPECT_EQ(CheckpointManager(crash_dir, sim::config_digest(config))
                  .resume_day(),
              config.first_day() + days_done - 1);
    EXPECT_FALSE(std::filesystem::exists(crash_dir + "/" +
                                         std::string(kManifestFile)));
  }

  // A fresh process resumes from the wreckage and runs to completion.
  const sim::Dataset resumed = simulate_to_store(config, crash_dir);
  EXPECT_TRUE(resumed.recovery.resumed);
  EXPECT_FALSE(std::filesystem::exists(crash_dir + "/checkpoint.ckpt"))
      << "completed run must clear its checkpoint";

  const sim::Dataset oneshot = simulate_to_store(config, ref_dir);
  EXPECT_FALSE(oneshot.recovery.resumed);
  sim::testsupport::expect_run_fields_identical(oneshot, resumed);
  expect_dirs_byte_identical(ref_dir, crash_dir);

  // The store owns the KPI rows: the resume re-streamed the restored ones
  // and released them, and counted them first.
  EXPECT_TRUE(resumed.kpis.released());
  EXPECT_TRUE(resumed.kpis.retained().empty());
  EXPECT_EQ(resumed.recovery.checkpoint_kpi_rows,
            oneshot.kpis.rows_through(resumed.recovery.resumed_from_day));

  // And the resumed store replays complete, with a sinkless run's rows.
  const ReadOutcome outcome = read_dataset(crash_dir, config);
  ASSERT_EQ(outcome.status, ReadOutcome::Status::kOk) << outcome.error;
  EXPECT_TRUE(outcome.complete());
  sim::testsupport::expect_datasets_identical(sim::run_scenario(config),
                                              *outcome.dataset);
}

sim::ScenarioConfig faulted_config() {
  sim::ScenarioConfig config = crash_config();
  config.seed = 31337;
  config.faults.observation_loss_rate = 0.05;
  config.faults.kpi_record_loss_rate = 0.05;
  config.faults.kpi_record_duplication_rate = 0.005;
  config.faults.signaling_outages_per_week = 1.0;
  config.faults.signaling_outage_mean_hours = 6.0;
  return config;
}

TEST(CrashResume, SigkillMidRunResumesByteIdentical) {
  expect_crash_resume_identical(crash_config(), "clean", {25});
}

TEST(CrashResume, FaultedSigkillMidRunResumesByteIdentical) {
  expect_crash_resume_identical(faulted_config(), "faulted", {25});
}

// A resumed run appends to the log it loaded. The first crash lands on a
// warm-up day, whose record carries the home detector's state; the second,
// 30 records into the resumed run, on a KPI day.
TEST(CrashResume, SecondCrashAfterResumeResumesByteIdentical) {
  expect_crash_resume_identical(crash_config(), "clean_twice", {10, 30});
}

TEST(CrashResume, FaultedSecondCrashAfterResumeResumesByteIdentical) {
  expect_crash_resume_identical(faulted_config(), "faulted_twice", {10, 30});
}

}  // namespace
}  // namespace cellscope::store
