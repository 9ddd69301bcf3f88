// Corruption robustness of the dataset layer: a damaged store must never
// crash, never throw, and — above all — never serve partial data as
// complete. Every mutation here (bit flip, truncation, deleted feed,
// missing manifest) must surface as a degraded or missing outcome with
// the losses accounted in the telemetry/quality ledger, while everything
// intact still loads.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/atomic_file.h"
#include "sim/simulator.h"
#include "store/checkpoint.h"
#include "store/dataset_io.h"
#include "store/format.h"

namespace cellscope::store {
namespace {

sim::ScenarioConfig tiny_config() {
  sim::ScenarioConfig config = sim::default_scenario();
  config.num_users = 600;
  config.seed = 77;
  config.user_chunk = 128;
  config.worker_threads = 2;
  return config;
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream file{path, std::ios::in | std::ios::out | std::ios::binary};
  ASSERT_TRUE(file.good()) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
  ASSERT_TRUE(file.good()) << path;
}

std::uint64_t store_quarantined(const sim::Dataset& ds) {
  for (const auto& feed : ds.quality.feeds())
    if (feed.name == "store") return feed.quarantined_records;
  return 0;
}

// One pristine store for the suite; each test clones and damages a copy.
// The base directory is keyed by PID: ctest isolates every test into its
// own process (each rebuilding the suite fixture), and concurrent
// processes sharing one path would race each other's remove_all.
class StoreCorruption : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    base_dir_ = new std::string(::testing::TempDir() +
                                "cellstore_corruption_base_" +
                                std::to_string(::getpid()));
    std::filesystem::remove_all(*base_dir_);
    // The run hands its KPI rows to the store and keeps their count, which
    // is all these tests compare against.
    live_ = new sim::Dataset(simulate_to_store(tiny_config(), *base_dir_));
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*base_dir_);
    delete live_;
    live_ = nullptr;
    delete base_dir_;
    base_dir_ = nullptr;
  }

  static const sim::Dataset& live() { return *live_; }

  static std::string clone(const std::string& name) {
    const std::string dir =
        ::testing::TempDir() + "cellstore_corruption_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::copy(*base_dir_, dir);
    return dir;
  }

 private:
  static std::string* base_dir_;
  static sim::Dataset* live_;
};
std::string* StoreCorruption::base_dir_ = nullptr;
sim::Dataset* StoreCorruption::live_ = nullptr;

TEST_F(StoreCorruption, PristineCloneLoadsComplete) {
  const ReadOutcome outcome = read_dataset(clone("pristine"), tiny_config());
  ASSERT_EQ(outcome.status, ReadOutcome::Status::kOk) << outcome.error;
  EXPECT_TRUE(outcome.complete());
  EXPECT_EQ(outcome.shards_quarantined, 0u);
  EXPECT_EQ(store_quarantined(*outcome.dataset), 0u);
}

TEST_F(StoreCorruption, BitFlippedKpiFeedDegradesWithoutCrash) {
  const std::string dir = clone("bitflip");
  // Offset 64 sits inside the first KPI shard (header + column directory),
  // so the shard's CRC no longer matches.
  flip_byte(dir + "/" + feed_file_name("kpis"), 64);

  const ReadOutcome outcome = read_dataset(dir, tiny_config());
  ASSERT_EQ(outcome.status, ReadOutcome::Status::kDegraded) << outcome.error;
  EXPECT_FALSE(outcome.complete());
  EXPECT_GE(outcome.shards_quarantined, 1u);
  EXPECT_FALSE(outcome.quarantine_log.empty());
  // The dataset is still served — degraded, with the damage on the ledger —
  // and the untouched feeds loaded in full.
  ASSERT_TRUE(outcome.dataset.has_value());
  EXPECT_GE(store_quarantined(*outcome.dataset), 1u);
  EXPECT_EQ(outcome.dataset->homes.size(), live().homes.size());
  EXPECT_LT(outcome.dataset->kpis.records().size(),
            live().kpis.row_count());
}

TEST_F(StoreCorruption, TruncatedKpiFeedDegradesWithoutCrash) {
  const std::string dir = clone("truncated");
  const std::string kpis = dir + "/" + feed_file_name("kpis");
  std::filesystem::resize_file(kpis, std::filesystem::file_size(kpis) / 2);

  const ReadOutcome outcome = read_dataset(dir, tiny_config());
  ASSERT_EQ(outcome.status, ReadOutcome::Status::kDegraded) << outcome.error;
  EXPECT_FALSE(outcome.complete());
  EXPECT_GE(outcome.shards_quarantined, 1u);
  ASSERT_TRUE(outcome.dataset.has_value());
  EXPECT_EQ(outcome.dataset->kpis.records().size(), 0u);
  EXPECT_EQ(outcome.dataset->homes.size(), live().homes.size());
  EXPECT_GE(store_quarantined(*outcome.dataset), 1u);
}

TEST_F(StoreCorruption, DeletedFeedFileDegradesWithoutCrash) {
  const std::string dir = clone("deleted");
  std::filesystem::remove(dir + "/" + feed_file_name("homes"));

  const ReadOutcome outcome = read_dataset(dir, tiny_config());
  ASSERT_EQ(outcome.status, ReadOutcome::Status::kDegraded) << outcome.error;
  EXPECT_FALSE(outcome.complete());
  ASSERT_TRUE(outcome.dataset.has_value());
  EXPECT_EQ(outcome.dataset->homes.size(), 0u);
  // Every other feed is unaffected.
  EXPECT_EQ(outcome.dataset->kpis.records().size(),
            live().kpis.row_count());
  EXPECT_EQ(outcome.dataset->signaling.days().size(),
            live().signaling.days().size());
}

TEST_F(StoreCorruption, EveryFeedDamagedStillNeverCrashes) {
  const std::string dir = clone("scorched");
  for (const auto& feed : dataset_feeds()) {
    const std::string path = dir + "/" + feed_file_name(feed);
    const auto size = std::filesystem::file_size(path);
    if (size > 48) {
      flip_byte(path, size / 2);
    } else {
      std::filesystem::resize_file(path, size / 2);
    }
  }
  const ReadOutcome outcome = read_dataset(dir, tiny_config());
  EXPECT_EQ(outcome.status, ReadOutcome::Status::kDegraded);
  EXPECT_FALSE(outcome.complete());
  ASSERT_TRUE(outcome.dataset.has_value());
  EXPECT_GE(store_quarantined(*outcome.dataset), 1u);
}

// ------------------------------------------------- torn-write matrix
//
// A crash can tear a write at any byte. The publish protocol (tmp + fsync
// + rename) means a torn PUBLISHED file can only exist if the protocol is
// violated or the disk lies — but the reader must survive it regardless.
// This matrix truncates the KPI feed at every structural boundary of the
// CSF1 layout (shard.cc): file header (8), shard header (+32), column
// directory entry (+16), footer entry (48 from the tail), the 16-byte tail
// itself, and one byte into/short of each. Every cut must read as degraded
// — quarantined on the ledger, other feeds intact — and never crash or
// serve the torn feed as complete.
TEST_F(StoreCorruption, TruncationAtEveryStructuralBoundaryDegrades) {
  const std::string pristine = clone("torn_pristine");
  const std::string kpis_name = feed_file_name("kpis");
  const auto size = std::filesystem::file_size(pristine + "/" + kpis_name);
  ASSERT_GT(size, 64u);
  const std::vector<std::uint64_t> cuts = {
      0,          // empty file
      1,          // inside the file magic
      8,          // exactly the file header: no shard, no tail
      8 + 31,     // inside the first shard header
      8 + 32,     // shard header complete, column directory missing
      8 + 32 + 16,  // one column-directory entry, payload missing
      size - 17,  // one byte short of the tail
      size - 16,  // tail missing entirely (footer still present)
      size - 48 - 16,  // inside the footer entries
      size - 8,   // tail torn mid-CRC
      size - 1,   // last byte lost
  };
  for (const std::uint64_t cut : cuts) {
    SCOPED_TRACE("truncated to " + std::to_string(cut) + " of " +
                 std::to_string(size) + " bytes");
    const std::string dir = clone("torn_" + std::to_string(cut));
    std::filesystem::resize_file(dir + "/" + kpis_name, cut);
    const ReadOutcome outcome = read_dataset(dir, tiny_config());
    ASSERT_EQ(outcome.status, ReadOutcome::Status::kDegraded)
        << outcome.error;
    EXPECT_FALSE(outcome.complete());
    EXPECT_GE(outcome.shards_quarantined, 1u);
    ASSERT_TRUE(outcome.dataset.has_value());
    // The torn feed never serves partial rows as complete...
    EXPECT_LT(outcome.dataset->kpis.records().size(),
              live().kpis.row_count());
    EXPECT_GE(store_quarantined(*outcome.dataset), 1u);
    // ...and the untouched feeds still load in full.
    EXPECT_EQ(outcome.dataset->homes.size(), live().homes.size());
    EXPECT_EQ(outcome.dataset->signaling.days().size(),
              live().signaling.days().size());
  }
}

// An abandoned scratch file — a writer crashed before its rename — must be
// invisible to readers whatever its contents (empty, garbage, or a torn
// prefix of the real shard at any structural boundary), and the next
// writer's startup sweep removes it.
TEST_F(StoreCorruption, OrphanedTmpFilesAreIgnoredAndSwept) {
  const std::string dir = clone("orphan_tmp");
  const std::string kpis = dir + "/" + feed_file_name("kpis");
  std::vector<char> shard(std::filesystem::file_size(kpis));
  std::ifstream{kpis, std::ios::binary}.read(shard.data(),
                                             static_cast<std::streamoff>(
                                                 shard.size()));
  // A torn prefix of a real shard, a garbage manifest, and an empty file.
  std::ofstream{kpis + kTmpSuffix, std::ios::binary}.write(shard.data(), 40);
  std::ofstream{dir + "/" + std::string(kManifestFile) + kTmpSuffix}
      << "torn manifest\n";
  std::ofstream{dir + "/empty" + kTmpSuffix};

  const ReadOutcome outcome = read_dataset(dir, tiny_config());
  ASSERT_EQ(outcome.status, ReadOutcome::Status::kOk) << outcome.error;
  EXPECT_TRUE(outcome.complete());
  EXPECT_EQ(outcome.dataset->kpis.records().size(),
            live().kpis.row_count());

  EXPECT_EQ(remove_stale_tmp_files(dir), 3u);
  EXPECT_FALSE(std::filesystem::exists(kpis + kTmpSuffix));
  // The published files all survive the sweep.
  const ReadOutcome after = read_dataset(dir, tiny_config());
  EXPECT_EQ(after.status, ReadOutcome::Status::kOk);
}

// ------------------------------------------------- checkpoint records
//
// A damaged checkpoint must read as "no resumable state" — the run starts
// fresh — never as an error and never as someone else's state.
TEST_F(StoreCorruption, CheckpointSurvivesEveryCorruption) {
  const std::string dir =
      ::testing::TempDir() + "cellstore_corruption_ckpt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::vector<std::uint8_t> state = {1, 2, 3, 4, 5, 6, 7, 8};
  {
    CheckpointManager writer{dir, "digest-a"};
    writer.on_day_complete(41, state);
  }
  const std::string path = dir + "/checkpoint.ckpt";
  ASSERT_TRUE(std::filesystem::exists(path));

  {  // Round-trip: same digest resumes.
    CheckpointManager m{dir, "digest-a"};
    ASSERT_FALSE(m.resume_payload().empty());
    EXPECT_EQ(m.resume_day(), 41);
    EXPECT_TRUE(std::equal(state.begin(), state.end(),
                           m.resume_payload().begin()));
  }
  {  // A different scenario's digest must not resume from it.
    CheckpointManager m{dir, "digest-b"};
    EXPECT_TRUE(m.resume_payload().empty());
  }
  // Truncation at every byte boundary reads as fresh, never throws.
  const auto size = std::filesystem::file_size(path);
  for (std::uint64_t cut = 0; cut < size; ++cut) {
    {
      CheckpointManager writer{dir, "digest-a"};
      writer.on_day_complete(41, state);
    }
    std::filesystem::resize_file(path, cut);
    CheckpointManager m{dir, "digest-a"};
    EXPECT_TRUE(m.resume_payload().empty()) << "cut " << cut;
  }
  // A flipped byte anywhere fails the CRC and reads as fresh.
  for (const std::uint64_t offset : {std::uint64_t{0}, size / 2, size - 1}) {
    {
      CheckpointManager writer{dir, "digest-a"};
      writer.on_day_complete(41, state);
    }
    flip_byte(path, offset);
    CheckpointManager m{dir, "digest-a"};
    EXPECT_TRUE(m.resume_payload().empty()) << "offset " << offset;
  }
  // Garbage reads as fresh; clear() removes the record.
  std::ofstream{path, std::ios::binary | std::ios::trunc}
      << "not a checkpoint";
  CheckpointManager m{dir, "digest-a"};
  EXPECT_TRUE(m.resume_payload().empty());
  m.on_day_complete(7, state);
  m.clear();
  EXPECT_FALSE(std::filesystem::exists(path));
  CheckpointManager fresh{dir, "digest-a"};
  EXPECT_TRUE(fresh.resume_payload().empty());
}

// The day log: five records of distinct lengths for days 10-14. Damage
// costs only the record it touches and the records after it.
class CheckpointLog : public ::testing::Test {
 protected:
  void SetUp() override {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    for (std::uint8_t k = 0; k < 5; ++k)
      records_.emplace_back(3 + 7 * k, static_cast<std::uint8_t>(k + 1));
    write_log();
    // Header: magic, version, digest length, "digest-a"; then each record
    // frames its payload with 16 bytes before and 4 after.
    std::uint64_t end = 12 + 8;
    for (const auto& record : records_) ends_.push_back(end += 20 + record.size());
    ASSERT_EQ(std::filesystem::file_size(path_), ends_.back());
  }

  void write_log() const {
    CheckpointManager writer{dir_, "digest-a"};
    for (std::size_t k = 0; k < records_.size(); ++k)
      writer.on_day_complete(static_cast<SimDay>(10 + k), records_[k]);
  }

  // The manager resumes from records 0..`whole` - 1, or fresh at 0.
  void expect_resumes_through(std::size_t whole) const {
    CheckpointManager m{dir_, "digest-a"};
    if (whole == 0) {
      EXPECT_TRUE(m.resume_payload().empty());
      return;
    }
    std::vector<std::uint8_t> log;
    for (std::size_t k = 0; k < whole; ++k)
      log.insert(log.end(), records_[k].begin(), records_[k].end());
    EXPECT_EQ(m.resume_day(), static_cast<SimDay>(10 + whole - 1));
    EXPECT_EQ(std::vector<std::uint8_t>(m.resume_payload().begin(),
                                        m.resume_payload().end()),
              log);
  }

  // Overwrites the u64 at `offset` (little-endian).
  void patch_u64(std::uint64_t offset, std::uint64_t value) const {
    std::fstream file{path_, std::ios::in | std::ios::out | std::ios::binary};
    file.seekp(static_cast<std::streamoff>(offset));
    for (int i = 0; i < 8; ++i) file.put(static_cast<char>(value >> (8 * i)));
    ASSERT_TRUE(file.good());
  }

  // One directory per test: ctest runs them as concurrent processes.
  const std::string dir_ =
      ::testing::TempDir() + "cellstore_checkpoint_log_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  const std::string path_ = dir_ + "/checkpoint.ckpt";
  std::vector<std::vector<std::uint8_t>> records_;
  std::vector<std::uint64_t> ends_;  // file offset past each record
};

TEST_F(CheckpointLog, TruncationResumesFromLastWholeRecord) {
  expect_resumes_through(5);
  for (std::uint64_t cut = 0; cut < ends_.back(); ++cut) {
    SCOPED_TRACE("cut " + std::to_string(cut));
    write_log();
    std::filesystem::resize_file(path_, cut);
    std::size_t whole = 0;
    while (whole < ends_.size() && ends_[whole] <= cut) ++whole;
    expect_resumes_through(whole);
  }
}

TEST_F(CheckpointLog, FlippedByteResumesFromRecordBefore) {
  for (std::size_t k = 0; k < ends_.size(); ++k) {
    const std::uint64_t start = k == 0 ? 20 : ends_[k - 1];
    // The day, the length, the payload and the CRC of record k.
    for (const std::uint64_t offset :
         {start, start + 8, start + 16, ends_[k] - 1}) {
      SCOPED_TRACE("offset " + std::to_string(offset));
      write_log();
      flip_byte(path_, offset);
      expect_resumes_through(k);
    }
  }
}

TEST_F(CheckpointLog, AppendAfterTornTailReadsBackWhole) {
  std::filesystem::resize_file(path_, ends_[2] + 5);  // record 3 torn
  {
    CheckpointManager m{dir_, "digest-a"};
    ASSERT_EQ(m.resume_day(), 12);
    m.on_day_complete(13, records_[3]);
    EXPECT_TRUE(m.resume_payload().empty()) << "payload kept after a save";
    m.on_day_complete(14, records_[4]);
  }
  EXPECT_EQ(std::filesystem::file_size(path_), ends_.back());
  expect_resumes_through(5);

  // A record that does not follow the last day starts a new log.
  { CheckpointManager{dir_, "digest-a"}.on_day_complete(10, records_[0]); }
  expect_resumes_through(1);
  { CheckpointManager{dir_, "digest-a"}.on_day_complete(12, records_[0]); }
  CheckpointManager m{dir_, "digest-a"};
  EXPECT_EQ(m.resume_day(), 12);
  EXPECT_EQ(m.resume_payload().size(), records_[0].size());
}

// A crafted length in the second record — one that wraps an added-up
// bound, or one byte more than the file holds — ends the log there. For
// the length 2^64-1, whose wrapped bound would place the CRC at the byte
// before the payload, the days and the payload are chosen so that CRC
// matches, as a crafted file would: only the length check stands between
// the record and a read far out of bounds.
TEST_F(CheckpointLog, CraftedLengthResumesFromFirstRecord) {
  const auto crc_from = [](SimDay day) {
    std::vector<std::uint8_t> head;
    put_u64(head, static_cast<std::uint64_t>(std::int64_t{day}));
    head.insert(head.end(), 7, 0xff);  // the length's low seven bytes
    return crc32c(head.data(), head.size());
  };
  SimDay first = 0;
  while ((crc_from(first + 1) & 0xff) != 0xff) ++first;
  const std::uint32_t crc = crc_from(first + 1);
  records_[1] = {static_cast<std::uint8_t>(crc >> 8),
                 static_cast<std::uint8_t>(crc >> 16),
                 static_cast<std::uint8_t>(crc >> 24), 0, 0, 0, 0, 0, 0, 0};
  const auto write_two = [&] {
    std::filesystem::remove(path_);
    CheckpointManager writer{dir_, "digest-a"};
    writer.on_day_complete(first, records_[0]);
    writer.on_day_complete(first + 1, records_[1]);
  };
  write_two();
  const std::uint64_t length_at = ends_[0] + 8;
  const std::uint64_t remaining =
      std::filesystem::file_size(path_) - (length_at + 8);
  for (const std::uint64_t length :
       {~std::uint64_t{0}, ~std::uint64_t{0} - 3, remaining - 3}) {
    SCOPED_TRACE("length " + std::to_string(length));
    write_two();
    patch_u64(length_at, length);
    std::optional<CheckpointManager> m;
    ASSERT_NO_THROW(m.emplace(dir_, "digest-a"));
    EXPECT_EQ(m->resume_day(), first);
    EXPECT_EQ(std::vector<std::uint8_t>(m->resume_payload().begin(),
                                        m->resume_payload().end()),
              records_[0]);
  }
}

TEST_F(CheckpointLog, ForeignOldAndGarbageFilesReadAsFresh) {
  EXPECT_TRUE(CheckpointManager(dir_, "digest-b").resume_payload().empty());

  // The previous format: one whole-state record, CRC'd as a whole.
  std::vector<std::uint8_t> old;
  put_u32(old, 0x54504b43);  // "CKPT"
  put_u32(old, 1);
  put_u32(old, 8);
  for (const char c : std::string{"digest-a"})
    old.push_back(static_cast<std::uint8_t>(c));
  put_u64(old, 41);
  put_u64(old, records_[4].size());
  old.insert(old.end(), records_[4].begin(), records_[4].end());
  put_u32(old, crc32c(old.data(), old.size()));
  write_file_atomic(path_, old.data(), old.size());
  expect_resumes_through(0);

  std::ofstream{path_, std::ios::binary | std::ios::trunc}
      << "not a checkpoint";
  expect_resumes_through(0);
}

TEST_F(StoreCorruption, MissingManifestReportsMissing) {
  const std::string dir = clone("manifestless");
  std::filesystem::remove(dir + "/" + kManifestFile);
  const ReadOutcome outcome = read_dataset(dir, tiny_config());
  EXPECT_EQ(outcome.status, ReadOutcome::Status::kMissing);
  EXPECT_FALSE(outcome.dataset.has_value());
}

TEST_F(StoreCorruption, GarbageManifestReportsMissing) {
  const std::string dir = clone("garbage_manifest");
  {
    std::ofstream out{dir + "/" + kManifestFile,
                      std::ios::binary | std::ios::trunc};
    out << "not a manifest\n";
  }
  const ReadOutcome outcome = read_dataset(dir, tiny_config());
  EXPECT_EQ(outcome.status, ReadOutcome::Status::kMissing);
  EXPECT_FALSE(outcome.dataset.has_value());
}

}  // namespace
}  // namespace cellscope::store
