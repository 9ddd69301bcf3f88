// The section table (sim/dataset_codec.h) against the column registry and
// both of its drivers.
//
//   * Every section encoder, driven over a smoke Dataset that fills all ten
//     sections, sets each column of feed_schema(feed) exactly once per row,
//     in column order, through the call its Encoding takes — the contract
//     FeedFileWriter leaves unchecked and the blob reader relies on — and
//     tags day-keyed rows with their day column.
//   * A checkpoint record holding every day's rows round-trips that
//     Dataset bit for bit.
//   * Indices restored from disk are bounds-checked on both sides: a
//     crafted record is refused with BlobError by the checkpoint restore
//     and quarantined (kDegraded, never a throw) by read_dataset.
//   * A checkpoint of an older run-state version starts a fresh run.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "sim/checkpoint.h"
#include "sim/dataset_codec.h"
#include "sim/simulator.h"
#include "store/checkpoint.h"
#include "store/dataset_io.h"
#include "store/feeds.h"
#include "store/format.h"
#include "store/shard.h"
#include "support/dataset_compare.h"

namespace cellscope::sim {
namespace {

using store::Encoding;
using store::FeedSchema;

// Small, faulted (quality feed names), binned (by-bin series): every
// section holds rows, the London matrix included.
ScenarioConfig codec_config() {
  ScenarioConfig config = default_scenario();
  config.num_users = 800;
  config.seed = 1313;
  config.user_chunk = 128;
  config.worker_threads = 2;
  config.collect_binned_mobility = true;
  config.faults.observation_loss_rate = 0.02;
  config.faults.kpi_record_loss_rate = 0.02;
  config.faults.signaling_outages_per_week = 1.0;
  return config;
}

const Dataset& smoke() {
  static const Dataset* ds = new Dataset(run_scenario(codec_config()));
  return *ds;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "dataset_codec_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// A Dataset holding only what build_substrate gives every decoder.
Dataset substrate_of(const ScenarioConfig& config) {
  Dataset ds;
  ds.config = config;
  build_substrate(config, ds);
  return ds;
}

// The FeedFileWriter call shape, checking each call against the registry.
class RecordingWriter {
 public:
  explicit RecordingWriter(const FeedSchema& schema) : schema_(schema) {}

  void u64(std::size_t col, std::uint64_t) { set(col, Encoding::kVarint); }
  void i64(std::size_t col, std::int64_t v) {
    set(col, Encoding::kDeltaZigzagVarint);
    if (col == schema_.day_column()) day_ = v;
  }
  void f64(std::size_t col, double) { set(col, Encoding::kRaw64); }
  void bytes(std::size_t col, std::string_view) { set(col, Encoding::kBytes); }
  void end_row(std::int64_t day) {
    if (next_col_ != schema_.size())
      problems_.insert("row ends after " + std::to_string(next_col_) +
                       " of " + std::to_string(schema_.size()) + " columns");
    if (day != day_)
      problems_.insert("end_row day disagrees with the day column");
    next_col_ = 0;
    day_ = 0;
    ++rows_;
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] const std::set<std::string>& problems() const {
    return problems_;
  }

 private:
  const FeedSchema& schema_;
  std::size_t next_col_ = 0;  // columns arrive once each, in order
  std::int64_t day_ = 0;      // 0 for feeds without a day column
  std::size_t rows_ = 0;
  std::set<std::string> problems_;

  void set(std::size_t col, Encoding call) {
    if (col != next_col_) {
      problems_.insert("column " + std::to_string(col) + " set where " +
                       std::to_string(next_col_) + " was due");
    } else if (schema_.columns()[col].encoding != call) {
      problems_.insert("column '" + schema_.columns()[col].name +
                       "' set through the wrong call for its encoding");
    }
    next_col_ = col + 1;
  }
};

TEST(DatasetCodec, EveryEncoderSetsEachRegisteredColumnOnceInOrder) {
  ASSERT_NE(smoke().london_matrix, nullptr);
  ASSERT_FALSE(smoke().quality.empty());
  for (const Section section : kDecodeOrder) {
    const std::string feed{section_name(section)};
    SCOPED_TRACE(feed);
    RecordingWriter writer{store::feed_schema(feed)};
    encode_section(section, smoke(), writer);
    EXPECT_GT(writer.rows(), 0u) << "the smoke Dataset leaves it empty";
    EXPECT_TRUE(writer.problems().empty())
        << *writer.problems().begin();
  }
}

TEST(DatasetCodec, BlobRoundTripIsBitIdentical) {
  BlobWriter w;
  BlobRowWriter rows{w};
  for (const Section section : kDecodeOrder) {
    encode_section(section, smoke(), rows);
    w.u8(0);  // end of section
  }
  const std::vector<std::uint8_t> blob = w.take();

  Dataset restored = substrate_of(codec_config());
  DatasetDecoder decoder{restored};
  BlobReader r{blob};
  decode_sections(decoder, r);
  EXPECT_TRUE(r.done());
  testsupport::expect_datasets_identical(smoke(), restored);
}

// ------------------------------------------------- crafted records
//
// The real encoders drive the rows; Tamper rewrites one integer value on
// the way through, giving a well-formed (CRC-valid, on disk) record that
// no simulation would emit.
using Edit = std::function<void(const std::vector<std::int64_t>& row,
                                std::size_t col, std::int64_t& value)>;

template <class W>
class Tamper {
 public:
  Tamper(W& inner, Edit edit) : inner_(inner), edit_(std::move(edit)) {}

  void u64(std::size_t col, std::uint64_t v) {
    auto value = static_cast<std::int64_t>(v);
    note(col, value);
    inner_.u64(col, static_cast<std::uint64_t>(value));
  }
  void i64(std::size_t col, std::int64_t v) {
    note(col, v);
    inner_.i64(col, v);
  }
  void f64(std::size_t col, double v) { inner_.f64(col, v); }
  void bytes(std::size_t col, std::string_view v) { inner_.bytes(col, v); }
  void end_row(std::int64_t day) {
    row_.clear();
    inner_.end_row(day);
  }

 private:
  W& inner_;
  Edit edit_;
  std::vector<std::int64_t> row_;  // integer values of the row so far

  void note(std::size_t col, std::int64_t& value) {
    edit_(row_, col, value);
    row_.resize(col + 1);
    row_[col] = value;
  }
};

struct Craft {
  std::string name;
  Section section;
  Edit edit;
};

// Rewrites the uvalue of one scalar id.
Edit scalar(ScalarId id, std::int64_t value) {
  return [id, value](const std::vector<std::int64_t>& row, std::size_t col,
                     std::int64_t& v) {
    if (col == 2 && static_cast<std::uint64_t>(row[0]) == id) v = value;
  };
}

std::vector<Craft> crafts() {
  const ScenarioConfig config = codec_config();
  const auto counties =
      static_cast<std::int64_t>(smoke().geography->counties().size());
  const auto users =
      static_cast<std::int64_t>(smoke().population->subscribers.size());
  const std::int64_t first = smoke().london_matrix->first_day();
  return {
      {"presence county out of range", Section::kMatrix,
       [counties](const std::vector<std::int64_t>& row, std::size_t col,
                  std::int64_t& v) {
         if (col == 1 && row[0] == kPresenceRow) v += counties;
       }},
      {"matrix home county out of range", Section::kScalars,
       scalar(kLondonHomeCounty, counties)},
      // Unchecked, this shape makes the matrix constructor throw.
      {"matrix last day before its first", Section::kScalars,
       scalar(kMatrixLastDay, first - 2)},
      {"matrix last day beyond the window", Section::kScalars,
       scalar(kMatrixLastDay, config.last_day() + 1)},
      {"home user beyond the population", Section::kHomes,
       [users](const std::vector<std::int64_t>&, std::size_t col,
               std::int64_t& v) {
         if (col == 0) v += users;
       }},
  };
}

TEST(DatasetCodec, CheckpointRestoreRefusesCraftedIndices) {
  for (const Craft& craft : crafts()) {
    SCOPED_TRACE(craft.name);
    BlobWriter w;
    BlobRowWriter rows{w};
    for (const Section section : kDecodeOrder) {
      if (section == craft.section) {
        Tamper<BlobRowWriter> tampered{rows, craft.edit};
        encode_section(section, smoke(), tampered);
      } else {
        encode_section(section, smoke(), rows);
      }
      w.u8(0);  // end of section
    }
    const std::vector<std::uint8_t> blob = w.take();
    Dataset restored = substrate_of(codec_config());
    DatasetDecoder decoder{restored};
    BlobReader r{blob};
    EXPECT_THROW(decode_sections(decoder, r), BlobError);
  }
}

TEST(DatasetCodec, StoreReplayQuarantinesCraftedIndices) {
  const ScenarioConfig config = codec_config();
  const std::string pristine = fresh_dir("pristine");
  store::write_dataset(smoke(), pristine);
  ASSERT_EQ(store::read_dataset(pristine, config).status,
            store::ReadOutcome::Status::kOk);

  for (const Craft& craft : crafts()) {
    SCOPED_TRACE(craft.name);
    const std::string dir = fresh_dir("crafted");
    std::filesystem::remove_all(dir);
    std::filesystem::copy(pristine, dir);
    // Republish the one feed with the crafted record: CRC-valid, so only
    // the decoder's checks stand between it and the Dataset.
    const std::string feed{section_name(craft.section)};
    {
      store::FeedFileWriter writer{dir + "/" + store::feed_file_name(feed),
                                   store::feed_schema(feed).encodings()};
      Tamper<store::FeedFileWriter> tampered{writer, craft.edit};
      encode_section(craft.section, smoke(), tampered);
      writer.close();
    }
    store::ReadOutcome outcome;
    ASSERT_NO_THROW(outcome = store::read_dataset(dir, config));
    EXPECT_EQ(outcome.status, store::ReadOutcome::Status::kDegraded);
    EXPECT_GE(outcome.shards_quarantined, 1u);
    ASSERT_TRUE(outcome.dataset.has_value());
    const auto* charged = outcome.dataset->quality.find("store");
    ASSERT_NE(charged, nullptr);
    EXPECT_GE(charged->quarantined_records, 1u);
  }
}

// A checkpoint left by a build with another run-state layout (same
// scenario digest, valid CRC) is no resumable state: the run starts fresh
// and finishes exactly like a run that never saw it.
TEST(DatasetCodec, OlderRunStateVersionStartsFresh) {
  ScenarioConfig config = codec_config();
  config.num_users = 300;
  const std::string dir = fresh_dir("old_version");
  {
    BlobWriter w;
    w.u64(1);  // run-state version 1
    w.u64(config.num_users);
    store::CheckpointManager{dir, config_digest(config)}.on_day_complete(
        config.first_day() + 20, w.take());
  }
  ASSERT_FALSE(
      store::CheckpointManager(dir, config_digest(config)).resume_payload()
          .empty());

  const Dataset run = store::simulate_to_store(config, dir);
  EXPECT_FALSE(run.recovery.resumed);
  const Dataset sinkless = run_scenario(config);
  testsupport::expect_run_fields_identical(sinkless, run);
  const store::ReadOutcome stored = store::read_dataset(dir, config);
  ASSERT_EQ(stored.status, store::ReadOutcome::Status::kOk) << stored.error;
  testsupport::expect_datasets_identical(sinkless, *stored.dataset);
}

}  // namespace
}  // namespace cellscope::sim
