// FileStream (block-buffered disk replay) coverage: the three consumption
// modes — next(), next_batch(), borrow_run() — must all reproduce the
// written records exactly, reset() must rewind, and replaying a file trace
// through sim::replay (which takes the borrow_run SoA fast path) must
// yield bit-identical statistics to replaying the same records from
// memory.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "models/engine.h"
#include "models/models.h"
#include "sim/bpu_sim.h"
#include "trace/batch.h"
#include "trace/generator.h"
#include "trace/io.h"
#include "trace/profile.h"
#include "trace/stream.h"

namespace stbpu {
namespace {

/// A temp-file path unique to the running test and process: ctest runs
/// every case as its own process, in parallel, so a shared name would let
/// one case's TearDown delete the file another case is reading.
std::string unique_temp_path(const char* suffix) {
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + info->test_suite_name() + "." + info->name() + "." +
         std::to_string(::getpid()) + suffix;
}

class FileStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = unique_temp_path(".trace");
    trace::SyntheticWorkloadGenerator gen(trace::profile_by_name("mcf"));
    // Deliberately NOT a multiple of kDefaultBatch: the tail block is the
    // interesting read.
    records_ = trace::collect(gen, trace::kDefaultBatch * 2 + 777);
    ASSERT_TRUE(trace::write_trace(path_, records_));
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  std::vector<bpu::BranchRecord> records_;
};

bool same_record(const bpu::BranchRecord& a, const bpu::BranchRecord& b) {
  return a.ip == b.ip && a.target == b.target && a.type == b.type && a.taken == b.taken &&
         a.ctx == b.ctx;
}

TEST_F(FileStreamTest, NextMatchesWrittenRecords) {
  trace::FileStream stream(path_);
  EXPECT_EQ(stream.count(), records_.size());
  bpu::BranchRecord r;
  for (const auto& expected : records_) {
    ASSERT_TRUE(stream.next(r));
    ASSERT_TRUE(same_record(r, expected));
  }
  EXPECT_FALSE(stream.next(r));
}

TEST_F(FileStreamTest, NextBatchReadsBlocks) {
  trace::FileStream stream(path_);
  trace::BranchBatch batch;
  std::size_t off = 0;
  // An awkward batch size exercises refills straddling buffer boundaries.
  const std::size_t limit = trace::kDefaultBatch / 3 + 11;
  while (const std::size_t n = stream.next_batch(batch, limit)) {
    ASSERT_LE(off + n, records_.size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(same_record(batch.record(i), records_[off + i]));
    }
    off += n;
  }
  EXPECT_EQ(off, records_.size());
}

TEST_F(FileStreamTest, BorrowRunExposesContiguousRuns) {
  trace::FileStream stream(path_);
  std::size_t off = 0;
  std::size_t n = 0;
  while (const bpu::BranchRecord* run = stream.borrow_run(trace::kDefaultBatch, n)) {
    ASSERT_GT(n, 0u);
    ASSERT_LE(off + n, records_.size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(same_record(run[i], records_[off + i]));
    }
    off += n;
  }
  EXPECT_EQ(off, records_.size());
}

TEST_F(FileStreamTest, ResetRewindsToTheFirstRecord) {
  trace::FileStream stream(path_);
  bpu::BranchRecord r;
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(stream.next(r));
  stream.reset();
  ASSERT_TRUE(stream.next(r));
  EXPECT_TRUE(same_record(r, records_[0]));
}

TEST_F(FileStreamTest, ReplayMatchesInMemoryStream) {
  // The disk path must be a pure transport: identical stats to VectorStream
  // on the same records, through both read modes (mmap and buffered fread).
  const sim::BpuSimOptions opt{.max_branches = records_.size() - 1000,
                               .warmup_branches = 1000};
  for (const auto kind : {models::ModelKind::kUnprotected, models::ModelKind::kStbpu}) {
    const models::ModelSpec spec{.model = kind};

    trace::VectorStream memory(records_);
    auto memory_engine = models::make_engine(spec);
    const auto memory_stats = models::replay_engine(*memory_engine, memory, opt);

    trace::FileStream file(path_, trace::FileStreamMode::kBuffered);
    EXPECT_FALSE(file.mmap_active());
    auto file_engine = models::make_engine(spec);
    const auto file_stats = models::replay_engine(*file_engine, file, opt);

    EXPECT_EQ(memory_stats, file_stats) << models::to_string(kind);
    EXPECT_GT(file_stats.branches, 0u);

#if defined(__unix__) || defined(__APPLE__)
    trace::FileStream mapped(path_, trace::FileStreamMode::kMmap);
    EXPECT_TRUE(mapped.mmap_active());
    auto mapped_engine = models::make_engine(spec);
    const auto mapped_stats = models::replay_engine(*mapped_engine, mapped, opt);
    EXPECT_EQ(memory_stats, mapped_stats) << models::to_string(kind) << " (mmap)";
#endif
  }
}

#if defined(__unix__) || defined(__APPLE__)
TEST_F(FileStreamTest, MmapModeReproducesEveryConsumptionPath) {
  trace::FileStream stream(path_, trace::FileStreamMode::kMmap);
  ASSERT_TRUE(stream.mmap_active());
  EXPECT_EQ(stream.count(), records_.size());

  // next() record for record.
  bpu::BranchRecord r;
  for (const auto& expected : records_) {
    ASSERT_TRUE(stream.next(r));
    ASSERT_TRUE(same_record(r, expected));
  }
  EXPECT_FALSE(stream.next(r));

  // reset() rewinds and re-establishes the mapping.
  stream.reset();
  ASSERT_TRUE(stream.mmap_active());

  // borrow_run() after reset: the SoA fast path out of the mapping.
  std::size_t off = 0, n = 0;
  while (const bpu::BranchRecord* run = stream.borrow_run(trace::kDefaultBatch / 5, n)) {
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(same_record(run[i], records_[off + i]));
    }
    off += n;
  }
  EXPECT_EQ(off, records_.size());

  // Auto mode picks mmap where supported.
  trace::FileStream auto_stream(path_, trace::FileStreamMode::kAuto);
  EXPECT_TRUE(auto_stream.mmap_active());
}

TEST(FileStreamErrors, MmapRejectsHeaderThatOverpromises) {
  // A header claiming more records than the file holds must fail at open
  // in mmap mode (the fread path reports the same file as truncated later).
  const std::string path = unique_temp_path(".trace");
  trace::SyntheticWorkloadGenerator gen(trace::profile_by_name("mcf"));
  ASSERT_TRUE(trace::write_trace(path, trace::collect(gen, 100)));
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const std::uint32_t bogus_count = 1'000'000;
  std::fseek(f, 8, SEEK_SET);  // header[2] = low word of the record count
  std::fwrite(&bogus_count, sizeof(bogus_count), 1, f);
  std::fclose(f);
  EXPECT_THROW(trace::FileStream(path, trace::FileStreamMode::kMmap),
               std::runtime_error);
  std::remove(path.c_str());
}
#endif

TEST(FileStreamErrors, MissingAndMalformedFiles) {
  EXPECT_THROW(trace::FileStream("/nonexistent/trace.bin"), std::runtime_error);

  const std::string bad = unique_temp_path(".trace");
  std::FILE* f = std::fopen(bad.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("garbage", f);
  std::fclose(f);
  EXPECT_THROW(trace::FileStream{bad}, std::runtime_error);
  std::remove(bad.c_str());
}

/// Overwrite one byte of record 1234 of a fresh trace file and check that
/// read_trace and both FileStream readers reject the file with an error
/// containing `message` and naming the record.
void expect_corrupt_byte_rejected(long offset_in_record, unsigned char value,
                                  const std::string& message) {
  const std::string path = unique_temp_path(".trace");
  trace::SyntheticWorkloadGenerator gen(trace::profile_by_name("mcf"));
  ASSERT_TRUE(trace::write_trace(path, trace::collect(gen, 3000)));
  constexpr long kRecord = 1234;
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  // 16-byte header, 24-byte records.
  std::fseek(f, 16 + kRecord * 24 + offset_in_record, SEEK_SET);
  std::fwrite(&value, 1, 1, f);
  std::fclose(f);

  const auto expect_rejected = [&](auto&& read, const char* reader) {
    try {
      read();
      ADD_FAILURE() << reader << " accepted a record without " << message;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(message), std::string::npos) << reader << ": " << what;
      EXPECT_NE(what.find("record 1234"), std::string::npos) << reader << ": " << what;
    }
  };
  expect_rejected([&] { (void)trace::read_trace(path); }, "read_trace");
  const auto drain = [&](trace::FileStreamMode mode) {
    trace::FileStream stream(path, mode);
    bpu::BranchRecord r;
    while (stream.next(r)) {
    }
  };
  expect_rejected([&] { drain(trace::FileStreamMode::kBuffered); }, "buffered");
#if defined(__unix__) || defined(__APPLE__)
  expect_rejected([&] { drain(trace::FileStreamMode::kMmap); }, "mmap");
#endif
  std::remove(path.c_str());
}

TEST(FileStreamErrors, CorruptTypeByteNamesTheRecord) {
  // A type byte (offset 16) outside bpu::BranchType.
  expect_corrupt_byte_rejected(16, 6, "invalid branch type 6");
}

TEST(FileStreamErrors, CorruptHartByteNamesTheRecord) {
  // A hart byte (offset 20) at or above kMaxSmtThreads would index past
  // the predictors' per-hart state.
  expect_corrupt_byte_rejected(20, 2, "invalid hart 2");
  expect_corrupt_byte_rejected(20, 255, "invalid hart 255");
}

}  // namespace
}  // namespace stbpu
