// Failure injection: corrupt and truncated store files must surface as
// Corruption/OutOfRange statuses, never as crashes or silent bad data.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/models/gorilla.h"
#include "core/models/pmc_mean.h"
#include "core/models/swing.h"
#include "storage/segment_store.h"
#include "storage/slab_file.h"
#include "util/buffer.h"

namespace modelardb {
namespace {

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mdb_corrupt_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string LogPath() const { return (dir_ / "segments.log").string(); }

  // Writes `segments` segments per flush, `flushes` times: one WAL block
  // per flush.
  void WriteValidStore(int segments, int flushes = 1) {
    SegmentStoreOptions options;
    options.directory = dir_.string();
    auto store = *SegmentStore::Open(options);
    for (int f = 0; f < flushes; ++f) {
      for (int i = 0; i < segments; ++i) {
        Segment s;
        s.gid = 1;
        s.start_time = (f * segments + i) * 1000;
        s.end_time = (f * segments + i) * 1000 + 900;
        s.si = 100;
        s.mid = kMidPmcMean;
        s.parameters = {0, 0, 0x20, 0x41};
        ASSERT_TRUE(store->Put(s).ok());
      }
      ASSERT_TRUE(store->Flush().ok());
    }
  }

  Result<std::unique_ptr<SegmentStore>> ReopenStore() {
    SegmentStoreOptions options;
    options.directory = dir_.string();
    return SegmentStore::Open(options);
  }

  Status Reopen() { return ReopenStore().status(); }

  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

TEST_F(CorruptionTest, GarbledInteriorMagicIsCorruption) {
  // Damage in block 1 of 2 — a valid block follows, so this is interior
  // corruption (rot), not a torn tail: Open must refuse.
  WriteValidStore(3, /*flushes=*/2);
  {
    std::fstream f(LogPath(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(0);
    f.write("XXXX", 4);
  }
  Status s = Reopen();
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s;
}

TEST_F(CorruptionTest, GarbledLoneBlockMagicSalvagesEmpty) {
  // The same damage with nothing valid after it reads as crash debris:
  // Open succeeds, serves nothing, quarantines the bytes.
  WriteValidStore(3, /*flushes=*/1);
  auto size = std::filesystem::file_size(LogPath());
  {
    std::fstream f(LogPath(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(0);
    f.write("XXXX", 4);
  }
  auto store = ReopenStore();
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->NumSegments(), 0);
  EXPECT_TRUE((*store)->recovery_info().torn_tail);
  EXPECT_EQ((*store)->recovery_info().quarantined_bytes,
            static_cast<int64_t>(size));
  EXPECT_TRUE(std::filesystem::exists((*store)->CorruptSidecarPath()));
}

TEST_F(CorruptionTest, TruncatedTailBlockIsSalvaged) {
  // A crash mid-append leaves a truncated last block: recovery serves the
  // whole blocks and truncates the torn tail instead of failing Open.
  WriteValidStore(3, /*flushes=*/2);
  auto size = std::filesystem::file_size(LogPath());
  std::filesystem::resize_file(LogPath(), size - 7);
  auto store = ReopenStore();
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->NumSegments(), 3);  // Block 1 intact, block 2 torn.
  EXPECT_TRUE((*store)->recovery_info().torn_tail);
  // The log was repaired: a second open is clean.
  auto again = ReopenStore();
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ((*again)->NumSegments(), 3);
  EXPECT_FALSE((*again)->recovery_info().torn_tail);
}

TEST_F(CorruptionTest, FlippedInteriorLengthFieldIsDetected) {
  // A huge length field in block 1 of 2 claims a payload past EOF while a
  // valid block follows: interior corruption.
  WriteValidStore(3, /*flushes=*/2);
  {
    std::fstream f(LogPath(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(4);  // The block length field after the magic.
    uint32_t huge = 0x7fffffff;
    f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  Status s = Reopen();
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s;
}

// A cold index holding one group (Gid 1) with one block that names slab
// block 1: `count` segments, optional block aggregates over `positions`
// group positions and per-segment summaries of `summary_len` doubles.
std::vector<uint8_t> ColdIndexV2(uint64_t count, bool summaries,
                                 uint64_t summary_len, bool aggregates,
                                 uint64_t positions,
                                 uint64_t block_count = 1) {
  BufferWriter writer;
  writer.WriteVarint(2);            // Version.
  writer.WriteVarint(1);            // Groups.
  writer.WriteVarint(1);            // Gid.
  writer.WriteVarint(block_count);  // Blocks (only one follows).
  writer.WriteVarint(1);            // Slab id.
  writer.WriteVarint(count);
  writer.WriteI64(0);
  writer.WriteI64(900);
  writer.WriteFloat(10.0f);
  writer.WriteFloat(10.0f);
  writer.WriteU8(summaries ? 1 : 0);
  writer.WriteU8(aggregates ? 1 : 0);
  if (aggregates) {
    writer.WriteVarint(positions);
    if (positions == 1) {
      writer.WriteI64(10);
      for (double v : {100.0, 10.0, 10.0}) writer.WriteDouble(v);
    }
  }
  if (summaries) {
    writer.WriteVarint(summary_len);
    for (uint64_t j = 0; j < std::min<uint64_t>(summary_len, 3); ++j) {
      writer.WriteDouble(10.0);
    }
  }
  return writer.Finish();
}

TEST_F(CorruptionTest, CraftedColdIndexCountsAreRejectedBeforeAllocating) {
  // Group 1 has one series, so a well-formed block carries one aggregate
  // position and three doubles per segment summary.
  auto open_with_index = [this](const std::vector<uint8_t>& index) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    {
      SlabFileOptions slab_options;
      slab_options.path = (dir_ / "segments.slab").string();
      auto slab = SlabFile::Open(slab_options);
      EXPECT_TRUE(slab.ok()) << slab.status();
      const uint8_t data_block[] = {0};
      EXPECT_TRUE((*slab)->StageBlock(data_block, 1).ok());
      EXPECT_TRUE((*slab)->StageBlock(index, ~uint64_t{0}).ok());
      EXPECT_TRUE((*slab)->Commit(0).ok());
    }
    SegmentStoreOptions options;
    options.directory = dir_.string();
    options.group_sizes = {{1, 1}};
    return SegmentStore::Open(options);
  };
  // The well-formed payload opens: the cases below fail for their counts.
  auto store = open_with_index(ColdIndexV2(1, true, 3, true, 1));
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->NumSegments(), 1);
  store->reset();

  const std::vector<uint8_t> crafted[] = {
      // Block count no index block could hold.
      ColdIndexV2(1, true, 3, true, 1, /*block_count=*/uint64_t{1} << 60),
      // Segment count past 32 bits, and one the summaries cannot fit.
      ColdIndexV2(uint64_t{1} << 40, false, 0, false, 0),
      ColdIndexV2(uint64_t{1} << 30, true, 3, true, 1),
      // Summary lengths: beyond the bytes left, past 64 series, and not a
      // whole number of (sum, min, max) triples.
      ColdIndexV2(1, true, 3 * 64, true, 1),
      ColdIndexV2(1, true, uint64_t{3} << 50, true, 1),
      ColdIndexV2(1, true, 2, true, 1),
      // Aggregate arrays whose length is not the group size.
      ColdIndexV2(1, true, 3, true, uint64_t{1} << 50),
      ColdIndexV2(1, true, 3, true, 2),
      ColdIndexV2(1, true, 3, true, 0),
      // Aggregates without the segment summaries SUM folds from.
      ColdIndexV2(1, false, 0, true, 1),
  };
  for (size_t i = 0; i < std::size(crafted); ++i) {
    auto result = open_with_index(crafted[i]);
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption)
        << "case " << i << ": " << result.status();
  }
}

TEST_F(CorruptionTest, EmptyFileIsFine) {
  std::ofstream(LogPath()).close();
  EXPECT_TRUE(Reopen().ok());
}

TEST(DecoderCorruptionTest, TruncatedParametersAreErrors) {
  // Every bundled decoder must reject parameter blobs that are too short.
  std::vector<uint8_t> empty;
  EXPECT_FALSE(PmcMeanModel::Decode(empty, 1, 10).ok());
  EXPECT_FALSE(SwingModel::Decode(empty, 1, 10).ok());
  std::vector<uint8_t> short_swing(8, 0);
  EXPECT_FALSE(SwingModel::Decode(short_swing, 1, 10).ok());
  // Gorilla tracks overruns through BitReader::overran(): a stream too
  // short for the requested count is Corruption, not silently zero-filled
  // (distinguishing truncation from legitimate trailing zero bits).
  auto r = GorillaModel::Decode(empty, 1, 1);
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << r.status();
}

TEST(DecoderCorruptionTest, GorillaTruncationVsTrailingZeros) {
  GorillaEncoder encoder;
  for (float v : {1.0f, 1.0f, 2.5f, 2.5f, -7.75f}) encoder.Append(v);
  std::vector<uint8_t> bytes = encoder.Finish();
  // The full stream decodes; the writer's zero padding to a whole byte is
  // legitimate and must NOT read as truncation.
  EXPECT_TRUE(GorillaDecodeStream(bytes, 5).ok());
  // Asking for more values than the stream holds reads past the padding.
  EXPECT_EQ(GorillaDecodeStream(bytes, 50).status().code(),
            StatusCode::kCorruption);
  // Dropping bytes off the end truncates mid-value.
  std::vector<uint8_t> truncated(bytes.begin(), bytes.end() - 2);
  EXPECT_EQ(GorillaDecodeStream(truncated, 5).status().code(),
            StatusCode::kCorruption);
  // Both tiers agree (the scalar reference and the kernel two-pass path).
  EXPECT_EQ(GorillaDecodeStreamScalar(truncated, 5).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(GorillaDecodeStreamWithKernels(truncated, 5,
                                           simd::ScalarKernels())
                .status()
                .code(),
            StatusCode::kCorruption);
}

TEST(DecoderCorruptionTest, GorillaCountBeyondTheStreamIsRejected) {
  // 8 zero bytes hold at most 1 + (64 - 32) = 33 values (the first takes
  // 32 bits, each repeat one '0' bit); a count from corrupt metadata past
  // that is Corruption in both tiers before anything is sized from it.
  const std::vector<uint8_t> zeros(8, 0);
  for (size_t count : {size_t{34}, size_t{1} << 40, ~size_t{0}}) {
    EXPECT_EQ(GorillaDecodeStreamScalar(zeros, count).status().code(),
              StatusCode::kCorruption)
        << count;
    EXPECT_EQ(GorillaDecodeStreamWithKernels(zeros, count,
                                             simd::ScalarKernels())
                  .status()
                  .code(),
              StatusCode::kCorruption)
        << count;
  }
  auto all = GorillaDecodeStreamScalar(zeros, 33);
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(all->size(), 33u);
  EXPECT_TRUE(
      GorillaDecodeStreamWithKernels(zeros, 33, simd::ScalarKernels()).ok());
  // A lone value fits any stream the count check lets through; a stream
  // shorter than 32 bits is still caught as truncated.
  EXPECT_EQ(GorillaDecodeStreamScalar(std::vector<uint8_t>(2, 0), 1)
                .status()
                .code(),
            StatusCode::kCorruption);
}

TEST(DecoderCorruptionTest, RegistryRejectsUnknownMid) {
  ModelRegistry registry = ModelRegistry::Default();
  EXPECT_EQ(registry.CreateDecoder(424242, {}, 1, 1).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace modelardb
