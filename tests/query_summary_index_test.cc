// Property test for the segment summary index: for randomized segment
// populations (gaps, scaling factors, boundary-equal timestamps), every
// query must return bit-identical results whether the index is disabled
// (block size 0, the exhaustive decode path) or enabled at any block size
// — including degenerate sizes 1 and 3 that maximize partially covered
// blocks — and whether the segments are hot, checkpointed into slab
// blocks of that size, reopened from slab + WAL, or reopened from a cold
// index of the previous (v1) format. See DESIGN.md "Segment summary index"
// for why this holds.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/segment_generator.h"
#include "query/engine.h"
#include "query/parser.h"
#include "storage/slab_file.h"
#include "util/buffer.h"
#include "util/random.h"

namespace modelardb {
namespace query {
namespace {

constexpr SamplingInterval kSi = 50;
constexpr Timestamp kStart = 1000000;
const size_t kBlockSizes[] = {0, 1, 3, 256};
constexpr uint64_t kColdIndexTag = ~uint64_t{0};

// Rewrites a v2 cold index in the v1 format, which lacks the block
// aggregates.
std::vector<uint8_t> ColdIndexAsV1(ByteSpan v2) {
  BufferReader reader(v2);
  BufferWriter writer;
  EXPECT_EQ(*reader.ReadVarint(), 2u);
  writer.WriteVarint(1);
  const uint64_t groups = *reader.ReadVarint();
  writer.WriteVarint(groups);
  for (uint64_t g = 0; g < groups; ++g) {
    writer.WriteVarint(*reader.ReadVarint());  // Gid.
    const uint64_t blocks = *reader.ReadVarint();
    writer.WriteVarint(blocks);
    for (uint64_t b = 0; b < blocks; ++b) {
      writer.WriteVarint(*reader.ReadVarint());  // Slab id.
      const uint64_t count = *reader.ReadVarint();
      writer.WriteVarint(count);
      writer.WriteI64(*reader.ReadI64());
      writer.WriteI64(*reader.ReadI64());
      writer.WriteFloat(*reader.ReadFloat());
      writer.WriteFloat(*reader.ReadFloat());
      const uint8_t summaries = *reader.ReadU8();
      writer.WriteU8(summaries);
      if (*reader.ReadU8() != 0) {  // Block aggregates: dropped.
        const uint64_t n = *reader.ReadVarint();
        for (uint64_t pos = 0; pos < n; ++pos) (void)*reader.ReadI64();
        for (uint64_t j = 0; j < 3 * n; ++j) (void)*reader.ReadDouble();
      }
      for (uint64_t i = 0; summaries != 0 && i < count; ++i) {
        const uint64_t n = *reader.ReadVarint();
        writer.WriteVarint(n);
        for (uint64_t j = 0; j < n; ++j) {
          writer.WriteDouble(*reader.ReadDouble());
        }
      }
    }
  }
  EXPECT_EQ(reader.remaining(), 0u);
  return writer.Finish();
}

// Replaces the cold index of the closed store at `directory` with its v1
// form.
void DowngradeColdIndex(const std::string& directory) {
  SlabFileOptions options;
  options.path = directory + "/segments.slab";
  auto slab = SlabFile::Open(options);
  ASSERT_TRUE(slab.ok()) << slab.status();
  uint64_t index_id = 0;
  for (const auto& [id, tag] : (*slab)->ListBlocks()) {
    if (tag == kColdIndexTag) index_id = std::max(index_id, id);
  }
  ASSERT_NE(index_id, 0u);
  auto pin = (*slab)->ReadBlock(index_id);
  ASSERT_TRUE(pin.ok()) << pin.status();
  const std::vector<uint8_t> v1 = ColdIndexAsV1(pin->bytes());
  ASSERT_TRUE((*slab)->FreeBlock(index_id).ok());
  ASSERT_TRUE((*slab)->StageBlock(v1, kColdIndexTag).ok());
  ASSERT_TRUE((*slab)->Commit((*slab)->wal_watermark()).ok());
}

class SummaryIndexPropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = std::make_unique<TimeSeriesCatalog>(
        std::vector<Dimension>{Dimension("Location", {"Park"})});
    auto add = [&](Tid tid, const char* park, double scaling) {
      TimeSeriesMeta meta;
      meta.tid = tid;
      meta.si = kSi;
      meta.scaling = scaling;
      meta.source = "s" + std::to_string(tid);
      meta.members = {{park}};
      ASSERT_TRUE(catalog_->AddSeries(meta).ok());
    };
    // Non-trivial scalings exercise the stored-unit / raw-unit conversion
    // in both the zone maps and the materialized summaries.
    add(1, "Aalborg", 1.0);
    add(2, "Aalborg", 2.0);
    add(3, "Aalborg", 0.5);
    add(4, "Farsoe", 4.0);
    add(5, "Farsoe", 1.0);

    groups_ = {{1, {1, 2, 3}, kSi}, {2, {4, 5}, kSi}};
    for (const auto& g : groups_) {
      for (Tid tid : g.tids) catalog_->GetMutable(tid)->gid = g.gid;
    }
    registry_ = ModelRegistry::Default();

    // Randomized regimes (constant runs, ramps, noise) emit many short
    // segments; random absence stretches create gap-mask segments.
    Random rng(42);
    std::vector<Segment> segments;
    for (const auto& group : groups_) {
      SegmentGeneratorConfig config;
      config.gid = group.gid;
      config.si = kSi;
      config.num_series = static_cast<int>(group.tids.size());
      config.error_bound = ErrorBound::Lossless();
      config.registry = &registry_;
      SegmentGenerator generator(config, group.tids);
      std::vector<bool> absent(group.tids.size(), false);
      for (int i = 0; i < 2000; ++i) {
        if (i % 37 == 0) {
          for (size_t s = 0; s < absent.size(); ++s) {
            absent[s] = rng.NextDouble() < 0.2;
          }
        }
        GroupRow row;
        row.timestamp = kStart + static_cast<Timestamp>(i) * kSi;
        for (size_t s = 0; s < group.tids.size(); ++s) {
          Tid tid = group.tids[s];
          float raw;
          switch ((i / 25) % 3) {
            case 0:
              raw = 10.0f * tid;
              break;
            case 1:
              raw = static_cast<float>(3 * (i % 25) + tid);
              break;
            default:
              raw = static_cast<float>(rng.NextU64() % 500) + 0.25f * tid;
          }
          double scaling = catalog_->Get(tid).scaling;
          row.values.push_back(static_cast<Value>(raw * scaling));
          row.present.push_back(!absent[s]);
        }
        ASSERT_TRUE(generator.Ingest(row, &segments).ok());
      }
      ASSERT_TRUE(generator.Flush(&segments).ok());
    }
    ASSERT_GT(segments.size(), 100u);
    segments_ = segments;

    dir_ = std::filesystem::temp_directory_path() /
           ("mdb_summary_index_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    // Hot stores first: stores_[0] (block size 0) is the reference.
    for (size_t block_size : kBlockSizes) {
      auto store = SegmentStore::Open(Options(block_size, ""));
      ASSERT_TRUE(store.ok());
      ASSERT_TRUE((*store)->PutBatch(segments).ok());
      Add("hot", block_size, std::move(*store));
    }
    // Segments ending before `split` go cold before the rest arrives, so
    // reopened stores scan cold blocks, then the replayed hot run.
    const Timestamp split = kStart + 1000 * kSi;
    std::vector<Segment> early, late;
    for (const Segment& segment : segments) {
      (segment.end_time < split ? early : late).push_back(segment);
    }
    for (size_t block_size : kBlockSizes) {
      const std::string cold_dir = StoreDir("cold", block_size);
      auto cold = SegmentStore::Open(Options(block_size, cold_dir));
      ASSERT_TRUE(cold.ok()) << cold.status();
      ASSERT_TRUE((*cold)->PutBatch(segments).ok());
      ASSERT_TRUE((*cold)->Checkpoint().ok());
      Add("checkpointed", block_size, std::move(*cold));

      const std::string mixed_dir = StoreDir("reopened", block_size);
      {
        auto mixed = SegmentStore::Open(Options(block_size, mixed_dir));
        ASSERT_TRUE(mixed.ok()) << mixed.status();
        ASSERT_TRUE((*mixed)->PutBatch(early).ok());
        ASSERT_TRUE((*mixed)->Checkpoint().ok());
        ASSERT_TRUE((*mixed)->PutBatch(late).ok());
        ASSERT_TRUE((*mixed)->Flush().ok());
      }
      auto reopened = SegmentStore::Open(Options(block_size, mixed_dir));
      ASSERT_TRUE(reopened.ok()) << reopened.status();
      Add("reopened", block_size, std::move(*reopened));
    }
    const std::string v1_dir = StoreDir("v1", 256);
    {
      auto store = SegmentStore::Open(Options(256, v1_dir));
      ASSERT_TRUE(store.ok()) << store.status();
      ASSERT_TRUE((*store)->PutBatch(segments).ok());
      ASSERT_TRUE((*store)->Checkpoint().ok());
    }
    DowngradeColdIndex(v1_dir);
    auto v1 = SegmentStore::Open(Options(256, v1_dir));
    ASSERT_TRUE(v1.ok()) << v1.status();
    Add("v1 reopened", 256, std::move(*v1));
    engine_ =
        std::make_unique<QueryEngine>(catalog_.get(), groups_, &registry_);
  }

  void TearDown() override {
    stores_.clear();
    std::filesystem::remove_all(dir_);
  }

  // In memory when `directory` is empty; slab blocks as large as the
  // index blocks.
  SegmentStoreOptions Options(size_t block_size,
                              const std::string& directory) const {
    SegmentStoreOptions options;
    options.directory = directory;
    options.index_block_size = block_size;
    options.slab_block_segments = block_size == 0 ? 256 : block_size;
    options.registry = &registry_;
    for (const auto& g : groups_) {
      options.group_sizes[g.gid] = static_cast<int>(g.tids.size());
    }
    return options;
  }

  std::string StoreDir(const std::string& kind, size_t block_size) const {
    return (dir_ / (kind + "_" + std::to_string(block_size))).string();
  }

  void Add(const std::string& kind, size_t block_size,
           std::unique_ptr<SegmentStore> store) {
    labels_.push_back(kind + " store at block size " +
                      std::to_string(block_size));
    stores_.push_back(std::move(store));
  }

  SegmentStore* Store(const std::string& kind, size_t block_size) const {
    const std::string label =
        kind + " store at block size " + std::to_string(block_size);
    for (size_t i = 0; i < labels_.size(); ++i) {
      if (labels_[i] == label) return stores_[i].get();
    }
    ADD_FAILURE() << "no " << label;
    return stores_[0].get();
  }

  // Runs `sql` against every store and asserts the results are
  // bit-identical (Cell operator== compares doubles exactly) to the
  // exhaustive hot store's (block size 0).
  void ExpectIdenticalAcrossStores(const std::string& sql) {
    std::vector<QueryResult> results;
    for (const auto& store : stores_) {
      StoreSegmentSource source(store.get());
      auto result = engine_->Execute(sql, source);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status();
      results.push_back(std::move(*result));
    }
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[0].columns, results[i].columns) << sql;
      ASSERT_EQ(results[0].rows.size(), results[i].rows.size())
          << sql << " on the " << labels_[i];
      for (size_t r = 0; r < results[0].rows.size(); ++r) {
        EXPECT_EQ(results[0].rows[r], results[i].rows[r])
            << sql << " row " << r << " on the " << labels_[i];
      }
    }
  }

  ScanStats StatsFor(const std::string& sql, SegmentStore* store) {
    auto ast = ParseQuery(sql);
    EXPECT_TRUE(ast.ok());
    auto compiled = engine_->Compile(*ast);
    EXPECT_TRUE(compiled.ok());
    StoreSegmentSource source(store);
    auto partial = engine_->ExecutePartial(*compiled, source);
    EXPECT_TRUE(partial.ok());
    return partial.ok() ? partial->scan : ScanStats{};
  }

  std::filesystem::path dir_;
  std::unique_ptr<TimeSeriesCatalog> catalog_;
  std::vector<TimeSeriesGroup> groups_;
  ModelRegistry registry_;
  std::vector<Segment> segments_;
  std::vector<std::unique_ptr<SegmentStore>> stores_;
  std::vector<std::string> labels_;  // Parallel to stores_.
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(SummaryIndexPropertyTest, WholeRangeAggregatesIdentical) {
  ExpectIdenticalAcrossStores(
      "SELECT COUNT_S(*), SUM_S(*), MIN_S(*), MAX_S(*), AVG_S(*) "
      "FROM Segment");
  ExpectIdenticalAcrossStores(
      "SELECT Tid, COUNT_S(*), SUM_S(*), MIN_S(*), MAX_S(*), AVG_S(*) "
      "FROM Segment GROUP BY Tid ORDER BY Tid");
  ExpectIdenticalAcrossStores(
      "SELECT Park, SUM_S(*) FROM Segment GROUP BY Park ORDER BY Park");
}

TEST_F(SummaryIndexPropertyTest, TimeRangesIncludingExactBoundaries) {
  // Generic interior ranges plus ranges whose endpoints equal actual
  // segment start/end timestamps (fence comparisons become equalities).
  std::vector<std::pair<Timestamp, Timestamp>> ranges = {
      {kStart + 137 * kSi, kStart + 1500 * kSi},
      {kStart + 1, kStart + 999 * kSi + 1},
  };
  for (size_t i = 0; i < segments_.size(); i += 17) {
    ranges.emplace_back(segments_[i].start_time, segments_[i].end_time);
    if (i + 23 < segments_.size()) {
      ranges.emplace_back(segments_[i].end_time,
                          segments_[i + 23].end_time);
    }
  }
  for (const auto& [lo, hi] : ranges) {
    if (lo > hi) continue;
    std::string where = " WHERE TS >= " + std::to_string(lo) +
                        " AND TS <= " + std::to_string(hi);
    ExpectIdenticalAcrossStores(
        "SELECT COUNT_S(*), SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment" +
        where);
    ExpectIdenticalAcrossStores(
        "SELECT Tid, AVG_S(*) FROM Segment" + where +
        " GROUP BY Tid ORDER BY Tid");
  }
}

TEST_F(SummaryIndexPropertyTest, ValuePredicatesIdentical) {
  for (const char* where :
       {" WHERE Value >= 100", " WHERE Value <= 250",
        " WHERE Value >= 50 AND Value <= 400",
        " WHERE Value >= -1000000",  // Contains every block.
        " WHERE Value >= 1000000"}) {  // Disjoint from every block.
    ExpectIdenticalAcrossStores(
        std::string("SELECT Tid, COUNT_S(*), SUM_S(*), MIN_S(*), MAX_S(*) "
                    "FROM Segment") +
        where + " GROUP BY Tid ORDER BY Tid");
  }
}

TEST_F(SummaryIndexPropertyTest, DataPointViewIdentical) {
  ExpectIdenticalAcrossStores(
      "SELECT COUNT(Value), MIN(Value), MAX(Value) FROM DataPoint");
  ExpectIdenticalAcrossStores(
      "SELECT Tid, COUNT(Value), MIN(Value), MAX(Value) FROM DataPoint "
      "GROUP BY Tid ORDER BY Tid");
  // SUM/AVG fold per point in the exhaustive path, so the index must
  // fall back to decoding and still agree.
  ExpectIdenticalAcrossStores(
      "SELECT Tid, SUM(Value), AVG(Value) FROM DataPoint "
      "GROUP BY Tid ORDER BY Tid");
  ExpectIdenticalAcrossStores(
      "SELECT Tid, COUNT(Value) FROM DataPoint WHERE TS >= " +
      std::to_string(kStart + 100 * kSi) + " AND TS <= " +
      std::to_string(kStart + 1700 * kSi) + " GROUP BY Tid ORDER BY Tid");
}

TEST_F(SummaryIndexPropertyTest, SelectedTidSubsetsIdentical) {
  ExpectIdenticalAcrossStores(
      "SELECT SUM_S(*), COUNT_S(*) FROM Segment WHERE Tid IN (2, 4)");
  ExpectIdenticalAcrossStores(
      "SELECT Tid, MAX_S(*) FROM Segment WHERE Tid IN (1, 3, 5) "
      "GROUP BY Tid ORDER BY Tid");
}

TEST_F(SummaryIndexPropertyTest, WholeRangeAnswersFromSummariesOnly) {
  // A whole-range aggregate must be served entirely from the index, hot or
  // cold: blocks summarized, nothing decoded. COUNT/MIN/MAX read only the
  // block aggregates, so no cold block is even pinned.
  for (const char* kind : {"hot", "checkpointed"}) {
    ScanStats stats =
        StatsFor("SELECT SUM_S(*), COUNT_S(*) FROM Segment", Store(kind, 256));
    EXPECT_GT(stats.blocks_summarized, 0) << kind;
    EXPECT_EQ(stats.blocks_scanned, 0) << kind;
    EXPECT_EQ(stats.segments_scanned, 0) << kind;
    EXPECT_EQ(stats.segments_decoded, 0) << kind;
    ScanStats no_sum = StatsFor(
        "SELECT COUNT_S(*), MIN_S(*), MAX_S(*) FROM Segment", Store(kind, 256));
    EXPECT_GT(no_sum.blocks_summarized, 0) << kind;
    EXPECT_EQ(no_sum.segments_decoded, 0) << kind;
    EXPECT_EQ(no_sum.cold_pins, 0) << kind;
  }

  // The exhaustive store decodes every segment.
  ScanStats exhaustive =
      StatsFor("SELECT SUM_S(*), COUNT_S(*) FROM Segment", Store("hot", 0));
  EXPECT_EQ(exhaustive.blocks_summarized, 0);
  EXPECT_EQ(exhaustive.segments_decoded,
            static_cast<int64_t>(segments_.size()));

  // A v1 cold index has no block aggregates: its blocks deliver segment
  // by segment and still answer from the per-segment summaries.
  ScanStats v1 = StatsFor("SELECT SUM_S(*), COUNT_S(*) FROM Segment",
                          Store("v1 reopened", 256));
  EXPECT_EQ(v1.blocks_summarized, 0);
  EXPECT_EQ(v1.segments_scanned, static_cast<int64_t>(segments_.size()));
  EXPECT_EQ(v1.segments_decoded, 0);
}

TEST_F(SummaryIndexPropertyTest, CountOnlyDataPointSkipsDecoding) {
  for (const char* kind : {"hot", "checkpointed"}) {
    ScanStats stats =
        StatsFor("SELECT COUNT(Value) FROM DataPoint", Store(kind, 256));
    EXPECT_GT(stats.blocks_summarized, 0) << kind;
    EXPECT_EQ(stats.segments_decoded, 0) << kind;
    EXPECT_EQ(stats.cold_pins, 0) << kind;
    // SUM must decode (per-point fold order).
    ScanStats sum_stats =
        StatsFor("SELECT SUM(Value) FROM DataPoint", Store(kind, 256));
    EXPECT_EQ(sum_stats.blocks_summarized, 0) << kind;
    EXPECT_GT(sum_stats.segments_decoded, 0) << kind;
  }
}

TEST_F(SummaryIndexPropertyTest, ExplainAnalyzeReportsPruningCounters) {
  StoreSegmentSource source(Store("checkpointed", 256));
  auto result = engine_->Execute("EXPLAIN ANALYZE SELECT SUM_S(*) FROM Segment",
                                 source);
  ASSERT_TRUE(result.ok()) << result.status();
  std::map<std::string, int64_t> counters;
  for (const auto& row : result->rows) {
    const std::string& line = std::get<std::string>(row[0]);
    size_t colon = line.rfind(": ");
    if (colon == std::string::npos) continue;
    char* end = nullptr;
    long long value = std::strtoll(line.c_str() + colon + 2, &end, 10);
    if (end != nullptr && *end == '\0') {
      counters[line.substr(0, colon)] = value;
    }
  }
  ASSERT_TRUE(counters.count("blocks skipped"));
  ASSERT_TRUE(counters.count("blocks summarized"));
  ASSERT_TRUE(counters.count("blocks scanned"));
  ASSERT_TRUE(counters.count("segments scanned"));
  ASSERT_TRUE(counters.count("segments decoded"));
  EXPECT_GT(counters["blocks summarized"], 0);
  EXPECT_EQ(counters["segments decoded"], 0);
}

TEST_F(SummaryIndexPropertyTest, ExplainSummaryIndexLineMatchesExecution) {
  // EXPLAIN's "summary index:" line must predict whether the executor
  // answers covered blocks from the index: a plan that says it decodes
  // summarizes no block, any other plan summarizes some (whole range).
  for (const char* sql :
       {"SELECT SUM_S(*), AVG_S(*) FROM Segment",
        "SELECT COUNT_S(*), MAX_S(*) FROM Segment",
        "SELECT CUBE_SUM_HOUR(*) FROM Segment",
        "SELECT COUNT(Value), MIN(Value) FROM DataPoint",
        "SELECT SUM(Value) FROM DataPoint",
        "SELECT AVG(Value) FROM DataPoint"}) {
    for (const char* kind : {"hot", "checkpointed"}) {
      auto ast = ParseQuery(sql);
      ASSERT_TRUE(ast.ok()) << sql;
      auto plan = engine_->Explain(*ast);
      ASSERT_TRUE(plan.ok()) << plan.status();
      const std::string prefix = "summary index: ";
      const size_t line = plan->find(prefix);
      ASSERT_NE(line, std::string::npos) << *plan;
      const std::string answer = plan->substr(line + prefix.size(), 6);
      const bool decodes = answer == "decode" || answer == "rollup";
      EXPECT_EQ(decodes, StatsFor(sql, Store(kind, 256)).blocks_summarized == 0)
          << sql << " on the " << kind << " store: " << *plan;
    }
  }
}

TEST_F(SummaryIndexPropertyTest, PlainExplainEstimatesWithoutExecuting) {
  // Plain EXPLAIN must not run the scan: no pruning counters, only the
  // fence-based surviving-segment upper bound (whole range == everything).
  StoreSegmentSource source(Store("hot", 256));
  auto result =
      engine_->Execute("EXPLAIN SELECT SUM_S(*) FROM Segment", source);
  ASSERT_TRUE(result.ok()) << result.status();
  bool saw_estimate = false;
  for (const auto& row : result->rows) {
    const std::string& line = std::get<std::string>(row[0]);
    EXPECT_EQ(line.find("segments decoded"), std::string::npos) << line;
    EXPECT_EQ(line.find("blocks summarized"), std::string::npos) << line;
    if (line == "estimated surviving segments: " +
                    std::to_string(segments_.size())) {
      saw_estimate = true;
    }
  }
  EXPECT_TRUE(saw_estimate);
}

TEST_F(SummaryIndexPropertyTest, TimeBoundedScanStopsEarly) {
  // A range at the head of the data: the suffix-min fence must prune the
  // tail blocks instead of scanning them, in the hot run and among cold
  // blocks alike. Block size 3 gives every group many blocks, so the tail
  // is long.
  for (const char* kind : {"hot", "checkpointed"}) {
    ScanStats stats = StatsFor("SELECT COUNT_S(*) FROM Segment WHERE TS <= " +
                                   std::to_string(kStart + 50 * kSi),
                               Store(kind, 3));
    EXPECT_GT(stats.blocks_skipped, 0) << kind;
    EXPECT_LT(stats.blocks_scanned + stats.blocks_summarized,
              stats.blocks_skipped)
        << kind;
  }
}

}  // namespace
}  // namespace query
}  // namespace modelardb
