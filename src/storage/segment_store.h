// SegmentStore: the persistent segment group store (paper §3.3).
//
// Substitutes Apache Cassandra in the paper's architecture. It keeps the
// paper's Cassandra schema semantics: segments are keyed by
// (Gid, EndTime, Gaps) — Gaps disambiguates segments produced by dynamic
// splitting — clustered by EndTime for range scans, and StartTime is not
// stored (recomputed from EndTime and Size). Predicate push-down is
// supported on Gid sets and time ranges, which is all ModelarDB's query
// rewriting needs (§6.2).
//
// Persistence is a log-structured append file: segments are buffered and
// written in bulk (Table 1: Bulk Write Size 50,000) as checksummed v2 WAL
// blocks (storage/wal.h) through the Env I/O boundary, group-committed per
// the configured sync policy; Open() replays the log, salvaging a torn
// tail (crash debris is quarantined to a .corrupt sidecar and the log is
// truncated to the last whole block) while genuine interior corruption
// still fails with Status::Corruption. The full index is also kept in
// memory — the paper co-locates storage and query processing for locality
// (Fig 4).
//
// On top of the per-group segment vectors the store maintains a two-level
// *segment summary index* (the "model-exploiting index" the paper defers
// to future work, §9 item i): segments are bucketed into fixed-size blocks
// in EndTime clustering order, and every block carries time fences, a
// value zone map and gap-aware pre-folded aggregates, while every segment
// carries its materialized full-range per-column aggregates (computed with
// SegmentDecoder::AggregateRange at Put/replay time). Scans skip blocks by
// fence, stop early on the suffix-min StartTime fence, and aggregate
// queries answer fully covered blocks from the summaries without creating
// a single decoder. See DESIGN.md "Segment summary index".

#ifndef MODELARDB_STORAGE_SEGMENT_STORE_H_
#define MODELARDB_STORAGE_SEGMENT_STORE_H_

#include <atomic>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/segment.h"
#include "storage/slab_file.h"
#include "storage/wal.h"
#include "util/env.h"
#include "util/status.h"
#include "util/sync.h"

namespace modelardb {

struct SegmentStoreOptions {
  // Empty: purely in-memory (tests, ephemeral workers).
  std::string directory;
  // File I/O boundary; null uses Env::Default() (POSIX). Tests and the
  // crash harness substitute a FaultInjectionEnv here.
  Env* env = nullptr;
  // When the WAL fsyncs (DESIGN.md §3g). kEveryBlock makes every OK
  // Flush() durable — the acknowledged-flush watermark crash recovery is
  // verified against; kEveryNBlocks is group commit for ingest-heavy
  // deployments that can afford to lose the last few blocks.
  WalSyncPolicy wal_sync_policy = WalSyncPolicy::kEveryBlock;
  size_t wal_sync_every_n_blocks = 8;
  // Segments buffered before a bulk write to disk.
  size_t bulk_write_size = 50000;
  // Segments per summary-index block; 0 keeps each group's hot run in one
  // block without summaries, so every aggregate decodes (the exhaustive
  // path tests compare the index against).
  size_t index_block_size = 256;
  // Decoder registry used to materialize per-segment aggregates at Put /
  // replay time. Null keeps the index fence-only: blocks still skip and
  // stop scans early, but aggregate queries decode every segment.
  const ModelRegistry* registry = nullptr;
  // Series count per group. Materialized aggregates are gap-aware, which
  // requires the group size to map gap_mask bits to decoder columns;
  // groups without an entry (or wider than 64 series) stay fence-only.
  std::map<Gid, int> group_sizes;
  // Checkpoint flushed segments into the mmap-backed slab file
  // (segments.slab, storage/slab_file.h) every N bulk flushes. 0 disables
  // automatic checkpoints (Checkpoint() still works); an existing slab is
  // always loaded by Open regardless. Checkpointed segments are served to
  // scans zero-copy from the mapping, and Open replays only the WAL suffix
  // past the slab's watermark.
  size_t slab_checkpoint_every_n_flushes = 0;
  // Segments per slab block (the cold unit of fence pruning and I/O).
  size_t slab_block_segments = 1024;
  // Crash-test hook: called (under the store lock) at every checkpoint
  // phase boundary, right after the matching flight-recorder event is
  // emitted. tools/crash_writer --bundle aborts from here to prove the
  // fatal-signal diagnostics bundle captures an in-flight checkpoint.
  std::function<void(const char* phase)> checkpoint_phase_hook;
};

// Push-down predicate for segment scans.
struct SegmentFilter {
  std::vector<Gid> gids;  // Empty: all groups.
  Timestamp min_time = std::numeric_limits<Timestamp>::min();
  Timestamp max_time = std::numeric_limits<Timestamp>::max();

  bool Matches(const Segment& segment) const {
    return segment.end_time >= min_time && segment.start_time <= max_time;
  }
};

// Per-scan resource accounting. The index-usage counters are filled by
// the store; the decode/CPU/queue fields are filled by the query engine
// as it drives the scan. Threaded through query PartialResults into
// `EXPLAIN ANALYZE` output and the slow-query log (DESIGN.md §3i).
struct ScanStats {
  int64_t blocks_skipped = 0;     // Pruned by time fences, never delivered.
  int64_t blocks_summarized = 0;  // Consumed whole from summaries.
  int64_t blocks_scanned = 0;     // Delivered segment by segment.
  int64_t segments_scanned = 0;   // Segments delivered to callbacks.
  int64_t segments_decoded = 0;   // Decoders created (query-engine side).
  int64_t bytes_decoded = 0;      // Segment parameter bytes decoded
                                  // (query-engine side).
  int64_t cold_pins = 0;          // Slab block pins taken (zero-copy scans
                                  // and materializing merges).
  int64_t hot_pins = 0;           // Segments served from snapshot-pinned
                                  // in-memory group data.
  int64_t cpu_ns = 0;             // Thread-CPU time across the query's
                                  // morsels (query-engine side).
  int64_t queue_wait_ns = 0;      // Submit-to-start pool wait across the
                                  // query's morsels (query-engine side).

  void Merge(const ScanStats& other) {
    blocks_skipped += other.blocks_skipped;
    blocks_summarized += other.blocks_summarized;
    blocks_scanned += other.blocks_scanned;
    segments_scanned += other.segments_scanned;
    segments_decoded += other.segments_decoded;
    bytes_decoded += other.bytes_decoded;
    cold_pins += other.cold_pins;
    hot_pins += other.hot_pins;
    cpu_ns += other.cpu_ns;
    queue_wait_ns += other.queue_wait_ns;
  }
};

// Materialized aggregates of one segment over its full row range, one
// entry per decoder column (represented series, in group order), in
// stored units. The values are exactly what SegmentDecoder::AggregateRange
// over the whole segment returns, so folding them is bit-identical to
// decoding; the per-column count is Segment::Length(). Empty == absent
// (no registry, unknown model, or group too wide).
struct SegmentSummary {
  std::vector<double> agg;  // [3 * col + {0: sum, 1: min, 2: max}]

  bool valid() const { return !agg.empty(); }
  double sum(int col) const { return agg[3 * col]; }
  double min(int col) const { return agg[3 * col + 1]; }
  double max(int col) const { return agg[3 * col + 2]; }
};

// Fences and pre-folded aggregates over one block of a group's segments
// ([begin, end) in EndTime clustering order).
struct SegmentBlock {
  uint32_t begin = 0;
  uint32_t end = 0;
  Timestamp min_start_time = std::numeric_limits<Timestamp>::max();
  Timestamp max_end_time = std::numeric_limits<Timestamp>::min();
  // Smallest start_time of this block and every later block of the group.
  // Monotonically non-decreasing across blocks, so a scan can stop as soon
  // as it exceeds the query's max_time (start_time alone is not monotone
  // in EndTime order when segment lengths vary).
  Timestamp suffix_min_start_time = std::numeric_limits<Timestamp>::max();
  // Zone map over the segments' value statistics (stored units, over every
  // represented series — the same statistics RelateStats prunes with).
  float min_value = std::numeric_limits<float>::max();
  float max_value = std::numeric_limits<float>::lowest();
  // True when every segment in the block has a valid SegmentSummary and
  // the per-position arrays below are populated.
  bool has_summaries = false;
  // Gap-aware pre-folded aggregates per group position (only segments that
  // represent the position contribute). counts are exact point counts;
  // mins/maxs are order-free exact folds; sums are folded in segment order
  // (used for estimates — exact SUM answers fold the per-segment
  // summaries instead to preserve the reduction tree bit-for-bit).
  std::vector<int64_t> counts;
  std::vector<double> sums;
  std::vector<double> mins;
  std::vector<double> maxs;

  uint32_t size() const { return end - begin; }
};

// A fully time-covered block handed to IndexedScanCallbacks.
struct BlockView {
  Gid gid = 0;
  const SegmentBlock* block = nullptr;
  const SegmentSummary* summaries = nullptr;  // block->size(); null if absent.
  // Calls `fn` for each of the block's segments, in order. Cold segments
  // are deserialized borrowed from their pinned slab block, valid only
  // during the call; consumers of the pre-folded arrays never pin.
  std::function<Status(const std::function<void(const Segment&)>& fn)>
      for_each_segment;
};

// What the consumer decided to do with a fully covered block.
enum class BlockAction {
  kSummarized,  // Consumed from the summaries; do not deliver segments.
  kSkipped,     // Proven irrelevant (e.g. value zone map disjoint).
  kFallback,    // Deliver the block's segments one by one.
};

struct IndexedScanCallbacks {
  // Called for blocks whose segments all lie inside the time filter and
  // that carry summaries. Null: every block falls back to on_segment.
  std::function<Result<BlockAction>(const BlockView&)> on_covered_block;
  // Called per matching segment of fallback/partial blocks. `summary` is
  // non-null iff materialized.
  std::function<Status(const Segment&, const SegmentSummary*)> on_segment;
};

// What Open()'s log replay found and did. Written once before Open
// returns, immutable afterwards — readable without the store lock.
struct RecoveryInfo {
  int64_t blocks_replayed = 0;
  int64_t segments_replayed = 0;
  bool torn_tail = false;          // Crash debris was salvaged around.
  int64_t quarantined_bytes = 0;   // Tail bytes moved to the sidecar.
  std::string torn_reason;
};

// Thread-safety: Put/Flush/Scan may be called concurrently. Scans are
// snapshot-based: the lock is held only while grabbing copy-on-write
// references to the matching per-group data (segments + summary index);
// iterate/aggregate callbacks then run lock-free on that immutable
// snapshot, so concurrent PutBatch from ingestion never blocks a running
// query (the online analytics scenario of Fig 13). Writers copy a group's
// data before mutating it iff a live snapshot may still reference it.
class SegmentStore {
 public:
  // Opens (and replays) the store at options.directory, or an in-memory
  // store when the directory is empty.
  static Result<std::unique_ptr<SegmentStore>> Open(
      const SegmentStoreOptions& options);

  ~SegmentStore();

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  // Buffers a segment; persisted on the next bulk write or Flush().
  Status Put(const Segment& segment);
  Status PutBatch(const std::vector<Segment>& segments);

  // Forces buffered segments to disk. Durable on OK iff the sync policy is
  // kEveryBlock; otherwise durability arrives with the group commit (or an
  // explicit SyncWal()).
  Status Flush();

  // Forces the WAL durability barrier for everything flushed so far
  // (completes a pending group commit under kEveryNBlocks / kNone).
  Status SyncWal();

  // Moves every in-memory (hot) segment into the slab file with one atomic
  // root flip and advances the WAL watermark, so the next Open replays only
  // the WAL suffix written after this call. Flushes the write buffer first.
  // No-op for in-memory stores. Scans keep working throughout: cold blocks
  // are served zero-copy from the mapping, hot segments from memory, and
  // results are byte-identical to the heap path.
  Status Checkpoint();

  // Stats of the slab file backing cold segments (zeros when none exists).
  SlabStats slab_stats() const;

  // The slab file cold segments checkpoint into ("" for in-memory stores).
  std::string SlabPath() const {
    return log_path_.empty() ? std::string()
                             : options_.directory + "/segments.slab";
  }

  // What replay salvaged/decided when this store was opened.
  const RecoveryInfo& recovery_info() const { return recovery_info_; }

  // The quarantine sidecar torn tails are appended to.
  std::string CorruptSidecarPath() const {
    return log_path_.empty() ? std::string() : log_path_ + ".corrupt";
  }

  // Scans segments matching `filter`, grouped by Gid and ordered by
  // EndTime within each group. `fn` returning non-OK aborts the scan.
  Status Scan(const SegmentFilter& filter,
              const std::function<Status(const Segment&)>& fn) const;

  // Index-aware scan: skips blocks by fence, stops a group early once the
  // suffix-min StartTime fence passes filter.max_time, offers fully
  // covered blocks to `callbacks.on_covered_block`, and delivers the rest
  // (in the same per-group EndTime order as Scan) to `on_segment`.
  // `stats` may be null.
  Status ScanIndexed(const SegmentFilter& filter,
                     const IndexedScanCallbacks& callbacks,
                     ScanStats* stats) const;

  // Upper-bound estimate (from the block fences) of how many of `gid`'s
  // segments survive `filter`. Used to weight morsel scheduling.
  int64_t EstimateSurvivingSegments(Gid gid,
                                    const SegmentFilter& filter) const;

  // Segments of one group overlapping [min_time, max_time].
  Result<std::vector<Segment>> GetSegments(Gid gid, Timestamp min_time,
                                           Timestamp max_time) const;

  int64_t NumSegments() const {
    return num_segments_.load(std::memory_order_relaxed);
  }

  // Exact bytes written to disk (0 for in-memory stores). This is the
  // paper's `du` measurement.
  int64_t DiskBytes() const {
    return disk_bytes_.load(std::memory_order_relaxed);
  }

  std::vector<Gid> Gids() const;

 private:
  // One checkpointed block of a group's segments, resident in the slab
  // file: a SegmentBlock over its own segments ([0, size())) whose fences
  // and aggregates persist in the cold index, so cold blocks prune and
  // answer aggregate scans without touching their (possibly evicted)
  // pages. Immutable once built; shared between COW copies of the group.
  struct ColdBlock : SegmentBlock {
    uint64_t slab_id = 0;
    // Per segment when the group materializes summaries; empty otherwise.
    std::vector<SegmentSummary> summaries;
    // Keeps the slab block readable (and its extent unreused) for as long
    // as any GroupData — or scan snapshot of one — references it, even
    // after a later checkpoint frees the id.
    SlabFile::BlockLease lease;
  };

  // Live Snapshots on one GroupData; a copy of the data starts unshared.
  struct SnapshotCount {
    std::atomic<int64_t> live{0};
    SnapshotCount() = default;
    SnapshotCount(const SnapshotCount&) {}
  };

  // One group's segments plus its summary index. Immutable while a
  // Snapshot references it; a write under the store lock then replaces it
  // with a copy (copy-on-write).
  struct GroupData {
    explicit GroupData(Gid group) : gid(group) {}
    Gid gid = 0;
    // Checkpointed blocks in (end_time, gap_mask) order, all clustering
    // strictly before `segments` except after out-of-order puts (the scan
    // falls back to a materializing merge until the next checkpoint).
    std::vector<std::shared_ptr<const ColdBlock>> cold;
    std::vector<Segment> segments;  // Hot tail, (end_time, gap_mask) order.
    // Parallel to `segments` when materialization is on; empty otherwise.
    std::vector<SegmentSummary> summaries;
    std::vector<SegmentBlock> blocks;  // Over `segments`.
    mutable SnapshotCount snapshots;
  };

  // A scan's lock-free reference to one group's data (DESIGN.md §3e).
  // Taken under the store mutex; writers copy the group instead of
  // mutating it while any handle on it is alive. The release decrement
  // pairs with the writer's acquire load, so every read through a handle
  // happens before a later in-place write.
  class Snapshot {
   public:
    explicit Snapshot(std::shared_ptr<const GroupData> data)
        : data_(std::move(data)) {
      data_->snapshots.live.fetch_add(1, std::memory_order_relaxed);
    }
    Snapshot(Snapshot&& other) noexcept : data_(std::move(other.data_)) {}
    ~Snapshot() {
      if (data_) data_->snapshots.live.fetch_sub(1, std::memory_order_release);
    }
    const GroupData& operator*() const { return *data_; }

   private:
    std::shared_ptr<const GroupData> data_;
  };

  explicit SegmentStore(SegmentStoreOptions options);

  Status ReplayLog();
  // `file` holds log bytes from `base_offset` on: appends
  // file[valid_bytes..] to the .corrupt sidecar, truncates the log to
  // base_offset + valid_bytes and records the salvage in recovery_info_.
  Status QuarantineTornTail(const std::vector<uint8_t>& file,
                            size_t valid_bytes, const std::string& reason,
                            uint64_t base_offset) REQUIRES(mutex_);
  Status WriteBlock(const std::vector<Segment>& segments) REQUIRES(mutex_);
  Status PutLocked(const Segment& segment) REQUIRES(mutex_);
  Status FlushLocked() REQUIRES(mutex_);
  Status CheckpointLocked() REQUIRES(mutex_);
  // Stages one group's hot segments into cold slab blocks, mutating `data`
  // (a private working copy) and the slab's staged state only.
  Status CheckpointGroupLocked(Gid gid, GroupData* data) REQUIRES(mutex_);
  // Folds cold blocks [first, end) back into the hot run, merging them
  // with it in clustering order.
  Status RewriteGroupLocked(GroupData* data, size_t first) REQUIRES(mutex_);
  // Reads the slab's cold-index block into the per-group cold lists.
  Status LoadColdIndex() REQUIRES(mutex_);
  std::vector<uint8_t> SerializeColdIndex() const REQUIRES(mutex_);
  // Appends one cold block's segments (owned copies) and summaries (empty
  // where absent): the copying path of merges and checkpoint rewrites.
  Status MaterializeColdBlock(SlabFile* slab, const ColdBlock& cold,
                              std::vector<Segment>* segments,
                              std::vector<SegmentSummary>* summaries) const;
  // Materializing two-cursor merge of cold and hot for groups whose hot
  // tail overlaps the cold frontier (out-of-order puts since the last
  // checkpoint).
  Status ScanGroupMerged(SlabFile* slab, const GroupData& group,
                         const SegmentFilter& filter,
                         const IndexedScanCallbacks& callbacks,
                         ScanStats* stats) const;
  // Takes the snapshots of `gids` (in that order), or of every group in
  // ascending Gid order when empty. `slab` (may be null) receives the
  // store's slab under the same lock.
  std::vector<Snapshot> SnapshotsFor(const std::vector<Gid>& gids,
                                     std::shared_ptr<SlabFile>* slab) const;

  int GroupSizeOf(Gid gid) const;
  bool MaterializeFor(Gid gid) const;
  // Full-range per-column aggregates of `segment`; empty on any failure.
  SegmentSummary BuildSummary(const Segment& segment, int group_size) const;
  // An empty block starting at segment `begin`, with aggregate arrays iff
  // `gid` materializes summaries.
  SegmentBlock OpenBlock(Gid gid, uint32_t begin) const;
  // Folds segments[index] (appended last) into the block structure.
  void AppendToIndex(GroupData* data, size_t index) const;
  // Rebuilds all blocks of `data` (replay, out-of-order inserts).
  void RebuildBlocks(GroupData* data) const;
  static void FoldIntoBlock(SegmentBlock* block, const Segment& segment,
                            const SegmentSummary* summary, int group_size);

  SegmentStoreOptions options_;
  Env* env_ = nullptr;  // options_.env or Env::Default(); never null.
  std::string log_path_;
  RecoveryInfo recovery_info_;  // Immutable after Open().
  mutable Mutex mutex_;
  // Lazily opened on the first flush; poisoned (and flushes fail) after
  // any append/sync error so a torn tail is never written over.
  std::unique_ptr<WalWriter> wal_ GUARDED_BY(mutex_);
  // Cold segment storage; opened by Open when segments.slab exists, or by
  // the first Checkpoint. shared_ptr so scans can use it lock-free (the
  // SlabFile is internally synchronized and pins keep reads valid).
  std::shared_ptr<SlabFile> slab_ GUARDED_BY(mutex_);
  // Logical WAL length: slab watermark at open + suffix replayed + bytes
  // appended since. What Checkpoint stamps into the slab root.
  uint64_t wal_bytes_total_ GUARDED_BY(mutex_) = 0;
  size_t flushes_since_checkpoint_ GUARDED_BY(mutex_) = 0;
  bool checkpointing_ GUARDED_BY(mutex_) = false;  // Recursion guard.
  // Slab id of the current cold-index block (0: none written yet).
  uint64_t cold_index_block_id_ GUARDED_BY(mutex_) = 0;
  // Index: per group, segments ordered by end_time (the clustering key).
  std::map<Gid, std::shared_ptr<GroupData>> index_ GUARDED_BY(mutex_);
  std::vector<Segment> write_buffer_ GUARDED_BY(mutex_);
  // Lock-free by design: cheap monotonic counters read by NumSegments() /
  // DiskBytes() without taking the store mutex; relaxed ordering is sound
  // because the values are standalone statistics, never used to order
  // access to other state.
  std::atomic<int64_t> num_segments_{0};
  std::atomic<int64_t> disk_bytes_{0};
};

}  // namespace modelardb

#endif  // MODELARDB_STORAGE_SEGMENT_STORE_H_
