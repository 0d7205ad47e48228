#include "storage/segment_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "obs/event_ring.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "obs/watchdog.h"
#include "util/buffer.h"
#include "util/logging.h"

namespace modelardb {
namespace {

// Cached references into the global registry (stable for process life).
obs::Counter& StorePutTotal() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter(obs::kStorePutTotal);
  return counter;
}
obs::Counter& StoreFlushTotal() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter(obs::kStoreFlushTotal);
  return counter;
}
obs::Counter& StoreCowCopies() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter(obs::kStoreCowCopiesTotal);
  return counter;
}
obs::Counter& StoreBlockRebuilds() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter(obs::kStoreBlockRebuildsTotal);
  return counter;
}
obs::Counter& RecoveryBlocksReplayed() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      obs::kRecoveryBlocksReplayedTotal);
  return counter;
}
obs::Counter& RecoverySegmentsReplayed() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      obs::kRecoverySegmentsReplayedTotal);
  return counter;
}
obs::Counter& RecoveryTornTails() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      obs::kRecoveryTornTailsTruncatedTotal);
  return counter;
}
obs::Counter& RecoveryQuarantinedBytes() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      obs::kRecoveryQuarantinedBytesTotal);
  return counter;
}
obs::Counter& SlabCopiedScanBytes() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      obs::kSlabCopiedScanBytesTotal);
  return counter;
}
obs::Histogram& SlabCheckpointSeconds() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram(obs::kSlabCheckpointSeconds);
  return histogram;
}

// Feeds one scan's pruning counters into the cumulative store metrics.
void RecordScanStats(const ScanStats& stats) {
  if (!obs::Enabled()) return;
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter& skipped =
      registry.GetCounter(obs::kStoreScanBlocksSkippedTotal);
  static obs::Counter& summarized =
      registry.GetCounter(obs::kStoreScanBlocksSummarizedTotal);
  static obs::Counter& scanned =
      registry.GetCounter(obs::kStoreScanBlocksScannedTotal);
  static obs::Counter& segments =
      registry.GetCounter(obs::kStoreScanSegmentsTotal);
  if (stats.blocks_skipped != 0) skipped.Add(stats.blocks_skipped);
  if (stats.blocks_summarized != 0) summarized.Add(stats.blocks_summarized);
  if (stats.blocks_scanned != 0) scanned.Add(stats.blocks_scanned);
  if (stats.segments_scanned != 0) segments.Add(stats.segments_scanned);
}

}  // namespace
}  // namespace modelardb

namespace modelardb {
namespace {

bool SegmentLess(const Segment& a, const Segment& b) {
  return std::tie(a.end_time, a.gap_mask) < std::tie(b.end_time, b.gap_mask);
}

// Slab tag of the cold-index block (real blocks are tagged with their Gid,
// which is never negative, let alone all-ones).
constexpr uint64_t kColdIndexTag = ~uint64_t{0};
// Cold index v2 adds the block aggregates to v1; v1 still loads.
constexpr uint64_t kColdIndexVersion = 2;

// Hot blocks are held by value, cold blocks through shared pointers.
const SegmentBlock& Fences(const SegmentBlock& block) { return block; }
template <typename Block>
const SegmentBlock& Fences(const std::shared_ptr<const Block>& block) {
  return *block;
}
SegmentBlock& MutableFences(SegmentBlock& block) { return block; }
template <typename Block>
SegmentBlock& MutableFences(std::shared_ptr<const Block>& block) {
  // Cold blocks may be shared with an older COW snapshot: clone, never
  // mutate in place.
  auto copy = std::make_shared<Block>(*block);
  SegmentBlock& fences = *copy;
  block = std::move(copy);
  return fences;
}

// Recomputes the suffix-min StartTime fences from the last block backwards
// and stops at the first fence that is already right: every earlier fence
// was computed from it. A new block's fence starts at the maximum, so it is
// never taken for right.
template <typename Block>
void UpdateSuffixFences(std::vector<Block>* blocks) {
  Timestamp suffix = std::numeric_limits<Timestamp>::max();
  for (size_t i = blocks->size(); i-- > 0;) {
    suffix = std::min(suffix, Fences((*blocks)[i]).min_start_time);
    if (Fences((*blocks)[i]).suffix_min_start_time == suffix) break;
    MutableFences((*blocks)[i]).suffix_min_start_time = suffix;
  }
}

// The fence walk over a group's blocks, cold first, then the hot run: skips
// blocks whose fences miss `filter` (counted in `skipped`), stops each run at
// its suffix fence, and calls fn(block, cold) for every other block, `cold`
// being null for hot blocks.
template <typename Group, typename Fn>
Status WalkBlocks(const Group& group, const SegmentFilter& filter,
                  int64_t* skipped, Fn&& fn) {
  // Each run has its own suffix fences: cold blocks are shared and
  // immutable, so their fences cannot see the hot run.
  auto walk = [&](const auto& run, auto cold_at) -> Status {
    // Blocks cluster on end_time: binary search to the first candidate.
    size_t b = static_cast<size_t>(
        std::lower_bound(run.begin(), run.end(), filter.min_time,
                         [](const auto& block, Timestamp t) {
                           return Fences(block).max_end_time < t;
                         }) -
        run.begin());
    *skipped += static_cast<int64_t>(b);
    for (; b < run.size(); ++b) {
      const SegmentBlock& block = Fences(run[b]);
      if (block.suffix_min_start_time > filter.max_time) {
        // No segment here or later in the run starts early enough.
        *skipped += static_cast<int64_t>(run.size() - b);
        break;
      }
      if (block.min_start_time > filter.max_time) {
        ++*skipped;
        continue;
      }
      MODELARDB_RETURN_NOT_OK(fn(block, cold_at(b)));
    }
    return Status::OK();
  };
  MODELARDB_RETURN_NOT_OK(
      walk(group.cold, [&group](size_t b) { return group.cold[b].get(); }));
  return walk(group.blocks, [](size_t) { return nullptr; });
}

// Calls fn(segment, i) for the `i`-th segment of `block`, in order: from
// `hot` (the run the block indexes) or, when `cold` is set, borrowed from its
// pinned slab block (one pin counted in `stats`), so a segment is valid only
// during its call.
template <typename Cold, typename Fn>
Status ForEachSegment(SlabFile* slab, const Segment* hot,
                      const SegmentBlock& block, const Cold* cold,
                      ScanStats* stats, Fn&& fn) {
  if (cold == nullptr) {
    for (uint32_t i = 0; i < block.size(); ++i) {
      MODELARDB_RETURN_NOT_OK(fn(hot[block.begin + i], i));
    }
    return Status::OK();
  }
  // Zero-copy: parameters are borrowed views into the pinned mapping;
  // callbacks that keep a Segment copy deep-copy them (ParamBytes copy
  // semantics).
  MODELARDB_ASSIGN_OR_RETURN(SlabFile::Pin pin, slab->ReadBlock(cold->slab_id));
  ++stats->cold_pins;
  BufferReader reader(pin.bytes());
  MODELARDB_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
  if (count != block.size()) {
    return Status::Corruption("cold block " + std::to_string(cold->slab_id) +
                              " disagrees with the cold index");
  }
  for (uint32_t i = 0; i < block.size(); ++i) {
    MODELARDB_ASSIGN_OR_RETURN(Segment segment,
                               Segment::DeserializeBorrowed(&reader));
    MODELARDB_RETURN_NOT_OK(fn(segment, i));
  }
  return Status::OK();
}

}  // namespace

SegmentStore::SegmentStore(SegmentStoreOptions options)
    : options_(std::move(options)) {
  env_ = options_.env != nullptr ? options_.env : Env::Default();
  if (!options_.directory.empty()) {
    log_path_ = options_.directory + "/segments.log";
  }
}

SegmentStore::~SegmentStore() {
  // Best effort: persist whatever is still buffered, then sync + close.
  MutexLock lock(mutex_);
  if (!write_buffer_.empty()) (void)FlushLocked();
  if (wal_ != nullptr) (void)wal_->Close();
}

Result<std::unique_ptr<SegmentStore>> SegmentStore::Open(
    const SegmentStoreOptions& options) {
  std::unique_ptr<SegmentStore> store(new SegmentStore(options));
  if (!options.directory.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.directory, ec);
    if (ec) {
      return Status::IOError("cannot create directory " + options.directory +
                             ": " + ec.message());
    }
    MODELARDB_RETURN_NOT_OK(store->ReplayLog());
  }
  return store;
}

Status SegmentStore::ReplayLog() {
  // Replay runs before Open() returns, so no other thread can see the
  // store yet; the (uncontended) lock is taken anyway to satisfy the
  // GUARDED_BY(index_) contract rather than punching an analysis hole.
  MutexLock lock(mutex_);
  // Cold half first: recover the slab's newest durable root, load the
  // cold index, and take its WAL watermark — everything the slab covers
  // never gets re-read, which is what makes cold opens cheap.
  uint64_t watermark = 0;
  if (env_->FileExists(SlabPath())) {
    SlabFileOptions slab_options;
    slab_options.env = env_;
    slab_options.path = SlabPath();
    MODELARDB_ASSIGN_OR_RETURN(std::unique_ptr<SlabFile> slab,
                               SlabFile::Open(slab_options));
    slab_ = std::move(slab);
    MODELARDB_RETURN_NOT_OK(LoadColdIndex());
    watermark = slab_->wal_watermark();
  }
  wal_bytes_total_ = watermark;
  if (!env_->FileExists(log_path_)) return Status::OK();  // Fresh store.
  MODELARDB_ASSIGN_OR_RETURN(int64_t log_size, env_->FileSize(log_path_));
  if (static_cast<uint64_t>(log_size) < watermark) {
    // The log lost an unsynced tail the slab already covers. Zero-extend
    // to the watermark so future appends land past it and the next replay
    // still starts exactly there (the zeros are never read back).
    MODELARDB_RETURN_NOT_OK(
        env_->TruncateFile(log_path_, static_cast<int64_t>(watermark)));
  }
  // Only the suffix the slab does not cover is read and replayed.
  MODELARDB_ASSIGN_OR_RETURN(std::vector<uint8_t> file,
                             env_->ReadFileRange(log_path_, watermark));
  // Parse the block sequence. Interior corruption fails the open here; a
  // torn tail (crash debris) is reported and salvaged around below.
  MODELARDB_ASSIGN_OR_RETURN(WalReadResult wal,
                             ReadWalBlocks(file.data(), file.size(),
                                           log_path_));
  for (const WalBlockRef& ref : wal.blocks) {
    BufferReader block(file.data() + ref.payload_offset, ref.payload_size);
    MODELARDB_ASSIGN_OR_RETURN(uint64_t count, block.ReadVarint());
    for (uint64_t i = 0; i < count; ++i) {
      // A v2 block passed its CRC, so a payload that does not parse is a
      // writer-side format bug, not disk damage — surface it loudly.
      MODELARDB_ASSIGN_OR_RETURN(Segment segment,
                                 Segment::Deserialize(&block));
      std::shared_ptr<GroupData>& data = index_[segment.gid];
      if (!data) data = std::make_shared<GroupData>(segment.gid);
      data->segments.push_back(std::move(segment));
      num_segments_.fetch_add(1, std::memory_order_relaxed);
      ++recovery_info_.segments_replayed;
    }
    ++recovery_info_.blocks_replayed;
  }
  RecoveryBlocksReplayed().Add(recovery_info_.blocks_replayed);
  RecoverySegmentsReplayed().Add(recovery_info_.segments_replayed);
  obs::EventRing::Global().Record(obs::EventKind::kRecovery,
                                  recovery_info_.blocks_replayed,
                                  recovery_info_.segments_replayed, "replay");
  if (wal.torn_tail) {
    MODELARDB_RETURN_NOT_OK(
        QuarantineTornTail(file, wal.valid_bytes, wal.torn_reason,
                           watermark));
  }
  disk_bytes_ = static_cast<int64_t>(watermark + wal.valid_bytes);
  wal_bytes_total_ = watermark + wal.valid_bytes;
  for (auto& [gid, data] : index_) {
    std::sort(data->segments.begin(), data->segments.end(), SegmentLess);
    if (MaterializeFor(gid)) {
      int group_size = GroupSizeOf(gid);
      data->summaries.reserve(data->segments.size());
      for (const Segment& segment : data->segments) {
        data->summaries.push_back(BuildSummary(segment, group_size));
      }
    }
    RebuildBlocks(data.get());
  }
  return Status::OK();
}

Status SegmentStore::QuarantineTornTail(const std::vector<uint8_t>& file,
                                        size_t valid_bytes,
                                        const std::string& reason,
                                        uint64_t base_offset) {
  const size_t tail_bytes = file.size() - valid_bytes;
  // Preserve the debris for postmortems before destroying it: append the
  // tail to the .corrupt sidecar, then truncate the log to the last whole
  // block so the next append starts on a clean boundary. `file` starts at
  // base_offset (the slab watermark when replay skipped a covered prefix).
  MODELARDB_ASSIGN_OR_RETURN(std::unique_ptr<WritableLog> sidecar,
                             env_->NewWritableLog(CorruptSidecarPath()));
  MODELARDB_RETURN_NOT_OK(
      sidecar->Append(file.data() + valid_bytes, tail_bytes));
  MODELARDB_RETURN_NOT_OK(sidecar->Sync());
  MODELARDB_RETURN_NOT_OK(sidecar->Close());
  MODELARDB_RETURN_NOT_OK(env_->TruncateFile(
      log_path_, static_cast<int64_t>(base_offset + valid_bytes)));
  recovery_info_.torn_tail = true;
  recovery_info_.quarantined_bytes = static_cast<int64_t>(tail_bytes);
  recovery_info_.torn_reason = reason;
  RecoveryTornTails().Add();
  RecoveryQuarantinedBytes().Add(static_cast<int64_t>(tail_bytes));
  obs::EventRing::Global().Record(obs::EventKind::kQuarantine,
                                  static_cast<int64_t>(tail_bytes), 0,
                                  "torn_tail");
  MODELARDB_LOG(kWarn) << "salvaged torn WAL tail in " << log_path_ << ": "
                       << reason << "; quarantined " << tail_bytes
                       << " bytes to " << CorruptSidecarPath();
  return Status::OK();
}

int SegmentStore::GroupSizeOf(Gid gid) const {
  auto it = options_.group_sizes.find(gid);
  return it == options_.group_sizes.end() ? 0 : it->second;
}

bool SegmentStore::MaterializeFor(Gid gid) const {
  if (options_.index_block_size == 0 || options_.registry == nullptr) {
    return false;
  }
  int group_size = GroupSizeOf(gid);
  return group_size > 0 && group_size <= 64;
}

SegmentSummary SegmentStore::BuildSummary(const Segment& segment,
                                          int group_size) const {
  SegmentSummary out;
  if (options_.registry == nullptr || group_size <= 0 || group_size > 64) {
    return out;
  }
  int64_t length = segment.Length();
  int represented = segment.RepresentedSeries(group_size);
  if (length <= 0 || represented == 0) return out;
  auto decoder = options_.registry->CreateDecoder(
      segment.mid, segment.parameters, represented,
      static_cast<int>(length));
  if (!decoder.ok()) return out;
  out.agg.resize(3 * static_cast<size_t>(represented));
  for (int col = 0; col < represented; ++col) {
    AggregateSummary summary =
        (*decoder)->AggregateRange(0, static_cast<int>(length) - 1, col);
    out.agg[3 * col] = summary.sum;
    out.agg[3 * col + 1] = summary.min;
    out.agg[3 * col + 2] = summary.max;
  }
  return out;
}

void SegmentStore::FoldIntoBlock(SegmentBlock* block, const Segment& segment,
                                 const SegmentSummary* summary,
                                 int group_size) {
  block->min_start_time = std::min(block->min_start_time, segment.start_time);
  block->max_end_time = std::max(block->max_end_time, segment.end_time);
  block->min_value = std::min(block->min_value, segment.min_value);
  block->max_value = std::max(block->max_value, segment.max_value);
  if (!block->has_summaries) return;
  if (summary == nullptr || !summary->valid()) {
    // One unmaterialized segment poisons the whole block's aggregates;
    // the fences above stay valid.
    block->has_summaries = false;
    block->counts.clear();
    for (auto* lane : {&block->sums, &block->mins, &block->maxs}) lane->clear();
    return;
  }
  int64_t length = segment.Length();
  int col = 0;
  for (int pos = 0; pos < group_size; ++pos) {
    if (segment.SeriesInGap(pos)) continue;
    if (block->counts[pos] == 0) {
      block->mins[pos] = summary->min(col);
      block->maxs[pos] = summary->max(col);
    } else {
      block->mins[pos] = std::min(block->mins[pos], summary->min(col));
      block->maxs[pos] = std::max(block->maxs[pos], summary->max(col));
    }
    block->counts[pos] += length;
    block->sums[pos] += summary->sum(col);
    ++col;
  }
}

SegmentBlock SegmentStore::OpenBlock(Gid gid, uint32_t begin) const {
  SegmentBlock block;
  block.begin = begin;
  block.end = begin;
  if (MaterializeFor(gid)) {
    const size_t group_size = static_cast<size_t>(GroupSizeOf(gid));
    block.has_summaries = true;
    block.counts.assign(group_size, 0);
    for (std::vector<double>* lane : {&block.sums, &block.mins, &block.maxs}) {
      lane->assign(group_size, 0.0);
    }
  }
  return block;
}

void SegmentStore::AppendToIndex(GroupData* data, size_t index) const {
  if (data->blocks.empty() || (options_.index_block_size > 0 &&
                               data->blocks.back().size() >=
                                   options_.index_block_size)) {
    data->blocks.push_back(
        OpenBlock(data->gid, static_cast<uint32_t>(index)));
  }
  SegmentBlock& block = data->blocks.back();
  block.end = static_cast<uint32_t>(index + 1);
  FoldIntoBlock(&block, data->segments[index],
                data->summaries.empty() ? nullptr : &data->summaries[index],
                GroupSizeOf(data->gid));
  UpdateSuffixFences(&data->blocks);
}

void SegmentStore::RebuildBlocks(GroupData* data) const {
  data->blocks.clear();
  StoreBlockRebuilds().Add();
  obs::EventRing::Global().Record(obs::EventKind::kBlockRebuild,
                                  static_cast<int64_t>(data->gid),
                                  static_cast<int64_t>(data->segments.size()),
                                  "cow_rebuild");
  for (size_t i = 0; i < data->segments.size(); ++i) AppendToIndex(data, i);
}

Status SegmentStore::Put(const Segment& segment) {
  MutexLock lock(mutex_);
  return PutLocked(segment);
}

Status SegmentStore::PutLocked(const Segment& segment) {
  std::shared_ptr<GroupData>& slot = index_[segment.gid];
  if (!slot) {
    slot = std::make_shared<GroupData>(segment.gid);
  } else if (slot->snapshots.live.load(std::memory_order_acquire) != 0) {
    // A running scan still iterates this group's data: leave it intact and
    // mutate a private copy (copy-on-write).
    slot = std::make_shared<GroupData>(*slot);
    StoreCowCopies().Add();
  }
  StorePutTotal().Add();
  GroupData& data = *slot;
  const bool materialize = MaterializeFor(segment.gid);
  // Common case: appends arrive in end_time order per group.
  if (!data.segments.empty() && SegmentLess(segment, data.segments.back())) {
    auto it = std::upper_bound(data.segments.begin(), data.segments.end(),
                               segment, SegmentLess);
    size_t pos = static_cast<size_t>(it - data.segments.begin());
    data.segments.insert(it, segment);
    if (materialize) {
      data.summaries.insert(
          data.summaries.begin() + static_cast<ptrdiff_t>(pos),
          BuildSummary(segment, GroupSizeOf(segment.gid)));
    }
    // Out-of-order insert shifts every later segment: rebuild the group's
    // blocks (rare; ingestion appends in end_time order).
    RebuildBlocks(&data);
  } else {
    data.segments.push_back(segment);
    if (materialize) {
      data.summaries.push_back(BuildSummary(segment, GroupSizeOf(segment.gid)));
    }
    AppendToIndex(&data, data.segments.size() - 1);
  }
  num_segments_.fetch_add(1, std::memory_order_relaxed);
  if (!log_path_.empty()) {
    write_buffer_.push_back(segment);
    if (write_buffer_.size() >= options_.bulk_write_size) {
      MODELARDB_RETURN_NOT_OK(FlushLocked());
    }
  }
  return Status::OK();
}

Status SegmentStore::PutBatch(const std::vector<Segment>& segments) {
  MutexLock lock(mutex_);
  for (const Segment& segment : segments) {
    MODELARDB_RETURN_NOT_OK(PutLocked(segment));
  }
  return Status::OK();
}

Status SegmentStore::WriteBlock(const std::vector<Segment>& segments) {
  if (wal_ == nullptr) {
    WalWriterOptions wal_options;
    wal_options.sync_policy = options_.wal_sync_policy;
    wal_options.sync_every_n_blocks = options_.wal_sync_every_n_blocks;
    MODELARDB_ASSIGN_OR_RETURN(wal_,
                               WalWriter::Open(env_, log_path_, wal_options));
  }
  BufferWriter payload;
  payload.WriteVarint(segments.size());
  for (const Segment& segment : segments) segment.SerializeTo(&payload);
  const int64_t before = wal_->bytes_appended();
  MODELARDB_RETURN_NOT_OK(
      wal_->AppendBlock(payload.bytes().data(), payload.size()));
  const int64_t delta = wal_->bytes_appended() - before;
  disk_bytes_.fetch_add(delta, std::memory_order_relaxed);
  wal_bytes_total_ += static_cast<uint64_t>(delta);
  return Status::OK();
}

Status SegmentStore::Flush() {
  MutexLock lock(mutex_);
  return FlushLocked();
}

Status SegmentStore::SyncWal() {
  MutexLock lock(mutex_);
  MODELARDB_RETURN_NOT_OK(FlushLocked());
  if (wal_ == nullptr) return Status::OK();
  return wal_->Sync();
}

Status SegmentStore::FlushLocked() {
  if (log_path_.empty() || write_buffer_.empty()) return Status::OK();
  // The watchdog sees this flush as a live operation: if the WAL append or
  // fsync below wedges, the heartbeat goes stale and HEALTH() reports it.
  obs::HeartbeatScope heartbeat("flush");
  const int64_t flush_begin_ns = obs::MonotonicNanos();
  const int64_t flushed = static_cast<int64_t>(write_buffer_.size());
  // The buffer is kept on failure: the segments stay queryable in memory
  // and the caller sees exactly which flush failed. The WAL writer poisons
  // itself after an I/O error (appending past a possibly-torn tail would
  // turn salvageable damage into interior corruption), so durability for
  // this store is over — recovery salvages up to the last good block.
  MODELARDB_RETURN_NOT_OK(WriteBlock(write_buffer_));
  write_buffer_.clear();
  StoreFlushTotal().Add();
  obs::EventRing::Global().Record(obs::EventKind::kFlush, flushed,
                                  obs::MonotonicNanos() - flush_begin_ns);
  if (options_.slab_checkpoint_every_n_flushes > 0 && !checkpointing_ &&
      ++flushes_since_checkpoint_ >= options_.slab_checkpoint_every_n_flushes) {
    // Checkpoint failure is benign to this flush: the segments stay hot in
    // memory and in the WAL, so durability and queries are unaffected —
    // only the next open's replay stays longer.
    Status checkpoint_status = CheckpointLocked();
    if (!checkpoint_status.ok()) {
      MODELARDB_LOG(kWarn) << "slab checkpoint failed (flush unaffected): "
                           << checkpoint_status.ToString();
    }
  }
  return Status::OK();
}

Status SegmentStore::Checkpoint() {
  MutexLock lock(mutex_);
  return CheckpointLocked();
}

Status SegmentStore::CheckpointLocked() {
  if (log_path_.empty()) return Status::OK();  // In-memory: nothing cold.
  obs::HeartbeatScope heartbeat("checkpoint");
  const int64_t checkpoint_begin_ns = obs::MonotonicNanos();
  auto phase = [this](const char* name, int64_t a) {
    obs::EventRing::Global().Record(obs::EventKind::kCheckpointPhase, a, 0,
                                    name);
    if (options_.checkpoint_phase_hook) options_.checkpoint_phase_hook(name);
  };
  // Everything hot must be in the WAL before the watermark can claim to
  // cover it. The guard keeps FlushLocked's auto-trigger from recursing.
  checkpointing_ = true;
  Status flush_status = FlushLocked();
  checkpointing_ = false;
  flushes_since_checkpoint_ = 0;
  MODELARDB_RETURN_NOT_OK(flush_status);
  if (slab_ == nullptr) {
    SlabFileOptions slab_options;
    slab_options.env = env_;
    slab_options.path = SlabPath();
    MODELARDB_ASSIGN_OR_RETURN(std::shared_ptr<SlabFile> slab,
                               SlabFile::Open(slab_options));
    slab_ = std::move(slab);
  }
  // Atomicity: every mutation below happens on private copies of the group
  // data, published into index_ only after the slab root flip succeeds. Any
  // failure before that aborts the slab transaction (staged extents return
  // to the allocator, frees are restored) and discards the copies, leaving
  // the store byte-for-byte where it started — a failed checkpoint is
  // invisible except for the warning FlushLocked logs.
  int64_t groups_to_stage = 0;
  for (const auto& [gid, data] : index_) {
    if (!data->segments.empty()) ++groups_to_stage;
  }
  obs::EventRing::Global().Record(obs::EventKind::kCheckpointBegin,
                                  groups_to_stage);
  std::vector<std::pair<Gid, std::shared_ptr<GroupData>>> originals;
  Status status = Status::OK();
  int64_t groups_staged = 0;
  for (auto& [gid, data] : index_) {
    if (data->segments.empty()) continue;
    auto updated = std::make_shared<GroupData>(*data);
    if (data->snapshots.live.load(std::memory_order_acquire) != 0) {
      StoreCowCopies().Add();
    }
    status = CheckpointGroupLocked(gid, updated.get());
    if (!status.ok()) break;
    originals.emplace_back(gid, std::move(data));
    data = std::move(updated);
    ++groups_staged;
    heartbeat.Beat();
    phase("stage_group", static_cast<int64_t>(gid));
  }
  // The cold index travels with every checkpoint: free the previous copy,
  // stage the new one, and flip the root. Even a checkpoint with no new
  // segments advances the watermark and shortens the next open's replay.
  const uint64_t previous_index_block = cold_index_block_id_;
  if (status.ok() && previous_index_block != 0) {
    status = slab_->FreeBlock(previous_index_block);
  }
  if (status.ok()) {
    std::vector<uint8_t> index_bytes = SerializeColdIndex();
    Result<uint64_t> staged = slab_->StageBlock(index_bytes, kColdIndexTag);
    if (staged.ok()) {
      cold_index_block_id_ = staged.value();
    } else {
      status = staged.status();
    }
    heartbeat.Beat();
    phase("cold_index", -1);
  }
  if (status.ok()) {
    status = slab_->Commit(wal_bytes_total_);
    if (status.ok()) phase("commit", 0);
  }
  if (!status.ok()) {
    // Roll back to the pre-checkpoint state: the original group data
    // returns to the index, the previous cold-index id is restored, and the
    // slab transaction is aborted — staged extents go back to the
    // allocator, frees go back to the table. Dropping the `updated` copies
    // releases the leases on the blocks staged above.
    for (auto& [gid, data] : originals) index_[gid] = std::move(data);
    cold_index_block_id_ = previous_index_block;
    slab_->AbortCheckpoint();
    phase("abort", 0);
    return status;
  }
  const int64_t duration_ns = obs::MonotonicNanos() - checkpoint_begin_ns;
  SlabCheckpointSeconds().Observe(static_cast<double>(duration_ns) * 1e-9);
  obs::EventRing::Global().Record(obs::EventKind::kCheckpointEnd,
                                  groups_staged, duration_ns);
  return Status::OK();
}

// Stages one group's hot segments into cold blocks. Mutates `data` (a
// private copy) and the slab's *staged* state only — safe to unwind with
// AbortCheckpoint if any later step of the checkpoint fails.
Status SegmentStore::CheckpointGroupLocked(Gid gid, GroupData* data) {
  // Cold blocks reaching the hot run's first segment (out-of-order puts
  // since the last checkpoint) fold back into it, and so does a partial
  // tail block, so repeated small checkpoints converge to full-size blocks
  // instead of a long tail of slivers.
  const std::vector<std::shared_ptr<const ColdBlock>>& cold = data->cold;
  size_t first = cold.size();
  while (first > 0 &&
         cold[first - 1]->max_end_time >= data->segments.front().end_time) {
    --first;
  }
  if (first == cold.size() && first > 0 &&
      cold.back()->size() < options_.slab_block_segments) {
    --first;
  }
  if (first < cold.size()) {
    MODELARDB_RETURN_NOT_OK(RewriteGroupLocked(data, first));
  }
  const bool materialize = !data->summaries.empty() &&
                           data->summaries.size() == data->segments.size();
  const int group_size = GroupSizeOf(gid);
  const size_t chunk = std::max<size_t>(options_.slab_block_segments, 1);
  for (size_t begin = 0; begin < data->segments.size(); begin += chunk) {
    const size_t end = std::min(begin + chunk, data->segments.size());
    BufferWriter payload;
    payload.WriteVarint(end - begin);
    auto block = std::make_shared<ColdBlock>();
    static_cast<SegmentBlock&>(*block) = OpenBlock(gid, 0);
    block->end = static_cast<uint32_t>(end - begin);
    for (size_t i = begin; i < end; ++i) {
      const Segment& segment = data->segments[i];
      segment.SerializeTo(&payload);
      const SegmentSummary* summary =
          materialize ? &data->summaries[i] : nullptr;
      FoldIntoBlock(block.get(), segment, summary, group_size);
      if (summary != nullptr) block->summaries.push_back(*summary);
    }
    std::vector<uint8_t> bytes = payload.Finish();
    MODELARDB_ASSIGN_OR_RETURN(block->slab_id, slab_->StageBlock(bytes, gid));
    MODELARDB_ASSIGN_OR_RETURN(block->lease,
                               slab_->LeaseBlock(block->slab_id));
    data->cold.push_back(std::move(block));
  }
  data->segments.clear();
  data->segments.shrink_to_fit();
  data->summaries.clear();
  data->summaries.shrink_to_fit();
  data->blocks.clear();
  UpdateSuffixFences(&data->cold);
  return Status::OK();
}

Status SegmentStore::RewriteGroupLocked(GroupData* data, size_t first) {
  std::vector<Segment> cold_segments;
  std::vector<SegmentSummary> cold_summaries;
  for (size_t b = first; b < data->cold.size(); ++b) {
    MODELARDB_RETURN_NOT_OK(MaterializeColdBlock(
        slab_.get(), *data->cold[b], &cold_segments, &cold_summaries));
    MODELARDB_RETURN_NOT_OK(slab_->FreeBlock(data->cold[b]->slab_id));
  }
  data->cold.resize(first);
  const bool want_summaries = MaterializeFor(data->gid);
  if (want_summaries) {
    int group_size = GroupSizeOf(data->gid);
    for (size_t i = 0; i < cold_segments.size(); ++i) {
      if (!cold_summaries[i].valid()) {
        cold_summaries[i] = BuildSummary(cold_segments[i], group_size);
      }
    }
  }
  std::vector<Segment> merged;
  merged.reserve(cold_segments.size() + data->segments.size());
  std::vector<SegmentSummary> merged_summaries;
  if (want_summaries) merged_summaries.reserve(merged.capacity());
  size_t ci = 0, hi = 0;
  while (ci < cold_segments.size() || hi < data->segments.size()) {
    const bool take_cold =
        hi >= data->segments.size() ||
        (ci < cold_segments.size() &&
         SegmentLess(cold_segments[ci], data->segments[hi]));
    if (take_cold) {
      if (want_summaries) merged_summaries.push_back(cold_summaries[ci]);
      merged.push_back(std::move(cold_segments[ci++]));
    } else {
      if (want_summaries) merged_summaries.push_back(data->summaries[hi]);
      merged.push_back(std::move(data->segments[hi++]));
    }
  }
  data->segments = std::move(merged);
  data->summaries = std::move(merged_summaries);
  return Status::OK();
}

// Cold index layout (little-endian fixed-width, varints as in util/buffer):
//   version | group_count | per group: gid | block_count | per block:
//   slab_id | count | min_start_time | max_end_time | min_value | max_value
//   | u8 summaries? | v2 only: u8 aggregates? [n | n counts (i64)
//   | n sums | n mins | n maxs] | [count × (len | len doubles)] iff summaries
std::vector<uint8_t> SegmentStore::SerializeColdIndex() const {
  BufferWriter writer;
  writer.WriteVarint(kColdIndexVersion);
  size_t group_count = 0;
  for (const auto& [gid, data] : index_) {
    if (!data->cold.empty()) ++group_count;
  }
  writer.WriteVarint(group_count);
  for (const auto& [gid, data] : index_) {
    if (data->cold.empty()) continue;
    writer.WriteVarint(static_cast<uint64_t>(static_cast<uint32_t>(gid)));
    writer.WriteVarint(data->cold.size());
    for (const std::shared_ptr<const ColdBlock>& block : data->cold) {
      writer.WriteVarint(block->slab_id);
      writer.WriteVarint(block->size());
      writer.WriteI64(block->min_start_time);
      writer.WriteI64(block->max_end_time);
      writer.WriteFloat(block->min_value);
      writer.WriteFloat(block->max_value);
      writer.WriteU8(block->summaries.empty() ? 0 : 1);
      writer.WriteU8(block->has_summaries ? 1 : 0);
      if (block->has_summaries) {
        writer.WriteVarint(block->counts.size());
        for (int64_t count : block->counts) writer.WriteI64(count);
        for (const std::vector<double>* lane :
             {&block->sums, &block->mins, &block->maxs}) {
          for (double v : *lane) writer.WriteDouble(v);
        }
      }
      for (const SegmentSummary& summary : block->summaries) {
        writer.WriteVarint(summary.agg.size());
        for (double v : summary.agg) writer.WriteDouble(v);
      }
    }
  }
  return writer.Finish();
}

Status SegmentStore::LoadColdIndex() {
  cold_index_block_id_ = 0;
  for (const auto& [id, tag] : slab_->ListBlocks()) {
    if (tag == kColdIndexTag && id > cold_index_block_id_) {
      cold_index_block_id_ = id;
    }
  }
  if (cold_index_block_id_ == 0) return Status::OK();  // Empty slab.
  MODELARDB_ASSIGN_OR_RETURN(SlabFile::Pin pin,
                             slab_->ReadBlock(cold_index_block_id_));
  BufferReader reader(pin.bytes());
  // Every count is read from disk: check it against what the bytes left can
  // hold (each item takes at least `min_bytes`) before sizing anything.
  auto check = [&reader](uint64_t count, size_t min_bytes, bool valid,
                         const char* what) -> Status {
    if (valid && count <= reader.remaining() / min_bytes) return Status::OK();
    return Status::Corruption(std::string("cold index: bad ") + what + " " +
                              std::to_string(count));
  };
  MODELARDB_ASSIGN_OR_RETURN(uint64_t version, reader.ReadVarint());
  if (version != 1 && version != kColdIndexVersion) {
    return Status::Corruption("unknown cold index version " +
                              std::to_string(version));
  }
  MODELARDB_ASSIGN_OR_RETURN(uint64_t group_count, reader.ReadVarint());
  MODELARDB_RETURN_NOT_OK(check(group_count, 2, true, "group count"));
  for (uint64_t g = 0; g < group_count; ++g) {
    MODELARDB_ASSIGN_OR_RETURN(uint64_t gid_raw, reader.ReadVarint());
    Gid gid = static_cast<Gid>(static_cast<uint32_t>(gid_raw));
    MODELARDB_ASSIGN_OR_RETURN(uint64_t block_count, reader.ReadVarint());
    // slab_id, count, fences, zone map and the summaries flag.
    MODELARDB_RETURN_NOT_OK(check(block_count, 27, true, "block count"));
    std::shared_ptr<GroupData>& data = index_[gid];
    if (!data) data = std::make_shared<GroupData>(gid);
    for (uint64_t b = 0; b < block_count; ++b) {
      auto block = std::make_shared<ColdBlock>();
      MODELARDB_ASSIGN_OR_RETURN(block->slab_id, reader.ReadVarint());
      MODELARDB_ASSIGN_OR_RETURN(block->lease,
                                 slab_->LeaseBlock(block->slab_id));
      MODELARDB_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
      if (count > std::numeric_limits<uint32_t>::max()) {
        return Status::Corruption("cold index: bad count " +
                                  std::to_string(count));
      }
      block->end = static_cast<uint32_t>(count);
      MODELARDB_ASSIGN_OR_RETURN(block->min_start_time, reader.ReadI64());
      MODELARDB_ASSIGN_OR_RETURN(block->max_end_time, reader.ReadI64());
      MODELARDB_ASSIGN_OR_RETURN(block->min_value, reader.ReadFloat());
      MODELARDB_ASSIGN_OR_RETURN(block->max_value, reader.ReadFloat());
      MODELARDB_ASSIGN_OR_RETURN(uint8_t has_summaries, reader.ReadU8());
      // A v1 block has no aggregates: covered scans deliver its segments.
      uint8_t has_aggregates = 0;
      if (version >= 2) {
        MODELARDB_ASSIGN_OR_RETURN(has_aggregates, reader.ReadU8());
      }
      if (has_aggregates != 0) {
        // As many positions as the group has, and the segment summaries
        // that exact SUM folds from.
        MODELARDB_ASSIGN_OR_RETURN(uint64_t n, reader.ReadVarint());
        MODELARDB_RETURN_NOT_OK(check(
            n, 32,
            n == static_cast<uint64_t>(GroupSizeOf(gid)) && has_summaries != 0,
            "aggregate positions"));
        block->has_summaries = true;
        block->counts.resize(n);
        for (int64_t& v : block->counts) {
          MODELARDB_ASSIGN_OR_RETURN(v, reader.ReadI64());
        }
        for (std::vector<double>* lane :
             {&block->sums, &block->mins, &block->maxs}) {
          lane->resize(n);
          for (double& v : *lane) {
            MODELARDB_ASSIGN_OR_RETURN(v, reader.ReadDouble());
          }
        }
      }
      if (has_summaries != 0) {
        MODELARDB_RETURN_NOT_OK(check(count, 1, true, "summary count"));
        block->summaries.resize(count);
        for (SegmentSummary& summary : block->summaries) {
          MODELARDB_ASSIGN_OR_RETURN(uint64_t n, reader.ReadVarint());
          // Whole (sum, min, max) triples for at most 64 series; a block
          // with aggregates needs every one.
          MODELARDB_RETURN_NOT_OK(check(
              n, 8, n % 3 == 0 && n <= 3 * 64 && (n > 0 || has_aggregates == 0),
              "summary length"));
          summary.agg.resize(n);
          for (double& v : summary.agg) {
            MODELARDB_ASSIGN_OR_RETURN(v, reader.ReadDouble());
          }
        }
      }
      num_segments_.fetch_add(static_cast<int64_t>(count),
                              std::memory_order_relaxed);
      data->cold.push_back(std::move(block));
    }
    UpdateSuffixFences(&data->cold);
  }
  return Status::OK();
}

Status SegmentStore::MaterializeColdBlock(
    SlabFile* slab, const ColdBlock& cold, std::vector<Segment>* segments,
    std::vector<SegmentSummary>* summaries) const {
  ScanStats pins;  // Callers count their pins themselves.
  return ForEachSegment(
      slab, nullptr, cold, &cold, &pins,
      [&](const Segment& segment, uint32_t i) {
        segments->push_back(segment);  // The copy owns its parameters.
        summaries->push_back(i < cold.summaries.size() ? cold.summaries[i]
                                                       : SegmentSummary{});
        SlabCopiedScanBytes().Add(
            static_cast<int64_t>(segment.StorageBytes()));
        return Status::OK();
      });
}

SlabStats SegmentStore::slab_stats() const {
  MutexLock lock(mutex_);
  return slab_ == nullptr ? SlabStats{} : slab_->stats();
}

std::vector<SegmentStore::Snapshot> SegmentStore::SnapshotsFor(
    const std::vector<Gid>& gids, std::shared_ptr<SlabFile>* slab) const {
  std::vector<Snapshot> snapshots;
  MutexLock lock(mutex_);
  if (slab != nullptr) *slab = slab_;
  auto grab = [&](const std::shared_ptr<GroupData>& data) {
    if (data->segments.empty() && data->cold.empty()) return;
    snapshots.emplace_back(data);
  };
  if (gids.empty()) {
    snapshots.reserve(index_.size());
    for (const auto& [gid, data] : index_) grab(data);
  } else {
    snapshots.reserve(gids.size());
    for (Gid gid : gids) {
      auto it = index_.find(gid);
      if (it != index_.end()) grab(it->second);
    }
  }
  return snapshots;
}

Status SegmentStore::ScanGroupMerged(SlabFile* slab, const GroupData& group,
                                     const SegmentFilter& filter,
                                     const IndexedScanCallbacks& callbacks,
                                     ScanStats* stats) const {
  // Out-of-order puts since the last checkpoint broke the "cold strictly
  // before hot" clustering split, so per-group EndTime delivery order
  // needs a real merge: materialize the cold segments (the copying slow
  // path — counted in modelardb_slab_copied_scan_bytes_total) and walk
  // both runs with two cursors. The next checkpoint rewrites the group
  // and restores the fast path.
  std::vector<Segment> cold_segments;
  std::vector<SegmentSummary> cold_summaries;
  for (const std::shared_ptr<const ColdBlock>& block : group.cold) {
    MODELARDB_RETURN_NOT_OK(MaterializeColdBlock(slab, *block, &cold_segments,
                                                 &cold_summaries));
  }
  stats->blocks_scanned += static_cast<int64_t>(group.cold.size());
  stats->blocks_scanned += static_cast<int64_t>(group.blocks.size());
  stats->cold_pins += static_cast<int64_t>(group.cold.size());
  size_t ci = 0, hi = 0;
  while (ci < cold_segments.size() || hi < group.segments.size()) {
    const bool take_cold =
        hi >= group.segments.size() ||
        (ci < cold_segments.size() &&
         SegmentLess(cold_segments[ci], group.segments[hi]));
    const Segment& segment =
        take_cold ? cold_segments[ci] : group.segments[hi];
    const SegmentSummary* summary = nullptr;
    if (take_cold) {
      if (cold_summaries[ci].valid()) summary = &cold_summaries[ci];
      ++ci;
    } else {
      if (!group.summaries.empty()) summary = &group.summaries[hi];
      ++hi;
    }
    if (!filter.Matches(segment)) continue;
    ++stats->segments_scanned;
    if (!take_cold) ++stats->hot_pins;
    MODELARDB_RETURN_NOT_OK(callbacks.on_segment(segment, summary));
  }
  return Status::OK();
}

Status SegmentStore::ScanIndexed(const SegmentFilter& filter,
                                 const IndexedScanCallbacks& callbacks,
                                 ScanStats* stats) const {
  // This scan's counts alone feed the cumulative metrics.
  ScanStats local;
  // The lock is only held inside SnapshotsFor; everything below runs
  // lock-free on the immutable snapshots (cold reads pin the slab mapping).
  std::shared_ptr<SlabFile> slab;
  for (const Snapshot& snapshot : SnapshotsFor(filter.gids, &slab)) {
    const GroupData& group = *snapshot;
    if (!group.cold.empty()) {
      if (slab == nullptr) {
        return Status::IOError("cold blocks present without a slab file");
      }
      if (!group.segments.empty() &&
          group.segments.front().end_time <= group.cold.back()->max_end_time) {
        MODELARDB_RETURN_NOT_OK(
            ScanGroupMerged(slab.get(), group, filter, callbacks, &local));
        continue;
      }
    }
    MODELARDB_RETURN_NOT_OK(WalkBlocks(
        group, filter, &local.blocks_skipped,
        [&](const SegmentBlock& block, const ColdBlock* cold) -> Status {
          // A cold block indexes its own segments, from 0.
          const std::vector<SegmentSummary>& run =
              cold != nullptr ? cold->summaries : group.summaries;
          const SegmentSummary* summaries =
              run.empty() ? nullptr : run.data() + block.begin;
          const bool covered = block.min_start_time >= filter.min_time &&
                               block.max_end_time <= filter.max_time;
          if (covered && block.has_summaries && callbacks.on_covered_block) {
            BlockView view;
            view.gid = group.gid;
            view.block = &block;
            view.summaries = summaries;
            view.for_each_segment =
                [&](const std::function<void(const Segment&)>& fn) {
                  return ForEachSegment(
                      slab.get(), group.segments.data(), block, cold, &local,
                      [&fn](const Segment& segment, uint32_t) {
                        fn(segment);
                        return Status::OK();
                      });
                };
            MODELARDB_ASSIGN_OR_RETURN(BlockAction action,
                                       callbacks.on_covered_block(view));
            if (action == BlockAction::kSummarized) {
              ++local.blocks_summarized;
              return Status::OK();
            }
            if (action == BlockAction::kSkipped) {
              ++local.blocks_skipped;
              return Status::OK();
            }
          }
          ++local.blocks_scanned;
          return ForEachSegment(
              slab.get(), group.segments.data(), block, cold, &local,
              [&](const Segment& segment, uint32_t i) -> Status {
                if (!filter.Matches(segment)) return Status::OK();
                ++local.segments_scanned;
                if (cold == nullptr) ++local.hot_pins;
                return callbacks.on_segment(
                    segment, summaries == nullptr ? nullptr : &summaries[i]);
              });
        }));
  }
  RecordScanStats(local);
  if (stats != nullptr) stats->Merge(local);
  return Status::OK();
}

Status SegmentStore::Scan(
    const SegmentFilter& filter,
    const std::function<Status(const Segment&)>& fn) const {
  IndexedScanCallbacks callbacks;
  callbacks.on_segment = [&fn](const Segment& segment,
                               const SegmentSummary*) { return fn(segment); };
  return ScanIndexed(filter, callbacks, nullptr);
}

int64_t SegmentStore::EstimateSurvivingSegments(
    Gid gid, const SegmentFilter& filter) const {
  // Upper bound from the fences alone, cold blocks included, so no page is
  // touched: partially covered blocks count in full. Scheduling weights and
  // EXPLAIN estimates only need fence precision; filtering every segment of
  // a straddling block would make the estimate itself proportional to the
  // data.
  int64_t estimate = 0;
  int64_t skipped = 0;
  for (const Snapshot& snapshot : SnapshotsFor({gid}, nullptr)) {
    (void)WalkBlocks(*snapshot, filter, &skipped,
                     [&estimate](const SegmentBlock& block, const ColdBlock*) {
                       estimate += block.size();
                       return Status::OK();
                     });
  }
  return estimate;
}

Result<std::vector<Segment>> SegmentStore::GetSegments(
    Gid gid, Timestamp min_time, Timestamp max_time) const {
  std::vector<Segment> out;
  SegmentFilter filter;
  filter.gids = {gid};
  filter.min_time = min_time;
  filter.max_time = max_time;
  MODELARDB_RETURN_NOT_OK(Scan(filter, [&out](const Segment& segment) {
    out.push_back(segment);
    return Status::OK();
  }));
  return out;
}

std::vector<Gid> SegmentStore::Gids() const {
  MutexLock lock(mutex_);
  std::vector<Gid> out;
  out.reserve(index_.size());
  for (const auto& [gid, slot] : index_) out.push_back(gid);
  return out;
}

}  // namespace modelardb
