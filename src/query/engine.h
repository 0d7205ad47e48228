// Query processing on models (paper §6).
//
// The engine implements the paper's Segment View and Data Point View over
// a segment source. Algorithm 5 (simple aggregates) and Algorithm 6
// (aggregates rolled up in the time dimension) are implemented as an
// initialize / iterate / finalize pipeline over segments, with:
//   - query rewriting from Tids and dimension members to Gids (§6.2) so
//     the segment store only needs predicate push-down on one id,
//   - per-series scaling constants applied during iterate (§6.1),
//   - the array-based dimension join against the in-memory catalog (§6.1),
//   - constant-time aggregation on constant/linear models via
//     SegmentDecoder::AggregateRange.
//
// The pipeline is split into Compile / ExecutePartial / MergeFinalize so
// the cluster engine can run iterate on each worker and merge at the
// master, exactly as the paper distributes Algorithm 5/6.

#ifndef MODELARDB_QUERY_ENGINE_H_
#define MODELARDB_QUERY_ENGINE_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/model.h"
#include "dims/dimensions.h"
#include "obs/tracer.h"
#include "partition/partitioner.h"
#include "query/ast.h"
#include "query/result.h"
#include "storage/segment_store.h"
#include "util/thread_pool.h"

namespace modelardb {
namespace query {

// Abstraction over "where segments come from": a local SegmentStore, a
// worker's partition, or a mock in tests.
class SegmentSource {
 public:
  virtual ~SegmentSource() = default;
  virtual Status ScanSegments(
      const SegmentFilter& filter,
      const std::function<Status(const Segment&)>& fn) const = 0;

  // Summary-index-aware scan. The default adapts ScanSegments: every
  // segment is delivered individually without summaries, so sources
  // unaware of the index (mocks, remote stubs) keep working unchanged.
  virtual Status ScanIndexed(const SegmentFilter& filter,
                             const IndexedScanCallbacks& callbacks,
                             ScanStats* stats) const {
    return ScanSegments(filter, [&](const Segment& segment) {
      if (stats != nullptr) ++stats->segments_scanned;
      return callbacks.on_segment(segment, nullptr);
    });
  }

  // Fence-based estimate of segments surviving `filter` for one group;
  // used to weight morsel scheduling. 0 == unknown/none.
  virtual int64_t EstimateSurvivingSegments(Gid,
                                            const SegmentFilter&) const {
    return 0;
  }
};

// Adapter for SegmentStore.
class StoreSegmentSource : public SegmentSource {
 public:
  explicit StoreSegmentSource(const SegmentStore* store) : store_(store) {}
  Status ScanSegments(
      const SegmentFilter& filter,
      const std::function<Status(const Segment&)>& fn) const override {
    return store_->Scan(filter, fn);
  }
  Status ScanIndexed(const SegmentFilter& filter,
                     const IndexedScanCallbacks& callbacks,
                     ScanStats* stats) const override {
    return store_->ScanIndexed(filter, callbacks, stats);
  }
  int64_t EstimateSurvivingSegments(
      Gid gid, const SegmentFilter& filter) const override {
    return store_->EstimateSurvivingSegments(gid, filter);
  }

  const SegmentStore* store() const { return store_; }

 private:
  const SegmentStore* store_;
};

// Restricts a source to a single group: one morsel of a parallel scan.
class GidRestrictedSource : public SegmentSource {
 public:
  GidRestrictedSource(const SegmentSource* base, Gid gid)
      : base_(base), gid_(gid) {}
  Status ScanSegments(
      const SegmentFilter& filter,
      const std::function<Status(const Segment&)>& fn) const override {
    SegmentFilter restricted = filter;
    restricted.gids = {gid_};
    return base_->ScanSegments(restricted, fn);
  }
  Status ScanIndexed(const SegmentFilter& filter,
                     const IndexedScanCallbacks& callbacks,
                     ScanStats* stats) const override {
    SegmentFilter restricted = filter;
    restricted.gids = {gid_};
    return base_->ScanIndexed(restricted, callbacks, stats);
  }
  int64_t EstimateSurvivingSegments(
      Gid gid, const SegmentFilter& filter) const override {
    return base_->EstimateSurvivingSegments(gid, filter);
  }

 private:
  const SegmentSource* base_;
  Gid gid_;
};

// Group-by key parts after name resolution.
struct KeyPart {
  enum class Kind { kTid, kMember };
  Kind kind = Kind::kTid;
  int dim_index = 0;  // kMember.
  int level = 0;      // kMember.
  std::string display;
};

// A compiled (rewritten + resolved) query.
struct CompiledQuery {
  Query ast;
  SegmentFilter filter;           // Gids + time range (push-down, §6.2).
  // Series surviving the conjunction of Tid and member predicates. Groups
  // are supersets of this set, so iterate re-filters per series. Empty
  // with no predicates: all series.
  std::set<Tid> selected_tids;
  // Value-range predicate in raw (unscaled) units. Segments whose value
  // statistics cannot intersect the range are pruned without decoding —
  // the model-exploiting index of the paper's future work (i).
  double min_value = -std::numeric_limits<double>::infinity();
  double max_value = std::numeric_limits<double>::infinity();
  bool has_value_predicate = false;
  std::vector<KeyPart> key_parts;
  std::optional<TimeLevel> cube_level;  // Set when any CUBE_ aggregate.
};

// Distributive/algebraic aggregate state (merged across workers).
struct AggState {
  int64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Merge(const AggState& other) {
    count += other.count;
    sum += other.sum;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
};

// A worker's partial result: either grouped aggregate states or raw rows,
// plus the scan's summary-index pruning counters (surfaced by EXPLAIN).
struct PartialResult {
  std::map<std::vector<Cell>, std::vector<AggState>> groups;
  std::vector<std::vector<Cell>> rows;  // Non-aggregate queries.
  ScanStats scan;

  void Merge(PartialResult&& other);
};

// Renders the `EXPLAIN ANALYZE` counter lines ("blocks skipped: N", ...)
// for a scan's summary-index pruning statistics.
std::vector<std::string> ScanStatsLines(const ScanStats& stats);

// Slow-query log: when `latency_ns` exceeds obs::SlowQueryThresholdNs(),
// logs a kWarn line with the query's resource breakdown (`where` names the
// caller), bumps modelardb_query_slow_total and records a kSlowQuery
// flight-recorder event. No-op below the threshold or when disabled.
void MaybeLogSlowQuery(const char* where, int64_t latency_ns,
                       const ScanStats& scan, int64_t rows);

class QueryEngine {
 public:
  // `catalog` and `registry` must outlive the engine; `groups` comes from
  // the Partitioner.
  QueryEngine(const TimeSeriesCatalog* catalog,
              std::vector<TimeSeriesGroup> groups,
              const ModelRegistry* registry);

  // Parses, compiles and runs `sql` against `source`. The string overload
  // records a full query trace (parse → plan → scan → merge spans) into
  // obs::Tracer::Global(); the AST overload attaches its stage spans to
  // `trace` when one is provided (null — the default — disables tracing).
  Result<QueryResult> Execute(const std::string& sql,
                              const SegmentSource& source) const;
  Result<QueryResult> Execute(const Query& ast, const SegmentSource& source,
                              obs::Trace* trace = nullptr) const;

  // Renders the compiled plan of `ast`: view, push-down predicates (Gids,
  // time range, value range), per-series filters, grouping and rollup.
  // Also reachable through SQL as `EXPLAIN SELECT ...`.
  Result<std::string> Explain(const Query& ast) const;

  // Distributed building blocks.
  Result<CompiledQuery> Compile(const Query& ast) const;
  Result<PartialResult> ExecutePartial(const CompiledQuery& compiled,
                                       const SegmentSource& source) const;
  // Morsel-driven ExecutePartial: splits the scan into per-Gid morsels
  // (`morsel_gids` — submitted in the given order, so callers may front-
  // load heavy groups using index estimates), runs each as an independent
  // task on `pool` (inline when `pool` is null) into a task-local
  // PartialResult, and merges the partials in ascending Gid order
  // regardless of submission order. The merge order is deterministic, so
  // the result — including the floating-point reduction tree — is
  // byte-identical for every pool size and every submission order.
  // When `trace` is non-null a "morsel fan-out" span (parented to
  // `parent_span`) wraps the scan and each morsel records its own
  // "morsel gid=N" child span with per-morsel wall + CPU timings.
  Result<PartialResult> ExecutePartialParallel(
      const CompiledQuery& compiled, const SegmentSource& source,
      const std::vector<Gid>& morsel_gids, ThreadPool* pool,
      obs::Trace* trace = nullptr, int32_t parent_span = 0) const;
  Result<QueryResult> MergeFinalize(const CompiledQuery& compiled,
                                    std::vector<PartialResult> partials) const;

  const std::vector<TimeSeriesGroup>& groups() const { return groups_; }
  Gid GidOf(Tid tid) const { return gid_of_[tid - 1]; }

 private:
  // Resolves a dimension column name ("Park" or "Location.Park" /
  // "Location_Park") to (dimension index, level).
  Result<std::pair<int, int>> ResolveDimensionColumn(
      const std::string& name) const;

  Result<PartialResult> SegmentViewPartial(const CompiledQuery& compiled,
                                           const SegmentSource& source) const;
  Result<PartialResult> DataPointViewPartial(const CompiledQuery& compiled,
                                             const SegmentSource& source) const;

  // Positions (and Tids) of a segment's represented, selected series.
  struct SelectedSeries {
    Tid tid;
    int column;      // Decoder column.
    double scaling;  // Applied as value / scaling during iterate (§6.1).
  };
  std::vector<SelectedSeries> SelectSeries(const CompiledQuery& compiled,
                                           const Segment& segment) const;

  std::vector<Cell> KeyFor(const CompiledQuery& compiled, Tid tid) const;

  // Consumes a fully time-covered block from its summaries for a
  // non-rollup aggregate query. When `needs_sum` (SUM/AVG selected) the
  // per-segment materialized summaries are folded — the same arithmetic
  // in the same order as decoding, so results stay byte-identical; for
  // COUNT/MIN/MAX-only queries the block's order-free pre-folded
  // aggregates are consumed directly. Returns kFallback when the value
  // zone map straddles the predicate (or a scaling is non-positive), so
  // the exhaustive path decides per segment.
  Result<BlockAction> ConsumeCoveredBlock(const CompiledQuery& compiled,
                                          const BlockView& view,
                                          size_t num_aggs, bool needs_sum,
                                          PartialResult* partial) const;

  const TimeSeriesCatalog* catalog_;
  std::vector<TimeSeriesGroup> groups_;     // Indexed gid-1.
  std::vector<Gid> gid_of_;                 // Indexed tid-1.
  const ModelRegistry* registry_;
};

}  // namespace query
}  // namespace modelardb

#endif  // MODELARDB_QUERY_ENGINE_H_
