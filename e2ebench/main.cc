// End-to-end benchmark driver: ingest -> flush -> checkpoint -> reopen ->
// query over one named workload, against the library's public API.
//
//   e2ebench --workload <ep-cold|eh-csv-cold|ep-online> --seed <n>
//            --seconds <s> --trace <0|1> [--workdir <dir>] [--out-dir <dir>]
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it drives
// the layers itself (row sources, group coordinators, segment stores, the
// query engine's parse/compile/per-worker/merge steps), times every call
// into them, and prints the per-layer metrics; the spans go to
// <out-dir>/trace-<workload>-<seed>.jsonl. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. Any
// answer that fails a check makes the run exit 1. See README.md.

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unistd.h>
#include <vector>

#include "checks.h"
#include "cluster/cluster.h"
#include "ingest/csv.h"
#include "ingest/pipeline.h"
#include "inputs.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "query/parser.h"
#include "util/thread_pool.h"

namespace e2ebench {
namespace {

namespace fs = std::filesystem;
using modelardb::ErrorBound;
using modelardb::GroupCoordinator;
using modelardb::GroupRow;
using modelardb::Result;
using modelardb::ScanStats;
using modelardb::Segment;
using modelardb::SegmentStore;
using modelardb::SegmentStoreOptions;
using modelardb::TaskGroup;
using modelardb::cluster::ClusterConfig;
using modelardb::cluster::ClusterEngine;
using modelardb::ingest::GroupRowSource;
using modelardb::workload::DatasetKind;
using SourceList = std::vector<std::unique_ptr<GroupRowSource>>;

// Fixed engine configuration, identical for every workload and commit.
constexpr int kWorkers = 2;
constexpr int kPoolThreads = 2;           // Engine-owned query/ingest pool.
constexpr double kErrorBoundPercent = 1.0;  // Relative bound (Def 4).
constexpr int kSaggQueries = 800;  // S-AGG queries per pass, per view.
constexpr int kPrQueries = 600;    // P-R queries per pass.
constexpr int kReopens = 25;
constexpr int kMinPasses = 5;  // >= 3,000 S-AGG and P-R samples per run.
constexpr int kTracedPasses = 3;

struct WorkloadSpec {
  const char* name;
  DataShape shape;
  bool csv = false;        // Ingest from per-series CSV files.
  bool online = false;     // Interleave ingest slices with query passes.
  int ingest_rounds = 1;   // Cold: repeated full ingests, median rate.
  int slices = 1;          // Online: ingest slices.
  bool compare_hot_cold = false;  // Byte-identity across storage states.
};

// Ingest runs sequentially on the client thread: with one ingest thread
// per worker the rate swings between two modes (about 19 and 26 M points/s
// here) with the placement of the threads on the host's cores, which no
// number of repetitions inside one run evens out (see README.md).
modelardb::ingest::PipelineOptions SequentialPipeline() {
  modelardb::ingest::PipelineOptions options;
  options.parallelism = 1;
  return options;
}

std::vector<WorkloadSpec> Workloads() {
  WorkloadSpec ep_cold{"ep-cold", {}};
  ep_cold.shape.kind = DatasetKind::kEp;
  ep_cold.shape.entities = 48;
  ep_cold.shape.rows = 50000;
  ep_cold.ingest_rounds = 3;
  ep_cold.compare_hot_cold = true;

  WorkloadSpec eh{"eh-csv-cold", {}};
  eh.shape.kind = DatasetKind::kEh;
  eh.shape.parks = 8;
  eh.shape.entities_per_park = 4;
  eh.shape.rows = 40000;
  eh.csv = true;
  eh.ingest_rounds = 3;

  WorkloadSpec online{"ep-online", {}};
  online.shape.kind = DatasetKind::kEp;
  online.shape.entities = 48;
  online.shape.rows = 30000;
  online.online = true;
  online.slices = 20;
  online.compare_hot_cold = true;
  return {ep_cold, eh, online};
}

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

int64_t CounterValue(std::string_view name) {
  return modelardb::obs::MetricsRegistry::Global().GetCounter(name).Value();
}

int64_t DirectoryBytes(const std::string& root) {
  int64_t total = 0;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file()) {
      total += static_cast<int64_t>(entry.file_size());
    }
  }
  return total;
}

// Spans of the traced run, kept in memory and written when the run ends.
class SpanLog {
 public:
  int64_t Add(const std::string& name, int64_t parent, int64_t start_ns,
              int64_t end_ns) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({static_cast<int64_t>(spans_.size()) + 1, parent, name,
                      start_ns, end_ns});
    return spans_.back().id;
  }
  // Reserves an id for a span whose end is not known yet.
  int64_t Open(const std::string& name, int64_t parent, int64_t start_ns) {
    return Add(name, parent, start_ns, start_ns);
  }
  void Close(int64_t id, int64_t end_ns) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end_ns = end_ns;
  }
  bool Write(const std::string& path, int64_t origin_ns) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"name\":\"" << s.name << "\",\"start_us\":"
          << (s.start_ns - origin_ns) / 1000
          << ",\"dur_us\":" << (s.end_ns - s.start_ns) / 1000 << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    int64_t id;
    int64_t parent;
    std::string name;
    int64_t start_ns;
    int64_t end_ns;
  };
  std::mutex mutex_;
  std::vector<Span> spans_;
};

// Per-layer totals of the traced run.
struct LayerTotals {
  int64_t source_ns = 0, fit_ns = 0, put_ns = 0, store_flush_ns = 0;
  int64_t pipeline_ns = 0, flush_all_ns = 0;
  int64_t checkpoint_ns = 0, open_ns = 0;
  int64_t segments_replayed = 0, slab_bytes = 0;
  int64_t cow_copies = 0, block_rebuilds = 0, wal_bytes = 0, wal_fsyncs = 0;
  int64_t pool_tasks = 0, help_steals = 0;
  int64_t values_simd = 0, values_scalar = 0, folds_simd = 0,
          folds_scalar = 0;
  struct QueryLayers {
    int64_t parse_ns = 0, compile_ns = 0, workers_ns = 0, merge_ns = 0;
    ScanStats scan;
  };
  std::map<std::string, QueryLayers> queries;
};

// Registry counters whose deltas over a phase are per-layer metrics.
struct CounterSnapshot {
  int64_t cow, rebuilds, wal_bytes, wal_fsyncs, tasks, steals, vsimd,
      vscalar, fsimd, fscalar;
  static CounterSnapshot Take() {
    namespace obs = modelardb::obs;
    return {CounterValue(obs::kStoreCowCopiesTotal),
            CounterValue(obs::kStoreBlockRebuildsTotal),
            CounterValue(obs::kWalBytesTotal),
            CounterValue(obs::kWalFsyncsTotal),
            CounterValue(obs::kPoolTasksTotal),
            CounterValue(obs::kPoolHelpStealsTotal),
            CounterValue(obs::kDecodeValuesSimdTotal),
            CounterValue(obs::kDecodeValuesScalarTotal),
            CounterValue(obs::kDecodeFoldsSimdTotal),
            CounterValue(obs::kDecodeFoldsScalarTotal)};
  }
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string out_dir = ".bench_out";
};

// Timings of the query passes of one run.
// Timings of the query passes of one run.
struct PassTimings {
  // Per class, per pass: the mean latency of the class's queries.
  std::map<std::string, std::vector<double>> pass_mean_ms;
  std::map<std::string, std::vector<double>> samples_ms;  // Per query.
};

class Bench {
 public:
  Bench(const Options& options, const WorkloadSpec& spec, int64_t start_ns)
      : options_(options), spec_(spec), start_ns_(start_ns) {}

  // Returns the process exit code; prints the result line on success.
  int Run();

 private:
  Status Setup();
  Result<std::unique_ptr<ClusterEngine>> CreateEngine(const std::string& root);
  Result<SourceList> MakeSources(int64_t row_begin, int64_t row_end);
  // One full ingest (rows [row_begin, row_end)) through RunPipeline, or
  // through the traced per-layer driver. Returns the ingest seconds.
  Result<double> Ingest(ClusterEngine* engine, int64_t row_begin,
                        int64_t row_end, bool traced);
  Result<int64_t> TracedIngest(ClusterEngine* engine, SourceList sources,
                               int64_t parent_span);
  Status Checkpoint(ClusterEngine* engine);
  Status Reopen(const std::string& root);
  Status TracedOpen(const std::string& root,
                    const std::vector<std::map<Gid, int>>& group_sizes);
  Result<QueryResult> RunQuery(const std::string& class_name,
                               const BenchQuery& query, bool traced);
  // Runs every class once, timing every query. With `compare`, every
  // answer must reproduce the checked pass's hash.
  void TimedPass(bool traced, bool compare, PassTimings* timings);
  // Timed passes against the checked pass's answers: until `--seconds`
  // have passed since `start_ns` (at least kMinPasses), or kTracedPasses
  // when traced.
  void TimePasses(bool traced, int64_t start_ns, PassTimings* timings);
  // Untimed pass whose answers are checked against the independent
  // computation; returns the answer hashes.
  Result<std::vector<uint64_t>> CheckedPass();
  void CollectIngestLayers();
  std::string ModelLabel(modelardb::Mid mid) const;
  void Fail(const Status& status);
  int Finish(double ingest_points_per_s, double reopen_s,
             const PassTimings& timings);

  Options options_;
  WorkloadSpec spec_;
  int64_t start_ns_;
  double setup_s_ = 0.0;
  double reopen_s_ = 0.0;
  Inputs inputs_;
  std::unique_ptr<Truth> truth_;
  std::vector<QueryClass> classes_;
  modelardb::ModelRegistry registry_ = modelardb::ModelRegistry::Default();
  // The CSV workload's catalog comes from the parsed deployment.
  std::unique_ptr<modelardb::TimeSeriesCatalog> csv_catalog_;
  const modelardb::TimeSeriesCatalog* catalog_ = nullptr;
  std::vector<TimeSeriesGroup> groups_;
  std::unique_ptr<ClusterEngine> engine_;
  std::string root_;
  int ingest_count_ = 0;
  std::vector<uint64_t> reference_;  // Hashes of the checked pass.
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
  std::string first_error_;
  int64_t stored_bytes_ = 0;
  int64_t ingested_points_ = 0;
  SpanLog spans_;
  LayerTotals layers_;
  std::map<std::string, int64_t> segments_per_model_, points_per_model_;
  modelardb::CoordinatorStats coordinator_stats_;
};

void Bench::Fail(const Status& status) {
  correct_ = false;
  if (first_error_.empty()) first_error_ = status.ToString();
  std::fprintf(stderr, "e2ebench: check failed: %s\n",
               status.ToString().c_str());
}

Status Bench::Setup() {
  MODELARDB_ASSIGN_OR_RETURN(
      inputs_, BuildInputs(spec_.shape, options_.seed, /*with_group_rows=*/
                           !spec_.csv));
  catalog_ = inputs_.dataset->catalog();
  groups_ = inputs_.groups;
  if (spec_.csv) {
    MODELARDB_ASSIGN_OR_RETURN(
        std::string config,
        WriteCsvDeployment(inputs_, options_.workdir + "/csv"));
    MODELARDB_ASSIGN_OR_RETURN(modelardb::ingest::Deployment deployment,
                               modelardb::ingest::LoadDeployment(config));
    csv_catalog_ = std::move(deployment.catalog);
    MODELARDB_ASSIGN_OR_RETURN(
        groups_, modelardb::Partitioner::Partition(csv_catalog_.get(),
                                                   deployment.hints));
    catalog_ = csv_catalog_.get();
    // The query lists and the checks use the generator's Tids; the parsed
    // deployment must group the same series the same way.
    if (groups_.size() != inputs_.groups.size()) {
      return Status::Internal("CSV deployment partitions differently");
    }
    for (size_t i = 0; i < groups_.size(); ++i) {
      if (groups_[i].tids != inputs_.groups[i].tids) {
        return Status::Internal("CSV deployment partitions differently");
      }
    }
  }
  root_ = options_.workdir + "/store0";
  MODELARDB_ASSIGN_OR_RETURN(engine_, CreateEngine(root_));
  return Status::OK();
}

Result<std::unique_ptr<ClusterEngine>> Bench::CreateEngine(
    const std::string& root) {
  ClusterConfig config;
  config.num_workers = kWorkers;
  config.storage_root = root;
  config.error_bound = ErrorBound::Relative(kErrorBoundPercent);
  config.parallelism = kPoolThreads;
  return ClusterEngine::Create(catalog_, groups_, &registry_, config);
}

Result<SourceList> Bench::MakeSources(int64_t row_begin, int64_t row_end) {
  if (spec_.csv) {
    return modelardb::ingest::MakeCsvSources(*catalog_, groups_);
  }
  return MakeReplaySources(inputs_, row_begin, row_end);
}

Result<double> Bench::Ingest(ClusterEngine* engine, int64_t row_begin,
                             int64_t row_end, bool traced) {
  ++attempted_;
  ++ingest_count_;
  int64_t expected = 0;
  for (int tid = 1; tid <= inputs_.num_series(); ++tid) {
    for (int64_t row = row_begin; row < row_end; ++row) {
      expected += inputs_.present[tid - 1][row];
    }
  }
  const int64_t start = NowNs();
  int64_t points = 0;
  if (traced) {
    const int64_t span = spans_.Open("ingest", 0, start);
    MODELARDB_ASSIGN_OR_RETURN(SourceList sources,
                               MakeSources(row_begin, row_end));
    const int64_t sources_made = NowNs();
    spans_.Add("make sources", span, start, sources_made);
    layers_.source_ns += sources_made - start;
    MODELARDB_ASSIGN_OR_RETURN(points,
                               TracedIngest(engine, std::move(sources), span));
    const int64_t end = NowNs();
    spans_.Close(span, end);
    layers_.pipeline_ns += end - start;
  } else {
    MODELARDB_ASSIGN_OR_RETURN(SourceList sources,
                               MakeSources(row_begin, row_end));
    MODELARDB_ASSIGN_OR_RETURN(
        modelardb::ingest::IngestReport report,
        modelardb::ingest::RunPipeline(engine, std::move(sources),
                                       SequentialPipeline()));
    points = report.data_points;
  }
  const double seconds = Seconds(NowNs() - start);
  MODELARDB_RETURN_NOT_OK(CheckIngestedPoints(points, expected));
  ingested_points_ += points;
  return seconds;
}

// Drives what RunPipeline (sequential) + FlushAll do, call by call: the
// partitions of the workers run one after the other on this thread, each
// pulling micro-batches of 512 rows round-robin from its sources, feeding
// every row to the group's coordinator and putting the emitted segments
// into the worker's store; then one task per worker on the engine's pool
// flushes its coordinators and its store. The segments reach each store in
// the same order as through RunPipeline, so the stored bytes are identical.
Result<int64_t> Bench::TracedIngest(ClusterEngine* engine,
                                    SourceList sources, int64_t parent_span) {
  const int workers = engine->num_workers();
  std::vector<std::vector<GroupRowSource*>> partitions(workers);
  for (const auto& source : sources) {
    partitions[engine->WorkerOf(source->gid())].push_back(source.get());
  }
  int64_t points = 0;
  GroupRow row;
  std::vector<Segment> segments;
  for (int w = 0; w < workers; ++w) {
    const int64_t begin = NowNs();
    modelardb::cluster::Worker* worker = engine->worker(w);
    std::vector<GroupRowSource*>& mine = partitions[w];
    std::vector<bool> exhausted(mine.size(), false);
    size_t remaining = mine.size();
    while (remaining > 0) {
      for (size_t i = 0; i < mine.size(); ++i) {
        if (exhausted[i]) continue;
        GroupCoordinator* coordinator = worker->coordinator(mine[i]->gid());
        for (int b = 0; b < 512; ++b) {
          const int64_t t0 = NowNs();
          MODELARDB_ASSIGN_OR_RETURN(bool has_row, mine[i]->Next(&row));
          const int64_t t1 = NowNs();
          layers_.source_ns += t1 - t0;
          if (!has_row) {
            exhausted[i] = true;
            --remaining;
            break;
          }
          MODELARDB_RETURN_NOT_OK(coordinator->Ingest(row, &segments));
          const int64_t t2 = NowNs();
          layers_.fit_ns += t2 - t1;
          if (!segments.empty()) {
            MODELARDB_RETURN_NOT_OK(worker->store()->PutBatch(segments));
            segments.clear();
            layers_.put_ns += NowNs() - t2;
          }
          points += row.PresentCount();
        }
      }
    }
    spans_.Add("worker " + std::to_string(w) + " rows", parent_span, begin,
               NowNs());
  }

  struct FlushTimes {
    int64_t fit_ns = 0, put_ns = 0, store_ns = 0;
    Status status;
  };
  std::vector<FlushTimes> flushes(workers);
  const int64_t flush_start = NowNs();
  const int64_t flush_span = spans_.Open("flush all", parent_span, flush_start);
  {
    TaskGroup group(engine->pool());
    for (int w = 0; w < workers; ++w) {
      group.Submit([&, w] {
        const int64_t begin = NowNs();
        FlushTimes& times = flushes[w];
        modelardb::cluster::Worker* worker = engine->worker(w);
        auto run = [&]() -> Status {
          std::vector<Segment> out;
          for (const auto& [gid, coordinator] : worker->coordinators()) {
            const int64_t t0 = NowNs();
            MODELARDB_RETURN_NOT_OK(coordinator->Flush(&out));
            const int64_t t1 = NowNs();
            times.fit_ns += t1 - t0;
            if (!out.empty()) {
              MODELARDB_RETURN_NOT_OK(worker->store()->PutBatch(out));
              out.clear();
              times.put_ns += NowNs() - t1;
            }
          }
          const int64_t t0 = NowNs();
          MODELARDB_RETURN_NOT_OK(worker->store()->Flush());
          times.store_ns += NowNs() - t0;
          return Status::OK();
        };
        times.status = run();
        spans_.Add("worker " + std::to_string(w) + " flush", flush_span,
                   begin, NowNs());
      });
    }
    group.Wait();
  }
  const int64_t end = NowNs();
  spans_.Close(flush_span, end);
  layers_.flush_all_ns += end - flush_start;
  for (const FlushTimes& times : flushes) {
    MODELARDB_RETURN_NOT_OK(times.status);
    layers_.fit_ns += times.fit_ns;
    layers_.put_ns += times.put_ns;
    layers_.store_flush_ns += times.store_ns;
  }
  return points;
}

Status Bench::Checkpoint(ClusterEngine* engine) {
  ++attempted_;
  for (int w = 0; w < engine->num_workers(); ++w) {
    const int64_t t0 = NowNs();
    MODELARDB_RETURN_NOT_OK(engine->worker(w)->store()->Checkpoint());
    const int64_t t1 = NowNs();
    layers_.checkpoint_ns += t1 - t0;
    if (options_.trace) {
      spans_.Add("checkpoint worker " + std::to_string(w), 0, t0, t1);
    }
    layers_.slab_bytes += static_cast<int64_t>(
        engine->worker(w)->store()->slab_stats().file_end);
  }
  return Status::OK();
}

// Opens every worker's store the way ClusterEngine::Create does, one by
// one, to time SegmentStore::Open alone. `group_sizes` is per worker.
Status Bench::TracedOpen(const std::string& root,
                         const std::vector<std::map<Gid, int>>& group_sizes) {
  ClusterConfig defaults;
  for (int w = 0; w < kWorkers; ++w) {
    SegmentStoreOptions options;
    options.directory = root + "/worker" + std::to_string(w);
    options.bulk_write_size = defaults.bulk_write_size;
    options.index_block_size = defaults.index_block_size;
    options.registry = &registry_;
    options.group_sizes = group_sizes[w];
    const int64_t t0 = NowNs();
    MODELARDB_ASSIGN_OR_RETURN(std::unique_ptr<SegmentStore> store,
                               SegmentStore::Open(options));
    const int64_t t1 = NowNs();
    layers_.open_ns += t1 - t0;
    layers_.segments_replayed += store->recovery_info().segments_replayed;
    spans_.Add("open worker " + std::to_string(w), 0, t0, t1);
  }
  return Status::OK();
}

Status Bench::Reopen(const std::string& root) {
  std::vector<std::map<Gid, int>> group_sizes(kWorkers);
  for (const TimeSeriesGroup& group : groups_) {
    group_sizes[engine_->WorkerOf(group.gid)][group.gid] =
        static_cast<int>(group.tids.size());
  }
  engine_.reset();
  if (options_.trace) MODELARDB_RETURN_NOT_OK(TracedOpen(root, group_sizes));
  std::vector<double> times;
  for (int i = 0; i < kReopens; ++i) {
    ++attempted_;
    engine_.reset();
    const int64_t t0 = NowNs();
    MODELARDB_ASSIGN_OR_RETURN(engine_, CreateEngine(root));
    times.push_back(Seconds(NowNs() - t0));
  }
  reopen_s_ = Median(times);
  return Status::OK();
}

Result<QueryResult> Bench::RunQuery(const std::string& class_name,
                                    const BenchQuery& query, bool traced) {
  ++attempted_;
  if (!traced) return engine_->Execute(query.sql);
  LayerTotals::QueryLayers& layer = layers_.queries[class_name];
  const int64_t t0 = NowNs();
  MODELARDB_ASSIGN_OR_RETURN(modelardb::query::Query ast,
                             modelardb::query::ParseQuery(query.sql));
  const int64_t t1 = NowNs();
  const modelardb::query::QueryEngine& engine = engine_->query_engine();
  MODELARDB_ASSIGN_OR_RETURN(modelardb::query::CompiledQuery compiled,
                             engine.Compile(ast));
  const int64_t t2 = NowNs();
  // One task per worker on the engine's pool, as ClusterEngine::Execute.
  std::vector<modelardb::query::PartialResult> partials(kWorkers);
  std::vector<Status> statuses(kWorkers);
  {
    TaskGroup group(engine_->pool());
    for (int w = 0; w < kWorkers; ++w) {
      group.Submit([&, w] {
        auto partial = engine_->ExecuteOnWorker(compiled, w);
        if (partial.ok()) {
          partials[w] = std::move(*partial);
        } else {
          statuses[w] = partial.status();
        }
      });
    }
    group.Wait();
  }
  const int64_t t3 = NowNs();
  for (const Status& status : statuses) MODELARDB_RETURN_NOT_OK(status);
  for (const auto& partial : partials) layer.scan.Merge(partial.scan);
  MODELARDB_ASSIGN_OR_RETURN(
      QueryResult result, engine.MergeFinalize(compiled, std::move(partials)));
  const int64_t t4 = NowNs();
  layer.parse_ns += t1 - t0;
  layer.compile_ns += t2 - t1;
  layer.workers_ns += t3 - t2;
  layer.merge_ns += t4 - t3;
  const int64_t span = spans_.Add("query " + class_name, 0, t0, t4);
  spans_.Add("parse", span, t0, t1);
  spans_.Add("compile", span, t1, t2);
  spans_.Add("workers", span, t2, t3);
  spans_.Add("merge", span, t3, t4);
  return result;
}

void Bench::TimedPass(bool traced, bool compare, PassTimings* timings) {
  size_t index = 0;
  for (const QueryClass& c : classes_) {
    double total_ms = 0.0;
    for (const BenchQuery& query : c.queries) {
      const int64_t t0 = NowNs();
      Result<QueryResult> result = RunQuery(c.name, query, traced);
      const double ms = static_cast<double>(NowNs() - t0) * 1e-6;
      total_ms += ms;
      if (c.name == "sagg_sv" || c.name == "pr") {
        timings->samples_ms[c.name].push_back(ms);
      }
      if (!result.ok()) {
        ++failed_;
        std::fprintf(stderr, "e2ebench: query failed [%s]: %s\n",
                     query.sql.c_str(), result.status().ToString().c_str());
      } else if (compare && HashResult(*result) != reference_[index]) {
        Fail(Status::Internal("answer differs from the checked pass [" +
                              query.sql + "]"));
      }
      ++index;
    }
    timings->pass_mean_ms[c.name].push_back(
        total_ms / static_cast<double>(c.queries.size()));
  }
}

void Bench::TimePasses(bool traced, int64_t start_ns, PassTimings* timings) {
  int passes = 0;
  while (traced ? passes < kTracedPasses
                : (passes < kMinPasses ||
                   Seconds(NowNs() - start_ns) < options_.seconds)) {
    TimedPass(traced, /*compare=*/true, timings);
    ++passes;
  }
}

Result<std::vector<uint64_t>> Bench::CheckedPass() {
  std::vector<uint64_t> hashes;
  std::map<std::string, std::vector<QueryResult>> answers;
  for (const QueryClass& c : classes_) {
    for (const BenchQuery& query : c.queries) {
      Result<QueryResult> result = RunQuery(c.name, query, false);
      if (!result.ok()) {
        ++failed_;
        std::fprintf(stderr, "e2ebench: query failed [%s]: %s\n",
                     query.sql.c_str(), result.status().ToString().c_str());
        if (c.name != "magg" && c.name != "pr") {
          answers[c.name].emplace_back();
        }
        hashes.push_back(0);
        continue;
      }
      Status status = CheckAnswer(*truth_, query, *result);
      if (!status.ok()) Fail(status);
      hashes.push_back(HashResult(*result));
      // Only the S-AGG and L-AGG answers are compared across views.
      if (c.name != "magg" && c.name != "pr") {
        answers[c.name].push_back(std::move(*result));
      }
    }
  }
  for (const char* cls : {"sagg", "lagg"}) {
    const std::string sv = std::string(cls) + "_sv";
    const std::string dpv = std::string(cls) + "_dpv";
    const QueryClass* c = nullptr;
    for (const QueryClass& q : classes_) {
      if (q.name == sv) c = &q;
    }
    for (size_t i = 0; i < c->queries.size(); ++i) {
      Status status = CheckViewsAgree(*truth_, c->queries[i], answers[sv][i],
                                      answers[dpv][i]);
      if (!status.ok()) Fail(status);
    }
  }
  return hashes;
}

// "PMC-Mean" -> "pmc_mean", the library's metric label convention.
std::string Bench::ModelLabel(modelardb::Mid mid) const {
  Result<std::string> name = registry_.ModelName(mid);
  std::string out;
  for (char c : name.ok() ? *name : std::string("other")) {
    const auto u = static_cast<unsigned char>(c);
    out += std::isalnum(u) ? static_cast<char>(std::tolower(u)) : '_';
  }
  return out;
}

void Bench::CollectIngestLayers() {
  segments_per_model_.clear();
  points_per_model_.clear();
  coordinator_stats_ = {};
  for (int w = 0; w < engine_->num_workers(); ++w) {
    for (const auto& [gid, coordinator] :
         engine_->worker(w)->coordinators()) {
      const modelardb::CoordinatorStats& cs =
          coordinator->coordinator_stats();
      coordinator_stats_.splits += cs.splits;
      coordinator_stats_.joins += cs.joins;
      coordinator_stats_.join_attempts += cs.join_attempts;
      const modelardb::IngestStats stats = coordinator->stats();
      for (const auto& [mid, n] : stats.segments_per_model) {
        segments_per_model_[ModelLabel(mid)] += n;
      }
      for (const auto& [mid, n] : stats.values_per_model) {
        points_per_model_[ModelLabel(mid)] += n;
      }
    }
  }
}

int Bench::Run() {
  Status status = Setup();
  setup_s_ = Seconds(NowNs() - start_ns_);
  if (!status.ok()) {
    std::fprintf(stderr, "e2ebench: setup failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  truth_ = std::make_unique<Truth>(&inputs_, kErrorBoundPercent / 100.0);
  classes_ =
      MakeQueryClasses(inputs_, kSaggQueries, kPrQueries, options_.seed);
  const bool traced = options_.trace;
  auto abort_run = [&](const Status& s) {
    std::fprintf(stderr, "e2ebench: %s failed: %s\n", spec_.name,
                 s.ToString().c_str());
    return 1;
  };

  PassTimings timings;
  std::vector<double> ingest_rates;
  std::vector<uint64_t> hot_hashes;
  CounterSnapshot before_ingest = CounterSnapshot::Take();
  CounterSnapshot after_ingest = before_ingest;
  CounterSnapshot before_queries = before_ingest;
  CounterSnapshot after_queries = before_ingest;
  if (!spec_.online) {
    // Cold: repeated full ingests into fresh roots; the last one is kept.
    // The traced run ingests twice: once through RunPipeline and once
    // through its own driver, and the two stores must hold the same bytes.
    const int rounds = traced ? 2 : spec_.ingest_rounds;
    int64_t untraced_bytes = -1;
    for (int r = 0; r < rounds; ++r) {
      if (r > 0) {
        engine_.reset();
        fs::remove_all(root_);
        root_ = options_.workdir + "/store" + std::to_string(r);
        Result<std::unique_ptr<ClusterEngine>> engine = CreateEngine(root_);
        if (!engine.ok()) return abort_run(engine.status());
        engine_ = std::move(*engine);
      }
      const bool traced_round = traced && r == rounds - 1;
      ingested_points_ = 0;
      if (traced_round) before_ingest = CounterSnapshot::Take();
      Result<double> seconds =
          Ingest(engine_.get(), 0, inputs_.rows, traced_round);
      if (!seconds.ok()) return abort_run(seconds.status());
      if (traced_round) after_ingest = CounterSnapshot::Take();
      ingest_rates.push_back(static_cast<double>(ingested_points_) / *seconds);
      const int64_t bytes = DirectoryBytes(root_);
      if (untraced_bytes >= 0 && traced_round && bytes != untraced_bytes) {
        Fail(Status::Internal("traced ingest stored " + std::to_string(bytes) +
                              " bytes, RunPipeline " +
                              std::to_string(untraced_bytes)));
      }
      untraced_bytes = bytes;
    }
    if (!traced) after_ingest = CounterSnapshot::Take();
    if (spec_.compare_hot_cold) {
      Result<std::vector<uint64_t>> hashes = CheckedPass();
      if (!hashes.ok()) return abort_run(hashes.status());
      hot_hashes = std::move(*hashes);
    }
  } else {
    // Online: fixed ingest slices, each followed by one pass of every
    // class on the hot store, so every write after the first slice lands
    // beside finished reads. Those passes are not timed: the store grows
    // between them. The query metrics come from the passes after the last
    // slice, on the hot, un-checkpointed store, until `--seconds` have
    // passed since the first slice.
    const int64_t online_start = NowNs();
    before_ingest = CounterSnapshot::Take();
    PassTimings interleaved;
    for (int k = 0; k < spec_.slices; ++k) {
      const int64_t begin = inputs_.rows * k / spec_.slices;
      const int64_t end = inputs_.rows * (k + 1) / spec_.slices;
      const int64_t points_before = ingested_points_;
      Result<double> seconds = Ingest(engine_.get(), begin, end, traced);
      if (!seconds.ok()) return abort_run(seconds.status());
      ingest_rates.push_back(
          static_cast<double>(ingested_points_ - points_before) / *seconds);
      TimedPass(traced, /*compare=*/false, &interleaved);
    }
    after_ingest = CounterSnapshot::Take();
    Result<std::vector<uint64_t>> hashes = CheckedPass();
    if (!hashes.ok()) return abort_run(hashes.status());
    hot_hashes = std::move(*hashes);
    reference_ = hot_hashes;
    before_queries = CounterSnapshot::Take();
    TimePasses(traced, online_start, &timings);
    after_queries = CounterSnapshot::Take();
  }
  if (Status s = CheckIngestedPoints(ingested_points_, inputs_.data_points);
      !s.ok()) {
    Fail(s);
  }
  CollectIngestLayers();

  int64_t segments_before = 0;
  for (int w = 0; w < engine_->num_workers(); ++w) {
    segments_before += engine_->worker(w)->store()->NumSegments();
  }
  if (Status s = Checkpoint(engine_.get()); !s.ok()) return abort_run(s);
  stored_bytes_ = DirectoryBytes(root_);
  if (Status s = Reopen(root_); !s.ok()) return abort_run(s);
  int64_t segments_after = 0, replayed = 0;
  for (int w = 0; w < engine_->num_workers(); ++w) {
    const SegmentStore* store = engine_->worker(w)->store();
    segments_after += store->NumSegments();
    replayed += store->recovery_info().segments_replayed;
  }
  if (Status s = CheckReopen(segments_before, segments_after, replayed);
      !s.ok()) {
    Fail(s);
  }

  Result<std::vector<uint64_t>> checked = CheckedPass();
  if (!checked.ok()) return abort_run(checked.status());
  reference_ = std::move(*checked);
  if (!hot_hashes.empty() && hot_hashes != reference_) {
    for (size_t i = 0, q = 0; i < classes_.size(); ++i) {
      for (const BenchQuery& query : classes_[i].queries) {
        if (hot_hashes[q] != reference_[q]) {
          Fail(Status::Internal("answer before the checkpoint differs from "
                                "the answer after the reopen [" +
                                query.sql + "]"));
        }
        ++q;
      }
    }
  }

  if (!spec_.online) {
    before_queries = CounterSnapshot::Take();
    TimePasses(traced, NowNs(), &timings);
    after_queries = CounterSnapshot::Take();
  }

  layers_.cow_copies = after_ingest.cow - before_ingest.cow;
  layers_.block_rebuilds = after_ingest.rebuilds - before_ingest.rebuilds;
  layers_.wal_bytes = after_ingest.wal_bytes - before_ingest.wal_bytes;
  layers_.wal_fsyncs = after_ingest.wal_fsyncs - before_ingest.wal_fsyncs;
  // Pool and decode counts cover the timed passes.
  const CounterSnapshot& q0 = before_queries;
  const CounterSnapshot& q1 = after_queries;
  layers_.pool_tasks = q1.tasks - q0.tasks;
  layers_.help_steals = q1.steals - q0.steals;
  layers_.values_simd = q1.vsimd - q0.vsimd;
  layers_.values_scalar = q1.vscalar - q0.vscalar;
  layers_.folds_simd = q1.fsimd - q0.fsimd;
  layers_.folds_scalar = q1.fscalar - q0.fscalar;
  return Finish(Median(ingest_rates), reopen_s_, timings);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Bench::Finish(double ingest_points_per_s, double reopen_s,
                  const PassTimings& timings) {
  std::vector<Metric> m;
  const char* kClasses[] = {"sagg_sv", "sagg_dpv", "lagg_sv",
                            "lagg_dpv", "magg", "pr"};
  if (!options_.trace) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    m.push_back({"setup_s", setup_s_, "s"});
    m.push_back({"ingest_points_per_s", ingest_points_per_s, "points/s"});
    m.push_back({"bytes_per_point",
                 static_cast<double>(stored_bytes_) /
                     static_cast<double>(inputs_.data_points),
                 "bytes"});
    m.push_back({"reopen_s", reopen_s, "s"});
    for (const char* c : kClasses) {
      m.push_back({std::string(c) + "_ms",
                   Median(timings.pass_mean_ms.at(c)), "ms"});
    }
    m.push_back({"sagg_sv_p99_ms",
                 Percentile(timings.samples_ms.at("sagg_sv"), 0.99), "ms"});
    m.push_back({"pr_p99_ms", Percentile(timings.samples_ms.at("pr"), 0.99),
                 "ms"});
    m.push_back({"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
                 "MiB"});
  } else {
    const LayerTotals& l = layers_;
    auto s = [](int64_t ns) { return Seconds(ns); };
    auto n = [](int64_t v) { return static_cast<double>(v); };
    m.push_back({"ingest.source_s", s(l.source_ns), "s"});
    m.push_back({"ingest.pipeline_s", s(l.pipeline_ns), "s"});
    m.push_back({"cluster.flush_all_s", s(l.flush_all_ns), "s"});
    m.push_back({"core.fit_s", s(l.fit_ns), "s"});
    for (const char* model : {"pmc_mean", "swing", "gorilla", "raw"}) {
      auto seg = segments_per_model_.find(model);
      auto pts = points_per_model_.find(model);
      m.push_back({std::string("core.segments.") + model,
                   seg == segments_per_model_.end() ? 0.0 : n(seg->second),
                   "count"});
      m.push_back({std::string("core.points.") + model,
                   pts == points_per_model_.end() ? 0.0 : n(pts->second),
                   "count"});
    }
    const modelardb::CoordinatorStats& cs = coordinator_stats_;
    m.push_back({"core.splits", n(cs.splits), "count"});
    m.push_back({"core.joins", n(cs.joins), "count"});
    m.push_back({"core.join_attempts", n(cs.join_attempts), "count"});
    m.push_back({"core.join_success",
                 cs.join_attempts == 0 ? 0.0
                                       : n(cs.joins) / n(cs.join_attempts),
                 "ratio"});
    m.push_back({"storage.put_s", s(l.put_ns), "s"});
    m.push_back({"storage.cow_copies", n(l.cow_copies), "count"});
    m.push_back({"storage.block_rebuilds", n(l.block_rebuilds), "count"});
    m.push_back({"storage.flush_s", s(l.store_flush_ns), "s"});
    m.push_back({"storage.wal_bytes", n(l.wal_bytes), "bytes"});
    m.push_back({"storage.wal_fsyncs", n(l.wal_fsyncs), "count"});
    m.push_back({"storage.checkpoint_s", s(l.checkpoint_ns), "s"});
    m.push_back({"storage.slab_bytes", n(l.slab_bytes), "bytes"});
    m.push_back({"storage.open_s", s(l.open_ns), "s"});
    m.push_back({"storage.segments_replayed", n(l.segments_replayed), "count"});
    for (const char* c : kClasses) {
      const std::string p = std::string("query.") + c + ".";
      const LayerTotals::QueryLayers& q = l.queries.at(c);
      m.push_back({p + "parse_s", s(q.parse_ns), "s"});
      m.push_back({p + "compile_s", s(q.compile_ns), "s"});
      m.push_back({p + "workers_s", s(q.workers_ns), "s"});
      m.push_back({p + "merge_s", s(q.merge_ns), "s"});
      m.push_back({p + "blocks_skipped", n(q.scan.blocks_skipped), "count"});
      m.push_back({p + "blocks_summarized", n(q.scan.blocks_summarized),
                   "count"});
      m.push_back({p + "blocks_scanned", n(q.scan.blocks_scanned), "count"});
      m.push_back({p + "segments_scanned", n(q.scan.segments_scanned),
                   "count"});
      m.push_back({p + "segments_decoded", n(q.scan.segments_decoded),
                   "count"});
      m.push_back({p + "bytes_decoded", n(q.scan.bytes_decoded), "bytes"});
      m.push_back({p + "cold_pins", n(q.scan.cold_pins), "count"});
      m.push_back({p + "cpu_s", s(q.scan.cpu_ns), "s"});
      m.push_back({p + "queue_wait_s", s(q.scan.queue_wait_ns), "s"});
      const int64_t covered = q.scan.blocks_summarized + q.scan.blocks_scanned;
      m.push_back({p + "summarized_share",
                   covered == 0 ? 0.0
                                : n(q.scan.blocks_summarized) / n(covered),
                   "ratio"});
    }
    m.push_back({"pool.tasks", n(l.pool_tasks), "count"});
    m.push_back({"pool.help_steals", n(l.help_steals), "count"});
    m.push_back({"decode.values_simd", n(l.values_simd), "count"});
    m.push_back({"decode.values_scalar", n(l.values_scalar), "count"});
    m.push_back({"decode.folds_simd", n(l.folds_simd), "count"});
    m.push_back({"decode.folds_scalar", n(l.folds_scalar), "count"});
    std::error_code ec;
    fs::create_directories(options_.out_dir, ec);
    const std::string path = options_.out_dir + "/trace-" + spec_.name +
                             "-" + std::to_string(options_.seed) + ".jsonl";
    if (!spans_.Write(path, start_ns_)) {
      std::fprintf(stderr, "e2ebench: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  std::fprintf(stderr,
               "e2ebench: %s seed %llu: %lld points, %lld stored bytes, "
               "%d ingests\n",
               spec_.name, static_cast<unsigned long long>(options_.seed),
               static_cast<long long>(inputs_.data_points),
               static_cast<long long>(stored_bytes_), ingest_count_);
  if (!correct_) {
    std::fprintf(stderr, "e2ebench: FAILED: %s\n", first_error_.c_str());
  }
  PrintResult(correct_, attempted_, failed_, m);
  return correct_ ? 0 : 1;
}

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      options->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || options->seconds < 1) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (key == "--workdir") {
      options->workdir = value;
    } else if (key == "--out-dir") {
      options->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty();
}

// Removes the run's inputs and stores on every exit path.
struct WorkdirGuard {
  std::string path;
  ~WorkdirGuard() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  const int64_t start_ns = e2ebench::NowNs();
  e2ebench::Options options;
  if (!e2ebench::ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--workdir <dir>] [--out-dir <dir>]\n");
    return 2;
  }
  for (const e2ebench::WorkloadSpec& spec : e2ebench::Workloads()) {
    if (options.workload != spec.name) continue;
    if (options.workdir.empty()) {
      options.workdir = ".bench_tmp/run-" + std::to_string(::getpid());
    }
    e2ebench::WorkdirGuard guard{options.workdir};
    std::filesystem::remove_all(options.workdir);
    std::filesystem::create_directories(options.workdir);
    e2ebench::Bench bench(options, spec, start_ns);
    return bench.Run();
  }
  std::fprintf(stderr, "e2ebench: unknown workload '%s'\n",
               options.workload.c_str());
  return 2;
}
