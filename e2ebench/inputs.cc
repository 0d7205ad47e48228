#include "inputs.h"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "partition/correlation.h"

namespace e2ebench {

using modelardb::Result;
using modelardb::Status;
using modelardb::workload::DatasetKind;
using modelardb::workload::QueryTarget;
using modelardb::workload::SyntheticDataset;

Result<Inputs> BuildInputs(const DataShape& shape, uint64_t seed,
                           bool with_group_rows) {
  Inputs inputs;
  inputs.dataset = std::make_unique<SyntheticDataset>(
      shape.kind == DatasetKind::kEp
          ? SyntheticDataset::Ep(shape.entities, shape.rows, seed)
          : SyntheticDataset::Eh(shape.parks, shape.entities_per_park,
                                 shape.rows, seed));
  const SyntheticDataset& ds = *inputs.dataset;
  MODELARDB_ASSIGN_OR_RETURN(
      inputs.groups,
      modelardb::Partitioner::Partition(inputs.dataset->catalog(),
                                        ds.BestHints()));
  inputs.rows = shape.rows;
  inputs.start = ds.start_time();
  inputs.si = ds.si();
  const int n = ds.num_series();
  inputs.raw.assign(n, std::vector<Value>(inputs.rows));
  inputs.present.assign(n, std::vector<uint8_t>(inputs.rows));
  for (Tid tid = 1; tid <= n; ++tid) {
    std::vector<Value>& raw = inputs.raw[tid - 1];
    std::vector<uint8_t>& present = inputs.present[tid - 1];
    for (int64_t row = 0; row < inputs.rows; ++row) {
      present[row] = ds.Present(tid, row) ? 1 : 0;
      raw[row] = present[row] ? ds.RawValue(tid, row) : 0.0f;
      inputs.data_points += present[row];
    }
  }
  if (with_group_rows) {
    for (const TimeSeriesGroup& group : inputs.groups) {
      Inputs::GroupRows g;
      g.gid = group.gid;
      g.width = static_cast<int>(group.tids.size());
      g.values.resize(static_cast<size_t>(inputs.rows) * g.width);
      g.present.resize(g.values.size());
      for (int i = 0; i < g.width; ++i) {
        const Tid tid = group.tids[i];
        const double scaling = ds.catalog().Get(tid).scaling;
        for (int64_t row = 0; row < inputs.rows; ++row) {
          const size_t at = static_cast<size_t>(row) * g.width + i;
          g.present[at] = inputs.present[tid - 1][row];
          // Stored value = raw value * scaling constant (§3.3), as the
          // library's own dataset sources compute it.
          g.values[at] =
              g.present[at]
                  ? static_cast<Value>(inputs.raw[tid - 1][row] * scaling)
                  : 0.0f;
        }
      }
      inputs.group_rows.push_back(std::move(g));
    }
  }
  return inputs;
}

namespace {

class ReplaySource : public modelardb::ingest::GroupRowSource {
 public:
  ReplaySource(const Inputs* inputs, const Inputs::GroupRows* rows,
               int64_t row_begin, int64_t row_end)
      : inputs_(inputs), rows_(rows), next_(row_begin), end_(row_end) {}

  Gid gid() const override { return rows_->gid; }

  Result<bool> Next(modelardb::GroupRow* row) override {
    if (next_ >= end_) return false;
    const size_t width = static_cast<size_t>(rows_->width);
    const size_t at = static_cast<size_t>(next_) * width;
    row->timestamp = inputs_->TimestampAt(next_);
    row->values.assign(rows_->values.begin() + at,
                       rows_->values.begin() + at + width);
    row->present.resize(width);
    for (size_t i = 0; i < width; ++i) {
      row->present[i] = rows_->present[at + i] != 0;
    }
    ++next_;
    return true;
  }

 private:
  const Inputs* inputs_;
  const Inputs::GroupRows* rows_;
  int64_t next_;
  int64_t end_;
};

}  // namespace

std::vector<std::unique_ptr<modelardb::ingest::GroupRowSource>>
MakeReplaySources(const Inputs& inputs, int64_t row_begin, int64_t row_end) {
  std::vector<std::unique_ptr<modelardb::ingest::GroupRowSource>> sources;
  sources.reserve(inputs.group_rows.size());
  for (const Inputs::GroupRows& rows : inputs.group_rows) {
    sources.push_back(
        std::make_unique<ReplaySource>(&inputs, &rows, row_begin, row_end));
  }
  return sources;
}

Result<std::string> WriteCsvDeployment(const Inputs& inputs,
                                       const std::string& directory) {
  std::filesystem::create_directories(directory);
  const modelardb::TimeSeriesCatalog& catalog =
      std::as_const(*inputs.dataset).catalog();
  std::string config;
  for (const modelardb::Dimension& dim : catalog.dimensions()) {
    config += "modelardb.dimension = " + dim.name();
    for (int level = 1; level <= dim.height(); ++level) {
      config += " " + dim.LevelName(level);
    }
    config += "\n";
  }
  std::vector<char> buffer;
  for (Tid tid = 1; tid <= inputs.num_series(); ++tid) {
    const std::string path =
        directory + "/series" + std::to_string(tid) + ".csv";
    buffer.clear();
    char line[64];
    for (int64_t row = 0; row < inputs.rows; ++row) {
      if (!inputs.present[tid - 1][row]) continue;
      // `<time>,<value>\n`; the value in the shortest representation that
      // parses back to the same float. 64 bytes hold any such line.
      char* end = std::to_chars(line, line + 32, inputs.TimestampAt(row)).ptr;
      *end = ',';
      end = std::to_chars(end + 1, line + 62, inputs.raw[tid - 1][row]).ptr;
      *end = '\n';
      buffer.insert(buffer.end(), line, end + 1);
    }
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) return Status::IOError("cannot create " + path);
    const size_t written = std::fwrite(buffer.data(), 1, buffer.size(), file);
    const bool closed = std::fclose(file) == 0;
    if (written != buffer.size() || !closed) {
      return Status::IOError("cannot write " + path);
    }
    const modelardb::TimeSeriesMeta& meta = catalog.Get(tid);
    config += "modelardb.series = " + path + " " + std::to_string(meta.si);
    for (const modelardb::MemberPath& members : meta.members) {
      config += " ";
      for (size_t level = 0; level < members.size(); ++level) {
        if (level > 0) config += "/";
        config += members[level];
      }
    }
    config += "\n";
  }
  // The data set's best hints (§7.3), spelled as configuration text.
  const modelardb::PartitionHints hints = inputs.dataset->BestHints();
  for (const modelardb::CorrelationClause& clause : hints.clauses) {
    if (!clause.distance_threshold.has_value() || !clause.members.empty() ||
        !clause.sources.empty() || !clause.lca_requirements.empty()) {
      return Status::InvalidArgument(
          "only distance hints can be written as CSV deployment text");
    }
    char threshold[64];
    std::snprintf(threshold, sizeof(threshold), "%.17g",
                  *clause.distance_threshold);
    config += std::string("modelardb.correlation = distance ") + threshold +
              "\n";
  }
  return config;
}

std::vector<QueryClass> MakeQueryClasses(const Inputs& inputs, int sagg_count,
                                         int pr_count, uint64_t seed) {
  namespace wl = modelardb::workload;
  const SyntheticDataset& ds = *inputs.dataset;
  auto agg_class = [&](const char* name,
                       const std::vector<wl::AggSpec>& specs,
                       QueryTarget target) {
    QueryClass c{name, {}};
    for (const wl::AggSpec& spec : specs) {
      BenchQuery q;
      q.kind = BenchQuery::Kind::kAgg;
      q.agg = spec;
      q.sql = wl::ToSql(spec, target);
      c.queries.push_back(std::move(q));
    }
    return c;
  };
  const std::vector<wl::AggSpec> sagg =
      wl::MakeSAggSpecs(ds, sagg_count, seed ^ 0x5a66ull);
  const std::vector<wl::AggSpec> lagg = wl::MakeLAggSpecs(ds);
  std::vector<QueryClass> classes;
  classes.push_back(agg_class("sagg_sv", sagg, QueryTarget::kSegmentView));
  classes.push_back(agg_class("sagg_dpv", sagg, QueryTarget::kDataPointView));
  classes.push_back(agg_class("lagg_sv", lagg, QueryTarget::kSegmentView));
  classes.push_back(agg_class("lagg_dpv", lagg, QueryTarget::kDataPointView));
  QueryClass magg{"magg", {}};
  for (bool drill_down : {false, true}) {
    for (const wl::MAggSpec& spec : wl::MakeMAggSpecs(ds, drill_down)) {
      BenchQuery q;
      q.kind = BenchQuery::Kind::kMultiDim;
      q.magg = spec;
      q.sql = wl::ToSql(spec, ds, QueryTarget::kSegmentView);
      magg.queries.push_back(std::move(q));
    }
  }
  classes.push_back(std::move(magg));
  QueryClass pr{"pr", {}};
  for (const wl::PrSpec& spec :
       wl::MakePRSpecs(ds, pr_count, seed ^ 0x9e11ull)) {
    BenchQuery q;
    q.kind = BenchQuery::Kind::kPointRange;
    q.pr = spec;
    q.sql = wl::ToSql(spec);
    pr.queries.push_back(std::move(q));
  }
  classes.push_back(std::move(pr));
  return classes;
}

}  // namespace e2ebench
