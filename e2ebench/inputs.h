// Inputs of the end-to-end benchmark: the synthetic EP/EH data sets
// materialized into flat arrays before anything is timed, replay sources
// whose Next() only copies, the CSV files and deployment text of the
// CSV workload, and the fixed per-class query lists.

#ifndef MODELARDB_E2EBENCH_INPUTS_H_
#define MODELARDB_E2EBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ingest/pipeline.h"
#include "partition/partitioner.h"
#include "workload/dataset.h"
#include "workload/queries.h"

namespace e2ebench {

using modelardb::Gid;
using modelardb::SamplingInterval;
using modelardb::Tid;
using modelardb::Timestamp;
using modelardb::TimeSeriesGroup;
using modelardb::Value;

// Shape of one data set; the seed comes from the command line.
struct DataShape {
  modelardb::workload::DatasetKind kind = modelardb::workload::DatasetKind::kEp;
  int entities = 16;        // EP: turbines (6 series each).
  int parks = 2;            // EH only.
  int entities_per_park = 4;  // EH only (4 series each).
  int64_t rows = 100000;    // Sampling instants per series.
};

// The raw data set, generated once from the deterministic generator. The
// per-series arrays are the ground truth of every check; the per-group
// arrays are what the replay sources feed the engine.
struct Inputs {
  std::unique_ptr<modelardb::workload::SyntheticDataset> dataset;
  std::vector<TimeSeriesGroup> groups;  // Partitioned with BestHints().
  int64_t rows = 0;
  Timestamp start = 0;
  SamplingInterval si = 0;
  // [tid - 1][row]: raw (user-facing) value and presence.
  std::vector<std::vector<Value>> raw;
  std::vector<std::vector<uint8_t>> present;
  int64_t data_points = 0;  // Present raw points.

  // [gid - 1]: stored values (raw * the catalog's scaling constant) and
  // presence, row-major with the group's width; empty unless built.
  struct GroupRows {
    Gid gid = 0;
    int width = 0;
    std::vector<Value> values;
    std::vector<uint8_t> present;
  };
  std::vector<GroupRows> group_rows;

  int num_series() const { return static_cast<int>(raw.size()); }
  Timestamp TimestampAt(int64_t row) const { return start + row * si; }
};

// Generates and partitions the data set. `with_group_rows` also builds the
// replay arrays (not needed when ingesting from CSV).
modelardb::Result<Inputs> BuildInputs(const DataShape& shape, uint64_t seed,
                                      bool with_group_rows);

// One source per group replaying rows [row_begin, row_end) of the group
// arrays; Next() copies one row and nothing else.
std::vector<std::unique_ptr<modelardb::ingest::GroupRowSource>>
MakeReplaySources(const Inputs& inputs, int64_t row_begin, int64_t row_end);

// Writes one CSV file per series under `directory` (`<time ms>,<value>`
// lines, present points only, values printed so they parse back to the
// same float) and returns the deployment text that describes them, with
// the files named `<directory>/series<tid>.csv` and the data set's best
// hints.
modelardb::Result<std::string> WriteCsvDeployment(
    const Inputs& inputs, const std::string& directory);

// One query of a class: its SQL plus the specification the checks compute
// the expected answer from.
struct BenchQuery {
  enum class Kind { kAgg, kPointRange, kMultiDim };
  Kind kind = Kind::kAgg;
  std::string sql;
  modelardb::workload::AggSpec agg;
  modelardb::workload::PrSpec pr;
  modelardb::workload::MAggSpec magg;
};

struct QueryClass {
  std::string name;  // sagg_sv, sagg_dpv, lagg_sv, lagg_dpv, magg, pr.
  std::vector<BenchQuery> queries;
};

// The six classes of Figs 19-28 in their fixed order. The S-AGG lists
// (one per view, same specifications) have `sagg_count` queries and the
// P-R list `pr_count`, drawn from `seed`.
std::vector<QueryClass> MakeQueryClasses(const Inputs& inputs, int sagg_count,
                                         int pr_count, uint64_t seed);

}  // namespace e2ebench

#endif  // MODELARDB_E2EBENCH_INPUTS_H_
