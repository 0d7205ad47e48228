// Answer checks of the end-to-end benchmark, computed apart from the
// program: expected answers come from the raw per-series arrays of
// Inputs (the generator's RawValue/Present), never from the engine.
//
// Tolerances follow the paper's guarantee (Def 4, uniform error norm):
// every reconstructed value v' of a raw value v satisfies
// |v' - v| <= eps * |v|. Hence COUNT is exact, MIN and MAX lie within
// eps * |v| of the true extreme (v - eps|v| is monotone in v), SUM within
// eps * sum |v_i|, and AVG within that bound divided by the exact count.
// A relative slack of 1e-6 and an absolute slack of 1e-9 absorb the
// float32 rounding of stored values and scaling constants.

#ifndef MODELARDB_E2EBENCH_CHECKS_H_
#define MODELARDB_E2EBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <vector>

#include "inputs.h"
#include "query/result.h"
#include "util/status.h"

namespace e2ebench {

using modelardb::Status;
using modelardb::query::Cell;
using modelardb::query::QueryResult;

class Truth {
 public:
  // `epsilon` is the relative error bound as a fraction (0.01 == 1%).
  Truth(const Inputs* inputs, double epsilon);

  // Exact fold of the raw points of one answer group.
  struct Acc {
    int64_t count = 0;
    double sum = 0.0;
    double sum_abs = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  using Groups = std::map<std::vector<Cell>, Acc>;

  // Expected groups of an aggregate query (S-AGG, L-AGG or M-AGG), keyed
  // exactly as the engine renders the group-by cells.
  Groups ExpectedGroups(const BenchQuery& query) const;
  // Number of present raw points a point/range query selects.
  int64_t ExpectedRows(const BenchQuery& query) const;

  // Allowed distance of an answer from the exact aggregate `agg`
  // (0 COUNT, 1 MIN, 2 MAX, 3 SUM, 4 AVG) of `acc`.
  double Tolerance(int agg, const Acc& acc) const;
  // Allowed distance of a reconstructed value from raw value `v`.
  double ValueTolerance(double v) const;

  const Inputs& inputs() const { return *inputs_; }

 private:
  const Inputs* inputs_;
  double epsilon_;
  std::vector<int64_t> month_of_row_;  // Calendar month bucket per row.
};

// Index of a query's aggregate in {COUNT, MIN, MAX, SUM, AVG}.
int AggregateOf(const BenchQuery& query);

// Checks one answer against the independent computation.
Status CheckAnswer(const Truth& truth, const BenchQuery& query,
                   const QueryResult& answer);

// Checks that a Segment View aggregate and the Data Point View aggregate
// of the same specification agree within twice the truth's tolerance.
Status CheckViewsAgree(const Truth& truth, const BenchQuery& query,
                       const QueryResult& segment_view,
                       const QueryResult& data_point_view);

// Checks the ingest-side counts: points delivered to the generators equal
// the raw points, and a reopened store holds the checkpointed segments
// with nothing left to replay.
Status CheckIngestedPoints(int64_t ingested, int64_t raw_points);
Status CheckReopen(int64_t segments_before, int64_t segments_after,
                   int64_t segments_replayed);

// FNV-1a over the columns and every cell's type and bytes: equal hashes
// mean byte-identical answers.
uint64_t HashResult(const QueryResult& result);

}  // namespace e2ebench

#endif  // MODELARDB_E2EBENCH_CHECKS_H_
