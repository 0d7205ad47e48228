#include "checks.h"

#include <chrono>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <variant>

namespace e2ebench {
namespace {

constexpr double kRelativeSlack = 1e-6;
constexpr double kAbsoluteSlack = 1e-9;

// Calendar month of a timestamp as year * 12 + (month - 1), computed with
// <chrono> rather than the library's calendar code.
int64_t MonthBucket(Timestamp ms) {
  using namespace std::chrono;
  const sys_days day = floor<days>(sys_time<milliseconds>(milliseconds(ms)));
  const year_month_day ymd(day);
  return static_cast<int64_t>(static_cast<int>(ymd.year())) * 12 +
         (static_cast<unsigned>(ymd.month()) - 1);
}

bool AsNumber(const Cell& cell, double* out) {
  if (const auto* i = std::get_if<int64_t>(&cell)) {
    *out = static_cast<double>(*i);
    return true;
  }
  if (const auto* d = std::get_if<double>(&cell)) {
    *out = *d;
    return true;
  }
  return false;
}

double ExactValue(int agg, const Truth::Acc& acc) {
  switch (agg) {
    case 0:
      return static_cast<double>(acc.count);
    case 1:
      return acc.min;
    case 2:
      return acc.max;
    case 3:
      return acc.sum;
    default:
      return acc.count == 0 ? 0.0 : acc.sum / static_cast<double>(acc.count);
  }
}

std::vector<Tid> SelectedTids(const Inputs& inputs,
                              const std::vector<Tid>& tids) {
  if (!tids.empty()) return tids;
  std::vector<Tid> all;
  for (Tid tid = 1; tid <= inputs.num_series(); ++tid) all.push_back(tid);
  return all;
}

// Rows of [min_time, max_time] on the sampling grid, clamped to the data.
void RowRange(const Inputs& inputs, Timestamp min_time, Timestamp max_time,
              int64_t* first, int64_t* last) {
  const int64_t lo = min_time - inputs.start;
  const int64_t hi = max_time - inputs.start;
  *first = lo <= 0 ? 0 : (lo + inputs.si - 1) / inputs.si;
  *last = hi < 0 ? -1 : std::min(inputs.rows - 1, hi / inputs.si);
}

std::string Describe(const BenchQuery& query) { return "[" + query.sql + "] "; }

Status Mismatch(const BenchQuery& query, const std::string& what) {
  return Status::Internal("answer mismatch " + Describe(query) + what);
}

}  // namespace

Truth::Truth(const Inputs* inputs, double epsilon)
    : inputs_(inputs), epsilon_(epsilon) {
  month_of_row_.resize(inputs->rows);
  for (int64_t row = 0; row < inputs->rows; ++row) {
    month_of_row_[row] = MonthBucket(inputs->TimestampAt(row));
  }
}

int AggregateOf(const BenchQuery& query) {
  return query.kind == BenchQuery::Kind::kMultiDim ? query.magg.agg % 5
                                                   : query.agg.agg % 5;
}

Truth::Groups Truth::ExpectedGroups(const BenchQuery& query) const {
  Groups groups;
  auto fold = [](Acc* acc, double v) {
    if (acc->count == 0) {
      acc->min = v;
      acc->max = v;
    }
    ++acc->count;
    acc->sum += v;
    acc->sum_abs += std::abs(v);
    acc->min = std::min(acc->min, v);
    acc->max = std::max(acc->max, v);
  };
  const Inputs& in = *inputs_;
  if (query.kind == BenchQuery::Kind::kAgg) {
    for (Tid tid : SelectedTids(in, query.agg.tids)) {
      std::vector<Cell> key;
      if (query.agg.group_by_tid) key.emplace_back(static_cast<int64_t>(tid));
      Acc& acc = groups[key];
      const std::vector<Value>& raw = in.raw[tid - 1];
      const std::vector<uint8_t>& present = in.present[tid - 1];
      for (int64_t row = 0; row < in.rows; ++row) {
        if (present[row]) fold(&acc, raw[row]);
      }
    }
  } else if (query.kind == BenchQuery::Kind::kMultiDim) {
    const modelardb::workload::MAggSpec& spec = query.magg;
    const modelardb::TimeSeriesCatalog& catalog =
        std::as_const(*in.dataset).catalog();
    for (Tid tid = 1; tid <= in.num_series(); ++tid) {
      if (catalog.Member(tid, spec.where_dim, spec.where_level) !=
          spec.where_member) {
        continue;
      }
      std::vector<Cell> base{
          catalog.Member(tid, spec.group_dim, spec.group_level)};
      if (spec.also_group_by_tid) base.emplace_back(static_cast<int64_t>(tid));
      const std::vector<Value>& raw = in.raw[tid - 1];
      const std::vector<uint8_t>& present = in.present[tid - 1];
      Acc* acc = nullptr;
      int64_t acc_month = -1;
      for (int64_t row = 0; row < in.rows; ++row) {
        if (!present[row]) continue;
        if (acc == nullptr || month_of_row_[row] != acc_month) {
          acc_month = month_of_row_[row];
          std::vector<Cell> key = base;
          key.emplace_back(acc_month);
          acc = &groups[key];
        }
        fold(acc, raw[row]);
      }
    }
  }
  return groups;
}

int64_t Truth::ExpectedRows(const BenchQuery& query) const {
  const Inputs& in = *inputs_;
  int64_t first = 0, last = -1;
  RowRange(in, query.pr.min_time, query.pr.max_time, &first, &last);
  std::vector<Tid> tids;
  if (query.pr.tid != 0) tids.push_back(query.pr.tid);
  int64_t count = 0;
  for (Tid tid : SelectedTids(in, tids)) {
    for (int64_t row = first; row <= last; ++row) {
      count += in.present[tid - 1][row];
    }
  }
  return count;
}

double Truth::ValueTolerance(double v) const {
  return (epsilon_ + kRelativeSlack) * std::abs(v) + kAbsoluteSlack;
}

double Truth::Tolerance(int agg, const Acc& acc) const {
  const double sum_tolerance = (epsilon_ + kRelativeSlack) * acc.sum_abs +
                               kAbsoluteSlack * static_cast<double>(acc.count);
  switch (agg) {
    case 0:
      return 0.0;
    case 1:
      return ValueTolerance(acc.min);
    case 2:
      return ValueTolerance(acc.max);
    case 3:
      return sum_tolerance;
    default:
      return acc.count == 0 ? 0.0
                            : sum_tolerance / static_cast<double>(acc.count);
  }
}

Status CheckAnswer(const Truth& truth, const BenchQuery& query,
                   const QueryResult& answer) {
  const Inputs& in = truth.inputs();
  if (query.kind == BenchQuery::Kind::kPointRange) {
    if (answer.columns.size() != 3) {
      return Mismatch(query, "expected columns Tid, TS, Value");
    }
    int64_t first = 0, last = -1;
    RowRange(in, query.pr.min_time, query.pr.max_time, &first, &last);
    std::set<std::pair<int64_t, int64_t>> seen;
    for (const std::vector<Cell>& row : answer.rows) {
      const auto* tid = row.size() == 3 ? std::get_if<int64_t>(&row[0])
                                        : nullptr;
      const auto* ts = row.size() == 3 ? std::get_if<int64_t>(&row[1])
                                       : nullptr;
      const auto* value = row.size() == 3 ? std::get_if<double>(&row[2])
                                          : nullptr;
      if (tid == nullptr || ts == nullptr || value == nullptr) {
        return Mismatch(query, "malformed row");
      }
      if (*tid < 1 || *tid > in.num_series() ||
          (query.pr.tid != 0 && *tid != query.pr.tid)) {
        return Mismatch(query, "row of unselected Tid " + std::to_string(*tid));
      }
      const int64_t offset = *ts - in.start;
      if (offset < 0 || offset % in.si != 0 || offset / in.si < first ||
          offset / in.si > last) {
        return Mismatch(query, "row outside the range at TS " +
                                   std::to_string(*ts));
      }
      const int64_t r = offset / in.si;
      if (!in.present[*tid - 1][r]) {
        return Mismatch(query, "row inside a gap: Tid " +
                                   std::to_string(*tid) + " TS " +
                                   std::to_string(*ts));
      }
      if (!seen.emplace(*tid, r).second) {
        return Mismatch(query, "duplicate row");
      }
      const double raw = in.raw[*tid - 1][r];
      if (!(std::abs(*value - raw) <= truth.ValueTolerance(raw))) {
        return Mismatch(query, "value " + std::to_string(*value) +
                                   " of Tid " + std::to_string(*tid) +
                                   " TS " + std::to_string(*ts) +
                                   " is beyond the bound of raw " +
                                   std::to_string(raw));
      }
    }
    const int64_t expected = truth.ExpectedRows(query);
    if (static_cast<int64_t>(answer.rows.size()) != expected) {
      return Mismatch(query, "row count " +
                                 std::to_string(answer.rows.size()) +
                                 " != raw points " + std::to_string(expected));
    }
    return Status::OK();
  }

  const Truth::Groups expected = truth.ExpectedGroups(query);
  const int agg = AggregateOf(query);
  if (answer.rows.size() != expected.size()) {
    return Mismatch(query, "group count " + std::to_string(answer.rows.size()) +
                               " != " + std::to_string(expected.size()));
  }
  const size_t key_size =
      expected.empty() ? 0 : expected.begin()->first.size();
  for (const std::vector<Cell>& row : answer.rows) {
    if (row.size() != key_size + 1) return Mismatch(query, "malformed row");
    const std::vector<Cell> key(row.begin(), row.begin() + key_size);
    auto it = expected.find(key);
    if (it == expected.end()) return Mismatch(query, "unexpected group");
    const Truth::Acc& acc = it->second;
    if (agg == 0) {
      const auto* count = std::get_if<int64_t>(&row.back());
      if (count == nullptr || *count != acc.count) {
        return Mismatch(query, "COUNT differs from " +
                                   std::to_string(acc.count));
      }
      continue;
    }
    double got = 0.0;
    if (!AsNumber(row.back(), &got)) return Mismatch(query, "non-numeric");
    const double exact = ExactValue(agg, acc);
    if (!(std::abs(got - exact) <= truth.Tolerance(agg, acc))) {
      return Mismatch(query, "aggregate " + std::to_string(got) +
                                 " is beyond the bound of exact " +
                                 std::to_string(exact));
    }
  }
  return Status::OK();
}

Status CheckViewsAgree(const Truth& truth, const BenchQuery& query,
                       const QueryResult& segment_view,
                       const QueryResult& data_point_view) {
  const Truth::Groups expected = truth.ExpectedGroups(query);
  const int agg = AggregateOf(query);
  if (segment_view.rows.size() != data_point_view.rows.size()) {
    return Mismatch(query, "views return different group counts");
  }
  for (size_t i = 0; i < segment_view.rows.size(); ++i) {
    const std::vector<Cell>& sv = segment_view.rows[i];
    const std::vector<Cell>& dpv = data_point_view.rows[i];
    if (sv.size() != dpv.size() || sv.empty() ||
        !std::equal(sv.begin(), sv.end() - 1, dpv.begin())) {
      return Mismatch(query, "views return different groups");
    }
    auto it = expected.find(std::vector<Cell>(sv.begin(), sv.end() - 1));
    if (it == expected.end()) return Mismatch(query, "unexpected group");
    double a = 0.0, b = 0.0;
    if (!AsNumber(sv.back(), &a) || !AsNumber(dpv.back(), &b)) {
      return Mismatch(query, "non-numeric");
    }
    if (!(std::abs(a - b) <= 2.0 * truth.Tolerance(agg, it->second))) {
      return Mismatch(query, "Segment View " + std::to_string(a) +
                                 " and Data Point View " + std::to_string(b) +
                                 " disagree");
    }
  }
  return Status::OK();
}

Status CheckIngestedPoints(int64_t ingested, int64_t raw_points) {
  if (ingested != raw_points) {
    return Status::Internal("ingested " + std::to_string(ingested) +
                            " data points, the input has " +
                            std::to_string(raw_points));
  }
  return Status::OK();
}

Status CheckReopen(int64_t segments_before, int64_t segments_after,
                   int64_t segments_replayed) {
  if (segments_before != segments_after) {
    return Status::Internal("reopened store holds " +
                            std::to_string(segments_after) +
                            " segments, the checkpointed one " +
                            std::to_string(segments_before));
  }
  if (segments_replayed != 0) {
    return Status::Internal("reopen replayed " +
                            std::to_string(segments_replayed) +
                            " segments after a full checkpoint");
  }
  return Status::OK();
}

uint64_t HashResult(const QueryResult& result) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ull;
    }
  };
  for (const std::string& column : result.columns) {
    mix(column.data(), column.size() + 1);
  }
  for (const std::vector<Cell>& row : result.rows) {
    for (const Cell& cell : row) {
      const uint8_t tag = static_cast<uint8_t>(cell.index());
      mix(&tag, 1);
      if (const auto* i = std::get_if<int64_t>(&cell)) {
        mix(i, sizeof(*i));
      } else if (const auto* d = std::get_if<double>(&cell)) {
        mix(d, sizeof(*d));
      } else {
        const std::string& s = std::get<std::string>(cell);
        mix(s.data(), s.size() + 1);
      }
    }
    const uint8_t end_of_row = 0xff;
    mix(&end_of_row, 1);
  }
  return h;
}

}  // namespace e2ebench
