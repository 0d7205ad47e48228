// The benchmark's answer checks must reject wrong answers: at a tiny scale,
// real answers pass, and perturbed copies of them (a changed count, a value
// pushed past the error bound, a dropped row or group) are rejected.

#include <gtest/gtest.h>

#include <cmath>
#include <variant>

#include "checks.h"
#include "cluster/cluster.h"
#include "ingest/pipeline.h"

namespace e2ebench {
namespace {

using modelardb::query::QueryResult;

constexpr double kEpsilon = 0.01;

class ChecksTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DataShape shape;
    shape.kind = modelardb::workload::DatasetKind::kEp;
    shape.entities = 2;
    shape.rows = 50000;  // 35 days: two calendar months for M-AGG.
    auto inputs = BuildInputs(shape, /*seed=*/7, /*with_group_rows=*/true);
    ASSERT_TRUE(inputs.ok()) << inputs.status().ToString();
    inputs_ = new Inputs(std::move(*inputs));
    registry_ = new modelardb::ModelRegistry(
        modelardb::ModelRegistry::Default());
    modelardb::cluster::ClusterConfig config;
    config.num_workers = 2;
    config.error_bound = modelardb::ErrorBound::Relative(kEpsilon * 100.0);
    auto engine = modelardb::cluster::ClusterEngine::Create(
        &std::as_const(*inputs_->dataset).catalog(), inputs_->groups,
        registry_, config);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = engine->release();
    auto report = modelardb::ingest::RunPipeline(
        engine_, MakeReplaySources(*inputs_, 0, inputs_->rows), {});
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ingested_ = report->data_points;
    truth_ = new Truth(inputs_, kEpsilon);
    classes_ = new std::vector<QueryClass>(
        MakeQueryClasses(*inputs_, /*sagg_count=*/12, /*pr_count=*/12,
                         /*seed=*/7));
  }

  static void TearDownTestSuite() {
    delete classes_;
    delete truth_;
    delete engine_;
    delete registry_;
    delete inputs_;
  }

  static const QueryClass& Class(const std::string& name) {
    for (const QueryClass& c : *classes_) {
      if (c.name == name) return c;
    }
    ADD_FAILURE() << "no class " << name;
    return classes_->front();
  }

  static QueryResult Answer(const BenchQuery& query) {
    auto result = engine_->Execute(query.sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : QueryResult{};
  }

  // First query of `class_name` with aggregate `agg` and a non-empty
  // answer.
  static const BenchQuery& FindAgg(const std::string& class_name, int agg) {
    for (const BenchQuery& q : Class(class_name).queries) {
      if (AggregateOf(q) == agg) return q;
    }
    ADD_FAILURE() << "no aggregate " << agg << " in " << class_name;
    return Class(class_name).queries.front();
  }

  // Moves the last cell of `row` beyond the bound of its group.
  static void PushPastBound(const BenchQuery& query, std::vector<Cell>* row) {
    const Truth::Groups expected = truth_->ExpectedGroups(query);
    const auto it =
        expected.find(std::vector<Cell>(row->begin(), row->end() - 1));
    ASSERT_NE(it, expected.end());
    const double tolerance = truth_->Tolerance(AggregateOf(query), it->second);
    row->back() = std::get<double>(row->back()) + 2.0 * tolerance + 1e-3;
  }

  static Inputs* inputs_;
  static modelardb::ModelRegistry* registry_;
  static modelardb::cluster::ClusterEngine* engine_;
  static int64_t ingested_;
  static Truth* truth_;
  static std::vector<QueryClass>* classes_;
};

Inputs* ChecksTest::inputs_ = nullptr;
modelardb::ModelRegistry* ChecksTest::registry_ = nullptr;
modelardb::cluster::ClusterEngine* ChecksTest::engine_ = nullptr;
int64_t ChecksTest::ingested_ = 0;
Truth* ChecksTest::truth_ = nullptr;
std::vector<QueryClass>* ChecksTest::classes_ = nullptr;

TEST_F(ChecksTest, RealAnswersPass) {
  EXPECT_TRUE(CheckIngestedPoints(ingested_, inputs_->data_points).ok());
  int checked = 0;
  for (const QueryClass& c : *classes_) {
    for (const BenchQuery& query : c.queries) {
      Status status = CheckAnswer(*truth_, query, Answer(query));
      EXPECT_TRUE(status.ok()) << status.ToString();
      ++checked;
    }
  }
  EXPECT_GT(checked, 30);
  const QueryClass& sv = Class("sagg_sv");
  const QueryClass& dpv = Class("sagg_dpv");
  for (size_t i = 0; i < sv.queries.size(); ++i) {
    Status status = CheckViewsAgree(*truth_, sv.queries[i],
                                    Answer(sv.queries[i]),
                                    Answer(dpv.queries[i]));
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

TEST_F(ChecksTest, ChangedCountIsRejected) {
  const BenchQuery& query = FindAgg("sagg_sv", 0);
  QueryResult answer = Answer(query);
  ASSERT_FALSE(answer.rows.empty());
  ASSERT_TRUE(CheckAnswer(*truth_, query, answer).ok());
  answer.rows[0].back() = std::get<int64_t>(answer.rows[0].back()) + 1;
  EXPECT_FALSE(CheckAnswer(*truth_, query, answer).ok());
}

TEST_F(ChecksTest, AggregatePastTheBoundIsRejected) {
  for (const char* cls : {"sagg_sv", "sagg_dpv", "lagg_sv", "lagg_dpv"}) {
    for (int agg = 1; agg <= 4; ++agg) {
      bool found = false;
      for (const BenchQuery& query : Class(cls).queries) {
        if (AggregateOf(query) != agg) continue;
        found = true;
        QueryResult answer = Answer(query);
        ASSERT_FALSE(answer.rows.empty());
        ASSERT_TRUE(CheckAnswer(*truth_, query, answer).ok()) << query.sql;
        PushPastBound(query, &answer.rows.back());
        EXPECT_FALSE(CheckAnswer(*truth_, query, answer).ok()) << query.sql;
        break;
      }
      if (std::string(cls).rfind("sagg", 0) == 0) {
        EXPECT_TRUE(found) << cls << " has no aggregate " << agg;
      }
    }
  }
}

TEST_F(ChecksTest, MultiDimensionalGroupsAreChecked) {
  for (const BenchQuery& query : Class("magg").queries) {
    QueryResult answer = Answer(query);
    ASSERT_GT(answer.rows.size(), 1u) << query.sql;
    ASSERT_TRUE(CheckAnswer(*truth_, query, answer).ok()) << query.sql;
    QueryResult pushed = answer;
    PushPastBound(query, &pushed.rows[pushed.rows.size() / 2]);
    EXPECT_FALSE(CheckAnswer(*truth_, query, pushed).ok()) << query.sql;
    QueryResult dropped = answer;
    dropped.rows.pop_back();
    EXPECT_FALSE(CheckAnswer(*truth_, query, dropped).ok()) << query.sql;
  }
}

TEST_F(ChecksTest, PointRangeRowsAreChecked) {
  int perturbed = 0;
  for (const BenchQuery& query : Class("pr").queries) {
    QueryResult answer = Answer(query);
    ASSERT_TRUE(CheckAnswer(*truth_, query, answer).ok()) << query.sql;
    if (answer.rows.empty()) continue;
    ++perturbed;
    QueryResult dropped = answer;
    dropped.rows.erase(dropped.rows.begin());
    EXPECT_FALSE(CheckAnswer(*truth_, query, dropped).ok()) << query.sql;
    QueryResult duplicated = answer;
    duplicated.rows.back() = duplicated.rows.front();
    if (duplicated.rows.size() > 1) {
      EXPECT_FALSE(CheckAnswer(*truth_, query, duplicated).ok()) << query.sql;
    }
    QueryResult pushed = answer;
    double& value = std::get<double>(pushed.rows.back()[2]);
    value += 2.0 * truth_->ValueTolerance(value) + 1e-3;
    EXPECT_FALSE(CheckAnswer(*truth_, query, pushed).ok()) << query.sql;
  }
  EXPECT_GT(perturbed, 0);
}

TEST_F(ChecksTest, ViewDisagreementIsRejected) {
  const BenchQuery& sv_query = FindAgg("lagg_sv", 3);
  size_t index = 0;
  while (&Class("lagg_sv").queries[index] != &sv_query) ++index;
  const BenchQuery& dpv_query = Class("lagg_dpv").queries[index];
  QueryResult sv = Answer(sv_query);
  const QueryResult dpv = Answer(dpv_query);
  ASSERT_TRUE(CheckViewsAgree(*truth_, sv_query, sv, dpv).ok());
  PushPastBound(sv_query, &sv.rows.back());
  EXPECT_FALSE(CheckViewsAgree(*truth_, sv_query, sv, dpv).ok());
}

TEST_F(ChecksTest, CountsAreChecked) {
  EXPECT_FALSE(CheckIngestedPoints(ingested_ - 1, inputs_->data_points).ok());
  EXPECT_TRUE(CheckReopen(100, 100, 0).ok());
  EXPECT_FALSE(CheckReopen(100, 99, 0).ok());
  EXPECT_FALSE(CheckReopen(100, 100, 3).ok());
}

TEST_F(ChecksTest, HashSeesOneUlp) {
  const BenchQuery& query = FindAgg("sagg_sv", 3);
  QueryResult answer = Answer(query);
  const uint64_t hash = HashResult(answer);
  EXPECT_EQ(hash, HashResult(Answer(query)));
  double& value = std::get<double>(answer.rows.back().back());
  value = std::nextafter(value, INFINITY);
  EXPECT_NE(hash, HashResult(answer));
}

}  // namespace
}  // namespace e2ebench
