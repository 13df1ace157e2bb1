// CASE evaluation against an in-test per-row reference. The engine evaluates
// CASE over a selection vector (each WHEN only on rows no earlier WHEN
// claimed, each THEN only on its own rows); these cases pin the semantics
// that must survive that: first match wins, a NULL condition does not match,
// a missing ELSE yields NULL, aggregate/window results resolve per row,
// zero-row inputs keep the result type, and a subquery runs once.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "storage/table.h"
#include "util/rng.h"

namespace joinboost {
namespace {

using exec::Database;

constexpr size_t kRows = 3000;

/// t(k, g, x): k in [0, 20), g in [0, 7) with some NULLs, x double with
/// some NULLs. d(k, f) covers only k < 12, so a LEFT JOIN null-extends.
struct Data {
  std::vector<int64_t> k, g;
  std::vector<double> x;
  std::vector<int64_t> dk;
  std::vector<double> df;
};

Data MakeData() {
  Data d;
  Rng rng(0xCA5E);
  for (size_t i = 0; i < kRows; ++i) {
    d.k.push_back(rng.NextInt(0, 19));
    d.g.push_back(rng.NextInt(0, 9) == 0 ? kNullInt64 : rng.NextInt(0, 6));
    d.x.push_back(rng.NextInt(0, 9) == 0 ? NullFloat64()
                                         : rng.NextDouble() * 10 - 2);
  }
  for (int64_t k = 0; k < 12; ++k) {
    d.dk.push_back(k);
    d.df.push_back(static_cast<double>((k * 37) % 11));
  }
  return d;
}

class CaseEvalTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    std::string p = GetParam();
    EngineProfile prof = p == "X-row" ? EngineProfile::XRow()
                                      : EngineProfile::DSwap();
    if (p == "D-Swap-4t") {
      prof.exec_threads = 4;
      prof.morsel_rows = 256;
      prof.parallel_threshold_rows = 64;
    }
    db_ = std::make_unique<Database>(prof);
    data_ = MakeData();
    db_->LoadTable(TableBuilder("t")
                       .AddInts("k", data_.k)
                       .AddInts("g", data_.g)
                       .AddDoubles("x", data_.x)
                       .Build());
    db_->LoadTable(TableBuilder("d")
                       .AddInts("k", data_.dk)
                       .AddDoubles("f", data_.df)
                       .Build());
  }

  /// The single result column of `sql`, a bare scan and projection of t,
  /// which keep t's row order.
  std::vector<Value> Column(const std::string& sql) {
    auto res = db_->Query(sql);
    EXPECT_EQ(res->cols.size(), 1u);
    std::vector<Value> out;
    for (size_t r = 0; r < res->rows; ++r) out.push_back(res->GetValue(r, 0));
    return out;
  }

  std::unique_ptr<Database> db_;
  Data data_;
};

std::optional<double> Num(int64_t v) {
  if (v == kNullInt64) return std::nullopt;
  return static_cast<double>(v);
}
std::optional<double> Num(double v) {
  if (std::isnan(v)) return std::nullopt;
  return v;
}

void ExpectValue(const Value& got, std::optional<double> want, size_t row) {
  if (!want) {
    EXPECT_TRUE(got.null) << "row " << row;
    return;
  }
  ASSERT_FALSE(got.null) << "row " << row;
  EXPECT_EQ(got.AsDouble(), *want) << "row " << row;
}

TEST_P(CaseEvalTest, FirstMatchWinsOverOverlappingWhens) {
  auto got = Column(
      "SELECT CASE WHEN k > 14 THEN x WHEN k > 9 THEN x * 2 "
      "WHEN k > 4 THEN k ELSE 0 - x END AS v FROM t");
  ASSERT_EQ(got.size(), kRows);
  for (size_t i = 0; i < kRows; ++i) {
    std::optional<double> x = Num(data_.x[i]);
    std::optional<double> want;
    if (data_.k[i] > 14) {
      want = x;
    } else if (data_.k[i] > 9) {
      if (x) want = *x * 2;
    } else if (data_.k[i] > 4) {
      want = static_cast<double>(data_.k[i]);
    } else if (x) {
      want = 0 - *x;
    }
    ExpectValue(got[i], want, i);
  }
}

TEST_P(CaseEvalTest, NullConditionFallsThroughAndMissingElseIsNull) {
  // g is NULL on some rows: `g > 3` is then NULL, which never matches.
  auto got = Column(
      "SELECT CASE WHEN g > 3 THEN k WHEN x < 1 THEN g * 10 END AS v FROM t");
  ASSERT_EQ(got.size(), kRows);
  for (size_t i = 0; i < kRows; ++i) {
    std::optional<double> want;
    std::optional<double> g = Num(data_.g[i]);
    std::optional<double> x = Num(data_.x[i]);
    if (g && *g > 3) {
      want = static_cast<double>(data_.k[i]);
    } else if (x && *x < 1) {
      if (g) want = *g * 10;
    }
    ExpectValue(got[i], want, i);
  }
}

TEST_P(CaseEvalTest, WhenOnLeftJoinNullableColumn) {
  auto res = db_->Query(
      "SELECT t.k AS k, CASE WHEN d.f > 4 THEN 1 WHEN d.f IS NULL THEN 2 "
      "ELSE 3 END AS v FROM t LEFT JOIN d ON t.k = d.k ORDER BY k, v");
  ASSERT_EQ(res->rows, kRows);
  for (size_t r = 0; r < res->rows; ++r) {
    int64_t k = res->GetValue(r, 0).i;
    int64_t want =
        k >= 12 ? 2 : (data_.df[static_cast<size_t>(k)] > 4 ? 1 : 3);
    EXPECT_EQ(res->GetValue(r, 1).i, want) << "k " << k;
  }
}

TEST_P(CaseEvalTest, CaseOverAggregatesUsesGatheredOverrides) {
  auto res = db_->Query(
      "SELECT k, CASE WHEN SUM(x) > 40 THEN SUM(x) WHEN COUNT(*) > 150 "
      "THEN 0 - COUNT(*) ELSE MAX(x) END AS v FROM t GROUP BY k ORDER BY k");
  ASSERT_EQ(res->rows, 20u);
  for (size_t r = 0; r < res->rows; ++r) {
    int64_t k = res->GetValue(r, 0).i;
    double sum = 0, mx = -1e300;
    int64_t count = 0;
    bool any = false;
    for (size_t i = 0; i < kRows; ++i) {
      if (data_.k[i] != k) continue;
      ++count;
      if (std::isnan(data_.x[i])) continue;
      sum += data_.x[i];
      mx = std::max(mx, data_.x[i]);
      any = true;
    }
    ASSERT_TRUE(any);
    Value got = res->GetValue(r, 1);
    ASSERT_FALSE(got.null);
    if (sum > 40) {
      EXPECT_NEAR(got.AsDouble(), sum, 1e-9 * std::max(1.0, std::fabs(sum)));
    } else if (count > 150) {
      EXPECT_EQ(got.AsDouble(), static_cast<double>(-count));
    } else {
      EXPECT_EQ(got.AsDouble(), mx);
    }
  }
}

TEST_P(CaseEvalTest, CaseOverWindowUsesGatheredOverrides) {
  // Reference: the window column computed on its own, combined per row.
  auto w = db_->Query(
      "SELECT k, x, SUM(x) OVER (PARTITION BY k) AS w FROM t ORDER BY k, x");
  auto got = db_->Query(
      "SELECT k, x, CASE WHEN k > 10 THEN SUM(x) OVER (PARTITION BY k) "
      "ELSE x END AS v FROM t ORDER BY k, x");
  ASSERT_EQ(w->rows, kRows);
  ASSERT_EQ(got->rows, kRows);
  for (size_t r = 0; r < kRows; ++r) {
    int64_t k = w->GetValue(r, 0).i;
    Value want = k > 10 ? w->GetValue(r, 2) : w->GetValue(r, 1);
    ExpectValue(got->GetValue(r, 2),
                want.null ? std::nullopt : std::optional<double>(want.d), r);
  }
}

TEST_P(CaseEvalTest, ZeroRowInputKeepsTheResultType) {
  auto res = db_->Query(
      "SELECT CASE WHEN k > 1 THEN k ELSE x END AS v, "
      "CASE WHEN k > 1 THEN k END AS w FROM t WHERE k > 1000");
  EXPECT_EQ(res->rows, 0u);
  ASSERT_EQ(res->cols.size(), 2u);
  EXPECT_EQ(res->cols[0].data.type, TypeId::kFloat64);
  EXPECT_EQ(res->cols[1].data.type, TypeId::kInt64);
}

TEST_P(CaseEvalTest, InSubqueryWhenRunsOncePerStatement) {
  db_->ClearQueryLog();
  db_->ClearPlanStats();
  // The second WHEN sees only the rows the first left, and the ELSE's
  // scalar subquery is evaluated over whatever remains; each of the three
  // subqueries still runs exactly once.
  auto got = Column(
      "SELECT CASE WHEN k IN (SELECT k FROM d WHERE f > 5) THEN 1 "
      "WHEN k IN (SELECT k FROM d WHERE f <= 5) THEN 2 "
      "ELSE (SELECT MAX(f) FROM d) END AS v FROM t");
  ASSERT_EQ(db_->QueryLog().size(), 1u);
  // queries_planned counts the statement plus each subquery run.
  EXPECT_EQ(db_->PlanStatsTotals().queries_planned, 4u);
  ASSERT_EQ(got.size(), kRows);
  double max_f = 0;
  for (double f : data_.df) max_f = std::max(max_f, f);
  for (size_t i = 0; i < kRows; ++i) {
    int64_t k = data_.k[i];
    double want =
        k >= 12 ? max_f : (data_.df[static_cast<size_t>(k)] > 5 ? 1 : 2);
    ExpectValue(got[i], want, i);
  }
}

TEST_P(CaseEvalTest, NestedCase) {
  auto got = Column(
      "SELECT CASE WHEN k < 10 THEN CASE WHEN g < 3 THEN x ELSE k END "
      "ELSE g END AS v FROM t");
  ASSERT_EQ(got.size(), kRows);
  for (size_t i = 0; i < kRows; ++i) {
    std::optional<double> g = Num(data_.g[i]);
    std::optional<double> want;
    if (data_.k[i] < 10) {
      want = g && *g < 3 ? Num(data_.x[i]) : Num(data_.k[i]);
    } else {
      want = g;
    }
    ExpectValue(got[i], want, i);
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, CaseEvalTest,
                         ::testing::Values("D-Swap", "D-Swap-4t", "X-row"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace joinboost
