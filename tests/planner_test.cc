#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluate.h"
#include "core/params.h"
#include "core/train.h"
#include "exec/engine.h"
#include "plan/logical_plan.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "storage/table.h"
#include "test_util.h"
#include "util/error.h"
#include "util/query_guard.h"

namespace joinboost {
namespace {

using exec::Database;
using exec::ExecTable;

// ---------------------------------------------------------------------------
// Differential harness: every query must return identical results with the
// planner on and off (EngineProfile::use_planner).
// ---------------------------------------------------------------------------

std::string CellText(const Value& v) {
  if (v.null) return "NULL";
  char buf[64];
  switch (v.type) {
    case TypeId::kFloat64:
      std::snprintf(buf, sizeof(buf), "%.17g", v.d);
      return buf;
    case TypeId::kString:
      return v.s;
    case TypeId::kInt64:
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v.i));
      return buf;
  }
  return "?";
}

std::vector<std::string> RowStrings(const ExecTable& t) {
  std::vector<std::string> rows;
  rows.reserve(t.rows);
  for (size_t r = 0; r < t.rows; ++r) {
    std::string row;
    for (size_t c = 0; c < t.cols.size(); ++c) {
      if (c) row += "|";
      row += CellText(t.GetValue(r, c));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Bit-identical comparison. Ordered queries compare row-by-row; unordered
/// ones compare the sorted row multisets (join reordering may legally change
/// the physical output order of unordered queries).
void ExpectSameResults(const ExecTable& planned, const ExecTable& unplanned,
                       bool ordered) {
  ASSERT_EQ(planned.rows, unplanned.rows);
  ASSERT_EQ(planned.cols.size(), unplanned.cols.size());
  for (size_t c = 0; c < planned.cols.size(); ++c) {
    EXPECT_EQ(planned.cols[c].name, unplanned.cols[c].name);
  }
  std::vector<std::string> a = RowStrings(planned);
  std::vector<std::string> b = RowStrings(unplanned);
  if (!ordered) {
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
  }
  EXPECT_EQ(a, b);
}

void LoadDifferentialTables(Database* db) {
  db->RegisterTable(TableBuilder("r")
                        .AddInts("a", {1, 1, 2, 2})
                        .AddInts("b", {2, 3, 1, 2})
                        .Build());
  db->RegisterTable(TableBuilder("s")
                        .AddInts("a", {1, 1, 2})
                        .AddInts("c", {2, 1, 3})
                        .Build());
  db->RegisterTable(TableBuilder("t")
                        .AddInts("a", {1, 1, 2})
                        .AddInts("d", {1, 2, 2})
                        .Build());
  db->RegisterTable(TableBuilder("small")
                        .AddInts("a", {1})
                        .AddInts("z", {42})
                        .Build());
  db->RegisterTable(TableBuilder("keys").AddInts("a", {2}).Build());
  db->RegisterTable(TableBuilder("names")
                        .AddInts("id", {1, 2, 3})
                        .AddStrings("name", {"ann", "bob", "ann"})
                        .Build());
  db->RegisterTable(TableBuilder("wide")
                        .AddInts("a", {1, 2, 3, 4})
                        .AddDoubles("v", {1.5, 2.5, 3.5, 4.5})
                        .AddDoubles("w", {0.1, 0.2, 0.3, 0.4})
                        .AddInts("u", {7, 8, 9, 10})
                        .Build());
  // bigx and smallx both expose a column named `x`: unqualified references
  // are ambiguous and bind first-match in the written join order.
  db->RegisterTable(TableBuilder("bigx")
                        .AddInts("k", {1, 1, 2, 2, 3})
                        .AddInts("x", {2, 2, 3, 3, 4})
                        .Build());
  db->RegisterTable(TableBuilder("smallx")
                        .AddInts("k2", {1, 2})
                        .AddInts("x", {9, 9})
                        .Build());
  // p and q have globally unique column names, so joins over them are
  // reorder-eligible unless something else (e.g. SELECT *) forbids it.
  db->RegisterTable(TableBuilder("p")
                        .AddInts("pk", {1, 1, 2, 2})
                        .AddInts("pv", {10, 11, 12, 13})
                        .Build());
  db->RegisterTable(
      TableBuilder("q").AddInts("qk", {2}).AddInts("qv", {77}).Build());
}

struct DiffQuery {
  const char* sql;
  bool ordered;  ///< result order is pinned by ORDER BY
};

class PlannerDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineProfile on = EngineProfile::DSwap();
    EngineProfile off = EngineProfile::DSwap();
    off.use_planner = false;
    planned_ = std::make_unique<Database>(on);
    unplanned_ = std::make_unique<Database>(off);
    LoadDifferentialTables(planned_.get());
    LoadDifferentialTables(unplanned_.get());
  }
  std::unique_ptr<Database> planned_;
  std::unique_ptr<Database> unplanned_;
};

TEST_F(PlannerDifferentialTest, EveryQueryShapeMatchesUnplannedExecution) {
  const DiffQuery queries[] = {
      // sql_engine_test.cc shapes
      {"SELECT a, b FROM r WHERE b >= 2", false},
      {"SELECT 1 + 2 AS x, 3.5 * 2 AS y", false},
      {"SELECT a, SUM(b) AS s, COUNT(*) AS c FROM r GROUP BY a ORDER BY a",
       true},
      {"SELECT SUM(b) AS s, COUNT(*) AS c, AVG(b) AS m FROM r", false},
      {"SELECT r.a AS a, COUNT(*) AS c FROM r JOIN s ON r.a = s.a "
       "GROUP BY r.a ORDER BY a",
       true},
      {"SELECT COUNT(*) AS c FROM r JOIN s ON r.a = s.a JOIN t ON r.a = t.a",
       false},
      {"SELECT COUNT(*) AS c FROM r WHERE a IN (SELECT a FROM s WHERE c > 2)",
       false},
      {"SELECT SUM(CASE WHEN b > 2 THEN 1 ELSE 0 END) AS big FROM r", false},
      {"SELECT a, SUM(b) OVER (ORDER BY a) AS cum FROM "
       "(SELECT a, SUM(b) AS b FROM r GROUP BY a) ORDER BY a",
       true},
      {"SELECT a, b FROM r ORDER BY b DESC LIMIT 2", true},
      {"SELECT DISTINCT a FROM r", false},
      {"SELECT COUNT(*) AS c FROM names WHERE name = 'ann'", false},
      {"SELECT COUNT(*) AS c FROM r SEMI JOIN keys ON r.a = keys.a", false},
      {"SELECT COUNT(*) AS c FROM r ANTI JOIN keys ON r.a = keys.a", false},
      // WHERE on semi/anti right sides must be pushed below the join (their
      // columns are gone from the join output).
      {"SELECT COUNT(*) AS c FROM r SEMI JOIN s ON r.a = s.a "
       "WHERE s.c >= 2",
       false},
      {"SELECT COUNT(*) AS c FROM r ANTI JOIN s ON r.a = s.a "
       "WHERE s.c >= 2",
       false},
      // Ambiguous unqualified `x` (bigx.x and smallx.x): join reordering
      // must stand down so first-match binding keeps the written order.
      {"SELECT x AS v FROM r JOIN bigx ON r.a = bigx.k "
       "JOIN smallx ON r.a = smallx.k2 ORDER BY v",
       true},
      // SELECT * pins the physical column order: reordering must stand down
      // (ExpectSameResults also compares column names positionally).
      {"SELECT * FROM r JOIN p ON r.a = p.pk JOIN q ON r.a = q.qk", false},
      // Constant-false conjunct inside ON must stay a residual filter, not
      // collapse the whole condition (the equi key would vanish).
      {"SELECT COUNT(*) AS c FROM r JOIN s ON r.a = s.a AND 1 = 2", false},
      {"SELECT COUNT(*) AS c FROM r JOIN s ON r.a = s.a AND 1 = 1", false},
      // outer-join semantics: WHERE on the nullable side must not be pushed
      {"SELECT r.a AS a, small.z AS z FROM r LEFT JOIN small "
       "ON r.a = small.a ORDER BY a",
       true},
      {"SELECT r.a AS a FROM r LEFT JOIN small ON r.a = small.a "
       "WHERE small.z IS NULL ORDER BY a",
       true},
      // opaque derived table (SELECT *) disables static pushdown/pruning
      {"SELECT COUNT(*) AS c FROM (SELECT * FROM r) AS sub "
       "JOIN s ON sub.a = s.a",
       false},
      // constant folding + short circuits
      {"SELECT a FROM r WHERE 1 = 0", false},
      {"SELECT a FROM r WHERE 1 = 1 AND a = 2 ORDER BY a", true},
      {"SELECT a FROM r WHERE 2 + 2 = 5 OR b > 2", false},
      // IN list, BETWEEN, residual join predicates, multi-way + filter
      {"SELECT a FROM r WHERE a IN (1, 3) ORDER BY a", true},
      {"SELECT a + 0 AS a2, b FROM r WHERE b BETWEEN 2 AND 3 ORDER BY a2, b",
       true},
      {"SELECT r.b AS b FROM r JOIN s ON r.a = s.a AND r.b < s.c", false},
      {"SELECT SUM(r.b * s.c) AS v FROM r JOIN s ON r.a = s.a "
       "JOIN t ON r.a = t.a WHERE t.d = 2",
       false},
      {"SELECT * FROM r ORDER BY a, b", true},
      // projection pruning source shapes
      {"SELECT SUM(v) AS sv FROM wide WHERE a > 1", false},
      {"SELECT wide.a AS a, SUM(wide.v) AS sv FROM wide "
       "JOIN r ON wide.a = r.a GROUP BY wide.a ORDER BY a",
       true},
  };
  for (const auto& q : queries) {
    SCOPED_TRACE(q.sql);
    auto a = planned_->Query(q.sql);
    auto b = unplanned_->Query(q.sql);
    ExpectSameResults(*a, *b, q.ordered);
  }
}

TEST_F(PlannerDifferentialTest, UpdateAfterPlannedSelectsStaysIdentical) {
  for (Database* db : {planned_.get(), unplanned_.get()}) {
    db->Execute("CREATE TABLE u AS SELECT a, b FROM r");
    db->Execute("UPDATE u SET b = b * 2 + 1 WHERE a = 1");
  }
  auto a = planned_->Query("SELECT a, b FROM u ORDER BY a, b");
  auto b = unplanned_->Query("SELECT a, b FROM u ORDER BY a, b");
  ExpectSameResults(*a, *b, /*ordered=*/true);
}

// ---------------------------------------------------------------------------
// EXPLAIN golden tests over message-passing query shapes.
// ---------------------------------------------------------------------------

class PlannerExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(EngineProfile::DSwap());
    db_->RegisterTable(TableBuilder("fact")
                           .AddInts("k1", {0, 0, 1, 1, 2, 2, 0, 1})
                           .AddInts("k2", {0, 1, 0, 1, 0, 1, 0, 1})
                           .AddDoubles("s", {1, 2, 3, 4, 5, 6, 7, 8})
                           .AddDoubles("x0", {.1, .6, .7, .2, .9, 1.8, .4, 2})
                           .Build());
    db_->RegisterTable(TableBuilder("m")
                           .AddInts("k1", {0, 1, 2})
                           .AddInts("c", {2, 3, 1})
                           .AddDoubles("s", {1.5, 2.5, 3.5})
                           .Build());
    db_->RegisterTable(TableBuilder("sel").AddInts("k1", {0, 2}).Build());
  }

  std::string ExplainText(const std::string& explain_sql) {
    auto t = db_->Query(explain_sql);
    std::string out;
    for (size_t r = 0; r < t->rows; ++r) {
      out += t->GetValue(r, 0).s;
      out += "\n";
    }
    return out;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(PlannerExplainTest, MessageQueryGolden) {
  // The §5.3 message shape: join the child message, filter on the node's
  // predicate, group by the edge key.
  std::string text = ExplainText(
      "EXPLAIN SELECT fact.k1, SUM(fact.s * m.c) AS s FROM fact "
      "JOIN m ON fact.k1 = m.k1 WHERE fact.x0 > 0.5 GROUP BY fact.k1");
  // The fact scan estimate is exact (rows~5: the histogram sees 5 of 8 rows
  // with x0 > 0.5), and the join estimate uses 1/max(ndv) on the key:
  // 5 * 3 / max(3, 3) = 5.
  EXPECT_EQ(text,
            "Project [k1, s] (rows~1, cols=2)\n"
            "  Aggregate keys=[fact.k1] aggs=1 (rows~1, cols=2)\n"
            "    Join INNER on (fact.k1 = m.k1) (rows~5, cols=5)\n"
            "      Scan fact [k1, s, x0] filter=(fact.x0 > 0.5) "
            "(rows~5/8, cols=3/4)\n"
            "      Scan m [k1, c] (rows~3/3, cols=2/3)\n"
            "-- rules: pushed=1\n");
}

TEST_F(PlannerExplainTest, SelectorQueryGolden) {
  // The §5.3.1 selector shape: DISTINCT keys under a semi-join.
  std::string text = ExplainText(
      "EXPLAIN SELECT DISTINCT fact.k1 FROM fact "
      "SEMI JOIN sel ON fact.k1 = sel.k1 WHERE fact.x0 > 0.5");
  // Histogram-exact fact estimate (5 of 8 rows pass x0 > 0.5); the semi join
  // filters by key coverage ndv(sel.k1)/ndv(fact.k1) = 2/3: 5 * 2/3 rounds
  // to 3, and DISTINCT halves that to ~2 (the true distinct count).
  EXPECT_EQ(text,
            "Distinct (rows~2)\n"
            "  Project [k1] (rows~3, cols=1)\n"
            "    Join SEMI on (fact.k1 = sel.k1) (rows~3, cols=2)\n"
            "      Scan fact [k1, x0] filter=(fact.x0 > 0.5) "
            "(rows~5/8, cols=2/4)\n"
            "      Scan sel [*] (rows~2/2, cols=1/1)\n"
            "-- rules: pushed=1\n");
}

TEST_F(PlannerExplainTest, TotalAggregateGolden) {
  // The absorption/total-aggregate shape: global SUMs, no GROUP BY.
  std::string text = ExplainText(
      "EXPLAIN SELECT SUM(fact.s * m.c) AS s, SUM(m.c) AS c FROM fact "
      "JOIN m ON fact.k1 = m.k1");
  EXPECT_EQ(text,
            "Project [s, c] (rows~1, cols=2)\n"
            "  Aggregate keys=[] aggs=2 (rows~1, cols=2)\n"
            "    Join INNER on (fact.k1 = m.k1) (rows~8, cols=4)\n"
            "      Scan fact [k1, s] (rows~8/8, cols=2/4)\n"
            "      Scan m [k1, c] (rows~3/3, cols=2/3)\n");
}

TEST_F(PlannerExplainTest, ExplainAnalyzeGolden) {
  // EXPLAIN ANALYZE executes the plan and annotates the data-section nodes
  // (and the root) with observed row counts next to the estimates. The
  // filter keeps 5 of 8 fact rows; 3 distinct k1 groups survive.
  std::string text = ExplainText(
      "EXPLAIN ANALYZE SELECT fact.k1, SUM(fact.s * m.c) AS s FROM fact "
      "JOIN m ON fact.k1 = m.k1 WHERE fact.x0 > 0.5 GROUP BY fact.k1");
  EXPECT_EQ(text,
            "Project [k1, s] (rows~1, act=3, cols=2)\n"
            "  Aggregate keys=[fact.k1] aggs=1 (rows~1, cols=2)\n"
            "    Join INNER on (fact.k1 = m.k1) (rows~5, act=5, cols=5)\n"
            "      Scan fact [k1, s, x0] filter=(fact.x0 > 0.5) "
            "(rows~5/8, act=5, cols=3/4)\n"
            "      Scan m [k1, c] (rows~3/3, act=3, cols=2/3)\n"
            "-- rules: pushed=1\n");
}

// EXPLAIN ANALYZE runs its statement exactly as a plain SELECT runs: its own
// counters and those of its subqueries are merged alike, and the read
// context's guard applies.
TEST(ExplainAnalyzeTest, CountsLikeThePlainSelect) {
  auto build = [] {
    auto db = std::make_unique<Database>(EngineProfile::DSwap());
    db->LoadTable(TableBuilder("t").AddInts("a", {1, 2, 3}).Build());
    return db;
  };
  const struct {
    const char* sql;
    size_t planned;
  } cases[] = {{"SELECT a FROM t", 1},
               {"SELECT s.a FROM (SELECT a FROM t) AS s", 2}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.sql);
    auto explained = build();
    explained->Query(std::string("EXPLAIN ANALYZE ") + c.sql);
    auto plain = build();
    plain->Query(c.sql);
    plan::PlanStats e = explained->PlanStatsTotals();
    EXPECT_EQ(e.scans, 1u);
    EXPECT_EQ(e.queries_planned, c.planned);
    test_util::ExpectDeterministicCountersEqual(e, plain->PlanStatsTotals());
  }
}

TEST(ExplainAnalyzeTest, HonoursTheReadContextGuard) {
  Database db(EngineProfile::DSwap());
  db.LoadTable(TableBuilder("t").AddInts("a", {1, 2, 3}).Build());
  sql::Statement stmt = sql::Parse("SELECT a FROM t");
  util::QueryGuard guard;
  guard.Cancel();
  exec::ReadContext rctx;
  rctx.guard = &guard;
  EXPECT_THROW(db.ExplainAnalyzeSelect(rctx, *stmt.select), QueryAborted);
  EXPECT_EQ(db.PlanStatsTotals().queries_cancelled, 1u);
}

// ---------------------------------------------------------------------------
// The counter list: arithmetic and \stats cover every counter.
// ---------------------------------------------------------------------------

std::vector<size_t> CounterValues(const plan::PlanStats& s) {
  std::vector<size_t> out;
  s.ForEach([&out](const plan::CounterInfo&, size_t v) { out.push_back(v); });
  return out;
}

TEST(PlanStatsTest, AddThenSubtractGivesBackEveryCounter) {
  plan::PlanStats a, b;
  size_t n = 0;
  a.ForEach([&n](const plan::CounterInfo&, size_t& v) { v = 1000 + ++n; });
  b.ForEach([&n](const plan::CounterInfo&, size_t& v) { v = 7 * ++n; });
  plan::PlanStats sum = a;
  sum += b;
  EXPECT_EQ(CounterValues(sum - b), CounterValues(a));
  EXPECT_NE(CounterValues(sum), CounterValues(a));
}

TEST(PlanStatsTest, FormatStatsPrintsOneNameValueLinePerCounter) {
  plan::PlanStats s;
  size_t n = 0;
  s.ForEach([&n](const plan::CounterInfo&, size_t& v) { v = ++n; });
  std::istringstream lines(plan::FormatStats(s));
  std::string name;
  size_t value = 0;
  s.ForEach([&](const plan::CounterInfo& c, size_t v) {
    ASSERT_TRUE(lines >> name >> value) << c.name;
    EXPECT_EQ(name, c.name);
    EXPECT_EQ(value, v);
  });
  EXPECT_FALSE(lines >> name) << "extra line: " << name;
}

// ---------------------------------------------------------------------------
// DP join ordering on a 4-relation snowflake: the written order is
// deliberately suboptimal and the enumerator must move the filtered
// dimension first. Pins both the chosen order and the cardinality estimates.
// ---------------------------------------------------------------------------

TEST(SnowflakeExplainTest, DpReordersFilteredDimensionFirst) {
  Database db(EngineProfile::DSwap());
  const size_t kRows = 1000;
  std::vector<int64_t> k1(kRows), k2(kRows), k3(kRows);
  std::vector<double> v(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    k1[i] = static_cast<int64_t>(i % 50);
    k2[i] = static_cast<int64_t>(i % 5);
    k3[i] = static_cast<int64_t>(i % 200);
    v[i] = static_cast<double>(i);
  }
  db.RegisterTable(TableBuilder("fact")
                       .AddInts("k1", k1)
                       .AddInts("k2", k2)
                       .AddInts("k3", k3)
                       .AddDoubles("v", v)
                       .Build());
  auto dim = [&](const char* name, const char* key, int64_t n) {
    std::vector<int64_t> k(static_cast<size_t>(n)), a(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      k[static_cast<size_t>(i)] = i;
      a[static_cast<size_t>(i)] = i;
    }
    db.RegisterTable(TableBuilder(name).AddInts(key, k).AddInts("a", a).Build());
  };
  dim("d1", "k1", 50);
  dim("d2", "k2", 5);
  dim("d3", "k3", 200);

  // Written order d1, d2, d3. The filter reduces d2 to ~1 row, so joining it
  // first shrinks every later intermediate: cost(d2,d1,d3) = 200+200+200
  // versus cost(d1,d2,d3) = 1000+200+200. Ties after d2 break toward the
  // lowest-index clause (d1 before d3).
  auto t = db.Query(
      "EXPLAIN SELECT SUM(fact.v) AS s FROM fact "
      "JOIN d1 ON fact.k1 = d1.k1 "
      "JOIN d2 ON fact.k2 = d2.k2 "
      "JOIN d3 ON fact.k3 = d3.k3 WHERE d2.a = 0");
  std::string text;
  for (size_t r = 0; r < t->rows; ++r) {
    text += t->GetValue(r, 0).s;
    text += "\n";
  }
  EXPECT_EQ(text,
            "Project [s] (rows~1, cols=1)\n"
            "  Aggregate keys=[] aggs=1 (rows~1, cols=1)\n"
            "    Join INNER on (fact.k3 = d3.k3) (rows~200, cols=8)\n"
            "      Join INNER on (fact.k1 = d1.k1) (rows~200, cols=7)\n"
            "        Join INNER on (fact.k2 = d2.k2) (rows~200, cols=6)\n"
            "          Scan fact [*] (rows~1000/1000, cols=4/4)\n"
            "          Scan d2 [*] filter=(d2.a = 0) (rows~1/5, cols=2/2)\n"
            "        Scan d1 [k1] (rows~50/50, cols=1/2)\n"
            "      Scan d3 [k3] (rows~200/200, cols=1/2)\n"
            "-- rules: pushed=1 joins-reordered-dp\n");
}

TEST_F(PlannerExplainTest, ExplainTextIsAFixedPointUnderRoundTrip) {
  const char* queries[] = {
      "SELECT fact.k1, SUM(fact.s * m.c) AS s FROM fact "
      "JOIN m ON fact.k1 = m.k1 WHERE fact.x0 > 0.5 GROUP BY fact.k1",
      "SELECT DISTINCT fact.k1 FROM fact SEMI JOIN sel ON fact.k1 = sel.k1 "
      "WHERE fact.x0 > 0.5",
      "SELECT SUM(fact.s * m.c) AS s, SUM(m.c) AS c FROM fact "
      "JOIN m ON fact.k1 = m.k1",
      "SELECT k1, COUNT(*) AS c FROM fact WHERE x0 > 0.5 AND k2 = 1 "
      "GROUP BY k1 ORDER BY k1 LIMIT 2",
  };
  for (const char* q : queries) {
    SCOPED_TRACE(q);
    // EXPLAIN of the original and of its printed round-trip must render the
    // identical plan text.
    sql::Statement ast = sql::Parse(q);
    std::string printed = sql::ToSql(ast);
    EXPECT_EQ(ExplainText("EXPLAIN " + std::string(q)),
              ExplainText("EXPLAIN " + printed));
  }
}

TEST_F(PlannerExplainTest, ExplainStatementRoundTripsThroughPrinter) {
  const std::string q = "EXPLAIN SELECT fact.k1 FROM fact WHERE fact.x0 > 0.5";
  sql::Statement ast = sql::Parse(q);
  ASSERT_EQ(ast.kind, sql::Statement::Kind::kExplain);
  std::string printed = sql::ToSql(ast);
  EXPECT_EQ(printed, sql::ToSql(sql::Parse(printed)));
  auto t = db_->Query(printed);
  ASSERT_GE(t->rows, 1u);
  EXPECT_EQ(t->cols[0].name, "plan");
}

// ---------------------------------------------------------------------------
// Rewrite-rule unit tests.
// ---------------------------------------------------------------------------

TEST(PlannerRulesTest, ConstantFoldingMirrorsEvalSemantics) {
  struct Case {
    const char* in;
    const char* out;
  };
  const Case cases[] = {
      {"1 + 2 * 3", "7"},
      {"2 = 2", "1"},
      {"3 < 2", "0"},
      {"1 / 2", "0.5"},       // '/' promotes to double, as in EvalExpr
      {"7 % 4", "3"},
      {"- (2 + 3)", "-5"},
      {"NOT 0", "1"},
      {"a = 1 + 1", "(a = 2)"},
      {"1 = 1 AND a > 2", "(a > 2)"},
      {"1 = 2 AND a > 2", "0"},
      {"1 = 1 OR a > 2", "1"},
      {"0 OR a > 2", "(a > 2)"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.in);
    int folds = 0;
    sql::ExprPtr folded =
        plan::FoldConstants(sql::ParseExpr(c.in), /*bool_ctx=*/true, &folds);
    EXPECT_EQ(sql::ToSql(*folded), c.out);
    EXPECT_GT(folds, 0);
  }
  // Division by zero must not fold (the engine yields NULL at runtime).
  int folds = 0;
  sql::ExprPtr kept =
      plan::FoldConstants(sql::ParseExpr("1 / 0"), /*bool_ctx=*/true, &folds);
  EXPECT_EQ(sql::ToSql(*kept), "(1 / 0)");
  // Outside boolean context AND/OR must not short-circuit (join conditions
  // keep their equi conjuncts even when a sibling folds to FALSE).
  folds = 0;
  sql::ExprPtr on = plan::FoldConstants(sql::ParseExpr("a = b AND 1 = 2"),
                                        /*bool_ctx=*/false, &folds);
  EXPECT_EQ(sql::ToSql(*on), "((a = b) AND 0)");
}

TEST(PlannerRulesTest, TruthyConjunctsAreDroppedNotCountedAsPushdowns) {
  Database db(EngineProfile::DSwap());
  db.RegisterTable(TableBuilder("r").AddInts("a", {1, 2}).Build());
  auto t = db.Query("EXPLAIN SELECT a FROM r WHERE 1 = 1");
  std::string text;
  for (size_t r = 0; r < t->rows; ++r) text += t->GetValue(r, 0).s + "\n";
  EXPECT_EQ(text.find("pushed"), std::string::npos) << text;
  EXPECT_EQ(text.find("filter="), std::string::npos) << text;
  EXPECT_NE(text.find("folded="), std::string::npos) << text;
  EXPECT_EQ(db.PlanStatsTotals().predicates_pushed, 0u);
}

TEST(PlannerRulesTest, GreedyJoinReorderJoinsSmallestRelationFirst) {
  Database db(EngineProfile::DSwap());
  std::vector<int64_t> big_a(100), mid_a(10), tiny_a(2);
  for (size_t i = 0; i < big_a.size(); ++i) {
    big_a[i] = static_cast<int64_t>(i % 10);
  }
  for (size_t i = 0; i < mid_a.size(); ++i) {
    mid_a[i] = static_cast<int64_t>(i);
  }
  tiny_a = {3, 4};
  db.RegisterTable(TableBuilder("big").AddInts("a", big_a).Build());
  db.RegisterTable(TableBuilder("mid").AddInts("a", mid_a).Build());
  db.RegisterTable(TableBuilder("tiny").AddInts("a", tiny_a).Build());

  auto t = db.Query(
      "EXPLAIN SELECT COUNT(*) AS c FROM big JOIN mid ON big.a = mid.a "
      "JOIN tiny ON big.a = tiny.a");
  std::string text;
  for (size_t r = 0; r < t->rows; ++r) text += t->GetValue(r, 0).s + "\n";
  size_t tiny_pos = text.find("Scan tiny");
  size_t mid_pos = text.find("Scan mid");
  ASSERT_NE(tiny_pos, std::string::npos);
  ASSERT_NE(mid_pos, std::string::npos);
  EXPECT_LT(tiny_pos, mid_pos) << text;
  EXPECT_NE(text.find("joins-reordered"), std::string::npos) << text;

  // And the reordered plan returns the same count.
  auto c = db.Query(
      "SELECT COUNT(*) AS c FROM big JOIN mid ON big.a = mid.a "
      "JOIN tiny ON big.a = tiny.a");
  EXPECT_EQ(c->GetValue(0, 0).i, 20);  // a=3 and a=4 appear 10x each in big
}

TEST(PlannerStatsTest, ProjectionPruningSkipsDecompression) {
  // D-Swap compresses loaded tables; a planned aggregate over one of four
  // columns must decode exactly that column.
  EngineProfile on = EngineProfile::DSwap();
  EngineProfile off = EngineProfile::DSwap();
  off.use_planner = false;
  Database planned(on), unplanned(off);
  for (Database* db : {&planned, &unplanned}) {
    db->LoadTable(TableBuilder("wide")
                      .AddInts("a", {1, 2, 3, 4})
                      .AddDoubles("v", {1.5, 2.5, 3.5, 4.5})
                      .AddDoubles("w", {0.1, 0.2, 0.3, 0.4})
                      .AddInts("u", {7, 8, 9, 10})
                      .Build());
    db->Query("SELECT SUM(v) AS sv FROM wide WHERE a > 1");
  }
  plan::PlanStats with_planner = planned.PlanStatsTotals();
  plan::PlanStats without = unplanned.PlanStatsTotals();
  EXPECT_EQ(with_planner.queries_planned, 1u);
  EXPECT_EQ(with_planner.cols_decompressed, 2u);  // a (filter) + v (agg)
  EXPECT_EQ(with_planner.cols_pruned, 2u);        // w, u skipped
  EXPECT_EQ(without.cols_decompressed, 4u);       // unplanned decodes all
  EXPECT_EQ(without.queries_planned, 0u);
  EXPECT_LT(with_planner.cells_decompressed, without.cells_decompressed);
  EXPECT_EQ(with_planner.predicates_pushed, 1u);
  // Fused scan filter: only rows surviving a > 1 leave the scan.
  EXPECT_EQ(with_planner.rows_scan_input, 4u);
  EXPECT_EQ(with_planner.rows_scan_output, 3u);
}

TEST(PlannerRulesTest, DopEstimateFollowsMorselPolicy) {
  plan::ParallelPolicy p;
  p.threads = 4;
  p.morsel_rows = 16384;
  p.threshold_rows = 8192;
  EXPECT_EQ(p.DopForRows(-1), 1);       // unknown cardinality: stay serial
  EXPECT_EQ(p.DopForRows(4000), 1);     // below threshold
  EXPECT_EQ(p.DopForRows(8192), 1);     // one morsel
  EXPECT_EQ(p.DopForRows(20000), 2);    // two morsels, capped by count
  EXPECT_EQ(p.DopForRows(1000000), 4);  // capped by thread budget
  p.threads = 1;
  EXPECT_EQ(p.DopForRows(1000000), 1);  // serial engine never fans out
}

TEST(PlannerEngineTest, ExplainSurfacesDopOnLargeScansOnly) {
  Database db(EngineProfile::DSwap());
  std::vector<int64_t> big_a(100000), big_b(100000);
  for (size_t i = 0; i < big_a.size(); ++i) {
    big_a[i] = static_cast<int64_t>(i % 97);
    big_b[i] = static_cast<int64_t>(i % 13);
  }
  db.RegisterTable(
      TableBuilder("big").AddInts("a", big_a).AddInts("b", big_b).Build());
  db.RegisterTable(TableBuilder("tiny").AddInts("a", {1, 2, 3}).Build());
  auto text = [&](const std::string& sql) {
    auto t = db.Query(sql);
    std::string out;
    for (size_t r = 0; r < t->rows; ++r) out += t->GetValue(r, 0).s + "\n";
    return out;
  };
  // 100k rows = 7 morsels at the default 16384, more than the thread budget:
  // the scan and the aggregate above it advertise the full pool-clamped DOP.
  std::string big_plan = text(
      "EXPLAIN SELECT a, COUNT(*) AS c FROM big WHERE b > 5 GROUP BY a");
  std::string want = "dop=" + std::to_string(db.exec_threads());
  if (db.exec_threads() > 1) {
    EXPECT_NE(big_plan.find(want), std::string::npos) << big_plan;
  }
  // Tiny tables stay serial and render exactly as before (golden stability).
  std::string tiny_plan = text("EXPLAIN SELECT a FROM tiny WHERE a > 1");
  EXPECT_EQ(tiny_plan.find("dop="), std::string::npos) << tiny_plan;
}

TEST(PlannerEngineTest, IntraQueryThreadsClampedToPoolSize) {
  EngineProfile p = EngineProfile::DSwap();
  p.exec_threads = 1 << 20;
  Database db(p);
  unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) {
    EXPECT_LE(db.exec_threads(), static_cast<int>(hw) * 2);
  }
  EXPECT_GE(db.exec_threads(), 1);
  // A parallel-cutoff-sized aggregate must not deadlock or over-shard.
  std::vector<int64_t> a(70000);
  for (size_t i = 0; i < a.size(); ++i) a[i] = static_cast<int64_t>(i % 97);
  db.RegisterTable(TableBuilder("big").AddInts("a", a).Build());
  auto t = db.Query("SELECT a, COUNT(*) AS c FROM big GROUP BY a");
  EXPECT_EQ(t->rows, 97u);
}

// ---------------------------------------------------------------------------
// Full training run: planner on vs off must grow bit-identical models.
// ---------------------------------------------------------------------------

TEST(PlannerTrainEquivalenceTest, PlannerOnOffGrowsIdenticalModels) {
  EngineProfile on = EngineProfile::DSwap();
  EngineProfile off = EngineProfile::DSwap();
  off.use_planner = false;
  Database db_on(on), db_off(off);
  test_util::BuildSmallSnowflake(&db_on, /*seed=*/123, /*rows=*/2000);
  test_util::BuildSmallSnowflake(&db_off, /*seed=*/123, /*rows=*/2000);
  Dataset ds_on = test_util::MakeSnowflakeDataset(&db_on);
  Dataset ds_off = test_util::MakeSnowflakeDataset(&db_off);

  core::TrainParams params;
  params.boosting = "gbdt";
  params.num_iterations = 3;
  params.num_leaves = 4;
  TrainResult res_on = Train(params, ds_on);
  TrainResult res_off = Train(params, ds_off);

  // Same structure, same predictions, bitwise.
  ASSERT_EQ(res_on.model.trees.size(), res_off.model.trees.size());
  EXPECT_EQ(res_on.model.ToString(), res_off.model.ToString());
  core::JoinedEval eval_on = core::MaterializeJoin(ds_on);
  core::JoinedEval eval_off = core::MaterializeJoin(ds_off);
  ASSERT_EQ(eval_on.rows(), eval_off.rows());
  for (size_t r = 0; r < eval_on.rows(); ++r) {
    ASSERT_EQ(eval_on.Predict(res_on.model, r),
              eval_off.Predict(res_off.model, r))
        << "row " << r;
  }
  // The planner must have been active (and have pruned something) on the
  // planned run only.
  EXPECT_GT(res_on.plan_stats.queries_planned, 0u);
  EXPECT_EQ(res_off.plan_stats.queries_planned, 0u);
}

}  // namespace
}  // namespace joinboost
