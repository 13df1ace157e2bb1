// Query lifecycle governance: cooperative cancellation, deadlines, byte
// budgets, abort consistency of the write paths, bounded serving admission,
// and thread-count determinism of the governance counters.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/params.h"
#include "core/train.h"
#include "diff_corpus.h"
#include "exec/engine.h"
#include "serve/serving.h"
#include "sql/parser.h"
#include "storage/table.h"
#include "test_util.h"
#include "util/error.h"
#include "util/fault_injection.h"
#include "util/query_guard.h"

namespace joinboost {
namespace {

using exec::Database;
using exec::ExecTable;
using exec::ReadContext;
using diff_corpus::BuildDiffTables;
using diff_corpus::DiffProfile;
using diff_corpus::GenQuery;
using diff_corpus::GenerateQuery;
using diff_corpus::RowStrings;

// ---------------------------------------------------------------------------
// QueryGuard unit semantics.
// ---------------------------------------------------------------------------

TEST(QueryGuardTest, CancelIsStickyAndTyped) {
  util::QueryGuard g;
  g.Check();  // fresh guard passes
  g.Cancel();
  EXPECT_TRUE(g.cancelled());
  try {
    g.Check();
    FAIL() << "expected QueryAborted";
  } catch (const QueryAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::kCancelled);
  }
  // Sticky until explicitly reset.
  EXPECT_THROW(g.Check(), QueryAborted);
  g.ResetCancel();
  g.Check();
}

TEST(QueryGuardTest, ExpiredDeadlineTripsWithTypedReason) {
  util::QueryGuard g;
  g.SetDeadlineAfter(std::chrono::nanoseconds(0));
  try {
    g.Check();
    FAIL() << "expected QueryAborted";
  } catch (const QueryAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::kDeadlineExceeded);
  }
  g.ClearDeadline();
  g.Check();
  // A generous deadline does not trip.
  g.SetDeadlineAfter(std::chrono::hours(1));
  g.Check();
}

TEST(QueryGuardTest, ByteBudgetAccumulatesAndTrips) {
  util::QueryGuard g;
  g.ChargeBytes(1 << 30);  // no budget set: tracked but never trips
  EXPECT_EQ(g.bytes_used(), uint64_t{1} << 30);
  g.ResetUsage();
  g.set_byte_budget(1000);
  g.ChargeBytes(600);
  try {
    g.ChargeBytes(600);  // 1200 > 1000
    FAIL() << "expected QueryAborted";
  } catch (const QueryAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::kMemoryBudget);
  }
  EXPECT_EQ(g.bytes_used(), 1200u);
  g.ResetUsage();
  g.ChargeBytes(900);  // fresh request fits again
}

// ---------------------------------------------------------------------------
// Governed execution through the engine.
// ---------------------------------------------------------------------------

class GovernedQueryTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 6000;
  void SetUp() override {
    db_ = std::make_unique<Database>(DiffProfile(true, 4));
    BuildDiffTables(db_.get(), /*seed=*/97, kRows);
  }

  ExecTable Governed(const std::string& sql, util::QueryGuard* g) {
    ReadContext rctx;
    rctx.guard = g;
    sql::Statement stmt = sql::Parse(sql);
    return db_->Query(rctx, *stmt.select);
  }

  std::unique_ptr<Database> db_;
};

TEST_F(GovernedQueryTest, PreCancelledGuardAbortsBeforeAnyOutput) {
  const char* q =
      "SELECT fact.k1 AS k, SUM(fact.y) AS s FROM fact JOIN d1 "
      "ON fact.k1 = d1.k1 GROUP BY fact.k1 ORDER BY k";
  util::QueryGuard g;
  g.Cancel();
  try {
    Governed(q, &g);
    FAIL() << "expected QueryAborted";
  } catch (const QueryAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::kCancelled);
  }
  EXPECT_EQ(db_->PlanStatsTotals().queries_cancelled, 1u);
  // The same engine answers the same query once the guard is reset — no
  // poisoned plan-cache or stats entries.
  g.ResetCancel();
  ExecTable ok = Governed(q, &g);
  EXPECT_EQ(RowStrings(ok), RowStrings(*db_->Query(q)));
}

TEST_F(GovernedQueryTest, ExpiredDeadlineAbortsAndCounts) {
  util::QueryGuard g;
  g.SetDeadlineAfter(std::chrono::nanoseconds(0));
  try {
    Governed("SELECT fact.x0 AS a FROM fact ORDER BY a", &g);
    FAIL() << "expected QueryAborted";
  } catch (const QueryAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::kDeadlineExceeded);
  }
  EXPECT_EQ(db_->PlanStatsTotals().deadline_aborts, 1u);
  g.ClearDeadline();
  EXPECT_GT(Governed("SELECT fact.x0 AS a FROM fact ORDER BY a", &g).rows, 0u);
}

TEST_F(GovernedQueryTest, TinyByteBudgetAbortsHashBuildAndCounts) {
  // The join build charges its canonical hash bytes against the budget; a
  // budget far below the build size must abort with the typed reason.
  const char* q =
      "SELECT COUNT(*) AS c FROM fact JOIN d1 ON fact.k1 = d1.k1";
  util::QueryGuard g;
  g.set_byte_budget(64);
  try {
    Governed(q, &g);
    FAIL() << "expected QueryAborted";
  } catch (const QueryAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::kMemoryBudget);
  }
  EXPECT_GT(g.bytes_used(), 64u);
  EXPECT_EQ(db_->PlanStatsTotals().budget_aborts, 1u);
  // Lifting the budget (and resetting usage) makes the query pass and match
  // the ungoverned answer bit for bit.
  g.set_byte_budget(0);
  g.ResetUsage();
  EXPECT_EQ(RowStrings(Governed(q, &g)), RowStrings(*db_->Query(q)));
}

TEST_F(GovernedQueryTest, GovernedRunsMatchUngovernedBitForBit) {
  util::QueryGuard g;  // armed with nothing: pure observation
  for (size_t i = 0; i < 24; ++i) {
    GenQuery q = GenerateQuery(0x60BE41ULL + i);
    SCOPED_TRACE(q.sql);
    EXPECT_EQ(RowStrings(Governed(q.sql, &g)), RowStrings(*db_->Query(q.sql)));
  }
  EXPECT_GT(db_->PlanStatsTotals().guard_checks, 0u)
      << "governed queries never hit a guard check point";
}

TEST(GovernanceCounterTest, GuardChecksAreThreadCountDeterministic) {
  // The same governed query stream must produce identical governance
  // counters on a 1-thread and a 4-thread engine: checks are counted by the
  // dispatcher at morsel/range/block granularity, never per worker.
  auto run_stream = [](int threads) {
    Database db(DiffProfile(true, threads));
    BuildDiffTables(&db, /*seed=*/97, 6000);
    util::QueryGuard g;
    for (size_t i = 0; i < 24; ++i) {
      GenQuery q = GenerateQuery(0xC0FFEEULL + i);
      ReadContext rctx;
      rctx.guard = &g;
      sql::Statement stmt = sql::Parse(q.sql);
      db.Query(rctx, *stmt.select);
    }
    return db.PlanStatsTotals();
  };
  plan::PlanStats s1 = run_stream(1);
  plan::PlanStats s4 = run_stream(4);
  EXPECT_GT(s1.guard_checks, 0u);
  test_util::ExpectDeterministicCountersEqual(s1, s4);
  EXPECT_EQ(s1.queries_cancelled, 0u);
  EXPECT_EQ(s4.queries_cancelled, 0u);
}

TEST(GovernanceCounterTest, UngovernedQueriesNeverPayForChecks) {
  Database db(DiffProfile(true, 4));
  BuildDiffTables(&db, /*seed=*/97, 6000);
  for (size_t i = 0; i < 8; ++i) {
    db.Query(GenerateQuery(0xC0FFEEULL + i).sql);
  }
  EXPECT_EQ(db.PlanStatsTotals().guard_checks, 0u)
      << "ungoverned fast path executed guard checks";
}

TEST(GovernanceCounterTest, FormatStatsSurfacesGovernanceCounters) {
  plan::PlanStats s;
  s.guard_checks = 7;
  std::string text = plan::FormatStats(s);
  EXPECT_NE(text.find("guard_checks"), std::string::npos) << text;
  EXPECT_NE(text.find("queries_cancelled"), std::string::npos) << text;
  EXPECT_NE(text.find("deadline_aborts"), std::string::npos) << text;
  EXPECT_NE(text.find("budget_aborts"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Abort consistency of the write paths (the PR's bugfix): an exception
// mid-write must leave no half-registered table, no partial WAL entries and
// no stale MVCC records.
// ---------------------------------------------------------------------------

EngineProfile DiskWalProfile() {
  EngineProfile p = EngineProfile::DSwap();
  p.wal = true;
  p.wal_to_disk = true;
  return p;
}

TEST(WriteAbortConsistencyTest, FailedWalWriteRollsBackMultiColumnUpdate) {
  Database db(DiskWalProfile());
  db.LoadTable(TableBuilder("t")
                   .AddDoubles("a", {1, 2, 3, 4})
                   .AddDoubles("b", {10, 20, 30, 40})
                   .Build());
  auto before = RowStrings(*db.Query("SELECT a, b FROM t ORDER BY a"));
  const size_t wal_before = db.wal().num_records();
  const uint64_t bytes_before = db.wal().bytes_written();

  util::fault::FailNext("wal-write");
  EXPECT_THROW(db.Execute("UPDATE t SET a = a + 1, b = b * 2"), JbError);

  // Nothing published: table contents, WAL and version store untouched.
  EXPECT_EQ(RowStrings(*db.Query("SELECT a, b FROM t ORDER BY a")),
            before);
  EXPECT_EQ(db.wal().num_records(), wal_before);
  EXPECT_EQ(db.wal().bytes_written(), bytes_before);
  EXPECT_EQ(db.versions().num_undo_records(), 0u);

  // The engine is fully usable afterwards: the same update goes through and
  // both columns land atomically (2 staged records in one batch).
  EXPECT_EQ(db.Execute("UPDATE t SET a = a + 1, b = b * 2").affected, 4u);
  EXPECT_EQ(db.wal().num_records(), wal_before + 2);
  EXPECT_EQ(db.QueryScalarDouble("SELECT SUM(a) AS s FROM t"), 14.0);
  EXPECT_EQ(db.QueryScalarDouble("SELECT SUM(b) AS s FROM t"), 200.0);
}

TEST(WriteAbortConsistencyTest, BadExpressionOnSecondSetItemLeavesNoTrace) {
  Database db(DiskWalProfile());
  db.LoadTable(TableBuilder("t")
                   .AddDoubles("a", {1, 2, 3})
                   .AddDoubles("b", {5, 6, 7})
                   .Build());
  auto before = RowStrings(*db.Query("SELECT a, b FROM t ORDER BY a"));
  const size_t wal_before = db.wal().num_records();

  // First SET item evaluates fine; the second references a missing column.
  // Before the publish-order fix the first item's WAL record and MVCC undo
  // were already applied when the throw unwound.
  EXPECT_THROW(db.Execute("UPDATE t SET a = a + 1, b = nosuch * 2"),
               JbError);
  EXPECT_EQ(RowStrings(*db.Query("SELECT a, b FROM t ORDER BY a")),
            before);
  EXPECT_EQ(db.wal().num_records(), wal_before);
  EXPECT_EQ(db.versions().num_undo_records(), 0u);
}

TEST(WriteAbortConsistencyTest, FailedWalWriteRollsBackAppendRows) {
  Database db(DiskWalProfile());
  db.LoadTable(TableBuilder("t")
                   .AddInts("x", {1, 2, 3})
                   .AddDoubles("y", {0.5, 1.5, 2.5})
                   .Build());
  const size_t wal_before = db.wal().num_records();

  ExecTable batch;
  batch.rows = 2;
  batch.cols.push_back({"", "x", exec::VectorData::FromInts({7, 8})});
  batch.cols.push_back({"", "y", exec::VectorData::FromDoubles({7.5, 8.5})});

  util::fault::FailNext("wal-write");
  EXPECT_THROW(db.AppendRows("t", batch), JbError);
  EXPECT_EQ(db.catalog().Get("t")->num_rows(), 3u);
  EXPECT_EQ(db.wal().num_records(), wal_before);

  TablePtr after = db.AppendRows("t", batch);
  EXPECT_EQ(after->num_rows(), 5u);
  EXPECT_EQ(db.wal().num_records(), wal_before + 2);
  EXPECT_EQ(db.QueryScalarDouble("SELECT SUM(x) AS s FROM t"), 21.0);
}

TEST(WriteAbortConsistencyTest, FailedWalWriteLeavesCreateTableUnregistered) {
  Database db(DiskWalProfile());
  db.LoadTable(TableBuilder("t").AddDoubles("a", {1, 2, 3}).Build());
  const size_t wal_before = db.wal().num_records();

  util::fault::FailNext("wal-write");
  EXPECT_THROW(db.Execute("CREATE TABLE t2 AS SELECT a FROM t"), JbError);
  EXPECT_FALSE(db.catalog().Exists("t2"))
      << "aborted CREATE TABLE AS left a half-registered table";
  EXPECT_EQ(db.wal().num_records(), wal_before);

  db.Execute("CREATE TABLE t2 AS SELECT a FROM t");
  EXPECT_TRUE(db.catalog().Exists("t2"));
  EXPECT_EQ(db.QueryScalarDouble("SELECT COUNT(*) AS c FROM t2"), 3.0);
}

// ---------------------------------------------------------------------------
// Serving: per-request deadlines, sticky cancel, bounded admission.
// ---------------------------------------------------------------------------

TEST(ServingGovernanceTest, CancelledSessionRejectsQueriesStickily) {
  Database db(DiffProfile(true, 2));
  BuildDiffTables(&db, /*seed=*/97, 4000);
  serve::ServingContext ctx(&db, {"fact", "d1", "d2"});
  auto session = ctx.OpenSession();
  EXPECT_GT(session.Query("SELECT fact.x0 AS a FROM fact ORDER BY a")->rows,
            0u);

  // Cancel through a copy: both share the guard, as a client thread would.
  auto handle = session;
  handle.Cancel();
  try {
    session.Query("SELECT fact.x0 AS a FROM fact ORDER BY a");
    FAIL() << "expected QueryAborted";
  } catch (const QueryAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::kCancelled);
  }
  // Sticky: still dead on the next request.
  EXPECT_THROW(session.Query("SELECT fact.k1 AS k FROM fact"), QueryAborted);
  // A fresh session is unaffected.
  auto session2 = ctx.OpenSession();
  EXPECT_GT(session2.Query("SELECT fact.x0 AS a FROM fact ORDER BY a")->rows,
            0u);
  EXPECT_EQ(db.PlanStatsTotals().queries_cancelled, 2u);
}

TEST(ServingGovernanceTest, PerRequestDeadlineAndBudgetReset) {
  Database db(DiffProfile(true, 2));
  BuildDiffTables(&db, /*seed=*/97, 4000);
  serve::ServingContext ctx(&db, {"fact", "d1", "d2"});
  auto session = ctx.OpenSession();

  // Plant a genuinely expired deadline stamp directly on the guard...
  session.guard().set_deadline(util::QueryGuard::Clock::now() -
                               std::chrono::milliseconds(1));
  EXPECT_THROW(session.guard().Check(), QueryAborted);
  // ...and watch each request re-derive its deadline at entry instead of
  // inheriting the stale stamp: with no per-request deadline the stamp is
  // cleared, with a generous one it is replaced.
  EXPECT_GT(session.Query("SELECT fact.x0 AS a FROM fact ORDER BY a")->rows,
            0u);
  session.SetDeadlineMs(60000);
  session.guard().set_deadline(util::QueryGuard::Clock::now() -
                               std::chrono::milliseconds(1));
  EXPECT_GT(session.Query("SELECT fact.x0 AS a FROM fact ORDER BY a")->rows,
            0u);

  // Budget applies per request and usage resets between requests.
  session.SetDeadlineMs(0);
  session.SetByteBudget(64);
  EXPECT_THROW(
      session.Query("SELECT COUNT(*) AS c FROM fact JOIN d1 "
                    "ON fact.k1 = d1.k1"),
      QueryAborted);
  session.SetByteBudget(0);
  EXPECT_GT(session
                .Query("SELECT COUNT(*) AS c FROM fact JOIN d1 "
                       "ON fact.k1 = d1.k1")
                ->rows,
            0u);
}

TEST(ServingGovernanceTest, BoundedAdmissionWaitRejectsTypedAndCounts) {
  EngineProfile p = DiffProfile(true, 2);
  p.serve_admission_slots = 1;
  p.serve_admission_max_wait_ms = 25;
  Database db(p);
  BuildDiffTables(&db, /*seed=*/97, 2000);
  serve::ServingContext ctx(&db, {"fact", "d1", "d2"});
  auto session = ctx.OpenSession();

  // Deterministically exhaust the single slot, then watch a request bounce.
  ctx.gate().Acquire();
  EXPECT_THROW(session.Query("SELECT fact.x0 AS a FROM fact"),
               AdmissionRejected);
  EXPECT_EQ(ctx.admission_rejected(), 1u);
  ctx.gate().Release();
  EXPECT_GT(session.Query("SELECT fact.x0 AS a FROM fact ORDER BY a")->rows,
            0u);
  EXPECT_EQ(ctx.admission_rejected(), 1u);
}

TEST(ServingGovernanceTest, FailedSnapshotPublishLeavesCurrentIntact) {
  Database db(DiffProfile(true, 2));
  BuildDiffTables(&db, /*seed=*/97, 2000);
  serve::ServingContext ctx(&db, {"fact", "d1", "d2"});
  serve::SnapshotPtr before = ctx.current();

  util::fault::FailNext("snapshot-publish");
  EXPECT_THROW(ctx.Republish(), InjectedFault);
  // Sessions keep reading the previous snapshot; version did not move.
  EXPECT_EQ(ctx.current()->version, before->version);
  auto session = ctx.OpenSession();
  EXPECT_GT(session.Query("SELECT fact.x0 AS a FROM fact ORDER BY a")->rows,
            0u);
  // The next publish succeeds normally.
  serve::SnapshotPtr after = ctx.Republish();
  EXPECT_GT(after->version, before->version);
}

// ---------------------------------------------------------------------------
// Trainer: guard checked at boosting-round boundaries.
// ---------------------------------------------------------------------------

TEST(TrainerGovernanceTest, CancelledGuardStopsTrainingWithTypedAbort) {
  Database db(DiffProfile(true, 2));
  test_util::BuildSmallSnowflake(&db, /*seed=*/123, /*rows=*/2000);
  Dataset ds = test_util::MakeSnowflakeDataset(&db);
  core::TrainParams params;
  params.boosting = "gbdt";
  params.num_iterations = 3;
  params.num_leaves = 4;
  util::QueryGuard g;
  g.Cancel();
  params.guard = &g;
  try {
    Train(params, ds);
    FAIL() << "expected QueryAborted";
  } catch (const QueryAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::kCancelled);
  }
}

}  // namespace
}  // namespace joinboost
