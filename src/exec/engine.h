#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/operators.h"
#include "exec/vector.h"
#include "plan/logical_plan.h"
#include "plan/plan_cache.h"
#include "sql/ast.h"
#include "stats/stats_manager.h"
#include "storage/catalog.h"
#include "storage/engine_profile.h"
#include "storage/mvcc.h"
#include "storage/wal.h"
#include "util/query_guard.h"
#include "util/threadpool.h"

namespace joinboost {
namespace exec {

/// Everything a read needs to resolve and execute: which catalog base tables
/// come from (null = the database's live catalog; the serving layer passes a
/// session's pinned snapshot so concurrent writers stay invisible), an
/// optional profile override (planner/threads/compressed-exec knobs; threads
/// are still clamped to the engine pool), and the query-log tag. It is the
/// context of the single read entry point, Database::Query(const
/// ReadContext&, ...).
struct ReadContext {
  const Catalog* catalog = nullptr;        ///< null = live catalog
  const EngineProfile* profile = nullptr;  ///< null = database profile
  std::string tag;                         ///< query-log label (parse paths)
  /// Optional lifecycle guard (cancellation / deadline / byte budget).
  /// Checked at every morsel boundary, per compressed block, and at operator
  /// seal points; subqueries inherit it through the recursive Query call.
  /// Null = ungoverned (zero-overhead fast path).
  util::QueryGuard* guard = nullptr;
};

/// The engine facade: a self-contained in-memory SQL database. JoinBoost's
/// trainers talk to it exclusively through SQL strings (paper criterion C1),
/// except for the single column-swap extension the paper proposes for
/// columnar engines (§5.4) which is exposed as SwapColumns().
class Database {
 public:
  explicit Database(EngineProfile profile = EngineProfile::DSwap());
  ~Database();

  Catalog& catalog() { return catalog_; }
  const EngineProfile& profile() const { return profile_; }
  WriteAheadLog& wal() { return *wal_; }
  VersionStore& versions() { return versions_; }
  ThreadPool& pool() { return *pool_; }

  struct Result {
    std::shared_ptr<ExecTable> table;  ///< non-null for SELECT
    size_t affected = 0;               ///< rows touched by UPDATE
  };

  /// Parse and execute one SQL statement. `tag` labels the query-log entry
  /// (the paper's Figure 9 classifies queries by role).
  Result Execute(const std::string& sql, const std::string& tag = "");

  /// Execute a SELECT and return the result table.
  std::shared_ptr<ExecTable> Query(const std::string& sql,
                                   const std::string& tag = "");

  /// First row / first column as double (aggregate probes).
  double QueryScalarDouble(const std::string& sql, const std::string& tag = "");

  /// THE read entry point: execute a parsed SELECT under `rctx` (catalog,
  /// profile overrides). Routes through the logical planner unless the
  /// effective profile's use_planner is off, in which case the raw AST is
  /// executed (differential-test path). Not query-logged.
  ExecTable Query(const ReadContext& rctx, const sql::SelectStmt& stmt);

  /// Parse + execute a SELECT under `rctx`; logged under rctx.tag.
  std::shared_ptr<ExecTable> Query(const ReadContext& rctx,
                                   const std::string& sql);

  /// Append `rows` (matched to the table's schema by column name) to table
  /// `name` by sealing new chunks: existing column segments are reused by
  /// pointer — O(new rows), chunks_rewritten stays 0 — and the grown table
  /// is built aside and swapped into the catalog atomically, so concurrent
  /// readers see the old or the new row count, never a torn column set.
  /// Serialized with other writers; honours the profile's WAL/MVCC/
  /// compression costs. Returns the new table.
  TablePtr AppendRows(const std::string& name, const ExecTable& rows);

  /// Plan a SELECT and render its operator tree (the EXPLAIN statement).
  std::string ExplainSelect(const sql::SelectStmt& stmt);

  /// EXPLAIN ANALYZE: plan and execute as Query(rctx, stmt) does (counters
  /// merged, guard honoured), and render the tree with per-operator actual
  /// row counts next to the estimates.
  std::string ExplainAnalyzeSelect(const ReadContext& rctx,
                                   const sql::SelectStmt& stmt);

  /// Intra-query thread budget after clamping to the pool size.
  int exec_threads() const { return exec_threads_; }

  /// Morsel policy the planner annotates DOP estimates with (mirrors the
  /// execution thresholds derived from the profile).
  plan::ParallelPolicy parallel_policy() const;

  /// Register a table without storage-profile processing (test datasets).
  void RegisterTable(const TablePtr& table);

  /// Register applying the storage profile (compress when configured) — use
  /// for the persistent base tables of a benchmark.
  void LoadTable(const TablePtr& table);

  /// Materialize a query result under `name` honouring the storage profile
  /// (compression + WAL costs); returns the new table.
  TablePtr MaterializeResult(const std::string& name, const ExecTable& result,
                             bool as_dataframe = false);

  /// Pointer-based column swap between two tables (requires a profile with
  /// allow_column_swap — the engine patch of §5.4).
  void SwapColumns(const std::string& table1, const std::string& col1,
                   const std::string& table2, const std::string& col2);

  // ---- instrumentation ----
  struct QueryLogEntry {
    std::string tag;
    std::string sql;
    double ms = 0;
    size_t rows_out = 0;
  };
  std::vector<QueryLogEntry> QueryLog() const;
  void ClearQueryLog();
  double TotalMsForTag(const std::string& tag) const;
  size_t CountForTag(const std::string& tag) const;

  /// Accumulated planner/scan counters since construction or ClearPlanStats.
  plan::PlanStats PlanStatsTotals() const;
  void ClearPlanStats();

  /// The normalized-shape plan cache (exposed for staleness tests/benches).
  plan::PlanCache& plan_cache() { return plan_cache_; }

 private:
  Result ExecuteStatement(const sql::Statement& stmt);
  size_t ExecuteUpdate(const sql::Statement& stmt);
  void ExecuteCreateTableAs(const sql::Statement& stmt);
  std::shared_ptr<ExecTable> ExecuteExplain(const sql::Statement& stmt);
  /// Query(rctx, stmt); when `analyzed` is set, the statement is planned
  /// even with use_planner off and the executed plan is stored there with
  /// actual row counts recorded (EXPLAIN ANALYZE).
  ExecTable RunQuery(const ReadContext& rctx, const sql::SelectStmt& stmt,
                     plan::LogicalPlan* analyzed);

  /// Legacy data-section execution over the raw AST (planner off). `cat` is
  /// the catalog base tables resolve against (the live catalog_, or a
  /// session's pinned snapshot).
  ExecTable RunFromWhere(const Catalog& cat, const sql::SelectStmt& stmt,
                         OpContext& octx, EvalContext& ectx);
  /// Recursive executor for the planned data section.
  ExecTable ExecutePlanNode(const Catalog& cat, const plan::LogicalOp& op,
                            OpContext& octx, EvalContext& ectx);
  /// Shared finishing pipeline: aggregation/windows, projection, DISTINCT,
  /// ORDER BY, LIMIT.
  ExecTable FinishSelect(const sql::SelectStmt& stmt, ExecTable current,
                         OpContext& octx, EvalContext& ectx);

  EngineProfile profile_;
  Catalog catalog_;
  std::unique_ptr<WriteAheadLog> wal_;
  VersionStore versions_;
  std::unique_ptr<ThreadPool> pool_;
  int exec_threads_ = 1;  ///< profile threads clamped to the pool size
  /// Serializes writers (UPDATE, AppendRows, SwapColumns) — single-threaded
  /// updates as in §5.3.2. Readers are not blocked: they run against
  /// immutable TablePtrs, and writers publish copy-on-write through
  /// Catalog::Register.
  std::mutex update_mu_;

  mutable std::mutex log_mu_;
  std::vector<QueryLogEntry> query_log_;

  mutable std::mutex stats_mu_;
  plan::PlanStats plan_stats_;

  /// Lazy per-column statistics (cost-based planner). Thread-safe; entries
  /// are invalidated by ColumnData version bumps and table replacement.
  stats::StatsManager stats_mgr_;
  /// Normalized-shape plan cache (join-order decisions, literals stripped).
  plan::PlanCache plan_cache_;
};

}  // namespace exec
}  // namespace joinboost
