#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "plan/plan_stats.h"
#include "sql/ast.h"
#include "storage/catalog.h"

namespace joinboost {

namespace stats {
class StatsManager;
}  // namespace stats

namespace plan {

/// Degree-of-parallelism policy the engine derives from its EngineProfile.
/// The planner uses it to annotate operators with a DOP estimate (surfaced
/// in EXPLAIN); execution uses the same thresholds, so the annotation
/// matches what the morsel dispatcher will actually do.
struct ParallelPolicy {
  int threads = 1;                     ///< pool-clamped intra-query budget
  size_t morsel_rows = 16384;          ///< rows per dispatched morsel
  size_t threshold_rows = 8192;        ///< below this, operators run serially

  /// DOP estimate for an operator consuming ~`rows` input rows. A zero
  /// threshold disables parallelism, mirroring OpContext::CanParallel.
  int DopForRows(double rows) const {
    if (threads <= 1 || rows < 0 || threshold_rows == 0 ||
        rows < static_cast<double>(threshold_rows)) {
      return 1;
    }
    double morsels =
        (rows + static_cast<double>(morsel_rows) - 1) /
        static_cast<double>(morsel_rows);
    if (morsels >= static_cast<double>(threads)) return threads;
    return morsels < 1 ? 1 : static_cast<int>(morsels);
  }
};

/// Logical operator kinds. The data section (Scan/SubqueryScan/Join/Filter)
/// is executed recursively by the engine; the upper section
/// (Aggregate/Window/Project/Distinct/Sort/Limit) parameterizes the shared
/// finishing pipeline and exists in the tree for EXPLAIN.
enum class OpKind {
  kScan,          ///< base-table scan (column subset + fused filter)
  kSubqueryScan,  ///< derived table: a nested SELECT in FROM
  kJoin,          ///< hash join (inner / left / semi / anti)
  kFilter,        ///< post-join residual predicate
  kNoFrom,        ///< SELECT <exprs> without FROM (one synthetic row)
  kAggregate,     ///< GROUP BY + aggregate evaluation (incl. HAVING)
  kMultiAggregate,///< GROUPING SETS: one shared pass, one histogram per set
  kWindow,        ///< window aggregates over the data section
  kProject,       ///< final select-list projection
  kDistinct,      ///< SELECT DISTINCT row dedup
  kSort,          ///< ORDER BY
  kLimit,         ///< LIMIT
};

struct LogicalOp;
using LogicalOpPtr = std::shared_ptr<LogicalOp>;

struct LogicalOp {
  OpKind kind = OpKind::kScan;
  std::vector<LogicalOpPtr> children;

  // ---- kScan / kSubqueryScan ----
  std::string table;      ///< base table name (kScan)
  std::string qualifier;  ///< alias / effective column qualifier
  /// Pruned scan columns in schema order; empty + !pruned => all columns.
  std::vector<std::string> columns;
  bool pruned = false;           ///< columns is a strict schema subset
  size_t table_columns = 0;      ///< total columns in the base table
  const sql::SelectStmt* subquery = nullptr;  ///< kSubqueryScan body

  /// Fused scan predicate (kScan/kSubqueryScan), residual join predicate
  /// (kJoin) or post-join filter (kFilter). Conjunction, constant-folded.
  sql::ExprPtr filter;

  // ---- kJoin ----
  sql::JoinType join_type = sql::JoinType::kInner;
  sql::ExprPtr condition;  ///< full ON conjunction (equi keys + residual)

  /// Upper-section nodes keep a pointer to the statement they came from.
  const sql::SelectStmt* stmt = nullptr;

  // ---- estimates (explain / join ordering) ----
  double est_rows = -1;   ///< cardinality estimate; -1 = unknown
  int est_cols = -1;      ///< output column estimate; -1 = unknown
  double base_rows = -1;  ///< kScan: actual base-table row count
  int est_dop = 1;        ///< degree-of-parallelism estimate (morsel policy)

  /// Observed output rows, recorded by the executor as it walks the tree
  /// (mutable: the plan is per-query local and the walk is serial). -1 until
  /// the node has run; EXPLAIN ANALYZE renders estimated vs. actual.
  mutable double actual_rows = -1;
};

/// A planned SELECT: the full operator tree for EXPLAIN plus the data-section
/// root the engine executes (null when the statement has no FROM clause).
struct LogicalPlan {
  LogicalOpPtr root;
  LogicalOpPtr data_root;
  const sql::SelectStmt* stmt = nullptr;

  // Rule-application counters for PlanStats.
  size_t predicates_pushed = 0;
  size_t constants_folded = 0;
  bool joins_reordered = false;
  bool joins_reordered_dp = false;  ///< order came from the DP enumerator
  int plan_cache = -1;  ///< -1 = cache not consulted, 0 = miss, 1 = hit
};

class PlanCache;

/// Optional cost-based planning inputs. With `stats` set, scan and join
/// estimates come from column statistics (histogram selectivities, distinct
/// counts) and join ordering uses the DP enumerator; without it the
/// heuristic selectivities and greedy reorder apply. `cache` memoizes the
/// ordering decision per normalized query shape.
struct PlannerContext {
  stats::StatsManager* stats = nullptr;
  PlanCache* cache = nullptr;
};

/// Lower a SELECT into a logical tree and apply the rewrite rules:
/// constant folding, predicate pushdown, projection pruning and join
/// reordering — DP enumeration over statistics-based estimates when `ctx`
/// provides a StatsManager, greedy smallest-filtered-estimate-first
/// otherwise (and as the fallback beyond graph::kMaxDpClauses).
/// `for_explain` additionally plans FROM-clause subqueries as explain-only
/// children (execution plans them in their own Query call instead).
/// `parallel` annotates operators with a DOP estimate from row counts
/// (defaulted: everything serial, est_dop = 1).
LogicalPlan PlanSelect(const sql::SelectStmt& stmt, const Catalog& catalog,
                       bool for_explain = false,
                       const ParallelPolicy& parallel = ParallelPolicy(),
                       PlannerContext* ctx = nullptr);

/// Render a plan as indented text, one operator per line, with per-operator
/// row/column estimates. Deterministic (golden-tested).
std::string Explain(const LogicalPlan& plan);

/// One-line description of a single operator (no children, no indent).
std::string OperatorLabel(const LogicalOp& op);

/// Human-readable dump of the execution counters (EXPLAIN-adjacent
/// reporting; the sql_shell surfaces it as \stats): one "name value" line
/// per counter, in JB_PLAN_COUNTERS order.
std::string FormatStats(const PlanStats& s);

// ---- rewrite rules (rules.cc; exposed for unit tests) ----

/// Fold literal arithmetic/comparisons inside a predicate. `bool_ctx` marks
/// positions where only truthiness matters (WHERE/ON roots and AND/OR/NOT
/// operands), enabling TRUE/FALSE short-circuit simplification. Returns the
/// original pointer when nothing folded; increments *folds per rewrite.
sql::ExprPtr FoldConstants(const sql::ExprPtr& e, bool bool_ctx, int* folds);

/// Heuristic selectivity of one predicate conjunct (1.0 = keeps everything).
double EstimateSelectivity(const sql::Expr& e);

/// True when `e` is an int/float literal; `truthy` receives its boolean value.
bool IsFoldedLiteral(const sql::Expr& e, bool* truthy);

}  // namespace plan
}  // namespace joinboost
