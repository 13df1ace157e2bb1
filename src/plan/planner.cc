#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>

#include "graph/join_order.h"
#include "plan/logical_plan.h"
#include "plan/plan_cache.h"
#include "sql/expr_util.h"
#include "sql/printer.h"
#include "stats/selectivity.h"
#include "stats/stats_manager.h"

namespace joinboost {
namespace plan {

namespace {

using sql::CollectColumnRefs;
using sql::CombineConjuncts;
using sql::OutputName;
using sql::SplitConjuncts;

/// One FROM-clause relation during planning.
struct RelInfo {
  const sql::TableRef* ref = nullptr;
  sql::JoinType jtype = sql::JoinType::kInner;  ///< kInner for the FROM rel
  sql::ExprPtr condition;                       ///< folded ON conjunction
  std::string qualifier;
  bool base = false;
  TablePtr tbl;                         ///< base-table snapshot (may be null)
  std::vector<std::string> known_cols;  ///< output columns, schema order
  bool opaque = false;                  ///< column set unknown (subquery *)
  double base_rows = -1;                ///< -1 = unknown
  std::vector<sql::ExprPtr> pushed;     ///< scan-fused WHERE conjuncts
  double est = -1;                      ///< post-filter estimate
  size_t orig = 0;                      ///< original position (0 = FROM)
};

bool RelHasColumn(const RelInfo& rel, const std::string& name) {
  return std::find(rel.known_cols.begin(), rel.known_cols.end(), name) !=
         rel.known_cols.end();
}

void FillRelInfo(const sql::TableRef& ref, const Catalog& catalog,
                 RelInfo* rel) {
  rel->ref = &ref;
  rel->qualifier = ref.Qualifier();
  if (ref.kind == sql::TableRef::Kind::kBase) {
    rel->base = true;
    rel->tbl = catalog.GetOrNull(ref.name);
    if (rel->tbl) {
      for (const auto& f : rel->tbl->schema().fields()) {
        rel->known_cols.push_back(f.name);
      }
      rel->base_rows = static_cast<double>(rel->tbl->num_rows());
    } else {
      rel->opaque = true;  // execution will raise the missing-table error
    }
  } else {
    const sql::SelectStmt& sub = *ref.subquery;
    for (size_t i = 0; i < sub.select_list.size(); ++i) {
      if (sub.select_list[i]->kind == sql::ExprKind::kStar) {
        rel->opaque = true;
        rel->known_cols.clear();
        return;
      }
      rel->known_cols.push_back(OutputName(*sub.select_list[i], i));
    }
  }
}

/// Resolve one column ref to the relation providing it. Qualified refs match
/// by qualifier; unqualified refs bind to the first relation whose known
/// column set contains the name (first-match, like execution). Returns -1
/// when the owner cannot be determined statically.
int ResolveRef(const sql::Expr& ref, const std::vector<RelInfo>& rels) {
  if (!ref.table.empty()) {
    for (size_t i = 0; i < rels.size(); ++i) {
      if (rels[i].qualifier == ref.table) return static_cast<int>(i);
    }
    return -1;
  }
  for (size_t i = 0; i < rels.size(); ++i) {
    if (rels[i].opaque) return -1;  // could bind here; cannot prove it
    if (RelHasColumn(rels[i], ref.column)) return static_cast<int>(i);
  }
  return -1;
}

/// Owner relation of a conjunct: the unique relation all its refs resolve
/// to. Ref-free conjuncts belong to the FROM relation (the first scan, as in
/// unplanned execution). Returns -1 for multi-relation or unresolvable.
int ConjunctOwner(const sql::ExprPtr& conjunct,
                  const std::vector<RelInfo>& rels) {
  std::vector<const sql::Expr*> refs;
  CollectColumnRefs(conjunct, &refs);
  if (refs.empty()) return 0;
  int owner = -2;
  for (const auto* r : refs) {
    int idx = ResolveRef(*r, rels);
    if (idx < 0) return -1;
    if (owner == -2) owner = idx;
    if (owner != idx) return -1;
  }
  return owner;
}

/// Relations referenced by a join condition; false when any ref is
/// unresolvable (disables reordering for the query).
bool ConditionRels(const sql::ExprPtr& cond, const std::vector<RelInfo>& rels,
                   std::set<int>* out) {
  std::vector<const sql::Expr*> refs;
  CollectColumnRefs(cond, &refs);
  for (const auto* r : refs) {
    int idx = ResolveRef(*r, rels);
    if (idx < 0) return false;
    out->insert(idx);
  }
  return true;
}

/// Post-filter cardinality estimate. With statistics available, each pushed
/// conjunct is estimated from the column's histogram (falling back to the
/// heuristic for unsupported shapes); without, the heuristic selectivities
/// apply. Feeding the *post-filter* estimate into join ordering is what
/// makes a heavily-filtered big table order before an unfiltered small one.
double FilteredEstimate(const RelInfo& rel, stats::StatsManager* mgr) {
  if (rel.base_rows < 0) return -1;
  double sel = 1.0;
  for (const auto& p : rel.pushed) {
    double s = -1;
    if (mgr && rel.base && rel.tbl) {
      s = stats::ConjunctSelectivity(*p, rel.tbl, mgr);
    }
    if (s < 0) s = EstimateSelectivity(*p);
    sel *= s;
  }
  return std::max(1.0, rel.base_rows * sel);
}

/// Distinct count of a join-key column; when statistics cannot answer
/// (subquery relations, missing tables), assume the key is unique on that
/// side — the dominant shape here (dimension / message joins are N-to-1).
double KeyDistinct(const RelInfo& rel, const std::string& column,
                   stats::StatsManager* mgr) {
  double ndv = -1;
  if (rel.base && rel.tbl) ndv = stats::JoinKeyDistinct(rel.tbl, column, mgr);
  if (ndv < 0) ndv = rel.est;
  return std::max(1.0, ndv);
}

/// Join selectivity of clause `self` from distinct counts.
///
/// Inner joins: each equi key pair contributes 1 / max(ndv_left, ndv_right)
/// to the |L| x |R| cross product. Semi joins *filter* the left side: the
/// fraction of left rows whose key appears on the right is about
/// min(1, ndv_right / ndv_left) per key pair (the trainer's selector
/// messages carry exactly the surviving key set, so this is near-exact
/// there); anti joins keep the complement. Residual conjuncts contribute
/// their heuristic selectivity either way.
double JoinSelectivity(const RelInfo& rel, const std::vector<RelInfo>& rels,
                       size_t self, stats::StatsManager* mgr) {
  const bool filtering = rel.jtype == sql::JoinType::kSemi ||
                         rel.jtype == sql::JoinType::kAnti;
  std::vector<sql::ExprPtr> conjuncts;
  SplitConjuncts(rel.condition, &conjuncts);
  double sel = 1.0;
  for (const auto& c : conjuncts) {
    bool handled = false;
    if (c->kind == sql::ExprKind::kBinary && c->op == "=" &&
        c->args[0]->kind == sql::ExprKind::kColumnRef &&
        c->args[1]->kind == sql::ExprKind::kColumnRef) {
      int a = ResolveRef(*c->args[0], rels);
      int b = ResolveRef(*c->args[1], rels);
      if (a >= 0 && b >= 0 && a != b) {
        double nda = KeyDistinct(rels[static_cast<size_t>(a)],
                                 c->args[0]->column, mgr);
        double ndb = KeyDistinct(rels[static_cast<size_t>(b)],
                                 c->args[1]->column, mgr);
        if (filtering) {
          // Put the clause's own relation on the "right" of the fraction.
          double nd_self = a == static_cast<int>(self) ? nda : ndb;
          double nd_other = a == static_cast<int>(self) ? ndb : nda;
          sel *= std::min(1.0, nd_self / std::max(1.0, nd_other));
        } else {
          sel /= std::max(nda, ndb);
        }
        handled = true;
      }
    }
    if (!handled) sel *= EstimateSelectivity(*c);
  }
  if (rel.jtype == sql::JoinType::kAnti) {
    sel = std::min(1.0, std::max(0.0, 1.0 - sel));
  }
  return sel;
}

LogicalOpPtr MakeScan(const RelInfo& rel, const Catalog& catalog,
                      const std::unordered_map<std::string,
                                               std::set<std::string>>& needed,
                      bool prune_enabled, bool for_explain,
                      const ParallelPolicy& parallel, PlannerContext* ctx) {
  auto op = std::make_shared<LogicalOp>();
  op->qualifier = rel.qualifier;
  op->est_rows = rel.est;
  if (rel.base) {
    op->kind = OpKind::kScan;
    op->table = rel.ref->name;
    op->base_rows = rel.base_rows;
    op->table_columns = rel.known_cols.size();
    if (prune_enabled && !rel.opaque) {
      auto it = needed.find(rel.qualifier);
      const std::set<std::string> empty;
      const std::set<std::string>& want = it == needed.end() ? empty
                                                             : it->second;
      for (const auto& c : rel.known_cols) {
        if (want.count(c)) op->columns.push_back(c);
      }
      op->pruned = op->columns.size() < rel.known_cols.size();
      if (!op->pruned) op->columns.clear();
    }
    op->est_cols = static_cast<int>(op->pruned ? op->columns.size()
                                               : op->table_columns);
  } else {
    op->kind = OpKind::kSubqueryScan;
    op->subquery = rel.ref->subquery.get();
    op->est_cols = rel.opaque ? -1
                              : static_cast<int>(rel.known_cols.size());
    if (for_explain) {
      // Explain-only child; normal execution plans the nested SELECT inside
      // its own Query call, so don't pay for a throwaway plan there.
      LogicalPlan sub = PlanSelect(*rel.ref->subquery, catalog,
                                   /*for_explain=*/true, parallel, ctx);
      if (sub.root) {
        op->children.push_back(sub.root);
        op->est_rows = sub.root->est_rows;
      }
    }
  }
  // Fuse the pushed predicates; TRUE conjuncts vanish, a FALSE conjunct
  // collapses the whole filter.
  std::vector<sql::ExprPtr> kept;
  for (const auto& p : rel.pushed) {
    bool truthy = false;
    if (IsFoldedLiteral(*p, &truthy)) {
      if (truthy) continue;
      kept.clear();
      kept.push_back(sql::Expr::Int(0));
      break;
    }
    kept.push_back(p);
  }
  op->filter = CombineConjuncts(kept);
  return op;
}

int CountAggregates(const sql::SelectStmt& stmt) {
  // Local re-implementation of exec::CollectAggregates (plan must not
  // depend on exec).
  int count = 0;
  std::function<void(const sql::ExprPtr&)> walk = [&](const sql::ExprPtr& e) {
    if (!e) return;
    if (e->kind == sql::ExprKind::kAggCall) {
      ++count;
      return;
    }
    if (e->kind == sql::ExprKind::kWindowAgg) return;
    for (const auto& a : e->args) walk(a);
  };
  for (const auto& item : stmt.select_list) walk(item);
  walk(stmt.having);
  return count;
}

int CountWindows(const sql::SelectStmt& stmt) {
  int count = 0;
  std::function<void(const sql::ExprPtr&)> walk = [&](const sql::ExprPtr& e) {
    if (!e) return;
    if (e->kind == sql::ExprKind::kWindowAgg) {
      ++count;
      return;
    }
    for (const auto& a : e->args) walk(a);
  };
  for (const auto& item : stmt.select_list) walk(item);
  return count;
}

}  // namespace

LogicalPlan PlanSelect(const sql::SelectStmt& stmt, const Catalog& catalog,
                       bool for_explain, const ParallelPolicy& parallel,
                       PlannerContext* ctx) {
  LogicalPlan plan;
  plan.stmt = &stmt;
  int folds = 0;
  const bool cost_based = ctx && ctx->stats != nullptr;

  // Plan-cache consult: the normalized shape key matches the trainer's
  // repeated message/histogram queries across temp-table renames and
  // parameter (literal) changes. A hit reuses the memoized join order and
  // skips statistics lookups and DP enumeration below; the cheap lowering
  // always runs. EXPLAIN never touches the cache (counters stay those of
  // real execution).
  // The lookup itself is deferred until the FROM relations are resolved, so
  // the cached join order can be validated against each base table's current
  // (uid, data version) — a cached order costed on since-modified data is
  // evicted rather than replayed (see PlanCache::Lookup).
  std::string cache_key;
  CachedPlan cached;
  bool have_cached = false;
  const bool use_cache = ctx && ctx->cache && !for_explain;
  if (use_cache) {
    cache_key = PlanCache::ShapeKey(stmt, catalog);
  }

  bool select_star = false;
  for (const auto& item : stmt.select_list) {
    select_star |= item->kind == sql::ExprKind::kStar;
  }

  // ---- data section ----
  if (!stmt.has_from) {
    auto one = std::make_shared<LogicalOp>();
    one->kind = OpKind::kNoFrom;
    one->est_rows = 1;
    one->est_cols = 0;
    plan.data_root = one;
    if (stmt.where) {
      auto filt = std::make_shared<LogicalOp>();
      filt->kind = OpKind::kFilter;
      filt->filter = FoldConstants(stmt.where, /*bool_ctx=*/true, &folds);
      filt->children.push_back(plan.data_root);
      filt->est_rows = EstimateSelectivity(*filt->filter) >= 1.0 ? 1 : 0;
      filt->est_cols = 0;
      plan.data_root = filt;
    }
    if (use_cache) {
      have_cached = ctx->cache->Lookup(cache_key, {}, &cached);
      plan.plan_cache = have_cached ? 1 : 0;
      if (!have_cached) ctx->cache->Insert(cache_key, CachedPlan());
    }
  } else {
    // Relations: FROM + every JOIN clause.
    std::vector<RelInfo> rels(1 + stmt.joins.size());
    FillRelInfo(stmt.from, catalog, &rels[0]);
    rels[0].orig = 0;
    for (size_t j = 0; j < stmt.joins.size(); ++j) {
      RelInfo& rel = rels[j + 1];
      FillRelInfo(stmt.joins[j].table, catalog, &rel);
      rel.jtype = stmt.joins[j].type;
      // Fold inside the ON condition but never short-circuit it: collapsing
      // `a.k = b.k AND 1 = 2` to `0` would discard the equi key the hash
      // join requires. A folded-false conjunct survives as a residual
      // filter, exactly as in raw-AST execution.
      rel.condition =
          FoldConstants(stmt.joins[j].condition, /*bool_ctx=*/false, &folds);
      rel.orig = j + 1;
    }

    // Stamp the resolved base tables and consult the cache. Subquery
    // relations carry no stamp here — their own base tables are validated by
    // the recursive PlanSelect for the subquery.
    std::vector<TableStamp> stamps;
    for (const auto& rel : rels) {
      if (rel.base && rel.tbl) {
        stamps.push_back({rel.tbl->name(), rel.tbl->uid(),
                          static_cast<uint64_t>(rel.tbl->num_rows())});
      }
    }
    if (use_cache) {
      have_cached = ctx->cache->Lookup(cache_key, stamps, &cached);
      plan.plan_cache = have_cached ? 1 : 0;
    }
    stats::StatsManager* stats_mgr =
        cost_based && !have_cached ? ctx->stats : nullptr;

    // Predicate pushdown: single-relation WHERE conjuncts fuse into the
    // owning scan. The nullable side of a LEFT JOIN is the one unsafe
    // target — filtering it below the join changes NULL-extension
    // semantics. Semi/anti right sides take pushdown: their columns vanish
    // from the join output, so below the join is the only valid placement.
    std::vector<sql::ExprPtr> conjuncts;
    SplitConjuncts(stmt.where, &conjuncts);
    std::vector<sql::ExprPtr> post_filters;
    for (auto& c : conjuncts) {
      sql::ExprPtr folded = FoldConstants(c, /*bool_ctx=*/true, &folds);
      bool truthy = false;
      if (IsFoldedLiteral(*folded, &truthy) && truthy) {
        continue;  // folded to TRUE: a no-op, not a pushdown
      }
      int owner = ConjunctOwner(folded, rels);
      if (owner >= 0 && (owner == 0 ||
                         rels[static_cast<size_t>(owner)].jtype !=
                             sql::JoinType::kLeft)) {
        rels[static_cast<size_t>(owner)].pushed.push_back(std::move(folded));
        ++plan.predicates_pushed;
      } else {
        post_filters.push_back(std::move(folded));
      }
    }
    for (auto& rel : rels) rel.est = FilteredEstimate(rel, stats_mgr);

    // Projection pruning: a scan only materializes (and decompresses)
    // columns referenced anywhere in the statement. Qualified refs pin one
    // relation; unqualified refs conservatively pin every relation that has
    // the name, so first-match binding is unchanged.
    std::unordered_map<std::string, std::set<std::string>> needed;
    bool prune_enabled = !select_star;
    std::vector<const sql::Expr*> all_refs;
    for (const auto& item : stmt.select_list) {
      CollectColumnRefs(item, &all_refs);
    }
    CollectColumnRefs(stmt.where, &all_refs);
    for (const auto& jc : stmt.joins) {
      CollectColumnRefs(jc.condition, &all_refs);
    }
    for (const auto& g : stmt.group_by) CollectColumnRefs(g, &all_refs);
    for (const auto& gs : stmt.grouping_sets) {
      for (const auto& g : gs) CollectColumnRefs(g, &all_refs);
    }
    CollectColumnRefs(stmt.having, &all_refs);
    for (const auto& o : stmt.order_by) CollectColumnRefs(o.expr, &all_refs);
    for (const auto* r : all_refs) {
      if (!r->table.empty()) {
        needed[r->table].insert(r->column);
        continue;
      }
      for (const auto& rel : rels) {
        if (rel.opaque || RelHasColumn(rel, r->column)) {
          needed[rel.qualifier].insert(r->column);
        }
      }
    }

    // Unqualified names held by several relations bind first-match against
    // the joined table's physical column order; join reordering would change
    // that order (and thus the binding), so it must stand down.
    bool ambiguous_unqualified = false;
    bool any_opaque = false;
    for (const auto& rel : rels) any_opaque |= rel.opaque;
    for (const auto* r : all_refs) {
      if (!r->table.empty()) continue;
      if (any_opaque) {
        ambiguous_unqualified = true;  // holders cannot be proven unique
        break;
      }
      int holders = 0;
      for (const auto& rel : rels) {
        if (RelHasColumn(rel, r->column)) ++holders;
      }
      if (holders > 1) {
        ambiguous_unqualified = true;
        break;
      }
    }

    // Join reordering: keep the FROM relation as the probe anchor (that
    // pins execution-order determinism) and permute the join clauses. Left
    // joins and statically unresolvable conditions keep the written order.
    std::vector<size_t> order;  // indices into rels, excluding 0
    for (size_t j = 1; j < rels.size(); ++j) order.push_back(j);
    // SELECT * exposes the physical column order, which reordering changes.
    bool reorderable =
        rels.size() > 2 && !ambiguous_unqualified && !select_star;
    std::vector<std::set<int>> cond_rels(rels.size());
    for (size_t j = 1; j < rels.size() && reorderable; ++j) {
      if (rels[j].jtype == sql::JoinType::kLeft) reorderable = false;
      if (rels[j].est < 0) reorderable = false;
      if (!ConditionRels(rels[j].condition, rels,
                         &cond_rels[j])) {
        reorderable = false;
      }
    }

    // Statistics-based join selectivities for the DP cost model and the
    // join-output estimates below.
    std::vector<double> join_sel(rels.size(), 1.0);
    if (stats_mgr) {
      for (size_t j = 1; j < rels.size(); ++j) {
        join_sel[j] = JoinSelectivity(rels[j], rels, j, stats_mgr);
      }
    }

    if (reorderable) {
      std::vector<size_t> chosen;
      bool from_dp = false;
      if (have_cached && cached.order.size() == order.size()) {
        // Replay the memoized order after re-validating feasibility against
        // this statement (the shape key guarantees it, but stay defensive).
        std::set<int> available = {0};
        std::vector<bool> seen(rels.size(), false);
        bool ok = true;
        for (size_t j : cached.order) {
          if (j == 0 || j >= rels.size() || seen[j]) {
            ok = false;
            break;
          }
          for (int r : cond_rels[j]) {
            if (r != static_cast<int>(j) && !available.count(r)) ok = false;
          }
          if (!ok) break;
          seen[j] = true;
          if (rels[j].jtype == sql::JoinType::kInner) {
            available.insert(static_cast<int>(j));
          }
        }
        if (ok) {
          chosen = cached.order;
          from_dp = cached.reordered_dp;
        }
      }
      if (chosen.empty() && stats_mgr &&
          order.size() <= graph::kMaxDpClauses) {
        // Subset-DP enumeration minimizing the sum of intermediate
        // cardinalities. Clause k stands for rels[k + 1].
        std::vector<graph::JoinOrderClause> clauses(order.size());
        for (size_t j = 1; j < rels.size(); ++j) {
          graph::JoinOrderClause& c = clauses[j - 1];
          c.rows = rels[j].est;
          c.selectivity = join_sel[j];
          c.semi_or_anti = rels[j].jtype != sql::JoinType::kInner;
          for (int r : cond_rels[j]) {
            if (r != 0 && r != static_cast<int>(j)) c.needs.push_back(r - 1);
          }
        }
        graph::JoinOrderResult res =
            graph::EnumerateJoinOrder(rels[0].est, clauses);
        if (res.valid) {
          for (int k : res.order) chosen.push_back(static_cast<size_t>(k) + 1);
          from_dp = true;
        }
      }
      if (chosen.empty()) {
        // Greedy fallback (also the reference when cost_based is off):
        // smallest post-filter estimate first among the feasible clauses.
        std::set<int> available = {0};
        std::vector<bool> placed(rels.size(), false);
        while (chosen.size() < order.size()) {
          size_t best = 0;
          bool found = false;
          for (size_t j = 1; j < rels.size(); ++j) {
            if (placed[j]) continue;
            bool ok = true;
            for (int r : cond_rels[j]) {
              if (r != static_cast<int>(j) && !available.count(r)) ok = false;
            }
            if (!ok) continue;
            if (!found || rels[j].est < rels[best].est) {
              best = j;
              found = true;
            }
          }
          if (!found) {  // disconnected under this anchor: keep as written
            chosen.clear();
            break;
          }
          placed[best] = true;
          chosen.push_back(best);
          if (rels[best].jtype == sql::JoinType::kInner) {
            available.insert(static_cast<int>(best));
          }
        }
      }
      if (chosen.size() == order.size() && chosen != order) {
        order = std::move(chosen);
        plan.joins_reordered = true;
        if (from_dp) plan.joins_reordered_dp = true;
      }
    }
    if (use_cache && !have_cached) {
      CachedPlan entry;
      entry.order = order;
      entry.reordered = plan.joins_reordered;
      entry.reordered_dp = plan.joins_reordered_dp;
      entry.stamps = std::move(stamps);
      ctx->cache->Insert(cache_key, std::move(entry));
    }

    // Build the data-section tree: scans, joins in chosen order, leftover
    // multi-relation filters on top.
    LogicalOpPtr current =
        MakeScan(rels[0], catalog, needed, prune_enabled, for_explain,
                 parallel, ctx);
    double est = current->est_rows;
    int cols = current->est_cols;
    for (size_t oi : order) {
      const RelInfo& rel = rels[oi];
      LogicalOpPtr right = MakeScan(rel, catalog, needed, prune_enabled,
                                    for_explain, parallel, ctx);
      auto join = std::make_shared<LogicalOp>();
      join->kind = OpKind::kJoin;
      join->join_type = rel.jtype;
      join->condition = rel.condition;
      join->children = {current, right};
      switch (rel.jtype) {
        case sql::JoinType::kInner:
          // With statistics: |L ⨝ R| = |L| · |R| · Π 1/max(ndv_l, ndv_r).
          // Without: the pre-cost-model upper-bound heuristic.
          join->est_rows =
              (est < 0 || right->est_rows < 0)
                  ? -1
                  : (stats_mgr ? std::max(1.0, est * right->est_rows *
                                                   join_sel[oi])
                               : std::max(est, right->est_rows));
          join->est_cols = (cols < 0 || right->est_cols < 0)
                               ? -1
                               : cols + right->est_cols;
          break;
        case sql::JoinType::kLeft:
          join->est_rows = est;
          join->est_cols = (cols < 0 || right->est_cols < 0)
                               ? -1
                               : cols + right->est_cols;
          break;
        case sql::JoinType::kSemi:
        case sql::JoinType::kAnti:
          // With statistics the filter fraction comes from the key distinct
          // counts (see JoinSelectivity); the heuristic halves.
          join->est_rows =
              est < 0 ? -1
                      : std::max(1.0, est * (stats_mgr ? join_sel[oi] : 0.5));
          join->est_cols = cols;
          break;
      }
      current = join;
      est = join->est_rows;
      cols = join->est_cols;
    }
    if (!post_filters.empty()) {
      auto filt = std::make_shared<LogicalOp>();
      filt->kind = OpKind::kFilter;
      filt->filter = CombineConjuncts(post_filters);
      filt->children.push_back(current);
      double sel = EstimateSelectivity(*filt->filter);
      filt->est_rows = est < 0 ? -1 : std::max(1.0, est * sel);
      filt->est_cols = cols;
      current = filt;
    }
    plan.data_root = current;
  }

  // ---- upper section (explain + finishing parameters) ----
  LogicalOpPtr top = plan.data_root;
  double est = top->est_rows;
  int cols = top->est_cols;
  int num_aggs = CountAggregates(stmt);
  int num_wins = CountWindows(stmt);
  if (!stmt.grouping_sets.empty()) {
    // GROUPING SETS: one multi-aggregate operator evaluating every set over
    // the shared data section in a single pass.
    std::set<std::string> union_keys;
    for (const auto& gs : stmt.grouping_sets) {
      for (const auto& g : gs) union_keys.insert(sql::ToSql(*g));
    }
    auto agg = std::make_shared<LogicalOp>();
    agg->kind = OpKind::kMultiAggregate;
    agg->stmt = &stmt;
    agg->est_cols = static_cast<int>(union_keys.size()) + num_aggs;
    double per_set = est < 0 ? -1 : std::max(1.0, est * 0.1);
    agg->est_rows =
        per_set < 0
            ? -1
            : per_set * static_cast<double>(stmt.grouping_sets.size());
    agg->children.push_back(top);
    top = agg;
  } else if (!stmt.group_by.empty() || num_aggs > 0) {
    auto agg = std::make_shared<LogicalOp>();
    agg->kind = OpKind::kAggregate;
    agg->stmt = &stmt;
    agg->est_cols = static_cast<int>(stmt.group_by.size()) + num_aggs;
    agg->est_rows = stmt.group_by.empty()
                        ? 1
                        : (est < 0 ? -1 : std::max(1.0, est * 0.1));
    agg->children.push_back(top);
    top = agg;
  } else if (num_wins > 0) {
    auto win = std::make_shared<LogicalOp>();
    win->kind = OpKind::kWindow;
    win->stmt = &stmt;
    win->est_rows = est;
    win->est_cols = cols;
    win->children.push_back(top);
    top = win;
  }
  est = top->est_rows;

  auto proj = std::make_shared<LogicalOp>();
  proj->kind = OpKind::kProject;
  proj->stmt = &stmt;
  proj->est_rows = est;
  proj->est_cols = select_star ? -1
                               : static_cast<int>(stmt.select_list.size());
  proj->children.push_back(top);
  top = proj;
  cols = proj->est_cols;

  if (stmt.distinct) {
    auto d = std::make_shared<LogicalOp>();
    d->kind = OpKind::kDistinct;
    d->stmt = &stmt;
    d->est_rows = est < 0 ? -1 : std::max(1.0, est * 0.5);
    d->est_cols = cols;
    d->children.push_back(top);
    top = d;
    est = d->est_rows;
  }
  if (!stmt.order_by.empty()) {
    auto s = std::make_shared<LogicalOp>();
    s->kind = OpKind::kSort;
    s->stmt = &stmt;
    s->est_rows = est;
    s->est_cols = cols;
    s->children.push_back(top);
    top = s;
  }
  if (stmt.limit >= 0) {
    auto l = std::make_shared<LogicalOp>();
    l->kind = OpKind::kLimit;
    l->stmt = &stmt;
    l->est_rows = est < 0 ? static_cast<double>(stmt.limit)
                          : std::min(est, static_cast<double>(stmt.limit));
    l->est_cols = cols;
    l->children.push_back(top);
    top = l;
  }
  plan.root = top;
  plan.constants_folded = static_cast<size_t>(folds);

  // Annotate DOP estimates from the rows each operator consumes (scan: the
  // base table; join: the probe side; filter/aggregate: the child). The
  // estimate mirrors the execution-time morsel thresholds, so EXPLAIN shows
  // where the dispatcher will actually fan out.
  std::function<void(LogicalOp&)> annotate = [&](LogicalOp& op) {
    for (auto& c : op.children) annotate(*c);
    switch (op.kind) {
      case OpKind::kScan:
        op.est_dop = parallel.DopForRows(op.base_rows);
        break;
      case OpKind::kJoin:
      case OpKind::kFilter:
      case OpKind::kAggregate:
      case OpKind::kMultiAggregate:
        op.est_dop = op.children.empty()
                         ? 1
                         : parallel.DopForRows(op.children[0]->est_rows);
        break;
      default:
        break;
    }
  };
  annotate(*plan.root);
  return plan;
}

}  // namespace plan
}  // namespace joinboost
