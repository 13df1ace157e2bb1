#pragma once

#include <cstddef>

namespace joinboost {
namespace plan {

/// The execution counter list, declared once: X(name, deterministic, doc).
/// `deterministic` marks counters that are equal for an identical query
/// stream at any exec_threads; tests assert exactly those across thread
/// counts. PlanStats fields, its arithmetic, ForEach (and through it
/// FormatStats / sql_shell \stats and the bench JSON) all expand from here.
#define JB_PLAN_COUNTERS(X)                                                   \
  X(queries_planned, true, "SELECTs that went through the planner")           \
  X(scans, true, "base-table scans executed")                                 \
  X(rows_scan_input, true, "base-table rows entering scans")                  \
  X(rows_scan_output, true, "rows surviving fused scan filters")              \
  X(cols_scanned, true, "columns materialized by scans")                      \
  X(cols_pruned, true, "columns skipped via projection pruning")              \
  X(cols_decompressed, true, "encoded columns actually decoded")              \
  X(cells_decompressed, true, "rows x decoded columns (decode volume)")       \
  X(cells_decompress_avoided, true,                                           \
    "encoded cells compressed execution never materialized")                  \
  X(blocks_skipped, true,                                                     \
    "encoded blocks skipped wholesale via zone-map predicate bounds")         \
  X(predicates_pushed, true, "WHERE conjuncts fused into scans")              \
  X(constants_folded, true, "predicate subtrees folded to literals")          \
  X(joins_reordered, true, "queries whose join order changed")                \
  X(joins_reordered_dp, true,                                                 \
    "queries whose order the DP enumerator changed (cache hits too)")         \
  X(plan_cache_hits, true, "shape-cache hits (stats + DP skipped)")           \
  X(plan_cache_misses, true, "shape-cache misses (decision computed)")        \
  X(morsels_dispatched, false, "morsels run by parallel operators")           \
  X(morsels_stolen, false,                                                    \
    "morsels run by pool workers rather than the dispatching thread")         \
  X(multi_aggs, true, "multi-aggregate (GROUPING SETS) operators")            \
  X(grouping_sets, true, "grouping sets evaluated by them")                   \
  X(hash_probes, true,                                                        \
    "hash-table lookups (join build + probe, group find-or-add)")             \
  X(hash_chain_follows, true,                                                 \
    "bucket-chain links walked (join matches + same-hash group collisions)")  \
  X(hash_bytes, true,                                                         \
    "hash memory at canonical single-table sizing (chains + slots)")          \
  X(chunks_created, true,                                                     \
    "column segments sealed (loads, results, appends, rewrites)")             \
  X(chunks_rewritten, true,                                                   \
    "pre-existing column segments rebuilt (appends keep this 0)")             \
  X(chunks_pruned, true,                                                      \
    "horizontal chunks eliminated wholesale by zone maps")                    \
  X(guard_checks, true,                                                       \
    "QueryGuard check points on governed queries")                            \
  X(queries_cancelled, true, "queries aborted via QueryGuard::Cancel")        \
  X(deadline_aborts, true, "queries aborted by a guard deadline")             \
  X(budget_aborts, true, "queries aborted by the byte budget")

/// Static description of one counter of JB_PLAN_COUNTERS.
struct CounterInfo {
  const char* name;
  bool deterministic;
  const char* doc;
};

/// Counters produced while planning and executing queries. The engine
/// accumulates them per-database; trainers report the delta over a training
/// run (Figure 9 instrumentation extended with planner effectiveness).
struct PlanStats {
#define JB_PLAN_COUNTER_FIELD(name, deterministic, doc) size_t name = 0;
  JB_PLAN_COUNTERS(JB_PLAN_COUNTER_FIELD)
#undef JB_PLAN_COUNTER_FIELD

  PlanStats& operator+=(const PlanStats& o) {
#define JB_PLAN_COUNTER_ADD(name, deterministic, doc) name += o.name;
    JB_PLAN_COUNTERS(JB_PLAN_COUNTER_ADD)
#undef JB_PLAN_COUNTER_ADD
    return *this;
  }
  PlanStats operator-(const PlanStats& o) const {
    PlanStats d = *this;
#define JB_PLAN_COUNTER_SUB(name, deterministic, doc) d.name -= o.name;
    JB_PLAN_COUNTERS(JB_PLAN_COUNTER_SUB)
#undef JB_PLAN_COUNTER_SUB
    return d;
  }

  /// Calls f(const CounterInfo&, value) for every counter in list order;
  /// the value is a reference, mutable through a non-const PlanStats.
  template <typename F>
  void ForEach(F&& f) {
    Visit(*this, f);
  }
  template <typename F>
  void ForEach(F&& f) const {
    Visit(*this, f);
  }

 private:
  template <typename Self, typename F>
  static void Visit(Self& s, F& f) {
#define JB_PLAN_COUNTER_VISIT(name, deterministic, doc) \
  f(CounterInfo{#name, deterministic, doc}, s.name);
    JB_PLAN_COUNTERS(JB_PLAN_COUNTER_VISIT)
#undef JB_PLAN_COUNTER_VISIT
  }
};

}  // namespace plan
}  // namespace joinboost
