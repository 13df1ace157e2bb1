// Cost-based optimizer bench (PR 7): plan-once-execute-many planning
// speedup from the normalized-shape plan cache, DP vs greedy join ordering
// on a Favorita training run, and the deterministic planner counters the
// CI guard pins (bench/baselines/BENCH_PR7.json via tools/compare_bench.py).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/generators.h"
#include "joinboost.h"
#include "plan/plan_cache.h"
#include "sql/parser.h"
#include "stats/stats_manager.h"

namespace jb = joinboost;
using jb::bench::Header;
using jb::bench::Note;

namespace {

double Seconds(const std::function<void()>& fn, int reps) {
  double best = 1e100;
  for (int i = 0; i < reps; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// Pure planning micro-bench: the trainer plans the same handful of query
/// shapes hundreds of times per training run (only literals change). With
/// the shape cache the steady-state cost of PlanSelect is one key build +
/// lookup; without it every call re-runs statistics lookups and the DP
/// enumeration.
struct PlanSweep {
  double cold_seconds = 0;   ///< no cache: full stats + DP every call
  double cached_seconds = 0; ///< shape cache: first call misses, rest hit
  double speedup = 0;
  size_t plans = 0;
};

PlanSweep RunPlanSweep(jb::exec::Database* db) {
  // Trainer-shaped statements over Favorita: message passing up a
  // three-level snowflake, semi-join selector chains, total aggregates.
  const char* queries[] = {
      "SELECT sales.item_id AS k, SUM(sales.unit_sales) AS g, COUNT(*) AS h "
      "FROM sales JOIN items ON sales.item_id = items.item_id "
      "WHERE items.f_item > 0 GROUP BY sales.item_id",
      "SELECT SUM(sales.unit_sales) AS g, COUNT(*) AS h FROM sales "
      "SEMI JOIN stores ON sales.store_id = stores.store_id "
      "SEMI JOIN dates ON sales.date_id = dates.date_id",
      "SELECT sales.store_id AS k, SUM(sales.unit_sales) AS g FROM sales "
      "JOIN stores ON sales.store_id = stores.store_id "
      "JOIN dates ON sales.date_id = dates.date_id "
      "WHERE dates.f_date > 0.5 GROUP BY sales.store_id",
  };
  std::vector<jb::sql::Statement> parsed;
  for (const char* q : queries) parsed.push_back(jb::sql::Parse(q));
  // A 10-dimension star widens the DP search to 2^10 subsets — the cost the
  // shape cache exists to amortize across the trainer's repeated shapes.
  std::string wide = "SELECT SUM(wide_fact.v) AS s FROM wide_fact";
  for (int d = 0; d < 10; ++d) {
    std::string k = "k" + std::to_string(d);
    std::string t = "wd" + std::to_string(d);
    wide += " JOIN " + t + " ON wide_fact." + k + " = " + t + "." + k;
  }
  parsed.push_back(jb::sql::Parse(wide));

  const int kRounds = 200;
  PlanSweep out;
  out.plans = static_cast<size_t>(kRounds) * parsed.size();
  size_t sink = 0;
  out.cold_seconds = Seconds(
      [&] {
        jb::stats::StatsManager stats;
        jb::plan::PlannerContext ctx;
        ctx.stats = &stats;  // statistics but no memoized decisions
        for (int r = 0; r < kRounds; ++r) {
          for (const auto& stmt : parsed) {
            auto lp = jb::plan::PlanSelect(*stmt.select, db->catalog(),
                                           /*for_explain=*/false,
                                           jb::plan::ParallelPolicy(), &ctx);
            sink += lp.root ? 1u : 0u;
          }
        }
      },
      3);
  out.cached_seconds = Seconds(
      [&] {
        jb::stats::StatsManager stats;
        jb::plan::PlanCache cache;
        jb::plan::PlannerContext ctx;
        ctx.stats = &stats;
        ctx.cache = &cache;
        for (int r = 0; r < kRounds; ++r) {
          for (const auto& stmt : parsed) {
            auto lp = jb::plan::PlanSelect(*stmt.select, db->catalog(),
                                           /*for_explain=*/false,
                                           jb::plan::ParallelPolicy(), &ctx);
            sink += lp.root ? 1u : 0u;
          }
        }
      },
      3);
  out.speedup =
      out.cached_seconds > 0 ? out.cold_seconds / out.cached_seconds : 0;
  if (sink == 0) std::printf("  -- sink underflow?\n");
  return out;
}

/// End-to-end: a short gradient-boosting run with the cost-based planner on
/// (DP ordering + shape cache) vs off (greedy reference). Results are
/// bit-identical by contract (tests/stats_test.cc pins that); this measures
/// the time delta and captures the deterministic counters.
struct TrainResultRow {
  double cost_seconds = 0;
  double greedy_seconds = 0;
  jb::plan::PlanStats stats;  ///< cost-based run, delta over training
};

TrainResultRow RunTrainComparison() {
  jb::data::FavoritaConfig config;
  config.sales_rows = jb::bench::ScaledRows(40000);

  jb::core::TrainParams params;
  params.boosting = "gbdt";
  params.num_iterations = 2;
  params.num_leaves = 8;
  params.learning_rate = 0.2;

  TrainResultRow out;
  for (bool cost_based : {true, false}) {
    jb::EngineProfile profile = jb::EngineProfile::DSwap();
    profile.cost_based_planner = cost_based;
    jb::exec::Database db(profile);
    jb::Dataset ds = jb::data::MakeFavorita(&db, config);
    auto t0 = std::chrono::steady_clock::now();
    jb::TrainResult res = jb::Train(params, ds);
    auto t1 = std::chrono::steady_clock::now();
    double secs = std::chrono::duration<double>(t1 - t0).count();
    if (cost_based) {
      out.cost_seconds = secs;
      out.stats = res.plan_stats;
    } else {
      out.greedy_seconds = secs;
    }
  }
  return out;
}

void WriteJson(const PlanSweep& sweep, const TrainResultRow& train) {
  jb::bench::Json json;
  json.Str("bench", "plan_cache")
      .Num("scale", jb::bench::Scale(), 3)
      .Num("plan_cold_seconds", sweep.cold_seconds, 6)
      .Num("plan_cached_seconds", sweep.cached_seconds, 6)
      .Num("plan_speedup", sweep.speedup, 3)
      .Num("train_cost_based_seconds", train.cost_seconds)
      .Num("train_greedy_seconds", train.greedy_seconds)
      .Object("counters")
      .Counters(train.stats, {"queries_planned", "plan_cache_hits",
                              "plan_cache_misses", "joins_reordered_dp"})
      .End();
  json.Save("BENCH_PR7.json");
}

}  // namespace

int main() {
  Header("Cost-based optimizer bench (PR 7)",
         "shape-cache plan-once-execute-many speedup; DP vs greedy join "
         "ordering on a short Favorita training run; deterministic planner "
         "counters");

  // Both passes plan against the same catalog the training run uses.
  jb::data::FavoritaConfig config;
  config.sales_rows = jb::bench::ScaledRows(40000);
  jb::exec::Database plan_db(jb::EngineProfile::DSwap());
  jb::data::MakeFavorita(&plan_db, config);
  {
    // The 10-dimension star the wide sweep statement plans against. Key
    // ranges differ per dimension so the DP has genuine choices to rank.
    jb::Rng rng(7);
    const size_t n = 4000;
    jb::TableBuilder fact("wide_fact");
    for (int d = 0; d < 10; ++d) {
      std::vector<int64_t> k(n);
      int64_t range = 10 + 37 * d;
      for (auto& x : k) x = rng.NextInt(0, range);
      fact.AddInts("k" + std::to_string(d), k);
    }
    std::vector<double> v(n);
    for (auto& x : v) x = rng.NextDouble();
    fact.AddDoubles("v", v);
    plan_db.RegisterTable(fact.Build());
    for (int d = 0; d < 10; ++d) {
      int64_t range = 10 + 37 * d;
      std::vector<int64_t> k(static_cast<size_t>(range) + 1);
      std::vector<double> a(k.size());
      for (size_t i = 0; i < k.size(); ++i) {
        k[i] = static_cast<int64_t>(i);
        a[i] = rng.NextDouble();
      }
      plan_db.RegisterTable(jb::TableBuilder("wd" + std::to_string(d))
                                .AddInts("k" + std::to_string(d), k)
                                .AddDoubles("a", a)
                                .Build());
    }
  }
  PlanSweep sweep = RunPlanSweep(&plan_db);
  std::printf(
      "  planning %zu stmts: cold %8.4fs  cached %8.4fs  speedup %5.2fx\n",
      sweep.plans, sweep.cold_seconds, sweep.cached_seconds, sweep.speedup);

  TrainResultRow train = RunTrainComparison();
  std::printf(
      "  gbdt x2 iters: cost-based %7.3fs  greedy %7.3fs\n"
      "  counters: planned=%zu hits=%zu misses=%zu reordered_dp=%zu\n",
      train.cost_seconds, train.greedy_seconds, train.stats.queries_planned,
      train.stats.plan_cache_hits, train.stats.plan_cache_misses,
      train.stats.joins_reordered_dp);
  double hit_rate =
      train.stats.queries_planned > 0
          ? static_cast<double>(train.stats.plan_cache_hits) /
                static_cast<double>(train.stats.queries_planned)
          : 0;
  Note("plan-cache hit rate over training: " + std::to_string(hit_rate));

  WriteJson(sweep, train);
  return 0;
}
