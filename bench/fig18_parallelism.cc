// Figure 18: (a) intra-query thread sweep for one tree; (b) inter-query
// parallelism on/off for gradient boosting (-28%) and random forest (-35%).
// Extended with a morsel-sweep section: the Favorita smoke query (a
// message-passing-shaped join + GROUP BY aggregate) is timed at 1/2/4/8
// exec_threads and the results — including morsel/steal counters — are
// written to BENCH_PR3.json (CI artifact).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/generators.h"
#include "joinboost.h"
#include "util/timer.h"

namespace jb = joinboost;
using jb::bench::Header;
using jb::bench::Note;
using jb::bench::Row;

namespace {

/// The message-passing query shape of one boosting iteration (paper §5.3):
/// probe the fact table, absorb a dimension message, aggregate per join key.
const char* kSmokeQuery =
    "SELECT sales.item_id, SUM(sales.unit_sales * items.f_item) AS g, "
    "COUNT(*) AS c FROM sales JOIN items ON sales.item_id = items.item_id "
    "WHERE sales.onpromotion > 0.5 GROUP BY sales.item_id";

struct SweepPoint {
  int requested = 0;
  int effective = 0;
  double best_seconds = 0;
  double total_seconds = 0;
  size_t rows_out = 0;
  jb::plan::PlanStats stats;  ///< over the timed reps
};

SweepPoint RunSweepPoint(int threads, const jb::data::FavoritaConfig& config,
                         int reps) {
  jb::EngineProfile profile = jb::EngineProfile::DSwap();
  profile.exec_threads = threads;
  jb::exec::Database db(profile);
  jb::data::MakeFavorita(&db, config);

  SweepPoint pt;
  pt.requested = threads;
  pt.effective = db.exec_threads();
  db.Query(kSmokeQuery);  // warm-up: touches/decompresses every column once
  db.ClearPlanStats();
  pt.best_seconds = 1e100;
  for (int r = 0; r < reps; ++r) {
    jb::Timer t;
    auto res = db.Query(kSmokeQuery);
    double s = t.Seconds();
    pt.rows_out = res->rows;
    pt.total_seconds += s;
    pt.best_seconds = std::min(pt.best_seconds, s);
  }
  pt.stats = db.PlanStatsTotals();
  return pt;
}

void WriteJson(const std::vector<SweepPoint>& sweep, size_t sales_rows,
               int reps) {
  double t1 = 0, t4 = 0;
  for (const auto& pt : sweep) {
    if (pt.requested == 1) t1 = pt.best_seconds;
    if (pt.requested == 4) t4 = pt.best_seconds;
  }
  jb::bench::Json json;
  json.Str("figure", "fig18_morsel_sweep")
      .Str("query", "favorita_smoke_message")
      .Int("sales_rows", sales_rows)
      .Int("reps", reps)
      .Object("threads");
  for (const SweepPoint& pt : sweep) {
    json.Object(std::to_string(pt.requested))
        .Int("effective_threads", pt.effective)
        .Num("best_seconds", pt.best_seconds, 6)
        .Num("total_seconds", pt.total_seconds, 6)
        .Int("rows_out", pt.rows_out)
        .Counters(pt.stats, {"morsels_dispatched", "morsels_stolen"})
        .Num("speedup_vs_1", pt.best_seconds > 0 ? t1 / pt.best_seconds : 0.0,
             3)
        .End();
  }
  json.End().Num("speedup_4_threads", t4 > 0 ? t1 / t4 : 0.0, 3);
  json.Save("BENCH_PR3.json");
}

}  // namespace

int main() {
  jb::data::FavoritaConfig config;
  config.sales_rows = jb::bench::ScaledRows(80000);

  Header("Figure 18a: intra-query parallelism (threads per query)",
         "improves up to ~4 threads, then diminishing returns");
  for (int threads : {1, 2, 4, 8, 16}) {
    jb::EngineProfile profile = jb::EngineProfile::DSwap();
    profile.exec_threads = threads;
    jb::exec::Database db(profile);
    jb::Dataset ds = jb::data::MakeFavorita(&db, config);
    jb::core::TrainParams params;
    params.boosting = "dt";
    params.num_leaves = 8;
    jb::Timer t;
    jb::Train(params, ds);
    Row("threads=" + std::to_string(threads), t.Seconds());
  }

  Header("Figure 18b: inter-query parallelism",
         "GBDT ~28% faster, random forest ~35% faster with the dependency "
         "scheduler (4 intra-query threads + the rest across queries)");
  for (const char* mode : {"gbdt", "rf"}) {
    for (bool para : {false, true}) {
      jb::EngineProfile profile = jb::EngineProfile::DSwap();
      profile.exec_threads = para ? 4 : 16;
      jb::exec::Database db(profile);
      jb::Dataset ds = jb::data::MakeFavorita(&db, config);
      jb::core::TrainParams params;
      params.boosting = mode;
      params.num_iterations = 10;
      params.num_leaves = 8;
      params.inter_query_parallelism = para;
      jb::Timer t;
      jb::Train(params, ds);
      Row(std::string(mode) + (para ? " para" : " w/o"), t.Seconds());
    }
  }

  Header("Morsel sweep: Favorita smoke query, 1/2/4/8 exec_threads",
         "morsel-driven scan/join/agg; bit-identical results per thread "
         "count; BENCH_PR3.json artifact");
  jb::data::FavoritaConfig sweep_config;
  sweep_config.sales_rows = jb::bench::ScaledRows(400000);
  const int reps = 5;
  std::vector<SweepPoint> sweep;
  for (int threads : {1, 2, 4, 8}) {
    SweepPoint pt = RunSweepPoint(threads, sweep_config, reps);
    sweep.push_back(pt);
    Row("threads=" + std::to_string(pt.requested) +
            " (effective=" + std::to_string(pt.effective) + ")",
        pt.best_seconds);
    Note("morsels=" + std::to_string(pt.stats.morsels_dispatched) +
         " stolen=" + std::to_string(pt.stats.morsels_stolen) +
         " rows_out=" + std::to_string(pt.rows_out));
  }
  WriteJson(sweep, sweep_config.sales_rows, reps);
  return 0;
}
