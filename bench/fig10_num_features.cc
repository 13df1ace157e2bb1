// Figure 10: gradient boosting time at iterations 10 and 50 while the number
// of imputed features grows (5 -> 50); LightGBM slows superlinearly and runs
// out of memory at the widest setting.
//
// PR 4 extends the figure with a batched-vs-per-feature split-evaluation
// sweep: the per-feature path issues one absorption query per feature per
// leaf, the batched path one GROUPING SETS histogram query per relation per
// leaf (threshold enumeration in C++). The sweep's timings and deterministic
// counters (split queries, grouping sets, cells decompressed) are written to
// BENCH_PR4.json — a CI artifact guarded by tools/compare_bench.py.
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/dense_dataset.h"
#include "baselines/histogram_gbdt.h"
#include "bench_util.h"
#include "data/generators.h"
#include "joinboost.h"
#include "util/timer.h"

namespace jb = joinboost;
using jb::bench::Header;
using jb::bench::Note;
using jb::bench::Row;

namespace {

struct SweepPoint {
  size_t features = 0;
  double batched_seconds = 0;
  double per_feature_seconds = 0;
  size_t batched_split_queries = 0;
  size_t per_feature_split_queries = 0;
  size_t grouping_sets = 0;
  size_t batched_cells_decompressed = 0;
  size_t per_feature_cells_decompressed = 0;
  size_t message_queries = 0;
};

SweepPoint RunSweepPoint(size_t rows, int extra, int iters) {
  SweepPoint point;
  for (int batched = 0; batched < 2; ++batched) {
    jb::data::FavoritaConfig config;
    config.sales_rows = rows;
    config.extra_features_per_dim = extra;
    jb::exec::Database db(jb::EngineProfile::DSwap());
    jb::Dataset ds = jb::data::MakeFavorita(&db, config);
    point.features = ds.graph().AllFeatures().size();

    jb::core::TrainParams params;
    params.boosting = "gbdt";
    params.num_iterations = iters;
    params.num_leaves = 8;
    params.batch_split_evaluation = batched == 1;
    db.ClearPlanStats();
    jb::TrainResult res = jb::Train(params, ds);
    jb::plan::PlanStats stats = db.PlanStatsTotals();
    if (batched == 1) {
      point.batched_seconds = res.seconds;
      point.batched_split_queries = res.feature_queries;
      point.grouping_sets = stats.grouping_sets;
      point.batched_cells_decompressed = stats.cells_decompressed;
      point.message_queries = res.message_queries;
    } else {
      point.per_feature_seconds = res.seconds;
      point.per_feature_split_queries = res.feature_queries;
      point.per_feature_cells_decompressed = stats.cells_decompressed;
    }
  }
  return point;
}

void WriteJson(const std::vector<SweepPoint>& sweep, size_t rows, int iters) {
  jb::bench::Json json;
  json.Str("bench", "fig10_num_features")
      .Num("scale", jb::bench::Scale(), 3)
      .Int("sales_rows", rows)
      .Int("iterations", iters)
      .Array("sweep");
  for (const SweepPoint& p : sweep) {
    double speedup = p.batched_seconds > 0
                         ? p.per_feature_seconds / p.batched_seconds
                         : 0.0;
    json.Object()
        .Int("features", p.features)
        .Num("batched_seconds", p.batched_seconds)
        .Num("per_feature_seconds", p.per_feature_seconds)
        .Num("speedup", speedup, 3)
        .End();
  }
  // Deterministic counters, one flat object for the CI regression guard.
  json.End().Object("counters");
  for (const SweepPoint& p : sweep) {
    const std::string w = "_w" + std::to_string(p.features);
    json.Int("split_queries_batched" + w, p.batched_split_queries)
        .Int("split_queries_per_feature" + w, p.per_feature_split_queries)
        .Int("grouping_sets" + w, p.grouping_sets)
        .Int("message_queries" + w, p.message_queries)
        .Int("cells_decompressed_batched" + w, p.batched_cells_decompressed);
  }
  json.End().Save("BENCH_PR4.json");
}

}  // namespace

int main() {
  Header("Figure 10: scaling the number of features",
         "JoinBoost scales linearly with a ~10x lower slope; LightGBM slows "
         ">1.5x by the middle setting and OOMs at the widest");

  size_t rows = jb::bench::ScaledRows(25000);
  // extra features per dimension -> total features 12 / 24 / 44.
  std::vector<int> extras = {1, 3, 7};
  // Budget sized so only the widest dense matrix overflows.
  size_t budget = rows * 30 * 8 * 2;

  for (int iters : {5, 15}) {
    std::printf("\n  -- iteration %d --\n", iters);
    for (int extra : extras) {
      jb::data::FavoritaConfig config;
      config.sales_rows = rows;
      config.extra_features_per_dim = extra;

      jb::exec::Database db(jb::EngineProfile::DSwap());
      jb::Dataset ds = jb::data::MakeFavorita(&db, config);
      size_t nfeat = ds.graph().AllFeatures().size();

      jb::core::TrainParams params;
      params.boosting = "gbdt";
      params.num_iterations = iters;
      params.num_leaves = 8;

      jb::Timer t;
      jb::Train(params, ds);
      Row("JoinBoost  features=" + std::to_string(nfeat), t.Seconds());

      try {
        jb::Timer lt;
        jb::baselines::DenseDataset dense =
            jb::baselines::MaterializeExportLoad(ds, nullptr, budget);
        jb::ThreadPool pool(8);
        jb::baselines::HistogramGbdt trainer(params, &pool);
        trainer.Train(dense);
        Row("LightGBM   features=" + std::to_string(nfeat), lt.Seconds());
      } catch (const jb::baselines::OomError& e) {
        Note("LightGBM   features=" + std::to_string(nfeat) +
             ": OUT OF MEMORY (" + e.what() + ")");
      }
    }
  }

  // ---- PR 4 sweep: batched vs per-feature split evaluation ----
  std::printf("\n  -- batched vs per-feature split evaluation --\n");
  const int sweep_iters = 5;
  std::vector<SweepPoint> sweep;
  for (int extra : extras) {
    SweepPoint p = RunSweepPoint(rows, extra, sweep_iters);
    Row("batched     features=" + std::to_string(p.features),
        p.batched_seconds);
    Row("per-feature features=" + std::to_string(p.features),
        p.per_feature_seconds);
    Note("split queries: " + std::to_string(p.batched_split_queries) +
         " batched vs " + std::to_string(p.per_feature_split_queries) +
         " per-feature");
    sweep.push_back(p);
  }
  WriteJson(sweep, rows, sweep_iters);
  return 0;
}
