// Figure 11: single-node scalability on TPC-DS-like data, varying the scale
// factor; both systems scale linearly, JoinBoost with a much lower slope,
// and LightGBM OOMs at the largest SF. PR 9 runs the sweep on chunked
// storage (EngineProfile::chunk_rows) and adds a deterministic layout
// counter pass — load seals per-chunk segments, an append seals ONLY new
// segments (append_chunks_rewritten must stay 0), and a none-match scan
// prunes whole chunks off zone maps — guarded by CI against
// bench/baselines/BENCH_PR9.json via tools/compare_bench.py.
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

constexpr size_t kChunkRows = 1024;

jb::EngineProfile ChunkedProfile() {
  jb::EngineProfile p = jb::EngineProfile::DSwap();
  p.chunk_rows = kChunkRows;
  return p;
}

struct SweepPoint {
  int iterations;
  double sf;
  double joinboost_seconds = 0;
  double lightgbm_seconds = -1;  ///< -1 = OOM
};

/// A synthetic append batch matching `table`'s schema: ints count upward
/// from the current row count, doubles repeat a constant. Deterministic.
jb::exec::ExecTable MakeBatch(const jb::TablePtr& table, size_t rows) {
  jb::exec::ExecTable batch;
  batch.rows = rows;
  for (size_t c = 0; c < table->num_columns(); ++c) {
    const jb::Field& f = table->schema().field(c);
    if (f.type == jb::TypeId::kFloat64) {
      std::vector<double> v(rows, 0.25);
      batch.cols.push_back(
          {"", f.name, jb::exec::VectorData::FromDoubles(std::move(v))});
    } else {
      std::vector<int64_t> v(rows);
      for (size_t i = 0; i < rows; ++i) {
        v[i] = static_cast<int64_t>(i % 7);
      }
      batch.cols.push_back(
          {"", f.name, jb::exec::VectorData::FromInts(std::move(v))});
    }
  }
  return batch;
}

}  // namespace

int main() {
  Header("Figure 11: database size (TPC-DS-like SF sweep, chunked storage)",
         "both scale linearly; JoinBoost slope ~10x lower at iteration 10; "
         "LightGBM OOMs at the largest SF; layout counters CI-guarded");

  std::vector<double> sfs = {1, 1.5, 2};
  size_t base_rows = jb::bench::ScaledRows(30000);
  // Budget sized so only the largest SF's dense matrix overflows.
  size_t budget = static_cast<size_t>(1.7 * static_cast<double>(base_rows)) *
                  16 * 8 * 2;

  std::vector<SweepPoint> sweep;
  for (int iters : {5, 15}) {
    std::printf("\n  -- iteration %d --\n", iters);
    for (double sf : sfs) {
      jb::data::TpcdsConfig config;
      config.scale_factor = sf;
      config.base_fact_rows = base_rows;
      config.num_features = 15;

      jb::exec::Database db(ChunkedProfile());
      jb::Dataset ds = jb::data::MakeTpcds(&db, config);

      jb::core::TrainParams params;
      params.boosting = "gbdt";
      params.num_iterations = iters;
      params.num_leaves = 8;

      SweepPoint point;
      point.iterations = iters;
      point.sf = sf;

      jb::Timer t;
      jb::Train(params, ds);
      point.joinboost_seconds = t.Seconds();
      Row("JoinBoost  SF=" + std::to_string(sf), point.joinboost_seconds);

      try {
        jb::Timer lt;
        jb::baselines::DenseDataset dense =
            jb::baselines::MaterializeExportLoad(ds, nullptr, budget);
        jb::ThreadPool pool(8);
        jb::baselines::HistogramGbdt trainer(params, &pool);
        trainer.Train(dense);
        point.lightgbm_seconds = lt.Seconds();
        Row("LightGBM   SF=" + std::to_string(sf), point.lightgbm_seconds);
      } catch (const jb::baselines::OomError&) {
        Note("LightGBM   SF=" + std::to_string(sf) + ": OUT OF MEMORY");
      }
      sweep.push_back(point);
    }
  }

  // ---- Layout counter pass (deterministic at fixed JB_SCALE) ----
  // Fresh chunked engine; load the largest SF point, append 10% of the
  // fact, and run a none-match scan. Every counter below derives from
  // per-(column, chunk) outcomes, so it is thread-count independent.
  jb::exec::Database db(ChunkedProfile());
  jb::data::TpcdsConfig config;
  config.scale_factor = sfs.back();
  config.base_fact_rows = base_rows;
  config.num_features = 15;
  jb::data::MakeTpcds(&db, config);
  jb::plan::PlanStats load_stats = db.PlanStatsTotals();
  const size_t load_chunks_created = load_stats.chunks_created;

  jb::TablePtr fact = db.catalog().Get("store_sales");
  const size_t fact_rows = fact->num_rows();
  const size_t append_rows = fact_rows / 10;
  jb::Timer at;
  db.AppendRows("store_sales", MakeBatch(fact, append_rows));
  const double append_seconds = at.Seconds();
  jb::plan::PlanStats append_stats = db.PlanStatsTotals() - load_stats;
  Row("append 10% of fact (" + std::to_string(append_rows) + " rows)",
      append_seconds);

  // Zone maps prove no key is negative: every chunk of the scanned column
  // is eliminated without decoding a block.
  db.ClearPlanStats();
  const std::string key = fact->schema().field(0).name;
  size_t scan_rows =
      db.Query("SELECT COUNT(*) AS c FROM store_sales WHERE store_sales." +
               key + " < 0")
          ->rows;
  jb::plan::PlanStats scan_stats = db.PlanStatsTotals();

  std::printf(
      "  counters: load_chunks_created=%zu append_chunks_created=%zu "
      "append_chunks_rewritten=%zu scan_chunks_pruned=%zu fact_chunks=%zu\n",
      load_chunks_created, append_stats.chunks_created,
      append_stats.chunks_rewritten, scan_stats.chunks_pruned,
      db.catalog().Get("store_sales")->num_chunks());
  if (append_stats.chunks_rewritten != 0) {
    std::printf("  !! append rewrote %zu existing segments\n",
                append_stats.chunks_rewritten);
    return 1;
  }

  jb::bench::Json json;
  json.Str("bench", "fig11_tpcds_sf")
      .Num("scale", jb::bench::Scale(), 3)
      .Int("chunk_rows", kChunkRows)
      .Int("fact_rows", fact_rows)
      .Int("append_rows", append_rows)
      .Num("append_seconds", append_seconds, 6)
      .Array("sweep");
  for (const SweepPoint& p : sweep) {
    json.Object()
        .Int("iterations", p.iterations)
        .Num("sf", p.sf, 2)
        .Num("joinboost_seconds", p.joinboost_seconds, 6)
        .Num("lightgbm_seconds", p.lightgbm_seconds, 6)
        .End();
  }
  json.End()
      .Object("counters")
      .Int("load_chunks_created", load_chunks_created)
      .Int("append_chunks_created", append_stats.chunks_created)
      .Int("append_chunks_rewritten", append_stats.chunks_rewritten)
      .Int("scan_chunks_pruned", scan_stats.chunks_pruned)
      .Int("fact_chunks", db.catalog().Get("store_sales")->num_chunks())
      .Int("scan_result_rows", scan_rows)
      .End();
  if (!json.Save("BENCH_PR9.json")) return 1;
  return 0;
}
