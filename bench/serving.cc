// Serving-layer bench (PR 8): flat-forest batched prediction vs the per-row
// Ensemble::Predict path, and qps / p50 / p99 for N concurrent sessions
// reading pinned snapshots while a background writer publishes appends. The
// deterministic serving counters (snapshots_published, snapshot_reads,
// batched_predictions) are pinned by CI via bench/baselines/BENCH_PR8.json
// and tools/compare_bench.py.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/evaluate.h"
#include "core/flat_forest.h"
#include "data/generators.h"
#include "joinboost.h"
#include "util/rng.h"

namespace jb = joinboost;
using jb::bench::Header;
using jb::bench::Note;
using jb::bench::Row;

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

// Fixed request mix so the serving counters stay scale-independent.
constexpr int kSessionThreads = 4;
constexpr int kRequestsPerThread = 30;  // alternating query / predict
constexpr int kWriterAppends = 6;
constexpr size_t kAppendRows = 500;
constexpr size_t kProbeRows = 4096;  // per prediction request

/// First min(kProbeRows, rows) join rows as a standalone prediction input.
std::shared_ptr<jb::exec::ExecTable> MakeProbe(
    const jb::exec::ExecTable& join) {
  std::vector<uint32_t> idx(std::min(kProbeRows, join.rows));
  for (uint32_t i = 0; i < idx.size(); ++i) idx[i] = i;
  auto probe = std::make_shared<jb::exec::ExecTable>();
  probe->rows = idx.size();
  for (const auto& c : join.cols) {
    probe->cols.push_back({c.qualifier, c.name, c.data.Gather(idx)});
  }
  return probe;
}

/// A batch of synthetic sales rows matching the Favorita fact schema.
jb::exec::ExecTable SalesRows(uint64_t seed, size_t n,
                              const jb::data::FavoritaConfig& config) {
  jb::Rng rng(seed);
  std::vector<int64_t> item(n), store(n), date(n);
  std::vector<double> promo(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    item[i] = rng.NextInt(0, static_cast<int64_t>(config.num_items) - 1);
    store[i] = rng.NextInt(0, static_cast<int64_t>(config.num_stores) - 1);
    date[i] = rng.NextInt(0, static_cast<int64_t>(config.num_dates) - 1);
    promo[i] = rng.NextDouble() < 0.1 ? 1.0 : 0.0;
    y[i] = rng.NextGaussian() * 5;
  }
  jb::exec::ExecTable out;
  out.cols.push_back(
      {"", "item_id", jb::exec::VectorData::FromInts(std::move(item))});
  out.cols.push_back(
      {"", "store_id", jb::exec::VectorData::FromInts(std::move(store))});
  out.cols.push_back(
      {"", "date_id", jb::exec::VectorData::FromInts(std::move(date))});
  out.cols.push_back(
      {"", "onpromotion", jb::exec::VectorData::FromDoubles(std::move(promo))});
  out.cols.push_back(
      {"", "unit_sales", jb::exec::VectorData::FromDoubles(std::move(y))});
  // The generator appends `extra_features_per_dim` xs<i> columns to sales.
  for (int x = 0; x < config.extra_features_per_dim; ++x) {
    std::vector<double> xs(n);
    for (auto& v : xs) v = static_cast<double>(rng.NextInt(1, 1000));
    out.cols.push_back({"", "xs" + std::to_string(x),
                        jb::exec::VectorData::FromDoubles(std::move(xs))});
  }
  out.rows = n;
  return out;
}

struct PredictSweep {
  double per_row_seconds = 0;
  double batched_seconds = 0;
  double speedup = 0;
  size_t rows = 0;
};

/// Per-row virtual-dispatch prediction vs the flat-forest batched path over
/// the same probe rows; bit-identity is pinned by tests/serving_test.cc,
/// this measures the dispatch + hash-lookup overhead the compilation removes.
PredictSweep RunPredictSweep(const jb::core::Ensemble& model,
                             const std::shared_ptr<jb::exec::ExecTable>& probe,
                             const jb::core::FlatForest& forest) {
  PredictSweep out;
  out.rows = probe->rows;
  jb::core::JoinedEval eval(probe, "jb_y");
  double sink = 0;
  out.per_row_seconds = Seconds(
      [&] {
        for (size_t r = 0; r < probe->rows; ++r) sink += eval.Predict(model, r);
      },
      5);
  out.batched_seconds = Seconds(
      [&] {
        std::vector<double> preds = forest.PredictBatch(*probe);
        sink += preds.empty() ? 0 : preds[0];
      },
      5);
  out.speedup = out.batched_seconds > 0
                    ? out.per_row_seconds / out.batched_seconds
                    : 0;
  if (sink == 0) std::printf("  -- sink underflow?\n");
  return out;
}

struct ServeSweep {
  double wall_seconds = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t snapshots_published = 0;
  uint64_t snapshot_reads = 0;
  uint64_t batched_predictions = 0;
  uint64_t admission_waits = 0;
};

/// N session threads alternate aggregate queries and batched predictions
/// (re-pinning a fresh snapshot per request) while one background writer
/// appends sales batches and publishes new versions.
ServeSweep RunServeSweep(jb::serve::ServingContext* ctx,
                         const std::shared_ptr<jb::exec::ExecTable>& probe,
                         const jb::data::FavoritaConfig& config) {
  const std::string agg =
      "SELECT COUNT(*) AS c, SUM(sales.unit_sales) AS s FROM sales "
      "JOIN items ON sales.item_id = items.item_id";

  std::vector<std::vector<double>> latencies(kSessionThreads);
  auto wall0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kSessionThreads; ++t) {
    threads.emplace_back([&, t] {
      latencies[static_cast<size_t>(t)].reserve(kRequestsPerThread);
      for (int i = 0; i < kRequestsPerThread; ++i) {
        jb::serve::ServingContext::Session s = ctx->OpenSession();
        auto t0 = std::chrono::steady_clock::now();
        if (i % 2 == 0) {
          auto r = s.Query(agg);
          if (r->rows != 1) std::printf("  -- bad aggregate result\n");
        } else {
          std::vector<double> preds = s.PredictBatch(*probe);
          if (preds.size() != probe->rows) std::printf("  -- bad batch\n");
        }
        auto t1 = std::chrono::steady_clock::now();
        latencies[static_cast<size_t>(t)].push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
    });
  }
  std::thread writer([&] {
    for (int a = 0; a < kWriterAppends; ++a) {
      ctx->Append("sales",
                  SalesRows(9000 + static_cast<uint64_t>(a), kAppendRows,
                            config));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (auto& t : threads) t.join();
  writer.join();
  auto wall1 = std::chrono::steady_clock::now();

  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  ServeSweep out;
  out.wall_seconds = std::chrono::duration<double>(wall1 - wall0).count();
  out.qps = out.wall_seconds > 0
                ? static_cast<double>(all.size()) / out.wall_seconds
                : 0;
  out.p50_ms = all[all.size() / 2];
  out.p99_ms = all[std::min(all.size() - 1, all.size() * 99 / 100)];
  out.snapshots_published = ctx->snapshots_published();
  out.snapshot_reads = ctx->snapshot_reads();
  out.batched_predictions = ctx->batched_predictions();
  out.admission_waits = ctx->admission_waits();
  return out;
}

void WriteJson(const PredictSweep& pred, const ServeSweep& serve) {
  jb::bench::Json json;
  json.Str("bench", "serving")
      .Num("scale", jb::bench::Scale(), 3)
      .Num("predict_per_row_seconds", pred.per_row_seconds, 6)
      .Num("predict_batched_seconds", pred.batched_seconds, 6)
      .Num("predict_speedup", pred.speedup, 3)
      .Int("predict_rows", pred.rows)
      .Num("serve_wall_seconds", serve.wall_seconds)
      .Num("serve_qps", serve.qps, 2)
      .Num("serve_p50_ms", serve.p50_ms, 3)
      .Num("serve_p99_ms", serve.p99_ms, 3)
      .Int("serve_admission_waits", serve.admission_waits)
      .Object("counters")
      .Int("snapshots_published", serve.snapshots_published)
      .Int("snapshot_reads", serve.snapshot_reads)
      .Int("batched_predictions", serve.batched_predictions)
      .End();
  json.Save("BENCH_PR8.json");
}

}  // namespace

int main() {
  Header("Serving-layer bench (PR 8)",
         "flat-forest batched prediction vs per-row dispatch; qps and tail "
         "latency for concurrent snapshot-pinned sessions with a background "
         "writer publishing appends");

  jb::data::FavoritaConfig config;
  config.sales_rows = jb::bench::ScaledRows(40000);

  jb::exec::Database db(jb::EngineProfile::DSwap());
  jb::Dataset ds = jb::data::MakeFavorita(&db, config);

  jb::core::TrainParams params;
  params.boosting = "gbdt";
  params.num_iterations = 5;
  params.num_leaves = 16;
  params.learning_rate = 0.2;
  jb::TrainResult res = jb::Train(params, ds);
  Note("trained " + std::to_string(res.model.trees.size()) + " trees on " +
       std::to_string(config.sales_rows) + " sales rows");

  jb::core::JoinedEval eval = jb::core::MaterializeJoin(ds);
  std::shared_ptr<jb::exec::ExecTable> probe = MakeProbe(eval.table());
  jb::core::FlatForest forest = jb::core::FlatForest::Compile(res.model);

  PredictSweep pred = RunPredictSweep(res.model, probe, forest);
  std::printf(
      "  predict %zu rows x %zu trees: per-row %8.4fs  batched %8.4fs  "
      "speedup %5.2fx\n",
      pred.rows, forest.num_trees(), pred.per_row_seconds,
      pred.batched_seconds, pred.speedup);

  jb::serve::ServingContext ctx(&db,
                                {"sales", "items", "stores", "dates"});
  ctx.PublishModel(res.model);
  ServeSweep serve = RunServeSweep(&ctx, probe, config);
  std::printf(
      "  %d sessions x %d requests + %d appends: qps %8.1f  p50 %7.3fms  "
      "p99 %7.3fms  (admission waits %llu)\n",
      kSessionThreads, kRequestsPerThread, kWriterAppends, serve.qps,
      serve.p50_ms, serve.p99_ms,
      static_cast<unsigned long long>(serve.admission_waits));
  Row("serve wall", serve.wall_seconds);
  std::printf(
      "  counters: published=%llu reads=%llu batched_predictions=%llu\n",
      static_cast<unsigned long long>(serve.snapshots_published),
      static_cast<unsigned long long>(serve.snapshot_reads),
      static_cast<unsigned long long>(serve.batched_predictions));

  WriteJson(pred, serve);
  return 0;
}
