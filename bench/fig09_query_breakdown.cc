// Figure 9: query mix of the first gradient-boosting iteration — number of
// feature-split vs message-passing queries, and the latency histogram.
// Extended with a planner on/off pass: per-phase timings plus the planner's
// scan/decompression deltas are written to BENCH_PR2.json (CI artifact).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/generators.h"
#include "joinboost.h"

namespace jb = joinboost;
using jb::bench::Header;
using jb::bench::Note;

namespace {

struct Pass {
  jb::TrainResult train;
  jb::plan::PlanStats stats;
  std::vector<jb::exec::Database::QueryLogEntry> log;
  size_t features = 0;
};

Pass RunPass(bool use_planner) {
  jb::EngineProfile profile = jb::EngineProfile::DSwap();
  profile.use_planner = use_planner;
  jb::exec::Database db(profile);
  jb::data::FavoritaConfig config;
  config.sales_rows = jb::bench::ScaledRows(100000);
  jb::Dataset ds = jb::data::MakeFavorita(&db, config);

  jb::core::TrainParams params;
  params.boosting = "gbdt";
  params.num_iterations = 1;
  params.num_leaves = 8;
  db.ClearQueryLog();
  db.ClearPlanStats();
  Pass pass;
  pass.train = jb::Train(params, ds);
  pass.stats = db.PlanStatsTotals();
  pass.log = db.QueryLog();
  pass.features = ds.graph().AllFeatures().size();
  return pass;
}

void EmitPass(jb::bench::Json& json, const char* name, const Pass& p) {
  json.Object(name)
      .Num("seconds", p.train.seconds)
      .Num("message_seconds", p.train.message_seconds)
      .Num("feature_seconds", p.train.feature_seconds)
      .Num("update_seconds", p.train.update_seconds)
      .Int("message_queries", p.train.message_queries)
      .Int("feature_queries", p.train.feature_queries)
      .Counters(p.stats, {"queries_planned", "rows_scan_input",
                          "rows_scan_output", "cols_scanned", "cols_pruned",
                          "cols_decompressed", "cells_decompressed",
                          "predicates_pushed", "joins_reordered"})
      .End();
}

double Reduction(size_t off, size_t on) {
  if (off == 0) return 0.0;
  return 1.0 - static_cast<double>(on) / static_cast<double>(off);
}

void WriteJson(const Pass& on, const Pass& off, size_t sales_rows) {
  jb::bench::Json json;
  json.Str("bench", "fig09_query_breakdown")
      .Num("scale", jb::bench::Scale(), 3)
      .Int("sales_rows", sales_rows);
  EmitPass(json, "planner_on", on);
  EmitPass(json, "planner_off", off);
  json.Object("delta")
      .Num("rows_scanned_reduction",
           Reduction(off.stats.rows_scan_output, on.stats.rows_scan_output))
      .Num("cols_decompressed_reduction",
           Reduction(off.stats.cols_decompressed, on.stats.cols_decompressed))
      .Num("cells_decompressed_reduction",
           Reduction(off.stats.cells_decompressed,
                     on.stats.cells_decompressed))
      .Num("speedup",
           on.train.seconds > 0 ? off.train.seconds / on.train.seconds : 0.0,
           3)
      .End();
  json.Save("BENCH_PR2.json");
}

}  // namespace

int main() {
  Header("Figure 9: 1st-iteration query breakdown",
         "num_nodes x num_features split queries (fast, <10ms-class) plus a "
         "few message queries; the slowest queries are messages from the "
         "fact table");

  size_t sales_rows = jb::bench::ScaledRows(100000);
  Pass on = RunPass(/*use_planner=*/true);

  std::printf("  (a) query counts: feature=%zu message=%zu\n",
              on.train.feature_queries, on.train.message_queries);
  Note("expected feature queries = 15 nodes x " +
       std::to_string(on.features) +
       " features = " + std::to_string(15 * on.features));

  // Latency histogram, split by tag.
  std::vector<double> feature_ms, message_ms;
  for (const auto& e : on.log) {
    if (e.tag == "feature") feature_ms.push_back(e.ms);
    if (e.tag == "message") message_ms.push_back(e.ms);
  }
  auto histo = [](const std::string& label, std::vector<double> ms) {
    if (ms.empty()) return;
    std::sort(ms.begin(), ms.end());
    std::printf("  (b) %s latency ms: p50=%.2f p90=%.2f max=%.2f\n",
                label.c_str(), ms[ms.size() / 2], ms[ms.size() * 9 / 10],
                ms.back());
    // Buckets (log2 ms).
    std::vector<int> buckets(12, 0);
    for (double m : ms) {
      int b = m <= 1 ? 0 : std::min(11, 1 + static_cast<int>(std::log2(m)));
      ++buckets[static_cast<size_t>(b)];
    }
    std::printf("      histogram(<=1ms,2,4,8,...):");
    for (int b : buckets) std::printf(" %d", b);
    std::printf("\n");
  };
  histo("feature-split", feature_ms);
  histo("message", message_ms);

  double fmax = feature_ms.empty()
                    ? 0
                    : *std::max_element(feature_ms.begin(), feature_ms.end());
  double mmax = message_ms.empty()
                    ? 0
                    : *std::max_element(message_ms.begin(), message_ms.end());
  Note(std::string("slowest message vs slowest split query: ") +
       std::to_string(mmax) + "ms vs " + std::to_string(fmax) + "ms");

  // (c) planner on/off: same workload, raw-AST execution.
  Pass off = RunPass(/*use_planner=*/false);
  std::printf("  (c) planner delta (on vs off):\n");
  std::printf("      train seconds       %8.3f vs %8.3f\n", on.train.seconds,
              off.train.seconds);
  std::printf("      rows out of scans   %8zu vs %8zu (-%.1f%%)\n",
              on.stats.rows_scan_output, off.stats.rows_scan_output,
              100 * Reduction(off.stats.rows_scan_output,
                              on.stats.rows_scan_output));
  std::printf("      cols decompressed   %8zu vs %8zu (-%.1f%%)\n",
              on.stats.cols_decompressed, off.stats.cols_decompressed,
              100 * Reduction(off.stats.cols_decompressed,
                              on.stats.cols_decompressed));
  std::printf("      cells decompressed  %8zu vs %8zu (-%.1f%%)\n",
              on.stats.cells_decompressed, off.stats.cells_decompressed,
              100 * Reduction(off.stats.cells_decompressed,
                              on.stats.cells_decompressed));
  Note("planner rules fired: pushed=" +
       std::to_string(on.stats.predicates_pushed) +
       " folded=" + std::to_string(on.stats.constants_folded) +
       " reordered=" + std::to_string(on.stats.joins_reordered));

  WriteJson(on, off, sales_rows);
  return 0;
}
