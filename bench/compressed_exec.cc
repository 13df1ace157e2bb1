// Compressed-execution sweep (PR 6): the same scan/filter/join/agg shapes
// run with compressed execution ON (predicates evaluated in code space,
// zone-map block skipping, hash keys mixed from FOR deltas / dictionary
// ids) vs OFF (decode-first, the pre-PR6 engine), over a Favorita-like
// fact whose sort key gives range predicates real blocks to skip. The
// deterministic decode-work counters of the ON pass are guarded by CI
// (bench/baselines/BENCH_PR6.json via tools/compare_bench.py).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "joinboost.h"
#include "util/rng.h"

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

struct Shape {
  std::string name;
  std::string sql;
};

/// The fact is generated date-ordered (column `k` ascending), like the real
/// Favorita feed: frame-of-reference blocks carry tight min/max ranges, so
/// the range shapes below can answer from zone maps alone.
void LoadFact(jb::exec::Database* db, size_t rows, size_t dim_rows) {
  jb::Rng rng(97);
  std::vector<int64_t> k(rows);
  std::vector<double> v(rows);
  std::vector<std::string> cat(rows), skey(rows);
  for (size_t i = 0; i < rows; ++i) {
    k[i] = static_cast<int64_t>(i);
    v[i] = rng.NextDouble();
    cat[i] = "c" + std::to_string(rng.NextInt(0, 15));
    skey[i] = "s" + std::to_string(rng.NextInt(
                        0, static_cast<int64_t>(dim_rows) - 1));
  }
  db->LoadTable(jb::TableBuilder("f")
                    .AddInts("k", k)
                    .AddDoubles("v", v)
                    .AddStrings("cat", cat)
                    .AddStrings("skey", skey)
                    .Build());
  std::vector<std::string> dkey(dim_rows);
  std::vector<double> dw(dim_rows);
  for (size_t i = 0; i < dim_rows; ++i) {
    // Reverse insertion order: the dimension owns a different dictionary
    // than the fact, so the join below takes the cross-dictionary remap.
    dkey[i] = "s" + std::to_string(dim_rows - 1 - i);
    dw[i] = rng.NextDouble();
  }
  db->LoadTable(jb::TableBuilder("d")
                    .AddStrings("skey", dkey)
                    .AddDoubles("w", dw)
                    .Build());
}

struct SweepResult {
  std::string name;
  double decoded_seconds = 0;
  double encoded_seconds = 0;
  double speedup = 0;
};

}  // namespace

int main() {
  Header("Compressed execution sweep (PR 6)",
         "scan/filter/join/agg shapes, decode-first vs in-place on "
         "dictionary ids and frame-of-reference blocks; deterministic "
         "decode-work counters CI-guarded");

  const size_t rows = jb::bench::ScaledRows(400000);
  const size_t dim_rows = 2000;
  jb::EngineProfile on_profile = jb::EngineProfile::DSwap();
  on_profile.compressed_exec = true;
  jb::EngineProfile off_profile = on_profile;
  off_profile.compressed_exec = false;
  jb::exec::Database on_db(on_profile);
  jb::exec::Database off_db(off_profile);
  LoadFact(&on_db, rows, dim_rows);
  LoadFact(&off_db, rows, dim_rows);

  char range[256];
  std::snprintf(range, sizeof(range),
                "SELECT COUNT(*) AS c, SUM(f.v) AS s FROM f "
                "WHERE f.k BETWEEN %zu AND %zu",
                rows / 2, rows / 2 + rows / 100);
  char tail[256];
  std::snprintf(tail, sizeof(tail),
                "SELECT f.cat AS g, COUNT(*) AS c, AVG(f.v) AS a FROM f "
                "WHERE f.k >= %zu GROUP BY f.cat",
                rows - rows / 20);
  char joinq[256];
  std::snprintf(joinq, sizeof(joinq),
                "SELECT d.w AS w, SUM(f.v) AS s FROM f "
                "JOIN d ON f.skey = d.skey WHERE f.k < %zu GROUP BY d.w",
                rows / 4);
  const Shape shapes[] = {
      {"selective_range", range},
      {"eq_absent", "SELECT COUNT(*) AS c FROM f WHERE f.cat = 'nope'"},
      {"in_list",
       "SELECT f.cat AS g, SUM(f.v) AS s FROM f "
       "WHERE f.cat IN ('c1', 'c3', 'c5', 'nope') GROUP BY f.cat"},
      {"crossdict_join", joinq},
      {"tail_group_agg", tail},
  };

  const int reps = 5;
  std::vector<SweepResult> sweep;
  double total_on = 0, total_off = 0;
  size_t sink = 0;
  for (const Shape& s : shapes) {
    SweepResult r;
    r.name = s.name;
    size_t on_rows = 0, off_rows = 0;
    r.encoded_seconds =
        Seconds([&] { on_rows = on_db.Query(s.sql)->rows; }, reps);
    r.decoded_seconds =
        Seconds([&] { off_rows = off_db.Query(s.sql)->rows; }, reps);
    if (on_rows != off_rows) {
      std::printf("  !! %s: encoded %zu rows vs decoded %zu rows\n",
                  s.name.c_str(), on_rows, off_rows);
      return 1;
    }
    sink += on_rows;
    r.speedup =
        r.encoded_seconds > 0 ? r.decoded_seconds / r.encoded_seconds : 0;
    total_on += r.encoded_seconds;
    total_off += r.decoded_seconds;
    std::printf("  %-18s decoded %8.4fs  encoded %8.4fs  speedup %5.2fx\n",
                s.name.c_str(), r.decoded_seconds, r.encoded_seconds,
                r.speedup);
    sweep.push_back(r);
  }
  double speedup = total_on > 0 ? total_off / total_on : 0;
  Note("sweep speedup (total decoded / total encoded): " +
       std::to_string(speedup) + "x  [sink " + std::to_string(sink % 10) +
       "]");

  // Counter pass: one run of every shape on the encoded engine. The decode
  // counters derive from per-(column, block) touched bitmaps, so they are
  // thread-count and machine independent — exact values are CI-guarded.
  on_db.ClearPlanStats();
  for (const Shape& s : shapes) sink += on_db.Query(s.sql)->rows;
  jb::plan::PlanStats stats = on_db.PlanStatsTotals();
  std::printf(
      "  counters: cells_decompressed=%zu cells_decompress_avoided=%zu "
      "blocks_skipped=%zu cols_decompressed=%zu\n",
      stats.cells_decompressed, stats.cells_decompress_avoided,
      stats.blocks_skipped, stats.cols_decompressed);

  jb::bench::Json json;
  json.Str("bench", "compressed_exec")
      .Num("scale", jb::bench::Scale(), 3)
      .Int("rows", rows)
      .Array("sweep");
  for (const SweepResult& r : sweep) {
    json.Object()
        .Str("name", r.name)
        .Num("decoded_seconds", r.decoded_seconds, 6)
        .Num("encoded_seconds", r.encoded_seconds, 6)
        .Num("speedup", r.speedup, 3)
        .End();
  }
  json.End()
      .Num("speedup", speedup, 3)
      .Object("counters")
      .Int("engine_queries", sizeof(shapes) / sizeof(shapes[0]))
      .Counters(stats, {"cells_decompressed", "cells_decompress_avoided",
                        "blocks_skipped", "cols_decompressed"})
      .End();
  if (!json.Save("BENCH_PR6.json")) return 1;
  return 0;
}
