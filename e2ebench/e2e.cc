// End-to-end training benchmark over the paper's workloads. One workload
// per process:
//
//   e2e --workload <favorita|imdb_galaxy|pilot_update> --seed <n>
//       --seconds <s> --trace <0|1> [--checks <0|1>] [--scale <f>]
//       [--trace-file <path>]
//
// A timing process (--checks 0) runs a one-tree warm-up train and then timed
// trains until the next one would end after --seconds of wall time, counted
// from the process start, warm-up included. At least one timed train runs.
// A checks process (--checks 1) runs no timed trains. Where the join can be
// materialized, it trains the model once, runs the dense baseline and
// compares the model with the exact-mode oracle. --seconds does not bound it:
// its work is fixed. run.py runs one checks process and then several timing
// processes, and pools their samples. Every process that trains prints a
// digest of its model, so run.py can check that all of them trained the same
// model.
//
// Everything is measured from outside the engine, through public entry
// points only: data::Make* (generate + Database::LoadTable) for set-up,
// joinboost::Train for training, baselines::MaterializeExportLoad and
// HistogramGbdt::Train for the dense baseline, and Database::QueryLog(),
// TrainResult and its PlanStats delta for counters. The traced run (--trace 1)
// additionally replays every logged statement through sql::Parse and every
// SELECT through plan::PlanSelect, recording a span around each call.
//
// Steadiness rules (see README.md for the measurements behind them): the
// workload pins exec_threads, a warm-up train is discarded, and every train
// gets a freshly generated Database, because training swaps columns and
// fills the statistics and plan caches.
//
// Output: one "metric <name> <value> <unit>" line per metric, then, as the
// last line, a JSON object {correct, attempted, failed, metrics}. The exit
// code is nonzero when any train fails or any correctness check fails.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baselines/dense_dataset.h"
#include "baselines/histogram_gbdt.h"
#include "data/generators.h"
#include "joinboost.h"
#include "plan/logical_plan.h"
#include "plan/plan_cache.h"
#include "sql/parser.h"
#include "stats/stats_manager.h"
#include "util/threadpool.h"
#include "util/timer.h"

namespace jb = joinboost;

namespace {

struct Workload {
  std::string name;
  int exec_threads = 1;
  int iterations = 1;
  /// The materialized join fits in memory: run the dense baseline and the
  /// exact-mode oracle check.
  bool dense = false;
  std::string config;  ///< generator config, printed with the results
  std::function<jb::Dataset(jb::exec::Database*)> make;
};

size_t Scaled(size_t n, double scale) {
  return std::max<size_t>(1, static_cast<size_t>(std::llround(
                                 static_cast<double>(n) * scale)));
}

// Why these three (README.md has the measured layer shares): favorita is the
// read path (message + split queries, decoding, joins) and has a dense
// baseline; imdb_galaxy has the most, and smallest, statements over a galaxy
// join graph, so fixed per-query costs (SQL, planning) weigh most; pilot_update
// is the write path (residual updates) and the only input large enough for
// morsel parallelism.
bool MakeWorkload(const std::string& name, uint64_t seed, double scale,
                  Workload* w) {
  w->name = name;
  if (name == "favorita") {
    jb::data::FavoritaConfig c;
    c.sales_rows = Scaled(40000, scale);
    c.seed = seed;
    w->exec_threads = 1;
    w->iterations = 3;
    w->dense = true;
    w->config = "MakeFavorita sales_rows=" + std::to_string(c.sales_rows) +
                " num_items=" + std::to_string(c.num_items) +
                " num_stores=" + std::to_string(c.num_stores) +
                " num_dates=" + std::to_string(c.num_dates) +
                " extra_features_per_dim=" +
                std::to_string(c.extra_features_per_dim);
    w->make = [c](jb::exec::Database* db) { return jb::data::MakeFavorita(db, c); };
    return true;
  }
  if (name == "imdb_galaxy") {
    jb::data::ImdbConfig c;
    c.num_movies = Scaled(c.num_movies, scale);
    c.num_persons = Scaled(c.num_persons, scale);
    c.seed = seed;
    w->exec_threads = 1;
    w->iterations = 10;
    w->config = "MakeImdb num_movies=" + std::to_string(c.num_movies) +
                " num_persons=" + std::to_string(c.num_persons) +
                " (other fields default)";
    w->make = [c](jb::exec::Database* db) { return jb::data::MakeImdb(db, c); };
    return true;
  }
  if (name == "pilot_update") {
    jb::data::PilotConfig c;
    c.rows = Scaled(1000000, scale);
    c.seed = seed;
    w->exec_threads = 2;
    w->iterations = 3;
    w->dense = true;
    w->config = "MakePilot rows=" + std::to_string(c.rows) +
                " d_domain=" + std::to_string(c.d_domain) +
                " extra_columns=" + std::to_string(c.extra_columns);
    w->make = [c](jb::exec::Database* db) { return jb::data::MakePilot(db, c); };
    return true;
  }
  return false;
}

jb::core::TrainParams Params(const Workload& w) {
  jb::core::TrainParams p;
  p.objective = "rmse";
  p.boosting = "gbdt";
  p.num_leaves = 8;
  p.learning_rate = 0.1;
  p.num_iterations = w.iterations;
  return p;
}

jb::EngineProfile Profile(const Workload& w) {
  jb::EngineProfile p = jb::EngineProfile::DSwap();
  p.exec_threads = w.exec_threads;
  return p;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of a sorted sample.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<size_t>(rank, 1)) - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Spans recorded around the benchmark's calls into the engine, written as
/// Chrome trace-event JSON (opens in Perfetto or chrome://tracing). Off
/// records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  double NowUs() const { return clock_.Seconds() * 1e6; }

  void Record(const char* name, double start_us, double end_us) {
    if (enabled_) spans_.push_back({name, start_us, end_us - start_us});
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      char buf[192];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f}",
                    i ? "," : "", spans_[i].name, spans_[i].start_us,
                    spans_[i].dur_us);
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    double start_us;
    double dur_us;
  };
  bool enabled_;
  jb::Timer clock_;
  std::vector<Span> spans_;
};

/// One timed train on a fresh database, with its layer split.
struct Rep {
  double setup_s = 0;
  double train_s = 0;
  double message_s = 0;  ///< query-log ms tagged "message" (factor layer)
  double feature_s = 0;  ///< "feature": split queries (core layer)
  double update_s = 0;   ///< "update": residual updates
  double other_s = 0;    ///< every other logged statement
  jb::TrainResult result;  ///< its model is cleared once digested
  uint64_t model_digest = 0;
  std::vector<jb::exec::Database::QueryLogEntry> log;  ///< the train's statements

  double self_s() const {
    return train_s - message_s - feature_s - update_s - other_s;
  }
};

/// FNV-1a of the model's text form: equal digests mean bit-identical models.
uint64_t Digest(const jb::core::Ensemble& model) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : model.ToString()) {
    h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

/// Builds a fresh database into *db, generates and loads the workload into it
/// (set-up) and trains on it. Throws what the engine throws.
Rep TrainOnce(const Workload& w, const jb::EngineProfile& profile,
              const jb::core::TrainParams& params, bool warmup, Tracer* tracer,
              std::unique_ptr<jb::exec::Database>* db) {
  Rep rep;
  db->reset();
  double t0 = tracer->NowUs();
  *db = std::make_unique<jb::exec::Database>(profile);
  jb::Dataset ds = w.make(db->get());
  double t1 = tracer->NowUs();
  tracer->Record(warmup ? "warmup.setup" : "setup", t0, t1);
  rep.setup_s = (t1 - t0) / 1e6;

  size_t log0 = (*db)->QueryLog().size();
  double t2 = tracer->NowUs();
  rep.result = jb::Train(params, ds);
  double t3 = tracer->NowUs();
  tracer->Record(warmup ? "warmup.train" : "train", t2, t3);
  rep.train_s = (t3 - t2) / 1e6;
  rep.model_digest = Digest(rep.result.model);
  rep.result.model = {};

  rep.log = (*db)->QueryLog();
  rep.log.erase(rep.log.begin(), rep.log.begin() + static_cast<long>(log0));
  for (const auto& e : rep.log) {
    double s = e.ms / 1e3;
    if (e.tag == "message") {
      rep.message_s += s;
    } else if (e.tag == "feature") {
      rep.feature_s += s;
    } else if (e.tag == "update") {
      rep.update_s += s;
    } else {
      rep.other_s += s;
    }
  }
  return rep;
}

struct DenseRep {
  double total_s = 0;
  double train_s = 0;
  jb::baselines::ExportStats io;
};

struct Replay {
  size_t statements = 0;  ///< logged statements replayed
  size_t parsed = 0;
  size_t selects = 0;     ///< parsed statements carrying a SELECT
  size_t planned = 0;
  double parse_s = 0;
  double plan_s = 0;
};

/// Re-parse every statement of one train's query log and re-plan every
/// SELECT (including the SELECT of CREATE TABLE AS) against the database's
/// final catalog, with a benchmark-owned statistics manager and plan cache.
Replay ReplayLog(jb::exec::Database& db,
                 const std::vector<jb::exec::Database::QueryLogEntry>& log,
                 Tracer* tracer) {
  Replay r;
  jb::stats::StatsManager stats;
  jb::plan::PlanCache cache;
  jb::plan::PlannerContext pctx;
  pctx.stats = &stats;
  pctx.cache = &cache;
  const jb::plan::ParallelPolicy policy = db.parallel_policy();
  for (const auto& entry : log) {
    ++r.statements;
    jb::sql::Statement stmt;
    double t0 = tracer->NowUs();
    try {
      stmt = jb::sql::Parse(entry.sql);
    } catch (const std::exception&) {
      continue;
    }
    double t1 = tracer->NowUs();
    tracer->Record("sql.parse", t0, t1);
    r.parse_s += (t1 - t0) / 1e6;
    ++r.parsed;
    if (!stmt.select) continue;
    ++r.selects;
    try {
      jb::plan::PlanSelect(*stmt.select, db.catalog(), false, policy, &pctx);
    } catch (const std::exception&) {
      continue;
    }
    double t2 = tracer->NowUs();
    tracer->Record("plan.plan", t1, t2);
    r.plan_s += (t2 - t1) / 1e6;
    ++r.planned;
  }
  return r;
}

bool NearlyEqual(double a, double b) {
  return std::fabs(a - b) <= 1e-6 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one process measured and checked.
struct Outcome {
  size_t attempted = 0;
  size_t failed = 0;
  uint64_t model_digest = 0;
  std::vector<Metric> e2e;     ///< end-to-end metrics (timing process)
  std::vector<Metric> info;    ///< printed, not in the JSON result
  std::vector<Metric> layers;  ///< per-layer metrics (traced timing process)

  void Fail(const std::string& why) {
    std::printf("check FAILED: %s\n", why.c_str());
    ++failed;
  }
};

/// Checks process, for workloads whose join can be materialized (others
/// have nothing to check here): trains the model once, times the dense
/// baseline (materialize + export + load + HistogramGbdt train, same params,
/// a pool of the workload's thread count) and compares every row's
/// prediction with the exact-mode oracle.
void RunChecks(const Workload& w, const jb::core::TrainParams& params,
               const jb::EngineProfile& profile, Tracer* tracer, Outcome* out) {
  if (!w.dense) return;
  std::unique_ptr<jb::exec::Database> db;
  jb::core::Ensemble model;
  ++out->attempted;
  try {
    db = std::make_unique<jb::exec::Database>(profile);
    jb::Dataset ds = w.make(db.get());
    double t0 = tracer->NowUs();
    model = jb::Train(params, ds).model;
    tracer->Record("check.train", t0, tracer->NowUs());
    out->model_digest = Digest(model);
  } catch (const std::exception& e) {
    out->Fail(std::string("train threw: ") + e.what());
    return;
  }
  db.reset();

  const size_t kDenseReps = 2;
  jb::ThreadPool pool(static_cast<size_t>(w.exec_threads));
  std::vector<double> total, join, exp, load, dtrain;
  std::optional<jb::Dataset> ds;  // the latest baseline's input
  jb::baselines::DenseDataset dense;
  for (size_t i = 0; i < kDenseReps; ++i) {
    ds.reset();
    db = std::make_unique<jb::exec::Database>(profile);
    ds = w.make(db.get());
    jb::baselines::ExportStats io;
    double t0 = tracer->NowUs();
    dense = jb::baselines::MaterializeExportLoad(*ds, &io);
    double t1 = tracer->NowUs();
    jb::baselines::HistogramGbdt(params, &pool).Train(dense);
    double t2 = tracer->NowUs();
    tracer->Record("dense.materialize_export_load", t0, t1);
    tracer->Record("dense.train", t1, t2);
    total.push_back((t2 - t0) / 1e6);
    join.push_back(io.join_seconds);
    exp.push_back(io.export_seconds);
    load.push_back(io.load_seconds);
    dtrain.push_back((t2 - t1) / 1e6);
  }
  out->info.push_back({"dense_s", Median(total), "s"});
  out->info.push_back({"baselines.join_s", Median(join), "s"});
  out->info.push_back({"baselines.export_s", Median(exp), "s"});
  out->info.push_back({"baselines.load_s", Median(load), "s"});
  out->info.push_back({"baselines.train_s", Median(dtrain), "s"});

  // Oracle, on the last baseline's (unswapped) input: the factorized model
  // and HistogramGbdt in exact mode (max_bin = 2^20, bins cover every
  // distinct value) must predict the same value on every row of the
  // materialized join.
  ++out->attempted;
  try {
    jb::core::TrainParams exact = params;
    exact.max_bin = 1 << 20;
    double t0 = tracer->NowUs();
    jb::core::Ensemble oracle = jb::baselines::HistogramGbdt(exact, &pool).Train(dense);
    jb::core::JoinedEval eval = jb::core::MaterializeJoin(*ds);
    size_t mismatches = 0;
    for (size_t row = 0; row < eval.rows(); ++row) {
      if (!NearlyEqual(eval.Predict(model, row), eval.Predict(oracle, row))) {
        ++mismatches;
      }
    }
    tracer->Record("check.oracle", t0, tracer->NowUs());
    if (mismatches > 0 || oracle.trees.size() != model.trees.size()) {
      out->Fail(std::to_string(mismatches) + " of " + std::to_string(eval.rows()) +
                " rows differ from the exact-mode HistogramGbdt oracle");
    }
    out->info.push_back({"rmse", eval.Rmse(model), "y"});
    out->info.push_back({"oracle_rows", static_cast<double>(eval.rows()), "count"});
  } catch (const std::exception& e) {
    out->Fail(std::string("oracle check threw: ") + e.what());
  }
}

/// Per-layer metrics of the median timed train, plus the replay of its log.
void LayerMetrics(const std::vector<Rep>& reps, std::vector<double> query_ms,
                  jb::exec::Database& db, Tracer* tracer, Outcome* out) {
  // Self time plus the query-log time per role adds up to the train's wall
  // time by construction.
  std::vector<const Rep*> order;
  for (const Rep& r : reps) order.push_back(&r);
  std::sort(order.begin(), order.end(), [](const Rep* a, const Rep* b) {
    return a->train_s < b->train_s;
  });
  const Rep& m = *order[order.size() / 2];
  const jb::TrainResult& res = m.result;
  const jb::plan::PlanStats& ps = res.plan_stats;
  auto& layers = out->layers;
  layers.push_back({"traced.train_s", m.train_s, "s"});
  layers.push_back({"core.self_s", m.self_s(), "s"});
  layers.push_back({"core.message_cache_hit_ratio",
                    Ratio(static_cast<double>(res.cache_hits),
                          static_cast<double>(res.cache_hits + res.cache_misses)),
                    "ratio"});
  layers.push_back({"core.message_queries",
                    static_cast<double>(res.message_queries), "count"});
  layers.push_back({"core.feature_queries",
                    static_cast<double>(res.feature_queries), "count"});
  layers.push_back({"query.message_s", m.message_s, "s"});
  layers.push_back({"query.feature_s", m.feature_s, "s"});
  layers.push_back({"query.update_s", m.update_s, "s"});
  layers.push_back({"query.other_s", m.other_s, "s"});

  // The replay runs against the last train's database and log.
  Replay rp = ReplayLog(db, reps.back().log, tracer);
  layers.push_back({"sql.parse_s", rp.parse_s, "s"});
  layers.push_back({"sql.statements", static_cast<double>(rp.statements), "count"});
  layers.push_back({"sql.parsed", static_cast<double>(rp.parsed), "count"});
  layers.push_back({"plan.plan_s", rp.plan_s, "s"});
  layers.push_back({"plan.selects", static_cast<double>(rp.selects), "count"});
  layers.push_back({"plan.planned", static_cast<double>(rp.planned), "count"});
  layers.push_back({"plan.cache_hit_ratio",
                    Ratio(static_cast<double>(ps.plan_cache_hits),
                          static_cast<double>(ps.plan_cache_hits +
                                              ps.plan_cache_misses)),
                    "ratio"});
  layers.push_back({"plan.joins_reordered_dp",
                    static_cast<double>(ps.joins_reordered_dp), "count"});

  // Statement latency over every timed train: the median and the highest
  // percentile (at most p99) with at least ten samples beyond it.
  std::sort(query_ms.begin(), query_ms.end());
  const double n = static_cast<double>(query_ms.size());
  const double tail_q = n > 0 ? std::max(0.0, std::min(0.99, 1.0 - 10.0 / n)) : 0;
  out->info.push_back({"exec.queries", n, "count"});
  out->info.push_back({"exec.query_tail_pct", 100 * tail_q, "%"});
  layers.push_back({"exec.query_p50_ms", Percentile(query_ms, 0.5), "ms"});
  layers.push_back({"exec.query_tail_ms", Percentile(query_ms, tail_q), "ms"});
  layers.push_back({"exec.rows_scanned", static_cast<double>(ps.rows_scan_input), "count"});
  layers.push_back({"exec.hash_probes", static_cast<double>(ps.hash_probes), "count"});
  layers.push_back({"exec.hash_chain_follows",
                    static_cast<double>(ps.hash_chain_follows), "count"});
  layers.push_back({"exec.hash_bytes", static_cast<double>(ps.hash_bytes), "bytes"});
  layers.push_back({"exec.grouping_sets", static_cast<double>(ps.grouping_sets), "count"});
  layers.push_back({"exec.morsels_dispatched",
                    static_cast<double>(ps.morsels_dispatched), "count"});
  layers.push_back({"exec.morsels_stolen_ratio",
                    Ratio(static_cast<double>(ps.morsels_stolen),
                          static_cast<double>(ps.morsels_dispatched)),
                    "ratio"});
  layers.push_back({"storage.cells_decompressed",
                    static_cast<double>(ps.cells_decompressed), "count"});
  layers.push_back({"storage.decode_avoided_ratio",
                    Ratio(static_cast<double>(ps.cells_decompress_avoided),
                          static_cast<double>(ps.cells_decompress_avoided +
                                              ps.cells_decompressed)),
                    "ratio"});
  layers.push_back({"storage.blocks_skipped", static_cast<double>(ps.blocks_skipped), "count"});
  layers.push_back({"storage.chunks_created", static_cast<double>(ps.chunks_created), "count"});
}

/// Timing process: a one-tree warm-up train, then timed trains until the
/// next one would end after `seconds` of wall time counted from `clock`'s
/// start. Every train gets a fresh database.
void RunTimed(const Workload& w, const jb::core::TrainParams& params,
              const jb::EngineProfile& profile, double seconds,
              const jb::Timer& clock, bool trace, Tracer* tracer, Outcome* out) {
  std::unique_ptr<jb::exec::Database> db;  // the latest train's database
  // The warm-up runs every statement shape of a full train: one tree is
  // enough to take the first-train cost, at a third or less of its time.
  jb::core::TrainParams warmup = params;
  warmup.num_iterations = 1;
  ++out->attempted;
  try {
    Rep rep = TrainOnce(w, profile, warmup, true, tracer, &db);
    out->info.push_back({"warmup_train_s", rep.train_s, "s"});
  } catch (const std::exception& e) {
    out->Fail(std::string("warm-up train threw: ") + e.what());
    return;
  }

  std::vector<Rep> reps;
  std::vector<double> query_ms;  // every logged statement of the timed trains
  double longest = 0;  // the longest set-up + train so far
  while (reps.empty() || clock.Seconds() + longest <= seconds) {
    ++out->attempted;
    try {
      Rep rep = TrainOnce(w, profile, params, false, tracer, &db);
      longest = std::max(longest, rep.setup_s + rep.train_s);
      if (!reps.empty() && rep.model_digest != reps[0].model_digest) {
        out->Fail("timed train " + std::to_string(reps.size() + 1) +
                  " model differs from the first timed train's");
      }
      for (const auto& e : rep.log) query_ms.push_back(e.ms);
      if (!reps.empty()) reps.back().log.clear();  // only the last is replayed
      reps.push_back(std::move(rep));
    } catch (const std::exception& e) {
      out->Fail(std::string("timed train threw: ") + e.what());
      return;
    }
  }
  out->model_digest = reps[0].model_digest;
  // Peak RSS of set-up plus training.
  const double peak_rss_mb = PeakRssMb();

  std::vector<double> setup_s, train_s;
  for (const Rep& r : reps) {
    setup_s.push_back(r.setup_s);
    train_s.push_back(r.train_s);
  }
  // A set-up takes milliseconds, so take extra samples of it on their own
  // for a steadier median.
  const size_t kMinSetups = 10;
  while (setup_s.size() < kMinSetups) {
    double t0 = tracer->NowUs();
    jb::exec::Database sdb(profile);
    w.make(&sdb);
    double t1 = tracer->NowUs();
    tracer->Record("setup", t0, t1);
    setup_s.push_back((t1 - t0) / 1e6);
  }

  out->e2e.push_back({"train_s", Median(train_s), "s"});
  out->e2e.push_back({"setup_s", Median(setup_s), "s"});
  out->e2e.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  out->info.push_back({"trains", static_cast<double>(reps.size()), "count"});
  for (const auto& [name, values] : {std::pair{"train_s", &train_s},
                                      std::pair{"setup_s", &setup_s}}) {
    std::printf("samples %s", name);
    for (double v : *values) std::printf(" %.9g", v);
    std::printf("\n");
  }
  if (trace) LayerMetrics(reps, std::move(query_ms), *db, tracer, out);
}

void Usage() {
  std::fprintf(stderr,
               "usage: e2e --workload <favorita|imdb_galaxy|pilot_update> "
               "--seed <n> --seconds <s> --trace <0|1> [--checks <0|1>] "
               "[--scale <f>] [--trace-file <path>]\n");
}

}  // namespace

int main(int argc, char** argv) {
  const jb::Timer clock;  // the whole process counts against --seconds
  std::string workload_name, trace_file;
  uint64_t seed = 0;
  double seconds = 0, scale = 1.0;
  int trace = -1, checks = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      workload_name = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = std::atof(val);
    } else if (flag == "--trace") {
      trace = std::atoi(val);
    } else if (flag == "--scale") {
      scale = std::atof(val);
    } else if (flag == "--checks") {
      checks = std::atoi(val);
    } else if (flag == "--trace-file") {
      trace_file = val;
    } else {
      Usage();
      return 2;
    }
  }
  Workload w;
  if (argc % 2 == 0 || !have_seed || seconds <= 0 || scale <= 0 ||
      (trace != 0 && trace != 1) || (checks != 0 && checks != 1) ||
      !MakeWorkload(workload_name, seed, scale, &w)) {
    Usage();
    return 2;
  }

  const jb::core::TrainParams params = Params(w);
  const jb::EngineProfile profile = Profile(w);
  Tracer tracer(trace == 1);

  std::printf("workload %s\n", w.name.c_str());
  std::printf("config %s\n", w.config.c_str());
  std::printf("seed %llu\n", static_cast<unsigned long long>(seed));
  std::printf("nproc %u\n", std::thread::hardware_concurrency());
  std::printf("exec_threads %d\n", w.exec_threads);
  std::printf("profile %s\n", profile.name.c_str());
  std::printf("params boosting=%s objective=%s num_leaves=%d "
              "num_iterations=%d learning_rate=%g\n",
              params.boosting.c_str(), params.objective.c_str(),
              params.num_leaves, params.num_iterations, params.learning_rate);
  std::printf("build_type %s\n", E2E_BUILD_TYPE);
  std::printf("seconds %g trace %d checks %d\n", seconds, trace, checks);

  Outcome out;
  if (checks == 1) {
    RunChecks(w, params, profile, &tracer, &out);
  } else {
    RunTimed(w, params, profile, seconds, clock, trace == 1, &tracer, &out);
  }
  out.info.push_back({"error_rate", Ratio(static_cast<double>(out.failed),
                                          static_cast<double>(out.attempted)),
                      "ratio"});

  if (trace == 1 && !trace_file.empty()) {
    if (tracer.Write(trace_file)) {
      std::printf("trace_file %s\n", trace_file.c_str());
    } else {
      out.Fail("cannot write trace file " + trace_file);
    }
  }

  if (out.model_digest != 0) {
    std::printf("model_digest %016llx\n",
                static_cast<unsigned long long>(out.model_digest));
  }
  for (const auto* group : {&out.e2e, &out.info, &out.layers}) {
    for (const Metric& m : *group) {
      std::printf("metric %s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  const bool correct = out.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  const std::vector<Metric>& reported = trace == 1 ? out.layers : out.e2e;
  for (size_t i = 0; i < reported.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i ? ", " : "", reported[i].name.c_str(), reported[i].value,
                  reported[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
