// Sweep bench: the Table-3-style 4-cell sweep behind this repo's async
// pipeline acceptance criteria. Trains the same four defenses twice —
// serially (one job), then concurrently (ZKG_JOBS jobs), both through
// Trainer::fit's PrefetchBatcher pipeline — and checks the parallel run's
// final weights bit-for-bit against the serial reference before reporting
// the wall-clock speedup.
//
// ZKG_BENCH_JSON=<path> additionally records the perf trajectory as a
// single JSON document: per-cell epoch wall-clock and batches/sec for both
// modes, BufferPool hit/miss counters per phase, and the speedup. CI keeps
// these files per commit, so regressions in pipeline throughput or pool
// discipline show up as a trend break.
#include <cmath>
#include <fstream>
#include <iostream>

#include "common/env.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "common/threadpool.hpp"
#include "eval/scheduler.hpp"
#include "obs/json.hpp"
#include "tensor/pool.hpp"

namespace {

using namespace zkg;

obs::Json run_record(const eval::SweepRun& run) {
  obs::JsonObject record;
  record["cell"] = run.name;
  record["ok"] = run.ok;
  if (!run.ok) record["error"] = run.error;
  record["wall_seconds"] = run.wall_seconds;
  record["seconds_per_epoch"] = run.train.mean_epoch_seconds();
  obs::JsonArray epoch_seconds;
  obs::JsonArray batches_per_sec;
  for (const defense::EpochStats& e : run.train.epochs) {
    epoch_seconds.push_back(e.seconds);
    batches_per_sec.push_back(
        e.seconds > 0.0 ? static_cast<double>(e.batches) / e.seconds : 0.0);
  }
  record["epoch_seconds"] = std::move(epoch_seconds);
  record["batches_per_sec"] = std::move(batches_per_sec);
  return obs::Json(std::move(record));
}

obs::Json pool_record(const PoolStats& stats) {
  obs::JsonObject record;
  record["hits"] = stats.hits;
  record["misses"] = stats.misses;
  record["bytes_allocated"] = stats.bytes_allocated;
  record["bytes_recycled"] = stats.bytes_recycled;
  return obs::Json(std::move(record));
}

bool params_identical(const std::vector<Tensor>& a,
                      const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (a[t].shape() != b[t].shape()) return false;
    for (std::int64_t i = 0; i < a[t].numel(); ++i) {
      if (a[t][i] != b[t][i]) return false;  // bitwise: no tolerance
    }
  }
  return true;
}

}  // namespace

int main() {
  const std::uint64_t seed =
      static_cast<std::uint64_t>(env_or_int("ZKG_SEED", 20190417));
  const unsigned jobs = static_cast<unsigned>(env_or_int(
      "ZKG_JOBS", static_cast<std::int64_t>(ThreadPool::default_thread_count())));

  // The acceptance sweep: four defense cells on the LeNet dataset, identical
  // (dataset, seed) so the scheduler shares one prepared dataset.
  const std::vector<eval::SweepCell> cells = {
      {defense::DefenseId::kVanilla, data::DatasetId::kDigits, seed},
      {defense::DefenseId::kCls, data::DatasetId::kDigits, seed},
      {defense::DefenseId::kZkGanDef, data::DatasetId::kDigits, seed},
      {defense::DefenseId::kPgdGanDef, data::DatasetId::kDigits, seed},
  };

  std::cout << "=== Sweep bench — " << cells.size()
            << " cells, serial vs " << jobs << " jobs ===\n\n";

  eval::SweepOptions serial_opts;
  serial_opts.jobs = 1;
  serial_opts.evaluate = eval::AttackSuite::kNone;
  serial_opts.keep_params = true;

  eval::SweepOptions parallel_opts = serial_opts;
  parallel_opts.jobs = jobs;

  BufferPool::global().reset_stats();
  Stopwatch serial_watch;
  const std::vector<eval::SweepRun> serial = eval::run_sweep(cells, serial_opts);
  const double serial_seconds = serial_watch.seconds();
  const PoolStats serial_pool = BufferPool::global().stats();

  BufferPool::global().reset_stats();
  Stopwatch parallel_watch;
  const std::vector<eval::SweepRun> parallel =
      eval::run_sweep(cells, parallel_opts);
  const double parallel_seconds = parallel_watch.seconds();
  const PoolStats parallel_pool = BufferPool::global().stats();

  bool all_ok = true;
  bool identical = true;
  Table table({"Cell", "serial s", "parallel s", "bit-identical"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    all_ok = all_ok && serial[i].ok && parallel[i].ok;
    const bool same =
        serial[i].ok && parallel[i].ok &&
        params_identical(serial[i].final_params, parallel[i].final_params);
    identical = identical && same;
    table.add_row({serial[i].name, Table::fixed(serial[i].wall_seconds, 2),
                   Table::fixed(parallel[i].wall_seconds, 2),
                   same ? "yes" : "NO"});
  }
  const double speedup =
      parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;

  std::cout << table.to_text() << "\n"
            << "serial total:   " << Table::fixed(serial_seconds, 2) << " s\n"
            << "parallel total: " << Table::fixed(parallel_seconds, 2)
            << " s  (speedup " << Table::fixed(speedup, 2) << "x on "
            << ThreadPool::default_thread_count() << " hw threads)\n"
            << "weights bit-identical across modes: "
            << (identical ? "yes" : "NO") << "\n";

  const std::string json_path = env_or("ZKG_BENCH_JSON", "");
  if (!json_path.empty()) {
    obs::JsonObject doc;
    doc["bench"] = "sweep";
    doc["jobs"] = static_cast<std::int64_t>(jobs);
    doc["hw_threads"] =
        static_cast<std::int64_t>(ThreadPool::default_thread_count());
    doc["serial_seconds"] = serial_seconds;
    doc["parallel_seconds"] = parallel_seconds;
    doc["speedup"] = speedup;
    doc["bit_identical"] = identical;
    obs::JsonArray serial_runs;
    for (const eval::SweepRun& run : serial) serial_runs.push_back(run_record(run));
    obs::JsonArray parallel_runs;
    for (const eval::SweepRun& run : parallel) {
      parallel_runs.push_back(run_record(run));
    }
    doc["serial_runs"] = std::move(serial_runs);
    doc["parallel_runs"] = std::move(parallel_runs);
    doc["serial_pool"] = pool_record(serial_pool);
    doc["parallel_pool"] = pool_record(parallel_pool);
    std::ofstream out(json_path, std::ios::trunc);
    out << obs::Json(std::move(doc)).dump() << "\n";
    std::cout << "perf trajectory written to " << json_path << "\n";
  }

  if (!all_ok) {
    std::cerr << "FAIL: at least one sweep cell errored\n";
    return 1;
  }
  if (!identical) {
    std::cerr << "FAIL: parallel sweep weights diverged from the serial "
                 "reference\n";
    return 1;
  }
  std::cout << "SWEEP BENCH PASS\n";
  return 0;
}
