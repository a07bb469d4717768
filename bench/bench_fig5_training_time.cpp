// Regenerates paper Figure 5 (left and middle): training time per epoch of
// ZK-GanDef vs the full-knowledge defenses, on the LeNet datasets (left) and
// the allCNN dataset (middle).
//
// The paper's GTX-1080 numbers (for shape comparison):
//   MNIST/F-MNIST: ZK-GanDef 8.75s, FGSM-Adv 7.83s, PGD-Adv 110.85s,
//                  PGD-GanDef 132.75s
//   CIFAR10:       ZK-GanDef 71.20s, FGSM-Adv 62.85s, PGD-Adv 146.91s,
//                  PGD-GanDef 257.72s
// The claim is ordinal: ZK-GanDef =~ FGSM-Adv << PGD-Adv < PGD-GanDef.
#include <fstream>
#include <iostream>
#include <memory>

#include "common/env.hpp"
#include "common/table.hpp"
#include "defense/observer.hpp"
#include "eval/scheduler.hpp"

namespace {

// ZKG_BENCH_JSON=<path> streams one structured record per trained epoch
// (train_begin / epoch / train_end, see DESIGN.md §9) to <path> while the
// human-readable tables still go to stdout.
std::ofstream* bench_json_stream() {
  static std::ofstream stream;
  static const bool open = [] {
    const std::string path = zkg::env_or("ZKG_BENCH_JSON", "");
    if (path.empty()) return false;
    stream.open(path, std::ios::trunc);
    return stream.is_open();
  }();
  return open ? &stream : nullptr;
}

// ZKG_JOBS > 1 trains the four defenses as concurrent scheduler jobs. The
// per-epoch timings then measure a loaded machine (jobs compete for cores),
// so serial stays the default for Figure 5's absolute numbers; the parallel
// run is for quickly checking the ordinal claim. The shared ZKG_BENCH_JSON
// recorder is attached only serially: concurrent trainers would interleave
// records mid-line.
void run_panel(zkg::data::DatasetId id, const char* label) {
  using namespace zkg;
  const std::uint64_t seed =
      static_cast<std::uint64_t>(env_or_int("ZKG_SEED", 20190417));
  std::cout << "--- " << label << " (" << data::dataset_name(id) << ") ---\n";
  eval::SweepOptions options;
  options.jobs = static_cast<unsigned>(env_or_int("ZKG_JOBS", 1));
  std::unique_ptr<defense::JsonlTrainObserver> recorder;
  std::ofstream* json = options.jobs == 1 ? bench_json_stream() : nullptr;
  if (json != nullptr) {
    recorder = std::make_unique<defense::JsonlTrainObserver>(*json);
    options.observer = recorder.get();
  }
  const std::vector<eval::TrainingTimeRow> rows =
      eval::run_training_time(id, seed, /*epochs=*/2, options);

  double zk_seconds = 0.0;
  for (const eval::TrainingTimeRow& row : rows) {
    if (row.defense == "ZK-GanDef") zk_seconds = row.seconds_per_epoch;
  }
  Table table({"Defense", "s/epoch", "vs ZK-GanDef"});
  for (const eval::TrainingTimeRow& row : rows) {
    table.add_row({row.defense, Table::fixed(row.seconds_per_epoch, 2),
                   Table::fixed(row.seconds_per_epoch / zk_seconds, 2) + "x"});
  }
  std::cout << table.to_text() << "\n";
}

}  // namespace

int main() {
  std::cout << "=== Paper Figure 5 (left, middle) — training time per epoch "
               "===\n\n";
  run_panel(zkg::data::DatasetId::kDigits, "Figure 5 left: LeNet datasets");
  run_panel(zkg::data::DatasetId::kObjects, "Figure 5 middle: allCNN dataset");
  std::cout << "Expected shape: ZK-GanDef close to FGSM-Adv; PGD-Adv and "
               "PGD-GanDef several times slower\n(they generate an iterative "
               "attack for every training batch).\n";
  return 0;
}
