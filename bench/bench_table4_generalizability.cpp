// Regenerates paper Table IV: ZK-GanDef's test accuracy on DeepFool and CW
// adversarial examples across all three datasets — the generalizability
// claim (ZK-GanDef trains only on Gaussian noise, yet defends perturbation
// patterns far from Gaussian).
//
// ZKG_JOBS=<n> runs the three dataset columns as concurrent scheduler jobs
// (each column trains and evaluates its own model from its own seed-derived
// RNG streams, so results match the serial order exactly). Concurrent jobs
// refuse ZKG_CKPT_DIR, which would point all three at one directory.
#include <iostream>

#include "common/env.hpp"
#include "common/table.hpp"
#include "eval/scheduler.hpp"

int main() {
  using namespace zkg;
  const std::uint64_t seed =
      static_cast<std::uint64_t>(env_or_int("ZKG_SEED", 20190417));
  const unsigned jobs = static_cast<unsigned>(env_or_int("ZKG_JOBS", 1));

  std::cout << "=== Paper Table IV — ZK-GanDef on DeepFool & CW examples "
               "===\n\n";
  const std::vector<data::DatasetId> datasets = {data::DatasetId::kDigits,
                                                 data::DatasetId::kFashion,
                                                 data::DatasetId::kObjects};
  eval::require_private_checkpoint_dirs(datasets.size(), jobs,
                                        "bench_table4_generalizability");
  std::vector<eval::Table4Row> rows(datasets.size());
  std::vector<eval::Job> work;
  work.reserve(datasets.size());
  for (std::size_t i = 0; i < datasets.size(); ++i) {
    std::cout << "queueing " << data::dataset_name(datasets[i]) << "...\n";
    work.push_back(eval::Job{data::dataset_name(datasets[i]),
                             [&datasets, &rows, seed, i] {
                               rows[i] = eval::run_table4(datasets[i], seed);
                             }});
  }
  for (const eval::JobOutcome& outcome : eval::run_jobs(work, jobs)) {
    if (!outcome.ok) {
      std::cerr << "FAIL: " << outcome.name << ": " << outcome.error << "\n";
      return 1;
    }
  }

  Table table({"Dataset", "Clean", "DeepFool", "CW"});
  for (std::size_t i = 0; i < datasets.size(); ++i) {
    table.add_row({data::dataset_name(datasets[i]),
                   Table::percent(rows[i].clean_accuracy),
                   Table::percent(rows[i].deepfool_accuracy),
                   Table::percent(rows[i].cw_accuracy)});
  }
  std::cout << "\n" << table.to_text()
            << "\nExpected shape (paper Table IV): DeepFool accuracy stays "
               "close to clean accuracy\n(DeepFool seeks minimal "
               "perturbations, which are easier to defend); CW is the\n"
               "harder of the two.\n";
  return 0;
}
