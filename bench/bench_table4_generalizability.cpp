// Regenerates paper Table IV: ZK-GanDef's test accuracy on DeepFool and CW
// adversarial examples across all three datasets — the generalizability
// claim (ZK-GanDef trains only on Gaussian noise, yet defends perturbation
// patterns far from Gaussian).
//
// ZKG_JOBS=<n> trains the three dataset columns as n concurrent sweep cells
// (bit-identical rows at any n — see eval/scheduler.hpp). Concurrent cells
// refuse ZKG_CKPT_DIR, which would point all three at one directory.
#include <iostream>

#include "common/env.hpp"
#include "common/table.hpp"
#include "eval/experiments.hpp"

int main() {
  using namespace zkg;
  const std::uint64_t seed =
      static_cast<std::uint64_t>(env_or_int("ZKG_SEED", 20190417));
  const unsigned jobs = static_cast<unsigned>(env_or_int("ZKG_JOBS", 1));

  std::cout << "=== Paper Table IV — ZK-GanDef on DeepFool & CW examples "
               "===\n\n";
  Table table({"Dataset", "Clean", "DeepFool", "CW"});
  for (const eval::Table4Row& row : eval::run_table4(
           {data::DatasetId::kDigits, data::DatasetId::kFashion,
            data::DatasetId::kObjects},
           seed, jobs)) {
    table.add_row({data::dataset_name(row.dataset),
                   Table::percent(row.clean_accuracy),
                   Table::percent(row.deepfool_accuracy),
                   Table::percent(row.cw_accuracy)});
  }
  std::cout << table.to_text()
            << "\nExpected shape (paper Table IV): DeepFool accuracy stays "
               "close to clean accuracy\n(DeepFool seeks minimal "
               "perturbations, which are easier to defend); CW is the\n"
               "harder of the two.\n";
  return 0;
}
