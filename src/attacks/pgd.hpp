// Projected Gradient Descent (Madry et al., 2017): BIM from a random start
// inside the epsilon ball, with optional random restarts keeping the
// per-example worst case (highest loss).
#pragma once

#include "attacks/attack.hpp"
#include "common/rng.hpp"

namespace zkg::attacks {

class Pgd : public Attack {
 public:
  Pgd(AttackBudget budget, Rng& rng);

  std::string name() const override { return "PGD"; }
  Tensor generate(models::Classifier& model, const Tensor& images,
                  const std::vector<std::int64_t>& labels) override;
  void generate_into(models::Classifier& model, const Tensor& images,
                     const std::vector<std::int64_t>& labels,
                     Tensor& adv) override;
  void collect_rngs(std::vector<Rng*>& out) override { out.push_back(&rng_); }

  const AttackBudget& budget() const { return budget_; }

 private:
  /// One random-start BIM run, written into `adv`.
  void run_once(models::Classifier& model, const Tensor& images,
                const std::vector<std::int64_t>& labels, Tensor& adv);

  AttackBudget budget_;
  Rng rng_;
  // Per-iteration temporaries reused across calls, so PGD is pool-miss-free
  // at steady state with any number of restarts.
  GradientScratch scratch_;
  Tensor grad_;
  Tensor candidate_;
  std::vector<float> best_loss_;
  std::vector<float> cand_loss_;
};

}  // namespace zkg::attacks
