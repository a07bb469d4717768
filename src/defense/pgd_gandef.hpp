// PGD-GanDef: the full-knowledge variant of the GAN defense (paper §IV-D3).
// Identical minimax game to ZK-GanDef, but the perturbed half of every batch
// consists of PGD adversarial examples instead of Gaussian noise — hence the
// highest per-epoch cost in Figure 5.
#pragma once

#include "attacks/pgd.hpp"
#include "defense/zk_gandef.hpp"

namespace zkg::defense {

class PgdGanDefTrainer : public GanDefTrainerBase {
 public:
  PgdGanDefTrainer(models::Classifier& model, TrainConfig config);

  std::string name() const override { return "PGD-GanDef"; }

 protected:
  void make_perturbed_into(const Tensor& images,
                           const std::vector<std::int64_t>& labels,
                           Tensor& out) override;

 private:
  attacks::Pgd attack_;
};

}  // namespace zkg::defense
