#include "defense/pgd_gandef.hpp"

namespace zkg::defense {
namespace {

Rng attack_seed_rng(const TrainConfig& config) {
  return Rng(config.seed ^ 0x96dfULL);
}

}  // namespace

PgdGanDefTrainer::PgdGanDefTrainer(models::Classifier& model,
                                   TrainConfig config)
    : GanDefTrainerBase(model, config),
      attack_([&] {
        Rng seed = attack_seed_rng(config);
        return attacks::Pgd(config.attack, seed);
      }()) {
  add_rngs("attack.rng.", attack_);
}

void PgdGanDefTrainer::make_perturbed_into(
    const Tensor& images, const std::vector<std::int64_t>& labels,
    Tensor& out) {
  attack_.generate_into(model_, images, labels, out);
}

}  // namespace zkg::defense
