// Defense registry: the seven classifiers of the paper's evaluation matrix,
// addressable by id.
#pragma once

#include <vector>

#include "defense/trainer.hpp"

namespace zkg::defense {

enum class DefenseId {
  kVanilla,
  kClp,
  kCls,
  kZkGanDef,
  kFgsmAdv,
  kPgdAdv,
  kPgdGanDef,
};

/// All seven defenses, in the paper's Table III row order.
const std::vector<DefenseId>& all_defenses();

/// The full-knowledge subset {FGSM-Adv, PGD-Adv, PGD-GanDef}.
const std::vector<DefenseId>& full_knowledge_defenses();

/// Display name matching the paper ("ZK-GanDef", "PGD-Adv", ...).
std::string defense_name(DefenseId id);

/// True for the defenses that consume adversarial examples during training.
bool is_full_knowledge(DefenseId id);

/// Constructs the trainer for `id` bound to `model`. Validates `config`
/// first (throws zkg::ConfigError on the first invalid field).
TrainerPtr make_trainer(DefenseId id, models::Classifier& model,
                        const TrainConfig& config);

}  // namespace zkg::defense
