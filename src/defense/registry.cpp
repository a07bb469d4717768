#include "defense/registry.hpp"

#include "defense/adv_training.hpp"
#include "defense/clp.hpp"
#include "defense/cls.hpp"
#include "defense/pgd_gandef.hpp"
#include "defense/vanilla.hpp"
#include "defense/zk_gandef.hpp"

namespace zkg::defense {

const std::vector<DefenseId>& all_defenses() {
  static const std::vector<DefenseId> ids = {
      DefenseId::kVanilla, DefenseId::kClp,    DefenseId::kCls,
      DefenseId::kZkGanDef, DefenseId::kFgsmAdv, DefenseId::kPgdAdv,
      DefenseId::kPgdGanDef};
  return ids;
}

const std::vector<DefenseId>& full_knowledge_defenses() {
  static const std::vector<DefenseId> ids = {
      DefenseId::kFgsmAdv, DefenseId::kPgdAdv, DefenseId::kPgdGanDef};
  return ids;
}

std::string defense_name(DefenseId id) {
  switch (id) {
    case DefenseId::kVanilla: return "Vanilla";
    case DefenseId::kClp: return "CLP";
    case DefenseId::kCls: return "CLS";
    case DefenseId::kZkGanDef: return "ZK-GanDef";
    case DefenseId::kFgsmAdv: return "FGSM-Adv";
    case DefenseId::kPgdAdv: return "PGD-Adv";
    case DefenseId::kPgdGanDef: return "PGD-GanDef";
  }
  throw InvalidArgument("unknown DefenseId");
}

bool is_full_knowledge(DefenseId id) {
  switch (id) {
    case DefenseId::kFgsmAdv:
    case DefenseId::kPgdAdv:
    case DefenseId::kPgdGanDef:
      return true;
    default:
      return false;
  }
}

TrainerPtr make_trainer(DefenseId id, models::Classifier& model,
                        const TrainConfig& config) {
  config.validate();  // fail fast, before any model/optimizer state exists
  switch (id) {
    case DefenseId::kVanilla:
      return std::make_unique<VanillaTrainer>(model, config);
    case DefenseId::kClp:
      return std::make_unique<ClpTrainer>(model, config);
    case DefenseId::kCls:
      return std::make_unique<ClsTrainer>(model, config);
    case DefenseId::kZkGanDef:
      return std::make_unique<ZkGanDefTrainer>(model, config);
    case DefenseId::kFgsmAdv:
      return make_fgsm_adv(model, config);
    case DefenseId::kPgdAdv:
      return make_pgd_adv(model, config);
    case DefenseId::kPgdGanDef:
      return std::make_unique<PgdGanDefTrainer>(model, config);
  }
  throw InvalidArgument("unknown DefenseId");
}

}  // namespace zkg::defense
