#include "eval/evaluator.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "models/session.hpp"
#include "obs/telemetry.hpp"

namespace zkg::eval {

const AttackEvaluation& Evaluation::attack(
    const std::string& attack_name) const {
  for (const AttackEvaluation& entry : attacks) {
    if (entry.attack_name == attack_name) return entry;
  }
  throw InvalidArgument("no evaluation entry for attack " + attack_name);
}

Evaluator::Evaluator(std::int64_t batch_size) : batch_size_(batch_size) {
  ZKG_CHECK(batch_size > 0) << " Evaluator batch_size " << batch_size;
}

Evaluation Evaluator::evaluate(
    models::Classifier& model, const data::Dataset& test,
    const std::vector<attacks::Attack*>& attack_list) const {
  test.validate();
  Evaluation result;
  models::InferenceSession session(model);

  std::vector<std::int64_t> clean_pred;
  clean_pred.reserve(static_cast<std::size_t>(test.size()));

  struct PerAttack {
    std::vector<std::int64_t> predictions;
    double linf_sum = 0.0;
    double l2_sum = 0.0;
    float max_linf = 0.0f;
  };
  std::vector<PerAttack> per_attack(attack_list.size());

  for (std::int64_t begin = 0; begin < test.size(); begin += batch_size_) {
    ZKG_SPAN("eval.batch");
    ZKG_COUNT("eval.batches", 1);
    const std::int64_t end = std::min(begin + batch_size_, test.size());
    const Tensor images = test.images.slice_rows(begin, end);
    const std::vector<std::int64_t> labels(
        test.labels.begin() + begin, test.labels.begin() + end);

    const std::vector<std::int64_t>& batch_clean = session.predict(images);
    clean_pred.insert(clean_pred.end(), batch_clean.begin(),
                      batch_clean.end());

    for (std::size_t a = 0; a < attack_list.size(); ++a) {
      ZKG_CHECK(attack_list[a] != nullptr) << " null attack at index " << a;
      Tensor adversarial;
      {
        ZKG_SPAN("eval.attack_gen");
        adversarial = attack_list[a]->generate(model, images, labels);
      }
      const std::vector<std::int64_t>& adv_pred = session.predict(adversarial);
      per_attack[a].predictions.insert(per_attack[a].predictions.end(),
                                       adv_pred.begin(), adv_pred.end());
      const PerturbationStats stats =
          perturbation_stats(images, adversarial);
      const auto batch = static_cast<double>(end - begin);
      per_attack[a].linf_sum += stats.mean_linf * batch;
      per_attack[a].l2_sum += stats.mean_l2 * batch;
      per_attack[a].max_linf = std::max(per_attack[a].max_linf,
                                        stats.max_linf);
    }
  }

  result.clean_accuracy = accuracy(clean_pred, test.labels);
  const auto total = static_cast<double>(test.size());
  for (std::size_t a = 0; a < attack_list.size(); ++a) {
    AttackEvaluation entry;
    entry.attack_name = attack_list[a]->name();
    entry.test_accuracy = accuracy(per_attack[a].predictions, test.labels);
    entry.success_rate = attack_success_rate(test.labels, clean_pred,
                                             per_attack[a].predictions);
    entry.perturbation.mean_linf =
        static_cast<float>(per_attack[a].linf_sum / total);
    entry.perturbation.mean_l2 =
        static_cast<float>(per_attack[a].l2_sum / total);
    entry.perturbation.max_linf = per_attack[a].max_linf;
    result.attacks.push_back(std::move(entry));
  }
  return result;
}

}  // namespace zkg::eval
