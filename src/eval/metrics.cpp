#include "eval/metrics.hpp"

#include <cmath>

#include "common/error.hpp"

namespace zkg::eval {

double accuracy(const std::vector<std::int64_t>& predictions,
                const std::vector<std::int64_t>& labels) {
  ZKG_CHECK(predictions.size() == labels.size() && !labels.empty())
      << " accuracy over " << predictions.size() << " predictions / "
      << labels.size() << " labels";
  std::size_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (predictions[i] == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

PerturbationStats perturbation_stats(const Tensor& original,
                                     const Tensor& adversarial) {
  check_same_shape(original, adversarial, "perturbation_stats");
  ZKG_CHECK(original.ndim() >= 1 && original.dim(0) > 0)
      << " perturbation_stats over empty batch";
  const std::int64_t batch = original.dim(0);
  const std::int64_t stride = original.numel() / batch;

  PerturbationStats stats;
  double linf_sum = 0.0;
  double l2_sum = 0.0;
  const float* po = original.data();
  const float* pa = adversarial.data();
  for (std::int64_t i = 0; i < batch; ++i) {
    float linf = 0.0f;
    double l2 = 0.0;
    for (std::int64_t p = 0; p < stride; ++p) {
      const float d = pa[i * stride + p] - po[i * stride + p];
      linf = std::max(linf, std::fabs(d));
      l2 += static_cast<double>(d) * d;
    }
    linf_sum += linf;
    l2_sum += std::sqrt(l2);
    stats.max_linf = std::max(stats.max_linf, linf);
  }
  stats.mean_linf = static_cast<float>(linf_sum / batch);
  stats.mean_l2 = static_cast<float>(l2_sum / batch);
  return stats;
}

double attack_success_rate(const std::vector<std::int64_t>& labels,
                           const std::vector<std::int64_t>& clean_predictions,
                           const std::vector<std::int64_t>& adv_predictions) {
  ZKG_CHECK(labels.size() == clean_predictions.size() &&
            labels.size() == adv_predictions.size())
      << " attack_success_rate size mismatch";
  std::size_t base = 0;
  std::size_t flipped = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (clean_predictions[i] != labels[i]) continue;
    ++base;
    if (adv_predictions[i] != labels[i]) ++flipped;
  }
  if (base == 0) return 0.0;
  return static_cast<double>(flipped) / static_cast<double>(base);
}

}  // namespace zkg::eval
