#include "models/session.hpp"

#include "tensor/ops.hpp"

namespace zkg::models {

InferenceSession::InferenceSession(Classifier& model, Discriminator* alarm)
    : model_(model), alarm_(alarm) {}

const std::vector<std::int64_t>& InferenceSession::predict(
    const Tensor& images) {
  model_.forward_into(images, logits_, /*training=*/false);
  argmax_rows_into(labels_, logits_);
  return labels_;
}

const Tensor& InferenceSession::alarm_scores() {
  ZKG_CHECK(alarm_ != nullptr)
      << " InferenceSession::alarm_scores() without a discriminator head";
  alarm_->probability_into(logits_, alarm_scores_);
  return alarm_scores_;
}

}  // namespace zkg::models
