// InferenceSession: the unified batched inference surface (DESIGN.md §14).
//
// Everything that classifies at inference time — the Evaluator's accuracy
// and attack-success paths, the serving micro-batcher, examples, tests —
// goes through this one wrapper; Classifier has no predict method of its
// own. A session owns the pooled scratch the forward pass and argmax need
// (logits tensor, label vector, discriminator probability head), so
// repeated same-shape calls are steady-state allocation-free, and it
// exposes the logits of the last prediction so downstream heads (the
// ZK-GanDef perturbation alarm, calibration, margins) never rerun the
// network.
//
// Const-correctness: predicting mutates only session scratch, never the
// model's parameters. The session takes the classifier by reference and
// must not outlive it. A session is single-threaded by design — one
// session per serving engine / evaluator; concurrent callers need their
// own sessions or external serialization (the InferenceServer does this).
#pragma once

#include <vector>

#include "models/classifier.hpp"
#include "models/discriminator.hpp"

namespace zkg::models {

class InferenceSession {
 public:
  /// Wraps `model` (and optionally the ZK-GanDef discriminator as a
  /// perturbation-alarm head). Both must outlive the session.
  explicit InferenceSession(Classifier& model, Discriminator* alarm = nullptr);

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;
  InferenceSession(InferenceSession&&) = default;

  /// Predicted class per image for a [B, C, H, W] batch. The returned
  /// reference points at owned scratch: valid until the next predict call.
  const std::vector<std::int64_t>& predict(const Tensor& images);

  /// Pre-softmax logits [B, num_classes] of the last predict call.
  const Tensor& logits() const { return logits_; }

  /// P(input was perturbed) per image, [B, 1] over the last predict call's
  /// logits, from the discriminator alarm head. Throws zkg::InvalidArgument
  /// when the session has no alarm (see has_alarm()).
  const Tensor& alarm_scores();

  bool has_alarm() const { return alarm_ != nullptr; }
  const Classifier& model() const { return model_; }

 private:
  Classifier& model_;
  Discriminator* alarm_;
  Tensor logits_;        // pooled forward scratch
  Tensor alarm_scores_;  // pooled sigmoid(disc(logits)) scratch
  std::vector<std::int64_t> labels_;
};

}  // namespace zkg::models
