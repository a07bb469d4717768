#include "optim/adam.hpp"

#include <cmath>

#include "tensor/contracts.hpp"
#include "tensor/ops.hpp"

namespace zkg::optim {

Adam::Adam(std::vector<nn::Parameter*> params, AdamConfig config)
    : params_(std::move(params)), config_(config) {
  ZKG_REQUIRE(config_.learning_rate > 0.0f)
      << " Adam lr " << config_.learning_rate;
  ZKG_REQUIRE(config_.beta1 >= 0.0f && config_.beta1 < 1.0f) << " beta1";
  ZKG_REQUIRE(config_.beta2 >= 0.0f && config_.beta2 < 1.0f) << " beta2";
  ZKG_REQUIRE(config_.epsilon > 0.0f) << " epsilon";
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (nn::Parameter* p : params_) {
    m_.emplace_back(p->value().shape());
    v_.emplace_back(p->value().shape());
  }
}

void Adam::step() {
  ++step_count_;
  const float bias1 =
      1.0f - std::pow(config_.beta1, static_cast<float>(step_count_));
  const float bias2 =
      1.0f - std::pow(config_.beta2, static_cast<float>(step_count_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    nn::Parameter& p = *params_[i];
    Tensor& g = p.grad();
    if (config_.weight_decay > 0.0f) {
      axpy_(g, config_.weight_decay, p.value());
    }
    float* pm = m_[i].data();
    float* pv = v_[i].data();
    float* pw = p.value().data();
    const float* pg = g.data();
    const std::int64_t n = g.numel();
    for (std::int64_t j = 0; j < n; ++j) {
      pm[j] = config_.beta1 * pm[j] + (1.0f - config_.beta1) * pg[j];
      pv[j] = config_.beta2 * pv[j] + (1.0f - config_.beta2) * pg[j] * pg[j];
      const float m_hat = pm[j] / bias1;
      const float v_hat = pv[j] / bias2;
      pw[j] -= config_.learning_rate * m_hat /
               (std::sqrt(v_hat) + config_.epsilon);
    }
    ZKG_CHECKED_FINITE(p.value(), p.name(), "optimizer-step");
  }
}

OptimizerState Adam::state() const {
  OptimizerState state;
  state.kind = "adam";
  state.step_count = step_count_;
  state.learning_rate = config_.learning_rate;
  state.slots.reserve(m_.size() + v_.size());
  for (const Tensor& m : m_) state.slots.push_back(m);
  for (const Tensor& v : v_) state.slots.push_back(v);
  return state;
}

void Adam::load_state(const OptimizerState& state) {
  if (state.kind != "adam") {
    throw SerializationError("Adam::load_state: snapshot kind '" +
                             state.kind + "', expected 'adam'");
  }
  if (state.slots.size() != m_.size() + v_.size()) {
    throw SerializationError(
        "Adam::load_state: " + std::to_string(state.slots.size()) +
        " slots for " + std::to_string(params_.size()) + " parameters");
  }
  for (std::size_t i = 0; i < m_.size(); ++i) {
    if (state.slots[i].shape() != m_[i].shape() ||
        state.slots[m_.size() + i].shape() != v_[i].shape()) {
      throw SerializationError("Adam::load_state: slot " +
                               std::to_string(i) + " shape mismatch");
    }
  }
  for (std::size_t i = 0; i < m_.size(); ++i) {
    m_[i] = state.slots[i];
    v_[i] = state.slots[m_.size() + i];
  }
  step_count_ = state.step_count;
  config_.learning_rate = state.learning_rate;
}

}  // namespace zkg::optim
