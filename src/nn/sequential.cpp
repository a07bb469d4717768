#include "nn/sequential.hpp"

#include <sstream>

#include "tensor/contracts.hpp"
#include "tensor/pool.hpp"

namespace zkg::nn {
namespace {

// Back-propagates `grad_output` through the layers above index `stop`,
// ping-ponging through two buffers of `ws`; returns the gradient w.r.t. the
// output of layer `stop`.
const Tensor& backward_above(const std::vector<ModulePtr>& layers,
                             std::size_t stop, const Tensor& grad_output,
                             Workspace& ws) {
  const Tensor* cur = &grad_output;
  Tensor* bufs[2] = {&ws.scratch(), &ws.scratch()};
  std::size_t k = 0;
  for (std::size_t i = layers.size(); i-- > stop + 1; ++k) {
    Tensor* dst = bufs[k % 2];
    layers[i]->backward_into(*cur, *dst);
    ZKG_CHECKED_FINITE(*dst, layers[i]->name(), "backward");
    cur = dst;
  }
  return *cur;
}

}  // namespace

Sequential& Sequential::add(ModulePtr layer) {
  ZKG_REQUIRE(layer != nullptr);
  layers_.push_back(std::move(layer));
  return *this;
}

void Sequential::forward_into(const Tensor& input, Tensor& out,
                              bool training) {
  ZKG_REQUIRE(!layers_.empty()) << " forward through empty Sequential";
  const std::size_t n = layers_.size();
  if (n == 1) {
    layers_[0]->forward_into(input, out, training);
    ZKG_CHECKED_FINITE(out, layers_[0]->name(), "forward");
    return;
  }
  // Ping-pong intermediate activations through two pooled buffers; the
  // final layer writes straight into the caller's destination. In
  // ZKG_CHECKED builds every layer output passes a NaN/Inf tripwire that
  // names the layer which produced the first non-finite activation.
  Workspace ws;
  Tensor* bufs[2] = {&ws.scratch(), &ws.scratch()};
  const Tensor* cur = &input;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    Tensor* dst = bufs[i % 2];
    layers_[i]->forward_into(*cur, *dst, training);
    ZKG_CHECKED_FINITE(*dst, layers_[i]->name(), "forward");
    cur = dst;
  }
  layers_[n - 1]->forward_into(*cur, out, training);
  ZKG_CHECKED_FINITE(out, layers_[n - 1]->name(), "forward");
}

void Sequential::backward_into(const Tensor& grad_output, Tensor& grad_input) {
  ZKG_REQUIRE(!layers_.empty()) << " backward through empty Sequential";
  Workspace ws;
  const Tensor& grad = backward_above(layers_, 0, grad_output, ws);
  layers_[0]->backward_into(grad, grad_input);
  ZKG_CHECKED_FINITE(grad_input, layers_[0]->name(), "backward");
}

void Sequential::backward_params(const Tensor& grad_output) {
  std::size_t first = 0;
  while (first < layers_.size() && layers_[first]->parameters().empty()) {
    ++first;
  }
  ZKG_REQUIRE(first < layers_.size())
      << " backward_params through a Sequential without parameters";
  Workspace ws;
  const Tensor& grad = backward_above(layers_, first, grad_output, ws);
  // Nothing reads the gradient w.r.t. this layer's input, and the layers
  // below it have no parameters, so they are not called.
  const ParamGradOnly param_grads_only;
  Tensor unread;
  layers_[first]->backward_into(grad, unread);
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (const ModulePtr& layer : layers_) {
    for (Parameter* p : layer->parameters()) params.push_back(p);
  }
  return params;
}

void Sequential::collect_rngs(std::vector<Rng*>& out) {
  for (const ModulePtr& layer : layers_) layer->collect_rngs(out);
}

std::string Sequential::name() const {
  std::ostringstream out;
  out << "Sequential(" << layers_.size() << " layers)";
  return out.str();
}

std::int64_t Sequential::num_parameters() {
  std::int64_t count = 0;
  for (Parameter* p : parameters()) count += p->numel();
  return count;
}

std::string Sequential::summary() {
  std::ostringstream out;
  out << name() << "\n";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    out << "  [" << i << "] " << layers_[i]->name() << "\n";
  }
  out << "  parameters: " << num_parameters() << "\n";
  return out.str();
}

std::vector<Tensor> Sequential::state() {
  std::vector<Tensor> values;
  for (Parameter* p : parameters()) values.push_back(p->value());
  return values;
}

void Sequential::load_state(const std::vector<Tensor>& state) {
  std::vector<Parameter*> params = parameters();
  ZKG_REQUIRE(state.size() == params.size())
      << " load_state: " << state.size() << " tensors for " << params.size()
      << " parameters";
  for (std::size_t i = 0; i < params.size(); ++i) {
    ZKG_REQUIRE_SAME_SHAPE(state[i], params[i]->value(), "load_state")
        << " at parameter " << i << " (" << params[i]->name() << ")";
    params[i]->value() = state[i];
  }
}

}  // namespace zkg::nn
