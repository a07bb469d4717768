#include "nn/parameter.hpp"

#include "tensor/ops.hpp"

namespace zkg::nn {
namespace {

thread_local bool t_param_grads_enabled = true;
thread_local bool t_input_grads_enabled = true;

}  // namespace

Parameter::Parameter(std::string name, Tensor value)
    : name_(std::move(name)),
      value_(std::move(value)),
      grad_(value_.shape()) {}

void Parameter::zero_grad() { grad_.fill(0.0f); }

void Parameter::accumulate_grad(const Tensor& delta) {
  axpy_(grad_, 1.0f, delta);
}

InputGradOnly::InputGradOnly() : previous_(t_param_grads_enabled) {
  t_param_grads_enabled = false;
}

InputGradOnly::~InputGradOnly() { t_param_grads_enabled = previous_; }

ParamGradOnly::ParamGradOnly() : previous_(t_input_grads_enabled) {
  t_input_grads_enabled = false;
}

ParamGradOnly::~ParamGradOnly() { t_input_grads_enabled = previous_; }

bool param_grads_enabled() { return t_param_grads_enabled; }

bool input_grads_enabled() { return t_input_grads_enabled; }

}  // namespace zkg::nn
