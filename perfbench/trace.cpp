#include "trace.hpp"

#include <cctype>
#include <memory>

#include "bench.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"

namespace perfbench {
namespace {

using zkg::Tensor;

/// "Conv2d(1->8, k5, s2, p2)" -> "conv2d", "ReLU" -> "relu".
std::string layer_kind(const std::string& name) {
  std::string kind;
  for (const char c : name.substr(0, name.find('('))) {
    kind += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return kind;
}

class TimedLayer : public zkg::nn::Module {
 public:
  TimedLayer(zkg::nn::Module& inner, LayerTimes& times, Trace& trace)
      : inner_(inner), times_(times), trace_(trace) {
    // Multiply-adds per output element; backward costs two forwards (input
    // and weight gradients).
    if (const auto* conv = dynamic_cast<const zkg::nn::Conv2d*>(&inner)) {
      const zkg::nn::Conv2dConfig& cfg = conv->config();
      macs_per_output_ = cfg.in_channels * cfg.kernel * cfg.kernel;
    } else if (const auto* dense =
                   dynamic_cast<const zkg::nn::Dense*>(&inner)) {
      macs_per_output_ = dense->in_features();
    }
    times_.counts_flops = macs_per_output_ > 0;
  }

  void forward_into(const Tensor& input, Tensor& out, bool training) override {
    const Clock::time_point t0 = Clock::now();
    inner_.forward_into(input, out, training);
    const double dt = seconds_between(t0, Clock::now());
    times_.fwd_s += dt;
    trace_.nn_s += dt;
    ++times_.fwd_calls;
    times_.flops += 2.0 * static_cast<double>(macs_per_output_) *
                    static_cast<double>(out.numel());
  }

  void backward_into(const Tensor& grad_output, Tensor& grad_input) override {
    const Clock::time_point t0 = Clock::now();
    inner_.backward_into(grad_output, grad_input);
    const double dt = seconds_between(t0, Clock::now());
    times_.bwd_s += dt;
    trace_.nn_s += dt;
    times_.flops += 4.0 * static_cast<double>(macs_per_output_) *
                    static_cast<double>(grad_output.numel());
  }

  std::vector<zkg::nn::Parameter*> parameters() override {
    return inner_.parameters();
  }
  void collect_rngs(std::vector<zkg::Rng*>& out) override {
    inner_.collect_rngs(out);
  }
  std::string name() const override { return inner_.name(); }

 private:
  zkg::nn::Module& inner_;
  LayerTimes& times_;
  Trace& trace_;
  std::int64_t macs_per_output_ = 0;
};

}  // namespace

void Trace::reset() {
  for (LayerTimes& layer : layers) {
    layer.fwd_s = layer.bwd_s = layer.flops = 0.0;
    layer.fwd_calls = 0;
  }
  nn_s = attack_s = attack_nn_s = data_s = ckpt_s = 0.0;
  ckpt_saves = 0;
}

zkg::models::Classifier traced_classifier(zkg::models::Classifier& model,
                                          Trace& trace) {
  zkg::nn::Sequential& net = model.net();
  trace.layers.assign(net.num_layers(), LayerTimes{});
  zkg::nn::Sequential timed;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    trace.layers[i].key =
        "nn." + std::to_string(i) + "-" + layer_kind(net.layer(i).name());
    timed.add(std::make_unique<TimedLayer>(net.layer(i), trace.layers[i],
                                           trace));
  }
  return zkg::models::Classifier(model.name(), model.spec(),
                                 std::move(timed));
}

Tensor TimedAttack::generate(zkg::models::Classifier& model,
                             const Tensor& images,
                             const std::vector<std::int64_t>& labels) {
  Tensor adv;
  generate_into(model, images, labels, adv);
  return adv;
}

void TimedAttack::generate_into(zkg::models::Classifier& model,
                                const Tensor& images,
                                const std::vector<std::int64_t>& labels,
                                Tensor& adv) {
  const double nn_before = trace_.nn_s;
  const Clock::time_point t0 = Clock::now();
  inner_->generate_into(model, images, labels, adv);
  trace_.attack_s += seconds_between(t0, Clock::now());
  trace_.attack_nn_s += trace_.nn_s - nn_before;
}

void TimedSource::start_epoch() {
  const Clock::time_point t0 = Clock::now();
  inner_.start_epoch();
  trace_.data_s += seconds_between(t0, Clock::now());
}

bool TimedSource::next_into(zkg::data::Batch& out) {
  const Clock::time_point t0 = Clock::now();
  const bool more = inner_.next_into(out);
  trace_.data_s += seconds_between(t0, Clock::now());
  return more;
}

template <typename Call>
void TimedCheckpoints::timed(Call&& call) {
  const std::int64_t saves_before = inner_.saves();
  const Clock::time_point t0 = Clock::now();
  call();
  trace_.ckpt_s += seconds_between(t0, Clock::now());
  trace_.ckpt_saves += inner_.saves() - saves_before;
}

void TimedCheckpoints::on_train_begin(const zkg::defense::Trainer& trainer) {
  timed([&] { inner_.on_train_begin(trainer); });
}

void TimedCheckpoints::on_batch_end(const zkg::defense::Trainer& trainer,
                                    std::int64_t epoch, std::int64_t batch,
                                    const zkg::defense::BatchStats& stats) {
  timed([&] { inner_.on_batch_end(trainer, epoch, batch, stats); });
}

void TimedCheckpoints::on_epoch_end(const zkg::defense::Trainer& trainer,
                                    const zkg::defense::EpochStats& stats) {
  timed([&] { inner_.on_epoch_end(trainer, stats); });
}

void TimedCheckpoints::on_train_interrupted(
    const zkg::defense::Trainer& trainer, std::int64_t epoch,
    std::int64_t batch) {
  timed([&] { inner_.on_train_interrupted(trainer, epoch, batch); });
}

void TimedCheckpoints::on_train_end(const zkg::defense::Trainer& trainer,
                                    const zkg::defense::TrainResult& result) {
  timed([&] { inner_.on_train_end(trainer, result); });
}

}  // namespace perfbench
