#include "models/classifier.hpp"

namespace zkg::models {

Classifier::Classifier(std::string name, InputSpec spec, nn::Sequential net)
    : name_(std::move(name)), spec_(spec), net_(std::move(net)) {
  ZKG_CHECK(spec_.channels > 0 && spec_.height > 0 && spec_.width > 0 &&
            spec_.num_classes > 1)
      << " bad InputSpec for classifier " << name_;
}

void Classifier::forward_into(const Tensor& images, Tensor& logits,
                              bool training) {
  ZKG_CHECK(images.ndim() == 4 && images.dim(1) == spec_.channels &&
            images.dim(2) == spec_.height && images.dim(3) == spec_.width)
      << " classifier " << name_ << " expects [B, " << spec_.channels << ", "
      << spec_.height << ", " << spec_.width << "], got "
      << shape_to_string(images.shape());
  net_.forward_into(images, logits, training);
  ZKG_CHECK(logits.ndim() == 2 && logits.dim(1) == spec_.num_classes)
      << " classifier " << name_ << " produced "
      << shape_to_string(logits.shape()) << ", expected [B, "
      << spec_.num_classes << "]";
}

void Classifier::backward_into(const Tensor& grad_logits,
                               Tensor& grad_images) {
  net_.backward_into(grad_logits, grad_images);
}

}  // namespace zkg::models
