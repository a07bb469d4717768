#include "data/dataset.hpp"

#include "tensor/ops.hpp"

namespace zkg::data {

std::vector<std::int64_t> Dataset::class_histogram() const {
  std::vector<std::int64_t> counts(static_cast<std::size_t>(num_classes), 0);
  for (const std::int64_t label : labels) {
    ZKG_CHECK(label >= 0 && label < num_classes)
        << " label " << label << " out of range";
    ++counts[static_cast<std::size_t>(label)];
  }
  return counts;
}

Tensor Dataset::image(std::int64_t i) const {
  return images.slice_rows(i, i + 1);
}

Dataset Dataset::subset(const std::vector<std::int64_t>& indices) const {
  ZKG_CHECK(images.ndim() >= 1) << " subset of a dataset without images";
  Dataset out;
  // Pre-sized, so the subset takes no buffer from the pool.
  Shape shape = images.shape();
  shape[0] = static_cast<std::int64_t>(indices.size());
  out.images = Tensor(std::move(shape));
  gather_rows_into(out.images, images, indices);
  out.labels.reserve(indices.size());
  for (const std::int64_t i : indices) {
    out.labels.push_back(labels.at(static_cast<std::size_t>(i)));
  }
  out.num_classes = num_classes;
  out.name = name;
  return out;
}

void Dataset::validate() const {
  ZKG_CHECK(images.ndim() == 4) << " dataset images must be [N,C,H,W], got "
                                << shape_to_string(images.shape());
  ZKG_CHECK(static_cast<std::int64_t>(labels.size()) == images.dim(0))
      << " dataset " << name << ": " << labels.size() << " labels for "
      << images.dim(0) << " images";
  ZKG_CHECK(num_classes > 1) << " dataset " << name << " num_classes";
  for (const std::int64_t label : labels) {
    ZKG_CHECK(label >= 0 && label < num_classes)
        << " dataset " << name << ": label " << label << " out of range [0, "
        << num_classes << ")";
  }
}

std::string dataset_name(DatasetId id) {
  switch (id) {
    case DatasetId::kDigits: return "synth-digits";
    case DatasetId::kFashion: return "synth-fashion";
    case DatasetId::kObjects: return "synth-objects";
  }
  throw InvalidArgument("unknown DatasetId");
}

Dataset make_dataset(DatasetId id, std::int64_t num_samples, Rng& rng) {
  switch (id) {
    case DatasetId::kDigits: return make_synth_digits(num_samples, rng);
    case DatasetId::kFashion: return make_synth_fashion(num_samples, rng);
    case DatasetId::kObjects: return make_synth_objects(num_samples, rng);
  }
  throw InvalidArgument("unknown DatasetId");
}

}  // namespace zkg::data
