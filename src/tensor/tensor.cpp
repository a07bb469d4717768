#include "tensor/tensor.hpp"

#include <cmath>
#include <sstream>

#include "tensor/contracts.hpp"

namespace zkg {

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t count = 1;
  for (const std::int64_t d : shape) {
    ZKG_REQUIRE(d >= 0) << " (negative dimension in " << shape_to_string(shape)
                        << ")";
    count *= d;
  }
  return count;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) out << ", ";
    out << shape[i];
  }
  out << "]";
  return out.str();
}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_numel(shape_)), fill) {}

Tensor::Tensor(Shape shape, FloatBuffer data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  ZKG_REQUIRE(static_cast<std::int64_t>(data_.size()) == shape_numel(shape_))
      << " buffer has " << data_.size() << " elements, shape "
      << shape_to_string(shape_) << " wants " << shape_numel(shape_);
}

Tensor::Tensor(Shape shape, const std::vector<float>& data)
    : Tensor(std::move(shape), FloatBuffer(data.begin(), data.end())) {}

Tensor Tensor::vector(std::initializer_list<float> values) {
  return Tensor({static_cast<std::int64_t>(values.size())},
                FloatBuffer(values.begin(), values.end()));
}

std::int64_t Tensor::dim(std::int64_t i) const {
  const std::int64_t n = ndim();
  if (i < 0) i += n;
  ZKG_REQUIRE_INDEX(i, n, "dim") << " (axes of " << shape_to_string(shape_)
                                 << ")";
  return shape_[static_cast<std::size_t>(i)];
}

std::int64_t Tensor::flat_offset(std::initializer_list<std::int64_t> indices,
                                 const char* op) const {
  ZKG_REQUIRE(ndim() == static_cast<std::int64_t>(indices.size()))
      << " " << op << " on " << shape_to_string(shape_);
  std::int64_t offset = 0;
  std::size_t axis = 0;
  for (const std::int64_t index : indices) {
    ZKG_DCHECK(index >= 0 && index < shape_[axis])
        << " " << op << ": index " << index << " out of range [0, "
        << shape_[axis] << ") on axis " << axis << " of "
        << shape_to_string(shape_);
    offset = offset * shape_[axis] + index;
    ++axis;
  }
  return offset;
}

float& Tensor::at(std::int64_t i) {
  return data_[static_cast<std::size_t>(flat_offset({i}, "at(i)"))];
}

float& Tensor::at(std::int64_t i, std::int64_t j) {
  return data_[static_cast<std::size_t>(flat_offset({i, j}, "at(i,j)"))];
}

float& Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k) {
  return data_[static_cast<std::size_t>(flat_offset({i, j, k}, "at(i,j,k)"))];
}

float& Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k,
                  std::int64_t l) {
  return data_[static_cast<std::size_t>(
      flat_offset({i, j, k, l}, "at(i,j,k,l)"))];
}

float Tensor::at(std::int64_t i) const {
  return data_[static_cast<std::size_t>(flat_offset({i}, "at(i)"))];
}
float Tensor::at(std::int64_t i, std::int64_t j) const {
  return data_[static_cast<std::size_t>(flat_offset({i, j}, "at(i,j)"))];
}
float Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k) const {
  return data_[static_cast<std::size_t>(flat_offset({i, j, k}, "at(i,j,k)"))];
}
float Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k,
                 std::int64_t l) const {
  return data_[static_cast<std::size_t>(
      flat_offset({i, j, k, l}, "at(i,j,k,l)"))];
}

Tensor Tensor::reshape(Shape new_shape) const {
  ZKG_REQUIRE(shape_numel(new_shape) == numel())
      << " cannot reshape " << shape_to_string(shape_) << " ("
      << numel() << " elements) to " << shape_to_string(new_shape);
  Tensor out;
  out.shape_ = std::move(new_shape);
  out.data_ = data_;
  return out;
}

std::int64_t Tensor::row_stride() const {
  ZKG_REQUIRE(ndim() >= 1) << " row operation on rank-0 tensor";
  std::int64_t stride = 1;
  for (std::size_t i = 1; i < shape_.size(); ++i) stride *= shape_[i];
  return stride;
}

Tensor Tensor::slice_rows(std::int64_t begin, std::int64_t end) const {
  const std::int64_t rows = dim(0);
  ZKG_REQUIRE(begin >= 0 && begin <= end && end <= rows)
      << " slice [" << begin << ", " << end << ") of " << rows << " rows";
  const std::int64_t stride = row_stride();
  Shape out_shape = shape_;
  out_shape[0] = end - begin;
  FloatBuffer out_data(
      data_.begin() + static_cast<std::ptrdiff_t>(begin * stride),
      data_.begin() + static_cast<std::ptrdiff_t>(end * stride));
  return Tensor(std::move(out_shape), std::move(out_data));
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

bool Tensor::equals(const Tensor& other) const {
  return shape_ == other.shape_ && data_ == other.data_;
}

bool Tensor::allclose(const Tensor& other, float tol) const {
  if (shape_ != other.shape_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

std::string Tensor::to_string(std::int64_t max_elements) const {
  std::ostringstream out;
  out << "Tensor" << shape_to_string(shape_) << " {";
  const std::int64_t n = std::min<std::int64_t>(numel(), max_elements);
  for (std::int64_t i = 0; i < n; ++i) {
    if (i > 0) out << ", ";
    out << data_[static_cast<std::size_t>(i)];
  }
  if (numel() > n) out << ", ...";
  out << "}";
  return out.str();
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* op_name) {
  ZKG_REQUIRE_SAME_SHAPE(a, b, op_name);
}

}  // namespace zkg
