// Tensor: the library's value-semantic numeric array.
//
// A Tensor is a contiguous row-major float32 buffer plus a shape. There are
// no strided views or reference-counted aliases: copies are explicit and the
// type behaves like a regular value (C++ Core Guidelines C.10). All kernels
// live in free functions (ops.hpp / linalg.hpp / random.hpp). Storage is a
// FloatBuffer (common/aligned.hpp), so data() is always 64-byte aligned —
// the SIMD kernel backends rely on that.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/contracts.hpp"
#include "common/error.hpp"

namespace zkg {

using Shape = std::vector<std::int64_t>;

/// Number of elements implied by a shape (1 for a scalar-rank shape).
std::int64_t shape_numel(const Shape& shape);

/// Human-readable rendering, e.g. "[2, 3, 4]".
std::string shape_to_string(const Shape& shape);

class Tensor {
 public:
  /// An empty tensor (rank 0, zero elements). Distinguishable via empty().
  Tensor() = default;

  /// A tensor of the given shape with every element set to `fill`.
  explicit Tensor(Shape shape, float fill = 0.0f);

  /// Adopts an existing aligned buffer; data.size() must equal
  /// shape_numel(shape).
  Tensor(Shape shape, FloatBuffer data);

  /// Convenience form copying an ordinary vector into aligned storage
  /// (tests and loaders; hot paths adopt FloatBuffers from the pool).
  Tensor(Shape shape, const std::vector<float>& data);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape), 0.0f); }
  static Tensor ones(Shape shape) { return Tensor(std::move(shape), 1.0f); }
  static Tensor full(Shape shape, float value) {
    return Tensor(std::move(shape), value);
  }
  /// 1-D tensor from a brace list; convenient in tests.
  static Tensor vector(std::initializer_list<float> values);

  bool empty() const { return data_.empty(); }
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
  std::int64_t ndim() const { return static_cast<std::int64_t>(shape_.size()); }
  const Shape& shape() const { return shape_; }

  /// Size of axis `i`; negative indices count from the back.
  std::int64_t dim(std::int64_t i) const;

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  FloatBuffer& storage() { return data_; }
  const FloatBuffer& storage() const { return data_; }

  /// Flat element access. Unchecked in release builds (this is the hot-loop
  /// accessor); ZKG_CHECKED builds bounds-check every access.
  float& operator[](std::int64_t flat_index) {
    ZKG_DCHECK(flat_index >= 0 && flat_index < numel())
        << " flat index " << flat_index << " out of range [0, " << numel()
        << ") for " << shape_to_string(shape_);
    return data_[static_cast<std::size_t>(flat_index)];
  }
  float operator[](std::int64_t flat_index) const {
    ZKG_DCHECK(flat_index >= 0 && flat_index < numel())
        << " flat index " << flat_index << " out of range [0, " << numel()
        << ") for " << shape_to_string(shape_);
    return data_[static_cast<std::size_t>(flat_index)];
  }

  /// Multi-dimensional element access. Shape arity is always validated;
  /// ZKG_CHECKED builds additionally bounds-check every index against its
  /// axis extent (both const and non-const paths share one checked
  /// indexer, flat_offset).
  float& at(std::int64_t i);
  float& at(std::int64_t i, std::int64_t j);
  float& at(std::int64_t i, std::int64_t j, std::int64_t k);
  float& at(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l);
  float at(std::int64_t i) const;
  float at(std::int64_t i, std::int64_t j) const;
  float at(std::int64_t i, std::int64_t j, std::int64_t k) const;
  float at(std::int64_t i, std::int64_t j, std::int64_t k,
           std::int64_t l) const;

  /// Same data, new shape (element counts must match).
  Tensor reshape(Shape new_shape) const;

  /// Rows [begin, end) along axis 0 as a new tensor.
  Tensor slice_rows(std::int64_t begin, std::int64_t end) const;

  void fill(float value);

  /// Exact element-wise equality (shape included).
  bool equals(const Tensor& other) const;
  /// Element-wise |a-b| <= tol with identical shapes.
  bool allclose(const Tensor& other, float tol = 1e-5f) const;

  std::string to_string(std::int64_t max_elements = 16) const;

 private:
  std::int64_t row_stride() const;

  /// The one checked indexer behind every at() overload: validates rank
  /// (always) and per-axis bounds (ZKG_CHECKED builds), then returns the
  /// flat row-major offset.
  std::int64_t flat_offset(std::initializer_list<std::int64_t> indices,
                           const char* op) const;

  Shape shape_;
  FloatBuffer data_;
};

/// Throws InvalidArgument unless both tensors share `shape`.
void check_same_shape(const Tensor& a, const Tensor& b, const char* op_name);

}  // namespace zkg
