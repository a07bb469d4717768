// 64-byte-aligned storage for tensor data.
//
// Every Tensor buffer and every BufferPool bucket is allocated on a cache
// line boundary so the SIMD kernel backends (src/tensor/backend/) can use
// aligned vector loads and pack GEMM panels without ever straddling a
// cache line. The allocator is the single aligned-allocation primitive in
// the codebase; everything above it sees ordinary std::vector semantics,
// except that growing a buffer leaves the new elements uninitialised.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace zkg {

/// Alignment (bytes) of every tensor/pool buffer: one cache line, which is
/// also >= the 32-byte AVX2 vector width the SIMD backend loads with.
inline constexpr std::size_t kTensorAlignment = 64;

/// Minimal std allocator handing out `Align`-byte-aligned storage through
/// the C++17 aligned operator new. This is the one place the library asks
/// the runtime for raw aligned memory; buffers flow from here into
/// std::vector and then through BufferPool recycling.
template <typename T, std::size_t Align = kTensorAlignment>
class AlignedAllocator {
 public:
  static_assert((Align & (Align - 1)) == 0, "alignment must be a power of 2");
  static_assert(Align >= alignof(T), "alignment below the type's natural one");

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_alloc();
    }
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Align)));
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Align));
  }

  /// Default-initialises instead of value-initialising, so resize(n) and
  /// FloatBuffer(n) leave new floats indeterminate rather than zero-filling
  /// them serially before a kernel overwrites them. Code that wants zeros
  /// asks for them (Tensor(shape, fill), Workspace::zeros).
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    std::uninitialized_default_construct_n(p, 1);
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return false;
  }
};

/// The storage type behind Tensor and BufferPool: a float vector whose
/// data() is always 64-byte aligned.
using FloatBuffer = std::vector<float, AlignedAllocator<float>>;

/// True when `p` sits on a kTensorAlignment boundary (null counts as
/// aligned: an empty tensor has nothing to misalign).
inline bool is_tensor_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kTensorAlignment == 0;
}

}  // namespace zkg
