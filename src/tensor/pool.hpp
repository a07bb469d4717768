// BufferPool and Workspace: steady-state allocation-free storage for the
// training/attack hot path.
//
// The training loop re-runs the same shapes every step, so after one warmup
// iteration every buffer the stack needs already exists. BufferPool is a
// size-bucketed free list of float buffers: acquire() hands out a recycled
// buffer when one of the right bucket is free (a *hit*) and mallocs only
// when the free list is empty (a *miss*). The hit/miss/byte counters turn
// "zero allocations after warmup" into a testable property — see
// tests/test_workspace.cpp, and perfbench's tensor.pool_misses_per_step and
// tensor.pool_hit_rate for the training workloads.
//
// Ownership rules:
//  * ensure_shape(t, shape) is the one resize primitive. It reuses t's
//    storage in place whenever the capacity suffices and routes any real
//    growth through the pool (release old buffer, acquire a bucket-sized
//    one). Layers use it on persistent member scratch, which therefore
//    stops allocating once shapes stabilise.
//  * Workspace is a scoped handle for transient tensors (Sequential's
//    activation ping-pong). Buffers it hands out return to the pool when
//    the Workspace dies, so the next step's acquire is a hit.
//  * A tensor that escapes to a caller keeps its buffer; the pool never
//    frees storage behind a live tensor. Code whose result escapes (a
//    dataset, a returned adversarial batch) constructs the destination at
//    its final shape before calling an `_into` kernel, so ensure_shape does
//    nothing and no pooled buffer leaves the steady state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/lockrank.hpp"
#include "tensor/tensor.hpp"

namespace zkg {

/// Counters describing pool traffic since construction / reset_stats().
struct PoolStats {
  std::uint64_t hits = 0;            // acquires served from the free list
  std::uint64_t misses = 0;          // acquires that had to malloc
  std::uint64_t bytes_allocated = 0; // bytes malloc'd by misses
  std::uint64_t bytes_recycled = 0;  // bytes served by hits
  std::uint64_t free_buffers = 0;    // buffers currently on the free list
  std::uint64_t free_bytes = 0;      // capacity held by the free list

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Thread-safe, size-bucketed free list of float buffers. Buckets are powers
/// of two (>= kMinBucket elements), so at most one buffer per distinct
/// bucket is retained per concurrent user and a request can always be
/// served by a buffer from its own bucket.
class BufferPool {
 public:
  static constexpr std::size_t kMinBucket = 256;  // elements (1 KiB)

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// The process-wide pool that ensure_shape and Workspace default to.
  static BufferPool& global();

  /// Smallest bucket capacity that fits `numel` elements.
  static std::size_t bucket_for(std::size_t numel);

  /// A buffer with size() == numel and capacity >= bucket_for(numel).
  /// Contents are unspecified (recycled buffers carry stale values); the
  /// data pointer is 64-byte aligned (common/aligned.hpp), so SIMD kernels
  /// can treat every pooled buffer as vector-load safe.
  FloatBuffer acquire(std::size_t numel);

  /// Returns a buffer to the free list. Buffers smaller than kMinBucket are
  /// simply dropped (not worth tracking).
  void release(FloatBuffer&& buffer);

  PoolStats stats() const;
  void reset_stats();

  /// Frees every buffer on the free list (counters are kept).
  void trim();

  /// ZKG_CHECKED poisoning: release() fills returned buffers with this
  /// quiet-NaN bit pattern and acquire() verifies it is intact, so a write
  /// through a pointer that outlived its release trips a formatted error
  /// (and any *read* of recycled-but-uninitialised storage propagates NaN
  /// into the checked-math tripwires). In release builds neither side runs.
  static float poison_value();
  /// True when `value` carries the exact poison bit pattern (bit compare,
  /// not float compare: the pattern is a NaN).
  static bool is_poison(float value);

 private:
  mutable debug::Mutex<debug::LockRank::kBufferPool> mutex_;
  // bucket capacity -> free buffers of at least that capacity
  std::unordered_map<std::size_t, std::vector<FloatBuffer>> free_;
  // ZKG_CHECKED only: data pointers currently on the free list, to diagnose
  // a buffer being released twice. Unused (and empty) in release builds.
  std::unordered_set<const float*> released_;
  PoolStats stats_;
};

/// Resizes `buffer` to `numel` elements without filling the new ones (the
/// allocator default-initialises floats). ZKG_CHECKED builds poison every
/// newly exposed element, so code that reads it before writing it, for
/// instance by assuming zeros, trips the NaN tripwires.
void resize_uninitialised(FloatBuffer& buffer, std::size_t numel);

/// Resizes `t` to `shape` with steady-state-free semantics: a no-op when the
/// shape already matches, an in-place metadata/size change when the storage
/// capacity suffices, and a pool release+acquire only on real growth.
/// Newly exposed elements have unspecified contents — callers that need
/// zeros must fill explicitly (the `_into` kernels do).
void ensure_shape(Tensor& t, const Shape& shape,
                  BufferPool& pool = BufferPool::global());

/// Scoped set of pool-backed tensors. get()/zeros() acquire storage now;
/// scratch() hands out an empty tensor that downstream ensure_shape calls
/// will grow through the pool. All storage returns to the pool when the
/// Workspace is destroyed. References remain stable for the Workspace's
/// lifetime.
class Workspace {
 public:
  explicit Workspace(BufferPool& pool = BufferPool::global()) : pool_(pool) {}
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  ~Workspace();

  /// A pooled tensor of `shape` with unspecified contents.
  Tensor& get(const Shape& shape);

  /// A pooled tensor of `shape` filled with zeros.
  Tensor& zeros(const Shape& shape);

  /// An empty tensor whose eventual storage is recycled at scope exit.
  Tensor& scratch();

  std::size_t size() const { return tensors_.size(); }

 private:
  BufferPool& pool_;
  std::deque<Tensor> tensors_;  // deque: stable references across growth
};

}  // namespace zkg
