#include "tensor/pool.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/failpoint.hpp"
#include "obs/telemetry.hpp"

namespace zkg {

BufferPool& BufferPool::global() {
  static BufferPool pool;
  // Publish pool health into the telemetry registry lazily (providers run at
  // export time, so the acquire/release hot path stays untouched). obs cannot
  // depend on tensor, hence the provider lives here rather than in src/obs.
  [[maybe_unused]] static const bool gauges_registered = [] {
    obs::Telemetry::global().add_gauge_provider([](obs::Telemetry& t) {
      const PoolStats s = BufferPool::global().stats();
      t.gauge("pool.hits").set(static_cast<double>(s.hits));
      t.gauge("pool.misses").set(static_cast<double>(s.misses));
      t.gauge("pool.bytes_allocated")
          .set(static_cast<double>(s.bytes_allocated));
      t.gauge("pool.bytes_recycled")
          .set(static_cast<double>(s.bytes_recycled));
      t.gauge("pool.free_buffers").set(static_cast<double>(s.free_buffers));
      t.gauge("pool.free_bytes").set(static_cast<double>(s.free_bytes));
    });
    return true;
  }();
  return pool;
}

std::size_t BufferPool::bucket_for(std::size_t numel) {
  std::size_t bucket = kMinBucket;
  while (bucket < numel) bucket <<= 1;
  return bucket;
}

namespace {
// A quiet NaN with a recognisable payload; reads propagate NaN into the
// checked-math tripwires, and the exact bit pattern lets acquire() tell
// "stale but untouched" from "written after release".
constexpr std::uint32_t kPoisonBits = 0x7fc0deadu;
}  // namespace

float BufferPool::poison_value() {
  float value;
  static_assert(sizeof(value) == sizeof(kPoisonBits));
  std::memcpy(&value, &kPoisonBits, sizeof(value));
  return value;
}

bool BufferPool::is_poison(float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits == kPoisonBits;
}

FloatBuffer BufferPool::acquire(std::size_t numel) {
  // Evaluated BEFORE taking the pool lock: a delay policy must stall only
  // this caller, and a throw must not unwind through the guard.
  ZKG_FAILPOINT("pool.acquire");
  const std::size_t bucket = bucket_for(numel);
  FloatBuffer buffer;
  bool recycled = false;
  {
    std::lock_guard lock(mutex_);
    auto it = free_.find(bucket);
    if (it != free_.end() && !it->second.empty()) {
      buffer = std::move(it->second.back());
      it->second.pop_back();
      ++stats_.hits;
      stats_.bytes_recycled += bucket * sizeof(float);
      stats_.free_buffers -= 1;
      stats_.free_bytes -= buffer.capacity() * sizeof(float);
      if (ZKG_CHECKED_ENABLED) {
        released_.erase(buffer.data());
        recycled = true;
      }
    } else {
      ++stats_.misses;
      stats_.bytes_allocated += bucket * sizeof(float);
    }
  }
  if (ZKG_CHECKED_ENABLED && recycled) {
    // The buffer left release() fully poisoned; any broken element means
    // someone kept a pointer into it and wrote through it while the pool
    // owned the storage.
    for (std::size_t i = 0; i < buffer.size(); ++i) {
      ZKG_REQUIRE(is_poison(buffer[i]))
          << " BufferPool: pooled buffer written after release "
          << "(use-after-release detected at element " << i << " of "
          << buffer.size() << ", value " << buffer[i] << ")";
    }
  }
  if (buffer.capacity() < bucket) buffer.reserve(bucket);
  resize_uninitialised(buffer, numel);
  return buffer;
}

void BufferPool::release(FloatBuffer&& buffer) {
  const std::size_t capacity = buffer.capacity();
  if (capacity < kMinBucket) return;  // not worth tracking
  // Key by the largest bucket the buffer can fully serve, so acquire(bucket)
  // never hands out a buffer that would have to realloc.
  std::size_t bucket = kMinBucket;
  while (bucket * 2 <= capacity) bucket <<= 1;
  if (ZKG_CHECKED_ENABLED) {
    // Poison the whole capacity (not just size()) so every byte the pool
    // may hand out again is covered by the integrity scan in acquire().
    buffer.resize(capacity);
    std::fill(buffer.begin(), buffer.end(), poison_value());
  }
  std::lock_guard lock(mutex_);
  if (ZKG_CHECKED_ENABLED) {
    ZKG_REQUIRE(released_.insert(buffer.data()).second)
        << " BufferPool: buffer released to the pool twice (double-release "
        << "of " << static_cast<const void*>(buffer.data()) << ")";
  }
  stats_.free_buffers += 1;
  stats_.free_bytes += capacity * sizeof(float);
  free_[bucket].push_back(std::move(buffer));
}

PoolStats BufferPool::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void BufferPool::reset_stats() {
  std::lock_guard lock(mutex_);
  const std::uint64_t free_buffers = stats_.free_buffers;
  const std::uint64_t free_bytes = stats_.free_bytes;
  stats_ = PoolStats{};
  stats_.free_buffers = free_buffers;
  stats_.free_bytes = free_bytes;
}

void BufferPool::trim() {
  std::lock_guard lock(mutex_);
  free_.clear();
  released_.clear();  // the tracked pointers die with their buffers
  stats_.free_buffers = 0;
  stats_.free_bytes = 0;
}

void resize_uninitialised(FloatBuffer& buffer, std::size_t numel) {
  const std::size_t old_size = buffer.size();
  buffer.resize(numel);
  if (ZKG_CHECKED_ENABLED && numel > old_size) {
    std::fill(buffer.begin() + static_cast<std::ptrdiff_t>(old_size),
              buffer.end(), BufferPool::poison_value());
  }
}

void ensure_shape(Tensor& t, const Shape& shape, BufferPool& pool) {
  if (t.shape() == shape) return;
  const std::size_t numel = static_cast<std::size_t>(shape_numel(shape));
  FloatBuffer buffer = std::move(t.storage());
  if (buffer.capacity() >= numel) {
    resize_uninitialised(buffer, numel);
  } else {
    if (buffer.capacity() > 0) pool.release(std::move(buffer));
    buffer = pool.acquire(numel);
  }
  t = Tensor(shape, std::move(buffer));
}

Workspace::~Workspace() {
  for (Tensor& t : tensors_) {
    if (t.storage().capacity() > 0) pool_.release(std::move(t.storage()));
  }
}

Tensor& Workspace::get(const Shape& shape) {
  tensors_.emplace_back(
      shape, pool_.acquire(static_cast<std::size_t>(shape_numel(shape))));
  return tensors_.back();
}

Tensor& Workspace::zeros(const Shape& shape) {
  Tensor& t = get(shape);
  t.fill(0.0f);
  return t;
}

Tensor& Workspace::scratch() {
  tensors_.emplace_back();
  return tensors_.back();
}

}  // namespace zkg
