// zkg::parallel_for — the single parallel execution entry point for every
// hot kernel (GEMM variants, the conv passes, and through
// parallel_for_elements the elementwise kernels and tensor copies).
//
// The engine is the in-tree zkg::ThreadPool (ThreadPool::shared(), sized
// by the ZKG_THREADS environment variable): the range [0, count) is split
// into contiguous chunks, `body(begin, end)` runs once per chunk on the
// pool workers plus the calling thread, the call blocks until the whole
// range is retired, and the first exception thrown by a chunk is rethrown
// in the calling thread. Nested and concurrent calls are safe and run in
// parallel: a nested call's caller takes chunks itself, so it completes
// even when every worker is busy.
#pragma once

#include <cstdint>
#include <functional>

namespace zkg {

/// Always "threadpool"; recorded by benches and trace metadata.
const char* parallel_backend_name();

/// Worker count of the shared pool (honours ZKG_THREADS).
unsigned parallel_threads();

/// Runs `body(begin, end)` over contiguous chunks of [0, count).
void parallel_for(std::int64_t count,
                  const std::function<void(std::int64_t, std::int64_t)>& body);

/// As above, but no chunk covers fewer than `grain` items (except the
/// last). Pick the grain with parallel_grain() so cheap bodies are not
/// drowned in dispatch overhead.
void parallel_for(std::int64_t count, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& body);

/// Grain so each chunk performs at least `min_chunk_cost` units of work
/// when one item costs `per_item_cost` (both in arbitrary consistent
/// units, e.g. flops or bytes).
inline std::int64_t parallel_grain(std::int64_t per_item_cost,
                                   std::int64_t min_chunk_cost = 1 << 15) {
  if (per_item_cost < 1) per_item_cost = 1;
  const std::int64_t grain = min_chunk_cost / per_item_cost;
  return grain < 1 ? 1 : grain;
}

/// Items per chunk of a per-element pass (elementwise kernels, tensor
/// copies, projections). A pass of at most this many floats runs on the
/// caller: every elementwise pass of a batch-32 LeNet forward (the largest
/// is 50,176 floats) stays inline, so serving pays no dispatch for them.
inline constexpr std::int64_t kElementwiseGrain = std::int64_t{1} << 16;

/// Runs `body(begin, end)` over [0, count) for a per-element pass: inline
/// as body(0, count) up to kElementwiseGrain items, else over parallel_for
/// chunks of at least that many items that start on 16-item boundaries (a
/// cache line of floats), so no two chunks write one line.
template <typename Body>
void parallel_for_elements(std::int64_t count, Body&& body) {
  if (count <= 0) return;
  if (count <= kElementwiseGrain) {
    body(std::int64_t{0}, count);
    return;
  }
  constexpr std::int64_t kLine = 16;
  parallel_for((count + kLine - 1) / kLine, kElementwiseGrain / kLine,
               [&](std::int64_t l0, std::int64_t l1) {
                 body(l0 * kLine, l1 * kLine < count ? l1 * kLine : count);
               });
}

/// RAII scope forcing every zkg::parallel_for (process-wide) to run the
/// body inline as body(0, count). Used by tests to compare parallel
/// results bit-for-bit against serial ones and by benches to measure the
/// serial baseline.
class SerialScope {
 public:
  SerialScope();
  ~SerialScope();
  SerialScope(const SerialScope&) = delete;
  SerialScope& operator=(const SerialScope&) = delete;

  static bool active();
};

}  // namespace zkg
