// LockRank: deterministic lock-order verification (DESIGN.md §15).
//
// Every in-tree mutex carries a compile-time rank, and a checked build
// (-DZKG_CHECKED=ON) maintains a per-thread stack of held ranks: acquiring a
// mutex whose rank is not strictly greater than every rank already held is a
// lock-order inversion and aborts immediately, printing the held rank chain
// and the attempted acquisition. A potential deadlock therefore stops being
// a TSan-maybe (it only reports the interleavings it happens to see) and
// becomes a deterministic failure on the FIRST run that merely acquires the
// two locks in the wrong order on one thread — no second thread, no timing
// window required.
//
// Rank order = allowed acquisition order (outermost first). The assignments
// below encode the nesting the codebase actually performs:
//
//   kServeQueue    InferenceServer queue/stats; ZKG_COUNT under the lock
//                  reaches the telemetry registry (kServeQueue < kTelemetry).
//   kPrefetchSlot  PrefetchBatcher handoff slot; the data.prefetch_wait span
//                  closes under the lock and records into telemetry.
//   kThreadPool    ThreadPool task queue. submit()/wait_idle() must be
//                  called with no higher-ranked lock held (PrefetchBatcher
//                  releases its slot before submitting a fill).
//   kParallelJob   per-parallel_for completion mutex (ThreadPool).
//   kTelemetry     obs::Telemetry registry. Gauge providers run OUTSIDE the
//                  registry lock but may read pool stats (kBufferPool).
//   kBufferPool    BufferPool free list — a leaf on the kernel hot path.
//   kBackendResolve one-shot kernel-backend resolution.
//   kFailpoint     fail::Registry site table. Evaluated from instrumented
//                  sites that may hold kBufferPool; policies act (sleep,
//                  throw, log) only AFTER the registry lock is released.
//   kLogSink       log sink — a leaf callable from anywhere.
//
// Release builds: zkg::debug::Mutex<R> is literally std::mutex and
// zkg::debug::CondVar is std::condition_variable (alias templates, zero
// wrappers, zero overhead — the bench_serve / zero-pool-miss numbers are
// compiled from exactly the same types as before). Checked builds swap in
// RankedMutex and std::condition_variable_any, whose wait() path re-enters
// the ranked lock()/unlock() so held ranks stay exact across waits.
//
// Usage: declare members with a rank and keep standard guards via CTAD —
//
//   mutable debug::Mutex<debug::LockRank::kBufferPool> mutex_;
//   debug::CondVar cv_;
//   const std::lock_guard lock(mutex_);   // NOT std::lock_guard<std::mutex>
//   std::unique_lock lock(mutex_); cv_.wait(lock, pred);
//
// The architectural linter (tools/analysis, rule raw-mutex) rejects raw
// std::mutex / std::condition_variable declarations outside this header, so
// every new mutex must pick a rank (or add one here, in nesting order).
#pragma once

#include <condition_variable>
#include <mutex>

#include "common/contracts.hpp"

namespace zkg::debug {

/// Global acquisition order, outermost (acquired first) to innermost. Values
/// are spaced so a new subsystem can slot between existing ranks without
/// renumbering; tools/analysis verifies they stay unique and increasing.
enum class LockRank : int {
  kServeQueue = 10,
  kPrefetchSlot = 20,
  kThreadPool = 30,
  kParallelJob = 40,
  kTelemetry = 50,
  kBufferPool = 60,
  kBackendResolve = 70,
  kFailpoint = 75,
  kLogSink = 80,
};

/// Human-readable rank name for diagnostics ("kServeQueue", ...).
const char* lock_rank_name(LockRank rank);

#if ZKG_CHECKED_ENABLED

namespace lockrank_detail {
/// Aborts with both rank chains (held + attempted) when acquiring `rank`
/// would invert the global order, i.e. some held rank is >= `rank`.
void check_acquire(LockRank rank);
/// Pushes `rank` onto this thread's held stack (after a successful lock).
void note_acquired(LockRank rank);
/// Pops the innermost occurrence of `rank` from this thread's held stack.
void note_released(LockRank rank);
/// Number of ranks currently held by this thread (tests).
int held_depth();
}  // namespace lockrank_detail

/// std::mutex plus rank bookkeeping. Satisfies Lockable, so the standard
/// guards (std::lock_guard, std::unique_lock via CTAD) and
/// std::condition_variable_any drive the rank stack through lock()/unlock()
/// with no further cooperation.
template <LockRank Rank>
class RankedMutex {
 public:
  static constexpr LockRank rank = Rank;

  RankedMutex() = default;
  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock() {
    // Check BEFORE blocking: an actual deadlock would otherwise swallow the
    // diagnostic exactly when it is needed.
    lockrank_detail::check_acquire(Rank);
    mutex_.lock();
    lockrank_detail::note_acquired(Rank);
  }

  bool try_lock() {
    lockrank_detail::check_acquire(Rank);
    if (!mutex_.try_lock()) return false;
    lockrank_detail::note_acquired(Rank);
    return true;
  }

  void unlock() {
    lockrank_detail::note_released(Rank);
    mutex_.unlock();
  }

 private:
  std::mutex mutex_;
};

template <LockRank Rank>
using Mutex = RankedMutex<Rank>;

// condition_variable_any waits through the ranked lock()/unlock(), so a
// thread blocked in wait() holds no rank — matching reality, since the
// mutex is released for the duration of the wait.
using CondVar = std::condition_variable_any;

#else  // !ZKG_CHECKED_ENABLED

// Release builds: the rank parameter vanishes and callers get the exact
// std types they used before LockRank existed.
template <LockRank Rank>
using Mutex = std::mutex;

using CondVar = std::condition_variable;

#endif  // ZKG_CHECKED_ENABLED

}  // namespace zkg::debug
