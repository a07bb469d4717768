// Small fixed-size thread pool with a parallel_for helper.
//
// This is the execution engine behind zkg::parallel_for (see
// common/parallel.hpp).
//
// Concurrency contract:
//  * parallel_for tracks completion with a per-call job, so concurrent
//    calls from different threads never wait on each other's work.
//  * The calling thread participates in executing chunks, so a nested
//    parallel_for issued from inside a worker always completes even when
//    every other worker is busy (caller-runs fallback).
//  * The first exception thrown by a chunk body is captured and rethrown
//    in the calling thread once the whole range has been retired.
//  * Exceptions thrown by submit()ed tasks are captured and rethrown from
//    the next wait_idle().
//  * Idle workers, and a caller waiting for its chunks, poll for up to
//    1 ms (yielding between polls) before they block, so back-to-back
//    kernel calls do not pay a thread wake-up each.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/lockrank.hpp"

namespace zkg {

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means default_thread_count().
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. If the task throws, the exception is captured and
  /// rethrown from the next wait_idle() call.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first exception captured from a submitted task (if any).
  void wait_idle();

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Splits [0, count) into contiguous chunks and runs `body(begin, end)`
  /// on the pool plus the calling thread; blocks until complete and
  /// rethrows the first exception thrown by any chunk. Safe to call
  /// concurrently from several threads and from inside pool tasks.
  void parallel_for(
      std::int64_t count,
      const std::function<void(std::int64_t, std::int64_t)>& body);

  /// As above, but no chunk covers fewer than `grain` items (except the
  /// last). Use a coarse grain for cheap per-item bodies so chunk dispatch
  /// does not dominate.
  void parallel_for(
      std::int64_t count, std::int64_t grain,
      const std::function<void(std::int64_t, std::int64_t)>& body);

  /// Process-wide shared pool (lazily constructed with
  /// default_thread_count() workers).
  static ThreadPool& shared();

  /// ZKG_THREADS environment override when set to a positive integer,
  /// otherwise std::thread::hardware_concurrency() (at least 1).
  static unsigned default_thread_count();

 private:
  // Per-parallel_for completion state. Chunks are claimed dynamically via
  // next_chunk so helper tasks that start late (or never) are harmless.
  struct ParallelJob;

  void worker_loop();
  static void run_chunks(ParallelJob& job);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  // tasks_.size(), written under mutex_; idle workers poll it without the
  // lock before they block.
  std::atomic<std::size_t> queued_{0};
  debug::Mutex<debug::LockRank::kThreadPool> mutex_;
  debug::CondVar task_ready_;
  debug::CondVar all_done_;
  std::int64_t in_flight_ = 0;
  std::exception_ptr first_task_error_;  // from submit()ed tasks
  bool stopping_ = false;
};

}  // namespace zkg
