#include "common/threadpool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

#include "common/env.hpp"
#include "common/error.hpp"

namespace zkg {
namespace {

// How long an idle worker, or a caller waiting for its chunks, polls before
// blocking on a condition variable. Kernel calls arrive back to back during
// a training step; a thread that sleeps between them pays a futex wake-up
// per call (on a virtual machine, often a vCPU reschedule too), which cost
// 30-60% of LeNet training throughput on a busy 4-vCPU virtual machine.
constexpr auto kSpinBudget = std::chrono::microseconds(1000);

/// Polls `ready` (yielding the CPU between polls) until it returns true or
/// kSpinBudget has passed. Callers still re-check under their mutex.
template <typename Ready>
void spin_until(const Ready& ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  while (!ready() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

}  // namespace

struct ThreadPool::ParallelJob {
  // `body` points into the caller's frame; it is only dereferenced by
  // threads that claimed a chunk, and the caller cannot return before every
  // claimed chunk is retired, so the pointer never dangles.
  const std::function<void(std::int64_t, std::int64_t)>* body = nullptr;
  std::int64_t count = 0;
  std::int64_t chunk = 0;
  std::int64_t num_chunks = 0;
  std::atomic<std::int64_t> next_chunk{0};
  std::atomic<bool> failed{false};

  // Written with release order after a chunk retires, so a caller that
  // observes num_chunks also observes every chunk's writes.
  std::atomic<std::int64_t> chunks_done{0};

  debug::Mutex<debug::LockRank::kParallelJob> mu;
  debug::CondVar done_cv;
  std::exception_ptr first_error;     // guarded by mu
};

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) num_threads = default_thread_count();
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

unsigned ThreadPool::default_thread_count() {
  const std::int64_t env = env_or_int("ZKG_THREADS", 0);
  if (env > 0) {
    return static_cast<unsigned>(std::min<std::int64_t>(env, 1024));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::submit(std::function<void()> task) {
  ZKG_CHECK(task != nullptr);
  {
    const std::lock_guard lock(mutex_);
    ZKG_CHECK(!stopping_) << " (pool is shutting down)";
    tasks_.push(std::move(task));
    queued_.store(tasks_.size(), std::memory_order_release);
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_task_error_) {
    std::exception_ptr error = std::exchange(first_task_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    spin_until(
        [this] { return queued_.load(std::memory_order_acquire) > 0; });
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ and drained
      task = std::move(tasks_.front());
      tasks_.pop();
      queued_.store(tasks_.size(), std::memory_order_release);
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      const std::lock_guard lock(mutex_);
      if (error && !first_task_error_) first_task_error_ = error;
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::run_chunks(ParallelJob& job) {
  for (;;) {
    const std::int64_t c =
        job.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.num_chunks) return;
    const std::int64_t begin = c * job.chunk;
    const std::int64_t end = std::min(begin + job.chunk, job.count);
    // Fail fast: once a chunk threw, remaining chunks are retired unrun.
    if (!job.failed.load(std::memory_order_acquire)) {
      try {
        (*job.body)(begin, end);
      } catch (...) {
        job.failed.store(true, std::memory_order_release);
        const std::lock_guard lock(job.mu);
        if (!job.first_error) job.first_error = std::current_exception();
      }
    }
    if (job.chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job.num_chunks) {
      // Under mu, so a caller between its predicate check and its wait
      // cannot miss the notification.
      const std::lock_guard lock(job.mu);
      job.done_cv.notify_all();
    }
  }
}

void ThreadPool::parallel_for(
    std::int64_t count,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  parallel_for(count, 1, body);
}

void ThreadPool::parallel_for(
    std::int64_t count, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  if (count <= 0) return;
  grain = std::max<std::int64_t>(1, grain);
  // Caller participates, so up to size() + 1 threads can make progress.
  const std::int64_t target_chunks =
      std::min<std::int64_t>(count, static_cast<std::int64_t>(size()) + 1);
  const std::int64_t chunk =
      std::max(grain, (count + target_chunks - 1) / target_chunks);
  const std::int64_t num_chunks = (count + chunk - 1) / chunk;
  if (num_chunks <= 1) {
    body(0, count);
    return;
  }

  // shared_ptr: helper tasks may still be queued (and touch the job's
  // atomics) after the caller has observed completion and returned.
  auto job = std::make_shared<ParallelJob>();
  job->body = &body;
  job->count = count;
  job->num_chunks = num_chunks;
  job->chunk = chunk;

  const std::int64_t helpers =
      std::min<std::int64_t>(static_cast<std::int64_t>(size()), num_chunks - 1);
  for (std::int64_t i = 0; i < helpers; ++i) {
    submit([job] { run_chunks(*job); });
  }
  run_chunks(*job);

  const auto retired = [&job] {
    return job->chunks_done.load(std::memory_order_acquire) ==
           job->num_chunks;
  };
  spin_until(retired);
  std::unique_lock lock(job->mu);
  job->done_cv.wait(lock, retired);
  if (job->first_error) {
    std::exception_ptr error = job->first_error;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace zkg
