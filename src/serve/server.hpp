// InferenceServer: the high-throughput robust serving layer (DESIGN.md §14,
// hardening §16).
//
// A multi-threaded request front-end feeding a dynamic micro-batching
// engine. Callers submit single images from any thread and get a
// RequestHandle (wrapping a std::future<Prediction>) back; a dedicated
// engine thread collects pending requests into a batch tensor and
// dispatches it when either
//
//   * the batch is full (config.max_batch requests — a size flush), or
//   * the oldest queued request has waited config.max_delay_s (a deadline
//     flush),
//
// then runs ONE pooled forward through an InferenceSession (classifier
// plus, when attached, the ZK-GanDef discriminator perturbation alarm —
// the operational pattern the paper's intro motivates for spam filtering /
// face recognition front-ends) and scatters per-request results back to
// the waiting futures. Batching is where the throughput comes from: a
// batch-B forward amortizes kernel dispatch, weight packing and
// parallel_for fan-out over B requests, so per-request cost collapses vs
// batch-1 serving (see bench/bench_serve.cpp).
//
// Admission control: the pending queue is bounded. A submit that finds
// config.max_queue requests already waiting throws the typed
// serve::Overloaded instead of queueing unboundedly. Two priority levels
// refine the policy: when the queue is full, a NORMAL submission evicts
// the newest queued LOW request (its future fails with Overloaded) before
// giving up, while a LOW submission is simply rejected — low traffic is
// shed first, by both admission and eviction. Submitting after stop()
// throws serve::ShutDown.
//
// Per-request robustness (every path fulfils the future — none is ever
// abandoned, even with failpoints armed on the batch forward):
//
//   * deadline    submit(image, deadline_s): a request still queued when
//                 its deadline passes is completed with DeadlineExceeded
//                 by the engine (proactively — the engine wakes for the
//                 nearest deadline, so expiry latency is bounded) instead
//                 of occupying a batch slot.
//   * cancel      RequestHandle::cancel() removes a still-queued request
//                 and fails it with Cancelled; returns false once the
//                 request was dispatched into a batch (or completed).
//   * watchdog    with config.watchdog_s > 0, a monitor thread fails every
//                 future of a batch whose forward has been running longer
//                 than the budget with WatchdogTimeout, so a stuck kernel
//                 cannot hang every connected client. The engine's own
//                 completion is then discarded (first completion wins via
//                 an atomic claim on each request).
//
// Observability: per-request sojourn time (submit -> result ready) and
// per-batch forward time land in owned obs::Histogram instances surfaced
// by stats() (p50/p95/p99, throughput) and are mirrored into the global
// telemetry registry (serve.* counters / histograms) when ZKG_TRACE is on.
//
// Failpoint sites (common/failpoint.hpp): serve.submit (front door, before
// admission), serve.admit (error-return policy simulates an Overloaded
// rejection), serve.batch_forward (inside the batch try — a throw fails
// the batch's futures, a delay simulates a stuck forward for the
// watchdog).
//
// Shutdown: stop() refuses new work, drains every queued request through
// the normal batch path (no future is ever abandoned), then joins the
// engine and watchdog. The destructor calls stop().
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/lockrank.hpp"
#include "common/stopwatch.hpp"
#include "common/threadpool.hpp"
#include "models/session.hpp"
#include "obs/histogram.hpp"

namespace zkg::serve {

/// Batching and admission policy. validate() throws zkg::ConfigError on the
/// first bad field (same convention as defense::TrainConfig).
struct ServeConfig {
  /// Dispatch a batch as soon as this many requests are pending.
  std::int64_t max_batch = 32;
  /// Dispatch a partial batch once its oldest request has waited this long.
  double max_delay_s = 0.002;
  /// Admission bound: reject when this many requests are already queued.
  std::int64_t max_queue = 1024;
  /// Batch-forward watchdog budget in seconds; 0 disables the watchdog.
  /// A batch whose forward exceeds it has its futures failed with
  /// WatchdogTimeout while the engine keeps running.
  double watchdog_s = 0.0;

  void validate() const;
};

/// Result of one served request.
struct Prediction {
  std::int64_t label = -1;
  /// Discriminator P(perturbed) in [0, 1]; -1 when the server has no alarm
  /// head attached.
  float alarm_score = -1.0f;
};

/// Admission priority. Low is shed first: rejected outright at a full
/// queue, and evicted from the queue by an arriving normal request.
enum class Priority { kNormal, kLow };

/// Per-request submission options.
struct SubmitOptions {
  /// Completion deadline in seconds from submit; 0 = none. A request still
  /// queued past it fails with DeadlineExceeded.
  double deadline_s = 0.0;
  Priority priority = Priority::kNormal;
};

/// Load-shed rejection: the queue (or the wait estimate) exceeded its
/// budget. Thrown by submit(), and set on the future of an evicted
/// low-priority request. Carries the depth observed at rejection time.
class Overloaded : public Error {
 public:
  Overloaded(const std::string& what, std::int64_t depth)
      : Error(what), depth_(depth) {}
  std::int64_t queue_depth() const { return depth_; }

 private:
  std::int64_t depth_;
};

/// Raised by submit() after stop(): the server no longer accepts work.
class ShutDown : public Error {
 public:
  explicit ShutDown(const std::string& what) : Error(what) {}
};

/// Set on a request's future when its deadline passed while still queued.
class DeadlineExceeded : public Error {
 public:
  explicit DeadlineExceeded(const std::string& what) : Error(what) {}
};

/// Set on a request's future by RequestHandle::cancel().
class Cancelled : public Error {
 public:
  explicit Cancelled(const std::string& what) : Error(what) {}
};

/// Set on every future of a batch the watchdog declared stuck.
class WatchdogTimeout : public Error {
 public:
  explicit WatchdogTimeout(const std::string& what) : Error(what) {}
};

/// Counters and latency aggregates since construction; see stats().
struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;   // Overloaded submissions (not ShutDown)
  std::uint64_t completed = 0;  // futures fulfilled (results or errors)
  std::uint64_t batches = 0;
  std::uint64_t size_flushes = 0;      // dispatched at max_batch
  std::uint64_t deadline_flushes = 0;  // dispatched at max_delay_s
  std::uint64_t drain_flushes = 0;     // dispatched during stop()
  std::uint64_t deadline_expired = 0;  // futures failed DeadlineExceeded
  std::uint64_t cancelled = 0;         // futures failed via cancel()
  std::uint64_t shed_low = 0;          // queued low evicted by normal
  std::uint64_t watchdog_batches = 0;  // batches failed by the watchdog
  std::int64_t max_batch_observed = 0;
  double mean_batch_s = 0.0;     // mean forward+scatter time per batch
  double p50_latency_s = 0.0;    // request sojourn: submit -> result
  double p95_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double max_latency_s = 0.0;
  double elapsed_s = 0.0;        // since server construction
  double throughput_rps = 0.0;   // completed / elapsed_s
};

class InferenceServer;

namespace detail {

/// Shared completion record for one request. Whoever wins the atomic claim
/// fulfils the promise — engine scatter, deadline expiry, cancel, eviction
/// and watchdog race safely because only the winner touches it.
struct RequestState {
  std::promise<Prediction> promise;
  std::atomic<bool> claimed{false};
  bool dispatched = false;  // guarded by the server mutex
  std::uint64_t id = 0;

  bool try_claim() {
    bool expected = false;
    return claimed.compare_exchange_strong(expected, true);
  }
};

}  // namespace detail

/// Caller's side of one submitted request: a future plus a cancellation
/// lane. Move-only; must not outlive the server (same contract as the
/// futures it wraps).
class RequestHandle {
 public:
  RequestHandle() = default;
  RequestHandle(RequestHandle&&) = default;
  RequestHandle& operator=(RequestHandle&&) = default;
  RequestHandle(const RequestHandle&) = delete;
  RequestHandle& operator=(const RequestHandle&) = delete;

  /// Blocks for the result; rethrows the typed error on failure paths.
  Prediction get() { return future_.get(); }

  /// Underlying future, for wait_for / composition.
  std::future<Prediction>& future() { return future_; }

  /// True while the handle owns an unconsumed result.
  bool valid() const { return future_.valid(); }

  /// Removes the request from the queue and fails its future with
  /// Cancelled. Returns false when too late: the request was already
  /// dispatched into a batch, completed, or this handle is empty.
  bool cancel();

  /// Monotonic per-server submission id (diagnostics).
  std::uint64_t id() const { return state_ ? state_->id : 0; }

 private:
  friend class InferenceServer;
  RequestHandle(InferenceServer* server,
                std::shared_ptr<detail::RequestState> state,
                std::future<Prediction> future)
      : server_(server), state_(std::move(state)), future_(std::move(future)) {}

  InferenceServer* server_ = nullptr;
  std::shared_ptr<detail::RequestState> state_;
  std::future<Prediction> future_;
};

class InferenceServer {
 public:
  /// Serves `model`, optionally scoring every request through the
  /// ZK-GanDef discriminator `alarm`. Both must outlive the server. The
  /// engine thread starts immediately (and the watchdog thread, when
  /// config.watchdog_s > 0).
  InferenceServer(models::Classifier& model, ServeConfig config,
                  models::Discriminator* alarm = nullptr);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueues one image ([C, H, W] or [1, C, H, W] matching the model's
  /// InputSpec; pixels preprocessed like training data). Thread-safe.
  /// Throws Overloaded under load-shedding, ShutDown after stop(), and
  /// zkg::InvalidArgument on a shape mismatch or bad options. The image is
  /// copied, so the caller may reuse its tensor immediately.
  RequestHandle submit(const Tensor& image, const SubmitOptions& options = {});

  /// Convenience: submit with a completion deadline (seconds from now).
  RequestHandle submit(const Tensor& image, double deadline_s) {
    SubmitOptions options;
    options.deadline_s = deadline_s;
    return submit(image, options);
  }

  /// Refuses new submissions, drains every queued request, joins the
  /// engine and watchdog. Idempotent; called by the destructor.
  void stop();

  /// Suspends dispatching (queued and new requests wait; admission still
  /// applies). Deterministic batch assembly for tests and maintenance
  /// windows: pause, enqueue max_batch requests, resume — one exact size
  /// flush. Flush deadlines keep running from the original enqueue times,
  /// so a pause longer than max_delay_s deadline-flushes on resume;
  /// per-request deadlines also keep running and are expired on resume.
  /// stop() overrides a pause so shutdown always drains.
  void pause();
  void resume();

  /// Snapshot of counters and latency aggregates. Thread-safe.
  ServerStats stats() const;

  const ServeConfig& config() const { return config_; }
  bool has_alarm() const { return session_.has_alarm(); }

 private:
  friend class RequestHandle;

  struct Request {
    Tensor image;
    std::shared_ptr<detail::RequestState> state;
    double enqueue_s = 0.0;   // on epoch_'s clock
    double deadline_s = 0.0;  // absolute on epoch_'s clock; 0 = none
    Priority priority = Priority::kNormal;
  };

  /// Why a batch left the queue; drives the flush counters.
  enum class FlushKind { kSize, kDeadline, kDrain };

  /// Engine body, submitted once to engine_ (a dedicated 1-worker pool —
  /// the repo's single parallelism entry point, tools/analyze.py
  /// parallel-primitives). Loops until stop() and the queue is drained.
  void engine_loop();
  /// Watchdog body (only when config.watchdog_s > 0): monitors the
  /// in-flight batch and fails its futures past the budget.
  void watchdog_loop();
  /// Runs one batch outside the lock: gather -> forward -> scatter.
  void run_batch(std::vector<Request>& taken, FlushKind kind);
  /// Completes and removes every queued request whose deadline passed.
  /// Caller holds mutex_.
  void expire_deadlines_locked();
  /// Earliest absolute per-request deadline in the queue; 0 when none.
  /// Caller holds mutex_.
  double nearest_deadline_locked() const;
  /// RequestHandle::cancel() back-end.
  bool cancel(const std::shared_ptr<detail::RequestState>& state);

  models::Classifier& model_;
  ServeConfig config_;
  models::InferenceSession session_;

  mutable debug::Mutex<debug::LockRank::kServeQueue> mutex_;
  debug::CondVar cv_;
  std::deque<Request> queue_;
  bool stopping_ = false;
  bool paused_ = false;
  bool engine_done_ = false;
  std::uint64_t next_id_ = 1;

  // In-flight batch bookkeeping for the watchdog (guarded by mutex_): the
  // request states the engine is currently forwarding, when the forward
  // started, and a generation counter so the watchdog never times a batch
  // against an older batch's start.
  std::vector<std::shared_ptr<detail::RequestState>> inflight_;
  double inflight_start_s_ = 0.0;
  std::uint64_t inflight_epoch_ = 0;

  // Stats (guarded by mutex_ except the histograms, which are atomic).
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t size_flushes_ = 0;
  std::uint64_t deadline_flushes_ = 0;
  std::uint64_t drain_flushes_ = 0;
  std::uint64_t deadline_expired_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t shed_low_ = 0;
  std::uint64_t watchdog_batches_ = 0;
  std::int64_t max_batch_observed_ = 0;
  double batch_seconds_sum_ = 0.0;
  obs::Histogram latency_;        // request sojourn
  obs::Histogram batch_forward_;  // per-batch engine time

  Tensor batch_;  // pooled gather buffer [B, C, H, W]
  const Stopwatch epoch_;

  // Declared last so the engine/watchdog threads are joined (pool
  // destructors) before any member they touch is destroyed; stop() makes
  // this explicit anyway. watchdog_ is null when watchdog_s == 0.
  ThreadPool engine_{1};
  std::unique_ptr<ThreadPool> watchdog_;
};

}  // namespace zkg::serve
