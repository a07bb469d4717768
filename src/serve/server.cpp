#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

#include "common/failpoint.hpp"
#include "common/logging.hpp"
#include "obs/telemetry.hpp"
#include "tensor/pool.hpp"

namespace zkg::serve {

void ServeConfig::validate() const {
  const auto fail = [](const std::string& what) {
    throw ConfigError("serve::ServeConfig: " + what);
  };
  if (max_batch < 1) fail("max_batch must be >= 1");
  if (!std::isfinite(max_delay_s) || max_delay_s < 0.0) {
    fail("max_delay_s must be finite and >= 0");
  }
  if (max_queue < 1) fail("max_queue must be >= 1");
  if (!std::isfinite(watchdog_s) || watchdog_s < 0.0) {
    fail("watchdog_s must be finite and >= 0");
  }
}

bool RequestHandle::cancel() {
  if (server_ == nullptr || state_ == nullptr) return false;
  return server_->cancel(state_);
}

InferenceServer::InferenceServer(models::Classifier& model, ServeConfig config,
                                 models::Discriminator* alarm)
    : model_(model), config_(config), session_(model, alarm) {
  config_.validate();
  engine_.submit([this] { engine_loop(); });
  if (config_.watchdog_s > 0.0) {
    watchdog_ = std::make_unique<ThreadPool>(1);
    watchdog_->submit([this] { watchdog_loop(); });
  }
}

InferenceServer::~InferenceServer() {
  // Destructors are implicitly noexcept; letting a failed drain escape
  // (engine_.wait_idle rethrows a crashed engine task) would terminate the
  // process during ordinary teardown. Log and swallow instead — the engine
  // error already surfaced to the requests it failed.
  try {
    stop();
  } catch (const std::exception& error) {
    log::error() << "serve: exception during shutdown drain: "
                 << error.what();
  } catch (...) {
    log::error() << "serve: unknown exception during shutdown drain";
  }
}

RequestHandle InferenceServer::submit(const Tensor& image,
                                      const SubmitOptions& options) {
  const models::InputSpec& spec = model_.spec();
  const bool chw = image.ndim() == 3 && image.dim(0) == spec.channels &&
                   image.dim(1) == spec.height && image.dim(2) == spec.width;
  const bool nchw = image.ndim() == 4 && image.dim(0) == 1 &&
                    image.dim(1) == spec.channels &&
                    image.dim(2) == spec.height && image.dim(3) == spec.width;
  ZKG_CHECK(chw || nchw)
      << " serve: request shape " << shape_to_string(image.shape())
      << " does not match model input [" << spec.channels << ", "
      << spec.height << ", " << spec.width << "]";
  ZKG_CHECK(std::isfinite(options.deadline_s) && options.deadline_s >= 0.0)
      << " serve: deadline_s must be finite and >= 0, got "
      << options.deadline_s;

  // Front-door fault surface; fires before any state is created, so an
  // injected throw can never strand a future.
  ZKG_FAILPOINT("serve.submit");
  // Error-return policy simulates an admission failure without needing the
  // queue to actually fill (evaluated outside the lock: a delay policy
  // here must only stall this caller).
  const bool inject_reject = fail::should_fail("serve.admit");

  Request request;
  request.image = image;  // copied: the caller may reuse its tensor
  request.state = std::make_shared<detail::RequestState>();
  request.priority = options.priority;
  std::shared_ptr<detail::RequestState> state = request.state;
  std::future<Prediction> future = state->promise.get_future();
  {
    std::lock_guard lock(mutex_);
    if (stopping_) {
      throw ShutDown("serve: submit after stop(); the server is draining");
    }
    const auto depth = static_cast<std::int64_t>(queue_.size());
    if (inject_reject) {
      ++rejected_;
      ZKG_COUNT("serve.rejected", 1);
      throw Overloaded("serve: overloaded — injected admission failure "
                       "(failpoint serve.admit)",
                       depth);
    }
    if (depth >= config_.max_queue) {
      // Full queue: a normal request may still get in by evicting the
      // newest queued low-priority request; a low request never evicts.
      auto victim = queue_.end();
      if (options.priority == Priority::kNormal) {
        for (auto it = queue_.rbegin(); it != queue_.rend(); ++it) {
          if (it->priority == Priority::kLow) {
            victim = std::prev(it.base());
            break;
          }
        }
      }
      if (victim == queue_.end()) {
        ++rejected_;
        ZKG_COUNT("serve.rejected", 1);
        std::ostringstream what;
        what << "serve: overloaded — " << depth
             << " requests queued (max_queue " << config_.max_queue << ")";
        throw Overloaded(what.str(), depth);
      }
      if (victim->state->try_claim()) {
        std::ostringstream what;
        what << "serve: shed — low-priority request evicted by "
                "normal-priority admission at depth "
             << depth;
        victim->state->promise.set_exception(
            std::make_exception_ptr(Overloaded(what.str(), depth)));
        ++shed_low_;
        ++completed_;
        ZKG_COUNT("serve.shed_low", 1);
      }
      queue_.erase(victim);
    }
    request.enqueue_s = epoch_.seconds();
    if (options.deadline_s > 0.0) {
      request.deadline_s = request.enqueue_s + options.deadline_s;
    }
    state->id = next_id_++;
    queue_.push_back(std::move(request));
    ++accepted_;
  }
  ZKG_COUNT("serve.accepted", 1);
  cv_.notify_all();
  return RequestHandle(this, std::move(state), std::move(future));
}

bool InferenceServer::cancel(
    const std::shared_ptr<detail::RequestState>& state) {
  {
    std::lock_guard lock(mutex_);
    // Dispatched or already completed (scatter, deadline, shed, watchdog):
    // too late to cancel.
    if (state->dispatched || state->claimed.load()) return false;
    // Invariant: un-dispatched and unclaimed => still in the queue.
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->state == state) {
        queue_.erase(it);
        break;
      }
    }
    if (!state->try_claim()) return false;
    ++cancelled_;
    ++completed_;
    ZKG_COUNT("serve.cancelled", 1);
    state->promise.set_exception(std::make_exception_ptr(
        Cancelled("serve: request cancelled by caller")));
  }
  return true;
}

void InferenceServer::expire_deadlines_locked() {
  const double now = epoch_.seconds();
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->deadline_s > 0.0 && it->deadline_s <= now &&
        it->state->try_claim()) {
      std::ostringstream what;
      what << "serve: deadline exceeded after "
           << (now - it->enqueue_s) * 1e3 << " ms in queue";
      it->state->promise.set_exception(
          std::make_exception_ptr(DeadlineExceeded(what.str())));
      ++deadline_expired_;
      ++completed_;
      ZKG_COUNT("serve.deadline_expired", 1);
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

double InferenceServer::nearest_deadline_locked() const {
  double nearest = 0.0;
  for (const Request& request : queue_) {
    if (request.deadline_s <= 0.0) continue;
    if (nearest == 0.0 || request.deadline_s < nearest) {
      nearest = request.deadline_s;
    }
  }
  return nearest;
}

void InferenceServer::engine_loop() {
  std::vector<Request> taken;
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] {
      return stopping_ || (!queue_.empty() && !paused_);
    });
    if (stopping_ && queue_.empty()) break;

    FlushKind kind = FlushKind::kDrain;
    if (!stopping_) {
      // Deadline batching: sleep until the batch fills, the oldest queued
      // request's flush deadline expires, the nearest per-request deadline
      // needs expiring, or a stop/pause intervenes.
      bool full = false;
      for (;;) {
        if (stopping_ || paused_) break;
        expire_deadlines_locked();
        if (queue_.empty()) break;
        if (static_cast<std::int64_t>(queue_.size()) >= config_.max_batch) {
          full = true;
          break;
        }
        const double now = epoch_.seconds();
        const double flush_at = queue_.front().enqueue_s + config_.max_delay_s;
        if (flush_at - now <= 0.0) break;
        double wake = flush_at;
        const double nearest = nearest_deadline_locked();
        if (nearest > 0.0) wake = std::min(wake, nearest);
        const double remaining = wake - now;
        if (remaining <= 0.0) continue;  // a deadline just passed: expire it
        cv_.wait_for(lock, std::chrono::duration<double>(remaining));
      }
      if (paused_ && !stopping_) continue;  // hold the queue until resume()
      kind = stopping_ ? FlushKind::kDrain
                       : (full ? FlushKind::kSize : FlushKind::kDeadline);
    } else {
      // Draining: a queued request whose deadline already passed still
      // gets its typed error rather than a late result.
      expire_deadlines_locked();
    }
    if (queue_.empty()) continue;

    const std::size_t take = std::min(
        queue_.size(), static_cast<std::size_t>(config_.max_batch));
    taken.clear();
    for (std::size_t i = 0; i < take; ++i) {
      queue_.front().state->dispatched = true;
      taken.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    // Publish the in-flight batch for the watchdog before releasing the
    // lock: from here until run_batch returns, these futures are its
    // responsibility if the forward wedges.
    inflight_.clear();
    for (const Request& request : taken) inflight_.push_back(request.state);
    inflight_start_s_ = epoch_.seconds();
    ++inflight_epoch_;
    cv_.notify_all();
    lock.unlock();
    run_batch(taken, kind);
    taken.clear();
    lock.lock();
    inflight_.clear();
    ++inflight_epoch_;
    cv_.notify_all();
  }
  engine_done_ = true;
  cv_.notify_all();
}

void InferenceServer::watchdog_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] {
      return (stopping_ && engine_done_) || !inflight_.empty();
    });
    if (inflight_.empty()) {
      if (stopping_ && engine_done_) break;
      continue;
    }
    const std::uint64_t epoch = inflight_epoch_;
    const double deadline = inflight_start_s_ + config_.watchdog_s;
    bool expired = false;
    while (!inflight_.empty() && inflight_epoch_ == epoch) {
      const double remaining = deadline - epoch_.seconds();
      if (remaining <= 0.0) {
        expired = true;
        break;
      }
      cv_.wait_for(lock, std::chrono::duration<double>(remaining));
    }
    if (!expired || inflight_.empty() || inflight_epoch_ != epoch) continue;
    // The forward outlived its budget: take over the batch's futures. The
    // engine's eventual scatter loses every claim race and discards its
    // results; the engine thread itself keeps serving.
    std::vector<std::shared_ptr<detail::RequestState>> stuck;
    stuck.swap(inflight_);
    // Claim and count while still holding the lock so a caller that has
    // just observed WatchdogTimeout finds the failure already in stats();
    // the promises themselves are fulfilled after unlocking.
    std::vector<char> ours(stuck.size(), 0);
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < stuck.size(); ++i) {
      ours[i] = stuck[i]->try_claim() ? 1 : 0;
      failed += ours[i];
    }
    if (failed > 0) {
      ++watchdog_batches_;
      completed_ += failed;
    }
    lock.unlock();
    std::ostringstream what;
    what << "serve: watchdog — batch forward exceeded "
         << config_.watchdog_s * 1e3 << " ms";
    const auto error =
        std::make_exception_ptr(WatchdogTimeout(what.str()));
    for (std::size_t i = 0; i < stuck.size(); ++i) {
      if (ours[i] != 0) stuck[i]->promise.set_exception(error);
    }
    log::warn() << what.str() << " (" << failed << " requests failed)";
    ZKG_COUNT("serve.watchdog_batches", 1);
    lock.lock();
  }
}

void InferenceServer::run_batch(std::vector<Request>& taken, FlushKind kind) {
  ZKG_SPAN("serve.batch");
  const Stopwatch batch_watch;
  const auto batch = static_cast<std::int64_t>(taken.size());
  const models::InputSpec& spec = model_.spec();
  const std::int64_t pixels = spec.pixels();
  const std::vector<std::int64_t>* labels = nullptr;
  const Tensor* scores = nullptr;
  std::exception_ptr error;
  try {
    // Gather: one pooled [B, C, H, W] tensor, rows in arrival order.
    ensure_shape(batch_, spec.batch_shape(batch));
    for (std::int64_t i = 0; i < batch; ++i) {
      std::copy_n(taken[static_cast<std::size_t>(i)].image.data(), pixels,
                  batch_.data() + i * pixels);
    }
    // Fault surface for the chaos suite: a throw here fails the whole
    // batch (every future gets the error), a delay simulates the stuck
    // forward the watchdog exists for.
    ZKG_FAILPOINT("serve.batch_forward");
    // One forward for the whole batch; alarm head reuses its logits.
    labels = &session_.predict(batch_);
    if (session_.has_alarm()) scores = &session_.alarm_scores();
  } catch (...) {
    error = std::current_exception();
  }

  // Book-keeping BEFORE the scatter: a caller that has just observed a
  // completed future must find this batch already counted in stats().
  const double batch_seconds = batch_watch.seconds();
  {
    std::lock_guard lock(mutex_);
    ++batches_;
    batch_seconds_sum_ += batch_seconds;
    max_batch_observed_ = std::max(max_batch_observed_, batch);
    switch (kind) {
      case FlushKind::kSize: ++size_flushes_; break;
      case FlushKind::kDeadline: ++deadline_flushes_; break;
      case FlushKind::kDrain: ++drain_flushes_; break;
    }
  }
  batch_forward_.record(batch_seconds);
  ZKG_HISTO("serve.batch_seconds", batch_seconds);
  ZKG_COUNT("serve.batches", 1);

  // Scatter each row's result back to its waiting caller; a failed
  // forward fails every request in the batch. Only requests whose claim
  // we win are ours to complete — the watchdog may already have failed
  // the whole batch. Claims and the completed_ counter are settled BEFORE
  // any promise is fulfilled: a caller that has just observed its future
  // must find the completion already counted in stats().
  std::vector<char> ours(static_cast<std::size_t>(batch), 0);
  std::uint64_t delivered = 0;
  for (std::int64_t i = 0; i < batch; ++i) {
    const auto index = static_cast<std::size_t>(i);
    ours[index] = taken[index].state->try_claim() ? 1 : 0;
    delivered += ours[index];
  }
  if (delivered > 0) {
    std::lock_guard lock(mutex_);
    completed_ += delivered;
  }
  const double now = epoch_.seconds();
  for (std::int64_t i = 0; i < batch; ++i) {
    const auto index = static_cast<std::size_t>(i);
    if (ours[index] == 0) continue;
    Request& request = taken[index];
    const double sojourn = now - request.enqueue_s;
    latency_.record(sojourn);
    ZKG_HISTO("serve.latency", sojourn);
    if (error) {
      request.state->promise.set_exception(error);
    } else {
      Prediction prediction;
      prediction.label = (*labels)[index];
      if (scores != nullptr) prediction.alarm_score = (*scores)[i];
      request.state->promise.set_value(prediction);
    }
  }
}

void InferenceServer::stop() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  engine_.wait_idle();
  if (watchdog_ != nullptr) {
    cv_.notify_all();
    watchdog_->wait_idle();
  }
}

void InferenceServer::pause() {
  std::lock_guard lock(mutex_);
  paused_ = true;
}

void InferenceServer::resume() {
  {
    std::lock_guard lock(mutex_);
    paused_ = false;
  }
  cv_.notify_all();
}

ServerStats InferenceServer::stats() const {
  ServerStats stats;
  {
    std::lock_guard lock(mutex_);
    stats.accepted = accepted_;
    stats.rejected = rejected_;
    stats.completed = completed_;
    stats.batches = batches_;
    stats.size_flushes = size_flushes_;
    stats.deadline_flushes = deadline_flushes_;
    stats.drain_flushes = drain_flushes_;
    stats.deadline_expired = deadline_expired_;
    stats.cancelled = cancelled_;
    stats.shed_low = shed_low_;
    stats.watchdog_batches = watchdog_batches_;
    stats.max_batch_observed = max_batch_observed_;
    stats.mean_batch_s =
        batches_ == 0 ? 0.0
                      : batch_seconds_sum_ / static_cast<double>(batches_);
  }
  stats.p50_latency_s = latency_.quantile(0.5);
  stats.p95_latency_s = latency_.quantile(0.95);
  stats.p99_latency_s = latency_.quantile(0.99);
  stats.max_latency_s = latency_.max_seconds();
  stats.elapsed_s = epoch_.seconds();
  stats.throughput_rps =
      stats.elapsed_s > 0.0
          ? static_cast<double>(stats.completed) / stats.elapsed_s
          : 0.0;
  return stats;
}

}  // namespace zkg::serve
