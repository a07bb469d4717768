#include "common/parallel.hpp"

#include <atomic>

#include "common/threadpool.hpp"
#include "obs/telemetry.hpp"

namespace zkg {
namespace {

std::atomic<int> g_serial_depth{0};

}  // namespace

SerialScope::SerialScope() {
  g_serial_depth.fetch_add(1, std::memory_order_relaxed);
}
SerialScope::~SerialScope() {
  g_serial_depth.fetch_sub(1, std::memory_order_relaxed);
}
bool SerialScope::active() {
  return g_serial_depth.load(std::memory_order_relaxed) > 0;
}

const char* parallel_backend_name() { return "threadpool"; }

unsigned parallel_threads() { return ThreadPool::shared().size(); }

void parallel_for(std::int64_t count,
                  const std::function<void(std::int64_t, std::int64_t)>& body) {
  parallel_for(count, 1, body);
}

void parallel_for(std::int64_t count, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& body) {
  if (count <= 0) return;
  if (obs::enabled()) {
    // One-time: publish the worker count at export time, not per call.
    [[maybe_unused]] static const bool gauge_registered = [] {
      obs::Telemetry::global().add_gauge_provider([](obs::Telemetry& t) {
        t.gauge("parallel.threads")
            .set(static_cast<double>(parallel_threads()));
      });
      return true;
    }();
    ZKG_COUNT("parallel.calls", 1);
    ZKG_COUNT("parallel.items", count);
    if (SerialScope::active()) ZKG_COUNT("parallel.serial_calls", 1);
  }
  if (SerialScope::active()) {
    body(0, count);
    return;
  }
  ThreadPool::shared().parallel_for(count, grain, body);
}

}  // namespace zkg
