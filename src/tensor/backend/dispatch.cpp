// Runtime backend selection: CPUID probe + ZKG_BACKEND env override.
//
// The active backend is resolved exactly once, on the first kernel call
// (lazily, so the env override works however early or late the first
// tensor op runs), then every linalg/ops entry point reads one atomic
// pointer. BackendScope swaps that pointer for tests and benches that
// compare backends inside a single process.
#include <atomic>
#include <mutex>

#include "common/env.hpp"
#include "common/lockrank.hpp"
#include "common/error.hpp"
#include "tensor/backend/backend.hpp"

namespace zkg::backend {
namespace {

std::atomic<const KernelBackend*> g_active{nullptr};

}  // namespace

const KernelBackend& active() {
  const KernelBackend* backend = g_active.load(std::memory_order_acquire);
  if (backend == nullptr) {
    // First call in the process: resolve once under a lock so concurrent
    // first calls agree, then publish.
    static debug::Mutex<debug::LockRank::kBackendResolve> resolve_mutex;
    const std::lock_guard lock(resolve_mutex);
    backend = g_active.load(std::memory_order_acquire);
    if (backend == nullptr) {
      backend = &resolve(env_or("ZKG_BACKEND", "auto"));
      g_active.store(backend, std::memory_order_release);
    }
  }
  return *backend;
}

const KernelBackend& resolve(const std::string& choice) {
  if (choice == "auto") {
    if (const KernelBackend* avx512 = avx512_backend_if_supported()) {
      return *avx512;
    }
    const KernelBackend* avx2 = avx2_backend_if_supported();
    return avx2 != nullptr ? *avx2 : scalar_backend();
  }
  const KernelBackend* named = find(choice);
  if (named == nullptr) {
    throw ConfigError(
        "ZKG_BACKEND=" + choice +
        ": unknown or unsupported kernel backend on this CPU (valid: "
        "scalar, avx2 on AVX2+FMA hardware, avx512 on AVX-512F hardware, "
        "auto)");
  }
  return *named;
}

const char* active_name() { return active().name; }

const KernelBackend* find(const std::string& name) {
  if (name == "scalar") return &scalar_backend();
  if (name == "avx2") return avx2_backend_if_supported();
  if (name == "avx512") return avx512_backend_if_supported();
  return nullptr;
}

BackendScope::BackendScope(const KernelBackend& backend) {
  previous_ = &active();  // force resolution so the restore is well-defined
  g_active.store(&backend, std::memory_order_release);
}

BackendScope::~BackendScope() {
  g_active.store(previous_, std::memory_order_release);
}

}  // namespace zkg::backend
