// Stress tests for the ThreadPool and the unified zkg::parallel_for layer:
// concurrent callers, nested calls (the pre-fix deadlock shape), exception
// propagation, edge-case ranges, the ZKG_THREADS override, and bit-exact
// agreement between parallel (including nested) and serial kernel results.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "nn/conv2d.hpp"
#include "tensor/linalg.hpp"
#include "tensor/random.hpp"

namespace zkg {
namespace {

TEST(ThreadPoolStress, ConcurrentParallelForFromManyThreads) {
  // Pre-fix, parallel_for waited on the pool-global in_flight_ counter, so
  // concurrent callers waited on each other's work (and could miss newly
  // submitted chunks). Per-call jobs make each caller independent.
  ThreadPool pool(4);
  constexpr int kCallers = 8;
  constexpr std::int64_t kCount = 1000;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kCount);

  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&pool, &hits, t] {
      for (int repeat = 0; repeat < 10; ++repeat) {
        pool.parallel_for(kCount, [&hits, t](std::int64_t begin,
                                             std::int64_t end) {
          for (std::int64_t i = begin; i < end; ++i) {
            hits[t][static_cast<std::size_t>(i)].fetch_add(1);
          }
        });
      }
    });
  }
  for (auto& c : callers) c.join();
  for (const auto& caller_hits : hits) {
    for (const auto& h : caller_hits) EXPECT_EQ(h.load(), 10);
  }
}

TEST(ThreadPoolStress, NestedParallelForCompletes) {
  // Pre-fix, a parallel_for issued from inside a worker deadlocked: the
  // worker waited for in_flight_ == 0 while itself counting as in-flight.
  ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  pool.parallel_for(8, [&pool, &total](std::int64_t begin, std::int64_t end) {
    for (std::int64_t outer = begin; outer < end; ++outer) {
      pool.parallel_for(64, [&total](std::int64_t b, std::int64_t e) {
        total.fetch_add(e - b);
      });
    }
  });
  EXPECT_EQ(total.load(), 8 * 64);
}

TEST(ThreadPoolStress, ConcurrentNestedParallelFor) {
  // The full pre-fix deadlock shape: several external callers, each of
  // whose chunks issues a nested parallel_for on the same pool.
  ThreadPool pool(3);
  constexpr int kCallers = 6;
  std::atomic<std::int64_t> total{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&pool, &total] {
      pool.parallel_for(4, [&pool, &total](std::int64_t begin,
                                           std::int64_t end) {
        for (std::int64_t outer = begin; outer < end; ++outer) {
          pool.parallel_for(32, [&total](std::int64_t b, std::int64_t e) {
            total.fetch_add(e - b);
          });
        }
      });
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(total.load(), kCallers * 4 * 32);
}

TEST(ThreadPoolStress, ParallelForRethrowsTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::int64_t begin, std::int64_t end) {
                          for (std::int64_t i = begin; i < end; ++i) {
                            if (i == 57) throw std::runtime_error("boom at 57");
                          }
                        }),
      std::runtime_error);

  // The pool stays usable after a failed call.
  std::atomic<std::int64_t> total{0};
  pool.parallel_for(100, [&total](std::int64_t b, std::int64_t e) {
    total.fetch_add(e - b);
  });
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPoolStress, SubmittedTaskExceptionRethrownFromWaitIdle) {
  // Pre-fix, a throwing task escaped worker_loop straight into
  // std::terminate and leaked the in_flight_ count.
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([] { throw std::runtime_error("task failed"); });
  for (int i = 0; i < 8; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(ran.load(), 8);
  // The error is consumed: a second wait_idle succeeds.
  EXPECT_NO_THROW(pool.wait_idle());
}

TEST(ThreadPoolStress, EmptyAndSingleElementRanges) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::int64_t, std::int64_t) { ++calls; });
  pool.parallel_for(-5, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);

  std::atomic<std::int64_t> total{0};
  pool.parallel_for(1, [&total](std::int64_t b, std::int64_t e) {
    total.fetch_add(e - b);
  });
  EXPECT_EQ(total.load(), 1);
}

TEST(ThreadPoolStress, GrainBoundsChunkSize) {
  ThreadPool pool(8);
  std::atomic<int> chunks{0};
  std::atomic<std::int64_t> smallest{1 << 30};
  pool.parallel_for(100, 40, [&](std::int64_t b, std::int64_t e) {
    chunks.fetch_add(1);
    std::int64_t len = e - b;
    std::int64_t seen = smallest.load();
    while (len < seen && !smallest.compare_exchange_weak(seen, len)) {
    }
  });
  // ceil(100 / 40) = 3 chunks at most; every chunk but the last >= 40.
  EXPECT_LE(chunks.load(), 3);
  EXPECT_GE(smallest.load(), 100 % 40);
}

TEST(ThreadPoolStress, ZkgThreadsEnvOverridesDefaultSize) {
  ::setenv("ZKG_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3u);
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 3u);
  ::setenv("ZKG_THREADS", "not-a-number", 1);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
  ::unsetenv("ZKG_THREADS");
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

TEST(ParallelFor, FreeFunctionCoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(257, [&hits](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, FreeFunctionNestedAndThrowing) {
  std::atomic<std::int64_t> total{0};
  parallel_for(4, [&total](std::int64_t begin, std::int64_t end) {
    for (std::int64_t outer = begin; outer < end; ++outer) {
      parallel_for(16, [&total](std::int64_t b, std::int64_t e) {
        total.fetch_add(e - b);
      });
    }
  });
  EXPECT_EQ(total.load(), 4 * 16);

  EXPECT_THROW(parallel_for(64,
                            [](std::int64_t, std::int64_t) {
                              throw std::runtime_error("chunk failed");
                            }),
               std::runtime_error);
}

TEST(ParallelFor, BackendIsReported) {
  EXPECT_STREQ(parallel_backend_name(), "threadpool");
  EXPECT_EQ(parallel_threads(), ThreadPool::shared().size());
  EXPECT_GE(parallel_threads(), 1u);
}

TEST(ParallelFor, SerialScopeForcesInlineExecution) {
  EXPECT_FALSE(SerialScope::active());
  {
    SerialScope serial;
    EXPECT_TRUE(SerialScope::active());
    int calls = 0;
    std::thread::id body_thread;
    parallel_for(1000, [&](std::int64_t begin, std::int64_t end) {
      ++calls;
      body_thread = std::this_thread::get_id();
      EXPECT_EQ(begin, 0);
      EXPECT_EQ(end, 1000);
    });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(body_thread, std::this_thread::get_id());
  }
  EXPECT_FALSE(SerialScope::active());
}

TEST(ParallelKernels, MatmulBitIdenticalToSerial) {
  Rng rng(7);
  const Tensor a = randn({33, 47}, rng);
  const Tensor b = randn({47, 29}, rng);
  Tensor parallel;
  matmul_into(parallel, a, b);
  Tensor serial;
  {
    SerialScope scope;
    matmul_into(serial, a, b);
  }
  ASSERT_EQ(parallel.shape(), serial.shape());
  EXPECT_EQ(std::memcmp(parallel.data(), serial.data(),
                        sizeof(float) * static_cast<std::size_t>(parallel.numel())),
            0);
}

TEST(ParallelKernels, MatmulVariantsBitIdenticalToSerial) {
  Rng rng(11);
  const Tensor a = randn({21, 35}, rng);
  const Tensor b = randn({18, 35}, rng);   // for nt: [m,k] x [n,k]^T
  const Tensor c = randn({35, 21}, rng);   // for tn: [k,m]^T x [k,n]
  const Tensor d = randn({35, 13}, rng);
  Tensor nt_par, tn_par;
  matmul_nt_into(nt_par, a, b);
  matmul_tn_into(tn_par, c, d);
  Tensor nt_ser, tn_ser;
  {
    SerialScope scope;
    matmul_nt_into(nt_ser, a, b);
    matmul_tn_into(tn_ser, c, d);
  }
  EXPECT_EQ(nt_par.storage(), nt_ser.storage());
  EXPECT_EQ(tn_par.storage(), tn_ser.storage());
}

// Kernel calls nested inside an outer parallel_for run in parallel too:
// every outer chunk's matmul fans its row blocks out over the same pool,
// so workers interleave GEMMs on different operands through their
// per-thread packing scratch. Each product must still match the serial
// result bit for bit.
TEST(ParallelKernels, NestedMatmulBitIdenticalToSerial) {
  Rng rng(17);
  constexpr std::size_t kOuter = 8;
  // 200 rows span several 96-row blocks; depth 300 spans two KC blocks.
  std::vector<Tensor> lhs;
  for (std::size_t i = 0; i < kOuter; ++i) {
    lhs.push_back(randn({200, 300}, rng));
  }
  const Tensor rhs = randn({300, 40}, rng);
  std::vector<Tensor> parallel(kOuter);
  parallel_for(static_cast<std::int64_t>(kOuter),
               [&](std::int64_t begin, std::int64_t end) {
                 for (std::int64_t i = begin; i < end; ++i) {
                   const auto idx = static_cast<std::size_t>(i);
                   matmul_into(parallel[idx], lhs[idx], rhs);
                 }
               });
  const SerialScope scope;
  Tensor serial;
  for (std::size_t i = 0; i < kOuter; ++i) {
    matmul_into(serial, lhs[i], rhs);
    EXPECT_EQ(parallel[i].storage(), serial.storage()) << "outer item " << i;
  }
}

// Conv forward, dX, dW and db: parallel over images, depth blocks and
// output channels, each bit-identical to the serial run. B*S = 5*99 spans
// two 256-row dW blocks, the second one ragged.
TEST(ParallelKernels, ConvBitIdenticalToSerial) {
  Rng rng(13);
  const nn::Conv2dConfig cfg{.in_channels = 3, .out_channels = 8,
                             .kernel = 3, .stride = 1, .padding = 1};
  nn::Conv2d conv(cfg, rng);
  const Tensor x = randn({5, 3, 11, 9}, rng);
  const Tensor grad_y = randn({5, 8, 11, 9}, rng);
  struct Pass {
    Tensor y, grad_x, grad_w, grad_b;
  };
  const auto run = [&] {
    Pass pass;
    conv.zero_grad();
    conv.forward_into(x, pass.y, /*training=*/true);
    conv.backward_into(grad_y, pass.grad_x);
    pass.grad_w = conv.weight().grad();
    pass.grad_b = conv.bias().grad();
    return pass;
  };
  const Pass parallel = run();
  Pass serial;
  {
    SerialScope scope;
    serial = run();
  }
  EXPECT_EQ(parallel.y.storage(), serial.y.storage());
  EXPECT_EQ(parallel.grad_x.storage(), serial.grad_x.storage());
  EXPECT_EQ(parallel.grad_w.storage(), serial.grad_w.storage());
  EXPECT_EQ(parallel.grad_b.storage(), serial.grad_b.storage());
}

}  // namespace
}  // namespace zkg
