#!/bin/sh
# Regenerates every paper table/figure: one binary per experiment.
#
# Usage:
#   ./run_benches.sh                 # plain run, human-readable output only
#   ./run_benches.sh --trace <dir>   # additionally write one telemetry
#                                    # trace (<dir>/<bench>.jsonl) per bench,
#                                    # plus <dir>/<bench>.train.jsonl with
#                                    # per-epoch records where the bench
#                                    # trains models (DESIGN.md §9)
#   ./run_benches.sh --serve         # serving mode: run only bench_serve
#                                    # (micro-batched vs batch-1 serial vs
#                                    # overload load-shedding) and write the
#                                    # latency/throughput report to
#                                    # BENCH_serve.json (DESIGN.md §14);
#                                    # knobs: ZKG_SERVE_SECONDS / _CLIENTS /
#                                    # _BATCH / _DELAY_US / _STRICT
#   ./run_benches.sh --jobs <n>      # sweep mode: run only bench_sweep,
#                                    # which trains its cells serially and
#                                    # then as n concurrent scheduler jobs,
#                                    # checks the weights match bitwise and
#                                    # records the perf trajectory (epoch
#                                    # wall-clock, batches/sec, pool hit/miss
#                                    # counters, serial-vs-parallel speedup)
#                                    # to BENCH_sweep.json (DESIGN.md §12)
#
# Kernel parallelism: every binary runs zkg::parallel_for on the in-tree
# thread pool. ZKG_THREADS=<n> overrides the worker count, e.g.
# `ZKG_THREADS=8 ./run_benches.sh`.
# Every table/figure driver trains through eval::run_sweep. ZKG_JOBS=<n>
# runs the Table III/IV and Figure 5 (left/middle) cells as n concurrent
# training jobs (bit-identical rows; a sweep refuses ZKG_CKPT_DIR when
# n != 1). Figure 5 (right) and the ablations run their cells serially.
#
# Kernel backend: ZKG_BACKEND=scalar|avx2|auto selects the compute backend
# (DESIGN.md §13); default auto picks AVX2 when the CPU supports it.
# bench_kernels prints a per-kernel serial/parallel/SIMD roofline report
# (GFLOP/s, GB/s, arithmetic intensity) on startup and writes it to
# BENCH_kernels.json (ZKG_BENCH_JSON overrides the path; in --trace mode
# it lands in <dir>/bench_kernels.train.jsonl).
#
# To run the threadpool stress tests under ThreadSanitizer:
#   cmake -B build-tsan -S . -DZKG_SANITIZE=thread
#   cmake --build build-tsan -j
#   ctest --test-dir build-tsan -R test_threadpool --output-on-failure
TRACE_DIR=""
SWEEP_JOBS=""
if [ "$1" = "--serve" ]; then
  echo "### build/bench/bench_serve"
  ZKG_BENCH_JSON="BENCH_serve.json" build/bench/bench_serve || exit 1
  echo ""
  echo "serving report: BENCH_serve.json"
  echo "ALL BENCHES COMPLETE"
  exit 0
elif [ "$1" = "--trace" ]; then
  if [ -z "$2" ]; then
    echo "usage: $0 [--trace <dir>] [--jobs <n>]" >&2
    exit 2
  fi
  TRACE_DIR="$2"
  mkdir -p "$TRACE_DIR"
elif [ "$1" = "--jobs" ]; then
  if [ -z "$2" ]; then
    echo "usage: $0 [--trace <dir>] [--jobs <n>]" >&2
    exit 2
  fi
  SWEEP_JOBS="$2"
fi

if [ -n "$SWEEP_JOBS" ]; then
  echo "### build/bench/bench_sweep (jobs=$SWEEP_JOBS)"
  ZKG_JOBS="$SWEEP_JOBS" ZKG_BENCH_JSON="BENCH_sweep.json" \
    build/bench/bench_sweep || exit 1
  echo ""
  echo "perf trajectory: BENCH_sweep.json"
  echo "ALL BENCHES COMPLETE"
  exit 0
fi

for b in build/bench/*; do
  if [ -x "$b" ] && [ -f "$b" ]; then
    echo "### $b"
    if [ -n "$TRACE_DIR" ]; then
      name=$(basename "$b")
      ZKG_TRACE="$TRACE_DIR/$name.jsonl" \
        ZKG_BENCH_JSON="$TRACE_DIR/$name.train.jsonl" \
        "$b"
    else
      "$b"
    fi
    echo ""
  fi
done
if [ -n "$TRACE_DIR" ]; then
  echo "telemetry traces written to $TRACE_DIR/"
elif [ -f "BENCH_kernels.json" ]; then
  echo "kernel roofline report: BENCH_kernels.json"
fi
echo "ALL BENCHES COMPLETE"
