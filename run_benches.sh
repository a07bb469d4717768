#!/bin/sh
# Regenerates every paper table/figure — `paper <experiment>` for each name
# that `paper --list` prints — then runs the kernel micro-benchmarks and the
# serving bench.
#
# Usage:
#   ./run_benches.sh                 # plain run, human-readable output only
#   ./run_benches.sh --trace <dir>   # additionally write one telemetry
#                                    # trace (<dir>/<run>.jsonl) per run,
#                                    # plus <dir>/<run>.train.jsonl with
#                                    # per-epoch records where the run
#                                    # trains models (DESIGN.md §9)
#   ./run_benches.sh --serve         # serving mode: run only bench_serve
#                                    # (micro-batched vs batch-1 serial vs
#                                    # overload load-shedding) and write the
#                                    # latency/throughput report to
#                                    # BENCH_serve.json (DESIGN.md §14);
#                                    # knobs: ZKG_SERVE_SECONDS / _CLIENTS /
#                                    # _BATCH / _DELAY_US / _STRICT
#
# Kernel parallelism: every binary runs zkg::parallel_for on the in-tree
# thread pool. ZKG_THREADS=<n> overrides the worker count, e.g.
# `ZKG_THREADS=8 ./run_benches.sh`.
# Every paper experiment trains through eval::run_sweep. ZKG_JOBS=<n>
# runs the Table III/IV and Figure 5 (left/middle) cells as n concurrent
# training jobs (bit-identical rows). Figure 5 (right) and the ablations
# run their cells serially.
#
# Kernel backend: ZKG_BACKEND=scalar|avx2|avx512|auto selects the compute
# backend (DESIGN.md §13); default auto picks AVX-512, then AVX2, when the
# CPU supports it.
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
if [ "$1" = "--serve" ]; then
  echo "### build/bench/bench_serve"
  ZKG_BENCH_JSON="BENCH_serve.json" build/bench/bench_serve || exit 1
  echo ""
  echo "serving report: BENCH_serve.json"
  echo "ALL BENCHES COMPLETE"
  exit 0
elif [ "$1" = "--trace" ]; then
  if [ -z "$2" ]; then
    echo "usage: $0 [--trace <dir> | --serve]" >&2
    exit 2
  fi
  TRACE_DIR="$2"
  mkdir -p "$TRACE_DIR"
fi

# run <label> <command...>: one bench run; <label> names its trace files.
# A failed run is reported at the end, after the remaining runs.
failed=""
run() {
  label="$1"
  shift
  echo "### $*"
  if [ -n "$TRACE_DIR" ]; then
    ZKG_TRACE="$TRACE_DIR/$label.jsonl" \
      ZKG_BENCH_JSON="$TRACE_DIR/$label.train.jsonl" \
      "$@" || failed="$failed $label"
  else
    "$@" || failed="$failed $label"
  fi
  echo ""
}

experiments=$(build/bench/paper --list) || exit 1
for name in $experiments; do
  run "$name" build/bench/paper "$name"
done
run bench_kernels build/bench/bench_kernels
run bench_serve build/bench/bench_serve
if [ -n "$TRACE_DIR" ]; then
  echo "telemetry traces written to $TRACE_DIR/"
elif [ -f "BENCH_kernels.json" ]; then
  echo "kernel roofline report: BENCH_kernels.json"
fi
if [ -n "$failed" ]; then
  echo "FAILED:$failed" >&2
  exit 1
fi
echo "ALL BENCHES COMPLETE"
