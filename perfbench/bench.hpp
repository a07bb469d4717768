// Shared types of the benchmark program: command-line arguments, the result
// record printed as the last line of output, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;  // directory the training workloads checkpoint into
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One run's verdict and figures. With trace off the metrics are the
/// end-to-end set; with trace on they are the per-layer set.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> report;  // human-readable lines printed first

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(const std::string& why) {
    correct = false;
    report.push_back("CHECK FAILED: " + why);
  }
};

/// A run is kSessions sessions of equal length. Every session sets up from
/// scratch (fresh data, model, threads and buffers) and then measures.
inline constexpr int kSessions = 10;

/// Time of main() entry: the origin of the first set-up.
Clock::time_point process_start();

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);

/// What a run reports for a figure measured once per session: the second
/// lowest of `values` (second highest when `higher_is_better`); the only
/// value when there is one, 0 when empty. Every session runs the same work
/// from the same seed, so a cost of the program shows in every session,
/// while the host (CPU steal, a busy neighbour, thread placement) only adds
/// time, and only to some sessions. The best session alone would let one
/// lucky session set the run.
double second_best(std::vector<double> values, bool higher_is_better);

/// Peak resident set size of this process so far, from getrusage.
double peak_rss_mb();

/// One timed operation: a training step or a served request.
struct Event {
  double latency_s = 0.0;
  bool ok = true;  // a failed operation counts in latency, not in rate
};

/// Rate and latency of a run: each session's rate, p50 and p90, then the
/// second_best() of each over the sessions. A session of fewer than ten events
/// (PGD-Adv steps) has its slowest event as its p90.
struct Figures {
  double rate = 0.0;  // successful events per second
  double p50_s = 0.0;
  double p90_s = 0.0;
  std::vector<std::string> lines;  // one report line per session
};

/// `events[i]` and `seconds[i]` are session i's events and measured length.
Figures summarize(const std::vector<std::vector<Event>>& events,
                  const std::vector<double>& seconds);

Result run_train(const Args& args);
Result run_serve(const Args& args);

}  // namespace perfbench
