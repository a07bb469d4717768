// Benchmark program entry point:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir>
//
// Prints a host fingerprint, the workload's report and, as the last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}. Exits
// non-zero, without that line, on a bad argument or an exception.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "tensor/backend/backend.hpp"

namespace perfbench {
namespace {

const Clock::time_point g_process_start = Clock::now();

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fingerprint(const Args& args) {
  const char* threads = std::getenv("ZKG_THREADS");
  std::ostringstream out;
  out << "{\"cpu\": " << json_string(cpu_model())
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"zkg_threads\": " << json_string(threads ? threads : "")
      << ", \"parallel_backend\": "
      << json_string(zkg::parallel_backend_name())
      << ", \"parallel_threads\": " << zkg::parallel_threads()
      << ", \"kernel_backend\": " << json_string(zkg::backend::active_name())
      << ", \"build_type\": " << json_string(ZKG_BENCH_BUILD_TYPE)
      << ", \"workload\": " << json_string(args.workload)
      << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
      << ", \"trace\": " << (args.trace ? 1 : 0) << "}";
  return out.str();
}

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--scratch") {
      args.scratch = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && args.seconds > 0.0 &&
         !args.scratch.empty();
}

}  // namespace

Clock::time_point process_start() { return g_process_start; }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

double second_best(std::vector<double> values, bool higher_is_better) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (higher_is_better) std::reverse(values.begin(), values.end());
  return values[std::min<std::size_t>(1, values.size() - 1)];
}

Figures summarize(const std::vector<std::vector<Event>>& events,
                  const std::vector<double>& seconds) {
  Figures f;
  std::vector<double> rates, p50s, p90s;
  for (std::size_t i = 0; i < events.size(); ++i) {
    std::vector<double> latency;
    double ok = 0.0;
    for (const Event& e : events[i]) {
      latency.push_back(e.latency_s);
      if (e.ok) ok += 1.0;
    }
    rates.push_back(ok / seconds[i]);
    p50s.push_back(quantile(latency, 0.5));
    p90s.push_back(quantile(latency, 0.9));
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  session %zu: %zu events, %.2f /s, p50 %.4f ms, p90 "
                  "%.4f ms",
                  i, latency.size(), rates.back(), p50s.back() * 1e3,
                  p90s.back() * 1e3);
    f.lines.push_back(line);
  }
  f.rate = second_best(rates, true);
  f.p50_s = second_best(p50s, false);
  f.p90_s = second_best(p90s, false);
  return f;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    if (!parse_args(argc, argv, args)) {
      std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds "
                   "<s> --trace <0|1> --scratch <dir>\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: bad argument: " << e.what() << "\n";
    return 2;
  }
  Result result;
  try {
    std::cout << "fingerprint " << fingerprint(args) << "\n";
    if (args.workload.rfind("train-", 0) == 0) {
      result = run_train(args);
    } else if (args.workload.rfind("serve-", 0) == 0) {
      result = run_serve(args);
    } else {
      std::cerr << "perfbench: unknown workload " << args.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  for (const std::string& line : result.report) std::cout << line << "\n";
  std::ostringstream json;
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    json << (i ? ", " : "") << json_string(m.name)
         << ": {\"value\": " << json_number(m.value)
         << ", \"unit\": " << json_string(m.unit) << "}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
