#!/usr/bin/env python3
"""Whole-repo analysis engine driver.

    python3 tools/analyze.py                  # run all passes, console output
    python3 tools/analyze.py --json out.json --sarif out.sarif
    python3 tools/analyze.py --selftest       # engine's own regression suite

Exit status: 0 when clean, 1 when any finding survives the waiver set,
2 on selftest failure. CI runs both modes in the `analyze` job; the
`analyze` CMake target runs the engine locally.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from analysis import engine, report  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="repository root (default: this repo)")
    parser.add_argument("--json", type=Path, default=None,
                        help="write findings as JSON to this path")
    parser.add_argument("--sarif", type=Path, default=None,
                        help="write findings as SARIF 2.1.0 to this path")
    parser.add_argument("--selftest", action="store_true",
                        help="run the engine's synthetic-violation suite")
    args = parser.parse_args(argv)

    if args.selftest:
        return selftest()

    findings = engine.run(args.root)
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(report.to_json(findings), encoding="utf-8")
    if args.sarif is not None:
        args.sarif.parent.mkdir(parents=True, exist_ok=True)
        args.sarif.write_text(report.to_sarif(findings), encoding="utf-8")
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"zkg-analyze: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("zkg-analyze: clean")
    return 0


# --------------------------------------------------------------- selftest

MINI_MANIFEST = """\
[layers]
order = ["common", "obs", "tensor", "data", "attacks", "serve"]

[[waiver]]
file = "src/common/waived.cpp"
to = "obs"
reason = "synthetic waived edge"
"""

MINI_LOCKRANK_HPP = """\
#pragma once
namespace zkg::debug {
enum class LockRank : int {
  kServeQueue = 10,
  kTelemetry = 50,
};
const char* lock_rank_name(LockRank rank);
template <LockRank Rank> class RankedMutex {};
template <LockRank Rank> using Mutex = RankedMutex<Rank>;
}  // namespace zkg::debug
"""

MINI_LOCKRANK_CPP = """\
#include "common/lockrank.hpp"
namespace zkg::debug {
const char* lock_rank_name(LockRank rank) {
  switch (rank) {
    case LockRank::kServeQueue: return "ServeQueue";
    case LockRank::kTelemetry: return "Telemetry";
  }
  return "?";
}
}  // namespace zkg::debug
"""

# Each entry: (path, source, {expected rule -> expected line}).
CASES: list[tuple[str, str, dict[str, int]]] = [
    # Upward include (common -> obs) with rendered path, plus a clean
    # downward edge that must NOT fire.
    ("src/common/upward.cpp", """\
#include "obs/telemetry.hpp"
""", {"layer-upward-include": 1}),
    ("src/obs/telemetry.hpp", """\
#pragma once
#include "common/lockrank.hpp"
""", {}),
    # Waived upward edge: must stay silent (and keep the waiver fresh).
    ("src/common/waived.cpp", """\
#include "obs/telemetry.hpp"
""", {}),
    # Include cycle a <-> b.
    ("src/tensor/cyc_a.hpp", """\
#pragma once
#include "tensor/cyc_b.hpp"
""", {"layer-include-cycle": 2}),
    ("src/tensor/cyc_b.hpp", """\
#pragma once
#include "tensor/cyc_a.hpp"
""", {}),
    # String/comment immunity: the literal and the comment mention
    # std::thread and new, yet nothing may fire. The multi-line
    # `std ::\\n thread` MUST fire (regexes used to miss it).
    ("src/data/immune.cpp", """\
#include <string>
// std::thread inside a comment is fine
static const char* kMsg = "calls std::thread and new Foo()";
static const char* kRaw = R"(new Foo(); exit(1); std::mutex m;)";
void spawn() {
  auto t = std ::
      thread([] {});
  t.join();
}
""", {"parallel-primitives": 7}),
    # Blocking while holding a guard (src/data scope) + the sanctioned
    # cv.wait(lock) form that must NOT fire.
    ("src/data/blocking.cpp", """\
#include "data/queue.hpp"
void bad(Queue& q) {
  std::lock_guard lock(q.mutex());
  q.future().get();
}
void good(Queue& q) {
  std::unique_lock lock(q.mutex());
  q.cv().wait(lock, [] { return true; });
}
void also_good(Queue& q) {
  std::unique_lock lock(q.mutex());
  lock.unlock();
  q.future().get();
}
""", {"blocking-under-lock": 4}),
    # Detached thread (anywhere) + raw std::mutex outside the LockRank
    # layer.
    ("src/serve/detach.cpp", """\
#include <thread>
#include <mutex>
std::mutex g_lock;
void fire_and_forget() {
  worker().detach();
}
""", {"detached-thread": 5, "raw-mutex": 3}),
    # Stale waiver: allow() that suppresses nothing, and a live waiver
    # with no reason.
    ("src/tensor/waivers.cpp", """\
int clean_line = 0;  // zkg-lint: allow(naked-allocation) reason: synthetic
void leaky() {
  auto* p = new int[4];  // zkg-lint: allow(naked-allocation)
  delete[] p;  // zkg-lint: allow(naked-allocation) reason: paired above
}
""", {"stale-waiver": 1, "waiver-missing-reason": 3}),
    # Multi-line standalone waiver binds to the next code line.
    ("src/tensor/standalone.cpp", """\
void standalone() {
  // zkg-lint: allow(naked-allocation) reason: synthetic standalone
  // (continuation comment line)
  int* p = new int(7);
  delete p;  // zkg-lint: allow(naked-allocation) reason: paired
}
""", {}),
    # sleep-in-loop: a braced polling loop fires; the single computed
    # sleep below it must not.
    ("src/data/poll.cpp", """\
#include <thread>
void poll() {
  for (int i = 0; i < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}
""", {"sleep-in-loop": 4}),
    ("src/serve/single_sleep.cpp", """\
#include <thread>
void nap() {
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
}
""", {}),
    # The sanctioned backoff sleeper is exempt even with a loop.
    ("src/common/backoff.hpp", """\
#pragma once
inline void spin() {
  while (true) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}
""", {}),
    # The rule alone sweeps the leaf trees: a braceless while body in
    # bench/ and a do-while nanosleep in tests/ both fire.
    ("bench/poll_bench.cpp", """\
int main() {
  while (busy()) std::this_thread::sleep_for(tick);
  return 0;
}
""", {"sleep-in-loop": 2}),
    ("tests/poll_test.cpp", """\
void retry() {
  do {
    nanosleep(&ts, nullptr);
  } while (again());
}
""", {"sleep-in-loop": 3}),
    # attack-zero-grad: a zero_grad call under src/attacks/ fires; the
    # mentions in a comment and a string must not, nor does a trainer's
    # zero_grad outside src/attacks/.
    ("src/attacks/resets.cpp", """\
void attack(Model& model) {
  model.zero_grad();
}
""", {"attack-zero-grad": 2}),
    ("src/attacks/mentions.cpp", """\
// model.zero_grad() in a comment is fine
static const char* kMsg = "zero_grad";
""", {}),
    ("src/data/trainer_step.cpp", """\
void step(Model& model) {
  model.zero_grad();
}
""", {}),
    # atomic-write: a raw std::ofstream under src/tensor/ fires; the same
    # code under src/ckpt/, the crash-safe writer layer, stays silent.
    ("src/tensor/raw_writer.cpp", """\
#include <fstream>
void save(const char* path) {
  std::ofstream out(path, std::ios::binary);
}
""", {"atomic-write": 3}),
    ("src/ckpt/raw_writer.cpp", """\
#include <fstream>
void save(const char* path) {
  std::ofstream out(path, std::ios::binary);
}
""", {}),
    # env-in-library: an environment read in a data-layer file fires; the
    # same kind of read in a named knob reader stays silent.
    ("src/data/env_knob.cpp", """\
#include "common/env.hpp"
int cadence() {
  return static_cast<int>(env_or_int("ZKG_CADENCE", 0));
}
""", {"env-in-library": 3}),
    ("src/eval/experiments.cpp", """\
#include "common/env.hpp"
bool paper() { return env_or("ZKG_PRESET", "bench") == "paper"; }
""", {}),
]

# Rules that must NOT fire anywhere in the mini tree.
FORBIDDEN: dict[str, set[str]] = {
    "src/data/immune.cpp": {"naked-allocation", "exit-in-library",
                            "raw-mutex"},
    "src/common/waived.cpp": {"layer-upward-include"},
    "src/tensor/standalone.cpp": {"naked-allocation"},
    "src/serve/single_sleep.cpp": {"sleep-in-loop"},
    "src/common/backoff.hpp": {"sleep-in-loop"},
    "src/attacks/mentions.cpp": {"attack-zero-grad"},
    "src/data/trainer_step.cpp": {"attack-zero-grad"},
    "src/ckpt/raw_writer.cpp": {"atomic-write"},
    "src/eval/experiments.cpp": {"env-in-library"},
}


def selftest() -> int:
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="zkg-analyze-selftest.") as tmp:
        root = Path(tmp)
        (root / "tools").mkdir()
        (root / "tools" / "layers.toml").write_text(MINI_MANIFEST)
        files = {
            "src/common/lockrank.hpp": MINI_LOCKRANK_HPP,
            "src/common/lockrank.cpp": MINI_LOCKRANK_CPP,
            "src/data/queue.hpp": "#pragma once\n",
        }
        for rel, text, _expect in CASES:
            files[rel] = text
        for rel, text in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(text), encoding="utf-8")

        findings = engine.run(root)
        by_file: dict[str, list[engine.Finding]] = {}
        for f in findings:
            by_file.setdefault(f.path, []).append(f)

        for rel, _text, expect in CASES:
            got = by_file.get(rel, [])
            for rule, line in expect.items():
                if not any(f.rule == rule and f.line == line for f in got):
                    failures.append(
                        f"MISSING {rel}:{line} [{rule}] "
                        f"(got: {[f.render() for f in got]})")
            for f in got:
                if f.rule in FORBIDDEN.get(rel, set()):
                    failures.append(f"SPURIOUS {f.render()}")
        # The real-manifest waiver list must not leak into the mini tree:
        # the synthetic waived edge keeps the mini manifest's entry fresh.
        if any(f.rule == "stale-waiver" and f.path == "tools/layers.toml"
               for f in findings):
            failures.append("SPURIOUS stale manifest waiver in mini tree")

    if failures:
        for failure in failures:
            print(f"selftest: {failure}", file=sys.stderr)
        print(f"zkg-analyze selftest: {len(failures)} failure(s)",
              file=sys.stderr)
        return 2
    print(f"zkg-analyze selftest: {len(CASES)} cases passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
