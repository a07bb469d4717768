"""Token-aware architectural rules.

The PR 4 regex rules rewritten on the shared token stream (strings and
comments can no longer mis-fire, multi-line constructs are visible), plus
the concurrency rules that arrived with the LockRank layer:

  blocking-under-lock  no blocking call (.get() on a future, .wait*() on
                       anything but the held lock, .lock()/.join()/
                       .wait_idle(), sleep_for) while a mutex guard is held,
                       in src/serve and src/data
  detached-thread      no .detach()ed threads anywhere
  raw-mutex            std::mutex / std::condition_variable only inside
                       src/common/lockrank.hpp — everything else declares a
                       ranked debug::Mutex<LockRank> / debug::CondVar
  sleep-in-loop        no raw sleep_for/sleep_until/usleep/nanosleep inside
                       a loop body — poll-sleeping burns a core and hides a
                       missing signal; compute one deadline sleep or retry
                       through zkg::Backoff. Unlike the layer rules this one
                       also sweeps bench/, examples/ and tests/.
  attack-zero-grad     no zero_grad token under src/attacks/ — attacks
                       leave a model's parameter gradients alone and run
                       their backward passes under nn::InputGradOnly
  env-in-library       no env_or/env_or_int/getenv/secure_getenv call in
                       src/ outside ENV_READERS — library behaviour is set
                       by its config structs, and the few process-wide
                       knobs are read in one named place each
"""

from __future__ import annotations

import re
from pathlib import Path

from .cpptok import Tok
from .engine import Reporter, SourceFile, load_file

# Files allowed to read the environment: the env helpers themselves and the
# process-wide knobs (ZKG_THREADS, ZKG_BACKEND, ZKG_TRACE, ZKG_FAILPOINTS,
# and the experiment scale ZKG_PRESET/ZKG_TRAIN/ZKG_TEST/ZKG_EPOCHS).
ENV_READERS = {
    "src/common/env.hpp",
    "src/common/env.cpp",
    "src/common/threadpool.cpp",
    "src/tensor/backend/dispatch.cpp",
    "src/obs/telemetry.cpp",
    "src/common/failpoint.cpp",
    "src/eval/experiments.cpp",
}

ENV_CALLS = {"env_or", "env_or_int", "getenv", "secure_getenv"}

# Files allowed to use raw threading primitives: the one parallel layer.
PARALLEL_LAYER = {
    "src/common/parallel.cpp",
    "src/common/threadpool.cpp",
    "src/common/threadpool.hpp",
}

# Directory allowed to open std::ofstream directly: the crash-safe
# checkpoint writer.
ATOMIC_WRITE_LAYER_PREFIX = "src/ckpt/"

# Files allowed to use raw SIMD intrinsics: the kernel backends.
SIMD_LAYER_PREFIX = "src/tensor/backend/"

# Directory whose code must never reset a model's parameter gradients.
ATTACKS_PREFIX = "src/attacks/"

# The one file allowed to name raw std synchronisation primitive TYPES.
LOCKRANK_LAYER = "src/common/lockrank.hpp"

# Directories where blocking-under-lock applies: the two subsystems whose
# mutexes guard producer/consumer handoffs on the serving/training path.
BLOCKING_SCOPE_PREFIXES = ("src/serve/", "src/data/")

# Files sanctioned to sleep inside a loop: the jittered-backoff policy is
# the one blessed retry sleeper, and the failpoint delay policy injects
# stalls on purpose.
SLEEP_LOOP_EXEMPT = {"src/common/backoff.hpp", "src/common/failpoint.cpp"}

# Leaf trees the sleep-in-loop rule sweeps in addition to src/ — bench
# drivers and examples are where polling loops historically crept in.
SLEEP_EXTRA_TREES = ("bench", "examples", "tests")

SLEEP_CALLS = {"sleep_for", "sleep_until", "usleep", "nanosleep"}

RAW_SYNC_TYPES = {
    "mutex", "timed_mutex", "recursive_mutex", "recursive_timed_mutex",
    "shared_mutex", "shared_timed_mutex", "condition_variable",
    "condition_variable_any",
}

GUARD_TYPES = {"lock_guard", "unique_lock", "scoped_lock", "shared_lock"}

BLOCKING_MEMBERS = {"get", "wait", "wait_for", "wait_until", "wait_idle",
                    "join"}

PP_OMP = re.compile(r"#\s*pragma\s+omp\b")
PP_SIMD_INCLUDE = re.compile(
    r"#\s*include\s*<(?:imm|emm|xmm|pmm|smm|tmm|nmm|wmm|avx|avx2)intrin\.h>")
SIMD_CALL = re.compile(r"_mm\d*_\w+$")
SIMD_TYPE = re.compile(r"__m(?:128|256|512)[di]?$")


def run(files: list[SourceFile], reporter: Reporter, root: Path) -> None:
    for source in files:
        _lint_tokens(source, reporter)
        if source.rel.startswith(BLOCKING_SCOPE_PREFIXES):
            _lint_blocking_under_lock(source, reporter)
        if source.rel not in SLEEP_LOOP_EXEMPT:
            _lint_sleep_in_loop(source, reporter)
    # sleep-in-loop alone extends past src/: the layer and primitive rules
    # don't govern the leaf trees, but a polling loop is a defect anywhere.
    for tree in SLEEP_EXTRA_TREES:
        base = root / tree
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in {".cpp", ".hpp"}:
                _lint_sleep_in_loop(load_file(path, root), reporter)


# --------------------------------------------------------------- token scan

def _lint_tokens(source: SourceFile, reporter: Reporter) -> None:
    rel = source.rel
    code = source.code
    in_parallel_layer = rel in PARALLEL_LAYER
    in_atomic_layer = rel.startswith(ATOMIC_WRITE_LAYER_PREFIX)
    in_simd_layer = rel.startswith(SIMD_LAYER_PREFIX)
    in_lockrank_layer = rel == LOCKRANK_LAYER
    in_attacks = rel.startswith(ATTACKS_PREFIX)
    reads_env = rel.startswith("src/") and rel not in ENV_READERS

    for i, tok in enumerate(code):
        prev = code[i - 1] if i > 0 else None
        nxt = code[i + 1] if i + 1 < len(code) else None

        if tok.kind == "pp":
            if not in_parallel_layer and PP_OMP.search(tok.text):
                reporter.report(
                    source, "parallel-primitives", tok.line,
                    "#pragma omp outside the parallel layer; "
                    "use zkg::parallel_for")
            if not in_simd_layer and PP_SIMD_INCLUDE.search(tok.text):
                reporter.report(
                    source, "simd-outside-backend", tok.line,
                    "SIMD intrinsics header outside src/tensor/backend/; "
                    "add a KernelBackend kernel instead")
            continue
        if tok.kind != "id" and tok.kind != "punct":
            continue

        # std::{thread,jthread,async} — multi-line qualified names included.
        if (tok.kind == "id" and tok.text in ("thread", "jthread", "async")
                and _qualified_by(code, i, "std")
                and not in_parallel_layer):
            reporter.report(
                source, "parallel-primitives", tok.line,
                f"std::{tok.text} outside the parallel layer; "
                "use zkg::parallel_for")

        # Raw synchronisation primitive types outside the LockRank layer.
        if (tok.kind == "id" and tok.text in RAW_SYNC_TYPES
                and _qualified_by(code, i, "std")
                and not in_lockrank_layer):
            reporter.report(
                source, "raw-mutex", tok.line,
                f"raw std::{tok.text} outside src/common/lockrank.hpp; "
                "declare a ranked zkg::debug::Mutex<LockRank> / "
                "debug::CondVar and keep guards on CTAD "
                "(std::lock_guard lock(m))")

        # Naked allocation.
        if tok.kind == "id" and tok.text == "new":
            if (nxt is not None
                    and (nxt.kind == "id" or nxt.text in ("(", "::"))
                    and (prev is None or prev.text != "operator")):
                reporter.report(
                    source, "naked-allocation", tok.line,
                    "naked new; use containers or std::make_unique")
        if tok.kind == "id" and tok.text == "delete":
            deleted_member = prev is not None and prev.text == "="
            if (not deleted_member and nxt is not None
                    and (nxt.kind == "id" or nxt.text in ("(", "*", "["))
                    and (prev is None or prev.text != "operator")):
                reporter.report(
                    source, "naked-allocation", tok.line,
                    "naked delete; use containers or std::make_unique")
        if (tok.kind == "id"
                and tok.text in ("malloc", "calloc", "realloc", "free")
                and nxt is not None and nxt.text == "("
                and (prev is None or prev.text not in (".", "->"))):
            reporter.report(
                source, "naked-allocation", tok.line,
                "C allocation function; use containers or std::make_unique")

        # exit()/abort()/std::terminate in library code.
        if (tok.kind == "id"
                and tok.text in ("exit", "abort", "_Exit", "quick_exit")
                and nxt is not None and nxt.text == "("
                and (prev is None or prev.text not in (".", "->"))
                and _unqualified_or_std(code, i)):
            reporter.report(
                source, "exit-in-library", tok.line,
                "library code must throw, never exit()/abort()")
        if (tok.kind == "id" and tok.text == "terminate"
                and _qualified_by(code, i, "std")
                and nxt is not None and nxt.text == "("):
            reporter.report(
                source, "exit-in-library", tok.line,
                "library code must throw, never std::terminate()")

        # (void)x; unused-marking.
        if (tok.text == "(" and nxt is not None and nxt.text == "void"
                and i + 3 < len(code) and code[i + 2].text == ")"
                and code[i + 3].kind == "id"
                and (prev is None or prev.text in (";", "{", "}"))):
            reporter.report(
                source, "void-cast-unused", tok.line,
                "(void)x; unused-marking is banned; use [[maybe_unused]]")

        # Direct std::ofstream outside the crash-safe writer layer.
        if (tok.kind == "id" and tok.text == "ofstream"
                and _qualified_by(code, i, "std") and not in_atomic_layer):
            reporter.report(
                source, "atomic-write", tok.line,
                "direct std::ofstream outside the crash-safe writer layer; "
                "use zkg::ckpt::atomic_write_file")

        # SIMD intrinsics outside the backend layer.
        if tok.kind == "id" and not in_simd_layer:
            if ((SIMD_CALL.fullmatch(tok.text)
                 and nxt is not None and nxt.text == "(")
                    or SIMD_TYPE.fullmatch(tok.text)):
                reporter.report(
                    source, "simd-outside-backend", tok.line,
                    "raw SIMD intrinsics outside src/tensor/backend/; add a "
                    "KernelBackend kernel instead")

        # Attacks need only the input gradient; zeroing parameter gradients
        # would wipe whatever a caller had accumulated.
        if in_attacks and tok.kind == "id" and tok.text == "zero_grad":
            reporter.report(
                source, "attack-zero-grad", tok.line,
                "zero_grad under src/attacks/; attacks must leave parameter "
                "gradients alone (run the backward under nn::InputGradOnly)")

        # Environment reads outside the named knob readers: a setting that
        # only an environment variable can change bypasses the config
        # structs and their validate().
        if (reads_env and tok.kind == "id" and tok.text in ENV_CALLS
                and nxt is not None and nxt.text == "("
                and (prev is None or prev.text not in (".", "->"))):
            reporter.report(
                source, "env-in-library", tok.line,
                f"{tok.text}() outside the named environment readers; take "
                "the setting from a config struct instead")

        # Detached threads: a fire-and-forget thread outlives every
        # invariant the destructor order was designed to protect.
        if (tok.kind == "id" and tok.text == "detach"
                and prev is not None and prev.text in (".", "->")
                and nxt is not None and nxt.text == "("):
            reporter.report(
                source, "detached-thread", tok.line,
                ".detach()ed thread; threads must be joined (use the "
                "ThreadPool, whose destructor joins)")


def _qualified_by(code: list[Tok], i: int, ns: str) -> bool:
    """True when code[i] is written as `ns::<token>` (possibly multi-line)."""
    return (i >= 2 and code[i - 1].text == "::" and code[i - 2].kind == "id"
            and code[i - 2].text == ns)


def _unqualified_or_std(code: list[Tok], i: int) -> bool:
    """True unless code[i] is qualified by a namespace other than std."""
    if i >= 1 and code[i - 1].text == "::":
        return i >= 2 and code[i - 2].text == "std"
    return True


# ------------------------------------------------- blocking while locked

def _lint_blocking_under_lock(source: SourceFile,
                              reporter: Reporter) -> None:
    """Scope-tracking scan: no blocking call while a mutex guard is held.

    Heuristic but deliberate: guard variables are recognised at their
    declaration (std::lock_guard / unique_lock / scoped_lock via CTAD or
    explicit template args), tracked until their enclosing brace closes,
    and manual guard.unlock()/guard.lock() toggles are honoured. Condition
    variable waits that take the held guard as their first argument are the
    one sanctioned blocking call — the wait releases the lock.
    """
    code = source.code
    depth = 0
    guards: list[dict] = []  # {var, depth, held}

    def held_guards() -> list[dict]:
        return [g for g in guards if g["held"]]

    i = 0
    while i < len(code):
        tok = code[i]
        nxt = code[i + 1] if i + 1 < len(code) else None
        prev = code[i - 1] if i > 0 else None

        if tok.text == "{":
            depth += 1
        elif tok.text == "}":
            depth -= 1
            guards[:] = [g for g in guards if g["depth"] <= depth]
        elif tok.kind == "id" and tok.text in GUARD_TYPES:
            j = i + 1
            if j < len(code) and code[j].text == "<":
                j = _skip_angle(code, j)
            if (j < len(code) and code[j].kind == "id"
                    and j + 1 < len(code) and code[j + 1].text == "("):
                guards.append(
                    {"var": code[j].text, "depth": depth, "held": True})
                i = j + 1
                continue
        elif (tok.kind == "id" and prev is not None
              and prev.text in (".", "->") and nxt is not None
              and nxt.text == "("):
            receiver = code[i - 2].text if i >= 2 else ""
            guard = next(
                (g for g in guards if g["var"] == receiver), None)
            if tok.text == "unlock" and guard is not None:
                guard["held"] = False
            elif tok.text == "lock" and guard is not None:
                guard["held"] = True
            elif held_guards():
                if tok.text == "lock":
                    _blocked(reporter, source, tok,
                             f"{receiver}.lock()", held_guards())
                elif tok.text in BLOCKING_MEMBERS:
                    first_arg = code[i + 2] if i + 2 < len(code) else None
                    wait_on_guard = (
                        tok.text.startswith("wait") and first_arg is not None
                        and any(g["var"] == first_arg.text
                                for g in held_guards()))
                    if not wait_on_guard:
                        _blocked(reporter, source, tok,
                                 f"{receiver}.{tok.text}()", held_guards())
        elif (tok.kind == "id" and tok.text in ("sleep_for", "sleep_until")
              and held_guards()):
            _blocked(reporter, source, tok, f"{tok.text}()", held_guards())
        i += 1


def _blocked(reporter: Reporter, source: SourceFile, tok: Tok, what: str,
             held: list[dict]) -> None:
    vars_held = ", ".join(g["var"] for g in held)
    reporter.report(
        source, "blocking-under-lock", tok.line,
        f"blocking call {what} while holding mutex guard(s) [{vars_held}]; "
        "release the lock first (condition-variable waits on the held "
        "guard are the one sanctioned blocking call)")


def _skip_angle(code: list[Tok], i: int) -> int:
    """Given code[i] == '<', returns the index just past the matching '>'."""
    nest = 0
    while i < len(code):
        if code[i].text == "<":
            nest += 1
        elif code[i].text == ">":
            nest -= 1
            if nest == 0:
                return i + 1
        elif code[i].text == ">>":
            nest -= 2
            if nest <= 0:
                return i + 1
        elif code[i].text in (";", "{"):
            return i  # not template args after all
        i += 1
    return i


# ------------------------------------------------------- sleep in a loop

def _lint_sleep_in_loop(source: SourceFile, reporter: Reporter) -> None:
    """Flags raw sleep calls lexically inside a loop body.

    Loop bodies are tracked by brace depth: `for`/`while` headers followed
    by a brace open a loop scope, `do {` opens one directly, and a
    braceless header flags sleeps in its single-statement body. Waking on
    a timer to re-check state is the pattern this bans — the fix is a
    condition-variable signal, one computed deadline sleep, or the shared
    zkg::Backoff retry policy.
    """
    code = source.code
    depth = 0
    loop_depths: list[int] = []
    i = 0
    while i < len(code):
        tok = code[i]
        nxt = code[i + 1] if i + 1 < len(code) else None
        if (tok.kind == "id" and tok.text in ("for", "while")
                and nxt is not None and nxt.text == "("):
            j = _skip_parens(code, i + 1)
            if j < len(code) and code[j].text == "{":
                depth += 1
                loop_depths.append(depth)
                i = j + 1
                continue
            # Braceless body: one statement up to the ';' at this nesting.
            k = j
            nest = 0
            while k < len(code):
                text = code[k].text
                if text == "{":
                    nest += 1
                elif text == "}":
                    nest -= 1
                    if nest < 0:
                        break
                elif text == ";" and nest == 0:
                    break
                elif (code[k].kind == "id" and code[k].text in SLEEP_CALLS
                        and k + 1 < len(code) and code[k + 1].text == "("):
                    _sleepy(reporter, source, code[k])
                k += 1
            i = k + 1
            continue
        if (tok.kind == "id" and tok.text == "do"
                and nxt is not None and nxt.text == "{"):
            depth += 1
            loop_depths.append(depth)
            i += 2
            continue
        if tok.text == "{":
            depth += 1
        elif tok.text == "}":
            if loop_depths and loop_depths[-1] == depth:
                loop_depths.pop()
            depth -= 1
        elif (tok.kind == "id" and tok.text in SLEEP_CALLS and loop_depths
              and nxt is not None and nxt.text == "("):
            _sleepy(reporter, source, tok)
        i += 1


def _sleepy(reporter: Reporter, source: SourceFile, tok: Tok) -> None:
    reporter.report(
        source, "sleep-in-loop", tok.line,
        f"raw {tok.text}() inside a loop; poll-sleeping burns a core and "
        "hides a missing signal — wait on a condition variable, compute "
        "one deadline sleep, or retry via zkg::Backoff "
        "(common/backoff.hpp)")


def _skip_parens(code: list[Tok], i: int) -> int:
    """Given code[i] == '(', returns the index just past the matching ')'."""
    nest = 0
    while i < len(code):
        if code[i].text == "(":
            nest += 1
        elif code[i].text == ")":
            nest -= 1
            if nest == 0:
                return i + 1
        i += 1
    return i
