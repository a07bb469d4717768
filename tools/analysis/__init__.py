"""Whole-repo static analysis engine for the zk-gandef codebase.

One shared C++ tokenizer (cpptok) feeds three passes:

  rules     token-aware architectural rules (the PR 4 regex rules, rewritten
            so strings/comments cannot mis-fire and multi-line constructs
            are visible, plus blocking-under-lock / detached-thread /
            raw-mutex)
  layers    include-graph dependency-layer enforcement against the
            tools/layers.toml manifest (upward edges, cycles, waiver ratchet)
  lockrank  static side of the LockRank runtime layer: the rank enum stays
            unique/ordered and every ranked mutex names a known rank

Entry point: tools/analyze.py (console findings, JSON/SARIF reports,
selftest), also run by the `analyze` CMake target.
"""
