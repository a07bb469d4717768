"""Machine-readable reports: plain JSON and SARIF 2.1.0.

The CI `analyze` job uploads both; SARIF is what code-scanning UIs ingest,
the JSON is the stable format other tools in this repo consume.
"""

from __future__ import annotations

import json

from .engine import Finding

TOOL_NAME = "zkg-analyze"
TOOL_VERSION = "1.0.0"

RULE_HELP = {
    "parallel-primitives": "Raw std::thread/async/OpenMP outside the "
    "parallel layer; use zkg::parallel_for.",
    "naked-allocation": "Raw new/delete/malloc; use containers or "
    "std::make_unique.",
    "exit-in-library": "Library code must throw, never exit()/abort().",
    "void-cast-unused": "(void)x; is banned; use [[maybe_unused]].",
    "atomic-write": "Direct std::ofstream outside the crash-safe writer "
    "layer; use zkg::ckpt::atomic_write_file.",
    "simd-outside-backend": "Raw SIMD intrinsics outside "
    "src/tensor/backend/; add a KernelBackend kernel.",
    "blocking-under-lock": "Blocking call while holding a mutex guard in "
    "src/serve or src/data.",
    "detached-thread": "Detached threads outlive every destructor-order "
    "invariant; join them (the ThreadPool joins).",
    "raw-mutex": "Raw std::mutex/condition_variable outside the LockRank "
    "layer; use ranked debug::Mutex<LockRank>.",
    "layer-upward-include": "Include edge pointing UP the dependency-layer "
    "order in tools/layers.toml.",
    "layer-include-cycle": "Cycle in the include graph.",
    "layer-undeclared": "src/ subsystem missing from the layer manifest.",
    "lockrank-order": "LockRank declaration order must match value order.",
    "lockrank-duplicate-value": "LockRank values must be unique.",
    "lockrank-name-missing": "lock_rank_name() must cover every rank.",
    "lockrank-unknown-rank": "Mutex<> names an undeclared LockRank.",
    "lockrank-missing": "The LockRank layer header is mandatory.",
    "waiver-missing-reason": "Every waiver needs a reason: clause.",
    "stale-waiver": "Waiver no longer suppresses anything; delete it.",
}


def to_json(findings: list[Finding]) -> str:
    payload = {
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "finding_count": len(findings),
        "findings": [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "message": f.message,
            }
            for f in findings
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def to_sarif(findings: list[Finding]) -> str:
    rules_used = sorted({f.rule for f in findings}) or sorted(RULE_HELP)
    rule_index = {rule: i for i, rule in enumerate(rules_used)}
    sarif = {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/"
        "sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "version": TOOL_VERSION,
                        "informationUri":
                            "tools/analysis (in-repo analysis engine)",
                        "rules": [
                            {
                                "id": rule,
                                "shortDescription": {
                                    "text": RULE_HELP.get(rule, rule),
                                },
                            }
                            for rule in rules_used
                        ],
                    }
                },
                "results": [
                    {
                        "ruleId": f.rule,
                        "ruleIndex": rule_index[f.rule],
                        "level": "error",
                        "message": {"text": f.message},
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {
                                        "uri": f.path,
                                        "uriBaseId": "SRCROOT",
                                    },
                                    "region": {"startLine": max(1, f.line)},
                                }
                            }
                        ],
                    }
                    for f in findings
                ],
                "originalUriBaseIds": {
                    "SRCROOT": {"uri": "file:///"},
                },
            }
        ],
    }
    return json.dumps(sarif, indent=2) + "\n"
