"""Output formats for ``repro check``: text, JSON, SARIF 2.1.0.

The SARIF emitter produces the minimal valid document GitHub code
scanning accepts (``version``, ``$schema``, one run with driver rule
metadata, and per-finding results with physical locations), so the CI
``check`` job can upload findings as PR annotations.
"""

from __future__ import annotations

import json
from typing import Sequence

from repro.checker.rules import RULES, LintDiagnostic

JSON_SCHEMA = "repro-checker-findings/v1"
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = "https://json.schemastore.org/sarif-2.1.0.json"

_SARIF_LEVELS = {"error": "error", "warning": "warning"}


def to_json_payload(
    diags: Sequence[LintDiagnostic],
    *,
    files_checked: int = 0,
    suppressed: int = 0,
) -> dict:
    findings = [
        {
            "rule": d.rule,
            "severity": d.severity,
            "file": d.file,
            "line": d.line,
            "col": d.col,
            "function": d.function,
            "message": d.message,
        }
        for d in diags
    ]
    return {
        "schema": JSON_SCHEMA,
        "summary": {
            "files_checked": files_checked,
            "errors": sum(1 for d in diags if d.severity == "error"),
            "warnings": sum(1 for d in diags if d.severity == "warning"),
            "suppressed": suppressed,
        },
        "findings": findings,
    }


def to_sarif(diags: Sequence[LintDiagnostic], *, tool_version: str = "0") -> dict:
    """A SARIF 2.1.0 document covering ``diags``.

    Rule metadata is included for every rule that appears in the
    results (plus nothing else, keeping the document small), and each
    result's ``ruleIndex`` points into that array as the spec asks.
    """
    rule_ids = sorted({d.rule for d in diags})
    rule_index = {rid: i for i, rid in enumerate(rule_ids)}
    rules_meta = []
    for rid in rule_ids:
        rule = RULES[rid]
        rules_meta.append(
            {
                "id": rule.id,
                "name": rule.name,
                "shortDescription": {"text": rule.name},
                "fullDescription": {"text": rule.description},
                "defaultConfiguration": {"level": _SARIF_LEVELS[rule.severity]},
            }
        )
    results = []
    for d in diags:
        results.append(
            {
                "ruleId": d.rule,
                "ruleIndex": rule_index[d.rule],
                "level": _SARIF_LEVELS[d.severity],
                "message": {"text": f"{d.message} (in {d.function!r})"},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": d.file},
                            "region": {
                                "startLine": d.line,
                                "startColumn": max(1, d.col + 1),
                            },
                        }
                    }
                ],
            }
        )
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-check",
                        "version": tool_version,
                        "rules": rules_meta,
                    }
                },
                "results": results,
            }
        ],
    }


def dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
