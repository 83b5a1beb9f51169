"""SARIF 2.1.0 emitter for the analysis suite.

One shared result shape serves all three static passes (lint, layering,
frozen-manifest): CI uploads the SARIF log so findings render as GitHub
annotations on the offending line instead of a wall of job-log text.

Only the small, stable subset of SARIF that GitHub consumes is emitted:
``tool.driver`` with per-rule metadata, and one ``result`` per finding
with a single physical location.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.rules import RULES

__all__ = ["SarifResult", "sarif_log", "sarif_dumps"]

_SARIF_VERSION = "2.1.0"
_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Rule metadata for the non-lint passes (the lint pass contributes
#: SIM001–SIM011 from the registry).
_EXTRA_RULES: Dict[str, Dict[str, str]] = {
    "LAYER": {
        "name": "import-layering",
        "shortDescription": "import edge violates the declared package DAG",
        "help": (
            "See repro.analysis.layering.LAYER_DAG for the declared edges "
            "and EDGE_ALLOWLIST for sanctioned exceptions."
        ),
    },
    "LEGACY": {
        "name": "frozen-legacy-import",
        "shortDescription": "frozen legacy oracle imported from src/",
        "help": (
            "Only tests/ may import repro.perf.legacy* modules; "
            "production code must never depend on a frozen oracle."
        ),
    },
    "UNDECLARED": {
        "name": "undeclared-layer",
        "shortDescription": "package missing from the layering DAG",
        "help": "Add the package to repro.analysis.layering.LAYER_DAG.",
    },
    "FROZEN": {
        "name": "frozen-manifest",
        "shortDescription": "frozen oracle drifted from its pinned SHA-256",
        "help": (
            "repro/perf/legacy*.py are bit-identity oracles; restore the "
            "file or (only alongside a new equivalence gate) regenerate "
            "the manifest with --write-manifest."
        ),
    },
}


@dataclass(frozen=True, slots=True)
class SarifResult:
    """One finding in the shared SARIF shape."""

    rule_id: str
    message: str
    path: str
    line: int = 1
    level: str = "error"


def _rule_descriptors(used: Sequence[str]) -> List[Dict[str, object]]:
    descriptors: List[Dict[str, object]] = []
    for rule in RULES:
        if rule.code in used:
            descriptors.append(
                {
                    "id": rule.code,
                    "name": rule.title,
                    "shortDescription": {"text": rule.title},
                    "fullDescription": {"text": rule.rationale},
                    "help": {"text": rule.hint},
                }
            )
    for rule_id in sorted(set(used) - {r.code for r in RULES}):
        meta = _EXTRA_RULES.get(rule_id, {})
        descriptors.append(
            {
                "id": rule_id,
                "name": meta.get("name", rule_id),
                "shortDescription": {
                    "text": meta.get("shortDescription", rule_id)
                },
                "help": {"text": meta.get("help", "")},
            }
        )
    return descriptors


def sarif_log(
    results: Sequence[SarifResult],
    tool_name: str = "repro-analysis",
    tool_version: Optional[str] = None,
) -> Dict[str, object]:
    """Build one single-run SARIF log covering ``results``."""
    used = [r.rule_id for r in results]
    driver: Dict[str, object] = {
        "name": tool_name,
        "informationUri": "https://example.invalid/repro-analysis",
        "rules": _rule_descriptors(used),
    }
    if tool_version is not None:
        driver["version"] = tool_version
    return {
        "$schema": _SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {"driver": driver},
                "results": [
                    {
                        "ruleId": r.rule_id,
                        "level": r.level,
                        "message": {"text": r.message},
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {
                                        "uri": r.path,
                                        "uriBaseId": "ROOTPATH",
                                    },
                                    "region": {"startLine": max(1, r.line)},
                                }
                            }
                        ],
                    }
                    for r in results
                ],
            }
        ],
    }


def sarif_dumps(results: Sequence[SarifResult], **kwargs: str) -> str:
    """JSON-serialize a SARIF log for ``results``."""
    return json.dumps(sarif_log(results, **kwargs), indent=2, sort_keys=False)
