"""SARIF 2.1.0 emitter for the analysis suite.

The three static passes (lint, layering, frozen-manifest) all return
:class:`~repro.analysis.linter.Finding` lists; CI uploads the SARIF log so
findings render as GitHub annotations on the offending line instead of a
wall of job-log text.  Every code's rule metadata comes from the one
table in :mod:`repro.analysis.rules`.

Only the small, stable subset of SARIF that GitHub consumes is emitted:
``tool.driver`` with per-rule metadata, and one ``result`` per finding
with a single physical location.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Sequence

from repro.analysis.linter import Finding
from repro.analysis.rules import rule_for

__all__ = ["sarif_log", "sarif_dumps"]

_SARIF_VERSION = "2.1.0"
_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _descriptor(code: str) -> Dict[str, object]:
    rule = rule_for(code)
    return {
        "id": rule.code,
        "name": rule.title,
        "shortDescription": {"text": rule.title},
        "fullDescription": {"text": rule.rationale},
        "help": {"text": rule.hint},
    }


def sarif_log(
    findings: Sequence[Finding],
    tool_name: str = "repro-analysis",
    tool_version: Optional[str] = None,
) -> Dict[str, object]:
    """Build one single-run SARIF log covering ``findings``."""
    driver: Dict[str, object] = {
        "name": tool_name,
        "informationUri": "https://example.invalid/repro-analysis",
        "rules": [_descriptor(c) for c in sorted({f.code for f in findings})],
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
                        "ruleId": f.code,
                        "level": "error",
                        "message": {"text": f.message},
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {
                                        "uri": f.path,
                                        "uriBaseId": "ROOTPATH",
                                    },
                                    "region": {"startLine": max(1, f.line)},
                                }
                            }
                        ],
                    }
                    for f in findings
                ],
            }
        ],
    }


def sarif_dumps(findings: Sequence[Finding], **kwargs: str) -> str:
    """JSON-serialize a SARIF log for ``findings``."""
    return json.dumps(sarif_log(findings, **kwargs), indent=2, sort_keys=False)
