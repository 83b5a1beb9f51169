"""Reporter tests: the rule registry every finding's hint comes from, and
the one JSON output of the three static passes."""

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis.__main__ import main
from repro.analysis.frozen import FROZEN_FILES, write_manifest
from repro.analysis.rules import rule_for

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def test_rule_metadata_comes_from_the_registry():
    rule = rule_for("SIM011")
    assert rule.code == "SIM011"
    assert rule.title and rule.rationale and rule.hint


def test_non_lint_rule_ids_get_descriptors():
    codes = ("PARSE", "LAYER", "MODULE", "LEGACY", "UNDECLARED", "FROZEN")
    for code in codes:
        rule = rule_for(code)
        # Every code has its own entry, not a bare-id fallback.
        assert rule.code == code and rule.title != code
        assert rule.rationale and rule.hint


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------

def _lint_case(tmp_path):
    fixture = FIXTURES / "bad_sim004_float_eq.py"
    argv = ["lint", str(fixture), "--include-fixtures"]
    return argv, [("SIM004", fixture.name, 6), ("SIM004", fixture.name, 10)]


def _layering_case(tmp_path):
    bad = tmp_path / "src" / "repro" / "sim"
    bad.mkdir(parents=True)
    (bad / "rogue.py").write_text("from repro.core import engine\n")
    return ["layering", str(tmp_path / "src")], [("LAYER", "rogue.py", 1)]


def _frozen_case(tmp_path):
    for rel in FROZEN_FILES:
        dst = tmp_path / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(REPO_ROOT / rel, dst)
    write_manifest(tmp_path, tmp_path / "analysis-frozen.json")
    victim = tmp_path / FROZEN_FILES[0]
    victim.write_bytes(victim.read_bytes() + b"\n")
    return ["frozen", "--root", str(tmp_path)], [("FROZEN", FROZEN_FILES[0], 1)]


@pytest.mark.parametrize(
    "case",
    [_lint_case, _layering_case, _frozen_case],
    ids=["lint", "layering", "frozen"],
)
def test_cli_json_format(case, tmp_path, capsys):
    argv, expected = case(tmp_path)
    rc = main(["--format=json", *argv])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"ok", "findings"}
    assert payload["ok"] is False
    got = payload["findings"]
    assert [f["code"] for f in got] == [code for code, _, _ in expected]
    assert [f["line"] for f in got] == [line for _, _, line in expected]
    for finding, (_, suffix, _) in zip(got, expected):
        assert finding["path"].endswith(suffix)
        assert finding["message"] and finding["hint"]
