"""Reporter tests: the SARIF 2.1.0 emitter (structure, rule metadata) and
the one JSON and SARIF output of the three static passes."""

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis.__main__ import main
from repro.analysis.frozen import FROZEN_FILES, write_manifest
from repro.analysis.linter import Finding
from repro.analysis.sarif import sarif_dumps, sarif_log

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def test_log_shape_and_location():
    log = sarif_log(
        [
            Finding(
                path="src/repro/core/engine.py",
                line=42,
                col=4,
                code="SIM007",
                message="iteration over a set",
            )
        ]
    )
    assert log["version"] == "2.1.0"
    (run,) = log["runs"]
    (result,) = run["results"]
    assert result["ruleId"] == "SIM007"
    assert result["level"] == "error"
    loc = result["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "src/repro/core/engine.py"
    assert loc["region"]["startLine"] == 42


def test_rule_metadata_comes_from_the_registry():
    log = sarif_log(
        [Finding("p.py", 1, 0, "SIM011", "m")]
    )
    (rule,) = log["runs"][0]["tool"]["driver"]["rules"]
    assert rule["id"] == "SIM011"
    assert rule["shortDescription"]["text"]
    assert rule["fullDescription"]["text"]
    assert rule["help"]["text"]


def test_non_lint_rule_ids_get_descriptors():
    log = sarif_log(
        [
            Finding("a.py", 1, 0, code, "m")
            for code in ("PARSE", "LAYER", "MODULE", "LEGACY", "UNDECLARED", "FROZEN")
        ]
    )
    rules = log["runs"][0]["tool"]["driver"]["rules"]
    assert [r["id"] for r in rules] == sorted(
        ["PARSE", "LAYER", "MODULE", "LEGACY", "UNDECLARED", "FROZEN"]
    )
    for rule in rules:
        # Every code has its own descriptor, not a bare-id fallback.
        assert rule["name"] != rule["id"]
        assert rule["fullDescription"]["text"] and rule["help"]["text"]


def test_zero_findings_is_a_valid_empty_log():
    log = sarif_log([])
    assert log["runs"][0]["results"] == []
    assert log["runs"][0]["tool"]["driver"]["rules"] == []


def test_dumps_round_trips():
    results = [Finding("y.py", 3, 0, "SIM001", "x")]
    assert json.loads(sarif_dumps(results)) == sarif_log(results)


def test_line_floor_is_one():
    log = sarif_log([Finding("p", 0, 0, "FROZEN", "m")])
    region = log["runs"][0]["results"][0]["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 1


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------

def test_cli_lint_sarif_on_bad_fixture(capsys):
    rc = main(
        [
            "--format=sarif",
            "lint",
            str(FIXTURES / "bad_sim007_unordered_iter.py"),
            "--include-fixtures",
        ]
    )
    assert rc == 1
    log = json.loads(capsys.readouterr().out)
    results = log["runs"][0]["results"]
    assert {r["ruleId"] for r in results} == {"SIM007"}
    assert len(results) == 5


def test_cli_layering_sarif_on_clean_tree(capsys):
    rc = main(["--format=sarif", "layering", str(REPO_ROOT / "src")])
    assert rc == 0
    log = json.loads(capsys.readouterr().out)
    assert log["runs"][0]["results"] == []


def test_cli_determinism_rejects_sarif(capsys):
    rc = main(["--format=sarif", "determinism"])
    assert rc == 2
    assert "static passes" in capsys.readouterr().err


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
