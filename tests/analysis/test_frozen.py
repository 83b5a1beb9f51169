"""Frozen-legacy integrity manifest tests.

The acceptance criterion this file pins: mutating a frozen
``legacy_*.py`` oracle makes the ``frozen`` gate fail, and the tracked
``analysis-frozen.json`` matches the shipped tree bit-for-bit.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis.__main__ import main
from repro.analysis.frozen import (
    FROZEN_FILES,
    compute_manifest,
    file_digest,
    load_manifest,
    verify_manifest,
    write_manifest,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def make_tree(tmp_path):
    """Copy the real frozen oracles into a scratch repo root."""
    for rel in FROZEN_FILES:
        dst = tmp_path / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(REPO_ROOT / rel, dst)
    return tmp_path


def kind(finding):
    """The integrity-failure kind that leads a FROZEN finding's message."""
    return finding.message.split(" ", 1)[0]


# ----------------------------------------------------------------------
# Manifest mechanics
# ----------------------------------------------------------------------

def test_round_trip_verifies_clean(tmp_path):
    root = make_tree(tmp_path)
    manifest = root / "analysis-frozen.json"
    write_manifest(root, manifest)
    assert verify_manifest(root, manifest) == []


def test_digest_is_content_addressed(tmp_path):
    p = tmp_path / "f.py"
    p.write_text("x = 1\n")
    d1 = file_digest(p)
    assert d1.startswith("sha256:")
    p.write_text("x = 2\n")
    assert file_digest(p) != d1


def test_mutated_oracle_is_a_hash_mismatch(tmp_path):
    root = make_tree(tmp_path)
    manifest = root / "analysis-frozen.json"
    write_manifest(root, manifest)
    victim = root / FROZEN_FILES[1]  # legacy_engine.py
    victim.write_text(victim.read_text() + "\n# drive-by edit\n")
    mismatches = verify_manifest(root, manifest)
    assert [(m.path, m.code, kind(m)) for m in mismatches] == [
        (FROZEN_FILES[1], "FROZEN", "hash-mismatch")
    ]


def test_deleted_oracle_is_a_missing_file(tmp_path):
    root = make_tree(tmp_path)
    manifest = root / "analysis-frozen.json"
    write_manifest(root, manifest)
    (root / FROZEN_FILES[0]).unlink()
    mismatches = verify_manifest(root, manifest)
    assert [(m.path, m.code, kind(m)) for m in mismatches] == [
        (FROZEN_FILES[0], "FROZEN", "missing-file")
    ]


def test_missing_entry_and_stale_entry(tmp_path):
    root = make_tree(tmp_path)
    manifest = root / "analysis-frozen.json"
    write_manifest(root, manifest)
    data = json.loads(manifest.read_text())
    digest = data["files"].pop(FROZEN_FILES[2])
    data["files"]["src/repro/perf/legacy_ghost.py"] = digest
    manifest.write_text(json.dumps(data))
    kinds = {(m.path, kind(m)) for m in verify_manifest(root, manifest)}
    assert kinds == {
        (FROZEN_FILES[2], "missing-entry"),
        ("src/repro/perf/legacy_ghost.py", "stale-entry"),
    }


def test_absent_manifest_is_itself_a_failure(tmp_path):
    root = make_tree(tmp_path)
    mismatches = verify_manifest(root, root / "analysis-frozen.json")
    assert [kind(m) for m in mismatches] == ["missing-manifest"]


def test_malformed_manifest_raises(tmp_path):
    root = make_tree(tmp_path)
    manifest = root / "analysis-frozen.json"
    manifest.write_text("[]")
    with pytest.raises(ValueError):
        load_manifest(manifest)


# ----------------------------------------------------------------------
# The tracked manifest and the CLI
# ----------------------------------------------------------------------

def test_tracked_manifest_matches_the_shipped_tree():
    """The headline gate: analysis-frozen.json pins the real oracles."""
    manifest = REPO_ROOT / "analysis-frozen.json"
    assert manifest.exists(), "tracked manifest missing from the repo root"
    assert verify_manifest(REPO_ROOT, manifest) == []
    recorded = load_manifest(manifest)
    assert set(recorded) == set(FROZEN_FILES)
    assert recorded == compute_manifest(REPO_ROOT)


def test_cli_frozen_clean_exits_zero(capsys):
    rc = main(["frozen", "--root", str(REPO_ROOT)])
    assert rc == 0
    assert "fingerprints match" in capsys.readouterr().out


def test_cli_frozen_mismatch_exits_one(tmp_path, capsys):
    root = make_tree(tmp_path)
    manifest = root / "analysis-frozen.json"
    write_manifest(root, manifest)
    victim = root / FROZEN_FILES[0]
    victim.write_text(victim.read_text() + "\npass\n")
    rc = main(["frozen", "--root", str(root)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FROZEN hash-mismatch" in out and "frozen: 1 finding(s)" in out


def test_cli_write_manifest_regenerates(tmp_path, capsys):
    root = make_tree(tmp_path)
    rc = main(["frozen", "--root", str(root), "--write-manifest"])
    assert rc == 0
    assert "wrote 3 fingerprint(s)" in capsys.readouterr().out
    assert verify_manifest(root, root / "analysis-frozen.json") == []
