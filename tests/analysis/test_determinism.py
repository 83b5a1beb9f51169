"""Determinism auditor tests.

Covers the three promises of the auditor: the real engine fingerprints
identically run-over-run, an intentionally nondeterministic toy kernel is
flagged, and fingerprint comparison pinpoints the first divergence.
"""

from repro.analysis.determinism import (
    AuditReport,
    audit,
    check_repeatable,
    compare_fingerprints,
    fingerprint_parts,
    simulate_detailed_fingerprint,
    simulate_fingerprint,
)


def test_fingerprint_is_pure_function_of_parts():
    a = fingerprint_parts(["e1", "e2"], {"latency": 1.5, "power": 0.25})
    b = fingerprint_parts(["e1", "e2"], {"power": 0.25, "latency": 1.5})
    assert a.digest == b.digest  # metric insertion order must not matter
    c = fingerprint_parts(["e1", "e3"], {"latency": 1.5, "power": 0.25})
    assert a.digest != c.digest


def test_compare_fingerprints_reports_first_divergence():
    a = fingerprint_parts(["e1", "e2"], {"latency": 1.5})
    b = fingerprint_parts(["e1", "e9"], {"latency": 1.5})
    diff = compare_fingerprints(a, b)
    assert diff is not None
    assert "trace line 1" in diff and "e2" in diff and "e9" in diff

    c = fingerprint_parts(["e1", "e2"], {"latency": 1.5})
    d = fingerprint_parts(["e1", "e2"], {"latency": 2.5})
    diff = compare_fingerprints(c, d)
    assert diff is not None and "latency" in diff

    assert compare_fingerprints(a, a) is None


def test_real_engine_same_seed_same_fingerprint():
    f1 = simulate_fingerprint(seed=7, boards=2, nodes_per_board=2)
    f2 = simulate_fingerprint(seed=7, boards=2, nodes_per_board=2)
    assert f1.digest == f2.digest
    assert f1.metrics == f2.metrics


def test_real_engine_different_seed_different_fingerprint():
    f1 = simulate_fingerprint(seed=7, boards=2, nodes_per_board=2)
    f2 = simulate_fingerprint(seed=8, boards=2, nodes_per_board=2)
    assert f1.digest != f2.digest


def test_permuted_insertion_order_is_repeatable():
    f1 = simulate_fingerprint(seed=7, boards=2, nodes_per_board=2, permuted=True)
    f2 = simulate_fingerprint(seed=7, boards=2, nodes_per_board=2, permuted=True)
    assert f1.digest == f2.digest


def test_audit_passes_on_both_engines():
    report = audit(seed=3, boards=2, nodes_per_board=2)
    assert report.ok
    assert len(report.checks) == 5
    assert all(c.ok for c in report.checks)
    payload = report.to_json()
    assert payload["ok"] is True
    names = {c["name"] for c in payload["checks"]}
    assert names == {
        "fast engine: same-seed repeatability (default event-insertion order)",
        "fast engine: same-seed repeatability (permuted event-insertion order)",
        "batch engine: per-run results independent of slab order "
        "(permuted slab)",
        "detailed engine: same-seed repeatability "
        "(default process-registration order)",
        "detailed engine: same-seed repeatability "
        "(permuted process-registration order)",
    }
    assert "deterministic" in report.format()


def test_audit_fast_only_skips_the_detailed_engine():
    report = audit(seed=3, boards=2, nodes_per_board=2, include_detailed=False)
    assert report.ok
    assert len(report.checks) == 2
    assert all(c.name.startswith("fast engine:") for c in report.checks)


def test_batch_slab_order_check_flags_a_leaky_slab(monkeypatch):
    """A batch engine that lets a run's slab position reach its result
    passes same-order repeats but fails the permuted-slab check."""
    from dataclasses import replace

    from repro.analysis import determinism
    from repro.core.batch import BatchEngine

    class Leaky(BatchEngine):
        def run(self):
            return [
                replace(r, avg_latency=r.avg_latency + pos)
                for pos, r in enumerate(super().run())
            ]

    def fingerprints(permuted):
        return determinism.batch_slab_fingerprints(
            seed=3, boards=2, nodes_per_board=2, permuted=permuted
        )

    assert determinism.check_slab_order("batch", fingerprints).ok
    monkeypatch.setattr(determinism, "BatchEngine", Leaky)
    check = determinism.check_slab_order("batch", fingerprints)
    assert not check.ok
    assert "avg_latency" in check.detail


def test_detailed_engine_same_seed_same_fingerprint():
    f1 = simulate_detailed_fingerprint(seed=11)
    f2 = simulate_detailed_fingerprint(seed=11)
    assert f1.digest == f2.digest
    assert f1.metric_dict["labeled_delivered"] != "0"


def test_detailed_engine_permuted_order_matches_default():
    # The detailed engine is a pure function of the kernel's total event
    # order, so shuffling process registration must not move a single flit.
    default = simulate_detailed_fingerprint(seed=11)
    permuted = simulate_detailed_fingerprint(seed=11, permuted=True)
    assert default.digest == permuted.digest


def test_detailed_engine_different_seed_different_fingerprint():
    f1 = simulate_detailed_fingerprint(seed=11)
    f2 = simulate_detailed_fingerprint(seed=12)
    assert f1.digest != f2.digest


class _BrokenKernel:
    """Toy kernel whose event order leaks incidental interpreter state.

    Iterating a set of strings is the classic accidental-nondeterminism
    bug: the order depends on interpreter state, not the seed.  We model
    it deterministically-per-call with a class counter so the test does
    not itself depend on hash randomization.
    """

    calls = 0

    def run(self):
        type(self).calls += 1
        events = [f"ev{i}" for i in range(4)]
        if type(self).calls % 2 == 0:  # order flips on every other run
            events.reverse()
        return events


def test_nondeterministic_toy_kernel_is_flagged():
    def make_fingerprint():
        lines = _BrokenKernel().run()
        return fingerprint_parts(lines, {"events": float(len(lines))})

    check = check_repeatable("broken toy kernel", make_fingerprint, runs=2)
    assert not check.ok
    assert "run 0 vs run 1" in check.detail
    assert "trace line 0" in check.detail

    report = AuditReport(checks=(check,))
    assert not report.ok
    assert "FAIL" in report.format()
    assert "NONDETERMINISM DETECTED" in report.format()


def test_deterministic_toy_kernel_passes():
    def make_fingerprint():
        return fingerprint_parts(["a", "b"], {"n": 2.0})

    check = check_repeatable("ok toy kernel", make_fingerprint, runs=3)
    assert check.ok
    assert "bit-identical" in check.detail
