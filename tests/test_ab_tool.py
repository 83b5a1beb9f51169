"""benchmarks/ab.py on canned child output: parsing, refusals, verdicts.

No ledger run is started: every child's stdout is a canned string."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab", ROOT / "benchmarks" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("ab", ab)
_spec.loader.exec_module(ab)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYER = DECLARED["per_layer"][0]["name"]


def child(wall, correct=True, failed=0, golden="checked", layer=None,
          counters=None):
    """Canned stdout of one ``run.py --workload`` child; a traced one
    (``layer`` set) reads 1000 on every noise-free counter unless
    ``counters`` overrides some."""
    metrics = {m["name"]: {"value": wall, "unit": m["unit"]} for m in DECLARED["end_to_end"]}
    if layer is not None:
        metrics = {LAYER: {"value": layer, "unit": "s"}} | {
            m["name"]: {"value": layer, "unit": m["unit"]} for m in DECLARED["per_layer"]
        }
        for name in ab.COUNTERS:
            value = (counters or {}).get(name, 1000)
            metrics[name] = {"value": value, "unit": "count"}
    return "\n".join([
        "workload service_mix: seed=1 passes=20+0 traced cpu_count=2 "
        f"pool_width=2 golden: {golden}",
        "metric service_mix wall_s = 0.9 s [n=20]",
        json.dumps({"correct": correct, "attempted": 20, "failed": failed,
                    "metrics": metrics}),
    ])


def fake_runs(a_walls, b_walls, traced_counters=None, **b_overrides):
    """``run(side, traced)`` answering from the two lists in call order;
    ``traced_counters(side, i)`` gives the counters of a side's i-th
    traced run."""
    left = {"A": list(a_walls), "B": list(b_walls)}
    calls = []
    n_traced = {"A": 0, "B": 0}

    def run(side, traced):
        calls.append((side, traced))
        wall = left[side].pop(0)
        if traced:
            counters = None
            if traced_counters is not None:
                counters = traced_counters(side, n_traced[side])
            n_traced[side] += 1
            return child(wall, layer=wall / 2, counters=counters)
        return child(wall, **(b_overrides if side == "B" else {}))

    return run, calls


def test_parse_child_reads_the_golden_line_and_the_json():
    run = ab.parse_child(child(0.8, golden="stale"))
    assert run.correct and run.failed == 0 and run.golden == "stale"
    assert run.metrics["wall_s"] == 0.8


def test_pairs_alternate_which_side_runs_first():
    run, calls = fake_runs([1.0] * 3, [0.8] * 3)
    ab.run_pairs(3, False, run, out=lambda line: None)
    assert calls == [("A", False), ("B", False), ("B", False), ("A", False),
                     ("A", False), ("B", False)]


def test_a_clear_gain_reads_b_better():
    a = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    b = [x * 0.8 for x in a]
    run, _ = fake_runs(a, b)
    plain, traced = ab.run_pairs(10, False, run, out=lambda line: None)
    lines = []
    assert ab.report(plain, traced, DECLARED, out=lines.append) == 0
    wall = next(line for line in lines if line.startswith("wall_s "))
    assert "B won 10/10" in wall and wall.endswith("-> B better")
    assert "B/A 0.8000" in wall


def test_noise_inside_the_parents_spread_is_unresolved():
    a = [1.0, 1.3, 0.8, 1.2, 0.9, 1.25, 0.85, 1.1, 0.95, 1.15]
    b = [x - 0.01 for x in a]  # wins every pair, by far less than A's IQR
    c = ab.compare(a, b, "lower")
    assert c["wins"] == 10 and c["verdict"] == "unresolved"
    assert ab.compare(b, a, "lower")["verdict"] == "unresolved"
    assert ab.compare(a, [x * 2 for x in a], "lower")["verdict"] == "B worse"
    assert ab.compare(a, [x * 2 for x in a], "higher")["verdict"] == "B better"


def test_traced_runs_give_per_layer_medians():
    run, _ = fake_runs([1.0, 2.0, 3.0, 1.0, 2.0, 3.0], [1.0] * 6)
    plain, traced = ab.run_pairs(3, True, run, out=lambda line: None)
    assert len(traced["A"]) == len(plain["A"]) == 3
    lines = []
    ab.report(plain, traced, DECLARED, out=lines.append)
    layer = next(line for line in lines if line.startswith(f"layer {LAYER} "))
    assert "medians of 3 traced runs per side" in layer


@pytest.mark.parametrize("overrides,why", [
    ({"correct": False}, "correct: false"),
    ({"failed": 1}, "failed = 1"),
    ({"golden": "stale"}, "golden status differs"),
])
def test_no_verdict_on_wrong_output_or_golden_mismatch(overrides, why):
    run, _ = fake_runs([1.0] * 4, [0.5] * 4, **overrides)
    plain, traced = ab.run_pairs(4, False, run, out=lambda line: None)
    lines = []
    assert ab.report(plain, traced, DECLARED, out=lines.append) == 2
    assert lines == [lines[0]] and why in lines[0]
    assert not any("->" in line for line in lines)


def test_counters_are_the_noise_free_layer_metrics():
    layers = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert all(layers[name] == "count" for name in ab.COUNTERS)


@pytest.mark.parametrize("counters,why", [
    # B flits more than A in every run: the sides did different work.
    (lambda side, i: {"core.detailed.flits": 5 if side == "B" else 4},
     "core.detailed.flits differs: A 4.0, B 5.0"),
    # One of A's runs executed one more event than its others.
    (lambda side, i: {"sim.events": 7 + (side == "A" and i == 1)},
     "sim.events differs between A's traced runs"),
])
def test_no_verdict_when_a_counter_differs(counters, why):
    run, _ = fake_runs([1.0] * 6, [0.5] * 6, traced_counters=counters)
    plain, traced = ab.run_pairs(3, True, run, out=lambda line: None)
    lines = []
    assert ab.report(plain, traced, DECLARED, out=lines.append) == 2
    assert lines == [lines[0]] and why in lines[0]


def test_equal_counters_on_both_sides_keep_the_verdict():
    run, _ = fake_runs([1.0] * 20, [0.5] * 20,
                       traced_counters=lambda side, i: {"sim.events": 42})
    plain, traced = ab.run_pairs(10, True, run, out=lambda line: None)
    lines = []
    assert ab.report(plain, traced, DECLARED, out=lines.append) == 0
    assert any(line.endswith("-> B better") for line in lines)
