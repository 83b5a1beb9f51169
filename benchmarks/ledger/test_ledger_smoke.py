"""Smoke test of the ledger harness: ``pytest benchmarks/ledger``.

One ``--quick`` ledger (shrunken inputs, one pass per workload, traced and
untraced) must print every metric ``BENCHMARK.json`` declares exactly once
per workload with the declared unit, and find nothing wrong.  Not part of
the tier-1 ``testpaths``; it takes about 40 s (eight child processes, and
``reproduce_all``'s Fig 3 and ablation stages cannot be shrunk).
"""

import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_quick_ledger_prints_every_declared_metric_once():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {
        m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]
    }
    assert len(declared["end_to_end"]) <= 16 and len(declared["per_layer"]) <= 128
    assert len(metrics) == len(declared["end_to_end"]) + len(declared["per_layer"])
    assert all(NAME.fullmatch(name) for name in metrics)
    workloads = [w["name"] for w in declared["workloads"]]

    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seconds", "0.1"],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

    printed = Counter()
    for workload, name, unit in re.findall(
        r"^metric (\S+) (\S+) = \S+ (\S+)", proc.stdout, re.M
    ):
        assert metrics.get(name) == unit, (workload, name, unit)
        printed[workload, name] += 1
    assert printed == Counter((w, name) for w in workloads for name in metrics)

    checks = re.findall(
        r"^check (\S+): failed_frac = (\S+) ratio .*result_mismatches = (\d+) count",
        proc.stdout, re.M,
    )
    # One untraced and one traced child per workload.
    assert Counter(w for w, _, _ in checks) == Counter(workloads * 2)
    assert all(float(frac) == 0.0 and int(wrong) == 0 for _, frac, wrong in checks)
    assert "golden: stale" not in proc.stdout
    assert all(
        json.loads(line)["ok"]
        for line in re.findall(r"^spans \S+: (\{.*\})$", proc.stdout, re.M)
    )
