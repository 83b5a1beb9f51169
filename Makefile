PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test lint layering frozen determinism typecheck baseline bench bench-detailed bench-batch bench-ledger

# The single correctness gate: tier-1 tests, the simulation-invariant
# linter (ratcheted against analysis-baseline.json), the import-layering
# DAG, the frozen-oracle integrity manifest, the determinism audit, and
# mypy when it is installed.
check: test lint layering frozen determinism typecheck

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m repro.analysis lint src tests benchmarks examples

# Check the real import graph against the declared package DAG and the
# frozen-legacy import prohibition.
layering:
	$(PYTHON) -m repro.analysis layering src

# Verify the SHA-256 fingerprints of the frozen bit-identity oracles
# (repro/perf/legacy*.py) against the tracked analysis-frozen.json.
frozen:
	$(PYTHON) -m repro.analysis frozen

determinism:
	$(PYTHON) -m repro.analysis determinism

# mypy is an optional dev dependency; skip gracefully when absent so
# `make check` works in the minimal runtime environment.
typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "typecheck: mypy not installed, skipping (pip install .[dev])"; \
	fi

# Re-ratchet the lint baseline (the file may only ever shrink).
baseline:
	$(PYTHON) -m repro.analysis lint src tests benchmarks examples --write-baseline

# Regenerate the tracked performance reports (BENCH_*.json at repo root).
bench:
	$(PYTHON) -m repro.perf bench

# Just the detailed-engine benchmark: cycle-synchronous vs frozen legacy
# engine, with the bit-identity gate (non-zero exit on any fingerprint
# mismatch).  Rewrites BENCH_detailed.json at the repo root.
bench-detailed:
	$(PYTHON) -m repro.perf bench --only detailed

# Just the batch-engine benchmark: vectorized struct-of-arrays sweep vs
# the scalar process pool on the paper's 144-point grid, gated on the
# statistical-equivalence tolerances, the permutation-subset bit-identity
# fingerprint, the shard-layout fingerprint-identity check, the >=5x
# single-process speedup bar, (on hosts with >=2 cores) the >=2x sharded
# jobs-scaling bar, and the time-skipping gates: skip/no-skip
# fingerprint identity at every size, cycles_executed < horizon on the
# load-0.1 slabs (the skip machinery actually engages — asserted in
# quick mode too), and in full mode the low-load (<=0.3) subgrid running
# at >=2x the batch rate of the high-load (>=0.7) subgrid on same-width
# single-load slabs (non-zero exit on any failure).
# JOBS= sets the top pool width, e.g. `make bench-batch JOBS=8`.
# Rewrites BENCH_batch.json at the repo root.
JOBS ?= 4
bench-batch:
	$(PYTHON) -m repro.perf bench --only batch --jobs $(JOBS)

# The performance ledger (BENCHMARK.json's command): every workload of
# benchmarks/ledger untraced + traced, end-to-end and per-layer metrics,
# output checks against golden.json.  Writes benchmarks/ledger/out/.
bench-ledger:
	python3 benchmarks/ledger/run.py
