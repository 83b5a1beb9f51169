PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test lint layering frozen determinism typecheck bench-ledger

# The single correctness gate: tier-1 tests, the simulation-invariant
# linter, the import-layering DAG, the frozen-oracle integrity manifest,
# the determinism audit, and mypy when it is installed.
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

# The performance ledger (BENCHMARK.json's command): every workload of
# benchmarks/ledger untraced + traced, end-to-end and per-layer metrics,
# output checks against golden.json.  Writes benchmarks/ledger/out/.
bench-ledger:
	python3 benchmarks/ledger/run.py
