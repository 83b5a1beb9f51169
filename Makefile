PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test lint layering frozen determinism typecheck bench-ledger ab

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
	$(PYTHON) benchmarks/ledger/run.py

# A/B two committed revisions on one ledger workload in alternating child
# runs (benchmarks/ab.py): medians, quartiles, paired ratios, wins and a
# verdict per end-to-end metric.  SECONDS and SEED, when set, are passed
# as --seconds and --seed; TRACE=1 adds --trace (one traced child per side
# and pair, per-layer medians, the noise-free counter check).  For example:
#   make ab REV_A=HEAD~1 REV_B=HEAD WORKLOAD=reproduce_warm PAIRS=10 SEED=2 TRACE=1
REV_A ?= HEAD~1
REV_B ?= HEAD
WORKLOAD ?= service_mix
PAIRS ?= 10
SECONDS ?=
SEED ?=
TRACE ?=
ab:
	$(PYTHON) benchmarks/ab.py $(REV_A) $(REV_B) --workload $(WORKLOAD) --pairs $(PAIRS) \
		$(if $(SECONDS),--seconds $(SECONDS)) $(if $(SEED),--seed $(SEED)) \
		$(if $(filter 1,$(TRACE)),--trace)
