# Convenience targets for the idempotent-processing reproduction.

PYTHON ?= python

.PHONY: install test test-fast bench bench-full experiments examples clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ --ignore=tests/test_workloads.py \
	    --ignore=tests/test_experiments.py \
	    --deselect=tests/test_interp_engine.py::test_workload_matches_frozen

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_BENCH_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Regenerate every paper figure/table over the full suite (~10 min).
experiments:
	$(PYTHON) -m repro.experiments.table2_classification
	$(PYTHON) -m repro.experiments.fig4_limit_study
	$(PYTHON) -m repro.experiments.fig8_path_cdf
	$(PYTHON) -m repro.experiments.fig9_avg_paths
	$(PYTHON) -m repro.experiments.fig10_overheads
	$(PYTHON) -m repro.experiments.fig12_recovery

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/fault_recovery.py
	$(PYTHON) examples/limit_study.py soplex blackscholes
	$(PYTHON) examples/compiler_explorer.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
