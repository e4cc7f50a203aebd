"""repro.bench — the fixed programs the benchmark runs.

The repository's benchmark is ``perfbench/`` (declared by
``BENCHMARK.json``; see ``docs/performance.md``).  This package holds
the program sets it shares with the tests and the figure suite:

- :data:`repro.bench.runner.FAST_SUBSET` — two workloads per suite, the
  ``simulate`` workload of perfbench and the default selection of
  ``benchmarks/``;
- :mod:`repro.bench.campaign_cache` — the two-function kernel and its
  one-function edit, the ``recampaign`` workload of perfbench and the
  selective-staleness fixture of the incremental-campaign tests.
"""
