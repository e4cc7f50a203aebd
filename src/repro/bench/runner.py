"""The fast workload subset shared by perfbench, ``benchmarks/`` and the
analysis-cache tests."""

#: Two workloads per suite (``REPRO_BENCH_FULL=1`` makes ``benchmarks/``
#: run the full suite instead).
FAST_SUBSET = ["bzip2", "mcf", "soplex", "sphinx", "blackscholes", "canneal"]
