"""Benchmark harness configuration.

By default each figure/table bench runs on a representative subset (two
workloads per suite) so `pytest benchmarks/ --benchmark-only` finishes in
a few minutes. Set ``REPRO_BENCH_FULL=1`` to regenerate every figure over
the full 19-workload suite (10-20 minutes; this is what EXPERIMENTS.md
records).
"""

import os

import pytest

from repro.bench.runner import FAST_SUBSET


def default_workloads():
    """``FAST_SUBSET``, or ``None`` (every workload) when
    ``REPRO_BENCH_FULL`` is set."""
    if os.environ.get("REPRO_BENCH_FULL"):
        return None
    return list(FAST_SUBSET)


@pytest.fixture(scope="session")
def workload_names():
    return default_workloads()
