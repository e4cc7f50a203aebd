"""repro.bench — the committed performance trajectory of the compiler.

``python -m repro bench`` times the pipeline's phases (frontend,
transforms, region construction with its sub-phases, codegen, simulator)
per workload via the :mod:`repro.obs` span tracer, and writes a
schema-tagged ``BENCH_<label>.json`` that ``repro stats`` validates like
any other observability artifact.

Two consumption modes:

- **trajectory** — ``BENCH_baseline.json`` is committed at the repo root;
  every perf-relevant PR regenerates it so the history of phase timings
  lives in version control;
- **regression gate** — ``repro bench --baseline FILE --max-regression
  PCT`` exits nonzero when any phase slowed down by more than the
  threshold (CI runs this informationally with a generous threshold).

See ``docs/performance.md`` for the workflow and the JSON schema.
"""

from repro.bench.campaign_cache import (
    CAMPAIGN_CACHE_SCHEMA,
    load_campaign_cache_file,
    run_campaign_cache_bench,
    summarize_campaign_cache,
    validate_campaign_cache_file,
    write_campaign_cache_json,
)
from repro.bench.compare import BenchRegression, compare_bench, format_comparison
from repro.bench.recovery import (
    RECOVERY_BENCH_SCHEMA,
    load_recovery_bench_file,
    recovery_bench_payload,
    summarize_recovery_bench,
    validate_recovery_bench_file,
    write_recovery_bench_json,
)
from repro.bench.runner import (
    BENCH_SCHEMA,
    FAST_SUBSET,
    BenchError,
    default_workloads,
    load_bench_file,
    run_bench,
    summarize_bench,
    validate_bench_file,
    write_bench_json,
)

__all__ = [
    "BENCH_SCHEMA",
    "BenchError",
    "BenchRegression",
    "CAMPAIGN_CACHE_SCHEMA",
    "FAST_SUBSET",
    "RECOVERY_BENCH_SCHEMA",
    "compare_bench",
    "default_workloads",
    "format_comparison",
    "load_bench_file",
    "load_campaign_cache_file",
    "load_recovery_bench_file",
    "recovery_bench_payload",
    "run_bench",
    "run_campaign_cache_bench",
    "summarize_bench",
    "summarize_campaign_cache",
    "summarize_recovery_bench",
    "validate_bench_file",
    "validate_campaign_cache_file",
    "validate_recovery_bench_file",
    "write_bench_json",
    "write_campaign_cache_json",
    "write_recovery_bench_json",
]
