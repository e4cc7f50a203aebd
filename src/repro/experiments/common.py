"""Shared infrastructure for the experiment drivers.

Each ``figN_*`` module exposes ``run(names=None, jobs=None)`` returning a
result object and ``format_report(result)`` producing the text table the
paper's figure corresponds to. ``python -m repro.experiments.figN_...``
prints it.

Builds go through :mod:`repro.harness`: an in-process memo keeps object
identity within one run (so every driver measuring ``bzip2`` shares the
same :class:`CompileResult`), backed by the persistent content-addressed
artifact cache in ``.repro-cache/`` shared across processes and runs.
Per-workload work units fan out over a process pool via
:func:`map_workloads` when ``jobs > 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.compiler import CompileResult, compile_minic
from repro.harness.cache import cache_key, cached_compile, default_cache
from repro.harness.executor import TaskExecutor
from repro.harness.report import Telemetry
from repro.workloads import SUITES, Workload, all_workloads, get_workload


def geomean(values: Sequence[float]) -> float:
    """Geometric mean; zero/negative entries are clamped to a small epsilon."""
    cleaned = [max(v, 1e-9) for v in values]
    if not cleaned:
        return 0.0
    return math.exp(sum(math.log(v) for v in cleaned) / len(cleaned))


# ----------------------------------------------------------------------
# Build orchestration (repro.harness)
# ----------------------------------------------------------------------
@dataclass
class HarnessOptions:
    """Process-wide defaults threaded down from the CLI."""

    jobs: int = 1
    use_cache: bool = True


_options = HarnessOptions()

#: name -> (original, idempotent); preserves object identity per process.
_pair_memo: Dict[str, Tuple[CompileResult, CompileResult]] = {}


def configure(
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
) -> HarnessOptions:
    """Set the default parallelism / caching for driver runs."""
    if jobs is not None:
        _options.jobs = max(1, int(jobs))
    if use_cache is not None:
        _options.use_cache = bool(use_cache)
    return _options


def current_options() -> HarnessOptions:
    return _options


def clear_build_memo() -> None:
    """Forget in-process builds (tests; the disk cache is unaffected)."""
    _pair_memo.clear()


def build_pair(name: str) -> Tuple[CompileResult, CompileResult]:
    """(original, idempotent) builds of a workload.

    Memoised per process for identity, persisted through the artifact
    cache so later processes and runs skip the compile entirely.
    """
    pair = _pair_memo.get(name)
    if pair is not None:
        return pair
    workload = get_workload(name)
    if _options.use_cache:
        original = cached_compile(workload.source, idempotent=False, name=name)
        idempotent = cached_compile(workload.source, idempotent=True, name=name)
    else:
        original = compile_minic(workload.source, idempotent=False, name=name)
        idempotent = compile_minic(workload.source, idempotent=True, name=name)
    pair = (original, idempotent)
    _pair_memo[name] = pair
    return pair


def _compile_unit(build: Tuple[str, bool]) -> CompileResult:
    """Worker-side pure compile of one flavour (no cache I/O)."""
    name, idempotent = build
    return compile_minic(
        get_workload(name).source, idempotent=idempotent, name=name
    )


def prebuild_pairs(
    names: Optional[Iterable[str]] = None,
    jobs: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
) -> int:
    """Populate the build memo for the given workloads; returns #compiled.

    Cache lookups and stores happen in the parent process — workers only
    run the pure compile — so hit/miss counters are accurate and workers
    never contend on the object store.  Only the flavours whose cache
    entry missed compile, sharded ``jobs``-wide.
    """
    workloads = resolve_workloads(names)
    jobs = _options.jobs if jobs is None else max(1, int(jobs))
    cache = default_cache()
    builds: Dict[str, Dict[bool, CompileResult]] = {}
    missing: List[Tuple[str, bool]] = []
    keys: List[str] = []
    telemetry = telemetry or Telemetry()
    with telemetry.phase("build", units=len(workloads)):
        for workload in workloads:
            if workload.name in _pair_memo:
                continue
            found = builds[workload.name] = {}
            for idempotent in (False, True):
                key = cache_key(
                    workload.source, idempotent=idempotent, name=workload.name
                )
                build = cache.get(key) if _options.use_cache else None
                if isinstance(build, CompileResult):
                    found[idempotent] = build
                else:
                    missing.append((workload.name, idempotent))
                    keys.append(key)
        if missing:
            results = TaskExecutor(jobs).map(_compile_unit, missing)
            for (name, idempotent), key, result in zip(missing, keys, results):
                builds[name][idempotent] = result.value
                if _options.use_cache:
                    cache.put(key, result.value)
        for name, found in builds.items():
            _pair_memo[name] = (found[False], found[True])
    compiled = {name for name, _ in missing}
    for name in compiled:
        obs.counter("harness.builds").inc(workload=name)
    return len(compiled)


def map_workloads(
    fn: Callable[[str], object],
    names: Optional[Iterable[str]] = None,
    jobs: Optional[int] = None,
    prebuild: bool = True,
    telemetry: Optional[Telemetry] = None,
) -> List[Tuple[Workload, object]]:
    """Apply a module-level ``fn(name)`` per workload, in workload order.

    With ``jobs > 1`` the per-workload measurements shard across a
    process pool; builds are prebuilt in the parent first so forked
    workers inherit the memo and never recompile.  Results are returned
    in workload order regardless of completion order, so reports are
    byte-identical to a serial run.
    """
    workloads = resolve_workloads(names)
    jobs = _options.jobs if jobs is None else max(1, int(jobs))
    telemetry = telemetry or Telemetry()
    if prebuild:
        prebuild_pairs([w.name for w in workloads], jobs=jobs, telemetry=telemetry)
    ordered = [w.name for w in workloads]
    with telemetry.phase("measure", units=len(ordered)):
        if jobs <= 1 or len(ordered) <= 1:
            values = [fn(name) for name in ordered]
        else:
            executor = TaskExecutor(jobs)
            values = [result.value for result in executor.map(fn, ordered)]
    return list(zip(workloads, values))


def resolve_workloads(names: Optional[Iterable[str]] = None) -> List[Workload]:
    if names is None:
        return all_workloads()
    return [get_workload(name) for name in names]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Plain-text table with right-aligned numeric columns."""
    text_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in text_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def suite_of(name: str) -> str:
    return get_workload(name).suite


def group_by_suite(per_workload: Dict[str, float]) -> Dict[str, float]:
    """Geomean of a per-workload metric within each suite plus overall."""
    grouped: Dict[str, List[float]] = {suite: [] for suite in SUITES}
    for name, value in per_workload.items():
        grouped[suite_of(name)].append(value)
    summary = {
        suite: geomean(values) for suite, values in grouped.items() if values
    }
    if per_workload:
        summary["all"] = geomean(list(per_workload.values()))
    return summary
