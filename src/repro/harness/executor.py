"""Parallel work-unit execution with deterministic seed derivation.

:class:`TaskExecutor` shards independent work units — per-workload
builds, per-seed fault trials, per-config sweep points — across one
``ProcessPoolExecutor``.  ``jobs=1`` (the default) or a single unit
executes inline with identical semantics, and a process pool that cannot
start (no ``/dev/shm``, restricted sandbox) degrades to inline execution
rather than failing the run.

Determinism rules:

- Work functions must be *pure* module-level functions of their item
  (process pools pickle them by qualified name).
- Randomized units must derive their RNG state via :func:`derive_seed`
  rather than sharing a sequential RNG stream, so results do not depend
  on how units are sharded across processes.

Failures: nothing runs twice in one invocation.  A unit whose own code
raised comes back as :data:`UNIT_ERROR`; a unit whose worker died, or
whose result could not cross the pool, as :data:`WORKER_LOST` — and
since a dead worker breaks the pool, so does every unit that had not
finished.  Each failed :class:`TaskResult` keeps its key.  Recovery is
the paper's (§2.3): re-execute from the last durable restart point.
Campaign drivers record a failed unit as a ``failed`` manifest row, and
re-running the command executes exactly the units that are not done.

Observability: pool workers record into their *own* process's
:mod:`repro.obs` observer.  Each unit runs against a fresh metrics
registry, and its delta (plus any spans it traced) ships back on the
:class:`TaskResult`; the parent folds both into its global observer as
results arrive.  Because counter/histogram merge is exact and
order-independent, a parallel run's aggregates equal a serial run's.
"""

from __future__ import annotations

import hashlib
import sys
import time
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.obs.context import get_observer
from repro.obs.metrics import MetricsRegistry

#: Recursion headroom for (un)pickling artifacts.  IR use-def chains can
#: nest a few thousand objects deep — past Python's default limit of
#: 1000 — and process pools pickle every argument and result.
PICKLE_RECURSION_LIMIT = 10_000

#: The unit's own code raised.
UNIT_ERROR = "unit-error"
#: The worker process died, or the pool could not transport the unit or
#: its result; the unit may never have run.
WORKER_LOST = "worker-lost"


class PermanentUnitError(RuntimeError):
    """A unit failure that names its cause in the build, not the harness.

    Work functions raise this when the unit cannot succeed on this input
    at all — e.g. a fault-campaign unit whose *reference* run crashes,
    which means the build itself is broken.
    """


def ensure_deep_pickle() -> None:
    """Raise this process's recursion limit for deep artifact pickles."""
    if sys.getrecursionlimit() < PICKLE_RECURSION_LIMIT:
        sys.setrecursionlimit(PICKLE_RECURSION_LIMIT)


def derive_seed(root_seed: object, *path: object) -> int:
    """Spawn-key-style child seed: hash the root seed and a derivation path.

    Mirrors the NumPy ``SeedSequence.spawn`` idea with nothing but
    ``hashlib``: every distinct ``(root, path)`` pair gets a statistically
    independent 63-bit seed, and the mapping is stable across processes,
    platforms, and Python versions.  A sharded campaign that seeds trial
    *i* with ``derive_seed(seed, "trial", i)`` therefore injects exactly
    the fault set a serial campaign does.
    """
    h = hashlib.sha256()
    h.update(repr(root_seed).encode("utf-8"))
    for part in path:
        h.update(b"\x1f")
        h.update(repr(part).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big") >> 1


@dataclass
class TaskResult:
    """One executed work unit: its key, value, and wall time."""

    key: object
    value: object = None
    seconds: float = 0.0
    error: Optional[str] = None
    #: :data:`UNIT_ERROR` or :data:`WORKER_LOST`; ``None`` when ok.
    category: Optional[str] = None
    #: Worker-process observability payload ({"metrics": ..., "spans": ...});
    #: consumed (and cleared) by the parent when the result arrives.
    obs: Optional[dict] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None


def _run_unit(
    fn: Callable,
    key: object,
    item: object,
    capture_obs: bool = False,
    enable_trace: bool = False,
) -> TaskResult:
    """Worker-side wrapper: times the unit and captures its failure.

    With ``capture_obs`` (the pool path), the unit runs against a fresh
    metrics registry whose snapshot — plus any spans the unit traced —
    ships back on the result, so the parent can aggregate.  The worker's
    own cumulative registry stays consistent (the delta is folded back).
    """
    ensure_deep_pickle()  # the pool pickles this unit's result
    observer = None
    unit_metrics = None
    span_mark = 0
    if capture_obs:
        observer = get_observer()
        if enable_trace and not observer.enabled:
            observer.enable()
        span_mark = observer.tracer.mark()
        inherited = observer.metrics
        unit_metrics = MetricsRegistry()
        observer.metrics = unit_metrics
    started = time.perf_counter()
    value, error, category = None, None, None
    try:
        value = fn(item)
    except Exception as exc:  # propagated via TaskResult.error
        error, category = f"{type(exc).__name__}: {exc}", UNIT_ERROR
    finally:
        seconds = time.perf_counter() - started
        obs_payload = None
        if capture_obs:
            observer.metrics = inherited
            delta = unit_metrics.snapshot()
            inherited.merge_snapshot(delta)
            obs_payload = {
                "metrics": delta,
                "spans": observer.tracer.spans_since(span_mark),
            }
    return TaskResult(
        key=key, value=value, seconds=seconds, error=error,
        category=category, obs=obs_payload,
    )


def _settle(future: Future, key: object) -> TaskResult:
    """A pool future's result, with a dead worker as :data:`WORKER_LOST`
    and the unit's metrics and spans folded into this process."""
    try:
        result = future.result()
    except Exception as exc:
        return TaskResult(
            key=key, error=f"{type(exc).__name__}: {exc}",
            category=WORKER_LOST,
        )
    if result.obs:
        observer = get_observer()
        observer.metrics.merge_snapshot(result.obs.get("metrics") or {})
        observer.tracer.adopt(result.obs.get("spans") or [])
        result.obs = None
    return result


class UnitsFailed(RuntimeError):
    """Work units of one :meth:`TaskExecutor.map` failed: the message
    names every one, in item order, with its category and error, on one
    line."""

    def __init__(self, failed: List[TaskResult]) -> None:
        self.failed = failed
        units = "; ".join(
            f"{result.key!r} {result.category} ({' '.join(result.error.split())})"
            for result in failed
        )
        super().__init__(f"{len(failed)} work unit(s) failed: {units}")


class TaskExecutor:
    """Runs ``fn(item)`` over items, inline or across worker processes."""

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, int(jobs or 1))
        #: True once a pool failed to start and the units ran inline.
        self.degraded = False

    def map(
        self,
        fn: Callable,
        items: Sequence[object],
        keys: Optional[Sequence[object]] = None,
    ) -> List[TaskResult]:
        """Execute every item; results come back in item order.

        Once all units finish, any that failed raise one
        :class:`UnitsFailed` naming each of them;
        ``imap(..., ordered=True)`` yields failures as
        ``TaskResult.error`` strings instead.
        """
        results = list(self.imap(fn, items, keys=keys, ordered=True))
        failed = [result for result in results if not result.ok]
        if failed:
            raise UnitsFailed(failed)
        return results

    def imap(
        self,
        fn: Callable,
        items: Sequence[object],
        keys: Optional[Sequence[object]] = None,
        ordered: bool = False,
    ) -> Iterator[TaskResult]:
        """Yield results as units finish (or in item order when ``ordered``).

        Completion-order streaming is what lets the campaign manifest
        record units the moment they finish, so a killed run loses at
        most the unfinished units.
        """
        items = list(items)
        keys = items if keys is None else list(keys)
        if len(keys) != len(items):
            raise ValueError("keys and items must have equal length")
        submitted = None
        if self.jobs > 1 and len(items) > 1:
            submitted = self._submit(fn, items, keys)
        if submitted is None:
            for key, item in zip(keys, items):
                yield _run_unit(fn, key, item)
            return
        pool, futures = submitted
        finished = False
        try:
            stream = futures if ordered else as_completed(futures)
            for future in stream:
                yield _settle(future, futures[future])
            finished = True
        finally:
            if not finished:
                # Abandoned mid-run (a closed generator, as fuzz's time
                # budget does): stop the units still running.
                for process in list((pool._processes or {}).values()):
                    process.terminate()
            pool.shutdown(wait=finished, cancel_futures=True)

    def _submit(self, fn: Callable, items: list, keys: list):
        """``(pool, {future: key})`` in item order, or None when no pool
        starts; a pool that breaks while filling fails the rest."""
        ensure_deep_pickle()  # the parent unpickles worker results
        enable_trace = get_observer().enabled
        futures: Dict[Future, object] = {}
        pool = None
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(items)),
                initializer=ensure_deep_pickle,
            )
            futures[pool.submit(
                _run_unit, fn, keys[0], items[0], True, enable_trace
            )] = keys[0]
        except Exception:  # no worker started: run inline
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            self.degraded = True
            return None
        for key, item in zip(keys[1:], items[1:]):
            try:
                future = pool.submit(
                    _run_unit, fn, key, item, True, enable_trace
                )
            except Exception as exc:  # the pool broke: a worker died
                future = Future()
                future.set_exception(exc)
            futures[future] = key
        return pool, futures
