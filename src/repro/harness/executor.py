"""Parallel work-unit execution with deterministic seed derivation.

:class:`TaskExecutor` shards independent work units — per-workload
builds, per-seed fault trials, per-config sweep points — across a
``ProcessPoolExecutor``.  ``jobs=1`` (the default) executes inline with
identical semantics, and any failure to stand up a process pool (no
``/dev/shm``, restricted sandbox) silently degrades to inline execution
rather than failing the run.

Determinism rules:

- Work functions must be *pure* module-level functions of their item
  (process pools pickle them by qualified name).
- Randomized units must derive their RNG state via :func:`derive_seed`
  rather than sharing a sequential RNG stream, so results do not depend
  on how units are sharded across processes.

Resilience (see :mod:`repro.harness.resilience`): the executor treats
its own workers the way the paper treats a faulting processor — a unit
is an idempotent region, and recovery is re-execution from its entry.

- Units queue in the *parent*; at most ``jobs`` futures are in flight,
  so a broken pool blasts only the in-flight units (queued units are
  re-submitted to the fresh pool without consuming retry budget) and a
  per-unit wall-clock deadline approximates actual running time.
- A worker killed by a signal (``BrokenProcessPool``) or a hung unit
  (``unit_timeout`` exceeded — the pool is killed and rebuilt) is a
  *transient* failure: the unit re-executes on a fresh worker, after a
  deterministic exponential backoff, up to its attempt budget.
- A unit that raises is a *permanent* failure: it fails immediately
  with its key, category, and attempt count attached.
- ``chaos`` (a :class:`~repro.harness.resilience.ChaosPolicy`) lets
  tests make workers crash / hang / raise on chosen units to prove all
  of this; the executor is the one place it is injected.

Observability: pool workers record into their *own* process's
:mod:`repro.obs` observer.  Each unit runs against a fresh metrics
registry, and its delta (plus any spans it traced) ships back on the
:class:`TaskResult`; the parent folds both into its global observer as
results are settled.  Because counter/histogram merge is exact and
order-independent, a parallel run's aggregates equal a serial run's.
Retries and timeouts are visible as ``harness.retries`` /
``harness.timeouts`` counters and ``harness.retry`` trace events.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.harness.resilience import (
    DEFAULT_RETRY,
    TIMEOUT,
    UNIT_ERROR,
    WORKER_LOST,
    ChaosPolicy,
    RetryPolicy,
)
from repro.obs.context import get_observer
from repro.obs.metrics import MetricsRegistry

#: Recursion headroom for (un)pickling artifacts.  IR use-def chains can
#: nest a few thousand objects deep — past Python's default limit of
#: 1000 — and process pools pickle every argument and result.
PICKLE_RECURSION_LIMIT = 10_000


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
    #: Total executions of this unit (1 = succeeded/failed first try).
    attempts: int = 1
    #: Failure category from the :mod:`repro.harness.resilience`
    #: taxonomy; ``None`` for successful units.
    category: Optional[str] = None
    #: Worker-process observability payload ({"metrics": ..., "spans": ...});
    #: consumed (and cleared) by the parent when the result is settled.
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
    attempt: int = 1,
    chaos: Optional[ChaosPolicy] = None,
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
    try:
        if chaos is not None:
            chaos.apply(key, attempt)  # may os._exit, hang, or raise
        value = fn(item)
        error = None
    except Exception as exc:  # propagated via TaskResult.error
        value = None
        error = f"{type(exc).__name__}: {exc}"
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
        attempts=attempt, obs=obs_payload,
    )


@dataclass
class _UnitTask:
    """Parent-side state of one unit across submissions and retries."""

    key: object
    item: object
    index: int
    attempt: int = 1
    deadline: Optional[float] = None  # monotonic; None = no timeout


class TaskExecutor:
    """Runs ``fn(item)`` over items, inline or across worker processes.

    ``retry`` (default :data:`~repro.harness.resilience.DEFAULT_RETRY`:
    one free re-execution of pool-level failures), ``unit_timeout``
    (seconds of wall clock per unit before its worker is killed; must be
    positive and finite, ``None`` means no limit), and ``chaos``
    (worker-failure injection, pool path only) make the executor survive
    its own workers' faults; see the module docstring.
    """

    def __init__(
        self,
        jobs: int = 1,
        retry: Optional[RetryPolicy] = None,
        unit_timeout: Optional[float] = None,
        chaos: Optional[ChaosPolicy] = None,
    ) -> None:
        if unit_timeout is not None and not 0 < unit_timeout < math.inf:
            raise ValueError(
                f"unit_timeout must be > 0 and finite, got {unit_timeout!r}"
            )
        self.jobs = max(1, int(jobs or 1))
        self.retry = retry
        self.unit_timeout = unit_timeout
        self.chaos = chaos
        #: True once a pool failed to start and we fell back inline.
        self.degraded = False

    # ------------------------------------------------------------------
    @property
    def _policy(self) -> RetryPolicy:
        return self.retry if self.retry is not None else DEFAULT_RETRY

    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable,
        items: Sequence[object],
        keys: Optional[Sequence[object]] = None,
    ) -> List[TaskResult]:
        """Execute every item; results come back in item order.

        The first failed unit raises after all units finish;
        ``imap(..., ordered=True)`` yields failures as
        ``TaskResult.error`` strings instead.
        """
        results = list(self.imap(fn, items, keys=keys, ordered=True))
        for result in results:
            if not result.ok:
                raise RuntimeError(
                    f"work unit {result.key!r} failed: {result.error}"
                )
        return results

    def imap(
        self,
        fn: Callable,
        items: Sequence[object],
        keys: Optional[Sequence[object]] = None,
        ordered: bool = False,
    ) -> Iterator[TaskResult]:
        """Yield results as units finish (or in order when ``ordered``).

        Completion-order streaming is what lets the campaign manifest
        record units the moment they finish, so a killed run loses at
        most the in-flight units.
        """
        items = list(items)
        if keys is None:
            keys = items
        keys = list(keys)
        if len(keys) != len(items):
            raise ValueError("keys and items must have equal length")

        if self.jobs == 1 or len(items) <= 1:
            yield from self._imap_inline(fn, items, keys)
            return
        ensure_deep_pickle()  # the parent unpickles worker results
        if ordered:
            buffered: Dict[int, TaskResult] = {}
            next_index = 0
            for index, result in self._imap_pool(fn, items, keys):
                buffered[index] = result
                while next_index in buffered:
                    yield buffered.pop(next_index)
                    next_index += 1
        else:
            for _, result in self._imap_pool(fn, items, keys):
                yield result

    # ------------------------------------------------------------------
    # Pool orchestration: parent-side queue, retries, timeouts, rebuilds
    # ------------------------------------------------------------------
    def _new_pool(self, size: int) -> Optional[ProcessPoolExecutor]:
        try:
            return ProcessPoolExecutor(
                max_workers=min(self.jobs, size),
                initializer=ensure_deep_pickle,
            )
        except Exception:
            return None

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Terminate worker processes (hung units included) and discard."""
        try:
            processes = list((pool._processes or {}).values())
        except Exception:
            processes = []
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def _imap_pool(
        self, fn: Callable, items: Sequence[object], keys: Sequence[object]
    ) -> Iterator[Tuple[int, TaskResult]]:
        observer = get_observer()
        policy = self._policy
        max_workers = min(self.jobs, len(items))
        pool = self._new_pool(len(items))
        enable_trace = observer.enabled

        pending: deque = deque(
            _UnitTask(key=key, item=item, index=index)
            for index, (key, item) in enumerate(zip(keys, items))
        )
        delayed: List[Tuple[float, _UnitTask]] = []  # backoff waits
        inflight: Dict[object, _UnitTask] = {}       # future -> task
        finished: List[Tuple[int, TaskResult]] = []

        def run_inline(task: _UnitTask) -> None:
            # Degraded path: no chaos (a crash would kill the parent)
            # and no preemption, so no timeout either.
            result = _run_unit(fn, task.key, task.item)
            result.attempts = task.attempt
            if result.error:
                result.category = UNIT_ERROR
            finished.append((task.index, result))

        def submit(task: _UnitTask) -> None:
            nonlocal pool
            for _ in range(2):  # one lazy rebuild on a broken/shut pool
                if pool is None:
                    break
                try:
                    future = pool.submit(
                        _run_unit, fn, task.key, task.item, True,
                        enable_trace, task.attempt, self.chaos,
                    )
                except Exception:
                    self._kill_pool(pool)
                    pool = self._new_pool(len(items))
                    continue
                task.deadline = (
                    time.monotonic() + self.unit_timeout
                    if self.unit_timeout is not None else None
                )
                inflight[future] = task
                return
            self.degraded = True
            run_inline(task)

        def fail_or_retry(task: _UnitTask, category: str, error: str,
                          seconds: float = 0.0) -> None:
            if policy.should_retry(category, task.attempt):
                delay = policy.delay(task.key, task.attempt)
                observer.counter("harness.retries").inc(category=category)
                observer.tracer.instant(
                    "harness.retry", key=str(task.key),
                    attempt=task.attempt, category=category,
                    delay_s=round(delay, 6), error=error,
                )
                task.attempt += 1
                delayed.append((time.monotonic() + delay, task))
            else:
                finished.append((task.index, TaskResult(
                    key=task.key, error=error, seconds=seconds,
                    attempts=task.attempt, category=category,
                )))

        def settle(future, task: _UnitTask) -> None:
            try:
                result = future.result()
            except Exception as exc:
                # Pool-level breakage: the worker died (a signal, a
                # chaos crash) or the result could not be transported.
                # The unit is idempotent — re-execute it from its entry.
                fail_or_retry(
                    task, WORKER_LOST, f"{type(exc).__name__}: {exc}"
                )
                return
            self._absorb_obs(result)
            result.attempts = task.attempt
            if result.error:
                result.category = UNIT_ERROR  # the unit's own: never retried
            finished.append((task.index, result))

        try:
            while pending or delayed or inflight:
                now = time.monotonic()
                if delayed:  # promote due backoff waiters
                    due = [t for when, t in delayed if when <= now]
                    delayed = [(w, t) for w, t in delayed if w > now]
                    pending.extendleft(reversed(due))
                while pending and len(inflight) < max_workers:
                    if pool is None:  # unrecoverable pool: drain inline
                        self.degraded = True
                        run_inline(pending.popleft())
                        continue
                    submit(pending.popleft())
                if not inflight:
                    if delayed:
                        next_due = min(when for when, _ in delayed)
                        time.sleep(max(0.0, next_due - time.monotonic()))
                    yield from finished
                    finished.clear()
                    continue

                wakeups = [t.deadline for t in inflight.values()
                           if t.deadline is not None]
                wakeups += [when for when, _ in delayed]
                timeout = (
                    max(0.0, min(wakeups) - time.monotonic()) + 0.02
                    if wakeups else None
                )
                done, _ = wait(
                    set(inflight), timeout=timeout,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    settle(future, inflight.pop(future))

                now = time.monotonic()
                expired = {
                    future: task for future, task in inflight.items()
                    if task.deadline is not None and task.deadline <= now
                }
                if expired:
                    # A hung worker cannot be interrupted individually:
                    # kill the whole pool, time out the expired units,
                    # and re-submit the surviving in-flight units to a
                    # fresh pool at their *current* attempt — they did
                    # not fail, their workers were collateral.
                    observer.counter("harness.timeouts").inc(len(expired))
                    survivors = [task for future, task in inflight.items()
                                 if future not in expired]
                    inflight.clear()
                    if pool is not None:
                        self._kill_pool(pool)
                    pool = self._new_pool(len(items))
                    pending.extendleft(reversed(survivors))
                    for task in expired.values():
                        fail_or_retry(
                            task, TIMEOUT,
                            f"TimeoutError: unit exceeded "
                            f"{self.unit_timeout:g}s wall-clock limit",
                            seconds=float(self.unit_timeout),
                        )
                yield from finished
                finished.clear()
        finally:
            if pool is not None and inflight:
                self._kill_pool(pool)  # abandoned mid-run (gen close)
                pool = None
            if pool is not None:
                pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    @staticmethod
    def _absorb_obs(result: TaskResult) -> TaskResult:
        """Fold a worker unit's metrics delta and spans into this process."""
        payload = result.obs
        if payload:
            observer = get_observer()
            observer.metrics.merge_snapshot(payload.get("metrics") or {})
            observer.tracer.adopt(payload.get("spans") or [])
            result.obs = None
        return result

    def _imap_inline(
        self, fn: Callable, items: Iterable[object], keys: Iterable[object]
    ) -> Iterator[TaskResult]:
        for key, item in zip(keys, items):
            result = _run_unit(fn, key, item)
            if result.error:
                result.category = UNIT_ERROR
            yield result
