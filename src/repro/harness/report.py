"""Run telemetry: wall time, per-phase breakdown, cache effectiveness.

Every harness entry point builds a :class:`Telemetry`, times its phases
with :meth:`Telemetry.phase`, attaches the caches it used, and prints
:meth:`Telemetry.format_summary` — the human-readable accounting of
where a run's time went and how much work the artifact cache avoided.

Telemetry is a *run-scoped view over* :mod:`repro.obs`, not a separate
counter store: ``phase`` records a ``harness.<name>`` span and
accumulates ``harness.phase.seconds`` / ``harness.phase.units``
counters on the global metrics registry, and the summary is computed
from the registry's delta since the Telemetry was constructed.  That
delta includes whatever :class:`~repro.harness.executor.TaskExecutor`
workers shipped back, so cache effectiveness is accounted across the
whole process tree.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import List, Optional, Tuple

from repro.harness.cache import CacheStats, ContentStore
from repro.obs.context import Observer, get_observer
from repro.obs.metrics import counter_values, diff_snapshots


class Telemetry:
    """Wall-clock and metrics accounting for one harness run."""

    def __init__(self, label: str = "run", observer: Optional[Observer] = None) -> None:
        self.label = label
        self.observer = observer or get_observer()
        self.notes: List[str] = []
        self._caches: List[ContentStore] = []
        self._phase_order: List[str] = []
        self._baseline = self.observer.metrics.snapshot()
        self._started = time.perf_counter()
        self._finished: Optional[float] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str, units: int = 0):
        """Time a phase; re-entering the same name accumulates."""
        started = time.perf_counter()
        with self.observer.span(f"harness.{name}", run=self.label):
            try:
                yield
            finally:
                self.add_phase(name, time.perf_counter() - started, units)

    def add_phase(self, name: str, seconds: float, units: int = 0) -> None:
        if name not in self._phase_order:
            self._phase_order.append(name)
        metrics = self.observer.metrics
        metrics.counter("harness.phase.seconds").inc(
            seconds, run=self.label, phase=name
        )
        if units:
            metrics.counter("harness.phase.units").inc(
                units, run=self.label, phase=name
            )

    def note(self, text: str) -> None:
        self.notes.append(text)

    def attach_cache(self, cache: ContentStore) -> None:
        """Include a cache's counters (since this run began) in the summary."""
        if all(cache.root != known.root for known in self._caches):
            self._caches.append(cache)

    def finish(self) -> float:
        """Freeze total wall time; returns it in seconds."""
        if self._finished is None:
            self._finished = time.perf_counter()
        return self.wall_seconds

    @property
    def wall_seconds(self) -> float:
        end = self._finished if self._finished is not None else time.perf_counter()
        return end - self._started

    # ------------------------------------------------------------------
    # Reporting (computed from the registry delta since construction)
    # ------------------------------------------------------------------
    def _delta(self) -> dict:
        return diff_snapshots(self._baseline, self.observer.metrics.snapshot())

    def phase_stats(self) -> List[Tuple[str, float, int]]:
        """(name, seconds, units) per phase of *this* run, in first-use order."""
        delta = self._delta()
        seconds = {
            labels.get("phase"): value
            for labels, value in counter_values(delta, "harness.phase.seconds")
            if labels.get("run") == self.label
        }
        units = {
            labels.get("phase"): value
            for labels, value in counter_values(delta, "harness.phase.units")
            if labels.get("run") == self.label
        }
        names = list(self._phase_order)
        names += [n for n in seconds if n not in names]
        return [
            (name, seconds.get(name, 0.0), int(units.get(name, 0)))
            for name in names
        ]

    def cache_stats(self) -> Optional[CacheStats]:
        """Summed counters of every attached cache since this run began."""
        if not self._caches:
            return None
        delta = self._delta()
        total = CacheStats()
        for cache in self._caches:
            total.merge(CacheStats.from_snapshot(delta, cache))
        return total

    def format_summary(self) -> str:
        lines = [f"[harness] {self.label}: {self.wall_seconds:.2f}s wall"]
        for name, seconds, units in self.phase_stats():
            detail = f"  phase {name:<12s} {seconds:8.2f}s"
            if units:
                detail += f"  ({units} units)"
            lines.append(detail)
        cache_stats = self.cache_stats()
        if cache_stats is not None:
            lines.append(f"  cache: {cache_stats.summary()}")
        for text in self.notes:
            lines.append(f"  {text}")
        return "\n".join(lines)
