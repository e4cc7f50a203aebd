"""Layer timers for the traced run.

Every timer sits around a public entry point of one layer.  Calls that a
top-level function makes internally (``compile_minic`` calling
``select_module``, ``fault_campaign`` calling ``run_planned_trial``, ...)
are timed by swapping the module-level name it looks up at call time for
a timed wrapper, and swapping it back afterwards.  Nothing inside ``src/``
changes, and the untraced runs never see a wrapper: :func:`install`
returns an ``ExitStack`` whose ``close`` restores every original.

The region construction already records ``construction.*`` spans on the
``repro.obs`` tracer.  The traced run reads them by installing an enabled
observer around each ``construct_module_regions`` call only, so the
simulator keeps its untraced fast path (it samples per-region sizes
whenever the global observer traces).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import ExitStack
from typing import Callable, Dict, List, Tuple
from unittest import mock

import repro.compiler as compiler
import repro.harness.incremental as incremental
import repro.sim.faults as faults
import repro.sim.simulator as simulator
from repro.harness.incremental import OutcomeStore
from repro.obs.context import Observer, set_observer
from repro.recovery.backends import CheckpointLogBackend

from clock import Clock

#: ``construction.<phase>`` spans summed into ``core.<phase>_s``.
CORE_PHASES = ("ssa", "antideps", "cuts", "loops", "regions", "verify")

#: (module, attribute, timer) for every public entry point ``compile_minic``
#: calls; together they should cover all of its wall time.
_COMPILE_ENTRY_POINTS = (
    (compiler, "compile_source", "frontend.compile"),
    (compiler, "optimize_module", "transforms.optimize"),
    (compiler, "construct_module_regions", "core.construct"),
    (compiler, "verify_module", "ir.verify"),
    (compiler, "select_module", "codegen.isel"),
    (compiler, "allocate_program", "codegen.regalloc"),
    (compiler, "verify_machine_program", "codegen.mverify"),
)

#: Timers whose busy time makes up one compile (the coverage check).
COMPILE_LAYERS = tuple(timer for _m, _a, timer in _COMPILE_ENTRY_POINTS)

#: Harness steps of ``incremental_campaign``.
_HARNESS_STEPS = (
    ("trace_eligibility", "harness.trace"),
    ("plan_sections", "harness.plan"),
    ("run_section_trials", "harness.inject"),
    ("compose_campaign", "harness.compose"),
)


class Probes:
    """Wall intervals per layer timer, and event counts.

    A call only appends its interval, so that a timer nested in another
    adds almost nothing to the outer one; :meth:`snapshot` converts.
    """

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.intervals: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self.counts: Dict[str, float] = defaultdict(float)
        #: the backend whose campaign is running (set by the campaign workload)
        self.backend = ""
        self.observer = Observer(enabled=True)

    def reset(self) -> None:
        self.intervals.clear()
        self.counts.clear()
        self.observer.tracer.clear()

    def add(self, timer: str, start: float) -> None:
        """Record one call of ``timer`` that began at wall time ``start``."""
        self.intervals[timer].append((start, time.perf_counter()))

    def timed(self, timer: str, function: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.add(timer, start)
        return wrapper

    def snapshot(self) -> dict:
        """Per timer: reference ``seconds``, ``busy`` wall seconds (less the
        clock's kernel, unscaled: for shares of one timer in another) and
        ``calls``; ``core``: reference seconds per ``construction.<phase>``
        span read off the repo's tracer."""
        clock = self.clock
        core = {phase: 0.0 for phase in CORE_PHASES}
        for span in self.observer.tracer.spans():
            family, _, phase = span.name.partition(".")
            if family == "construction" and phase in core:
                start = span.start_ns / 1e9
                core[phase] += clock.seconds(start, start + span.dur_ns / 1e9)
        timers = self.intervals.items()
        return {
            "seconds": {t: sum(clock.seconds(*i) for i in iv) for t, iv in timers},
            "busy": {t: sum(clock.busy(*i) for i in iv) for t, iv in timers},
            "calls": {t: len(iv) for t, iv in timers},
            "core": core,
        }


class TimedStore(OutcomeStore):
    """An outcome store that times and counts its reads and writes."""

    def __init__(self, root: str, probes: Probes) -> None:
        super().__init__(root=root)
        self.probes = probes

    def get(self, key: str):
        start = time.perf_counter()
        record = super().get(key)
        self.probes.add("harness.store_get", start)
        if record is not None:
            self.probes.counts["harness.store_hits"] += 1
        return record

    def put(self, key: str, record: dict) -> None:
        start = time.perf_counter()
        super().put(key, record)
        self.probes.add("harness.store_put", start)


def _timed_simulator(probes: Probes):
    base = simulator.Simulator

    class TimedSimulator(base):
        def __init__(self, *args, **kwargs) -> None:
            start = time.perf_counter()
            super().__init__(*args, **kwargs)
            probes.add("sim.init", start)

        def run(self, *args, **kwargs):
            start = time.perf_counter()
            try:
                return super().run(*args, **kwargs)
            finally:
                probes.add("sim.run", start)
                probes.counts["sim.instructions"] += self.instructions
                probes.counts["sim.cycles"] += self.cycles
                probes.counts["sim.boundaries"] += self.boundaries_crossed

    return TimedSimulator


def install(probes: Probes) -> ExitStack:
    """Wrap every layer entry point; closing the returned stack undoes it."""
    handle = ExitStack()

    def swap(owner: object, attr: str, replacement: object) -> None:
        handle.enter_context(mock.patch.object(owner, attr, replacement))

    swap(compiler, "compile_minic", probes.timed("compile", compiler.compile_minic))
    for module, attr, timer in _COMPILE_ENTRY_POINTS:
        swap(module, attr, probes.timed(timer, getattr(module, attr)))

    construct = compiler.construct_module_regions

    def traced_construct(*args, **kwargs):
        previous = set_observer(probes.observer)
        try:
            return construct(*args, **kwargs)
        finally:
            set_observer(previous)

    swap(compiler, "construct_module_regions", traced_construct)

    timed_sim = _timed_simulator(probes)
    for module in (simulator, faults, incremental):
        swap(module, "Simulator", timed_sim)

    span = faults.campaign_span

    def timed_span(*args, **kwargs):
        start = time.perf_counter()
        result = span(*args, **kwargs)
        probes.add("faults.span", start)
        probes.counts["faults.span_instrs"] += result + 2
        return result

    swap(faults, "campaign_span", timed_span)

    trial = faults.run_planned_trial

    def timed_trial(*args, **kwargs):
        start = time.perf_counter()
        outcome = trial(*args, **kwargs)
        probes.add("faults.trial", start)
        if probes.backend:
            probes.add(f"recovery.{probes.backend}.trial", start)
        probes.counts["faults.injected"] += outcome.injected
        probes.counts["faults.detected"] += outcome.detected
        probes.counts["faults.trial_instrs"] += outcome.instructions
        return outcome

    swap(faults, "run_planned_trial", timed_trial)
    swap(incremental, "run_planned_trial", timed_trial)
    swap(
        CheckpointLogBackend, "campaign_program",
        probes.timed("recovery.checkpoint_log.instrument",
                     CheckpointLogBackend.campaign_program),
    )
    for attr, timer in _HARNESS_STEPS:
        swap(incremental, attr, probes.timed(timer, getattr(incremental, attr)))
    return handle
