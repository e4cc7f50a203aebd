"""Forked fault trials against the frozen full-run trial.

A campaign's trials fork from one golden run of their program
(:func:`repro.sim.faults.record_golden_run`) and stop where their state
rejoins it (:func:`repro.sim.faults.run_planned_trial`).  Every
``FaultOutcome`` field must still be the full re-run's:

- **Differential.** Over ``repro.fuzz.generator.sources(12)`` plus the
  campaign-cache kernel, the ``original``, ``idempotent``, ``tmr`` and
  ``checkpoint_log`` labels, both fault kinds and latency 0, 4 and 12,
  each forked trial equals ``run_with_fault`` of
  ``tests/frozen_injectors.py`` on ``tests/frozen_simulator.py``, field
  by field and bucket by bucket.  Snapshots are taken every 256
  instructions here, so that forks and comparison points are dense.
- **Edges.** A strike before the first snapshot, a target past the last
  fault site, a crash after the fork, a match whose total would pass the
  instruction budget, ``recover=False``, and a golden run that traps or
  outlasts the trial budget.
- **Exact comparison.** ``1`` and ``1.0``, ``0.0`` and ``-0.0``, and a
  NaN never match.
- **Convergence.** How many trials of one fixed campaign rejoin the
  golden run is pinned, so that a change that quietly stops them
  converging fails here.
"""

import dataclasses

import pytest

from repro import obs
from repro.bench.campaign_cache import BASE_SOURCE
from repro.compiler import compile_minic
from repro.fuzz.generator import sources
from repro.harness.executor import derive_seed
from repro.harness.incremental import (
    OutcomeStore,
    campaign_sections,
    campaign_target,
)
from repro.harness.resilience import PermanentUnitError
from repro.recovery.backends import IdempotentBackend, get_backend
from repro.sim import SimLimitExceeded, SimulationError, faults
from repro.sim.faults import (
    FAULT_CONTROL,
    FAULT_VALUE,
    CampaignResult,
    FaultInjector,
    classify_outcome,
    fault_campaign,
    record_golden_run,
    run_planned_trial,
    run_with_fault,
    trial_plan,
)
from tests import frozen_injectors as frozen
from tests import frozen_simulator

CORPUS = sources(12) + [BASE_SOURCE]
LABELS = ("original", "idempotent", "tmr", "checkpoint_log")
KINDS = (FAULT_VALUE, FAULT_CONTROL)
LATENCIES = (0, 4, 12)
TRIALS = 6
SEED = 1712

FROZEN = {
    "original": frozen.FaultInjector,
    "idempotent": frozen.FaultInjector,
    "tmr": frozen.TMRInjector,
    "checkpoint_log": frozen.CheckpointLogInjector,
}


@pytest.fixture
def dense_snapshots(monkeypatch):
    monkeypatch.setattr(faults, "SNAPSHOT_INTERVAL", 256)


@pytest.fixture
def observer():
    """A fresh metrics registry for the test."""
    fresh = obs.Observer()
    previous = obs.set_observer(fresh)
    yield fresh
    obs.set_observer(previous)


def _pair(source):
    return (
        compile_minic(source, idempotent=False).program,
        compile_minic(source, idempotent=True).program,
    )


def _target(pair, label):
    backend = get_backend(label) if label in ("tmr", "checkpoint_log") else None
    return campaign_target(*pair, label, backend)


def _ends(observer):
    """``faults.trials`` by how each trial ended."""
    counter = observer.counter("faults.trials")
    return {end: counter.value(end=end)
            for end in ("converged", "ran_to_end", "crashed")}


@pytest.mark.usefixtures("dense_snapshots")
@pytest.mark.parametrize("program_index", range(len(CORPUS)))
def test_forked_trials_match_frozen_full_runs(program_index):
    pair = _pair(CORPUS[program_index])
    reference_sim = frozen_simulator.Simulator(pair[1])
    reference = reference_sim.run("main"), list(reference_sim.output)
    compared = 0
    for label in LABELS:
        program, factory = _target(pair, label)
        golden = record_golden_run(program, injector_factory=factory)
        for kind in KINDS:
            for latency in LATENCIES:
                results = {"forked": CampaignResult(), "frozen": CampaignResult()}
                for index in range(TRIALS):
                    plan = trial_plan(
                        SEED, index, golden.span, kind=kind,
                        detection_latency=latency,
                    )
                    forked = run_planned_trial(
                        program, SEED, index, golden.span, kind=kind,
                        detection_latency=latency, injector_factory=factory,
                        golden=golden,
                    )
                    old = frozen.run_with_fault(
                        program, plan, injector_factory=FROZEN[label],
                    )
                    where = (label, kind, latency, index)
                    assert dataclasses.asdict(forked) == dataclasses.asdict(old), where
                    bucket = classify_outcome(forked, *reference)
                    assert bucket == classify_outcome(old, *reference), where
                    results["forked"].count(bucket, forked.detected)
                    results["frozen"].count(bucket, old.detected)
                    compared += forked.injected
                assert results["forked"] == results["frozen"]
    assert compared > 0


# ----------------------------------------------------------------------
# Edges of the executor
# ----------------------------------------------------------------------
def _trial(program, golden, index, **kwargs):
    """Trial ``index`` forked from ``golden`` and as a full run."""
    forked = run_planned_trial(
        program, SEED, index, golden.span, golden=golden, **kwargs
    )
    full = run_planned_trial(program, SEED, index, golden.span, **kwargs)
    return forked, full


def _index_where(golden, predicate, kind=FAULT_VALUE):
    """The first trial index whose plan satisfies ``predicate``."""
    for index in range(5000):
        plan = trial_plan(SEED, index, golden.span, kind=kind)
        if predicate(plan):
            return index
    raise AssertionError("no trial index satisfies the predicate")


@pytest.mark.usefixtures("dense_snapshots")
def test_strike_before_the_first_snapshot():
    program = _pair(BASE_SOURCE)[1]
    golden = record_golden_run(program)
    first = golden.forks[0].instructions
    for kind in KINDS:
        index = _index_where(
            golden, lambda plan: plan.strike_count < first, kind=kind
        )
        plan = trial_plan(SEED, index, golden.span, kind=kind)
        assert golden.fork_for(plan) == 0
        forked, full = _trial(program, golden, index, kind=kind)
        assert forked.injected
        assert dataclasses.asdict(forked) == dataclasses.asdict(full)


#: A loop, then a long tail with no conditional branch.
TAIL = """
int main() {
  int acc = 0;
  for (int i = 0; i < 40; i = i + 1) {
    acc = acc + i * 3;
  }
  print_int(acc);
""" + "  acc = acc * 5 + 7;\n" * 300 + """
  return acc;
}
"""


@pytest.mark.usefixtures("dense_snapshots")
def test_target_past_the_last_fault_site_injects_nothing():
    program = compile_minic(TAIL, idempotent=True).program
    golden = record_golden_run(program)
    last_branch = frozen.trace_eligibility(program).control_events[-1]
    index = _index_where(
        golden, lambda plan: plan.target_instruction > last_branch + 300,
        kind=FAULT_CONTROL,
    )
    forked, full = _trial(program, golden, index, kind=FAULT_CONTROL)
    assert golden.fork_for(trial_plan(SEED, index, golden.span, kind=FAULT_CONTROL))
    assert not forked.injected
    assert dataclasses.asdict(forked) == dataclasses.asdict(full)
    assert forked.result == golden.result and forked.output == golden.output


def test_crash_after_the_fork():
    """Trial 6 of ``repro campaign blackscholes --trials 7 --latency 4``
    hands ``sqrt``/``log`` a corrupted argument."""
    from repro.experiments.common import build_pair

    _original, idempotent = build_pair("blackscholes")
    program = idempotent.program
    golden = record_golden_run(program)
    seed = derive_seed(12345, "blackscholes", "idempotent")
    plan = trial_plan(seed, 6, golden.span, detection_latency=4)
    assert golden.fork_for(plan) > 0
    forked = run_planned_trial(
        program, seed, 6, golden.span, detection_latency=4, golden=golden
    )
    full = run_planned_trial(program, seed, 6, golden.span, detection_latency=4)
    assert forked.crashed
    assert dataclasses.asdict(forked) == dataclasses.asdict(full)


@pytest.mark.usefixtures("dense_snapshots")
def test_a_match_past_the_budget_crashes_as_the_full_run(observer):
    program = _pair(BASE_SOURCE)[1]
    golden = record_golden_run(program)
    # A trial that rejoins the golden run with an excess: its roll-back
    # re-ran instructions.
    for index in range(200):
        before = _ends(observer)["converged"]
        forked = run_planned_trial(
            program, SEED, index, golden.span, detection_latency=4,
            golden=golden,
        )
        converged = _ends(observer)["converged"] > before
        if converged and forked.instructions > golden.instructions:
            break
    else:
        raise AssertionError("no trial rejoined with an excess")
    plan = trial_plan(SEED, index, golden.span, detection_latency=4)
    total = forked.instructions
    for budget in (total - 1, golden.instructions, total):
        golden.sim.max_instructions = budget
        forked = run_planned_trial(
            program, SEED, index, golden.span, detection_latency=4,
            golden=golden,
        )
        full = run_with_fault(program, plan, max_instructions=budget)
        assert dataclasses.asdict(forked) == dataclasses.asdict(full), budget
        assert forked.crashed == (budget < total)


@pytest.mark.usefixtures("dense_snapshots")
@pytest.mark.parametrize("label", LABELS)
def test_recover_false(label):
    program, factory = _target(_pair(BASE_SOURCE), label)
    golden = record_golden_run(program, injector_factory=factory)
    for kind in KINDS:
        for index in range(8):
            forked, full = _trial(
                program, golden, index, kind=kind, recover=False,
                injector_factory=factory,
            )
            assert not forked.recovered
            assert dataclasses.asdict(forked) == dataclasses.asdict(full)


class _TrapsFaultFree(FaultInjector):
    """The paper's policy, except that the fault-free run traps after
    100 instructions."""

    def __init__(self, sim, plan, recover=True):
        super().__init__(sim, plan, recover=recover)
        if plan is None:
            sim.pre_hook = self._trap

    def _trap(self, sim, instr):
        if sim.instructions >= 100:
            raise SimulationError("fault-free run trapped")


class _TrapsFaultFreeBackend(IdempotentBackend):
    def make_injector(self, sim, plan, recover=True):
        return _TrapsFaultFree(sim, plan, recover=recover)


def test_a_golden_run_that_traps_fails_the_unit():
    original, idempotent = _pair(BASE_SOURCE)
    with pytest.raises(PermanentUnitError, match="fault-free run failed"):
        campaign_sections(
            original, idempotent, 4, OutcomeStore(enabled=False),
            backend=_TrapsFaultFreeBackend(), name="kernel",
        )


def test_a_golden_run_past_the_trial_budget_fails_the_unit(monkeypatch):
    """The golden run has the trials' budget, so a program whose
    fault-free run outlasts it fails the campaign instead of reporting
    every trial crashed (the kernel runs 7,858 instructions)."""
    monkeypatch.setattr(faults, "TRIAL_MAX_INSTRUCTIONS", 5000)
    original, idempotent = _pair(BASE_SOURCE)
    with pytest.raises(SimLimitExceeded):
        fault_campaign(idempotent, 0, [], trials=12, seed=3)
    with pytest.raises(PermanentUnitError, match="fault-free run failed"):
        campaign_sections(
            original, idempotent, 12, OutcomeStore(enabled=False), seed=3,
            name="kernel",
        )


# ----------------------------------------------------------------------
# Exact comparison
# ----------------------------------------------------------------------
def _paused():
    """A simulator paused mid-run, and its snapshot."""
    program = compile_minic(BASE_SOURCE, idempotent=True).program
    sim = faults.Simulator(program, timed=False)
    sim.start("main")
    assert not sim.resume(500)
    return sim, sim.snapshot()


def test_an_unchanged_state_matches():
    sim, snapshot = _paused()
    assert sim.matches(snapshot)
    sim.resume(501)
    assert not sim.matches(snapshot)


@pytest.mark.parametrize("ours, theirs", [
    (1, 1.0), (1.0, 1), (0.0, -0.0), (float("nan"), float("nan")),
])
def test_equal_but_different_values_do_not_match(ours, theirs):
    for where in ("register", "memory"):
        sim, snapshot = _paused()
        if where == "register":
            sim.int_regs[3] = ours
            snapshot.int_regs[3] = theirs
        else:
            addr = next(iter(snapshot.cells))
            sim.memory.cells[addr] = ours
            snapshot.cells[addr] = theirs
        assert not sim.matches(snapshot), where


def test_a_nan_does_not_match_itself():
    sim, snapshot = _paused()
    nan = float("nan")
    sim.float_regs[2] = snapshot.float_regs[2] = nan
    assert not sim.matches(snapshot)


# ----------------------------------------------------------------------
# Convergence
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("dense_snapshots")
def test_converged_trials_are_pinned(observer):
    """The kernel's idempotent build: 24 trials per fault kind at
    latency 4."""
    program = _pair(BASE_SOURCE)[1]
    golden = record_golden_run(program)
    for kind in KINDS:
        result = fault_campaign(
            program, golden.result, golden.output, trials=24, kind=kind,
            seed=SEED, detection_latency=4,
        )
        assert result.injected == 24
    assert _ends(observer) == {"converged": 41, "ran_to_end": 7, "crashed": 0}
    simulated = observer.counter("faults.simulated_instructions").total()
    assert simulated < 48 * golden.instructions / 4
