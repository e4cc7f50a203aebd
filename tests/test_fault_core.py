"""The fault-site core: one fault model under every recovery policy.

Three properties hold the refactor in place:

- **Differential.** Every label a campaign can run (``original``,
  ``idempotent``, ``tmr``, ``checkpoint_log``) is replayed trial by
  trial against the pre-core injectors frozen in
  ``tests/frozen_injectors.py`` (which run on the frozen simulator), and
  every ``FaultOutcome`` field must match, landing where the frozen
  trace hooks say.  Every trial assignment of the landing walk over the
  golden run (``trace_eligibility``) must equal the frozen trace's.
  Corpus: ``repro.fuzz.generator.sources(12)`` plus the campaign-cache
  kernel, both fault kinds, latency 0 and 4.
- **One rule.** Changing the eligibility rule in its single place
  (``repro.sim.faults``) moves all three injectors, the landing walk
  and the region profile together.
- **Bound.** The walk simulates at most one fault-free run and hooks
  only the instructions between arming and striking.
"""

import dataclasses
from bisect import bisect_left

import pytest

from repro import obs
from repro.bench.campaign_cache import BASE_SOURCE
from repro.compiler import compile_minic
from repro.fuzz.generator import sources
from repro.harness.campaign import campaign_target
from repro.harness.incremental import TrialAssignment, trace_eligibility
from repro.recovery.backends import get_backend
from repro.recovery.predict import profile_regions
from repro.sim import faults
from repro.sim.faults import (
    FAULT_CONTROL,
    FAULT_VALUE,
    campaign_span,
    record_golden_run,
    run_planned_trial,
    run_with_fault,
    trial_plan,
)
from tests import frozen_injectors as frozen

CORPUS = sources(12) + [BASE_SOURCE]
LABELS = ("original", "idempotent", "tmr", "checkpoint_log")
KINDS = (FAULT_VALUE, FAULT_CONTROL)
LATENCIES = (0, 4)
TRIALS = 8
SEED = 2012

#: The pre-core injector each label ran.
FROZEN = {
    "original": frozen.FaultInjector,
    "idempotent": frozen.FaultInjector,
    "tmr": frozen.TMRInjector,
    "checkpoint_log": frozen.CheckpointLogInjector,
}


def _pair(source):
    return (
        compile_minic(source, idempotent=False).program,
        compile_minic(source, idempotent=True).program,
    )


def _target(pair, label):
    """(program, injector factory) of ``label``, as campaigns resolve it."""
    original, idempotent = pair
    if label in ("original", "idempotent"):
        return campaign_target(original, idempotent, label)
    return campaign_target(original, idempotent, label, get_backend(label))


def _frozen_landing(trace, plan):
    """The frozen trace's landing region of ``plan`` (None: no site)."""
    events, regions = trace.events(plan.kind)
    pos = bisect_left(events, plan.target_instruction)
    return regions[pos] if pos < len(events) else None


@pytest.mark.parametrize("program_index", range(len(CORPUS)))
def test_policies_match_frozen_injectors(program_index):
    pair = _pair(CORPUS[program_index])
    compared = 0
    for label in LABELS:
        program, factory = _target(pair, label)
        span = campaign_span(program)
        old_trace = frozen.trace_eligibility(program)
        assert old_trace.span == span
        for kind in KINDS:
            for latency in LATENCIES:
                for index in range(TRIALS):
                    plan = trial_plan(
                        SEED, index, span, kind=kind, detection_latency=latency,
                    )
                    new = run_with_fault(program, plan, injector_factory=factory)
                    old = frozen.run_with_fault(
                        program, plan, injector_factory=FROZEN[label],
                    )
                    where = (label, kind, latency, index)
                    assert dataclasses.asdict(new) == dataclasses.asdict(old), where
                    landing = _frozen_landing(old_trace, plan)
                    assert (new.region if new.injected else None) == landing, where
                    compared += new.injected
    assert compared > 0


def _narrowed_rule(monkeypatch):
    """Change the eligibility rule where it is defined, and only there:
    value faults skip ``add``, control faults skip branches on ``r9``
    (the kernel's ``main`` loop), and every fault strikes 50 retired
    instructions later."""
    value_site, control_site = faults.value_site, faults.control_site
    strike_count = faults.FaultPlan.strike_count.fget
    monkeypatch.setattr(
        faults, "value_site",
        lambda instr: value_site(instr) and instr.opcode != "add",
    )
    monkeypatch.setattr(
        faults, "control_site",
        lambda instr: control_site(instr) and instr.srcs[0].index != 9,
    )
    monkeypatch.setattr(
        faults.FaultPlan, "strike_count",
        property(lambda plan: strike_count(plan) + 50),
    )


def _site_events(program):
    """A hooked fault-free run, the oracle of these tests: per kind, the
    ``(count, region)`` of every site by the rule in force, at the point
    the injector checks it (control sites before they issue, value sites
    after they retire)."""
    sim = faults.Simulator(program, timed=False)
    events = {FAULT_VALUE: [], FAULT_CONTROL: []}

    def pre(s, instr):
        if faults.control_site(instr):
            events[FAULT_CONTROL].append((s.instructions, faults.region_key(s)))

    def post(s, instr):
        if faults.value_site(instr):
            events[FAULT_VALUE].append((s.instructions, faults.region_key(s)))

    sim.pre_hook, sim.post_hook = pre, post
    sim.run("main")
    return events


def _predicted(events, span, kind, trials):
    """(hook count, region) of the site each trial's fault strikes by the
    oracle: the first at or past its strike count; None past the last."""
    counts = [count for count, _region in events[kind]]
    landings = []
    for index in range(trials):
        plan = trial_plan(SEED, index, span, kind=kind)
        pos = bisect_left(counts, plan.strike_count)
        landings.append(events[kind][pos] if pos < len(counts) else None)
    return landings


def _landed(program, factory, kind, span, trials):
    """(hook count, region) where each trial's fault did strike."""
    landings = []
    for index in range(trials):
        injectors = []

        def capture(sim, plan, recover=True):
            injectors.append((factory or faults.FaultInjector)(sim, plan, recover))
            return injectors[-1]

        outcome = run_planned_trial(
            program, SEED, index, span, kind=kind, injector_factory=capture,
        )
        landings.append(
            (injectors[0]._injected_at, outcome.region) if outcome.injected else None
        )
    return landings


@pytest.mark.parametrize("label", LABELS)
def test_one_rule_moves_every_consumer(monkeypatch, label):
    """Injectors, the landing walk and the profile all follow a change of
    the rule: the walk finds every landing the oracle predicts, and each
    region's profile counts equal the oracle's sites."""
    program, factory = _target(_pair(BASE_SOURCE), label)
    trials = 12
    golden = record_golden_run(program, injector_factory=factory)
    before = _site_events(program)
    unchanged = {
        kind: _predicted(before, golden.span, kind, trials) for kind in KINDS
    }
    _narrowed_rule(monkeypatch)
    events = _site_events(program)

    for kind in KINDS:
        assert 0 < len(events[kind]) < len(before[kind])
        predicted = _predicted(events, golden.span, kind, trials)
        assert predicted != unchanged[kind]  # the change bites
        assert _landed(program, factory, kind, golden.span, trials) == predicted
        plans = [trial_plan(SEED, i, golden.span, kind=kind) for i in range(trials)]
        assert faults.landings(golden, plans) == predicted
        assignment = trace_eligibility(golden, SEED, trials, kind=kind)
        for region, indices in assignment.regions.items():
            assert all(predicted[i][1] == region for i in indices)
        assert all(predicted[i] is None for i in assignment.uninjected)

    regions = {kind: [region for _count, region in events[kind]] for kind in KINDS}
    profiles, _result, _sim = profile_regions(program)
    for key, profile in profiles.items():
        assert profile.eligible == regions[FAULT_VALUE].count(key), key
        assert profile.branches == regions[FAULT_CONTROL].count(key), key
    assert sum(p.eligible for p in profiles.values()) == len(events[FAULT_VALUE])
    assert sum(p.branches for p in profiles.values()) == len(events[FAULT_CONTROL])


# ----------------------------------------------------------------------
# The landing walk
# ----------------------------------------------------------------------
def _frozen_assignment(trace, trials, kind, latency):
    """The assignment by the frozen trace: each trial at its first site."""
    assignment = TrialAssignment(span=trace.span)
    for index in range(trials):
        plan = trial_plan(
            SEED, index, trace.span, kind=kind, detection_latency=latency,
        )
        landing = _frozen_landing(trace, plan)
        if landing is None:
            assignment.uninjected.append(index)
        else:
            assignment.regions.setdefault(landing, []).append(index)
    return assignment


@pytest.mark.parametrize("interval", (256, 4096))
@pytest.mark.parametrize("program_index", range(len(CORPUS)))
def test_walk_matches_frozen_trace(monkeypatch, program_index, interval):
    monkeypatch.setattr(faults, "SNAPSHOT_INTERVAL", interval)
    pair = _pair(CORPUS[program_index])
    for label in LABELS:
        program, factory = _target(pair, label)
        golden = record_golden_run(program, injector_factory=factory)
        trace = frozen.trace_eligibility(program)
        assert golden.span == trace.span
        for kind in KINDS:
            for latency in LATENCIES:
                for trials in (8, 48):
                    assignment = trace_eligibility(
                        golden, SEED, trials, kind=kind,
                        detection_latency=latency,
                    )
                    expected = _frozen_assignment(trace, trials, kind, latency)
                    assert assignment == expected, (label, kind, latency, trials)


@pytest.fixture
def observer():
    """A fresh metrics registry for the test."""
    fresh = obs.Observer()
    previous = obs.set_observer(fresh)
    yield fresh
    obs.set_observer(previous)


@pytest.mark.parametrize("label", LABELS)
def test_the_walk_replays_at_most_one_run(observer, label):
    """The walk simulates no more instructions than the golden run
    retired, and with 48 value faults on the kernel runs fewer than 5%
    of them with a hook installed: only those between arming and
    striking."""
    program, factory = _target(_pair(BASE_SOURCE), label)
    golden = record_golden_run(program, injector_factory=factory)
    sim, resume, hooked = golden.sim, golden.sim.resume, []

    def counted(pause_at=None):
        hooks = sim.pre_hook is not None or sim.post_hook is not None
        before = sim.instructions
        try:
            return resume(pause_at)
        finally:
            if hooks:
                hooked.append(sim.instructions - before)

    sim.resume = counted
    simulated = observer.counter("sim.instructions")
    for kind in KINDS:
        before, hooked[:] = simulated.total(), []
        trace_eligibility(golden, SEED, 48, kind=kind)
        assert simulated.total() - before <= golden.instructions, kind
        if kind == FAULT_VALUE:
            assert 0 < sum(hooked) < 0.05 * golden.instructions
