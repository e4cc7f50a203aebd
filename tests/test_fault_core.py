"""The fault-site core: one fault model under every recovery policy.

Two properties hold the refactor in place:

- **Differential.** Every label a campaign can run (``original``,
  ``idempotent``, ``tmr``, ``checkpoint_log``) is replayed trial by
  trial against the pre-core injectors frozen in
  ``tests/frozen_injectors.py`` (which run on the frozen simulator), and
  every ``FaultOutcome`` field must match; the eligibility trace must predict the same landing as the
  frozen trace hooks.  Corpus: ``repro.fuzz.generator.sources(12)`` plus
  the campaign-cache kernel, both fault kinds, latency 0 and 4.
- **One rule.** Changing the eligibility rule in its single place
  (``repro.sim.faults``) moves all three injectors, the eligibility
  trace and the region profile together.
"""

import dataclasses
from bisect import bisect_left

import pytest

from repro.bench.campaign_cache import BASE_SOURCE
from repro.compiler import compile_minic
from repro.fuzz.generator import sources
from repro.harness.campaign import campaign_target
from repro.harness.incremental import assign_trials, trace_eligibility
from repro.recovery.backends import get_backend
from repro.recovery.predict import profile_regions
from repro.sim import faults
from repro.sim.faults import (
    FAULT_CONTROL,
    FAULT_VALUE,
    campaign_span,
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
        new_trace = trace_eligibility(program)
        assert new_trace.span == old_trace.span == span
        for kind in KINDS:
            for latency in LATENCIES:
                assignment = assign_trials(
                    new_trace, SEED, TRIALS, kind=kind,
                    detection_latency=latency,
                )
                predicted = {i: r for r, ix in assignment.regions.items() for i in ix}
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
                    assert predicted.get(index) == landing, where
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


def _predicted(trace, kind, trials):
    """(hook count, region) of the site each trial's fault strikes, by the
    trace; None when the target lies past the last site."""
    events, regions = trace.events(kind)
    landings = []
    for index in range(trials):
        plan = trial_plan(SEED, index, trace.span, kind=kind)
        pos = bisect_left(events, plan.strike_count)
        landings.append((events[pos], regions[pos]) if pos < len(events) else None)
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
    """Injectors, trace and profile all follow a change of the rule: the
    trace still predicts every landing, and each region's profile counts
    equal the trace's events."""
    program, factory = _target(_pair(BASE_SOURCE), label)
    trials = 12
    before = trace_eligibility(program)
    unchanged = {kind: _predicted(before, kind, trials) for kind in KINDS}
    _narrowed_rule(monkeypatch)
    trace = trace_eligibility(program)
    assert 0 < len(trace.value_events) < len(before.value_events)
    assert 0 < len(trace.control_events) < len(before.control_events)

    for kind in KINDS:
        predicted = _predicted(trace, kind, trials)
        assert predicted != unchanged[kind]  # the change bites
        assert _landed(program, factory, kind, trace.span, trials) == predicted
        assignment = assign_trials(trace, SEED, trials, kind=kind)
        for region, indices in assignment.regions.items():
            assert all(predicted[i][1] == region for i in indices)
        assert all(predicted[i] is None for i in assignment.uninjected)

    profiles, _result, _sim = profile_regions(program)
    for key, profile in profiles.items():
        assert profile.eligible == trace.value_regions.count(key), key
        assert profile.branches == trace.control_regions.count(key), key
    assert sum(p.eligible for p in profiles.values()) == len(trace.value_events)
    assert sum(p.branches for p in profiles.values()) == len(trace.control_events)
