"""Checkpoint-and-log in the simulator, at the edges its bookkeeping
order protects.

The simulator keeps the checkpoint and undo log of checkpoint-and-log
recovery while a ``CheckpointLogInjector`` drives it; while the fault
model's hooks are installed, from arming to detection, the hooks keep
them instead, around the model's own (``docs/simulator.md``).  Each case
is compared, every ``FaultOutcome`` field, with the frozen injector of
``tests/frozen_injectors.py``, which took every checkpoint in its own
hooks on the frozen simulator:

- a control fault that strikes the ``bnz`` which is the
  ``CHECKPOINT_INTERVAL``-th check point since the last checkpoint: the
  checkpoint is taken before the branch is flipped;
- detection at the first instruction after a ``call`` and after a
  ``ret``: the checkpoint of the call-depth change comes first;
- a trial forked from a snapshot taken between a ``call`` or ``ret`` and
  the next instruction.

Two bounds: a golden run installs no hook, and a campaign on the
campaign-cache kernel simulates under 1% of its instructions hooked.
"""

import dataclasses
from typing import List, NamedTuple

import pytest

from repro import obs
from repro.bench.campaign_cache import BASE_SOURCE
from repro.codegen.machine import MachineInstr
from repro.compiler import compile_minic
from repro.recovery.backends import CheckpointLogBackend
from repro.sim import faults
from repro.sim.faults import (
    FAULT_CONTROL,
    FAULT_VALUE,
    FaultPlan,
    record_golden_run,
    run_planned_trial,
    run_with_fault,
    trial_plan,
    value_site,
)
from repro.sim.simulator import CHECKPOINT_INTERVAL, Simulator
from tests import frozen_injectors as frozen
from tests import frozen_simulator

BACKEND = CheckpointLogBackend()
KINDS = (FAULT_VALUE, FAULT_CONTROL)
SEED = 2020

#: ``spin`` starts with a branch and ``tick`` follows ``tick``, so a
#: check point follows both a ``call`` and a ``ret``; in the last loop
#: every fourth ``bnz`` is the ``CHECKPOINT_INTERVAL``-th check point.
SOURCE = """
int n;
int g;
int h[8];
void spin() {
  while (n > 0) { n = n - 1; g = g + n; }
}
void tick() { g = g + 1; }
int main() {
  int acc = 0;
  for (int k = 0; k < 8; k = k + 1) {
    n = k;
    spin();
    tick();
    tick();
    acc = acc + g * k;
    h[k] = acc;
  }
  for (int j = 0; j < 40; j = j + 1) { h[j % 8] = h[j % 8] + j; }
  print_int(acc);
  return acc;
}
"""


class Issued(NamedTuple):
    """The frozen injector's view just before an instruction issues."""

    count: int
    instr: MachineInstr
    #: check points since its last checkpoint
    since: int
    #: the checkpoint is at the current call depth
    same_depth: bool


@pytest.fixture
def observer():
    """A fresh metrics registry for the test."""
    fresh = obs.Observer()
    previous = obs.set_observer(fresh)
    yield fresh
    obs.set_observer(previous)


def _program(source: str = SOURCE):
    return BACKEND.campaign_program(
        compile_minic(source, idempotent=False).program,
        compile_minic(source, idempotent=True).program,
    )


def _issued(program) -> List[Issued]:
    """Every instruction of the frozen injector's fault-free run."""
    sim = frozen_simulator.Simulator(program)
    injector = frozen.CheckpointLogInjector(sim, FaultPlan(1 << 62))
    rows: List[Issued] = []
    pre = sim.pre_hook

    def watched(sim, instr):
        checkpoint = injector._ckpt
        rows.append(Issued(
            sim.instructions, instr, injector._since,
            checkpoint is not None and checkpoint[0] == len(sim.frames),
        ))
        pre(sim, instr)

    sim.pre_hook = watched
    sim.run("main")
    return rows


def _same_as_frozen(program, plan):
    new = run_with_fault(program, plan, injector_factory=BACKEND.make_injector)
    old = frozen.run_with_fault(
        program, plan, injector_factory=frozen.CheckpointLogInjector
    )
    assert dataclasses.asdict(new) == dataclasses.asdict(old), plan
    return new


@pytest.mark.parametrize("latency", (0, 4))
def test_a_control_fault_on_the_check_point_that_checkpoints(latency):
    program = _program()
    sites = [
        row.count for row in _issued(program)
        if row.instr.opcode == "bnz" and row.same_depth
        and row.since == CHECKPOINT_INTERVAL - 1
    ]
    assert len(sites) >= 8
    for count in sites:
        plan = FaultPlan(count + 1, kind=FAULT_CONTROL, detection_latency=latency)
        outcome = _same_as_frozen(program, plan)
        assert outcome.injected and outcome.detected, plan


@pytest.mark.parametrize("after", ("call", "ret"))
def test_detection_at_the_first_instruction_after_a_depth_change(after):
    """A value fault at the last site before the depth change, with the
    latency that makes it surface at the next instruction."""
    program = _program()
    rows = _issued(program)
    surfaced = 0
    for i in range(1, len(rows)):
        if rows[i - 1].instr.opcode != after or (
            rows[i].instr.opcode not in Simulator.CHECK_POINTS
        ):
            continue
        site = next(j for j in range(i - 1, -1, -1) if value_site(rows[j].instr))
        injected_at = rows[site].count + 1
        latency = rows[i].count - injected_at
        outcome = _same_as_frozen(
            program, FaultPlan(injected_at, detection_latency=latency)
        )
        surfaced += outcome.detected and outcome.detect_gap == latency
    assert surfaced >= 4


@pytest.mark.parametrize("after", ("call", "ret"))
def test_a_trial_forked_between_a_depth_change_and_the_next_instruction(
    monkeypatch, after
):
    program = _program()
    rows = _issued(program)
    # Past a twelfth of the run, so that the golden run keeps every
    # snapshot at a multiple of the pause.
    pause = next(
        row.count for prev, row in zip(rows, rows[1:])
        if prev.instr.opcode == after and row.count > len(rows) / 12
    )
    monkeypatch.setattr(faults, "SNAPSHOT_INTERVAL", pause)
    golden = record_golden_run(program, injector_factory=BACKEND.make_injector)
    # The snapshot holds the checkpoint the depth change took.
    golden.sim.restore(golden.forks[0])
    assert golden.sim.checkpoint_count == golden.forks[0].instructions == pause
    for kind in KINDS:
        for latency in (0, 4):
            plans = (
                trial_plan(SEED, index, golden.span, kind=kind,
                           detection_latency=latency)
                for index in range(5000)
            )
            index, plan = next(
                (index, plan) for index, plan in enumerate(plans)
                if pause < plan.strike_count <= pause + 16
            )
            assert golden.fork_for(plan) == 1
            forked = run_planned_trial(
                program, SEED, index, golden.span, kind=kind,
                detection_latency=latency,
                injector_factory=BACKEND.make_injector, golden=golden,
            )
            old = frozen.run_with_fault(
                program, plan, injector_factory=frozen.CheckpointLogInjector
            )
            assert forked.injected
            assert dataclasses.asdict(forked) == dataclasses.asdict(old), plan


def test_a_golden_run_installs_no_hook(observer):
    golden = record_golden_run(
        _program(BASE_SOURCE), injector_factory=BACKEND.make_injector
    )
    assert golden.sim.hooked_instructions == 0
    assert observer.counter("sim.hooked_instructions").total() == 0
    assert observer.counter("sim.instructions").total() == golden.instructions


def test_a_campaign_hooks_under_one_percent_of_its_instructions(observer):
    original = compile_minic(BASE_SOURCE, idempotent=False).program
    idempotent = compile_minic(BASE_SOURCE, idempotent=True).program
    reference = Simulator(idempotent, timed=False)
    reference.run("main")
    for kind in KINDS:
        result = BACKEND.campaign(
            original, idempotent, reference.result, reference.output,
            trials=24, kind=kind, seed=SEED, detection_latency=4,
        )
        assert result.injected == 24
    hooked = observer.counter("sim.hooked_instructions").total()
    simulated = observer.counter("sim.instructions").total()
    assert 0 < hooked < 0.01 * simulated
