"""The decoded simulator engine against the simulator it replaced.

``tests/frozen_simulator.py`` is the simulator before decoding, verbatim.
Over ``repro.fuzz.generator.sources(12)`` plus the campaign-cache kernel:

- **Fault-free.** The original, idempotent and checkpoint-and-log
  binaries give the same result, output, instruction and boundary
  counts, cycles under the default, DMR and TMR cost models, and the
  same restart pointer before every instruction; untimed runs agree on
  everything but ``cycles``, which stays 0.  A program's later runs
  execute its hot loops as translated runs
  (``tests/test_sim_translate.py`` covers those over the 19 workloads).
- **Faults.** Every ``FaultOutcome`` field and every campaign bucket of
  the ``original``, ``idempotent``, ``tmr`` and ``checkpoint_log``
  labels, for both fault kinds at latency 0, 4 and 12, equals the frozen
  injectors' on the frozen simulator.

Decoding never raises: an instruction that cannot run raises what the
frozen simulator raises, and only when it executes.
"""

import dataclasses

import pytest

from repro.bench.campaign_cache import BASE_SOURCE
from repro.codegen.machine import (
    CLASS_INT,
    MachineFunction,
    MachineInstr,
    MachineProgram,
    preg,
)
from repro.compiler import compile_minic
from repro.fuzz.generator import sources
from repro.harness.incremental import campaign_target
from repro.recovery.backends import get_backend
from repro.recovery.schemes import (
    dmr_cost_model,
    instrument_checkpoint_log,
    tmr_cost_model,
)
from repro.sim import SimulationError, Simulator
from repro.sim.faults import (
    FAULT_CONTROL,
    FAULT_VALUE,
    CampaignResult,
    campaign_span,
    classify_outcome,
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


def _pair(source):
    return (
        compile_minic(source, idempotent=False).program,
        compile_minic(source, idempotent=True).program,
    )


def _run(simulator_type, program, **kwargs):
    """(result, output, instructions, boundaries, cycles) of one run."""
    sim = simulator_type(program, **kwargs)
    result = sim.run("main")
    return result, sim.output, sim.instructions, sim.boundaries_crossed, sim.cycles


def _rp_trace(simulator_type, program, **kwargs):
    """The restart pointer seen before every instruction."""
    sim = simulator_type(program, **kwargs)
    seen = []

    def hook(s, _instr):
        depth, loc = s.rp
        seen.append((depth, loc.func, loc.block, loc.index))

    sim.pre_hook = hook
    sim.run("main")
    return seen


@pytest.mark.parametrize("program_index", range(len(CORPUS)))
def test_fault_free_runs_match_frozen(program_index):
    original, idempotent = _pair(CORPUS[program_index])
    for program in (original, idempotent, instrument_checkpoint_log(original)):
        for cost in (None, dmr_cost_model(), tmr_cost_model()):
            new = _run(Simulator, program, cost_model=cost)
            assert new == _run(frozen_simulator.Simulator, program, cost_model=cost)
            assert new[4] > 0
        untimed = _run(Simulator, program, timed=False)
        assert untimed == new[:4] + (0,)
        assert _rp_trace(Simulator, program, timed=False) == _rp_trace(
            frozen_simulator.Simulator, program
        )


def test_corpus_runs_translated():
    """The fault-free comparisons above cover translated runs too: a
    program's simulators share their leaders' visit counts, so its runs
    under the later cost models translate what the earlier ones heated."""
    retired = translated = 0
    for source in CORPUS:
        original, idempotent = _pair(source)
        for program in (original, idempotent, instrument_checkpoint_log(original)):
            for cost in (None, dmr_cost_model(), tmr_cost_model()):
                sim = Simulator(program, cost_model=cost)
                sim.run("main")
                retired += sim.instructions
                translated += sim.translated_instructions
    assert translated > retired // 10


@pytest.mark.parametrize("program_index", range(len(CORPUS)))
def test_trials_match_frozen(program_index):
    original, idempotent = _pair(CORPUS[program_index])
    reference = _run(frozen_simulator.Simulator, idempotent)[:2]
    compared = 0
    for label in LABELS:
        backend = get_backend(label) if label in ("tmr", "checkpoint_log") else None
        program, factory = campaign_target(original, idempotent, label, backend)
        span = campaign_span(program)
        for kind in KINDS:
            for latency in LATENCIES:
                results = {"new": CampaignResult(), "frozen": CampaignResult()}
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
                    bucket = classify_outcome(new, *reference)
                    assert bucket == classify_outcome(old, *reference), where
                    results["new"].count(bucket, new.detected)
                    results["frozen"].count(bucket, old.detected)
                    compared += new.injected
                assert results["new"] == results["frozen"]
    assert compared > 0


# ----------------------------------------------------------------------
# Decoding never raises
# ----------------------------------------------------------------------
R0, R1 = preg(CLASS_INT, 0), preg(CLASS_INT, 1)


def _guarded(bad: MachineInstr) -> MachineProgram:
    """``main`` runs ``bad`` only when its argument (r0) is nonzero;
    otherwise it returns 7."""
    program = MachineProgram("guarded")
    main = MachineFunction("main", 1, 0, False, True)
    entry = main.add_block("entry")
    entry.append(MachineInstr("bnz", srcs=[R0], imm="bad"))
    entry.append(MachineInstr("b", imm="good"))
    good = main.add_block("good")
    good.append(MachineInstr("movi", dst=R0, imm=7))
    good.append(MachineInstr("ret"))
    worse = main.add_block("bad")
    worse.append(bad)
    worse.append(MachineInstr("ret"))
    program.add_function(main)
    return program


def _outcome(simulator_type, program, arg):
    sim = simulator_type(program)
    try:
        return ("result", sim.run("main", (arg,)), sim.instructions, sim.cycles)
    except (SimulationError, frozen_simulator.SimulationError, KeyError) as exc:
        return ("raised", type(exc).__name__, str(exc), sim.instructions)


@pytest.mark.parametrize("bad, raised", [
    (MachineInstr("frob", dst=R0), ("SimulationError", "cannot simulate opcode 'frob'")),
    (MachineInstr("b", imm="nowhere"), ("KeyError", "'nowhere'")),
    (MachineInstr("bnz", srcs=[R0], imm="nowhere"), ("KeyError", "'nowhere'")),
    (MachineInstr("call", callee="nope"),
     ("SimulationError", "call to unknown function 'nope'")),
    (MachineInstr("callb", callee="nope"), ("SimulationError", "unknown builtin 'nope'")),
    (MachineInstr("ga", dst=R1, imm="nope"), ("KeyError", "'nope'")),
])
def test_bad_instruction_raises_only_when_it_runs(bad, raised):
    program = _guarded(bad)
    skipped = _outcome(Simulator, program, 0)
    assert skipped == _outcome(frozen_simulator.Simulator, program, 0)
    assert skipped[:2] == ("result", 7)
    hit = _outcome(Simulator, program, 1)
    assert hit == _outcome(frozen_simulator.Simulator, program, 1)
    assert hit[:3] == ("raised",) + raised


def test_not_taken_branch_to_missing_block_runs():
    program = _guarded(MachineInstr("bnz", srcs=[R1], imm="nowhere"))
    ran = _outcome(Simulator, program, 1)
    assert ran == _outcome(frozen_simulator.Simulator, program, 1)
    assert ran[:2] == ("result", 1)


@pytest.mark.parametrize("limit", [1, 2, 100])
def test_falling_off_a_block(limit):
    """The sentinel after a block raises at fetch, before the instruction
    limit is charged."""
    program = MachineProgram("fall")
    main = MachineFunction("main", 0, 0, False, True)
    main.add_block("entry").append(MachineInstr("movi", dst=R0, imm=1))
    program.add_function(main)
    for simulator_type in (Simulator, frozen_simulator.Simulator):
        sim = simulator_type(program, max_instructions=limit)
        with pytest.raises(Exception) as exc:
            sim.run("main")
        assert str(exc.value) == "fell off block entry in main"
        assert sim.instructions == 1


# ----------------------------------------------------------------------
# The hook protocol
# ----------------------------------------------------------------------
def test_hooks_see_prebuilt_locations_and_two_arguments():
    program = compile_minic(BASE_SOURCE, idempotent=True).program
    sim = Simulator(program, timed=False)
    before, after = [], []
    sim.pre_hook = lambda s, instr: before.append((s.loc, instr, s.instructions))
    sim.post_hook = lambda s, instr: after.append((s.loc, instr, s.instructions))
    result = sim.run("main")
    assert result == Simulator(program).run("main")
    assert len(before) == len(after) == sim.instructions
    # Each instruction's Location is one object, built when decoding.
    first = {}
    for loc, instr, count in before:
        assert first.setdefault((loc.func, loc.block, loc.index), loc) is loc
        block = program.functions[loc.func].blocks[loc.block]
        assert block.instructions[loc.index] is instr
    # A post hook sees the count including its instruction, and loc at
    # the next instruction (None after the final return).
    assert [count + 1 for _l, _i, count in before] == [c for _l, _i, c in after]
    assert [loc for loc, _i, _c in after[:-1]] == [loc for loc, _i, _c in before[1:]]
    assert after[-1][0] is None


def test_hooks_run_only_while_installed():
    program = compile_minic(BASE_SOURCE, idempotent=True).program
    sim = Simulator(program)
    calls = []

    def once_in_a_while(s, instr):
        calls.append(s.instructions)
        if len(calls) == 50:
            s.pre_hook = None

    sim.pre_hook = once_in_a_while
    result = sim.run("main")
    unhooked = _run(Simulator, program)
    assert (result, sim.output, sim.instructions, sim.cycles) \
        == unhooked[:3] + unhooked[4:]
    assert calls == list(range(50))
