"""Translated runs against the record loop and the frozen simulator.

A hot straight-line run of decoded records executes as one generated
Python function (``repro.sim.translate``).  Every value a run leaves
behind must equal the record loop's, which these tests get by patching
the hot threshold out of reach: result and output, ``instructions``,
``boundaries_crossed``, ``rp`` and ``rp_count``, the store buffer, the
memory's ``load_count`` and ``store_count``, ``cycles``, ``half_slots``,
``mem_ready`` and ``reg_ready``, and on a ``checkpointing`` simulator
the checkpoint, its count, the undo log and the check points since.
That holds when an instruction inside a translated run raises, when a
run pauses, when it hits its instruction limit at any count inside a
translated run, and when ``checkpointing`` changes between runs.  The
frozen simulator keeps no checkpoint, so for that state the record loop
is the only reference.
"""

import math
import struct

import pytest

import repro.sim.translate as translate
from repro.bench.campaign_cache import BASE_SOURCE
from repro.codegen.machine import (
    CLASS_FLOAT,
    CLASS_INT,
    MachineFunction,
    MachineInstr,
    MachineProgram,
    preg,
)
from repro.compiler import compile_minic
from repro.recovery.schemes import (
    dmr_cost_model,
    instrument_checkpoint_log,
    tmr_cost_model,
)
from repro.sim import SimLimitExceeded, Simulator
from repro.sim.simulator import _UNMAPPED
from repro.workloads import all_workloads
from tests import frozen_simulator

WORKLOADS = [w.name for w in all_workloads()]
SOURCES = {w.name: w.source for w in all_workloads()}
#: (cost model, timed) per configuration
CONFIGS = {
    "default": (None, True),
    "dmr": (dmr_cost_model, True),
    "tmr": (tmr_cost_model, True),
    "untimed": (None, False),
}


@pytest.fixture
def record_loop(monkeypatch):
    """Once this is called, simulators run every record on the loop."""
    def cold():
        monkeypatch.setattr(translate, "HOT_THRESHOLD", 1 << 62)
    return cold


def _bits(values):
    """Values compared exactly: floats by their bits (sign and NaN payload)."""
    return [
        ("float", struct.unpack("<Q", struct.pack("<d", v))[0])
        if type(v) is float else (type(v).__name__, v)
        for v in values
    ]


def _rp(rp):
    if rp is None:
        return None
    depth, loc = rp
    return depth, loc.func, loc.block, loc.index


def _checkpoint(checkpoint):
    if checkpoint is None:
        return None
    depth, int_regs, float_regs, loc = checkpoint
    return depth, _bits(int_regs), _bits(float_regs), loc


def _undo(log):
    """Pre-images by bits, the unmapped sentinel by identity."""
    return [
        (a, "unmapped" if v is _UNMAPPED else _bits([v])) for a, v in log
    ]


def _state(sim):
    """Everything a run leaves behind."""
    memory = sim.memory
    return {
        "output": _bits(sim.output),
        "instructions": sim.instructions,
        "boundaries": sim.boundaries_crossed,
        "rp": _rp(sim.rp),
        "rp_count": sim.rp_count,
        "store_buffer": [(a, _bits([v])) for a, v in sim.store_buffer],
        "load_count": memory.load_count,
        "store_count": memory.store_count,
        "cycles": sim.cycles,
        "half_slots": sim.half_slots,
        "mem_ready": sim.mem_ready,
        "reg_ready": list(sim.reg_ready),
        "int_regs": _bits(sim.int_regs),
        "float_regs": _bits(sim.float_regs),
        "cells": sorted((a, _bits([v])) for a, v in memory.cells.items()),
        "loc": sim.loc,
        "checkpoint": _checkpoint(sim.checkpoint),
        "checkpoint_count": sim.checkpoint_count,
        "undo_log": _undo(sim.undo_log),
        "check_points_since": sim.check_points_since,
    }


def _finish(sim):
    """(outcome, state) of running ``main`` to its end or its first error."""
    try:
        outcome = ("result", _bits([sim.run("main")]))
    except Exception as exc:
        outcome = ("raised", type(exc).__name__, str(exc))
    return outcome, _state(sim)


def _simulator(program, config, checkpointing=False, **kwargs):
    cost, timed = CONFIGS[config]
    sim = Simulator(program, cost_model=cost and cost(), timed=timed, **kwargs)
    sim.checkpointing = checkpointing
    return sim


def _binaries(source):
    original = compile_minic(source, idempotent=False).program
    idempotent = compile_minic(source, idempotent=True).program
    return original, idempotent, instrument_checkpoint_log(original)


# ----------------------------------------------------------------------
# The suite: translated runs against the record loop and the frozen
# simulator.  The fuzz corpus and the kernel are compared with the
# frozen simulator under every cost model by tests/test_sim_engine.py.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("index", range(len(WORKLOADS)))
def test_workload_matches_record_loop(index, record_loop):
    """Each workload's binary and cost model, in rotation; the
    checkpoint-and-log binary on a ``checkpointing`` simulator."""
    program = _binaries(SOURCES[WORKLOADS[index]])[index % 3]
    config = list(CONFIGS)[index % len(CONFIGS)]
    checkpointing = index % 3 == 2
    translated = _simulator(program, config, checkpointing)
    new = _finish(translated)
    record_loop()
    assert new == _finish(_simulator(program, config, checkpointing))
    assert translated.translated_instructions > translated.instructions // 2


@pytest.mark.parametrize("index", range(len(WORKLOADS)))
def test_workload_matches_frozen(index):
    """Each workload's original or idempotent binary under one cost model
    or untimed, in rotation."""
    program = _binaries(SOURCES[WORKLOADS[index]])[index % 2]
    config = list(CONFIGS)[(index // 2) % len(CONFIGS)]
    cost, timed = CONFIGS[config]
    sim = _simulator(program, config)
    frozen = frozen_simulator.Simulator(program, cost_model=cost and cost())
    result = sim.run("main")
    assert _bits([result]) == _bits([frozen.run("main")])
    assert sim.translated_instructions > sim.instructions // 2
    assert _bits(sim.output) == _bits(frozen.output)
    assert (sim.instructions, sim.boundaries_crossed) == (
        frozen.instructions, frozen.boundaries_crossed,
    )
    assert sim.cycles == (frozen.cycles if timed else 0)
    assert _rp(sim.rp) == _rp(frozen.rp)
    assert (sim.memory.load_count, sim.memory.store_count) == (
        frozen.memory.load_count, frozen.memory.store_count,
    )


def test_programs_share_heat_and_compiled_runs():
    """A program's simulators add up their leaders' visits and share the
    runs they compile: a second run of a short program translates
    leaders the first reached too few times, and compiles nothing that
    the first compiled."""
    program = compile_minic(BASE_SOURCE, idempotent=False).program
    first = Simulator(program)
    first.run("main")
    compiled = dict(translate._SHARED[program].compiled)
    second = Simulator(program)
    second.run("main")
    assert second.translated_instructions > first.translated_instructions
    shared = translate._SHARED[program].compiled
    assert all(shared[key] is run for key, run in compiled.items())
    runs = {run for code in second._code.values() for run in code.runs if run}
    assert runs <= set(shared.values())


@pytest.fixture
def writes(monkeypatch):
    """The leader pcs of the runs whose source is written from now on."""
    written = []
    source = translate._Writer.source

    def counted(self, pc, end):
        written.append(pc)
        return source(self, pc, end)

    monkeypatch.setattr(translate._Writer, "source", counted)
    return written


def test_a_run_is_written_once_per_program(writes):
    """The loop body's source is written once for each setting a
    simulator runs it with (``timed``, ``checkpointing``); a second
    simulator with the same settings finds it compiled."""
    program = _loop(_TRIGGER_FLAG + FILLERS)
    settings = [(True, False), (False, False), (False, True), (True, True)]
    for n, (timed, checkpointing) in enumerate(settings, 1):
        for _ in range(2):
            sim = Simulator(program, timed=timed)
            sim.checkpointing = checkpointing
            sim.run("main")
            assert sim.translated_instructions > 0
            assert len(writes) == n
    assert len(set(writes)) == 1
    assert len(translate._SHARED[program].compiled) == len(settings)


def test_cost_models_get_their_own_runs(record_loop):
    """DMR and TMR simulators of one binary share a run exactly where its
    timing tuples are equal under both, and each leaves the record
    loop's state."""
    program = compile_minic(BASE_SOURCE, idempotent=False).program
    sims = {config: _simulator(program, config) for config in ("dmr", "tmr")}
    new = {config: _finish(sim) for config, sim in sims.items()}
    dmr, tmr = (sims[config]._code for config in ("dmr", "tmr"))
    own = 0
    for name, code in dmr.items():
        for pc, run in enumerate(code.runs):
            other = tmr[name].runs[pc]
            if run is None or other is None:
                continue
            end = translate._extent(code.records, pc)
            same_timing = code.timing[pc:end] == tmr[name].timing[pc:end]
            assert (run is other) == same_timing, (name, pc)
            own += not same_timing
    assert own > 0
    record_loop()
    for config in sims:
        assert new[config] == _finish(_simulator(program, config)), config


# ----------------------------------------------------------------------
# Hand-built loops that cross the threshold, then raise inside a run
# ----------------------------------------------------------------------
R = [preg(CLASS_INT, i) for i in range(16)]
FR = [preg(CLASS_FLOAT, i) for i in range(8)]
#: the iteration that raises: its loop body already runs translated
TRIGGER = translate.HOT_THRESHOLD + 3


def _i(opcode, dst=None, srcs=(), imm=None):
    return MachineInstr(opcode, dst=dst, srcs=list(srcs), imm=imm)


def _loop(body, trips=TRIGGER + 4, returns_float=False):
    """``main``: r1 counts ``trips`` iterations of ``body``; r3 is 1, r5
    :data:`TRIGGER`, f3 1.0 and f5 1e300; frame words 0 and 1 exist."""
    program = MachineProgram("loop")
    main = MachineFunction("main", 0, 0, returns_float, True)
    main.frame.add_slot(2)
    entry = main.add_block("entry")
    for instr in (
        _i("movi", R[1], imm=0), _i("movi", R[2], imm=trips), _i("movi", R[3], imm=1),
        _i("movi", R[5], imm=TRIGGER), _i("fmovi", FR[3], imm=1.0),
        _i("fmovi", FR[5], imm=1e300), _i("b", imm="loop"),
    ):
        entry.append(instr)
    loop = main.add_block("loop")
    for instr in body + [
        _i("add", R[1], [R[1], R[3]]), _i("cmplt", R[4], [R[1], R[2]]),
        _i("bnz", srcs=[R[4]], imm="loop"), _i("b", imm="done"),
    ]:
        loop.append(instr)
    main.add_block("done").append(_i("ret"))
    program.add_function(main)
    return program


#: r6 is 1 in the trigger iteration, else 0; r7 is its complement
_TRIGGER_FLAG = [_i("cmpeq", R[6], [R[1], R[5]]), _i("sub", R[7], [R[3], R[6]])]
#: f7 is inf in the trigger iteration, else 0.0
_INFINITE = [_i("itof", FR[1], [R[6]]), _i("fmul", FR[6], [FR[1], FR[5]]),
             _i("fmul", FR[7], [FR[6], FR[5]])]
#: r12 is frame word 1, or an unmapped address in the trigger iteration
_BAD_ADDRESS = [_i("movi", R[9], imm=4096), _i("mul", R[10], [R[6], R[9]]),
                _i("lea", R[11], imm=1), _i("add", R[12], [R[11], R[10]])]

#: name -> (set-up, the instruction that raises, the error)
RAISES = {
    "div": ([], _i("div", R[8], [R[2], R[7]]), "integer division by zero"),
    "rem": ([], _i("rem", R[8], [R[2], R[7]]), "integer remainder by zero"),
    "fdiv": ([_i("itof", FR[1], [R[7]])], _i("fdiv", FR[2], [FR[3], FR[1]]),
             "float division by zero"),
    "ftoi-inf": (_INFINITE, _i("ftoi", R[8], [FR[7]]), "ftoi(inf)"),
    "ftoi-nan": (_INFINITE + [_i("fsub", FR[2], [FR[7], FR[7]])],
                 _i("ftoi", R[8], [FR[2]]), "ftoi(nan)"),
    "load": (_BAD_ADDRESS, _i("ld", R[8], [R[12]]), "load from unmapped address"),
    "commit": (_BAD_ADDRESS, _i("st", srcs=[R[1], R[12]]), "store to unmapped address"),
}

#: stores, loads, a boundary and arithmetic the raise is placed among
FILLERS = [
    _i("stslot", srcs=[R[1]], imm=0), _i("ldslot", R[13], imm=0),
    _i("mul", R[13], [R[13], R[3]]), _i("rcb"), _i("add", R[13], [R[13], R[1]]),
]


#: the simulators the hand-built loops run on: (configuration,
#: ``checkpointing``), so that a store is logged and a periodic
#: checkpoint taken inside a translated run
LOOPS = {
    "default": ("default", False),
    "untimed": ("untimed", False),
    "checkpointing": ("default", True),
    "checkpointing-untimed": ("untimed", True),
}


def _loop_simulator(program, loop, **kwargs):
    return _simulator(program, *LOOPS[loop], **kwargs)


@pytest.mark.parametrize("position", range(len(FILLERS) + 1))
@pytest.mark.parametrize("name", sorted(RAISES))
@pytest.mark.parametrize("loop", list(LOOPS))
def test_raise_inside_a_translated_run(name, position, loop, record_loop):
    setup, raising, message = RAISES[name]
    body = _TRIGGER_FLAG + setup + FILLERS[:position] + [raising] + FILLERS[position:]
    program = _loop(body)
    sim = _loop_simulator(program, loop)
    new = _finish(sim)
    assert new[0][0] == "raised" and message in new[0][2]
    assert sim.translated_instructions > 0
    record_loop()
    assert new == _finish(_loop_simulator(program, loop))
    # The frozen simulator raised ftoi's error as OverflowError or
    # ValueError; everything else is as it left it.
    frozen = frozen_simulator.Simulator(program)
    with pytest.raises(Exception):
        frozen.run("main")
    assert (new[1]["instructions"], new[1]["boundaries"]) == (
        frozen.instructions, frozen.boundaries_crossed,
    )
    assert new[1]["store_buffer"] == [(a, _bits([v])) for a, v in frozen.store_buffer]
    assert (new[1]["load_count"], new[1]["store_count"]) == (
        frozen.memory.load_count, frozen.memory.store_count,
    )
    if LOOPS[loop][0] == "default":
        assert new[1]["cycles"] == frozen.cycles


def test_float_constants_keep_their_bits(record_loop):
    """``fmovi`` of NaN (both signs), -0.0 and inf, written into a
    translated run's source, loads the very same bits."""
    values = [math.nan, -math.nan, -0.0, math.inf, -math.inf, 0.1]
    body = [_i("fmovi", FR[i + 1], imm=v) for i, v in enumerate(values)]
    body.append(_i("fmovi", FR[0], imm=-0.0))
    program = _loop(body, returns_float=True)
    sim = Simulator(program)
    new = _finish(sim)
    assert sim.translated_instructions > 0
    assert new[1]["float_regs"][1:7] == _bits(values)
    assert new[0] == ("result", _bits([-0.0]))
    record_loop()
    assert new == _finish(Simulator(program))


# ----------------------------------------------------------------------
# Pauses and instruction limits inside translated runs
# ----------------------------------------------------------------------
def _window():
    """A hot loop, and the counts of two iterations after it translated."""
    program = _loop(_TRIGGER_FLAG + FILLERS)
    per_iteration = len(_TRIGGER_FLAG + FILLERS) + 3  # the taken exit skips b
    first = 7 + per_iteration * (translate.HOT_THRESHOLD + 1)
    return program, range(first, first + 2 * per_iteration + 1)


def _checkpointed_inside(states, counts):
    """Do ``states``, left at ``counts``, show a store logged and a
    periodic checkpoint taken in the translated iterations?  (The loop
    body's ``stslot`` is logged at the ``ldslot`` after it, and every
    other iteration reaches the ``CHECKPOINT_INTERVAL``-th check point.)"""
    return any(state["undo_log"] for state in states) and any(
        state["checkpoint_count"] in counts for state in states
    )


@pytest.mark.parametrize("loop", list(LOOPS))
def test_pause_at_every_count(loop, record_loop):
    program, counts = _window()
    paused = []
    for pause_at in counts:
        sim = _loop_simulator(program, loop)
        sim.start("main")
        assert sim.resume(pause_at) is False
        before = _state(sim)
        assert sim.resume() is True
        paused.append((before, _state(sim), sim.translated_instructions))
    assert all(translated > 0 for _b, _a, translated in paused)
    if LOOPS[loop][1]:
        assert _checkpointed_inside([b for b, _a, _t in paused], counts)
    record_loop()
    for pause_at, (before, after, _t) in zip(counts, paused):
        sim = _loop_simulator(program, loop)
        sim.start("main")
        sim.resume(pause_at)
        assert before == _state(sim), pause_at
        assert before["instructions"] == pause_at
        sim.resume()
        assert after == _state(sim), pause_at


@pytest.mark.parametrize("loop", list(LOOPS))
def test_limit_at_every_count(loop, record_loop):
    program, counts = _window()

    def limited(limit):
        sim = _loop_simulator(program, loop, max_instructions=limit)
        with pytest.raises(SimLimitExceeded):
            sim.run("main")
        return _state(sim), sim.translated_instructions

    new = [limited(limit) for limit in counts]
    assert all(translated > 0 for _s, translated in new)
    if LOOPS[loop][1]:
        assert _checkpointed_inside([state for state, _t in new], counts)
    record_loop()
    for limit, (state, _t) in zip(counts, new):
        assert state == limited(limit)[0], limit
        assert state["instructions"] == limit + 1


# ----------------------------------------------------------------------
# ``checkpointing`` changing between runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config", ["default", "untimed"])
def test_checkpointing_off_on_off_between_runs(config, record_loop):
    """One simulator runs the program from its start with
    ``checkpointing`` off, on, then off again, as a golden run walked by
    ``landings`` is: every phase leaves the record loop's state, runs
    translated, and calls only runs written for its own setting."""
    program, _counts = _window()

    def phases():
        """(outcome and state, whether it ran translated, the
        ``checkpointing`` settings of the runs it holds) per phase."""
        sim = _simulator(program, config)
        start = sim.snapshot()
        done = []
        for on in (False, True, False):
            sim.restore(start)
            sim.checkpointing = on
            before = sim.translated_instructions
            finished = _finish(sim)
            compiled = translate._SHARED[program].compiled
            setting = {id(run): key[3] for key, run in compiled.items()}
            settings = {
                setting[id(run)] for code in sim._code.values()
                for run in code.runs if run
            }
            done.append((finished, sim.translated_instructions > before, settings))
        return done

    new = phases()
    assert [(t, s) for _f, t, s in new] == [
        (True, {False}), (True, {True}), (True, {False}),
    ]
    record_loop()
    assert [f for f, _t, _s in new] == [f for f, _t, _s in phases()]
