"""Pausing, snapshots and the checkpoint log's lazily zeroed cells.

- A run paused at any counts and resumed retires exactly what an
  uninterrupted run retires, cycles included, and runs no hook twice.
- A snapshot restores onto its simulator (or a subclass) as the state it
  was taken from, before the run or in the middle of it.
- ``rp_count`` is the count at which ``rp`` was last set.
- The checkpoint log's 2,048 cells are no longer written up front, yet
  loads, stores and peeks in the log range, and a checkpoint-and-log
  roll-back over a store there, behave as on
  ``tests/frozen_simulator.py``.
"""

import dataclasses

import pytest

from repro.bench.campaign_cache import BASE_SOURCE
from repro.compiler import compile_minic
from repro.interp.memory import MemoryError_
from repro.recovery.backends import CheckpointLogInjector
from repro.recovery.schemes import instrument_checkpoint_log
from repro.sim import SimLimitExceeded, Simulator
from repro.sim.faults import FAULT_CONTROL, FAULT_VALUE, FaultPlan, run_with_fault
from tests import frozen_injectors as frozen
from tests import frozen_simulator


def _kernel(idempotent=True):
    return compile_minic(BASE_SOURCE, idempotent=idempotent).program


def _state(sim):
    return (sim.result, sim.output, sim.instructions, sim.boundaries_crossed,
            sim.cycles, sim.memory.cells, sim.memory.heap_top)


def _paused_run(sim, every):
    sim.start("main")
    pauses = 0
    while not sim.resume(sim.instructions + every):
        pauses += 1
    return pauses


# ----------------------------------------------------------------------
# Pausing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("every", (1, 7, 1000))
@pytest.mark.parametrize("timed", (False, True))
def test_pausing_changes_nothing(every, timed):
    program = instrument_checkpoint_log(_kernel(idempotent=False))
    whole = Simulator(program, timed=timed)
    whole.run("main")
    paused = Simulator(program, timed=timed)
    assert _paused_run(paused, every) == (whole.instructions - 1) // every
    assert _state(paused) == _state(whole)


def test_a_pause_runs_no_hook_twice():
    calls = {"pre": [], "post": []}
    sim = Simulator(_kernel(), timed=False)
    sim.pre_hook = lambda s, instr: calls["pre"].append(s.instructions)
    sim.post_hook = lambda s, instr: calls["post"].append(s.instructions)
    _paused_run(sim, 3)
    assert calls["pre"] == list(range(sim.instructions))
    assert calls["post"] == list(range(1, sim.instructions + 1))


def test_a_pause_at_the_count_stops_at_once():
    sim = Simulator(_kernel(), timed=False)
    sim.start("main")
    assert not sim.resume(0)
    assert not sim.resume(10) and sim.instructions == 10
    assert not sim.resume(10) and sim.instructions == 10


def test_the_limit_still_raises_after_a_pause_there():
    sim = Simulator(_kernel(), timed=False, max_instructions=100)
    sim.start("main")
    assert not sim.resume(100)
    with pytest.raises(SimLimitExceeded):
        sim.resume()
    assert sim.instructions == 101


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
class _Subclass(Simulator):
    """What a layer timer wraps: a subclass overriding ``run``."""

    def run(self, *args, **kwargs):
        return super().run(*args, **kwargs)


@pytest.mark.parametrize("simulator_type", (Simulator, _Subclass))
def test_a_snapshot_restores_mid_run_and_before_it(simulator_type):
    sim = simulator_type(_kernel(), timed=False)
    before = sim.snapshot()
    sim.start("main")
    sim.resume(3000)
    middle = sim.snapshot()
    assert sim.matches(middle)
    sim.resume()
    finished = _state(sim)

    sim.restore(middle)
    assert sim.matches(middle) and sim.instructions == 3000
    sim.resume()
    assert _state(sim) == finished

    sim.restore(before)
    assert sim.frames == [] and sim.output == [] and sim.instructions == 0
    sim.run("main")
    assert _state(sim) == finished


def test_rp_count_is_where_rp_was_last_set():
    sim = Simulator(_kernel(), timed=False)
    seen = []

    def hook(s, _instr):
        if not seen or s.rp != seen[-1]:
            seen.append(s.rp)
            assert s.rp_count == s.instructions

    sim.pre_hook = hook
    sim.run("main")
    assert len(seen) > 10


# ----------------------------------------------------------------------
# The checkpoint log's cells
# ----------------------------------------------------------------------
#: Stores to, and loads from, the top of the checkpoint log: ``p[-k]``
#: lies just below the first ``malloc`` block.
LOG_SOURCE = """
int main() {
  int *p = malloc(4);
  int acc = 0;
  for (int i = 1; i < 30; i = i + 1) {
    p[0 - 1] = p[0 - 1] + i;
    p[0 - 2] = p[0 - 1] * 2 + p[0 - 3];
    acc = acc + p[0 - 2] + p[0 - 9];
  }
  print_int(p[0 - 1]);
  print_int(p[0 - 2]);
  return acc;
}
"""


def _log_programs():
    original = compile_minic(LOG_SOURCE, idempotent=False).program
    idempotent = compile_minic(LOG_SOURCE, idempotent=True).program
    return original, idempotent, instrument_checkpoint_log(original)


def test_log_cells_exist_only_once_written():
    program = _log_programs()[0]
    old = frozen_simulator.Simulator(program)
    new = Simulator(program)
    assert (new.log_base, new.log_size) == (old.log_base, old.log_size)
    assert new.memory.heap_top == old.memory.heap_top
    assert len(old.memory.cells) - len(new.memory.cells) == 2048


def test_log_range_access_as_before():
    program = _log_programs()[0]
    sims = [frozen_simulator.Simulator(program), Simulator(program)]
    base, size = sims[0].log_base, sims[0].log_size
    for addr in (base, base + 5, base + size - 1):
        assert [s.memory.peek(addr) for s in sims] == [0, 0]
        assert [s.memory.load(addr) for s in sims] == [0, 0]
        for s in sims:
            s.memory.store(addr, 7.5)
        assert [s.memory.load(addr) for s in sims] == [7.5, 7.5]
    assert [s.memory.load_count for s in sims] == [6, 6]
    for s in sims:  # the first malloc block is not mapped yet
        with pytest.raises(MemoryError_):
            s.memory.load(base + size)
        with pytest.raises(MemoryError_):
            s.memory.store(base + size, 1)
        with pytest.raises(KeyError):
            s.memory.peek(base + size)
    for program in _log_programs():
        runs = [type(s)(program) for s in sims]
        results = [(r.run("main"), r.output, r.instructions, r.cycles) for r in runs]
        assert results[0] == results[1]


def test_roll_back_over_a_store_to_the_log_range():
    """Every 13th target of both fault kinds on the checkpoint-and-log
    build: the outcomes equal the frozen injector's, and some roll-back
    unwinds a store into the log range."""
    program = _log_programs()[2]
    unwound = []

    class Watched(CheckpointLogInjector):
        def roll_back(self, sim):
            unwound.extend(
                addr for addr, _old in sim.undo_log
                if sim.log_base <= addr < sim.log_base + sim.log_size
            )
            super().roll_back(sim)

    clean = Simulator(program, timed=False)
    clean.run("main")
    for kind in (FAULT_VALUE, FAULT_CONTROL):
        for target in range(1, clean.instructions, 13):
            plan = FaultPlan(target, kind=kind, detection_latency=4)
            new = run_with_fault(program, plan, injector_factory=Watched)
            old = frozen.run_with_fault(
                program, plan, injector_factory=frozen.CheckpointLogInjector
            )
            assert dataclasses.asdict(new) == dataclasses.asdict(old), (kind, target)
    assert unwound
