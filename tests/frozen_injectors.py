"""The fault injectors and eligibility trace as they were before the
fault-site core, frozen verbatim as differential oracles, and
``run_with_fault`` as it was before the decoded engine.  All of them
run on ``tests/frozen_simulator.py``, the simulator before decoding.

Each scheme used to restate the fault model — where a fault strikes,
what it corrupts, which region it is attributed to, when it is
detected — in its own injector, and the incremental harness restated
the arming rule once more in its eligibility-trace hooks.
:mod:`repro.sim.faults` now owns that model and the backends of
:mod:`repro.recovery.backends` are recovery policies over it;
``tests/test_fault_core.py`` runs these copies against them trial by
trial and requires every ``FaultOutcome`` field to match.  Nothing in
``src/`` imports this module; if a policy and its frozen injector ever
disagree, the policy is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.codegen.machine import MachineInstr, MachineProgram
from repro.sim.faults import (
    FAULT_CONTROL,
    FAULT_VALUE,
    FaultOutcome,
    FaultPlan,
    region_key,
)
from repro.interp.memory import MemoryError_
from tests.frozen_simulator import SimulationError, Simulator

#: Sentinel for "address was unmapped before this store" in the undo log.
_UNMAPPED = object()


class FaultInjector:
    """Drives a simulator run with one planned fault and rp recovery."""

    def __init__(self, sim: Simulator, plan: FaultPlan, recover: bool = True) -> None:
        self.sim = sim
        self.plan = plan
        self.recover = recover
        self.outcome = FaultOutcome()
        self._pending = False
        self._armed = True
        self._injected_at = 0
        sim.pre_hook = self._pre
        sim.post_hook = self._post

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def _pre(self, sim: Simulator, instr: MachineInstr) -> None:
        if (
            self._pending
            and instr.opcode in Simulator.CHECK_POINTS
            and sim.instructions - self._injected_at >= self.plan.detection_latency
        ):
            self.outcome.detected = True
            self.outcome.detect_gap = sim.instructions - self._injected_at
            self._pending = False
            if self.recover:
                mark = sim.instructions
                sim.recover_to_rp()
                sim.redirect()
                self.outcome.recovered = True
                self.outcome.recovery_instructions = mark
            return
        if (
            self._armed
            and self.plan.kind == FAULT_CONTROL
            and sim.instructions + 1 >= self.plan.target_instruction
            and instr.opcode == "bnz"
        ):
            cond = instr.srcs[0]
            value = sim.get_reg(cond)
            sim.set_reg(cond, 0 if value else 1)
            self._armed = False
            self.outcome.injected = True
            self.outcome.region = region_key(sim)
            self._injected_at = sim.instructions
            self._pending = True  # detected at the next check point after this branch

    def _post(self, sim: Simulator, instr: MachineInstr, loc) -> None:
        if (
            self._armed
            and self.plan.kind == FAULT_VALUE
            and sim.instructions >= self.plan.target_instruction
            and instr.dst is not None
            and not instr.is_memory  # loads are verified directly by DMR
        ):
            value = sim.get_reg(instr.dst)
            if isinstance(value, float):
                corrupted = -(value + 1.0)
            else:
                corrupted = value ^ self.plan.flip_mask
            sim.set_reg(instr.dst, corrupted)
            self._armed = False
            self.outcome.injected = True
            self.outcome.region = region_key(sim)
            self._injected_at = sim.instructions
            self._pending = True


class TMRInjector:
    """Instruction-level TMR under a single-fault model.

    The fault corrupts one of three redundant lanes; the majority vote at
    the next check point both detects it and supplies the correct value,
    so architectural state is never corrupted and no re-execution is
    charged (``recovery_instructions`` stays 0). The only way TMR loses
    a fault is the same way DMR does: detection latency outlives the
    program (``undetected`` bucket — result still correct, since the
    voted value was).

    Injection eligibility mirrors :class:`FaultInjector` exactly (same
    target arithmetic, same eligible opcodes), so a TMR campaign faces
    the identical fault set as an idempotence campaign over the same
    program.
    """

    def __init__(self, sim: Simulator, plan: FaultPlan, recover: bool = True) -> None:
        self.sim = sim
        self.plan = plan
        self.recover = recover
        self.outcome = FaultOutcome()
        self._pending = False
        self._armed = True
        self._injected_at = 0
        sim.pre_hook = self._pre
        sim.post_hook = self._post

    def _pre(self, sim: Simulator, instr: MachineInstr) -> None:
        if (
            self._pending
            and instr.opcode in Simulator.CHECK_POINTS
            and sim.instructions - self._injected_at >= self.plan.detection_latency
        ):
            self._pending = False
            self.outcome.detected = True
            self.outcome.detect_gap = sim.instructions - self._injected_at
            if self.recover:
                # Majority vote corrects in place: no rollback, no
                # re-execution, nothing to restore.
                self.outcome.recovered = True
            return
        if (
            self._armed
            and self.plan.kind == FAULT_CONTROL
            and sim.instructions + 1 >= self.plan.target_instruction
            and instr.opcode == "bnz"
        ):
            # One lane mispredicts the branch condition; the other two
            # outvote it, so the branch resolves correctly — record the
            # injection without perturbing state.
            self._mark(sim)

    def _post(self, sim: Simulator, instr: MachineInstr, loc) -> None:
        if (
            self._armed
            and self.plan.kind == FAULT_VALUE
            and sim.instructions >= self.plan.target_instruction
            and instr.dst is not None
            and not instr.is_memory
        ):
            self._mark(sim)

    def _mark(self, sim: Simulator) -> None:
        self._armed = False
        self.outcome.injected = True
        self.outcome.region = region_key(sim)
        self._injected_at = sim.instructions
        self._pending = True


class CheckpointLogInjector:
    """Checkpoint-and-log recovery over the store-instrumented binary.

    State capture is the scheme's defining move: every ``interval``-th
    check point (and at every call-depth change, where the frame stack
    is in flux) the injector snapshots the register files and location;
    between checkpoints it keeps an undo log of committed stores — the
    dynamic realisation of the statically derived live-set checkpoints
    of :mod:`repro.recovery.checkpoint`. Detection restores the snapshot
    and unwinds the log in reverse.

    A fresh checkpoint is also forced after every ``callb``: externally
    visible effects (``print`` output, ``malloc``'s heap bump) cannot be
    replayed, so the scheme never rolls back across them — exactly the
    constraint that forces idempotent region boundaries at the same
    points.

    The failure mode under detection latency is structural, not tuned:
    a checkpoint taken while a fault is still latent snapshots corrupt
    registers, and restoring it re-executes from corrupt state — the
    checkpoint-spacing analogue of idempotence's rp-slip hazard.
    """

    DEFAULT_INTERVAL = 8

    def __init__(
        self,
        sim: Simulator,
        plan: FaultPlan,
        recover: bool = True,
        interval: int = DEFAULT_INTERVAL,
    ) -> None:
        self.sim = sim
        self.plan = plan
        self.recover = recover
        self.interval = interval
        self.outcome = FaultOutcome()
        self.checkpoints_taken = 0
        self._pending = False
        self._armed = True
        self._injected_at = 0
        self._ckpt: Optional[Tuple] = None
        self._undo: List[Tuple[int, object]] = []
        self._since = 0
        sim.pre_hook = self._pre
        sim.post_hook = self._post

    # ------------------------------------------------------------------
    # Checkpoint machinery
    # ------------------------------------------------------------------
    def _take(self, sim: Simulator) -> None:
        self._ckpt = (
            len(sim.frames),
            list(sim.int_regs),
            list(sim.float_regs),
            sim.loc.copy(),
        )
        self._undo = []
        self._since = 0
        self.checkpoints_taken += 1

    def _restore(self, sim: Simulator) -> None:
        depth, int_regs, float_regs, loc = self._ckpt
        # Depth equality is structural: every call-depth change takes a
        # fresh checkpoint, so detection always happens in the frame the
        # checkpoint was taken in. The loop is defensive only.
        while len(sim.frames) > depth:
            dead = sim.frames.pop()
            sim.memory.free_stack(dead.base)
        sim.discard_store_buffer()
        for addr, old in reversed(self._undo):
            if old is _UNMAPPED:
                sim.memory.cells.pop(addr, None)
            else:
                sim.memory.cells[addr] = old
        self._undo = []
        sim.int_regs[:] = int_regs
        sim.float_regs[:] = float_regs
        sim.loc = loc.copy()

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def _pre(self, sim: Simulator, instr: MachineInstr) -> None:
        if sim.frames and (self._ckpt is None or len(sim.frames) != self._ckpt[0]):
            self._take(sim)
        if instr.opcode in Simulator.CHECK_POINTS:
            if (
                self._pending
                and sim.instructions - self._injected_at >= self.plan.detection_latency
            ):
                self.outcome.detected = True
                self.outcome.detect_gap = sim.instructions - self._injected_at
                self._pending = False
                if self.recover:
                    mark = sim.instructions
                    self._restore(sim)
                    sim.redirect()
                    self.outcome.recovered = True
                    self.outcome.recovery_instructions = mark
                return
            self._since += 1
            if self._since >= self.interval:
                self._take(sim)
            # The buffered stores commit when this check point executes;
            # log their pre-images so a later restore can unwind them.
            for addr, _value in sim.store_buffer:
                try:
                    old = sim.memory.peek(addr)
                except KeyError:
                    old = _UNMAPPED
                self._undo.append((addr, old))
        if (
            self._armed
            and self.plan.kind == FAULT_CONTROL
            and sim.instructions + 1 >= self.plan.target_instruction
            and instr.opcode == "bnz"
        ):
            cond = instr.srcs[0]
            value = sim.get_reg(cond)
            sim.set_reg(cond, 0 if value else 1)
            self._armed = False
            self.outcome.injected = True
            self.outcome.region = region_key(sim)
            self._injected_at = sim.instructions
            self._pending = True

    def _post(self, sim: Simulator, instr: MachineInstr, loc) -> None:
        if (
            self._armed
            and self.plan.kind == FAULT_VALUE
            and sim.instructions >= self.plan.target_instruction
            and instr.dst is not None
            and not instr.is_memory
        ):
            value = sim.get_reg(instr.dst)
            if isinstance(value, float):
                corrupted = -(value + 1.0)
            else:
                corrupted = value ^ self.plan.flip_mask
            sim.set_reg(instr.dst, corrupted)
            self._armed = False
            self.outcome.injected = True
            self.outcome.region = region_key(sim)
            self._injected_at = sim.instructions
            self._pending = True
        if instr.opcode == "callb":
            # I/O and allocation are not replayable; never allow a
            # restore to cross them.
            self._take(sim)


@dataclass
class EligibilityTrace:
    """Fault-eligible events of one fault-free run, in dynamic order.

    ``value_events[i]`` is the dynamic instruction index at which the
    ``i``-th value-eligible instruction (has a destination register, not
    a memory op) retires — the exact quantity
    :class:`~repro.sim.faults.FaultInjector` compares against the trial
    target — and ``value_regions[i]`` is the region key the injector
    would attribute a fault there to.  ``control_*`` mirror the ``bnz``
    pre-hook arithmetic (``instructions + 1``).
    """

    span: int
    instructions: int
    value_events: List[int] = field(default_factory=list)
    value_regions: List[str] = field(default_factory=list)
    control_events: List[int] = field(default_factory=list)
    control_regions: List[str] = field(default_factory=list)

    def events(self, kind: str) -> Tuple[List[int], List[str]]:
        if kind == FAULT_VALUE:
            return self.value_events, self.value_regions
        return self.control_events, self.control_regions


def trace_eligibility(
    program: MachineProgram,
    func: str = "main",
    args: Tuple = (),
    max_instructions: int = 50_000_000,
) -> EligibilityTrace:
    """One fault-free run recording every fault-eligible event.

    The hooks replicate the injectors' arming checks exactly, at the
    same pre/post points, so a trial whose target resolves to event
    ``i`` here injects at precisely that instruction (the faulted run's
    dynamic prefix equals the fault-free prefix up to injection).
    """
    sim = Simulator(program, max_instructions=max_instructions)
    trace = EligibilityTrace(span=1, instructions=0)

    def pre(s: Simulator, instr) -> None:
        if instr.opcode == "bnz":
            trace.control_events.append(s.instructions + 1)
            trace.control_regions.append(region_key(s))

    def post(s: Simulator, instr, loc) -> None:
        if instr.dst is not None and not instr.is_memory:
            trace.value_events.append(s.instructions)
            trace.value_regions.append(region_key(s))

    sim.pre_hook = pre
    sim.post_hook = post
    sim.run(func, args)
    trace.instructions = sim.instructions
    trace.span = max(sim.instructions - 2, 1)
    return trace


def run_with_fault(
    program: MachineProgram,
    plan: FaultPlan,
    func: str = "main",
    args: Tuple = (),
    recover: bool = True,
    max_instructions: int = 50_000_000,
    injector_factory=None,
) -> FaultOutcome:
    """Execute ``func`` with one injected fault; returns the outcome."""
    sim = Simulator(program, max_instructions=max_instructions)
    factory = injector_factory or FaultInjector
    injector = factory(sim, plan, recover=recover)
    outcome = injector.outcome
    try:
        outcome.result = sim.run(func, args)
    except (MemoryError_, SimulationError):
        outcome.crashed = True
    outcome.output = list(sim.output)
    outcome.instructions = sim.instructions
    return outcome
