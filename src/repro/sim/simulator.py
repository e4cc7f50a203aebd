"""Machine simulator: functional execution + two-issue timing model.

Stands in for the paper's gem5/ARMv7 setup (§6.1). Key behaviours:

- **Store buffer** (§2.3): stores sit in a small buffer until the next
  DMR *check point* (any load, store, branch, call, return, or ``rcb``),
  where they are verified and committed. Loads snoop the buffer. Fault
  detection fires at a check point *before* its commit, so unverified
  stores are discarded on recovery — but stores committed earlier in the
  region stay, which is exactly why the construction must cut memory
  antidependences for re-execution to be safe.
- **Restart pointer** ``rp``: every ``rcb`` records the location just
  after itself; call, builtin-call, and return act as implicit boundaries
  (the paper's intra-procedural regions are split at call boundaries, and
  non-idempotent operations like I/O and allocation are their own
  single-instruction regions, §2.3).
- **Timing**: in-order two-issue with a scoreboard of register-ready
  times, one memory port, and one taken branch per cycle; per-op latencies
  from :data:`repro.codegen.machine.DEFAULT_LATENCY`. Detection-scheme
  costs (DMR/TMR duplication, check ops) are modeled with issue-slot
  multipliers configured by :class:`CostModel`.
- **Fault injection** hooks: corrupt the destination of a chosen dynamic
  instruction; detection fires at the next DMR check point (load, store,
  branch, call, or boundary), whereupon the configured recovery action
  runs. See :mod:`repro.sim.faults`.

Execution engine: each :class:`MachineFunction` is decoded once per
simulator, on first entry, into flat per-instruction records (a small-int
op, the register lists and indices it reads and writes, a resolved branch
pc, a pre-built :class:`Location`, a static timing tuple), with a
fell-off-block sentinel after each block; one loop over locals runs them.
Decoding never raises: a record that cannot run raises the error it
would have raised when, and only when, it executes. The timing model runs
only when the simulator is ``timed``; hooks run only while one is
installed (see ``docs/simulator.md``).

A run can pause at a given instruction count (:meth:`Simulator.resume`),
and its complete state can be saved, restored and compared exactly
(:meth:`Simulator.snapshot`, :meth:`~Simulator.restore`,
:meth:`~Simulator.matches`): fault trials fork from a fault-free run
this way (:mod:`repro.sim.faults`).

For checkpoint-and-log recovery the simulator can also keep a register
checkpoint and an undo log of the stores committed since
(:attr:`Simulator.checkpointing`, :meth:`~Simulator.recover_to_checkpoint`),
as it keeps the restart pointer for idempotent recovery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.codegen.machine import (
    CLASS_FLOAT,
    CLASS_INT,
    DEFAULT_LATENCY,
    NUM_FLOAT_REGS,
    NUM_INT_REGS,
    MachineFunction,
    MachineInstr,
    MachineProgram,
    Reg,
)
from repro.interp.interpreter import ExecutionError, _int_div, _int_rem, wrap64
from repro.interp.memory import Memory


class SimulationError(RuntimeError):
    pass


class SimLimitExceeded(SimulationError):
    pass


@dataclass
class CostModel:
    """Issue-cost parameters for detection/recovery schemes.

    ``alu_issue_factor`` models instruction-level redundancy: 2 for DMR
    (every non-memory op has a shadow copy), 3 for TMR. ``check_ops_*``
    model the comparison/majority ops inserted before memory and control
    instructions by the detection scheme.  Memory is a perfect L1: every
    load costs the base ``ld`` latency.
    """

    alu_issue_factor: int = 1
    check_ops_per_load: int = 0
    check_ops_per_store: int = 0
    check_ops_per_branch: int = 0
    latency: Dict[str, int] = field(default_factory=lambda: dict(DEFAULT_LATENCY))


@dataclass(frozen=True)
class Location:
    """A static instruction position; immutable, so rp and hooks share
    the one the decoder built."""

    __slots__ = ("func", "block", "index")
    func: str
    block: int
    index: int


class Snapshot:
    """A simulator's complete state between two instructions.

    :meth:`Simulator.snapshot` takes one, :meth:`Simulator.restore` puts
    it back and :meth:`Simulator.matches` compares against it.  Frames are
    kept by function name, so it restores onto any simulator of the same
    program.  Hooks are not state.
    """

    __slots__ = (
        "instructions", "boundaries", "rp_count", "entry", "loc", "rp",
        "frames", "int_regs", "float_regs", "store_buffer", "output",
        "cells", "tops", "accesses", "timing", "checkpointed",
    )

    def __init__(self, sim: "Simulator") -> None:
        memory = sim.memory
        self.instructions = sim.instructions
        self.boundaries = sim.boundaries_crossed
        self.rp_count = sim.rp_count
        self.entry = sim.entry
        self.loc = sim.loc
        self.rp = sim.rp
        self.frames = _frame_rows(sim.frames)
        self.int_regs = list(sim.int_regs)
        self.float_regs = list(sim.float_regs)
        self.store_buffer = list(sim.store_buffer)
        self.output = list(sim.output)
        self.cells = dict(memory.cells)
        self.tops = (memory.global_top, memory.heap_top, memory.stack_top)
        self.accesses = (memory.load_count, memory.store_count)
        self.timing = (sim.half_slots, list(sim.reg_ready), sim.mem_ready)
        # A checkpoint is never changed once taken: share it.
        self.checkpointed = (
            sim.checkpoint, sim.checkpoint_count, list(sim.undo_log),
            sim.check_points_since,
        )


def _frame_rows(frames: List["_Frame"]) -> List[tuple]:
    return [(f.code.name, f.base, f.return_loc, f.return_pc) for f in frames]


def _same_values(a: Sequence, b: Sequence) -> bool:
    """``a == b`` with each pair of the same type and, for floats, the
    same sign; a NaN never matches, not even itself."""
    if a != b:
        return False
    for x, y in zip(a, b):
        if type(x) is not type(y) or (type(x) is float and not _same_float(x, y)):
            return False
    return True


def _same_float(x: float, y: float) -> bool:
    return x == y and (x != 0.0 or math.copysign(1.0, x) == math.copysign(1.0, y))


def _same_cells(a: Dict[int, object], b: Dict[int, object]) -> bool:
    """:func:`_same_values` over two memories' cells."""
    if a != b:
        return False
    for addr, x in a.items():
        y = b[addr]
        if type(x) is not type(y) or (type(x) is float and not _same_float(x, y)):
            return False
    return True


class _Frame:
    __slots__ = ("code", "base", "return_loc", "return_pc")

    def __init__(
        self,
        code: "_Code",
        base: int,
        return_loc: Optional[Location],
        return_pc: int,
    ) -> None:
        self.base = base
        self.return_loc = return_loc
        self.code = code
        self.return_pc = return_pc


# Record ops, numbered in the order the loop tests them (most frequent
# first in the suite's dynamic mix).
(
    OP_MOVI, OP_MOV, OP_ADD, OP_LDSLOT, OP_B, OP_STSLOT, OP_LD, OP_BINOP,
    OP_CMPNE, OP_BNZ, OP_CMPLT, OP_RCB, OP_SUB, OP_RET, OP_CALL, OP_ST,
    OP_LEA, OP_ITOF, OP_FTOI, OP_CSEL, OP_CALLB, OP_STLOG, OP_ADVLP, OP_NOP,
    OP_TRAP, OP_BNZ_TRAP, OP_FELL,
) = range(27)

_MASK64 = (1 << 64) - 1
_SIGN64 = 1 << 63
_WRAP64 = 1 << 64

#: reg_ready slots: r0-r15, then f0-f31, then one slot that only
#: destination-less instructions write.
_NO_SLOT = NUM_INT_REGS + NUM_FLOAT_REGS
#: the timing tuple of a record that issues nothing (the sentinels)
_UNTIMED = ((), False, _NO_SLOT, 0, 0, False)
_GROUP_ENDS = frozenset(["bnz", "b", "ret", "call", "callb"])
#: record ops of the check points (a trap raises before anything reads
#: the undo log)
_CHECK_OPS = frozenset([
    OP_LDSLOT, OP_B, OP_STSLOT, OP_LD, OP_BNZ, OP_RCB, OP_RET, OP_CALL, OP_ST,
    OP_CALLB, OP_BNZ_TRAP,
])

#: Check points from one periodic checkpoint of checkpoint-and-log to
#: the next.
CHECKPOINT_INTERVAL = 8
#: An undo-log pre-image: the address was unmapped before the store.
_UNMAPPED = object()


class _Code:
    """One function decoded: parallel per-pc lists."""

    __slots__ = (
        "name", "records", "locs", "instrs", "timing", "columns", "starts",
        "frame_words",
    )

    def __init__(self, func: MachineFunction) -> None:
        self.name = func.name
        self.records: List[tuple] = []
        #: the Location of every pc, sentinels included
        self.locs: List[Location] = []
        #: the MachineInstr of every pc (None for a sentinel)
        self.instrs: List[Optional[MachineInstr]] = []
        self.timing: List[tuple] = []
        #: the four lists above, as the loop loads them
        self.columns = (self.records, self.locs, self.instrs, self.timing)
        #: pc of each block's first record; the last entry ends the code
        self.starts: List[int] = []
        self.frame_words = max(func.frame.size, 1)

    def pc(self, loc: Location) -> int:
        """The pc of ``loc`` in this function (its block's sentinel when
        ``loc`` lies past the block's end)."""
        sentinel = self.starts[loc.block + 1] - 1
        return min(self.starts[loc.block] + loc.index, sentinel)


class Simulator:
    """Executes a :class:`MachineProgram`.

    ``timed=False`` skips the timing model: results, output and every
    count are the same, and ``cycles`` stays 0.
    """

    def __init__(
        self,
        program: MachineProgram,
        cost_model: Optional[CostModel] = None,
        max_instructions: int = 100_000_000,
        timed: bool = True,
    ) -> None:
        self.program = program
        self.cost = cost_model or CostModel()
        self.max_instructions = max_instructions
        self.timed = timed

        self.memory = Memory()
        self.globals: Dict[str, int] = {}
        self._init_globals()

        # Checkpoint-and-log support: a 16KB-equivalent wrap-around log
        # (2048 words; 1K two-word entries) in its own heap block, indexed
        # by the lp register (r15). See repro.recovery.checkpoint_log.
        # Its cells exist only once written (unwritten ones read as 0).
        self.log_size = 2048
        self.log_base = self.memory.reserve_heap(self.log_size)

        # Decoded records hold these two lists: mutate them in place.
        self.int_regs: List[object] = [0] * NUM_INT_REGS
        self.float_regs: List[float] = [0.0] * NUM_FLOAT_REGS
        self.frames: List[_Frame] = []
        #: the current location; kept up to date while a hook is installed
        self.loc: Optional[Location] = None

        # rp: (frame depth, location) — where recovery re-enters.
        self.rp: Optional[Tuple[int, Location]] = None
        #: ``instructions`` when ``rp`` was last set
        self.rp_count = 0
        #: the function :meth:`start` entered
        self.entry: Optional[MachineFunction] = None

        # Store buffer: list of (addr, value) since the last verification.
        self.store_buffer: List[Tuple[int, object]] = []

        #: keep the checkpoint-and-log state below (see docs/simulator.md)
        self.checkpointing = False
        #: (frame depth, int registers, float registers, location)
        self.checkpoint: Optional[tuple] = None
        #: ``instructions`` when ``checkpoint`` was taken
        self.checkpoint_count = 0
        #: (address, pre-image) of every store committed since
        self.undo_log: List[Tuple[int, object]] = []
        self.check_points_since = 0

        self.output: List[object] = []
        self.instructions = 0
        self.boundaries_crossed = 0
        #: instructions this simulator retired with a hook installed
        self.hooked_instructions = 0

        # Timing state (half-cycle granularity for dual issue): ready
        # times in slots numbered like _NO_SLOT's comment says; registers
        # outside the 48 get slots appended on decode.
        self.half_slots = 0
        self.reg_ready: List[int] = [0] * (_NO_SLOT + 1)
        self._slots: Dict[Tuple[str, int], int] = {
            (CLASS_INT, i): i for i in range(NUM_INT_REGS)
        }
        self._slots.update(
            ((CLASS_FLOAT, i), NUM_INT_REGS + i) for i in range(NUM_FLOAT_REGS)
        )
        self.mem_ready = 0
        self._timings: Dict[str, tuple] = {}

        #: optional hook called before each instruction: hook(sim, instr)
        self.pre_hook: Optional[Callable[["Simulator", MachineInstr], None]] = None
        #: optional hook called after each instruction: hook(sim, instr)
        self.post_hook: Optional[Callable[["Simulator", MachineInstr], None]] = None
        self._redirected = False
        #: a run began or was restored, and has not been counted in sim.runs
        self._fresh = False

        self._code: Dict[str, _Code] = {}

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _init_globals(self) -> None:
        for name, (size, initializer) in self.program.globals.items():
            addr = self.memory.alloc_global(size)
            self.globals[name] = addr
            if initializer:
                for i, value in enumerate(initializer):
                    self.memory.poke(addr + i, value)

    @property
    def cycles(self) -> int:
        return (self.half_slots + 1) // 2

    # ------------------------------------------------------------------
    # Register access
    # ------------------------------------------------------------------
    def get_reg(self, reg: Reg):
        if reg.rclass == CLASS_INT:
            return self.int_regs[reg.index]
        return self.float_regs[reg.index]

    def set_reg(self, reg: Reg, value) -> None:
        if reg.rclass == CLASS_INT:
            self.int_regs[reg.index] = value
        else:
            self.float_regs[reg.index] = value

    # ------------------------------------------------------------------
    # Memory through the store buffer
    # ------------------------------------------------------------------
    def mem_load(self, addr: int):
        for buffered_addr, value in reversed(self.store_buffer):
            if buffered_addr == addr:
                return value
        return self.memory.load(addr)

    def mem_store(self, addr: int, value) -> None:
        self.store_buffer.append((addr, value))

    def flush_store_buffer(self) -> None:
        for addr, value in self.store_buffer:
            self.memory.store(addr, value)
        self.store_buffer.clear()

    def discard_store_buffer(self) -> int:
        count = len(self.store_buffer)
        self.store_buffer.clear()
        return count

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _decoded(self, func: MachineFunction) -> _Code:
        code = self._code.get(func.name)
        if code is None:
            code = self._code[func.name] = self._decode(func)
        return code

    def _decode(self, func: MachineFunction) -> _Code:
        code = _Code(func)
        labels: Dict[str, int] = {}
        for b, block in enumerate(func.blocks):
            code.starts.append(len(code.locs))
            labels.setdefault(block.name, len(code.locs))
            for i, instr in enumerate(block.instructions):
                code.locs.append(Location(func.name, b, i))
                code.instrs.append(instr)
            code.locs.append(Location(func.name, b, len(block.instructions)))
            code.instrs.append(None)
        code.starts.append(len(code.locs))
        block_names = [block.name for block in func.blocks]
        for pc, instr in enumerate(code.instrs):
            if instr is None:
                block = code.locs[pc].block
                code.records.append(
                    (OP_FELL, f"fell off block {block_names[block]} in {func.name}")
                )
                code.timing.append(_UNTIMED)
                continue
            record, timing = self._decode_instr(instr, pc, code, labels)
            code.records.append(record)
            code.timing.append(timing)
        return code

    def _decode_instr(self, instr: MachineInstr, pc: int, code: _Code, labels):
        """(record, timing) of one instruction; an untimed simulator
        decodes no timing.

        Any error found here is deferred into a trap record, so that a
        program fails, as before decoding existed, only if and when the
        instruction runs: a failure to time it raises before the store
        buffer flushes, any other after.
        """
        timing = _UNTIMED
        try:
            if self.timed:
                timing = self._timing(instr)
        except Exception as exc:  # re-raised by the trap when it executes
            return (OP_TRAP, exc, False), _UNTIMED
        try:
            record = self._record(instr, pc, code, labels)
        except Exception as exc:  # re-raised by the trap when it executes
            record = (OP_TRAP, exc, instr.opcode in self.CHECK_POINTS)
        return record, timing

    def _slot(self, reg: Reg) -> int:
        key = (reg.rclass, reg.index)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = len(self.reg_ready)
            self.reg_ready.append(0)
        return slot

    def _timing(self, instr: MachineInstr) -> tuple:
        """(source slots, is memory, destination slot, result latency in
        half-cycles, issue slots, ends the issue group)."""
        memory_op, latency, issue_slots, ends_group = self._opcode_timing(instr)
        return (
            tuple(self._slot(src) for src in instr.srcs),
            memory_op,
            _NO_SLOT if instr.dst is None else self._slot(instr.dst),
            latency,
            issue_slots,
            ends_group,
        )

    def _opcode_timing(self, instr: MachineInstr) -> tuple:
        """The part of an instruction's timing its opcode fixes."""
        opcode = instr.opcode
        timing = self._timings.get(opcode)
        if timing is None:
            cost = self.cost
            extra_ops = 0
            if instr.is_alu and cost.alu_issue_factor > 1:
                extra_ops += cost.alu_issue_factor - 1
            if opcode in ("ld", "ldslot"):
                extra_ops += cost.check_ops_per_load
            elif opcode in ("st", "stslot"):
                extra_ops += cost.check_ops_per_store
            elif opcode in ("bnz", "b", "ret"):
                extra_ops += cost.check_ops_per_branch
            timing = self._timings[opcode] = (
                instr.is_memory,
                2 * cost.latency.get(opcode, 1),
                1 + extra_ops,
                opcode in _GROUP_ENDS,
            )
        return timing

    def _reg(self, reg: Reg) -> Tuple[list, int]:
        """The register list and index ``reg`` lives at."""
        if reg.rclass == CLASS_INT:
            return self.int_regs, reg.index
        return self.float_regs, reg.index

    def _record(self, instr: MachineInstr, pc: int, code: _Code, labels) -> tuple:
        opcode = instr.opcode
        srcs, dst, reg = instr.srcs, instr.dst, self._reg
        if opcode in ("movi", "fmovi"):
            return (OP_MOVI, *reg(dst), instr.imm)
        if opcode == "ga":
            address = self.globals[instr.imm]
            return (OP_MOVI, *reg(dst), address)
        if opcode in ("mov", "fmov"):
            return (OP_MOV, *reg(srcs[0]), *reg(dst))
        if opcode in _INT_BINOPS or opcode in _FLOAT_BINOPS:
            operands = (*reg(srcs[0]), *reg(srcs[1]), *reg(dst))
            op = _INLINE_BINOPS.get(opcode)
            if op is not None:
                return (op, *operands)
            function = _INT_BINOPS.get(opcode) or _FLOAT_BINOPS[opcode]
            return (OP_BINOP, function, *operands)
        if opcode == "ldslot":
            return (OP_LDSLOT, *reg(dst), instr.imm)
        if opcode == "stslot":
            return (OP_STSLOT, *reg(srcs[0]), instr.imm)
        if opcode == "ld":
            return (OP_LD, *reg(srcs[0]), *reg(dst))
        if opcode == "st":
            return (OP_ST, *reg(srcs[0]), *reg(srcs[1]))
        if opcode in ("b", "bnz"):
            target = labels.get(instr.imm)
            if target is None:
                missing = KeyError(instr.imm)  # what block_index raised
                if opcode == "b":
                    return (OP_TRAP, missing, True)
                return (OP_BNZ_TRAP, *reg(srcs[0]), missing)
            if opcode == "b":
                return (OP_B, target)
            return (OP_BNZ, *reg(srcs[0]), target)
        if opcode == "rcb":
            return (OP_RCB, code.locs[pc + 1])
        if opcode == "ret":
            return (OP_RET,)
        if opcode == "call":
            callee = self.program.functions.get(instr.callee)
            if callee is None:
                return (OP_TRAP, SimulationError(
                    f"call to unknown function {instr.callee!r}"), True)
            return (OP_CALL, callee, code.locs[pc + 1], pc + 1)
        if opcode == "callb":
            return (OP_CALLB, instr.callee, code.locs[pc + 1])
        if opcode == "lea":
            return (OP_LEA, *reg(dst), instr.imm)
        if opcode == "itof":
            return (OP_ITOF, *reg(srcs[0]), *reg(dst))
        if opcode == "ftoi":
            return (OP_FTOI, *reg(srcs[0]), *reg(dst))
        if opcode == "csel":
            return (OP_CSEL, *reg(srcs[0]), *reg(srcs[1]), *reg(srcs[2]), *reg(dst))
        if opcode == "stlog":
            return (OP_STLOG, *reg(srcs[0]), instr.imm or 0)
        if opcode == "advlp":
            return (OP_ADVLP, instr.imm or 1)
        if opcode in ("check", "majority"):
            return (OP_NOP,)  # detection ops are timing-only in this model
        return (OP_TRAP, SimulationError(f"cannot simulate opcode {opcode!r}"),
                opcode in self.CHECK_POINTS)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, func_name: str, args: Tuple = ()) -> object:
        """Execute ``func_name`` to completion; returns its r0/f0 result."""
        self.start(func_name, args)
        self.resume()
        return self.result

    def start(self, func_name: str, args: Tuple = ()) -> None:
        """Enter ``func_name`` with ``args``; :meth:`resume` runs it."""
        func = self.program.functions.get(func_name)
        if func is None:
            raise SimulationError(f"no machine function {func_name!r}")
        int_index = 0
        float_index = 0
        for value in args:
            if isinstance(value, float):
                self.float_regs[float_index] = value
                float_index += 1
            else:
                self.int_regs[int_index] = value
                int_index += 1
        self.entry = func
        self._fresh = True
        self._enter_function(func, None, 0)
        self.rp_count = self.instructions
        if self.checkpointing:
            self._take_checkpoint(self.instructions, self.loc)

    def resume(self, pause_at: Optional[int] = None) -> bool:
        """Run on from ``loc``; True once the entry function has returned.

        With ``pause_at``, the run stops (returning False) once that many
        instructions have retired, before the next one issues and before
        its pre hook runs; it stops at once if the count is already
        there.  Hitting ``max_instructions`` first raises as usual.
        """
        counts = (
            self.instructions, self.cycles, self.boundaries_crossed,
            self.hooked_instructions,
        )
        try:
            with obs.span("sim.run", func=self.entry.name, program=self.program.name):
                return self._loop(pause_at)
        finally:
            self._publish_run_metrics(*counts)

    @property
    def result(self) -> object:
        """The entry function's result register (``f0`` if it returns a
        float, else ``r0``)."""
        if self.entry.returns_float:
            return self.float_regs[0]
        return self.int_regs[0]

    def _publish_run_metrics(
        self, instructions: int, cycles: int, boundaries: int, hooked: int
    ) -> None:
        """What this stretch of a run simulated, onto the metrics registry
        (crashes included); a run counts once, however often it paused."""
        observer = obs.get_observer()
        if self._fresh:
            self._fresh = False
            observer.counter("sim.runs").inc()
        observer.counter("sim.instructions").inc(self.instructions - instructions)
        observer.counter("sim.hooked_instructions").inc(
            self.hooked_instructions - hooked
        )
        observer.counter("sim.cycles").inc(self.cycles - cycles)
        observer.counter("sim.boundaries").inc(self.boundaries_crossed - boundaries)

    def _enter_function(
        self, func: MachineFunction, return_loc: Optional[Location], return_pc: int
    ) -> _Frame:
        code = self._decoded(func)
        base = self.memory.alloc_stack(code.frame_words)
        frame = _Frame(code, base, return_loc, return_pc)
        self.frames.append(frame)
        self.loc = entry = code.locs[0] if code.locs else Location(func.name, 0, 0)
        # Call/entry is an implicit verification + restart point.
        self.flush_store_buffer()
        self.rp = (len(self.frames), entry)
        return frame

    def redirect(self) -> None:
        """Tell the fetch loop that a hook changed ``loc`` (recovery jump)."""
        self._redirected = True

    #: opcodes at which buffered stores are verified and committed
    CHECK_POINTS = frozenset(
        ["ld", "st", "ldslot", "stslot", "bnz", "b", "ret", "call", "callb", "rcb"]
    )

    def _loop(self, pause_at: Optional[int]) -> bool:
        frames = self.frames
        sbuf = self.store_buffer
        memory = self.memory
        load = memory.load
        count = self.instructions
        limit = self.max_instructions
        # One test serves the limit and the pause: the loop stops when
        # the count passes ``stop``, and raises unless it was the pause.
        stop = limit if pause_at is None else min(limit, pause_at)
        timed = self.timed
        ready = self.reg_ready
        half = self.half_slots
        mem_ready = self.mem_ready
        checkpointing = self.checkpointing
        hooked_retired = 0
        instr = None
        try:
            while True:  # fetch from ``loc``: at entry, and where a hook moved it
                frame = frames[-1]
                records, locs, instrs, timing = frame.code.columns
                base = frame.base
                pc = frame.code.pc(self.loc)
                hooked = self.pre_hook is not None or self.post_hook is not None
                # One test per instruction serves the hooks and the
                # checkpoint log: while a hook is installed the hooks keep
                # the log (checkpoint_before/after), otherwise the loop does.
                slow = hooked or checkpointing
                while True:
                    record = records[pc]
                    op = record[0]
                    if slow:
                        if hooked:
                            if op == OP_FELL:
                                raise SimulationError(record[1])
                            if count == pause_at:  # before the pre hook runs
                                self.loc = locs[pc]
                                return False
                            instr = instrs[pc]
                            pre = self.pre_hook
                            if pre is not None:
                                self.instructions = count
                                self.loc = locs[pc]
                                pre(self, instr)
                                if self._redirected:
                                    self._redirected = False
                                    break  # fetch from the new location
                        elif op in _CHECK_OPS and count < stop:  # it will run
                            self.check_points_since += 1
                            if sbuf or self.check_points_since >= CHECKPOINT_INTERVAL:
                                self._log_check_point(count, locs[pc])
                    count += 1
                    if count > stop and op != OP_FELL:
                        if stop != pause_at:
                            raise SimLimitExceeded(
                                f"exceeded {limit} simulated instructions"
                            )
                        count -= 1
                        self.loc = locs[pc]
                        return False
                    if timed:
                        (srcs, memory_op, dst, latency, issue_slots,
                         ends_group) = timing[pc]
                        issue = half
                        for src in srcs:
                            if ready[src] > issue:
                                issue = ready[src]
                        if memory_op:
                            if mem_ready > issue:
                                issue = mem_ready
                            mem_ready = issue + 2  # one memory op per cycle
                        ready[dst] = issue + latency
                        half = issue + issue_slots
                        if ends_group:
                            # A taken control transfer ends the issue group.
                            half += half % 2

                    # Check points (ld, st, ldslot, stslot, b, bnz, rcb, call,
                    # callb, ret) first commit the verified stores.
                    if op == OP_MOVI:
                        _, dl, d, value = record
                        dl[d] = value
                        pc += 1
                    elif op == OP_MOV:
                        _, sl, s, dl, d = record
                        dl[d] = sl[s]
                        pc += 1
                    elif op == OP_ADD:
                        _, al, a, bl, b, dl, d = record
                        value = al[a] + bl[b]
                        value &= _MASK64
                        if value >= _SIGN64:
                            value -= _WRAP64
                        dl[d] = value
                        pc += 1
                    elif op == OP_LDSLOT:
                        if sbuf:
                            self.flush_store_buffer()
                        _, dl, d, offset = record
                        dl[d] = load(base + offset)
                        pc += 1
                    elif op == OP_B:
                        if sbuf:
                            self.flush_store_buffer()
                        pc = record[1]
                    elif op == OP_STSLOT:
                        if sbuf:
                            self.flush_store_buffer()
                        _, vl, v, offset = record
                        sbuf.append((base + offset, vl[v]))
                        pc += 1
                    elif op == OP_LD:
                        if sbuf:
                            self.flush_store_buffer()
                        _, al, a, dl, d = record
                        dl[d] = load(al[a])
                        pc += 1
                    elif op == OP_BINOP:
                        _, function, al, a, bl, b, dl, d = record
                        dl[d] = function(al[a], bl[b])
                        pc += 1
                    elif op == OP_CMPNE:
                        _, al, a, bl, b, dl, d = record
                        dl[d] = 1 if al[a] != bl[b] else 0
                        pc += 1
                    elif op == OP_BNZ:
                        if sbuf:
                            self.flush_store_buffer()
                        _, cl, c, target = record
                        pc = target if cl[c] else pc + 1
                    elif op == OP_CMPLT:
                        _, al, a, bl, b, dl, d = record
                        dl[d] = 1 if al[a] < bl[b] else 0
                        pc += 1
                    elif op == OP_RCB:
                        if sbuf:
                            self.flush_store_buffer()
                        self.boundaries_crossed += 1
                        self.rp = (len(frames), record[1])
                        self.rp_count = count
                        pc += 1
                    elif op == OP_SUB:
                        _, al, a, bl, b, dl, d = record
                        value = al[a] - bl[b]
                        value &= _MASK64
                        if value >= _SIGN64:
                            value -= _WRAP64
                        dl[d] = value
                        pc += 1
                    elif op == OP_RET:
                        if sbuf:
                            self.flush_store_buffer()
                        done = frames.pop()
                        memory.free_stack(done.base)
                        if done.return_loc is None:
                            self.loc = None
                            if hooked:
                                hooked_retired += 1
                                if self.post_hook is not None:
                                    self.instructions = count
                                    self.post_hook(self, instr)
                            return True
                        frame = frames[-1]
                        records, locs, instrs, timing = frame.code.columns
                        base = frame.base
                        pc = done.return_pc
                        # Return is an implicit verification + restart point.
                        self.rp = (len(frames), done.return_loc)
                        self.rp_count = count
                        if checkpointing and self.post_hook is None:
                            self._take_checkpoint(count, done.return_loc)
                    elif op == OP_CALL:
                        if sbuf:
                            self.flush_store_buffer()
                        _, callee, return_loc, return_pc = record
                        frame = self._enter_function(callee, return_loc, return_pc)
                        self.rp_count = count
                        records, locs, instrs, timing = frame.code.columns
                        base = frame.base
                        pc = 0
                        if checkpointing and self.post_hook is None:
                            self._take_checkpoint(count, self.loc)
                    elif op == OP_ST:
                        if sbuf:
                            self.flush_store_buffer()
                        _, vl, v, al, a = record
                        sbuf.append((al[a], vl[v]))
                        pc += 1
                    elif op == OP_LEA:
                        _, dl, d, offset = record
                        dl[d] = base + offset
                        pc += 1
                    elif op == OP_ITOF:
                        _, sl, s, dl, d = record
                        dl[d] = float(sl[s])
                        pc += 1
                    elif op == OP_FTOI:
                        _, sl, s, dl, d = record
                        dl[d] = wrap64(int(sl[s]))
                        pc += 1
                    elif op == OP_CSEL:
                        _, cl, c, al, a, bl, b, dl, d = record
                        dl[d] = al[a] if cl[c] else bl[b]
                        pc += 1
                    elif op == OP_CALLB:
                        if sbuf:
                            self.flush_store_buffer()
                        self._builtin(record[1])
                        # Builtins (I/O, allocation) are not safely re-executable:
                        # they are single-instruction regions — advance the restart
                        # point past them (§2.3, "non-idempotent instructions").
                        self.rp = (len(frames), record[2])
                        self.rp_count = count
                        pc += 1
                        if checkpointing and self.post_hook is None:
                            self._take_checkpoint(count, record[2])
                    elif op == OP_STLOG:
                        # Checkpoint-and-log: write into the wrap-around log
                        # region at [lp + imm]. Log traffic is not
                        # program-visible state, so it bypasses the store
                        # buffer (it writes through the L1 in the paper's
                        # setup); cost is accounted as a normal store.
                        _, vl, v, offset = record
                        self._log_write(offset, vl[v])
                        pc += 1
                    elif op == OP_ADVLP:
                        self.int_regs[15] = wrap64(self.int_regs[15] + record[1])
                        pc += 1
                    elif op == OP_NOP:
                        pc += 1
                    elif op == OP_TRAP:
                        if record[2] and sbuf:
                            self.flush_store_buffer()
                        raise record[1]
                    elif op == OP_BNZ_TRAP:
                        if sbuf:
                            self.flush_store_buffer()
                        _, cl, c, missing = record
                        if cl[c]:
                            raise missing
                        pc += 1
                    else:  # OP_FELL: the sentinel is fetched, never retired
                        count -= 1
                        raise SimulationError(record[1])

                    if hooked:
                        hooked_retired += 1
                        post = self.post_hook
                        if post is not None:
                            self.instructions = count
                            self.loc = next_loc = locs[pc]
                            post(self, instr)
                            if self.loc is not next_loc:
                                break  # fetch from where the hook moved it
                        hooked = self.pre_hook is not None or self.post_hook is not None
                        slow = hooked or checkpointing
        finally:
            self.instructions = count
            self.half_slots = half
            self.mem_ready = mem_ready
            self.hooked_instructions += hooked_retired

    # ------------------------------------------------------------------
    # Recovery (used by the fault harness)
    # ------------------------------------------------------------------
    def _log_write(self, offset: int, value) -> None:
        index = (self.int_regs[15] + offset) % self.log_size
        self.memory.poke(self.log_base + index, value)

    def recover_to_rp(self) -> None:
        """Discard unverified stores and jump to the restart pointer."""
        if self.rp is None:
            raise SimulationError("no restart point recorded")
        depth, loc = self.rp
        if depth > len(self.frames):
            raise SimulationError("restart point is in a popped frame")
        while len(self.frames) > depth:
            dead = self.frames.pop()
            self.memory.free_stack(dead.base)
        self.discard_store_buffer()
        self.loc = loc

    def recover_to_checkpoint(self) -> None:
        """Restore the last checkpoint: pop frames to its depth, discard
        unverified stores, unwind the undo log, restore the registers and
        jump to its location."""
        depth, int_regs, float_regs, loc = self.checkpoint
        # Depth equality is structural: every call-depth change takes a
        # fresh checkpoint, so detection always happens in the frame the
        # checkpoint was taken in. The loop is defensive only.
        while len(self.frames) > depth:
            dead = self.frames.pop()
            self.memory.free_stack(dead.base)
        self.discard_store_buffer()
        cells = self.memory.cells
        for addr, old in reversed(self.undo_log):
            if old is _UNMAPPED:
                cells.pop(addr, None)
            else:
                cells[addr] = old
        self.undo_log = []
        self.int_regs[:] = int_regs
        self.float_regs[:] = float_regs
        self.loc = loc

    # ------------------------------------------------------------------
    # Checkpoint-and-log bookkeeping
    # ------------------------------------------------------------------
    def checkpoint_before(self, instr: MachineInstr, commits: bool) -> None:
        """For a pre hook on a ``checkpointing`` simulator: what the loop
        does before ``instr`` issues while no hook is installed.  A check
        point that ``commits`` its stores is counted and logged; one at
        which a fault surfaces does not commit them."""
        if commits and instr.opcode in self.CHECK_POINTS:
            self.check_points_since += 1
            self._log_check_point(self.instructions, self.loc)

    def checkpoint_after(self, instr: MachineInstr) -> None:
        """For a post hook on a ``checkpointing`` simulator: what the loop
        does after ``instr`` retires while no hook is installed, which is
        to checkpoint a call-depth change or a ``callb``."""
        frames = self.frames
        if frames and (instr.opcode == "callb" or len(frames) != self.checkpoint[0]):
            self._take_checkpoint(self.instructions, self.loc)

    def _take_checkpoint(self, count: int, loc: Location) -> None:
        self.checkpoint = (
            len(self.frames), list(self.int_regs), list(self.float_regs), loc,
        )
        self.checkpoint_count = count
        self.undo_log = []
        self.check_points_since = 0

    def _log_check_point(self, count: int, loc: Location) -> None:
        """The check point at ``loc``, just counted, is about to commit the
        store buffer: the :data:`CHECKPOINT_INTERVAL`-th since the last
        checkpoint takes one first, and each buffered store's pre-image
        joins the undo log."""
        if self.check_points_since >= CHECKPOINT_INTERVAL:
            self._take_checkpoint(count, loc)
        peek = self.memory.peek
        for addr, _value in self.store_buffer:
            try:
                old = peek(addr)
            except KeyError:
                old = _UNMAPPED
            self.undo_log.append((addr, old))

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Snapshot:
        """The complete state now: between two instructions, before
        :meth:`start`, or after the run ended."""
        return Snapshot(self)

    def restore(self, snapshot: Snapshot) -> None:
        """Put ``snapshot``'s state back; :meth:`resume` (or, for a
        snapshot from before :meth:`start`, :meth:`run`) continues it."""
        memory = self.memory
        memory.cells = dict(snapshot.cells)
        memory.global_top, memory.heap_top, memory.stack_top = snapshot.tops
        memory.load_count, memory.store_count = snapshot.accesses
        self.instructions = snapshot.instructions
        self.boundaries_crossed = snapshot.boundaries
        self.rp_count = snapshot.rp_count
        self.entry = snapshot.entry
        self.loc = snapshot.loc
        self.rp = snapshot.rp
        functions = self.program.functions
        self.frames[:] = [
            _Frame(self._decoded(functions[name]), base, return_loc, return_pc)
            for name, base, return_loc, return_pc in snapshot.frames
        ]
        # Decoded records hold these lists: restore them in place.
        self.int_regs[:] = snapshot.int_regs
        self.float_regs[:] = snapshot.float_regs
        self.store_buffer[:] = snapshot.store_buffer
        self.output[:] = snapshot.output
        self.half_slots, ready, self.mem_ready = snapshot.timing
        # Slots decoded since the snapshot were not written before it.
        self.reg_ready[:] = ready + [0] * (len(self.reg_ready) - len(ready))
        self.checkpoint, self.checkpoint_count, undo, self.check_points_since = (
            snapshot.checkpointed
        )
        self.undo_log = list(undo)
        self._redirected = False
        self._fresh = True

    def matches(self, snapshot: Snapshot) -> bool:
        """Is the state exactly ``snapshot``'s, so that the run goes on
        from here as it went on from there?

        Everything a later instruction can read is compared: location,
        ``rp``, frames, registers, store buffer, output so far, memory
        cells and segment tops.  Values match only with the same type,
        and floats with the same sign; a NaN matches nothing.  Counts
        (``instructions``, boundaries, ``rp_count``, memory accesses),
        timing and the checkpoint log, which only a recovery reads, are
        not compared.
        """
        memory = self.memory
        return (
            self.loc == snapshot.loc
            and self.rp == snapshot.rp
            and (memory.global_top, memory.heap_top, memory.stack_top) == snapshot.tops
            and _frame_rows(self.frames) == snapshot.frames
            and _same_values(self.int_regs, snapshot.int_regs)
            and _same_values(self.float_regs, snapshot.float_regs)
            and len(self.store_buffer) == len(snapshot.store_buffer)
            and all(map(_same_values, self.store_buffer, snapshot.store_buffer))
            and _same_values(self.output, snapshot.output)
            and _same_cells(memory.cells, snapshot.cells)
        )

    # ------------------------------------------------------------------
    # Builtins
    # ------------------------------------------------------------------
    def _builtin(self, name: str) -> None:
        ints = self.int_regs
        floats = self.float_regs
        if name == "malloc":
            ints[0] = self.memory.alloc_heap(int(ints[0]))
        elif name == "free":
            pass
        elif name == "print_int":
            self.output.append(int(ints[0]))
        elif name == "print_float":
            self.output.append(float(floats[0]))
        elif name == "abs":
            ints[0] = wrap64(abs(ints[0]))
        elif name == "fabs":
            floats[0] = abs(floats[0])
        elif name in _MATH_BUILTINS:
            try:
                floats[0] = _MATH_BUILTINS[name](floats[0])
            except (ValueError, OverflowError) as exc:
                # An argument outside the function's domain traps.
                raise SimulationError(f"{name}({floats[0]!r}): {exc}") from None
        elif name == "min":
            ints[0] = min(ints[0], ints[1])
        elif name == "max":
            ints[0] = max(ints[0], ints[1])
        elif name == "fmin":
            floats[0] = min(floats[0], floats[1])
        elif name == "fmax":
            floats[0] = max(floats[0], floats[1])
        else:
            raise SimulationError(f"unknown builtin {name!r}")


_MATH_BUILTINS = {"sqrt": math.sqrt, "exp": math.exp, "log": math.log}


# Division by zero traps, as in the interpreter.
def _sdiv(a, b):
    try:
        return wrap64(_int_div(a, b))
    except ExecutionError as exc:
        raise SimulationError(str(exc)) from None


def _srem(a, b):
    try:
        return wrap64(_int_rem(a, b))
    except ExecutionError as exc:
        raise SimulationError(str(exc)) from None


def _fdiv(a, b):
    try:
        return a / b
    except ZeroDivisionError:
        raise SimulationError("float division by zero") from None


_INT_BINOPS = {
    "add": lambda a, b: wrap64(a + b),
    "sub": lambda a, b: wrap64(a - b),
    "mul": lambda a, b: wrap64(a * b),
    "div": _sdiv,
    "rem": _srem,
    "and": lambda a, b: wrap64(a & b),
    "or": lambda a, b: wrap64(a | b),
    "xor": lambda a, b: wrap64(a ^ b),
    "shl": lambda a, b: wrap64(a << (b & 63)),
    "shr": lambda a, b: wrap64(a >> (b & 63)),
    "cmpeq": lambda a, b: int(a == b),
    "cmpne": lambda a, b: int(a != b),
    "cmplt": lambda a, b: int(a < b),
    "cmple": lambda a, b: int(a <= b),
    "cmpgt": lambda a, b: int(a > b),
    "cmpge": lambda a, b: int(a >= b),
}

_FLOAT_BINOPS = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
    "fdiv": _fdiv,
    "fcmpeq": lambda a, b: int(a == b),
    "fcmpne": lambda a, b: int(a != b),
    "fcmplt": lambda a, b: int(a < b),
    "fcmple": lambda a, b: int(a <= b),
    "fcmpgt": lambda a, b: int(a > b),
    "fcmpge": lambda a, b: int(a >= b),
}

#: binops the loop runs inline rather than through the tables above
_INLINE_BINOPS = {"add": OP_ADD, "sub": OP_SUB, "cmpne": OP_CMPNE, "cmplt": OP_CMPLT}
