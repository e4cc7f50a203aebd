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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.codegen.machine import (
    CLASS_INT,
    DEFAULT_LATENCY,
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


@dataclass
class Location:
    func: str
    block: int
    index: int

    def copy(self) -> "Location":
        return Location(self.func, self.block, self.index)


class _Frame:
    __slots__ = ("func", "base", "return_loc")

    def __init__(self, func: MachineFunction, base: int, return_loc: Optional[Location]) -> None:
        self.func = func
        self.base = base
        self.return_loc = return_loc


class Simulator:
    """Executes a :class:`MachineProgram`."""

    def __init__(
        self,
        program: MachineProgram,
        cost_model: Optional[CostModel] = None,
        max_instructions: int = 100_000_000,
    ) -> None:
        self.program = program
        self.cost = cost_model or CostModel()
        self.max_instructions = max_instructions

        self.memory = Memory()
        self.globals: Dict[str, int] = {}
        self._init_globals()

        # Checkpoint-and-log support: a 16KB-equivalent wrap-around log
        # (2048 words; 1K two-word entries) in its own heap block, indexed
        # by the lp register (r15). See repro.recovery.checkpoint_log.
        self.log_size = 2048
        self.log_base = self.memory.alloc_heap(self.log_size)

        self.int_regs: List[object] = [0] * 16
        self.float_regs: List[float] = [0.0] * 32
        self.frames: List[_Frame] = []
        self.loc: Optional[Location] = None

        # rp: (frame depth, location) — where recovery re-enters.
        self.rp: Optional[Tuple[int, Location]] = None

        # Store buffer: list of (addr, value) since the last verification.
        self.store_buffer: List[Tuple[int, object]] = []

        self.output: List[object] = []
        self.instructions = 0
        self.boundaries_crossed = 0

        # Timing state (half-cycle granularity for dual issue).
        self.half_slots = 0
        self.reg_ready: Dict[Tuple[str, int], int] = {}
        self.mem_ready = 0

        #: optional hook called before each instruction: hook(sim, instr)
        self.pre_hook: Optional[Callable[["Simulator", MachineInstr], None]] = None
        #: optional hook called after each instruction: hook(sim, instr, loc)
        self.post_hook: Optional[Callable[["Simulator", MachineInstr, Location], None]] = None
        self._redirected = False

        # High-frequency observability (per-region dynamic sizes) is
        # sampled only when the observer has tracing enabled; run-level
        # totals are always published (once per run, negligible).
        self._obs_detailed = obs.get_observer().enabled
        self._region_start_instr = 0

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
    # Timing
    # ------------------------------------------------------------------
    def _account(self, instr: MachineInstr) -> None:
        opcode = instr.opcode
        latency = self.cost.latency.get(opcode, 1)

        issue_half = self.half_slots
        for src in instr.srcs:
            ready = self.reg_ready.get((src.rclass, src.index), 0)
            if ready > issue_half:
                issue_half = ready

        extra_ops = 0
        if instr.is_alu and self.cost.alu_issue_factor > 1:
            extra_ops += self.cost.alu_issue_factor - 1
        if opcode in ("ld", "ldslot"):
            extra_ops += self.cost.check_ops_per_load
        elif opcode in ("st", "stslot"):
            extra_ops += self.cost.check_ops_per_store
        elif opcode in ("bnz", "b", "ret"):
            extra_ops += self.cost.check_ops_per_branch

        if instr.is_memory:
            if self.mem_ready > issue_half:
                issue_half = self.mem_ready
            self.mem_ready = issue_half + 2  # one memory op per cycle

        if instr.dst is not None:
            self.reg_ready[(instr.dst.rclass, instr.dst.index)] = (
                issue_half + 2 * latency
            )

        # Each op (plus its redundancy/check companions) consumes issue
        # slots; two slots per cycle.
        self.half_slots = issue_half + 1 + extra_ops
        if opcode in ("bnz", "b", "ret", "call", "callb"):
            # A taken control transfer ends the issue group.
            self.half_slots += self.half_slots % 2

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, func_name: str, args: Tuple = ()) -> object:
        """Execute ``func_name`` to completion; returns its r0/f0 result."""
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
        self._enter_function(func, return_loc=None)
        try:
            with obs.span("sim.run", func=func_name, program=self.program.name):
                self._loop()
        finally:
            self._publish_run_metrics(func_name)
        if func.returns_float:
            return self.float_regs[0]
        return self.int_regs[0]

    def _publish_run_metrics(self, func_name: str) -> None:
        """Run-level totals onto the metrics registry (crashes included)."""
        observer = obs.get_observer()
        observer.counter("sim.runs").inc()
        observer.counter("sim.instructions").inc(self.instructions)
        observer.counter("sim.cycles").inc(self.cycles)
        observer.counter("sim.boundaries").inc(self.boundaries_crossed)

    def _enter_function(self, func: MachineFunction, return_loc: Optional[Location]) -> None:
        base = self.memory.alloc_stack(max(func.frame.size, 1))
        self.frames.append(_Frame(func, base, return_loc))
        self.loc = Location(func.name, 0, 0)
        # Call/entry is an implicit verification + restart point.
        self.flush_store_buffer()
        self.rp = (len(self.frames), self.loc.copy())

    def _current_instr(self) -> Optional[MachineInstr]:
        frame = self.frames[-1]
        block = frame.func.blocks[self.loc.block]
        if self.loc.index >= len(block.instructions):
            raise SimulationError(
                f"fell off block {block.name} in {frame.func.name}"
            )
        return block.instructions[self.loc.index]

    def redirect(self) -> None:
        """Tell the fetch loop that a hook changed ``loc`` (recovery jump)."""
        self._redirected = True

    def _loop(self) -> None:
        while self.frames:
            instr = self._current_instr()
            if self.pre_hook is not None:
                self.pre_hook(self, instr)
                if self._redirected:
                    self._redirected = False
                    continue  # refetch from the new location
            self.instructions += 1
            if self.instructions > self.max_instructions:
                raise SimLimitExceeded(
                    f"exceeded {self.max_instructions} simulated instructions"
                )
            self._account(instr)
            executed_at = self.loc.copy()
            self._execute(instr)
            if self.post_hook is not None:
                self.post_hook(self, instr, executed_at)

    #: opcodes at which buffered stores are verified and committed
    CHECK_POINTS = frozenset(
        ["ld", "st", "ldslot", "stslot", "bnz", "b", "ret", "call", "callb", "rcb"]
    )

    def _execute(self, instr: MachineInstr) -> None:
        opcode = instr.opcode
        frame = self.frames[-1]

        if opcode in self.CHECK_POINTS:
            # DMR verification retires: everything buffered so far is known
            # good and commits to memory. (The fault harness intercepts
            # *before* this via pre_hook when a fault is pending.)
            self.flush_store_buffer()

        if opcode in _INT_BINOPS:
            a = self.get_reg(instr.srcs[0])
            b = self.get_reg(instr.srcs[1])
            self.set_reg(instr.dst, _INT_BINOPS[opcode](a, b))
        elif opcode in _FLOAT_BINOPS:
            a = self.get_reg(instr.srcs[0])
            b = self.get_reg(instr.srcs[1])
            self.set_reg(instr.dst, _FLOAT_BINOPS[opcode](a, b))
        elif opcode == "mov" or opcode == "fmov":
            self.set_reg(instr.dst, self.get_reg(instr.srcs[0]))
        elif opcode == "movi" or opcode == "fmovi":
            self.set_reg(instr.dst, instr.imm)
        elif opcode == "ga":
            self.set_reg(instr.dst, self.globals[instr.imm])
        elif opcode == "lea":
            self.set_reg(instr.dst, frame.base + instr.imm)
        elif opcode == "ld":
            addr = self.get_reg(instr.srcs[0])
            self.set_reg(instr.dst, self.mem_load(addr))
        elif opcode == "st":
            addr = self.get_reg(instr.srcs[1])
            self.mem_store(addr, self.get_reg(instr.srcs[0]))
        elif opcode == "ldslot":
            self.set_reg(instr.dst, self.mem_load(frame.base + instr.imm))
        elif opcode == "stslot":
            self.mem_store(frame.base + instr.imm, self.get_reg(instr.srcs[0]))
        elif opcode == "itof":
            self.set_reg(instr.dst, float(self.get_reg(instr.srcs[0])))
        elif opcode == "ftoi":
            self.set_reg(instr.dst, wrap64(int(self.get_reg(instr.srcs[0]))))
        elif opcode == "csel":
            cond = self.get_reg(instr.srcs[0])
            self.set_reg(
                instr.dst,
                self.get_reg(instr.srcs[1]) if cond else self.get_reg(instr.srcs[2]),
            )
        elif opcode == "bnz":
            if self.get_reg(instr.srcs[0]):
                self._jump(instr.imm)
                return
        elif opcode == "b":
            self._jump(instr.imm)
            return
        elif opcode == "rcb":
            self.boundaries_crossed += 1
            if self._obs_detailed:
                # Dynamic instructions since the previous boundary — the
                # per-region path length the paper's Figs. 8/9 measure.
                obs.histogram("sim.region_dynamic_size").observe(
                    self.instructions - self._region_start_instr
                )
                self._region_start_instr = self.instructions
            next_loc = Location(self.loc.func, self.loc.block, self.loc.index + 1)
            self.rp = (len(self.frames), next_loc)
        elif opcode == "call":
            callee = self.program.functions.get(instr.callee)
            if callee is None:
                raise SimulationError(f"call to unknown function {instr.callee!r}")
            return_loc = Location(self.loc.func, self.loc.block, self.loc.index + 1)
            self._enter_function(callee, return_loc)
            return
        elif opcode == "callb":
            self._builtin(instr)
            # Builtins (I/O, allocation) are not safely re-executable:
            # they are single-instruction regions — advance the restart
            # point past them (§2.3, "non-idempotent instructions").
            next_loc = Location(self.loc.func, self.loc.block, self.loc.index + 1)
            self.rp = (len(self.frames), next_loc)
        elif opcode == "ret":
            done = self.frames.pop()
            self.memory.free_stack(done.base)
            if done.return_loc is None:
                self.loc = None
                return
            self.loc = done.return_loc
            # Return is an implicit verification + restart point.
            self.rp = (len(self.frames), self.loc.copy())
            return
        elif opcode == "stlog":
            # Checkpoint-and-log: write into the wrap-around log region at
            # [lp + imm]. Log traffic is not program-visible state, so it
            # bypasses the store buffer (it writes through the L1 in the
            # paper's setup); cost is accounted as a normal store.
            self._log_write(instr.imm or 0, self.get_reg(instr.srcs[0]))
        elif opcode == "advlp":
            self.int_regs[15] = wrap64(self.int_regs[15] + (instr.imm or 1))
        elif opcode in ("check", "majority"):
            pass  # detection ops are timing-only in this model
        else:
            raise SimulationError(f"cannot simulate opcode {opcode!r}")

        self.loc.index += 1

    def _jump(self, block_name: str) -> None:
        frame = self.frames[-1]
        self.loc = Location(
            frame.func.name, frame.func.block_index(block_name), 0
        )

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
        self.loc = loc.copy()

    # ------------------------------------------------------------------
    # Builtins
    # ------------------------------------------------------------------
    def _builtin(self, instr: MachineInstr) -> None:
        name = instr.callee
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
