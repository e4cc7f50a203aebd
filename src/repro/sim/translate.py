"""Hot straight-line runs of decoded records, translated to Python functions.

A *run* starts at a leader pc (a block start, a branch target, or the pc
after a ``call`` or ``callb``) and takes the records after it up to and
including the first ``b`` or ``bnz`` (with the ``b`` right after a
``bnz``, its not-taken exit); it stops before a ``call``, ``ret``,
``callb``, trap record or block sentinel.  :func:`translate` writes one
such run as the source of one Python function, with register indices,
frame offsets, constants, branch targets, store-buffer commits and, for a
``timed`` simulator, the timing arithmetic spelled out as constants, and
compiles it.  :meth:`repro.sim.Simulator._loop` runs a leader's function
once the program's simulators have reached the leader
:data:`HOT_THRESHOLD` times (see ``docs/simulator.md``, "Translated
runs").

For a ``checkpointing`` simulator a run also keeps the checkpoint-and-log
bookkeeping, in the record loop's order: before each check point it
counts the check point and, where the store buffer, as far as the writer
knows it, or the count can require it, calls the simulator's own
``_log_check_point``, which takes the periodic checkpoint and logs the
pre-images, before the buffer commits.

A translated run leaves exactly the state the record loop leaves, also
when one of its instructions raises: the function's traceback frame and
the table ``UNWIND`` in its source give the count, ``half_slots`` and
``mem_ready`` at that instruction (:func:`unwind`).

Simulators of one program share their leaders' visit counts and the
compiled code: each program has a cache, held weakly so that it dies
with the program and never enters a pickle, whose functions are keyed by
everything the source is written from that can differ between two
simulators of the program.  So a run's source is written once per
program, not once per simulator.  A function takes every per-simulator
object as an argument and keeps none.
"""

from __future__ import annotations

import math
import struct
import weakref
from typing import Callable, Dict, List, Optional, Tuple

from repro.codegen.machine import MachineProgram
from repro.sim.simulator import (
    _FLOAT_BINOPS,
    _INT_BINOPS,
    OP_ADD,
    OP_ADVLP,
    OP_B,
    OP_BINOP,
    OP_BNZ,
    OP_CMPLT,
    OP_CMPNE,
    OP_CSEL,
    OP_FTOI,
    OP_ITOF,
    OP_LD,
    OP_LDSLOT,
    OP_LEA,
    OP_MOV,
    OP_MOVI,
    OP_NOP,
    OP_RCB,
    OP_ST,
    OP_STLOG,
    OP_STSLOT,
    OP_SUB,
    CHECKPOINT_INTERVAL,
    _CHECK_OPS,
    _fdiv,
    _ftoi,
    _sdiv,
    _srem,
)

#: Times a leader is reached, summed over every simulator of its
#: program, before its run is translated.  A run pays for its
#: translation only after this many executions, so freshly built
#: programs of a few hundred instructions rarely translate, while a
#: program simulated again and again translates its lukewarm runs too;
#: see docs/simulator.md for the measurement behind the value.
HOT_THRESHOLD = 64
#: A simulator counts a leader's visits down from this many, and adds
#: them to its program's count only then, so the loop pays one
#: decrement per visit.
HEAT_BATCH = 16

#: the ops a run may contain; any other record ends it before itself
_RUN_OPS = frozenset([
    OP_MOVI, OP_MOV, OP_ADD, OP_LDSLOT, OP_B, OP_STSLOT, OP_LD, OP_BINOP,
    OP_CMPNE, OP_BNZ, OP_CMPLT, OP_RCB, OP_SUB, OP_ST, OP_LEA, OP_ITOF,
    OP_FTOI, OP_CSEL, OP_STLOG, OP_ADVLP, OP_NOP,
])

_MASK = "18446744073709551615"
_SIGN = "9223372036854775808"
_WRAP = "18446744073709551616"

#: BINOP-record functions by the expression that computes them inline,
#: exactly as the function would (``{a}``, ``{b}`` operands), and
#: whether that is then wrapped to 64 bits as ``wrap64`` wraps it
_BINOP_TEMPLATES: Dict[Callable, Tuple[str, bool]] = {
    _INT_BINOPS["mul"]: ("{a} * {b}", True),
    _INT_BINOPS["and"]: ("{a} & {b}", True),
    _INT_BINOPS["or"]: ("{a} | {b}", True),
    _INT_BINOPS["xor"]: ("{a} ^ {b}", True),
    _INT_BINOPS["shl"]: ("{a} << ({b} & 63)", True),
    _INT_BINOPS["shr"]: ("{a} >> ({b} & 63)", True),
    _INT_BINOPS["div"]: ("_sdiv({a}, {b})", False),
    _INT_BINOPS["rem"]: ("_srem({a}, {b})", False),
    _INT_BINOPS["cmpeq"]: ("1 if {a} == {b} else 0", False),
    _INT_BINOPS["cmple"]: ("1 if {a} <= {b} else 0", False),
    _INT_BINOPS["cmpgt"]: ("1 if {a} > {b} else 0", False),
    _INT_BINOPS["cmpge"]: ("1 if {a} >= {b} else 0", False),
    _FLOAT_BINOPS["fadd"]: ("{a} + {b}", False),
    _FLOAT_BINOPS["fsub"]: ("{a} - {b}", False),
    _FLOAT_BINOPS["fmul"]: ("{a} * {b}", False),
    _FLOAT_BINOPS["fdiv"]: ("_fdiv({a}, {b})", False),
    _FLOAT_BINOPS["fcmpeq"]: ("1 if {a} == {b} else 0", False),
    _FLOAT_BINOPS["fcmpne"]: ("1 if {a} != {b} else 0", False),
    _FLOAT_BINOPS["fcmplt"]: ("1 if {a} < {b} else 0", False),
    _FLOAT_BINOPS["fcmple"]: ("1 if {a} <= {b} else 0", False),
    _FLOAT_BINOPS["fcmpgt"]: ("1 if {a} > {b} else 0", False),
    _FLOAT_BINOPS["fcmpge"]: ("1 if {a} >= {b} else 0", False),
}


def _float_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: what every generated module sees besides its own constants
_NAMESPACE = {
    "_sdiv": _sdiv,
    "_srem": _srem,
    "_fdiv": _fdiv,
    "_ftoi": _ftoi,
    "_float_from_bits": _float_from_bits,
}


class _Shared:
    """What the simulators of one program share."""

    __slots__ = ("visits", "compiled")

    def __init__(self) -> None:
        #: (function name, leader pc) -> visits counted so far
        self.visits: Dict[Tuple[str, int], int] = {}
        #: (function name, leader pc, timed, checkpointing, the run's
        #: timing tuples when timed) -> compiled run.  The records are no
        #: part of the key: no instruction changes once a program exists.
        self.compiled: Dict[tuple, Callable] = {}


_SHARED: "weakref.WeakKeyDictionary[MachineProgram, _Shared]" = (
    weakref.WeakKeyDictionary()
)


def _shared(program: MachineProgram) -> _Shared:
    shared = _SHARED.get(program)
    if shared is None:
        shared = _SHARED[program] = _Shared()
    return shared


def heated(program: MachineProgram, function: str, pc: int) -> bool:
    """Count :data:`HEAT_BATCH` more visits of the leader at ``pc`` of
    ``function``: has the program now reached it :data:`HOT_THRESHOLD`
    times?"""
    visits = _shared(program).visits
    key = (function, pc)
    visits[key] = visits.get(key, 0) + HEAT_BATCH
    return visits[key] >= HOT_THRESHOLD


def translate(
    program: MachineProgram,
    function: str,
    records: List[tuple],
    timing: List[tuple],
    pc: int,
    int_regs: list,
    float_regs: list,
    timed: bool,
    checkpointing: bool,
) -> Optional[Callable]:
    """The compiled run that starts at ``pc`` of ``function``, decoded
    into ``records`` and ``timing``, or None if no record there can run
    translated.  Its source is written only the first time a simulator
    of ``program`` asks for it with these settings.  The cost model and
    the slots of registers outside the 48 differ between simulators, so
    a ``timed`` run is keyed by its timing tuples too."""
    end = _extent(records, pc)
    if end == pc:
        return None
    key = (
        function, pc, timed, checkpointing,
        tuple(timing[pc:end]) if timed else None,
    )
    compiled = _shared(program).compiled
    run = compiled.get(key)
    if run is None:
        source = _Writer(
            records, timing, int_regs, float_regs, timed, checkpointing
        ).source(pc, end)
        namespace = dict(_NAMESPACE)
        exec(compile(source, "<translated run>", "exec"), namespace)
        run = compiled[key] = namespace["run"]
    return run


def unwind(run: Callable, exc: BaseException) -> Optional[Tuple[int, int, int]]:
    """(instructions retired, ``half_slots``, ``mem_ready``) where ``exc``
    left ``run``, counting the instruction that raised; None if it
    raised before any instruction."""
    tb = exc.__traceback__
    while tb is not None and tb.tb_frame.f_code is not run.__code__:
        tb = tb.tb_next
    if tb is None:
        return None
    where = None
    for entry in run.__globals__["UNWIND"].split():
        line, *rest = entry.split(",")
        if int(line) > tb.tb_lineno:
            break
        where = rest
    if where is None:
        return None
    retired, half, half_offset, mem, mem_offset = where
    local = tb.tb_frame.f_locals
    return (
        int(retired), local[half] + int(half_offset), local[mem] + int(mem_offset)
    )


def _extent(records: List[tuple], pc: int) -> int:
    """The pc just past the run that starts at ``pc``."""
    end = pc
    while records[end][0] in _RUN_OPS and _runnable(records[end]):
        op = records[end][0]
        end += 1
        if op == OP_B:
            break
        if op == OP_BNZ:
            if records[end][0] == OP_B:
                end += 1
            break
    return end


def _runnable(record: tuple) -> bool:
    op = record[0]
    if op == OP_MOVI:
        return type(record[3]) in (int, float, bool)
    if op == OP_BINOP:
        return record[1] in _BINOP_TEMPLATES
    return True


class _Writer:
    """Writes the source of one run.

    Timing is kept symbolically: every issue time is an *anchor* local
    (``h`` at entry, then ``i1``, ``i2``, ...) plus a constant, and a
    comparison is written only where the candidates' order is unknown
    statically.  Within a run, issue times never decrease and each
    instruction's half is its issue plus its issue slots, so an anchor
    is at least the previous one plus the offset it was made from
    (``_floor``), and a ready time read once no longer bounds a later
    issue.
    """

    def __init__(
        self, records, timing, int_regs, float_regs, timed, checkpointing
    ) -> None:
        self.records = records
        self.timing = timing
        self.names = {id(int_regs): "X", id(float_regs): "F"}
        self.timed = timed
        self.checkpointing = checkpointing
        self.lines: List[str] = []
        #: "line,retired,half local,offset,mem_ready local,offset" from
        #: each line on which the state an exception leaves changes
        self.unwind: List[str] = []
        self._where = ""
        self.constants: List[str] = []
        # Timing: (anchor, offset) pairs.
        self.anchors = ["h"]
        #: anchor n - anchor k >= _floor[n] - _floor[k] for k <= n
        self._floor = [0]
        self.half = (0, 0)
        self.mem: Optional[Tuple[int, int]] = None  # None: the entry ``m``
        #: slot -> (anchor, offset) once written; None once read
        self.ready: Dict[int, Optional[Tuple[int, int]]] = {}
        # Store buffer: None unknown (entry), () empty, else the one
        # pending (address, value) locals.
        self.sbuf: Optional[tuple] = None

    # ------------------------------------------------------------------
    def source(self, pc: int, end: int) -> str:
        """The source of the run from ``pc`` to ``end``."""
        self.lines = [
            "def run(E, L, base, c, h, m):",
            "    X, F, R, sbuf, load, store, S, stop = E",
            f"    if c + {end - pc} > stop:",
            "        return None",
        ]
        for k, at in enumerate(range(pc, end)):
            self._instruction(k, at, end)
        last = self.records[end - 1][0]
        if last not in (OP_B, OP_BNZ):
            self._exit(end, end - pc, "")
        self.lines.append(f"UNWIND = {' '.join(self.unwind)!r}")
        self.lines.extend(self.constants)
        return "\n".join(self.lines) + "\n"

    # ------------------------------------------------------------------
    def _emit(self, line: str) -> None:
        self.lines.append("    " + line)
        if self._where:
            self.unwind.append(f"{len(self.lines)},{self._where}")
            self._where = ""

    def _exit(self, target: int, retired: int, indent: str) -> None:
        self.lines.append(
            f"    {indent}return {target}, c + {retired}, "
            f"{self._expr(self.half)}, {self._mem_expr()}"
        )

    def _reg(self, regs: list, index: int) -> str:
        return f"{self.names[id(regs)]}[{index}]"

    def _constant(self, value) -> str:
        if type(value) is float and not math.isfinite(value):
            name = f"K{len(self.constants)}"
            bits = struct.unpack("<Q", struct.pack("<d", value))[0]
            self.constants.append(f"{name} = _float_from_bits({bits:#x})")
            return name
        return repr(value)

    def _commit(self) -> None:
        """A check point commits the store buffer."""
        if self.sbuf is None:
            self._emit("if sbuf:")
            self._emit("    S.flush_store_buffer()")
        elif self.sbuf:
            self._emit("store(sa, sv)")
            self._emit("sbuf.clear()")
        self.sbuf = ()

    def _check_point(self, k: int, pc: int) -> None:
        """The checkpoint-and-log bookkeeping of the check point at
        ``pc``, instruction ``k`` of the run.  The record loop keeps it
        before it counts the instruction, so it comes before the
        instruction's timing and its line of ``UNWIND``."""
        self._emit("S.check_points_since += 1")
        log = f"S._log_check_point(c + {k}, L[{pc}])"
        if self.sbuf:  # a store is pending: its pre-image is logged
            self._emit(log)
            return
        due = f"S.check_points_since >= {CHECKPOINT_INTERVAL}"
        self._emit(f"if {due}:" if self.sbuf == () else f"if sbuf or {due}:")
        self._emit(f"    {log}")

    def _instruction(self, k: int, pc: int, end: int) -> None:
        record = self.records[pc]
        op = record[0]
        if self.checkpointing and op in _CHECK_OPS:
            self._check_point(k, pc)
        if self.timed:
            self._account(self.timing[pc])
        # Only the instruction's own lines raise, after its timing.
        self._where = f"{k + 1},{self._state()}"
        if op in _CHECK_OPS:
            self._commit()
        emit, reg = self._emit, self._reg
        if op == OP_MOVI:
            _, dl, d, value = record
            emit(f"{reg(dl, d)} = {self._constant(value)}")
        elif op == OP_MOV:
            _, sl, s, dl, d = record
            emit(f"{reg(dl, d)} = {reg(sl, s)}")
        elif op in (OP_ADD, OP_SUB):
            _, al, a, bl, b, dl, d = record
            sign = "+" if op == OP_ADD else "-"
            self._wrapped(f"{reg(al, a)} {sign} {reg(bl, b)}", reg(dl, d))
        elif op in (OP_CMPNE, OP_CMPLT):
            _, al, a, bl, b, dl, d = record
            test = "!=" if op == OP_CMPNE else "<"
            emit(f"{reg(dl, d)} = 1 if {reg(al, a)} {test} {reg(bl, b)} else 0")
        elif op == OP_BINOP:
            _, function, al, a, bl, b, dl, d = record
            template, wrap = _BINOP_TEMPLATES[function]
            value = template.format(a=reg(al, a), b=reg(bl, b))
            if wrap:
                self._wrapped(value, reg(dl, d))
            else:
                emit(f"{reg(dl, d)} = {value}")
        elif op == OP_LDSLOT:
            _, dl, d, offset = record
            emit(f"{reg(dl, d)} = load(base + {offset})")
        elif op == OP_LD:
            _, al, a, dl, d = record
            emit(f"{reg(dl, d)} = load({reg(al, a)})")
        elif op == OP_STSLOT:
            _, vl, v, offset = record
            emit(f"sa = base + {offset}")
            self._buffer(reg(vl, v))
        elif op == OP_ST:
            _, vl, v, al, a = record
            emit(f"sa = {reg(al, a)}")
            self._buffer(reg(vl, v))
        elif op == OP_LEA:
            _, dl, d, offset = record
            emit(f"{reg(dl, d)} = base + {offset}")
        elif op == OP_ITOF:
            _, sl, s, dl, d = record
            emit(f"{reg(dl, d)} = float({reg(sl, s)})")
        elif op == OP_FTOI:
            _, sl, s, dl, d = record
            emit(f"{reg(dl, d)} = _ftoi({reg(sl, s)})")
        elif op == OP_CSEL:
            _, cl, cn, al, a, bl, b, dl, d = record
            emit(f"{reg(dl, d)} = {reg(al, a)} if {reg(cl, cn)} else {reg(bl, b)}")
        elif op == OP_RCB:
            emit("S.boundaries_crossed += 1")
            emit(f"S.rp = (len(S.frames), L[{pc + 1}])")
            emit(f"S.rp_count = c + {k + 1}")
        elif op == OP_STLOG:
            _, vl, v, offset = record
            emit(f"S._log_write({offset}, {reg(vl, v)})")
        elif op == OP_ADVLP:
            self._wrapped(f"X[15] + {record[1]}", "X[15]")
        elif op == OP_B:
            self._exit(record[1], k + 1, "")
        elif op == OP_BNZ:
            _, cl, cn, target = record
            emit(f"if {reg(cl, cn)}:")
            self._exit(target, k + 1, "    ")
            if pc + 1 == end:
                self._exit(pc + 1, k + 1, "")
        # OP_NOP: timing only

    def _wrapped(self, value: str, dst: str) -> None:
        """``dst = wrap64(value)``, as the record loop writes it."""
        self._emit(f"v = {value}")
        self._emit(f"v &= {_MASK}")
        self._emit(f"if v >= {_SIGN}:")
        self._emit(f"    v -= {_WRAP}")
        self._emit(f"{dst} = v")

    def _buffer(self, value: str) -> None:
        self._emit(f"sv = {value}")
        self._emit("sbuf.append((sa, sv))")
        self.sbuf = ("sa", "sv")

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def _state(self) -> str:
        """Where ``half`` and ``mem_ready`` are: "local,offset,local,offset"."""
        anchor, offset = self.half
        mem = "m,0" if self.mem is None else f"{self.anchors[self.mem[0]]},{self.mem[1]}"
        return f"{self.anchors[anchor]},{offset},{mem}"

    def _expr(self, value: Tuple[int, int]) -> str:
        anchor, offset = value
        name = self.anchors[anchor]
        return f"{name} + {offset}" if offset else name

    def _mem_expr(self) -> str:
        return "m" if self.mem is None else self._expr(self.mem)

    def _bounds(self, value: Tuple[int, int], by: Tuple[int, int]) -> bool:
        """Is ``value`` <= ``by`` whatever the entry state?"""
        return value[1] <= by[1] + self._floor[by[0]] - self._floor[value[0]]

    def _account(self, timing: tuple) -> None:
        """The record loop's timing model for one instruction."""
        srcs, memory_op, dst, latency, issue_slots, ends_group = timing
        ready = self.ready
        best = self.half
        dynamic: List[str] = []
        older: List[Tuple[int, int]] = []
        candidates = []
        for src in dict.fromkeys(srcs):
            if src not in ready:
                dynamic.append(f"R[{src}]")
            elif ready[src] is not None:
                candidates.append(ready[src])
        if memory_op:
            if self.mem is None:
                dynamic.append("m")
            else:
                candidates.append(self.mem)
        for value in candidates:
            if self._bounds(value, best):
                continue
            if value[0] == best[0]:
                best = value
            else:
                older.append(value)
        older = [value for value in older if not self._bounds(value, best)]
        if dynamic or older:
            name = f"i{len(self.anchors)}"
            self._emit(f"{name} = {self._expr(best)}")
            for value in dynamic + [self._expr(v) for v in older]:
                self._emit(f"t = {value}")
                self._emit(f"if t > {name}:")
                self._emit(f"    {name} = t")
            self._floor.append(self._floor[best[0]] + best[1])
            self.anchors.append(name)
            issue = (len(self.anchors) - 1, 0)
        else:
            issue = best
        anchor, offset = issue
        if memory_op:
            self.mem = (anchor, offset + 2)
        for src in srcs:
            ready[src] = None
        ready[dst] = (anchor, offset + latency)
        self._emit(f"R[{dst}] = {self._expr(ready[dst])}")
        self.half = (anchor, offset + issue_slots)
        if ends_group:
            # A taken control transfer ends the issue group.
            name = f"i{len(self.anchors)}"
            self._emit(f"{name} = {self._expr(self.half)}")
            self._emit(f"{name} += {name} % 2")
            self._floor.append(self._floor[anchor] + offset + issue_slots)
            self.anchors.append(name)
            self.half = (len(self.anchors) - 1, 0)
