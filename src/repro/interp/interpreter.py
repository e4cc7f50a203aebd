"""Direct interpreter for the repro IR.

Executes modules with C-like semantics: 64-bit wrapping signed integer
arithmetic, truncating division, IEEE doubles. It is the semantic
reference every binary is checked against: the golden and differential
tests, the fuzz oracle and perfbench compare simulator runs with it.

Integer wrapping matters: workload kernels use hash mixing and LCG
generators whose overflow behaviour must match the machine simulator.

Execution engine: each :class:`Function` is decoded once per
interpreter, on its first call, into one tuple of records per block (a
small-int op and the slots it reads and writes in a per-frame list,
whose constant, global-address and undef slots come pre-filled from a
per-function template; resolved successor edges, each with the moves of
its target's φs; the resolved callee or builtin); one loop over locals
runs them.  Decoding never raises: an instruction that cannot run
raises its error when, and only when, it executes.  An operand the
decoder cannot prove defined (its definition does not dominate the use,
which only IR that fails ``verify_module(ssa=True)`` allows) is checked
just before its instruction runs, so a use before any definition raises
at the step it is reached.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Dict, List, Sequence

from repro.interp.memory import Memory
from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    BinaryOp,
    Boundary,
    Br,
    Call,
    Fcmp,
    Ftoi,
    Gep,
    Icmp,
    Instruction,
    Itof,
    Jump,
    Load,
    Ret,
    Select,
    Store,
)
from repro.ir.module import Module
from repro.ir.values import Constant, GlobalVariable, Undef, Value

_MASK64 = (1 << 64) - 1
_SIGN64 = 1 << 63
_WRAP64 = 1 << 64


def wrap64(value: int) -> int:
    """Wrap a Python int to 64-bit two's-complement signed."""
    value &= _MASK64
    if value >= 1 << 63:
        value -= 1 << 64
    return value


def _int_div(a: int, b: int) -> int:
    if b == 0:
        raise ExecutionError("integer division by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _int_rem(a: int, b: int) -> int:
    if b == 0:
        raise ExecutionError("integer remainder by zero")
    return a - _int_div(a, b) * b


class ExecutionError(RuntimeError):
    """Raised on runtime faults: bad memory, div-by-zero, missing function."""


class StepLimitExceeded(ExecutionError):
    """The configured dynamic instruction budget ran out."""


# Record ops, numbered in the order the loop tests them (most frequent
# first in the suite's dynamic mix).
(
    OP_LOAD, OP_STORE, OP_LOADF, OP_GEP, OP_ADD, OP_JMP, OP_NE, OP_BR, OP_LT,
    OP_SUB, OP_BINOP, OP_NOP, OP_CMP, OP_ALLOCA, OP_CALL, OP_RET, OP_ITOF,
    OP_SELECT, OP_FTOI, OP_CALLB, OP_GUARD, OP_RAISE,
) = range(22)

#: a frame slot no instruction has written yet
_UNSET = object()


class _Code:
    """One function decoded."""

    __slots__ = ("func", "arity", "template", "blocks", "names", "entry", "slot_of")

    def __init__(self, func: Function) -> None:
        self.func = func
        self.arity = len(func.args)
        #: a new frame's slots: the arguments, then one per other value
        #: the function reads or defines (constants, global addresses and
        #: undefs pre-filled, the rest unset) and the φ temporaries
        self.template: List[object] = []
        #: the record tuple of each block reached from the entry
        self.blocks: List[tuple] = []
        #: each block's name, for the error a block that falls through
        #: raises (past the reached blocks, the empty block a branch to
        #: no block enters, named after the branch's block)
        self.names: List[str] = []
        #: the edge into the entry block
        self.entry: tuple = ()
        #: the slot of every operand and result, by ``id`` of its value
        self.slot_of: Dict[int, int] = {}


class Interpreter:
    """Executes IR functions against a fresh :class:`Memory`.

    Attributes:
        output: values printed by ``print_int`` / ``print_float``.
        steps: dynamic instruction count (φs and boundaries included).
    """

    def __init__(self, module: Module, max_steps: int = 50_000_000) -> None:
        self.module = module
        self.memory = Memory()
        self.globals: Dict[str, int] = {}
        self.output: List[object] = []
        self.steps = 0
        self.max_steps = max_steps
        self._code: Dict[Function, _Code] = {}
        self._init_globals()

    def _init_globals(self) -> None:
        for var in self.module.globals.values():
            addr = self.memory.alloc_global(var.size)
            self.globals[var.name] = addr
            if var.initializer:
                for i, value in enumerate(var.initializer):
                    self.memory.poke(addr + i, value)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(self, func_name: str, args: Sequence[object] = ()) -> object:
        """Call ``func_name`` with Python values; returns its result."""
        func = self.module.functions.get(func_name)
        if func is None or func.is_declaration:
            raise ExecutionError(f"no defined function @{func_name}")
        return self._call(func, list(args))

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _decode(self, func: Function) -> _Code:
        code = _Code(func)
        template, slot_of = code.template, code.slot_of
        for arg in func.args:
            slot_of[id(arg)] = len(template)
            template.append(_UNSET)
        none_slot = len(template)  # what a bare ``ret`` returns
        template.append(None)

        # The blocks execution can reach: a block runs its leading φs, then
        # its other instructions up to the first br, jmp or ret.
        blocks: List[BasicBlock] = [func.entry]
        number: Dict[BasicBlock, int] = {func.entry: 0}
        phis: List[list] = []
        bodies: List[list] = []
        succs: List[List[int]] = []
        for block in blocks:
            phis.append(list(block.phis()))
            body = []
            targets = []
            for inst in block.non_phi_instructions():
                body.append(inst)
                if isinstance(inst, Br):
                    targets = [inst.then_block, inst.else_block]
                elif isinstance(inst, Jump):
                    targets = [inst.target]
                elif not isinstance(inst, Ret):
                    continue
                break
            bodies.append(body)
            succs.append([])
            for target in targets:
                if target is not None:
                    if target not in number:
                        number[target] = len(blocks)
                        blocks.append(target)
                    succs[-1].append(number[target])
        dom = _dominators(succs)

        # Where each result is defined: (block, position); a value
        # defined at more than one place is never proven defined.
        defined_at: Dict[int, object] = {}
        for b, body in enumerate(bodies):
            for pos, inst in enumerate(phis[b] + body):
                if inst.is_phi or isinstance(inst, _DEFINES):
                    key = id(inst)
                    defined_at[key] = None if key in defined_at else (b, pos)
                    if key not in slot_of:
                        slot_of[key] = len(template)
                        template.append(_UNSET)
        own_args = {id(arg) for arg in func.args}

        def defined(value: Value, b: int, pos: int) -> bool:
            """Whether ``value`` is always defined before position ``pos``
            of block ``b`` runs."""
            if isinstance(value, (Constant, Undef)):
                return True
            if isinstance(value, GlobalVariable):
                return value.name in self.globals
            key = id(value)
            if key not in defined_at:
                return key in own_args
            where = defined_at[key]
            if where is None:
                return False
            d, at = where
            return at < pos if d == b else bool(dom[b] >> d & 1)

        def slot(value: Value) -> int:
            key = id(value)
            index = slot_of.get(key)
            if index is None:
                index = slot_of[key] = len(template)
                if isinstance(value, Constant):
                    template.append(value.value)
                elif isinstance(value, GlobalVariable) and value.name in self.globals:
                    template.append(self.globals[value.name])
                elif isinstance(value, Undef):
                    template.append(0.0 if value.type.is_float else 0)
                else:  # never defined in this function: guarded
                    template.append(_UNSET)
            return index

        temps: List[int] = []

        def temp(i: int) -> int:
            while len(temps) <= i:
                temps.append(len(template))
                template.append(_UNSET)
            return temps[i]

        def edge(source: int, target) -> tuple:
            """(block, φ count, moves) of the edge ``source`` → ``target``:
            each move copies a slot into a φ, the moves in order equal
            the φs reading all their inputs at once.  A φ count of -1
            marks an edge whose inputs the checked path reads."""
            if target is None:  # a branch to nowhere falls through there
                code.names.append(blocks[source].name)
                return (len(code.names) - 1, 0, ())
            t = number[target]
            if not phis[t]:
                return (t, 0, ())
            pairs = []
            if source >= 0:  # (a function's entry comes from no block)
                end = len(phis[source]) + len(bodies[source])
                for phi in phis[t]:
                    try:
                        value = phi.incoming_for(blocks[source])
                    except KeyError:
                        break
                    if not defined(value, source, end):
                        break
                    pairs.append((slot_of[id(phi)], slot(value)))
            if len(pairs) < len(phis[t]):
                prev = blocks[source] if source >= 0 else None
                return (t, -1, (phis[t], prev, tuple(
                    (slot_of[id(phi)], temp(i)) for i, phi in enumerate(phis[t])
                )))
            written = {d for d, _ in pairs}
            saves: List[tuple] = []
            moves: List[tuple] = []
            for d, s in pairs:
                if s in written:  # read before any φ is written
                    saves.append((temp(len(saves)), s))
                    s = saves[-1][0]
                moves.append((d, s))
            return (t, len(pairs), tuple(saves + moves))

        code.names.extend(block.name for block in blocks)
        code.entry = edge(-1, func.entry)
        for b, body in enumerate(bodies):
            records = []
            for pos, inst in enumerate(body, len(phis[b])):
                try:
                    if not all(defined(v, b, pos) for v in _evaluated(inst)):
                        records.append((OP_GUARD, inst))
                    records.append(self._record(inst, b, slot, edge, none_slot))
                except Exception as exc:  # raised again when it executes
                    records.append((OP_RAISE, type(exc), exc.args))
            code.blocks.append(tuple(records))
        # a branch to nowhere enters an empty block
        code.blocks.extend(() for _ in range(len(code.names) - len(bodies)))
        return code

    def _record(self, inst: Instruction, b: int, slot, edge, none_slot: int) -> tuple:
        if isinstance(inst, Load):
            op = OP_LOADF if inst.type.is_float else OP_LOAD
            return (op, slot(inst), slot(inst.ptr))
        if isinstance(inst, Store):
            return (OP_STORE, slot(inst.value), slot(inst.ptr))
        if isinstance(inst, Gep):
            return (OP_GEP, slot(inst), slot(inst.base), slot(inst.index))
        if isinstance(inst, BinaryOp):
            operands = (slot(inst), slot(inst.lhs), slot(inst.rhs))
            if inst.opcode == "add":
                return (OP_ADD, *operands)
            if inst.opcode == "sub":
                return (OP_SUB, *operands)
            function = _BINOPS.get(inst.opcode)
            if function is None:
                return (OP_RAISE, ExecutionError, (f"unknown binop {inst.opcode}",))
            return (OP_BINOP, *operands, function)
        if isinstance(inst, (Icmp, Fcmp)):
            operands = (slot(inst), slot(inst.lhs), slot(inst.rhs))
            if inst.pred == "ne":
                return (OP_NE, *operands)
            if inst.pred == "lt":
                return (OP_LT, *operands)
            function = _COMPARE.get(inst.pred)
            if function is None:
                return (OP_RAISE, KeyError, (inst.pred,))
            return (OP_CMP, *operands, function)
        if isinstance(inst, Jump):
            return (OP_JMP, edge(b, inst.target))
        if isinstance(inst, Br):
            return (OP_BR, slot(inst.cond), edge(b, inst.then_block),
                    edge(b, inst.else_block))
        if isinstance(inst, Ret):
            return (OP_RET, none_slot if inst.value is None else slot(inst.value))
        if isinstance(inst, Boundary):
            return (OP_NOP,)
        if isinstance(inst, Alloca):
            return (OP_ALLOCA, slot(inst), inst.size)
        if isinstance(inst, Call):
            args = tuple(slot(arg) for arg in inst.args)
            name = inst.callee
            if name in _BUILTINS:
                return (OP_CALLB, slot(inst), _BUILTINS[name], args)
            callee = self.module.functions.get(name)
            if callee is None or callee.is_declaration:
                return (OP_RAISE, ExecutionError,
                        (f"call to undefined function @{name}",))
            if len(args) != len(callee.args):
                return (OP_RAISE, ExecutionError, (
                    f"@{callee.name} expects {len(callee.args)} args, got {len(args)}",
                ))
            return (OP_CALL, slot(inst), callee, args)
        if isinstance(inst, Itof):
            return (OP_ITOF, slot(inst), slot(inst.operand(0)))
        if isinstance(inst, Ftoi):
            return (OP_FTOI, slot(inst), slot(inst.operand(0)))
        if isinstance(inst, Select):
            return (OP_SELECT, slot(inst), slot(inst.cond), slot(inst.true_value),
                    slot(inst.false_value))
        return (OP_RAISE, ExecutionError, (f"cannot interpret {inst!r}",))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _call(self, func: Function, args: List[object]) -> object:
        code = self._code.get(func)
        if code is None:
            code = self._code[func] = self._decode(func)
        if len(args) != code.arity:
            raise ExecutionError(
                f"@{func.name} expects {code.arity} args, got {len(args)}"
            )
        slots = list(code.template)
        slots[:code.arity] = args
        blocks = code.blocks
        memory = self.memory
        cells = memory.cells
        stack_base = memory.stack_top
        limit = self.max_steps
        steps = self.steps
        loads = stores = 0
        edge = code.entry
        try:
            while True:
                b, count, moves = edge
                if count:  # the target's φs read their inputs at once
                    if count < 0:
                        count, moves = self._phi_inputs(code, slots, *moves)
                    steps += count
                    if steps > limit:
                        steps = limit + 1
                        raise StepLimitExceeded(f"exceeded {limit} steps")
                    for d, s in moves:
                        slots[d] = slots[s]
                for record in blocks[b]:
                    steps += 1
                    if steps > limit:
                        raise StepLimitExceeded(f"exceeded {limit} steps")
                    op = record[0]
                    if op == OP_LOAD:
                        _, d, p = record
                        addr = slots[p]
                        try:
                            slots[d] = cells[addr]
                        except KeyError:
                            slots[d] = memory.load(addr)
                        else:
                            loads += 1
                    elif op == OP_STORE:
                        _, v, p = record
                        addr = slots[p]
                        if addr in cells:
                            cells[addr] = slots[v]
                            stores += 1
                        else:
                            memory.store(addr, slots[v])
                    elif op == OP_LOADF:
                        _, d, p = record
                        addr = slots[p]
                        try:
                            value = cells[addr]
                        except KeyError:
                            value = memory.load(addr)
                        else:
                            loads += 1
                        slots[d] = float(value) if isinstance(value, int) else value
                    elif op == OP_GEP:
                        _, d, a, i = record
                        slots[d] = slots[a] + slots[i]
                    elif op == OP_ADD:
                        _, d, a, c = record
                        value = slots[a] + slots[c]
                        value &= _MASK64
                        if value >= _SIGN64:
                            value -= _WRAP64
                        slots[d] = value
                    elif op == OP_JMP:
                        edge = record[1]
                        break
                    elif op == OP_NE:
                        _, d, a, c = record
                        slots[d] = 1 if slots[a] != slots[c] else 0
                    elif op == OP_BR:
                        edge = record[2] if slots[record[1]] else record[3]
                        break
                    elif op == OP_LT:
                        _, d, a, c = record
                        slots[d] = 1 if slots[a] < slots[c] else 0
                    elif op == OP_SUB:
                        _, d, a, c = record
                        value = slots[a] - slots[c]
                        value &= _MASK64
                        if value >= _SIGN64:
                            value -= _WRAP64
                        slots[d] = value
                    elif op == OP_BINOP:
                        _, d, a, c, function = record
                        slots[d] = function(slots[a], slots[c])
                    elif op == OP_NOP:
                        pass
                    elif op == OP_CMP:
                        _, d, a, c, function = record
                        slots[d] = 1 if function(slots[a], slots[c]) else 0
                    elif op == OP_ALLOCA:
                        slots[record[1]] = memory.alloc_stack(record[2])
                    elif op == OP_CALL:
                        _, d, callee, arg_slots = record
                        args = [slots[s] for s in arg_slots]
                        self.steps = steps
                        try:
                            slots[d] = self._call(callee, args)
                        finally:
                            steps = self.steps
                    elif op == OP_RET:
                        value = slots[record[1]]
                        memory.free_stack(stack_base)
                        return value
                    elif op == OP_ITOF:
                        slots[record[1]] = float(slots[record[2]])
                    elif op == OP_SELECT:
                        _, d, c, a, f = record
                        slots[d] = slots[a] if slots[c] else slots[f]
                    elif op == OP_FTOI:
                        slots[record[1]] = wrap64(int(slots[record[2]]))
                    elif op == OP_CALLB:
                        _, d, function, arg_slots = record
                        slots[d] = function(self, [slots[s] for s in arg_slots])
                    elif op == OP_GUARD:
                        self._check_defined(code, slots, record[1])
                        steps -= 1  # the guarded instruction counts itself
                    else:  # OP_RAISE
                        raise record[1](*record[2])
                else:
                    raise ExecutionError(
                        f"block {code.names[b]} in @{func.name} fell through"
                    )
        finally:
            self.steps = steps
            memory.load_count += loads
            memory.store_count += stores

    # ------------------------------------------------------------------
    # The checked path (only IR that fails the SSA verifier takes it)
    # ------------------------------------------------------------------
    def _value(self, code: _Code, slots: list, value: Value) -> object:
        """Read ``value`` in a frame of ``code``, raising if no
        instruction has defined it yet."""
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, GlobalVariable):
            return self.globals[value.name]
        if isinstance(value, Undef):
            return 0.0 if value.type.is_float else 0
        index = code.slot_of.get(id(value))
        result = _UNSET if index is None else slots[index]
        if result is _UNSET:
            raise ExecutionError(
                f"use of undefined value {value.ref()} in @{code.func.name}"
            )
        return result

    def _check_defined(self, code: _Code, slots: list, inst: Instruction) -> None:
        """Read the operands ``inst`` reads, in the order it reads them."""
        if isinstance(inst, Select):
            cond = self._value(code, slots, inst.cond)
            self._value(code, slots, inst.true_value if cond else inst.false_value)
            return
        for value in _evaluated(inst):
            self._value(code, slots, value)

    def _phi_inputs(self, code: _Code, slots: list, phis: list, prev, moves: tuple):
        """Read the input of each of ``phis`` from block ``prev`` into the
        temporary its move copies from; returns (φ count, moves)."""
        values = [self._value(code, slots, phi.incoming_for(prev)) for phi in phis]
        for (_, temp), value in zip(moves, values):
            slots[temp] = value
        return len(phis), moves


#: the instructions that define a value (a store, branch, return or
#: boundary defines none)
_DEFINES = (BinaryOp, Icmp, Fcmp, Select, Itof, Ftoi, Alloca, Load, Gep, Call)
#: the instructions that read all their operands, in operand order
_READS_OPERANDS = (
    BinaryOp, Icmp, Fcmp, Select, Itof, Ftoi, Load, Gep, Br, Ret, Call,
)


def _evaluated(inst: Instruction) -> List[Value]:
    """The operands ``inst`` reads, in order (a select reads one arm)."""
    if isinstance(inst, Store):
        return [inst.ptr, inst.value]
    if isinstance(inst, _READS_OPERANDS):
        return inst.operands
    return []


def _dominators(succs: List[List[int]]) -> List[int]:
    """Each block's dominators as a bit mask, block 0 the entry; every
    block must be reachable from it.

    The graph is the one execution takes (a block leaves at its first
    br, jmp or ret, and may branch to a block outside the function),
    which :mod:`repro.analysis.cfg` builds only for verified IR."""
    preds: List[List[int]] = [[] for _ in succs]
    for b, targets in enumerate(succs):
        for t in targets:
            preds[t].append(b)
    full = (1 << len(succs)) - 1
    dom = [1] + [full] * (len(succs) - 1)
    changed = True
    while changed:
        changed = False
        for b in range(1, len(succs)):
            mask = full
            for p in preds[b]:
                mask &= dom[p]
            mask |= 1 << b
            if mask != dom[b]:
                dom[b] = mask
                changed = True
    return dom


def _fdiv(a, b):
    if b == 0.0:
        raise ExecutionError("float division by zero")
    return a / b


#: binops the loop runs through a function (add and sub run inline)
_BINOPS: Dict[str, Callable] = {
    "mul": lambda a, b: wrap64(a * b),
    "div": lambda a, b: wrap64(_int_div(a, b)),
    "rem": lambda a, b: wrap64(_int_rem(a, b)),
    "and": lambda a, b: wrap64(a & b),
    "or": lambda a, b: wrap64(a | b),
    "xor": lambda a, b: wrap64(a ^ b),
    "shl": lambda a, b: wrap64(a << (b & 63)),
    "shr": lambda a, b: wrap64(a >> (b & 63)),
    "fadd": operator.add,
    "fsub": operator.sub,
    "fmul": operator.mul,
    "fdiv": _fdiv,
}

#: comparisons the loop runs through a function (ne and lt run inline)
_COMPARE: Dict[str, Callable] = {
    "eq": operator.eq,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}


def _builtin_malloc(interp: Interpreter, args):
    return interp.memory.alloc_heap(int(args[0]))


def _builtin_free(interp: Interpreter, args):
    return None  # bump allocator: free is a no-op


def _builtin_print_int(interp: Interpreter, args):
    interp.output.append(int(args[0]))
    return None


def _builtin_print_float(interp: Interpreter, args):
    interp.output.append(float(args[0]))
    return None


_BUILTINS: Dict[str, Callable] = {
    "malloc": _builtin_malloc,
    "free": _builtin_free,
    "print_int": _builtin_print_int,
    "print_float": _builtin_print_float,
    "abs": lambda interp, a: wrap64(abs(a[0])),
    "fabs": lambda interp, a: abs(float(a[0])),
    "sqrt": lambda interp, a: math.sqrt(a[0]),
    "exp": lambda interp, a: math.exp(a[0]),
    "log": lambda interp, a: math.log(a[0]),
    "min": lambda interp, a: min(a[0], a[1]),
    "max": lambda interp, a: max(a[0], a[1]),
    "fmin": lambda interp, a: min(float(a[0]), float(a[1])),
    "fmax": lambda interp, a: max(float(a[0]), float(a[1])),
}


def run_module(module: Module, func: str = "main", args: Sequence[object] = ()):
    """One-shot convenience: interpret ``func`` and return (result, output)."""
    interp = Interpreter(module)
    result = interp.run(func, args)
    return result, interp.output
