"""The IR interpreter as it was before the decoded engine, frozen
verbatim as a differential oracle: ``tests/test_interp_engine.py``
requires ``repro.interp.interpreter`` to match it run for run.  Nothing
in ``src/`` imports this module.

Direct interpreter for the repro IR.

Executes modules with C-like semantics: 64-bit wrapping signed integer
arithmetic, truncating division, IEEE doubles. Used as the semantic
reference for differential testing against the machine simulator, and as
the execution engine for IR-level dynamic analyses.

Integer wrapping matters: workload kernels use hash mixing and LCG
generators whose overflow behaviour must match the machine simulator.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence

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
    Phi,
    Ret,
    Select,
    Store,
)
from repro.ir.module import Module
from repro.ir.values import Argument, Constant, GlobalVariable, Undef, Value

_MASK64 = (1 << 64) - 1


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


class _Frame:
    __slots__ = ("func", "env", "stack_base")

    def __init__(self, func: Function, stack_base: int) -> None:
        self.func = func
        self.env: Dict[Value, object] = {}
        self.stack_base = stack_base


class Interpreter:
    """Executes IR functions against a fresh :class:`Memory`.

    Attributes:
        output: values printed by ``print_int`` / ``print_float``.
        steps: dynamic instruction count (boundaries included).
        on_instruction: optional hook called as ``hook(inst, frame_env)``
            before each instruction executes — the attachment point for
            dynamic analyses.
    """

    def __init__(self, module: Module, max_steps: int = 50_000_000) -> None:
        self.module = module
        self.memory = Memory()
        self.globals: Dict[str, int] = {}
        self.output: List[object] = []
        self.steps = 0
        self.max_steps = max_steps
        self.on_instruction: Optional[Callable[[Instruction, Dict[Value, object]], None]] = None
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
    # Evaluation
    # ------------------------------------------------------------------
    def _value(self, frame: _Frame, value: Value) -> object:
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, GlobalVariable):
            return self.globals[value.name]
        if isinstance(value, Undef):
            return 0.0 if value.type.is_float else 0
        try:
            return frame.env[value]
        except KeyError:
            raise ExecutionError(
                f"use of undefined value {value.ref()} in @{frame.func.name}"
            ) from None

    def _call(self, func: Function, args: List[object]) -> object:
        if len(args) != len(func.args):
            raise ExecutionError(
                f"@{func.name} expects {len(func.args)} args, got {len(args)}"
            )
        frame = _Frame(func, self.memory.stack_top)
        for formal, actual in zip(func.args, args):
            frame.env[formal] = actual

        block = func.entry
        prev_block: Optional[BasicBlock] = None
        while True:
            # φ-nodes read their inputs simultaneously on block entry.
            phis = list(block.phis())
            if phis:
                incoming = [
                    self._value(frame, phi.incoming_for(prev_block)) for phi in phis
                ]
                for phi, value in zip(phis, incoming):
                    self._tick(phi, frame)
                    frame.env[phi] = value

            result = None
            next_block: Optional[BasicBlock] = None
            for inst in block.non_phi_instructions():
                self._tick(inst, frame)
                outcome = self._execute(frame, inst)
                if isinstance(inst, Ret):
                    self.memory.free_stack(frame.stack_base)
                    return outcome
                if isinstance(inst, (Br, Jump)):
                    next_block = outcome
                    break
            if next_block is None:
                raise ExecutionError(
                    f"block {block.name} in @{func.name} fell through"
                )
            prev_block, block = block, next_block

    def _tick(self, inst: Instruction, frame: _Frame) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise StepLimitExceeded(f"exceeded {self.max_steps} steps")
        if self.on_instruction is not None:
            self.on_instruction(inst, frame.env)

    def _execute(self, frame: _Frame, inst: Instruction):
        if isinstance(inst, BinaryOp):
            a = self._value(frame, inst.lhs)
            b = self._value(frame, inst.rhs)
            frame.env[inst] = self._binop(inst.opcode, a, b)
        elif isinstance(inst, Icmp):
            a = self._value(frame, inst.lhs)
            b = self._value(frame, inst.rhs)
            frame.env[inst] = int(_COMPARE[inst.pred](a, b))
        elif isinstance(inst, Fcmp):
            a = self._value(frame, inst.lhs)
            b = self._value(frame, inst.rhs)
            frame.env[inst] = int(_COMPARE[inst.pred](a, b))
        elif isinstance(inst, Select):
            cond = self._value(frame, inst.cond)
            frame.env[inst] = self._value(
                frame, inst.true_value if cond else inst.false_value
            )
        elif isinstance(inst, Itof):
            frame.env[inst] = float(self._value(frame, inst.operand(0)))
        elif isinstance(inst, Ftoi):
            frame.env[inst] = wrap64(int(self._value(frame, inst.operand(0))))
        elif isinstance(inst, Alloca):
            frame.env[inst] = self.memory.alloc_stack(inst.size)
        elif isinstance(inst, Load):
            addr = self._value(frame, inst.ptr)
            value = self.memory.load(addr)
            if inst.type.is_float and isinstance(value, int):
                value = float(value)
            frame.env[inst] = value
        elif isinstance(inst, Store):
            addr = self._value(frame, inst.ptr)
            self.memory.store(addr, self._value(frame, inst.value))
        elif isinstance(inst, Gep):
            base = self._value(frame, inst.base)
            index = self._value(frame, inst.index)
            frame.env[inst] = base + index
        elif isinstance(inst, Br):
            return inst.then_block if self._value(frame, inst.cond) else inst.else_block
        elif isinstance(inst, Jump):
            return inst.target
        elif isinstance(inst, Ret):
            return self._value(frame, inst.value) if inst.value is not None else None
        elif isinstance(inst, Call):
            frame.env[inst] = self._do_call(frame, inst)
        elif isinstance(inst, Boundary):
            pass
        else:
            raise ExecutionError(f"cannot interpret {inst!r}")
        return None

    def _binop(self, opcode: str, a, b):
        if opcode == "add":
            return wrap64(a + b)
        if opcode == "sub":
            return wrap64(a - b)
        if opcode == "mul":
            return wrap64(a * b)
        if opcode == "div":
            return wrap64(_int_div(a, b))
        if opcode == "rem":
            return wrap64(_int_rem(a, b))
        if opcode == "and":
            return wrap64(a & b)
        if opcode == "or":
            return wrap64(a | b)
        if opcode == "xor":
            return wrap64(a ^ b)
        if opcode == "shl":
            return wrap64(a << (b & 63))
        if opcode == "shr":
            return wrap64(a >> (b & 63))
        if opcode == "fadd":
            return a + b
        if opcode == "fsub":
            return a - b
        if opcode == "fmul":
            return a * b
        if opcode == "fdiv":
            if b == 0.0:
                raise ExecutionError("float division by zero")
            return a / b
        raise ExecutionError(f"unknown binop {opcode}")

    def _do_call(self, frame: _Frame, inst: Call):
        args = [self._value(frame, a) for a in inst.args]
        name = inst.callee
        if name in _BUILTINS:
            return _BUILTINS[name](self, args)
        callee = self.module.functions.get(name)
        if callee is None or callee.is_declaration:
            raise ExecutionError(f"call to undefined function @{name}")
        return self._call(callee, args)


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

_COMPARE = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


def run_module(module: Module, func: str = "main", args: Sequence[object] = ()):
    """One-shot convenience: interpret ``func`` and return (result, output)."""
    interp = Interpreter(module)
    result = interp.run(func, args)
    return result, interp.output
