"""Machine IR: an ARM-flavoured virtual ISA.

The target models the paper's evaluation machine (ARMv7, two-issue): 16
integer registers vs 32 floating-point registers — the asymmetry §6.2
blames for SPEC INT's higher overheads — a load/store architecture, and a
restart-pointer register ``rp`` written by region boundary markers
(``rcb``). The stack is modeled as per-activation frames of word slots;
frame management is part of call/ret semantics (the paper's §3
"calling-convention antidependences" are defined away, as its limit study
also assumes).

Register file:

- integer ``r0``–``r15``: ``r0``–``r3`` argument/return, ``r0``–``r11``
  allocatable, ``r12``/``r13`` reserved spill scratch, ``r14`` = ``rp``
  (restart pointer), ``r15`` = ``lp`` (checkpoint-log pointer).
- float ``f0``–``f31``: ``f0``–``f3`` argument/return, ``f0``–``f29``
  allocatable, ``f30``/``f31`` reserved spill scratch.

Before register allocation, operands are virtual registers (class "i" or
"f"); physical registers appear pre-colored around calls and after
allocation everywhere.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Union

# ----------------------------------------------------------------------
# Registers
# ----------------------------------------------------------------------
CLASS_INT = "i"
CLASS_FLOAT = "f"


class Reg(NamedTuple):
    """A register operand: virtual (``%i7``) or physical (``r3`` / ``f12``).

    A tuple, so that the allocator's many dict and set operations on
    registers hash and compare them at C speed.
    """

    rclass: str
    index: int
    is_physical: bool

    def __repr__(self) -> str:
        if self.is_physical:
            prefix = "r" if self.rclass == CLASS_INT else "f"
            return f"{prefix}{self.index}"
        return f"%{self.rclass}{self.index}"


def vreg(rclass: str, index: int) -> Reg:
    return Reg(rclass, index, is_physical=False)


def preg(rclass: str, index: int) -> Reg:
    return _PHYSICAL.get((rclass, index)) or Reg(rclass, index, is_physical=True)


NUM_INT_REGS = 16
NUM_FLOAT_REGS = 32

#: Every physical register, made once: registers are immutable, so all
#: uses of one can share it.
_PHYSICAL = {
    (rclass, index): Reg(rclass, index, is_physical=True)
    for rclass, count in ((CLASS_INT, NUM_INT_REGS), (CLASS_FLOAT, NUM_FLOAT_REGS))
    for index in range(count)
}

INT_ARG_REGS = [preg(CLASS_INT, i) for i in range(4)]
FLOAT_ARG_REGS = [preg(CLASS_FLOAT, i) for i in range(4)]
INT_RET_REG = preg(CLASS_INT, 0)
FLOAT_RET_REG = preg(CLASS_FLOAT, 0)

INT_ALLOCATABLE = list(range(0, 12))
FLOAT_ALLOCATABLE = list(range(0, 30))
INT_SCRATCH = [12, 13]
FLOAT_SCRATCH = [30, 31]
RP_REG = preg(CLASS_INT, 14)
LP_REG = preg(CLASS_INT, 15)


# ----------------------------------------------------------------------
# Opcodes
# ----------------------------------------------------------------------
INT_ALU_OPS = ("add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr")
FLOAT_ALU_OPS = ("fadd", "fsub", "fmul", "fdiv")
INT_CMP_OPS = tuple(f"cmp{p}" for p in ("eq", "ne", "lt", "le", "gt", "ge"))
FLOAT_CMP_OPS = tuple(f"fcmp{p}" for p in ("eq", "ne", "lt", "le", "gt", "ge"))

#: opcode -> result latency in cycles (issue width handled by the simulator)
DEFAULT_LATENCY: Dict[str, int] = {
    "mov": 1, "fmov": 1, "movi": 1, "fmovi": 1,
    "add": 1, "sub": 1, "and": 1, "or": 1, "xor": 1, "shl": 1, "shr": 1,
    "mul": 3, "div": 12, "rem": 12,
    "fadd": 3, "fsub": 3, "fmul": 3, "fdiv": 16,
    "itof": 2, "ftoi": 2,
    "ld": 2, "st": 1, "ldslot": 2, "stslot": 1, "lea": 1, "ga": 1,
    "csel": 1,
    "stlog": 1, "advlp": 1,  # checkpoint-and-log instrumentation (§6.3)
    "b": 1, "bnz": 1, "ret": 1, "call": 1, "callb": 1,
    "rcb": 1, "check": 1, "majority": 1,
}
for _op in INT_CMP_OPS + FLOAT_CMP_OPS:
    DEFAULT_LATENCY[_op] = 1


class MachineInstr:
    """One machine instruction.

    Fields are operand slots whose use depends on ``opcode``:

    - ``dst``: destination register (None for stores/branches/...)
    - ``srcs``: source registers, in order
    - ``imm``: immediate (int/float), slot index, or branch target name
    - ``callee``: function/builtin name for ``call``/``callb``
    """

    __slots__ = ("opcode", "dst", "srcs", "imm", "callee")

    def __init__(
        self,
        opcode: str,
        dst: Optional[Reg] = None,
        srcs: Sequence[Reg] = (),
        imm: Union[int, float, str, None] = None,
        callee: Optional[str] = None,
    ) -> None:
        self.opcode = opcode
        self.dst = dst
        self.srcs = list(srcs)
        self.imm = imm
        self.callee = callee

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    @property
    def is_branch(self) -> bool:
        return self.opcode in ("b", "bnz", "ret")

    @property
    def is_memory(self) -> bool:
        return self.opcode in ("ld", "st", "ldslot", "stslot", "stlog")

    @property
    def is_call(self) -> bool:
        return self.opcode in ("call", "callb")

    @property
    def is_alu(self) -> bool:
        return (
            self.opcode in INT_ALU_OPS
            or self.opcode in FLOAT_ALU_OPS
            or self.opcode in INT_CMP_OPS
            or self.opcode in FLOAT_CMP_OPS
            or self.opcode in ("mov", "fmov", "movi", "fmovi", "itof", "ftoi", "lea")
        )

    def regs_read(self) -> List[Reg]:
        return list(self.srcs)

    def regs_written(self) -> List[Reg]:
        return [self.dst] if self.dst is not None else []

    def __repr__(self) -> str:
        parts = [self.opcode]
        if self.dst is not None:
            parts.append(repr(self.dst))
        parts.extend(repr(s) for s in self.srcs)
        if self.imm is not None:
            parts.append(repr(self.imm))
        if self.callee is not None:
            parts.append(f"@{self.callee}")
        return " ".join(parts)


class MachineBlock:
    """A labeled straight-line run of machine instructions."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.instructions: List[MachineInstr] = []

    def append(self, instr: MachineInstr) -> MachineInstr:
        self.instructions.append(instr)
        return instr

    def __iter__(self) -> Iterator[MachineInstr]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def successor_names(self) -> List[str]:
        """Targets of the final branch; fall-through is not allowed."""
        names = []
        for instr in self.instructions:
            if instr.opcode == "b":
                names.append(instr.imm)
            elif instr.opcode == "bnz":
                names.append(instr.imm)
        return names

    def __repr__(self) -> str:
        return f"<MachineBlock {self.name} ({len(self.instructions)})>"


class Frame:
    """Stack frame layout: named word slots (allocas + spills)."""

    def __init__(self) -> None:
        self.slot_sizes: List[int] = []
        self.slot_names: List[str] = []
        #: words in all slots, ``sum(slot_sizes)``
        self.size = 0

    def add_slot(self, size: int = 1, name: str = "") -> int:
        """Reserve ``size`` words; returns the slot's word offset."""
        offset = self.size
        self.slot_sizes.append(size)
        self.slot_names.append(name or f"slot{len(self.slot_sizes)}")
        self.size += size
        return offset

    def copy(self) -> "Frame":
        """An independent frame with the same slots."""
        frame = Frame()
        frame.slot_sizes = list(self.slot_sizes)
        frame.slot_names = list(self.slot_names)
        frame.size = self.size
        return frame


class MachineFunction:
    """A compiled function: blocks, frame, and argument metadata."""

    def __init__(self, name: str, int_args: int, float_args: int, returns_float: bool, returns_value: bool) -> None:
        self.name = name
        self.int_args = int_args
        self.float_args = float_args
        self.returns_float = returns_float
        self.returns_value = returns_value
        self.blocks: List[MachineBlock] = []
        self.frame = Frame()
        self._vreg_counter = itertools.count()

    def new_vreg(self, rclass: str) -> Reg:
        return vreg(rclass, next(self._vreg_counter))

    def add_block(self, name: str) -> MachineBlock:
        existing = {b.name for b in self.blocks}
        unique = name
        i = 0
        while unique in existing:
            unique = f"{name}.m{i}"
            i += 1
        block = MachineBlock(unique)
        self.blocks.append(block)
        return block

    def block_by_name(self, name: str) -> MachineBlock:
        for block in self.blocks:
            if block.name == name:
                return block
        raise KeyError(f"no machine block {name!r} in {self.name}")

    def block_index(self, name: str) -> int:
        for i, block in enumerate(self.blocks):
            if block.name == name:
                return i
        raise KeyError(name)

    def instructions(self) -> Iterator[MachineInstr]:
        for block in self.blocks:
            yield from block.instructions

    def instruction_count(self) -> int:
        return sum(len(b) for b in self.blocks)

    def __repr__(self) -> str:
        return f"<MachineFunction {self.name}: {len(self.blocks)} blocks>"


class MachineProgram:
    """A whole compiled module plus its global data layout."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.functions: Dict[str, MachineFunction] = {}
        #: global name -> (size, initializer or None)
        self.globals: Dict[str, tuple] = {}

    def add_function(self, func: MachineFunction) -> MachineFunction:
        self.functions[func.name] = func
        return func

    def __repr__(self) -> str:
        return f"<MachineProgram {self.name}: {len(self.functions)} functions>"


def format_machine_function(func: MachineFunction) -> str:
    lines = [f"func {func.name} (iargs={func.int_args}, fargs={func.float_args}, "
             f"frame={func.frame.size}):"]
    for block in func.blocks:
        lines.append(f"{block.name}:")
        for instr in block.instructions:
            lines.append(f"  {instr!r}")
    return "\n".join(lines)
