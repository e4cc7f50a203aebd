"""Machine-level idempotence verifier.

Independent post-allocation oracle for the whole compilation pipeline: for
every machine region (re-execution window), check that no *input* of the
region — a register or stack slot readable before any write on some path
from the region header — is overwritten anywhere in the region. This is
the register/stack-slot half of the idempotence property; the memory half
is checked at the IR level (:mod:`repro.core.verify`) plus the store
buffer's commit discipline.

:func:`repro.compiler.compile_ir_module` runs it on every idempotent
build, after register allocation, and raises ``CompilationError`` on a
violation; tests call it on original builds too.  It reads only the
allocated code: it builds its own :class:`~repro.codegen.regalloc.Linearized`
view and region map over the rewritten function, whose positions differ
from the allocator's once spill code is in.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.codegen.machine import MachineFunction, MachineInstr
from repro.codegen.regalloc import Linearized, _REGION_ENDERS

#: an abstract storage location
Loc = Tuple[str, int]


def _reads_of(instr: MachineInstr, mfunc: MachineFunction) -> List[Loc]:
    reads: List[Loc] = [(src.rclass, src.index) for src in instr.srcs]
    if instr.opcode == "ldslot":
        reads.append(("slot", instr.imm))
    if instr.opcode == "ret" and mfunc.returns_value:
        reads.append(("f" if mfunc.returns_float else "i", 0))
    return reads


def _writes_of(instr: MachineInstr) -> List[Loc]:
    writes: List[Loc] = []
    if instr.dst is not None:
        writes.append((instr.dst.rclass, instr.dst.index))
    if instr.opcode == "stslot":
        writes.append(("slot", instr.imm))
    return writes


class MachineIdempotenceViolation:
    def __init__(self, func: str, header: int, loc: Loc, read_pos: int, write_pos: int) -> None:
        self.func = func
        self.header = header
        self.loc = loc
        self.read_pos = read_pos
        self.write_pos = write_pos

    def __repr__(self) -> str:
        return (
            f"<MViolation @{self.func} region@{self.header}: {self.loc} "
            f"read@{self.read_pos} written@{self.write_pos}>"
        )


def _locations(lin: Linearized) -> Tuple[List[List[Loc]], List[List[Loc]]]:
    """The locations each position reads, and those it writes."""
    mfunc = lin.mfunc
    return (
        [_reads_of(instr, mfunc) for instr in lin.instrs],
        [_writes_of(instr) for instr in lin.instrs],
    )


def verify_machine_function(mfunc: MachineFunction) -> List[MachineIdempotenceViolation]:
    """All region-input overwrites in ``mfunc`` (empty list = idempotent)."""
    lin = Linearized(mfunc)
    reads, writes = _locations(lin)
    # Writes a region answers for: an ender's lands in the next window,
    # and a self-move is idempotent.
    charged = [
        []
        if instr.opcode in _REGION_ENDERS
        or (instr.opcode in ("mov", "fmov") and instr.dst == instr.srcs[0])
        else locs
        for instr, locs in zip(lin.instrs, writes)
    ]
    violations: List[MachineIdempotenceViolation] = []

    for header, members in lin.regions:
        if not members:
            continue
        inputs, read_positions = _region_inputs(lin, reads, writes, header, members)
        write_witness: Dict[Loc, int] = {}
        for pos in members:
            for loc in charged[pos]:
                write_witness.setdefault(loc, pos)
        for loc in inputs & set(write_witness):
            violations.append(
                MachineIdempotenceViolation(
                    mfunc.name, header, loc, read_positions[loc], write_witness[loc]
                )
            )
    return violations


def _region_inputs(
    lin: Linearized,
    reads: List[List[Loc]],
    writes: List[List[Loc]],
    header: int,
    members: Set[int],
) -> Tuple[Set[Loc], Dict[Loc, int]]:
    """Locations read before being definitely written, and a witness read.

    Forward dataflow inside the region: ``definitely_written[pos]`` is the
    intersection over header→pos paths of locations written so far. A read
    of a location outside that set marks it as a region input.  ``reads``
    and ``writes`` are :func:`_locations` of the function.
    """
    # State at a segment start = locations definitely written since the
    # region header on every path (meet = intersection).
    state_at: Dict[int, FrozenSet[Loc]] = {header: frozenset()}
    worklist: List[int] = [header]
    inputs: Set[Loc] = set()
    witness: Dict[Loc, int] = {}

    while worklist:
        start = worklist.pop()
        current: Set[Loc] = set(state_at[start])
        block = lin.block_at[start]
        end = lin.block_end[block]
        pos = start
        hit_ender = False
        while pos in members:
            for loc in reads[pos]:
                if loc not in current and loc not in inputs:
                    inputs.add(loc)
                    witness[loc] = pos
            if lin.instrs[pos].opcode in _REGION_ENDERS:
                hit_ender = True
                break
            current.update(writes[pos])
            if pos + 1 >= end:
                break  # end of block: fall through to successors
            pos += 1
        if hit_ender or pos not in members:
            continue
        frozen = frozenset(current)
        for succ in lin.succs[block]:
            succ_start = lin.block_start[succ]
            if succ_start not in members:
                continue
            old = state_at.get(succ_start)
            if old is None:
                state_at[succ_start] = frozen
                worklist.append(succ_start)
            else:
                met = old & frozen
                if met != old:
                    state_at[succ_start] = met
                    worklist.append(succ_start)
    return inputs, witness


def verify_machine_program(program) -> List[MachineIdempotenceViolation]:
    violations = []
    for mfunc in program.functions.values():
        violations.extend(verify_machine_function(mfunc))
    return violations
