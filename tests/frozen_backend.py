"""The register allocator and the machine idempotence verifier as they
were before both ran in linear time, frozen verbatim as a differential
oracle: ``tests/test_backend_engine.py`` requires
``repro.codegen.regalloc`` and ``repro.codegen.mverify`` to match them
build for build.  Nothing in ``src/`` imports this module.

The allocator's module docstring follows, then the verifier's section.

Linear-scan register allocation with the idempotence constraint.

Standard Poletto/Sarkar linear scan over coarse live intervals, extended
with the paper's §4.4 rule: *every pseudoregister live-in to an idempotent
region is treated as live-out of it*. Concretely, when allocating an
idempotent binary we extend the interval of each region live-in to cover
the entire region, so no definition inside the region can share its
register (or its spill slot — slots are never shared between vregs). The
same allocator without the extension produces the "original" binary the
paper compares against; the extension is precisely where the 2–12%
overhead (Fig. 10) comes from.

Calling convention: all registers are caller-saved. Intervals crossing a
call are spilled to frame slots (the callee runs in its own frame, so
memory-resident values are safe); intervals crossing only a builtin call
merely avoid the argument/return registers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.codegen.machine import (
    CLASS_FLOAT,
    CLASS_INT,
    FLOAT_ALLOCATABLE,
    FLOAT_SCRATCH,
    INT_ALLOCATABLE,
    INT_SCRATCH,
    MachineBlock,
    MachineFunction,
    MachineInstr,
    Reg,
    preg,
)


class RegAllocError(RuntimeError):
    """Raised when allocation cannot make progress (a compiler bug)."""


# ----------------------------------------------------------------------
# Linearization and liveness
# ----------------------------------------------------------------------
class Linearized:
    """Flat view: positions, block ranges, successor edges."""

    def __init__(self, mfunc: MachineFunction) -> None:
        self.mfunc = mfunc
        self.instrs: List[MachineInstr] = []
        self.block_start: Dict[str, int] = {}
        self.block_end: Dict[str, int] = {}  # exclusive
        for block in mfunc.blocks:
            self.block_start[block.name] = len(self.instrs)
            self.instrs.extend(block.instructions)
            self.block_end[block.name] = len(self.instrs)
        self.position: Dict[int, int] = {
            id(instr): i for i, instr in enumerate(self.instrs)
        }

    def successors(self, block: MachineBlock) -> List[str]:
        return block.successor_names()


def block_liveness(mfunc: MachineFunction) -> Tuple[Dict[str, Set[Reg]], Dict[str, Set[Reg]]]:
    """Live-in/live-out *virtual* register sets per machine block."""
    use_sets: Dict[str, Set[Reg]] = {}
    def_sets: Dict[str, Set[Reg]] = {}
    for block in mfunc.blocks:
        uses: Set[Reg] = set()
        defs: Set[Reg] = set()
        for instr in block.instructions:
            for src in instr.regs_read():
                if not src.is_physical and src not in defs:
                    uses.add(src)
            for dst in instr.regs_written():
                if not dst.is_physical:
                    defs.add(dst)
        use_sets[block.name] = uses
        def_sets[block.name] = defs

    live_in: Dict[str, Set[Reg]] = {b.name: set() for b in mfunc.blocks}
    live_out: Dict[str, Set[Reg]] = {b.name: set() for b in mfunc.blocks}
    changed = True
    while changed:
        changed = False
        for block in reversed(mfunc.blocks):
            out: Set[Reg] = set()
            for succ in block.successor_names():
                out |= live_in[succ]
            new_in = use_sets[block.name] | (out - def_sets[block.name])
            if out != live_out[block.name] or new_in != live_in[block.name]:
                live_out[block.name] = out
                live_in[block.name] = new_in
                changed = True
    return live_in, live_out


@dataclass
class Interval:
    reg: Reg
    start: int
    end: int
    crosses_call: bool = False
    crosses_builtin: bool = False
    assigned: Optional[int] = None  # physical index
    slot: Optional[int] = None      # spill slot offset
    #: estimated dynamic access cost (uses/defs weighted by loop depth);
    #: the allocator spills cheap intervals first
    weight: float = 0.0

    @property
    def spilled(self) -> bool:
        return self.slot is not None


def _machine_loop_depths(mfunc: MachineFunction) -> Dict[str, int]:
    """Loop-nesting depth per machine block (natural loops on block names)."""
    names = [b.name for b in mfunc.blocks]
    if not names:
        return {}
    succs = {b.name: b.successor_names() for b in mfunc.blocks}
    preds: Dict[str, List[str]] = {name: [] for name in names}
    for name, targets in succs.items():
        for target in targets:
            preds[target].append(name)

    # Reverse post-order + iterative dominators (Cooper-Harvey-Kennedy).
    order: List[str] = []
    seen: Set[str] = set()
    stack = [(names[0], iter(succs[names[0]]))]
    seen.add(names[0])
    while stack:
        node, it = stack[-1]
        advanced = False
        for nxt in it:
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, iter(succs[nxt])))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    order.reverse()
    index = {name: i for i, name in enumerate(order)}
    idom: Dict[str, Optional[str]] = {order[0]: order[0]}

    def intersect(a: str, b: str) -> str:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for name in order[1:]:
            new_idom = None
            for pred in preds[name]:
                if pred in idom and pred in index:
                    new_idom = pred if new_idom is None else intersect(pred, new_idom)
            if new_idom is not None and idom.get(name) != new_idom:
                idom[name] = new_idom
                changed = True

    def dominates(a: str, b: str) -> bool:
        node = b
        while True:
            if node == a:
                return True
            parent = idom.get(node)
            if parent is None or parent == node:
                return node == a
            node = parent

    depths = {name: 0 for name in names}
    for tail, targets in succs.items():
        if tail not in index:
            continue
        for header in targets:
            if not dominates(header, tail):
                continue
            # Collect the natural loop body and bump its depth.
            body = {header}
            work = [tail]
            while work:
                node = work.pop()
                if node in body:
                    continue
                body.add(node)
                work.extend(p for p in preds[node] if p in index)
            for node in body:
                depths[node] += 1
    return depths


def build_intervals(mfunc: MachineFunction, lin: Linearized) -> Dict[Reg, Interval]:
    """Coarse [first, last] position intervals for every virtual register."""
    live_in, live_out = block_liveness(mfunc)
    intervals: Dict[Reg, Interval] = {}

    def touch(reg: Reg, pos: int) -> None:
        interval = intervals.get(reg)
        if interval is None:
            intervals[reg] = Interval(reg, pos, pos)
        else:
            interval.start = min(interval.start, pos)
            interval.end = max(interval.end, pos)

    depths = _machine_loop_depths(mfunc)
    for block in mfunc.blocks:
        start = lin.block_start[block.name]
        end = lin.block_end[block.name]
        access_weight = 10.0 ** min(depths.get(block.name, 0), 4)
        for reg in live_in[block.name]:
            touch(reg, start)
        for reg in live_out[block.name]:
            touch(reg, max(start, end - 1))
        for i in range(start, end):
            instr = lin.instrs[i]
            for src in instr.regs_read():
                if not src.is_physical:
                    touch(src, i)
                    intervals[src].weight += access_weight
            for dst in instr.regs_written():
                if not dst.is_physical:
                    touch(dst, i)
                    intervals[dst].weight += access_weight

    call_positions = [
        i for i, instr in enumerate(lin.instrs) if instr.opcode == "call"
    ]
    builtin_positions = [
        i for i, instr in enumerate(lin.instrs) if instr.opcode == "callb"
    ]
    for interval in intervals.values():
        interval.crosses_call = any(
            interval.start < p < interval.end for p in call_positions
        )
        interval.crosses_builtin = any(
            interval.start < p < interval.end for p in builtin_positions
        )
    return intervals


def physical_ranges(mfunc: MachineFunction, lin: Linearized) -> Dict[Tuple[str, int], List[Tuple[int, int]]]:
    """Micro live ranges of physical registers (arg/result plumbing).

    Physical registers are only live within single blocks in isel output:
    from their def (or block start, for incoming arguments) to their last
    use. Returns ``(class, index) -> [(start, end)]``.
    """
    ranges: Dict[Tuple[str, int], List[Tuple[int, int]]] = {}
    for block in mfunc.blocks:
        start = lin.block_start[block.name]
        last_def: Dict[Tuple[str, int], int] = {}
        if block is mfunc.blocks[0]:
            for i in range(mfunc.int_args):
                last_def[(CLASS_INT, i)] = start - 1
            for i in range(mfunc.float_args):
                last_def[(CLASS_FLOAT, i)] = start - 1
        for pos in range(start, lin.block_end[block.name]):
            instr = lin.instrs[pos]
            for src in instr.regs_read():
                if src.is_physical:
                    key = (src.rclass, src.index)
                    begin = last_def.get(key, start - 1)
                    ranges.setdefault(key, []).append((begin, pos))
            if instr.opcode == "ret" and mfunc.returns_value:
                key = (CLASS_FLOAT, 0) if mfunc.returns_float else (CLASS_INT, 0)
                begin = last_def.get(key, start - 1)
                ranges.setdefault(key, []).append((begin, pos))
            for dst in instr.regs_written():
                if dst.is_physical:
                    last_def[(dst.rclass, dst.index)] = pos
            if instr.is_call:
                # Calls produce their result in r0/f0.
                last_def[(CLASS_INT, 0)] = pos
                last_def[(CLASS_FLOAT, 0)] = pos
    return ranges


# ----------------------------------------------------------------------
# Machine-level regions (for the idempotence constraint)
# ----------------------------------------------------------------------
_REGION_ENDERS = ("rcb", "call", "callb")


def machine_regions(mfunc: MachineFunction, lin: Linearized) -> List[Tuple[int, Set[int]]]:
    """Per-region ``(header position, member position set)`` pairs.

    Headers sit at the function start and immediately after every restart
    point: ``rcb`` markers and calls (call/return/builtin are implicit
    boundaries — see :mod:`repro.sim.simulator`). A region's members can
    include positions *before* its header in layout order (blocks reached
    through back edges).
    """
    headers: List[int] = [0] if lin.instrs else []
    for i, instr in enumerate(lin.instrs):
        if instr.opcode in _REGION_ENDERS and i + 1 < len(lin.instrs):
            headers.append(i + 1)

    block_of_pos: Dict[int, MachineBlock] = {}
    for block in mfunc.blocks:
        for pos in range(lin.block_start[block.name], lin.block_end[block.name]):
            block_of_pos[pos] = block

    regions: List[Tuple[int, Set[int]]] = []
    for header in headers:
        members: Set[int] = set()
        stack = [header]
        seen: Set[int] = set()
        while stack:
            pos = stack.pop()
            if pos in seen or pos >= len(lin.instrs):
                continue
            seen.add(pos)
            block = block_of_pos[pos]
            end = lin.block_end[block.name]
            i = pos
            stopped = False
            while i < end:
                instr = lin.instrs[i]
                if instr.opcode in _REGION_ENDERS:
                    members.add(i)  # the boundary op re-executes on recovery
                    stopped = True
                    break
                members.add(i)
                i += 1
            if not stopped:
                for succ in block.successor_names():
                    stack.append(lin.block_start[succ])
        regions.append((header, members))
    return regions


def _live_vregs_at(
    mfunc: MachineFunction,
    lin: Linearized,
    live_out: Dict[str, Set[Reg]],
    pos: int,
) -> Set[Reg]:
    """Precise virtual-register liveness just before position ``pos``."""
    block = None
    for candidate in mfunc.blocks:
        if lin.block_start[candidate.name] <= pos < lin.block_end[candidate.name]:
            block = candidate
            break
    assert block is not None
    live = set(live_out[block.name])
    for i in range(lin.block_end[block.name] - 1, pos - 1, -1):
        instr = lin.instrs[i]
        for dst in instr.regs_written():
            if not dst.is_physical:
                live.discard(dst)
        for src in instr.regs_read():
            if not src.is_physical:
                live.add(src)
    return live


def extend_for_idempotence(
    mfunc: MachineFunction, lin: Linearized, intervals: Dict[Reg, Interval]
) -> int:
    """§4.4: region live-ins stay live across the whole region.

    A vreg live at a region's header (precise dataflow liveness, not the
    coarse interval) gets its interval widened to the region's full layout
    span, so nothing defined inside the region can reuse its register or
    spill slot. Returns the number of extensions. Liveness is a property
    of the code, not of the intervals, so one pass suffices.
    """
    _, live_out = block_liveness(mfunc)
    extended = 0
    for header, members in machine_regions(mfunc, lin):
        if not members:
            continue
        lo = min(members)
        hi = max(members)
        for reg in _live_vregs_at(mfunc, lin, live_out, header):
            interval = intervals.get(reg)
            if interval is None:
                continue
            if interval.start > lo or interval.end < hi:
                interval.start = min(interval.start, lo)
                interval.end = max(interval.end, hi)
                extended += 1
    call_positions = [i for i, ins in enumerate(lin.instrs) if ins.opcode == "call"]
    builtin_positions = [i for i, ins in enumerate(lin.instrs) if ins.opcode == "callb"]
    for interval in intervals.values():
        interval.crosses_call = any(
            interval.start < p < interval.end for p in call_positions
        )
        interval.crosses_builtin = any(
            interval.start < p < interval.end for p in builtin_positions
        )
    return extended


def _extend_physical_inputs(
    mfunc: MachineFunction,
    lin: Linearized,
    phys_ranges: Dict[Tuple[str, int], List[Tuple[int, int]]],
) -> None:
    """Protect physical argument/return registers through their region.

    The entry region reads the incoming argument registers and a post-call
    point reads ``r0``/``f0``; re-executing those regions re-reads them, so
    they are region inputs just like vreg live-ins. We widen each physical
    micro-range that starts at function entry or at a call to span its
    enclosing region, preventing any vreg from clobbering it mid-region.
    """
    regions = machine_regions(mfunc, lin)
    call_positions = {
        i for i, instr in enumerate(lin.instrs) if instr.is_call
    }
    for key, ranges in phys_ranges.items():
        widened: List[Tuple[int, int]] = []
        for begin, end in ranges:
            if begin == -1 or begin in call_positions:
                read_pos = begin + 1
                for _, members in regions:
                    if read_pos in members:
                        end = max(end, max(members))
            widened.append((begin, end))
        phys_ranges[key] = widened


# ----------------------------------------------------------------------
# Allocation
# ----------------------------------------------------------------------
@dataclass
class AllocationStats:
    vregs: int = 0
    spilled: int = 0
    extended: int = 0
    spill_loads: int = 0
    spill_stores: int = 0


def allocate_function(mfunc: MachineFunction, idempotent: bool = False) -> AllocationStats:
    """Assign physical registers in place; insert spill code."""
    lin = Linearized(mfunc)
    intervals = build_intervals(mfunc, lin)
    stats = AllocationStats(vregs=len(intervals))

    if idempotent:
        stats.extended = extend_for_idempotence(mfunc, lin, intervals)

    phys_ranges = physical_ranges(mfunc, lin)
    if idempotent:
        _extend_physical_inputs(mfunc, lin, phys_ranges)

    def overlaps_physical(interval: Interval, index: int) -> bool:
        for begin, end in phys_ranges.get((interval.reg.rclass, index), ()):
            if interval.start <= end and begin <= interval.end:
                return True
        return False

    allocatable = {CLASS_INT: INT_ALLOCATABLE, CLASS_FLOAT: FLOAT_ALLOCATABLE}
    arg_reg_count = 4

    # Total order: interval ties must not fall back to dict insertion
    # order, which follows Set[Reg] iteration (= string hashing) in
    # build_intervals and therefore varies across interpreter processes.
    ordered = sorted(
        intervals.values(),
        key=lambda iv: (iv.start, iv.end, iv.reg.rclass, iv.reg.index),
    )
    active: List[Interval] = []

    for interval in ordered:
        active = [iv for iv in active if iv.end >= interval.start]
        if interval.crosses_call:
            interval.slot = mfunc.frame.add_slot(1, f"spill.{interval.reg}")
            stats.spilled += 1
            continue
        in_use = {iv.assigned for iv in active if iv.reg.rclass == interval.reg.rclass}
        candidates = [
            index
            for index in allocatable[interval.reg.rclass]
            if index not in in_use
            and not overlaps_physical(interval, index)
            and not (interval.crosses_builtin and index < arg_reg_count)
        ]
        if candidates:
            # Prefer high registers to keep arg registers free.
            interval.assigned = candidates[-1]
            active.append(interval)
            continue
        # No free register: evict the *cheapest* conflicting interval
        # (fewest loop-depth-weighted accesses) — possibly ourselves.
        stealable = [
            iv
            for iv in active
            if iv.reg.rclass == interval.reg.rclass
            and not overlaps_physical(interval, iv.assigned)
            and not (interval.crosses_builtin and iv.assigned < arg_reg_count)
        ]
        victim = min(stealable, key=lambda iv: iv.weight, default=None)
        if victim is not None and victim.weight < interval.weight:
            victim.slot = mfunc.frame.add_slot(1, f"spill.{victim.reg}")
            stats.spilled += 1
            interval.assigned = victim.assigned
            victim.assigned = None
            active.remove(victim)
            active.append(interval)
        else:
            interval.slot = mfunc.frame.add_slot(1, f"spill.{interval.reg}")
            stats.spilled += 1

    _rewrite(mfunc, intervals, stats)
    return stats


def _remat_defs(mfunc: MachineFunction, intervals: Dict[Reg, Interval]) -> Dict[Reg, MachineInstr]:
    """Spilled vregs whose value can be recomputed instead of reloaded.

    A vreg with exactly one definition by a constant-producing op
    (``movi``/``fmovi``/``ga``/``lea`` — all operand-free) never needs a
    slot: each use re-emits the def into a scratch register (1 cycle, no
    memory port) and the store at the def disappears. This is standard
    linear-scan rematerialization; without it, the §4.4 extension makes
    the allocator spill loop-invariant table addresses that then cost a
    2-cycle reload per use in hot loops.
    """
    _REMAT_OPS = ("movi", "fmovi", "ga", "lea")
    defs: Dict[Reg, List[MachineInstr]] = {}
    for instr in mfunc.instructions():
        if instr.dst is not None and not instr.dst.is_physical:
            defs.setdefault(instr.dst, []).append(instr)
    remat: Dict[Reg, MachineInstr] = {}
    for reg, interval in intervals.items():
        if not interval.spilled:
            continue
        reg_defs = defs.get(reg, [])
        if len(reg_defs) == 1 and reg_defs[0].opcode in _REMAT_OPS:
            remat[reg] = reg_defs[0]
    return remat


def _rewrite(mfunc: MachineFunction, intervals: Dict[Reg, Interval], stats: AllocationStats) -> None:
    """Substitute physical registers and materialize spill code."""
    scratch_pool = {CLASS_INT: INT_SCRATCH, CLASS_FLOAT: FLOAT_SCRATCH}
    remat = _remat_defs(mfunc, intervals)

    for block in mfunc.blocks:
        new_instrs: List[MachineInstr] = []
        for instr in block.instructions:
            scratch_used = {CLASS_INT: 0, CLASS_FLOAT: 0}
            pre: List[MachineInstr] = []
            post: List[MachineInstr] = []

            def map_reg(reg: Reg, is_def: bool) -> Reg:
                if reg.is_physical:
                    return reg
                interval = intervals[reg]
                if interval.assigned is not None:
                    return preg(reg.rclass, interval.assigned)
                assert interval.slot is not None
                pool = scratch_pool[reg.rclass]
                index = scratch_used[reg.rclass]
                if index >= len(pool):
                    if is_def:
                        # The destination is written after every source has
                        # been read, so it may reuse a source's scratch.
                        index = 0
                    else:
                        raise RegAllocError(
                            f"out of scratch registers rewriting {instr!r}"
                        )
                else:
                    scratch_used[reg.rclass] += 1
                scratch = preg(reg.rclass, pool[index])
                remat_def = remat.get(reg)
                if remat_def is not None:
                    if is_def:
                        pass  # value is recomputed at uses; no slot write
                    else:
                        pre.append(
                            MachineInstr(
                                remat_def.opcode,
                                dst=scratch,
                                imm=remat_def.imm,
                            )
                        )
                elif is_def:
                    post.append(
                        MachineInstr("stslot", srcs=[scratch], imm=interval.slot)
                    )
                    stats.spill_stores += 1
                else:
                    pre.append(
                        MachineInstr("ldslot", dst=scratch, imm=interval.slot)
                    )
                    stats.spill_loads += 1
                return scratch

            # Reuse one scratch when the same spilled vreg appears twice.
            seen_srcs: Dict[Reg, Reg] = {}
            new_srcs = []
            for src in instr.srcs:
                if src in seen_srcs:
                    new_srcs.append(seen_srcs[src])
                    continue
                mapped = map_reg(src, is_def=False)
                seen_srcs[src] = mapped
                new_srcs.append(mapped)
            instr.srcs = new_srcs
            if instr.dst is not None:
                # A spilled dst may reuse a source scratch register safely
                # only after all sources are read — which is the case since
                # the dst write happens last; use a fresh scratch anyway.
                instr.dst = map_reg(instr.dst, is_def=True)

            new_instrs.extend(pre)
            new_instrs.append(instr)
            new_instrs.extend(post)
        block.instructions = new_instrs


def allocate_program(program, idempotent: bool = False) -> Dict[str, AllocationStats]:
    """Allocate every function of a :class:`MachineProgram`."""
    from repro import obs

    flavour = "idempotent" if idempotent else "original"
    stats: Dict[str, AllocationStats] = {}
    for name, mfunc in program.functions.items():
        with obs.span("codegen.regalloc", func=name, flavour=flavour):
            stats[name] = allocate_function(mfunc, idempotent=idempotent)
        for field in ("vregs", "spilled", "extended", "spill_loads", "spill_stores"):
            value = getattr(stats[name], field)
            if value:
                obs.counter(f"codegen.regalloc.{field}").inc(value, flavour=flavour)
    return stats


# ======================================================================
# The machine idempotence verifier (was repro/codegen/mverify.py)
# ======================================================================
# Machine-level idempotence verifier.
#
# Independent post-allocation oracle for the whole compilation pipeline: for
# every machine region (re-execution window), check that no *input* of the
# region — a register or stack slot readable before any write on some path
# from the region header — is overwritten anywhere in the region. This is
# the register/stack-slot half of the idempotence property; the memory half
# is checked at the IR level (:mod:`repro.core.verify`) plus the store
# buffer's commit discipline.


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


def verify_machine_function(mfunc: MachineFunction) -> List[MachineIdempotenceViolation]:
    """All region-input overwrites in ``mfunc`` (empty list = idempotent)."""
    lin = Linearized(mfunc)
    violations: List[MachineIdempotenceViolation] = []

    for header, members in machine_regions(mfunc, lin):
        if not members:
            continue
        inputs, read_positions = _region_inputs(mfunc, lin, header, members)
        ender_positions = {
            p for p in members if lin.instrs[p].opcode in _REGION_ENDERS
        }
        writes: Dict[Loc, int] = {}
        for pos in members:
            if pos in ender_positions:
                continue  # the ender's write lands in the next window
            instr = lin.instrs[pos]
            if instr.opcode in ("mov", "fmov") and instr.dst == instr.srcs[0]:
                continue  # self-move is idempotent
            for loc in _writes_of(instr):
                writes.setdefault(loc, pos)
        for loc in inputs & set(writes):
            violations.append(
                MachineIdempotenceViolation(
                    mfunc.name, header, loc, read_positions[loc], writes[loc]
                )
            )
    return violations


def _region_inputs(
    mfunc: MachineFunction,
    lin: Linearized,
    header: int,
    members: Set[int],
) -> Tuple[Set[Loc], Dict[Loc, int]]:
    """Locations read before being definitely written, and a witness read.

    Forward dataflow inside the region: ``definitely_written[pos]`` is the
    intersection over header→pos paths of locations written so far. A read
    of a location outside that set marks it as a region input.
    """
    # Map each position to its block's end (exclusive) and successor starts.
    block_end_of: Dict[int, int] = {}
    succs_of_pos: Dict[int, List[int]] = {}
    for block in mfunc.blocks:
        start = lin.block_start[block.name]
        end = lin.block_end[block.name]
        succ_starts = [lin.block_start[name] for name in block.successor_names()]
        for pos in range(start, end):
            block_end_of[pos] = end
            succs_of_pos[pos] = succ_starts

    # State at a segment start = locations definitely written since the
    # region header on every path (meet = intersection).
    state_at: Dict[int, FrozenSet[Loc]] = {header: frozenset()}
    worklist: List[int] = [header]
    inputs: Set[Loc] = set()
    witness: Dict[Loc, int] = {}

    while worklist:
        start = worklist.pop()
        current: Set[Loc] = set(state_at[start])
        pos = start
        hit_ender = False
        while pos in members:
            instr = lin.instrs[pos]
            for loc in _reads_of(instr, mfunc):
                if loc not in current and loc not in inputs:
                    inputs.add(loc)
                    witness[loc] = pos
            if instr.opcode in _REGION_ENDERS:
                hit_ender = True
                break
            for loc in _writes_of(instr):
                current.add(loc)
            if pos + 1 >= block_end_of[pos]:
                break  # end of block: fall through to successors
            pos += 1
        if hit_ender or pos not in members:
            continue
        frozen = frozenset(current)
        for succ_start in succs_of_pos[pos]:
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
