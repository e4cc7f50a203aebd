"""Linear-scan register allocation with the idempotence constraint.

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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import Dict, List, Optional, Set, Tuple

from repro.codegen.machine import (
    CLASS_FLOAT,
    CLASS_INT,
    FLOAT_ALLOCATABLE,
    FLOAT_SCRATCH,
    INT_ALLOCATABLE,
    INT_SCRATCH,
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
    """Flat view of one machine function: positions, blocks and edges.

    Built once per pass over a function, so that no analysis rescans the
    blocks: ``block_at`` names the block of every position and ``succs``
    holds each block's successors, read off its branches once.  The
    vreg liveness and the region map are computed on first use and kept.
    """

    def __init__(self, mfunc: MachineFunction) -> None:
        self.mfunc = mfunc
        self.instrs: List[MachineInstr] = []
        self.block_start: Dict[str, int] = {}
        self.block_end: Dict[str, int] = {}  # exclusive
        self.block_at: List[str] = []
        self.succs: Dict[str, List[str]] = {}
        for block in mfunc.blocks:
            name = block.name
            self.block_start[name] = len(self.instrs)
            self.instrs.extend(block.instructions)
            self.block_end[name] = len(self.instrs)
            self.block_at.extend([name] * len(block.instructions))
            self.succs[name] = block.successor_names()

    @cached_property
    def liveness(self) -> Tuple[Dict[str, Set[Reg]], Dict[str, Set[Reg]]]:
        """:func:`block_liveness` of the function."""
        return block_liveness(self)

    @cached_property
    def regions(self) -> List[Tuple[int, Set[int]]]:
        """:func:`machine_regions` of the function."""
        return machine_regions(self)


def block_liveness(lin: Linearized) -> Tuple[Dict[str, Set[Reg]], Dict[str, Set[Reg]]]:
    """Live-in/live-out *virtual* register sets per machine block."""
    blocks = lin.mfunc.blocks
    use_sets: Dict[str, Set[Reg]] = {}
    def_sets: Dict[str, Set[Reg]] = {}
    for block in blocks:
        uses: Set[Reg] = set()
        defs: Set[Reg] = set()
        for instr in block.instructions:
            for src in instr.srcs:
                if not src.is_physical and src not in defs:
                    uses.add(src)
            dst = instr.dst
            if dst is not None and not dst.is_physical:
                defs.add(dst)
        use_sets[block.name] = uses
        def_sets[block.name] = defs

    live_in: Dict[str, Set[Reg]] = {b.name: set() for b in blocks}
    live_out: Dict[str, Set[Reg]] = {b.name: set() for b in blocks}
    order = [block.name for block in reversed(blocks)]
    changed = True
    while changed:
        changed = False
        for name in order:
            out: Set[Reg] = set()
            for succ in lin.succs[name]:
                out |= live_in[succ]
            new_in = use_sets[name] | (out - def_sets[name])
            if out != live_out[name] or new_in != live_in[name]:
                live_out[name] = out
                live_in[name] = new_in
                changed = True
    return live_in, live_out


@dataclass
class Interval:
    reg: Reg
    start: int
    end: int
    #: whether a ``call`` (``callb``) lies strictly inside; set once
    #: the interval is final (:func:`_mark_call_crossings`)
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


def _machine_loop_depths(lin: Linearized) -> Dict[str, int]:
    """Loop-nesting depth per machine block (natural loops on block names)."""
    names = [b.name for b in lin.mfunc.blocks]
    if not names:
        return {}
    succs = lin.succs
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
    depths = {name: 0 for name in names}
    # A back edge enters a block that dominates its tail, so the block
    # comes first in reverse post-order: without a retreating edge
    # there is no loop, and no dominator tree to build.
    if not any(
        index[header] <= index[tail]
        for tail in order for header in succs[tail]
    ):
        return depths
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

    for tail in order:
        for header in succs[tail]:
            if index[header] > index[tail] or not dominates(header, tail):
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


def build_intervals(lin: Linearized) -> Dict[Reg, Interval]:
    """Coarse [first, last] position intervals for every virtual register.

    Blocks are visited in layout order, each as its live-ins (at its
    first position), its instructions, then its live-outs (at its last),
    so positions never decrease: a vreg's first touch is its start and
    its last touch its end.
    """
    live_in, live_out = lin.liveness
    depths = _machine_loop_depths(lin)
    intervals: Dict[Reg, Interval] = {}
    instrs = lin.instrs

    def touch(reg: Reg, pos: int) -> None:
        interval = intervals.get(reg)
        if interval is None:
            intervals[reg] = Interval(reg, pos, pos)
        else:
            interval.end = pos

    for block in lin.mfunc.blocks:
        start = lin.block_start[block.name]
        end = lin.block_end[block.name]
        access_weight = 10.0 ** min(depths.get(block.name, 0), 4)
        for reg in live_in[block.name]:
            touch(reg, start)
        for pos in range(start, end):
            instr = instrs[pos]
            for reg in (*instr.srcs, instr.dst):
                if reg is None or reg.is_physical:
                    continue
                interval = intervals.get(reg)
                if interval is None:
                    interval = intervals[reg] = Interval(reg, pos, pos)
                else:
                    interval.end = pos
                interval.weight += access_weight
        last = max(start, end - 1)
        for reg in live_out[block.name]:
            touch(reg, last)
    return intervals


def _mark_call_crossings(lin: Linearized, intervals: Dict[Reg, Interval]) -> None:
    """Set ``crosses_call``/``crosses_builtin`` of the final intervals."""
    calls = [pos for pos, instr in enumerate(lin.instrs) if instr.opcode == "call"]
    builtins = [pos for pos, instr in enumerate(lin.instrs) if instr.opcode == "callb"]
    if calls:
        for interval in intervals.values():
            interval.crosses_call = _any_inside(calls, interval.start, interval.end)
    if builtins:
        for interval in intervals.values():
            interval.crosses_builtin = _any_inside(builtins, interval.start, interval.end)


def _any_inside(positions: List[int], start: int, end: int) -> bool:
    """Whether the sorted ``positions`` hold one strictly between the two."""
    i = bisect_right(positions, start)
    return i < len(positions) and positions[i] < end


def physical_ranges(lin: Linearized) -> Dict[Tuple[str, int], List[Tuple[int, int]]]:
    """Micro live ranges of physical registers (arg/result plumbing).

    Physical registers are only live within single blocks in isel output:
    from their def (or block start, for incoming arguments) to their last
    use. Returns ``(class, index) -> [(start, end)]``.
    """
    mfunc = lin.mfunc
    ranges: Dict[Tuple[str, int], List[Tuple[int, int]]] = {}
    ret_key = None
    if mfunc.returns_value:
        ret_key = (CLASS_FLOAT, 0) if mfunc.returns_float else (CLASS_INT, 0)
    for number, block in enumerate(mfunc.blocks):
        start = lin.block_start[block.name]
        last_def: Dict[Tuple[str, int], int] = {}
        if number == 0:
            for i in range(mfunc.int_args):
                last_def[(CLASS_INT, i)] = start - 1
            for i in range(mfunc.float_args):
                last_def[(CLASS_FLOAT, i)] = start - 1
        for pos in range(start, lin.block_end[block.name]):
            instr = lin.instrs[pos]
            for src in instr.srcs:
                if src.is_physical:
                    key = (src.rclass, src.index)
                    begin = last_def.get(key, start - 1)
                    ranges.setdefault(key, []).append((begin, pos))
            opcode = instr.opcode
            if opcode == "ret" and ret_key is not None:
                begin = last_def.get(ret_key, start - 1)
                ranges.setdefault(ret_key, []).append((begin, pos))
            dst = instr.dst
            if dst is not None and dst.is_physical:
                last_def[(dst.rclass, dst.index)] = pos
            if opcode == "call" or opcode == "callb":
                # Calls produce their result in r0/f0.
                last_def[(CLASS_INT, 0)] = pos
                last_def[(CLASS_FLOAT, 0)] = pos
    return ranges


# ----------------------------------------------------------------------
# Machine-level regions (for the idempotence constraint)
# ----------------------------------------------------------------------
_REGION_ENDERS = ("rcb", "call", "callb")


def machine_regions(lin: Linearized) -> List[Tuple[int, Set[int]]]:
    """Per-region ``(header position, member position set)`` pairs.

    Headers sit at the function start and immediately after every restart
    point: ``rcb`` markers and calls (call/return/builtin are implicit
    boundaries — see :mod:`repro.sim.simulator`). A region's members can
    include positions *before* its header in layout order (blocks reached
    through back edges).
    """
    instrs = lin.instrs
    enders = [pos for pos, instr in enumerate(instrs) if instr.opcode in _REGION_ENDERS]
    headers: List[int] = [0] if instrs else []
    headers += [pos + 1 for pos in enders if pos + 1 < len(instrs)]

    regions: List[Tuple[int, Set[int]]] = []
    for header in headers:
        members: Set[int] = set()
        stack = [header]
        seen: Set[int] = set()
        while stack:
            pos = stack.pop()
            if pos in seen or pos >= len(instrs):
                continue
            seen.add(pos)
            name = lin.block_at[pos]
            end = lin.block_end[name]
            i = bisect_left(enders, pos)
            if i < len(enders) and enders[i] < end:
                # The boundary op re-executes on recovery: a member too.
                members.update(range(pos, enders[i] + 1))
            else:
                members.update(range(pos, end))
                for succ in lin.succs[name]:
                    stack.append(lin.block_start[succ])
        regions.append((header, members))
    return regions


def _live_vregs_at(lin: Linearized, positions: List[int]) -> Dict[int, Set[Reg]]:
    """Precise virtual-register liveness just before each of ``positions``.

    ``positions`` ascend; each block holding some of them is scanned once,
    backwards from its live-outs.
    """
    live_out = lin.liveness[1]
    by_block: Dict[str, List[int]] = {}
    for pos in positions:
        by_block.setdefault(lin.block_at[pos], []).append(pos)
    live_at: Dict[int, Set[Reg]] = {}
    for name, wanted in by_block.items():
        live = set(live_out[name])
        i = lin.block_end[name] - 1
        for pos in reversed(wanted):
            while i >= pos:
                instr = lin.instrs[i]
                dst = instr.dst
                if dst is not None and not dst.is_physical:
                    live.discard(dst)
                for src in instr.srcs:
                    if not src.is_physical:
                        live.add(src)
                i -= 1
            live_at[pos] = set(live)
    return live_at


def extend_for_idempotence(lin: Linearized, intervals: Dict[Reg, Interval]) -> int:
    """§4.4: region live-ins stay live across the whole region.

    A vreg live at a region's header (precise dataflow liveness, not the
    coarse interval) gets its interval widened to the region's full layout
    span, so nothing defined inside the region can reuse its register or
    spill slot. Returns the number of extensions. Liveness is a property
    of the code, not of the intervals, so one pass suffices.
    """
    regions = lin.regions
    live_at = _live_vregs_at(lin, [header for header, _ in regions])
    extended = 0
    for header, members in regions:
        if not members:
            continue
        lo = min(members)
        hi = max(members)
        for reg in live_at[header]:
            interval = intervals.get(reg)
            if interval is None:
                continue
            if interval.start > lo or interval.end < hi:
                interval.start = min(interval.start, lo)
                interval.end = max(interval.end, hi)
                extended += 1
    return extended


def _extend_physical_inputs(
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
    call_positions = {
        pos for pos, instr in enumerate(lin.instrs) if instr.opcode in ("call", "callb")
    }

    def protected(begin: int) -> bool:
        return begin == -1 or begin in call_positions

    read_positions = {
        begin + 1
        for ranges in phys_ranges.values()
        for begin, _ in ranges
        if protected(begin)
    }
    # The last member of every region holding each read position.
    region_end: Dict[int, int] = {}
    for _, members in lin.regions:
        held = read_positions & members
        if held:
            hi = max(members)
            for pos in held:
                region_end[pos] = max(region_end.get(pos, hi), hi)
    for key, ranges in phys_ranges.items():
        phys_ranges[key] = [
            (begin, max(end, region_end.get(begin + 1, end)) if protected(begin) else end)
            for begin, end in ranges
        ]


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


#: Allocatable registers in the order the scan tries them: highest first,
#: to keep the argument registers free.
_PREFERENCE = {
    CLASS_INT: INT_ALLOCATABLE[::-1],
    CLASS_FLOAT: FLOAT_ALLOCATABLE[::-1],
}

#: Argument registers (``r0``-``r3``, ``f0``-``f3``), which an interval
#: crossing a builtin call must avoid.
_ARG_REG_COUNT = 4


def allocate_function(mfunc: MachineFunction, idempotent: bool = False) -> AllocationStats:
    """Assign physical registers in place; insert spill code."""
    lin = Linearized(mfunc)
    intervals = build_intervals(lin)
    stats = AllocationStats(vregs=len(intervals))
    phys_ranges = physical_ranges(lin)
    if idempotent:
        stats.extended = extend_for_idempotence(lin, intervals)
        _extend_physical_inputs(lin, phys_ranges)
    _mark_call_crossings(lin, intervals)
    _scan(mfunc, intervals, phys_ranges, stats)
    _rewrite(mfunc, intervals, stats)
    return stats


def _scan(
    mfunc: MachineFunction,
    intervals: Dict[Reg, Interval],
    phys_ranges: Dict[Tuple[str, int], List[Tuple[int, int]]],
    stats: AllocationStats,
) -> None:
    """Linear scan: give each interval a register or a spill slot.

    ``held`` maps each register of a class to the active interval in it,
    numbered by when it took the register: an eviction breaks weight ties
    in that order.  An interval stays active until one starts after its
    end; ``expiry`` orders the active intervals by end.
    """
    # Physical ranges per class and register.
    blocked: Dict[str, Dict[int, List[Tuple[int, int]]]] = {CLASS_INT: {}, CLASS_FLOAT: {}}
    for (rclass, index), ranges in phys_ranges.items():
        blocked[rclass][index] = ranges

    def overlaps_physical(interval: Interval, index: int) -> bool:
        for begin, end in blocked[interval.reg.rclass].get(index, ()):
            if interval.start <= end and begin <= interval.end:
                return True
        return False

    def spill(interval: Interval) -> None:
        interval.slot = mfunc.frame.add_slot(1, f"spill.{interval.reg}")
        stats.spilled += 1

    # Total order: interval ties must not fall back to dict insertion
    # order, which follows Set[Reg] iteration (= string hashing) in
    # build_intervals and therefore varies across interpreter processes.
    ordered = sorted(
        intervals.values(),
        key=lambda iv: (iv.start, iv.end, iv.reg.rclass, iv.reg.index),
    )
    held: Dict[str, Dict[int, Tuple[int, Interval]]] = {CLASS_INT: {}, CLASS_FLOAT: {}}
    expiry: List[Tuple[int, int, Interval]] = []
    taken = 0

    for interval in ordered:
        while expiry and expiry[0][0] < interval.start:
            expired = heappop(expiry)[2]
            if expired.assigned is not None:
                del held[expired.reg.rclass][expired.assigned]
        if interval.crosses_call:
            spill(interval)
            continue
        rclass = interval.reg.rclass
        in_use = held[rclass]
        lowest = _ARG_REG_COUNT if interval.crosses_builtin else 0
        for index in _PREFERENCE[rclass]:
            if (
                index >= lowest
                and index not in in_use
                and not overlaps_physical(interval, index)
            ):
                break
        else:
            # No free register: evict the *cheapest* conflicting interval
            # (fewest loop-depth-weighted accesses) — possibly ourselves.
            stealable = sorted(
                (number, iv)
                for index, (number, iv) in in_use.items()
                if index >= lowest and not overlaps_physical(interval, index)
            )
            victim = min((iv for _, iv in stealable), key=lambda iv: iv.weight, default=None)
            if victim is None or victim.weight >= interval.weight:
                spill(interval)
                continue
            spill(victim)
            index = victim.assigned
            victim.assigned = None
        interval.assigned = index
        in_use[index] = (taken, interval)
        heappush(expiry, (interval.end, taken, interval))
        taken += 1


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
    spilled = [reg for reg, interval in intervals.items() if interval.spilled]
    if not spilled:
        return {}
    defs: Dict[Reg, List[MachineInstr]] = {}
    for block in mfunc.blocks:
        for instr in block.instructions:
            if instr.dst is not None and not instr.dst.is_physical:
                defs.setdefault(instr.dst, []).append(instr)
    remat: Dict[Reg, MachineInstr] = {}
    for reg in spilled:
        reg_defs = defs.get(reg, [])
        if len(reg_defs) == 1 and reg_defs[0].opcode in _REMAT_OPS:
            remat[reg] = reg_defs[0]
    return remat


def _rewrite(mfunc: MachineFunction, intervals: Dict[Reg, Interval], stats: AllocationStats) -> None:
    """Substitute physical registers and materialize spill code."""
    remat = _remat_defs(mfunc, intervals)
    # vreg -> its register, or None where it lives in a slot
    rename: Dict[Reg, Optional[Reg]] = {
        reg: None if interval.assigned is None else preg(reg.rclass, interval.assigned)
        for reg, interval in intervals.items()
    }
    for block in mfunc.blocks:
        new_instrs: List[MachineInstr] = []
        for instr in block.instructions:
            srcs = [rename.get(src, src) for src in instr.srcs]
            dst = instr.dst
            if dst is not None:
                dst = rename.get(dst, dst)
            if None in srcs or (dst is None and instr.dst is not None):
                # An operand lives in a slot: spill code goes around it.
                new_instrs.extend(_rewrite_spilled(instr, intervals, remat, stats))
                continue
            instr.srcs = srcs
            instr.dst = dst
            new_instrs.append(instr)
        block.instructions = new_instrs


def _rewrite_spilled(
    instr: MachineInstr,
    intervals: Dict[Reg, Interval],
    remat: Dict[Reg, MachineInstr],
    stats: AllocationStats,
) -> List[MachineInstr]:
    """``instr`` with a spilled operand, and the spill code around it.

    Each spilled source is reloaded (or recomputed) into a scratch
    register before ``instr``, and a spilled destination is stored from
    one after it.
    """
    scratch_pool = {CLASS_INT: INT_SCRATCH, CLASS_FLOAT: FLOAT_SCRATCH}
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
            if not is_def:  # a def writes no slot: uses recompute it
                pre.append(MachineInstr(remat_def.opcode, dst=scratch, imm=remat_def.imm))
        elif is_def:
            post.append(MachineInstr("stslot", srcs=[scratch], imm=interval.slot))
            stats.spill_stores += 1
        else:
            pre.append(MachineInstr("ldslot", dst=scratch, imm=interval.slot))
            stats.spill_loads += 1
        return scratch

    # Reuse one scratch when the same spilled vreg appears twice.
    seen_srcs: Dict[Reg, Reg] = {}
    new_srcs = []
    for src in instr.srcs:
        if src not in seen_srcs:
            seen_srcs[src] = map_reg(src, is_def=False)
        new_srcs.append(seen_srcs[src])
    instr.srcs = new_srcs
    if instr.dst is not None:
        # A spilled dst may reuse a source scratch register safely
        # only after all sources are read — which is the case since
        # the dst write happens last; use a fresh scratch anyway.
        instr.dst = map_reg(instr.dst, is_def=True)
    return pre + [instr] + post


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
