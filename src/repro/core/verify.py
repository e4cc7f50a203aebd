"""Static idempotence verification of a region-marked function.

Checks the defining property of the decomposition (paper §4.2.1): no
region contains a memory antidependence — equivalently, every control-flow
path from a memory read to a potentially-aliasing later write crosses a
region boundary. Used as a post-condition by the construction pass and in
tests; the dynamic re-execution check is the fuzz oracle's
(:mod:`repro.fuzz.oracle`).

Boundary-free reachability runs on a packed-bitset kernel
(:func:`repro.analysis.bitset.closure_rows`): blocks containing a
``boundary`` are barriers — their head can be *reached* but nothing
propagates past them — so one closure over the boundary-free blocks
answers every antidependence query with a tail scan plus a bit test,
instead of one instruction-level DFS per (read, write) pair.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.antideps import AntiDep, AntiDepAnalysis
from repro.analysis.bitset import closure_rows
from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Boundary, Call, Instruction


class IdempotenceViolation:
    """A read→write pair with a boundary-free connecting path."""

    def __init__(self, antidep: AntiDep, note: str = "") -> None:
        self.antidep = antidep
        self.note = note

    def __repr__(self) -> str:
        return f"<IdempotenceViolation {self.antidep!r} {self.note}>"


class BoundarySegments:
    """Boundary-free reachability between program points of one function.

    Built once per verification: ``first_boundary[i]`` is the index of
    the first ``boundary`` in block ``i`` (or the block length), and the
    closure rows give, for each block, the set of block *heads* reachable
    from its exit without crossing a boundary — blocks containing a
    boundary contribute their head bit but do not propagate
    (``expand_mask`` restricted to boundary-free blocks).

    Calls to non-builtin functions are also barriers when the caller cuts
    around calls — but we stay conservative here and treat only explicit
    ``boundary`` markers as barriers, which makes the check strictly
    stronger.
    """

    def __init__(self, func: Function) -> None:
        self.blocks: List[BasicBlock] = list(func.blocks)
        self.bit: Dict[BasicBlock, int] = {
            block: i for i, block in enumerate(self.blocks)
        }
        bit = self.bit
        self.first_boundary: List[int] = []
        succ_bits: List[List[int]] = []
        open_mask = 0
        for i, block in enumerate(self.blocks):
            instructions = block.instructions
            first = len(instructions)
            for j, inst in enumerate(instructions):
                if isinstance(inst, Boundary):
                    first = j
                    break
            self.first_boundary.append(first)
            if first == len(instructions):
                open_mask |= 1 << i
            succ_bits.append([bit[s] for s in block.successors])
        self.rows = closure_rows(
            succ_bits, range(len(self.blocks) - 1, -1, -1), expand_mask=open_mask
        )

    def boundary_free_path_exists(
        self, a: Instruction, b: Instruction
    ) -> bool:
        """Is there a path from just after ``a`` to ``b`` crossing no boundary?"""
        block_a = a.parent
        instructions = block_a.instructions
        # Tail of a's block: find the target or get blocked in place.
        for i in range(instructions.index(a) + 1, len(instructions)):
            inst = instructions[i]
            if inst is b:
                return True
            if isinstance(inst, Boundary):
                return False
        # a's block exits boundary-free; one bit test against the closure,
        # then the target must sit before its own block's first boundary.
        block_b = b.parent
        bit_b = self.bit[block_b]
        if not (self.rows[self.bit[block_a]] >> bit_b) & 1:
            return False
        return block_b.instructions.index(b) < self.first_boundary[bit_b]


def _boundary_free_path_exists(func: Function, a: Instruction, b: Instruction) -> bool:
    """One-off form of :meth:`BoundarySegments.boundary_free_path_exists`."""
    return BoundarySegments(func).boundary_free_path_exists(a, b)


def find_idempotence_violations(
    func: Function, aa=None, am=None, analysis: Optional[AntiDepAnalysis] = None
) -> List[IdempotenceViolation]:
    """All memory antidependences not split by region boundaries.

    ``aa`` lets callers verify under the same alias assumptions the
    construction used (e.g. ``trust_argument_noalias``); ``am`` (an
    :class:`repro.analysis.manager.AnalysisManager`) supplies cached
    CFG/dominator/reachability snapshots so verification does not repeat
    the construction's graph work.  ``analysis`` supplies a prebuilt
    :class:`AntiDepAnalysis` outright — valid only when the function's
    loads, stores, calls, and CFG edges are unchanged since it was
    computed (``boundary`` insertion qualifies; unrolling does not).
    """
    if analysis is None:
        if am is not None:
            analysis = AntiDepAnalysis(
                func,
                aa,
                cfg=am.cfg(func),
                domtree=am.domtree(func),
                reach=am.reachability(func),
            )
        else:
            analysis = AntiDepAnalysis(func, aa)
    violations = []
    if not analysis.antideps:
        return violations
    segments = BoundarySegments(func)
    for antidep in analysis.antideps:
        if segments.boundary_free_path_exists(antidep.read, antidep.write):
            violations.append(IdempotenceViolation(antidep))
    return violations


def verify_idempotent_regions(
    func: Function, aa=None, am=None, analysis: Optional[AntiDepAnalysis] = None
) -> None:
    """Raise ``AssertionError`` listing any uncut memory antidependence."""
    violations = find_idempotence_violations(func, aa, am=am, analysis=analysis)
    if violations:
        details = "\n".join(repr(v) for v in violations)
        raise AssertionError(
            f"@{func.name}: {len(violations)} antidependence(s) inside regions:\n{details}"
        )
