"""Self-dependent pseudoregister antidependences and the loop cut invariant
(paper §4.2.2, §5).

In SSA form the only remaining pseudoregister antidependences are the
self-dependent ones: a loop-header φ whose next-iteration value depends on
the φ itself (``ti = f(ti)``). Their storage (a register or stack slot) is
rewritten every iteration, so a region that wraps around a loop back edge
could observe read-then-overwrite of its own input.

The invariant we enforce — the concrete instantiation of the paper's
case analysis — is:

- **Case 1** (loop contains no cuts): nothing to do. The φ web's defining
  copy in the preheader belongs to the same region as the loop, so every
  per-iteration overwrite is preceded by an in-region flow dependence.
- **Cases 2/3** (loop contains at least one cut): place cuts at the loop
  header (after φs) and in every latch immediately before its terminator.
  φ-web copies are emitted *after* a trailing boundary during code
  generation, so every dynamic path through the loop stays inside a single
  iteration segment, where SSA dominance guarantees writes precede reads.
  This both realizes case 2's "two cuts along all paths" and repositions
  the antidependence writes to straddle region boundaries (Fig. 7c).
- **Unroll enhancement** (§5): when the loop is unrollable and every body
  path already crosses a cut, unroll once *first*; the forced header/latch
  cuts then amortize over two logical iterations, preserving region sizes.

We apply the invariant to every loop containing a cut (not only those with
self-dependent φs): any φ web — loop-header or internal join — creates
register-level WARs across the back edge, and the header+latch cuts are
what keep dynamic paths from wrapping around it. This is slightly more
conservative than the paper's text and is called out in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.analysis.loops import Loop, LoopInfo
from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Boundary, Instruction, Phi
from repro.ir.values import Value
from repro.transforms.unroll import UnrollNotSupported, can_unroll_once, unroll_once

#: Loops larger than this (in blocks) are never unrolled.
MAX_UNROLL_BLOCKS = 12


def self_dependent_phis(loop: Loop) -> List[Phi]:
    """Header φs whose back-edge value transitively depends on the φ.

    These are the paper's ``ti = f(ti)`` self-dependent pseudoregister
    antidependences (§4.2.2).
    """
    result = []
    latch_set = set(loop.latches)
    for phi in loop.header.phis():
        for value, pred in phi.incoming:
            if pred in latch_set and _depends_on(value, phi, loop):
                result.append(phi)
                break
    return result


def _depends_on(value: Value, target: Phi, loop: Loop) -> bool:
    """Does ``value`` reach ``target`` through defs inside the loop?"""
    seen: Set[int] = set()
    stack = [value]
    while stack:
        node = stack.pop()
        if node is target:
            return True
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Instruction) and node.parent in loop.blocks:
            stack.extend(use.value for use in node._operands)
    return False


def count_boundaries(block: BasicBlock) -> int:
    return sum(1 for inst in block.instructions if isinstance(inst, Boundary))


def min_cuts_on_body_paths(loop: Loop, cfg=None) -> int:
    """Minimum number of boundaries crossed by any header→latch path.

    Dynamic programming over the loop body with back edges removed (the
    body of a natural loop minus its back edges is a DAG).  ``cfg`` (a
    :class:`~repro.analysis.cfg.CFG` snapshot, e.g. ``loop_info.cfg``)
    provides O(1) edge queries; without it every predecessor lookup is an
    O(blocks) scan through :attr:`BasicBlock.predecessors`.
    """
    if cfg is not None:
        succs_of = cfg.successors.__getitem__
        preds_of = cfg.predecessors.__getitem__
    else:
        succs_of = lambda b: b.successors  # noqa: E731
        preds_of = lambda b: b.predecessors  # noqa: E731

    # Topological order of loop blocks ignoring edges into the header.
    order: List[BasicBlock] = []
    visiting: Set[BasicBlock] = set()
    done: Set[BasicBlock] = set()

    def visit(block: BasicBlock) -> None:
        if block in done:
            return
        stack = [(block, iter(succs_of(block)))]
        visiting.add(block)
        while stack:
            node, succ_iter = stack[-1]
            advanced = False
            for succ in succ_iter:
                if succ is loop.header or succ not in loop.blocks:
                    continue
                if succ in done or succ in visiting:
                    continue
                visiting.add(succ)
                stack.append((succ, iter(succs_of(succ))))
                advanced = True
                break
            if not advanced:
                visiting.discard(node)
                done.add(node)
                order.append(node)
                stack.pop()

    visit(loop.header)
    order.reverse()  # now header-first topological order

    best: Dict[BasicBlock, int] = {}
    for block in order:
        if block is loop.header:
            incoming = 0
        else:
            preds = [
                p for p in preds_of(block)
                if p in loop.blocks and p in best
            ]
            if not preds:
                continue  # unreachable within the body DAG
            incoming = min(best[p] for p in preds)
        best[block] = incoming + count_boundaries(block)

    latch_counts = [best[latch] for latch in loop.latches if latch in best]
    return min(latch_counts) if latch_counts else 0


def _has_boundary_at_header(loop: Loop) -> bool:
    first = loop.header.first_non_phi
    return isinstance(first, Boundary)


def _has_boundary_before_terminator(block: BasicBlock) -> bool:
    if len(block.instructions) < 2:
        return False
    return isinstance(block.instructions[-2], Boundary)


@dataclass
class LoopCutReport:
    """Per-function statistics from the loop cut invariant pass."""

    loops_seen: int = 0
    loops_with_self_dependent_phis: int = 0
    case1_untouched: int = 0
    case2_already_satisfied: int = 0
    case3_fixed: int = 0
    loops_unrolled: int = 0
    forced_cuts: int = 0
    unrolled_headers: List[str] = field(default_factory=list)


def enforce_loop_cut_invariant(
    func: Function,
    unroll: bool = True,
    am=None,
) -> LoopCutReport:
    """Apply the §4.2.2 case analysis to every loop of ``func``.

    Must run after memory-antidependence boundaries are inserted. Iterates
    to a fixpoint because forcing cuts into an inner loop gives enclosing
    loops cuts too.

    ``am`` (an :class:`repro.analysis.manager.AnalysisManager`) supplies
    the cached loop nest; unrolling edits the block graph, so the manager
    is fully invalidated before the fixpoint rescans.  Boundary insertion
    alone preserves the CFG tier (a ``boundary`` is not a terminator) —
    the caller still owns that invalidation, since only it knows whether
    liveness must also be dropped.
    """
    report = LoopCutReport()
    counted_headers: Set[str] = set()

    changed = True
    while changed:
        changed = False
        loop_info = am.loops(func) if am is not None else LoopInfo(func)
        # Innermost-first so outer loops observe cuts added to inner ones.
        loops = sorted(loop_info.loops, key=lambda lp: -lp.depth)
        # φ self-dependence is a function of the (unchanging within one
        # pass) instruction operands, and both the stats accounting and
        # the unroll predicate query it — share one result per header.
        selfdep_memo: Dict[str, List[Phi]] = {}

        def memoized_self_dependent_phis(lp: Loop) -> List[Phi]:
            cached = selfdep_memo.get(lp.header.name)
            if cached is None:
                cached = selfdep_memo[lp.header.name] = self_dependent_phis(lp)
            return cached

        for loop in loops:
            header_name = loop.header.name
            if header_name not in counted_headers:
                counted_headers.add(header_name)
                report.loops_seen += 1
                if memoized_self_dependent_phis(loop):
                    report.loops_with_self_dependent_phis += 1

            # Only zero-vs-nonzero matters: stop at the first boundary.
            has_cut = False
            for block in loop.blocks:
                for inst in block.instructions:
                    if inst.__class__ is Boundary:
                        has_cut = True
                        break
                if has_cut:
                    break
            if not has_cut:
                report.case1_untouched += 1
                continue

            has_header_cut = _has_boundary_at_header(loop)
            has_latch_cuts = all(
                _has_boundary_before_terminator(latch) for latch in loop.latches
            )
            if has_header_cut and has_latch_cuts:
                report.case2_already_satisfied += 1
                continue

            # Case 3: fix up. Optionally unroll first so the forced cuts
            # amortize over two logical iterations (each unrolled at most
            # once, keyed by header name).
            if (
                unroll
                and header_name not in report.unrolled_headers
                and can_unroll_once(loop)
                and len(loop.blocks) <= MAX_UNROLL_BLOCKS
                and min_cuts_on_body_paths(loop, loop_info.cfg) >= 1
                and memoized_self_dependent_phis(loop)
            ):
                try:
                    unroll_once(func, loop)
                except UnrollNotSupported:
                    pass
                else:
                    report.loops_unrolled += 1
                    report.unrolled_headers.append(header_name)
                    # Loop structure changed; restart the fixpoint scan.
                    if am is not None:
                        am.invalidate(func)
                    changed = True
                    break

            report.case3_fixed += 1
            if not has_header_cut:
                loop.header.insert_after_phis(Boundary())
                report.forced_cuts += 1
            for latch in loop.latches:
                if not _has_boundary_before_terminator(latch):
                    terminator = latch.terminator
                    assert terminator is not None
                    latch.insert_before(terminator, Boundary())
                    report.forced_cuts += 1
            # Boundary insertion does not change the CFG, so the remaining
            # loops of this pass can proceed with the same LoopInfo.
    return report
