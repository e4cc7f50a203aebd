"""Pre-rewrite reference implementations of the dataflow analyses.

**Inputs/outputs:** identical to their production counterparts;
**tier:** never cached — these exist only as oracles.

When the per-block Python analyses were moved onto the packed-bitset
kernels (:mod:`repro.analysis.bitset`), the original implementations
were preserved here verbatim so the equivalence contract stays
executable: ``tests/test_bitset_kernels.py`` runs both sides over the
fuzz-generator corpus plus hand-built edge-case CFGs (single block,
unreachable blocks, irreducible loops) and asserts the results match
bit for bit.  Nothing in ``src/`` imports this module; if a kernel and
its reference ever disagree, the kernel is wrong.  Its doctest runs from
``tests/test_bitset_kernels.py``.

Doctest — the reference liveness solver on a straight line:

>>> from repro.ir.parser import parse_module
>>> mod = parse_module('''
... func @f(%a: int) -> int {
... entry:
...   %x = add %a, 1
...   ret %x
... }
... ''')
>>> func = mod.function_by_name("f")
>>> live_in, live_out = reference_liveness(func)
>>> sorted(v.name for v in live_in[func.entry])
['a']
>>> live_out[func.entry]
set()
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.analysis.cfg import CFG
from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Phi
from repro.ir.values import Argument, Value


def _is_tracked(value: Value) -> bool:
    return isinstance(value, (Instruction, Argument))


def reference_liveness(
    func: Function,
) -> Tuple[Dict[BasicBlock, Set[Value]], Dict[BasicBlock, Set[Value]]]:
    """The original per-block set-based liveness solver.

    Returns ``(live_in, live_out)`` dicts over reachable blocks.
    """
    cfg = CFG(func)
    blocks = cfg.reachable_blocks
    use_sets: Dict[BasicBlock, Set[Value]] = {}
    def_sets: Dict[BasicBlock, Set[Value]] = {}
    live_in: Dict[BasicBlock, Set[Value]] = {}
    live_out: Dict[BasicBlock, Set[Value]] = {}

    def phi_uses_on_edge(pred: BasicBlock, succ: BasicBlock) -> Set[Value]:
        uses: Set[Value] = set()
        for phi in succ.phis():
            value = phi.incoming_for(pred)
            if _is_tracked(value):
                uses.add(value)
        return uses

    for block in blocks:
        uses: Set[Value] = set()
        defs: Set[Value] = set()
        for inst in block.instructions:
            if isinstance(inst, Phi):
                defs.add(inst)
                continue
            for op in inst.operands:
                if _is_tracked(op) and op not in defs:
                    uses.add(op)
            if inst.type.is_value_type:
                defs.add(inst)
        use_sets[block] = uses
        def_sets[block] = defs
        live_in[block] = set()
        live_out[block] = set()

    changed = True
    while changed:
        changed = False
        for block in reversed(blocks):
            out: Set[Value] = set()
            for succ in cfg.succs(block):
                if succ not in live_in:
                    continue
                out |= live_in[succ]
                out |= phi_uses_on_edge(block, succ)
            new_in = use_sets[block] | (out - def_sets[block])
            if out != live_out[block] or new_in != live_in[block]:
                live_out[block] = out
                live_in[block] = new_in
                changed = True
    return live_in, live_out


def reference_frontiers(domtree) -> Dict[BasicBlock, set]:
    """The original Cooper et al. two-finger dominance-frontier walk."""
    cfg = domtree.cfg
    frontiers: Dict[BasicBlock, set] = {
        block: set() for block in cfg.reachable_blocks
    }
    for block in cfg.reachable_blocks:
        preds = [p for p in cfg.preds(block) if domtree.is_reachable(p)]
        if len(preds) < 2:
            continue
        for pred in preds:
            runner = pred
            while runner is not domtree.idom.get(block) and runner is not None:
                frontiers[runner].add(block)
                runner = domtree.idom.get(runner)
    return frontiers


def reference_reaches(cfg: CFG, a: BasicBlock, b: BasicBlock) -> bool:
    """The original one-DFS-per-source block reachability (≥1 edge)."""
    seen: Set[BasicBlock] = set()
    stack = list(cfg.succs(a))
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(cfg.succs(node))
    return b in seen


def reference_dominates(domtree, a: BasicBlock, b: BasicBlock) -> bool:
    """The original idom-chain walking dominance query."""
    if a is b:
        return True
    if a not in domtree.depth or b not in domtree.depth:
        return False
    node: Optional[BasicBlock] = b
    while node is not None and domtree.depth.get(node, 0) > domtree.depth[a]:
        node = domtree.idom.get(node)
    return node is a
