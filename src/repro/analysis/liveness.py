"""Per-block liveness of IR values (pseudoregisters).

**Inputs:** a :class:`~repro.ir.function.Function` (a fresh CFG snapshot
is taken internally).  **Outputs:** ``live_in``/``live_out`` sets of
:class:`~repro.ir.values.Value` per reachable block, plus point queries.
**Tier:** ``liveness`` lives in the *instruction* tier of the
:class:`~repro.analysis.manager.AnalysisManager` — any instruction
mutation invalidates it, not just block surgery.

A value is *live-in* at a point if it has a definition reaching that point
and a use after it. Live-in sets at region entry points are exactly the
"inputs" of the paper's idempotence definition (§2.1), and the codegen
constraint (§4.4) is phrased in terms of them: every pseudoregister live-in
to a region must also be treated as live-out.

Standard backward dataflow over the CFG, solved on the packed-bitset
kernels of :mod:`repro.analysis.bitset`: every tracked value gets a bit
index, block transfer is ``in = use | (out & ~def)`` on big-ints, and
the fixpoint sweeps blocks in reverse RPO.  φ-nodes are handled
edge-wise: a φ operand is live-out of the corresponding predecessor,
not live-in to the φ's own block.  Results are materialized back into
ordinary sets, bit-identical to the pre-rewrite per-block solver
(asserted against the frozen solver of ``tests/frozen_kernels.py`` in
``tests/test_bitset_kernels.py``).

Doctest — a value defined in entry and used past a branch is live
through the middle block:

>>> from repro.ir.parser import parse_module
>>> mod = parse_module('''
... func @f(%a: int) -> int {
... entry:
...   %x = add %a, 1
...   jmp mid
... mid:
...   jmp exit
... exit:
...   ret %x
... }
... ''')
>>> func = mod.function_by_name("f")
>>> blocks = {b.name: b for b in func.blocks}
>>> lv = Liveness(func)
>>> sorted(v.name for v in lv.live_out_at(blocks["mid"]))
['x']
>>> sorted(v.name for v in lv.live_in_at(blocks["entry"]))
['a']
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.analysis.bitset import iter_bits
from repro.analysis.cfg import CFG
from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Phi
from repro.ir.values import Argument, Value


def _is_tracked(value: Value) -> bool:
    """Liveness tracks SSA pseudoregisters: instructions and arguments."""
    return isinstance(value, (Instruction, Argument))


class Liveness:
    """Live-in/live-out value sets per block."""

    def __init__(self, func: Function) -> None:
        self.func = func
        self.cfg = CFG(func)
        self.live_in: Dict[BasicBlock, Set[Value]] = {}
        self.live_out: Dict[BasicBlock, Set[Value]] = {}
        self._compute()

    def _compute(self) -> None:
        cfg = self.cfg
        blocks = cfg.reachable_blocks
        n = len(blocks)
        pos = {block: i for i, block in enumerate(blocks)}

        # Bit index per tracked value, assigned on first sight.
        value_index: Dict[Value, int] = {}
        values: List[Value] = []

        def bit_of(value: Value) -> int:
            index = value_index.get(value)
            if index is None:
                index = len(values)
                value_index[value] = index
                values.append(value)
            return index

        # Per-block upward-exposed uses and definitions as value masks
        # (φs excluded from uses; their operands count on pred edges).
        use_masks = [0] * n
        def_masks = [0] * n
        for i, block in enumerate(blocks):
            use = 0
            defs = 0
            for inst in block.instructions:
                if isinstance(inst, Phi):
                    defs |= 1 << bit_of(inst)
                    continue
                for op in inst.operands:
                    if _is_tracked(op):
                        b = 1 << bit_of(op)
                        if not defs & b:
                            use |= b
                if inst.type.is_value_type:
                    defs |= 1 << bit_of(inst)
            use_masks[i] = use
            def_masks[i] = defs

        # Per-edge φ-operand masks, folded into the successor list so the
        # fixpoint loop is pure big-int algebra.
        succ_info: List[List[Tuple[int, int]]] = []
        for block in blocks:
            info: List[Tuple[int, int]] = []
            for succ in cfg.succs(block):
                phi_mask = 0
                for phi in succ.phis():
                    value = phi.incoming_for(block)
                    if _is_tracked(value):
                        phi_mask |= 1 << bit_of(value)
                info.append((pos[succ], phi_mask))
            succ_info.append(info)

        # Backward fixpoint in reverse RPO: in = use | (out & ~def).
        # φ results are defined at the head of succ; they are not
        # live-out of pred via live_in (they're in defs of succ).
        live_in = [0] * n
        live_out = [0] * n
        changed = True
        while changed:
            changed = False
            for i in range(n - 1, -1, -1):
                out = 0
                for j, phi_mask in succ_info[i]:
                    out |= live_in[j] | phi_mask
                new_in = use_masks[i] | (out & ~def_masks[i])
                if out != live_out[i] or new_in != live_in[i]:
                    live_out[i] = out
                    live_in[i] = new_in
                    changed = True

        for i, block in enumerate(blocks):
            self.live_in[block] = {values[k] for k in iter_bits(live_in[i])}
            self.live_out[block] = {values[k] for k in iter_bits(live_out[i])}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def live_in_at(self, block: BasicBlock) -> Set[Value]:
        return set(self.live_in.get(block, set()))

    def live_out_at(self, block: BasicBlock) -> Set[Value]:
        return set(self.live_out.get(block, set()))

    def live_before(self, inst: Instruction) -> Set[Value]:
        """Values live immediately before ``inst`` within its block."""
        block = inst.parent
        live = self.live_out_at(block)
        instructions = block.instructions
        for candidate in reversed(instructions):
            if candidate.type.is_value_type:
                live.discard(candidate)
            if not isinstance(candidate, Phi):
                for op in candidate.operands:
                    if _is_tracked(op):
                        live.add(op)
            if candidate is inst:
                break
        return live
