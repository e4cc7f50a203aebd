"""repro.analysis — program analyses over the repro IR.

- :class:`CFG` — control-flow-graph snapshot with traversal orders
- :class:`BitCFG` / :mod:`repro.analysis.bitset` — packed big-int bitset
  kernels shared by the dataflow analyses (see ``docs/kernels.md``)
- :class:`DominatorTree` / :func:`compute_dominance_frontiers`
- :class:`Liveness` — per-block live value sets
- :class:`LoopInfo` — natural loops and nesting depth
- :class:`AliasAnalysis` — points-to, may/must alias, storage classes
- :class:`AntiDepAnalysis` — memory antidependences with the paper's
  semantic/artificial and clobber/non-clobber classification, plus the
  hitting-set candidate cut sets of §4.2.1
- :class:`AnalysisManager` — invalidation-aware per-function cache of the
  above; :class:`NullAnalysisManager` disables caching for bit-identity
  comparisons (see ``docs/performance.md``)

The pre-bitset implementations are frozen in ``tests/frozen_kernels.py``
as oracles for the kernel equivalence suite.

**Tier summary** (AnalysisManager invalidation contract): ``cfg``,
``domtree``, ``frontiers``, ``loops``, ``reachability``, ``bitcfg`` are
pure functions of the block graph (CFG tier); ``liveness`` also reads
instructions (instruction tier).  Alias and antidependence analyses are
uncached and rebuilt per construction run.
"""

from repro.analysis.alias import (
    AliasAnalysis,
    MAY_ALIAS,
    MemoryObject,
    MUST_ALIAS,
    NO_ALIAS,
    STORAGE_LOCAL_STACK,
    STORAGE_MEMORY,
)
from repro.analysis.antideps import (
    AntiDep,
    AntiDepAnalysis,
    BlockReachability,
    DominanceOracle,
    InstructionIndex,
    Point,
    path_exists,
    summarize_antideps,
)
from repro.analysis.bitset import (
    BitCFG,
    closure_rows,
    dominance_frontier_masks,
    iter_bits,
    pack_bits,
)
from repro.analysis.cfg import CFG, remove_unreachable_blocks
from repro.analysis.dominators import DominatorTree, compute_dominance_frontiers
from repro.analysis.liveness import Liveness
from repro.analysis.loops import Loop, LoopInfo
from repro.analysis.manager import (
    ALL_ANALYSES,
    AnalysisManager,
    CFG_ANALYSES,
    NullAnalysisManager,
    StaleAnalysisError,
)

__all__ = [
    "ALL_ANALYSES",
    "AliasAnalysis",
    "AnalysisManager",
    "AntiDep",
    "AntiDepAnalysis",
    "BitCFG",
    "BlockReachability",
    "CFG",
    "CFG_ANALYSES",
    "DominanceOracle",
    "DominatorTree",
    "InstructionIndex",
    "Liveness",
    "Loop",
    "LoopInfo",
    "MAY_ALIAS",
    "MUST_ALIAS",
    "MemoryObject",
    "NO_ALIAS",
    "NullAnalysisManager",
    "Point",
    "StaleAnalysisError",
    "STORAGE_LOCAL_STACK",
    "STORAGE_MEMORY",
    "closure_rows",
    "compute_dominance_frontiers",
    "dominance_frontier_masks",
    "iter_bits",
    "pack_bits",
    "path_exists",
    "remove_unreachable_blocks",
    "summarize_antideps",
]
