"""Invalidation-aware per-function cache of graph analyses.

Every transform pass and every region-construction phase needs some of
``CFG`` / ``DominatorTree`` / dominance frontiers / ``LoopInfo`` /
``Liveness``.  Recomputing them from scratch at each consumer dominated
the compiler's profile; the :class:`AnalysisManager` computes each
analysis at most once per function and serves the snapshot until a
mutation invalidates it.

The contract mirrors LLVM's pass/analysis split:

- **Consumers** ask the manager (``am.cfg(func)``, ``am.domtree(func)``,
  ``am.frontiers(func)``, ``am.loops(func)``, ``am.liveness(func)``)
  instead of constructing analyses directly.
- **Mutators** must call :meth:`invalidate` after changing a function,
  declaring what survives via ``preserve=...``:

  - inserting/removing/rewriting *instructions* while keeping every
    block and terminator intact preserves the CFG tier
    (``preserve=CFG_ANALYSES``) — the CFG snapshot, dominator tree,
    frontiers, and loop nest are all functions of the block graph only;
  - any edit to block structure or terminators (splitting blocks,
    threading jumps, unrolling, inlining) preserves nothing
    (``preserve=()``,  the default);
  - ``Liveness`` depends on instructions *and* the CFG, so it only
    survives a pure no-op.

A pass that mutates the block graph and fails to invalidate produces
analyses over a stale graph — silent miscompilation.  Two safety nets
exist: ``AnalysisManager(debug=True)`` re-checksums the block graph
(:func:`repro.ir.verifier.cfg_checksum`) on every CFG-tier cache hit
and raises :class:`StaleAnalysisError` on drift (tests run this mode;
see ``tests/test_analysis_manager.py``), and :meth:`check` performs the
same assertion on demand.

Cache traffic is observable: ``analysis.cache.{hits,misses}`` counters,
labeled by analysis kind, feed ``repro stats``.

**Inputs:** :class:`~repro.ir.function.Function` objects (cache key is
function identity).  **Outputs:** cached analysis snapshots, one method
per kind.  **Tier:** the manager *defines* the tiers — ``cfg``,
``domtree``, ``frontiers``, ``loops``, ``reachability``, and ``bitcfg``
(the packed-bitset CFG view of :mod:`repro.analysis.bitset`) form the
CFG tier; ``liveness`` is in the instruction tier.

Doctest — a second request hits the cache (same object back):

>>> from repro.ir.parser import parse_module
>>> mod = parse_module('''
... func @f(%a: int) -> int {
... entry:
...   ret %a
... }
... ''')
>>> func = mod.function_by_name("f")
>>> am = AnalysisManager()
>>> am.cfg(func) is am.cfg(func)
True
>>> am.bitcfg(func).cfg is am.cfg(func)
True
>>> am.invalidate(func)
>>> sorted(CFG_ANALYSES)
['bitcfg', 'cfg', 'domtree', 'frontiers', 'loops', 'reachability']
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Optional

from repro import obs
from repro.analysis.cfg import CFG
from repro.analysis.dominators import DominatorTree, compute_dominance_frontiers
from repro.analysis.liveness import Liveness
from repro.analysis.loops import LoopInfo
from repro.ir.function import Function

#: The analyses that are pure functions of the block graph: valid as
#: long as no block or terminator changes, whatever happens to other
#: instructions.
CFG_ANALYSES: FrozenSet[str] = frozenset(
    {"cfg", "domtree", "frontiers", "loops", "reachability", "bitcfg"}
)

#: Every analysis kind the manager caches.
ALL_ANALYSES: FrozenSet[str] = CFG_ANALYSES | {"liveness"}


class StaleAnalysisError(AssertionError):
    """A cached CFG-tier analysis was served for a mutated block graph.

    Raised only in ``debug=True`` mode (or by :meth:`AnalysisManager.check`);
    it always indicates a pass that changed control flow without calling
    :meth:`AnalysisManager.invalidate`.
    """


class AnalysisManager:
    """Per-function cache for the standard graph analyses."""

    def __init__(self, debug: bool = False) -> None:
        self.debug = debug
        self._cache: Dict[Function, Dict[str, object]] = {}
        self._checksums: Dict[Function, int] = {}
        # (observer, hits, misses) — the counter objects are re-resolved
        # whenever the active observer changes, so the per-lookup cost is
        # one identity check instead of a registry walk per _get call.
        self._counters: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Cache core
    # ------------------------------------------------------------------
    def _hit_miss_counters(self):
        observer = obs.get_observer()
        cached = self._counters
        if cached is None or cached[0] is not observer:
            cached = self._counters = (
                observer,
                observer.counter("analysis.cache.hits"),
                observer.counter("analysis.cache.misses"),
            )
        return cached

    def _get(self, func: Function, kind: str, build: Callable[[], object]) -> object:
        entry = self._cache.setdefault(func, {})
        cached = entry.get(kind)
        if cached is not None:
            if self.debug and kind in CFG_ANALYSES:
                self.check(func)
            self._hit_miss_counters()[1].inc(kind=kind)
            return cached
        self._hit_miss_counters()[2].inc(kind=kind)
        value = build()
        entry[kind] = value
        if kind == "cfg":
            # Identical to verifier.cfg_checksum(func) right now, but read
            # off the snapshot the build just produced.
            self._checksums[func] = value.structural_checksum()
        return value

    def check(self, func: Function) -> None:
        """Assert cached CFG-tier analyses still match ``func``'s graph."""
        expected = self._checksums.get(func)
        if expected is None:
            return
        from repro.ir.verifier import cfg_checksum

        actual = cfg_checksum(func)
        if actual != expected:
            raise StaleAnalysisError(
                f"@{func.name}: block graph changed under cached analyses "
                f"(checksum {expected:#x} -> {actual:#x}) — a pass mutated "
                f"the CFG without calling AnalysisManager.invalidate()"
            )

    def invalidate(self, func: Function, preserve: Iterable[str] = ()) -> None:
        """Drop cached analyses of ``func`` except those in ``preserve``.

        ``preserve=CFG_ANALYSES`` is the declaration for instruction-only
        mutations; the default preserves nothing.  Preserving a derived
        analysis without its base (e.g. ``loops`` without ``cfg``) is a
        contract violation and raises ``ValueError``.
        """
        keep = frozenset(preserve)
        unknown = keep - ALL_ANALYSES
        if unknown:
            raise ValueError(f"unknown analyses: {sorted(unknown)}")
        if keep & CFG_ANALYSES and "cfg" not in keep:
            raise ValueError(
                "preserving a CFG-derived analysis requires preserving 'cfg' "
                f"as well (got {sorted(keep)})"
            )
        entry = self._cache.get(func)
        if entry is None:
            return
        for kind in list(entry):
            if kind not in keep:
                del entry[kind]
        if "cfg" not in keep:
            self._checksums.pop(func, None)

    # ------------------------------------------------------------------
    # Analyses
    # ------------------------------------------------------------------
    def cfg(self, func: Function) -> CFG:
        return self._get(func, "cfg", lambda: CFG(func))

    def domtree(self, func: Function) -> DominatorTree:
        return self._get(
            func, "domtree",
            lambda: DominatorTree.compute_from_cfg(self.cfg(func)),
        )

    def frontiers(self, func: Function) -> Dict:
        return self._get(
            func, "frontiers",
            lambda: compute_dominance_frontiers(self.domtree(func)),
        )

    def loops(self, func: Function) -> LoopInfo:
        return self._get(
            func, "loops", lambda: LoopInfo(func, self.domtree(func))
        )

    def bitcfg(self, func: Function):
        from repro.analysis.bitset import BitCFG

        return self._get(func, "bitcfg", lambda: BitCFG(self.cfg(func)))

    def reachability(self, func: Function):
        from repro.analysis.antideps import BlockReachability

        return self._get(
            func, "reachability",
            lambda: BlockReachability(self.cfg(func), self.bitcfg(func)),
        )

    def liveness(self, func: Function) -> Liveness:
        return self._get(func, "liveness", lambda: Liveness(func))


class NullAnalysisManager(AnalysisManager):
    """A manager that never caches: every request computes fresh.

    Used by the cached-vs-fresh bit-identity tests; results must be
    indistinguishable from the caching manager's.
    """

    def _get(self, func: Function, kind: str, build: Callable[[], object]) -> object:
        self._hit_miss_counters()[2].inc(kind=kind)
        return build()

    def invalidate(self, func: Function, preserve: Iterable[str] = ()) -> None:
        pass

    def check(self, func: Function) -> None:
        pass
