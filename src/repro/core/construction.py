"""Idempotent region construction (paper §4) — the pipeline entry point.

Steps, per function:

1. *Transform* (§4.1): SSA conversion + store-to-load forwarding (via the
   standard optimization pipeline), so that remaining antidependences are
   memory-level and conservatively clobber.
2. *Mandatory cuts*: region boundaries before and after every
   memory-touching call (the intra-procedural construction splits regions
   at call boundaries; cf. §3's "semantic and calls" category and §5's
   calling-convention handling).
3. *Cut memory antidependences* (§4.2.1): greedy hitting set over the
   dominator candidate sets, loop-depth heuristic (§4.3).
4. *Loop cut invariant* (§4.2.2): self-dependent-φ case analysis with the
   unroll-by-one enhancement (§5).
5. *Calling convention* (§5): a function left with a single region is
   split so return values may overwrite parameter registers.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro import obs
from repro.analysis.alias import AliasAnalysis
from repro.analysis.antideps import AntiDepAnalysis, Point
from repro.analysis.manager import (
    AnalysisManager,
    CFG_ANALYSES,
    NullAnalysisManager,
)
from repro.core.cuts import (
    HEURISTIC_LOOP,
    HittingSetProblem,
    solve_hitting_set,
)
from repro.core.regions import RegionDecomposition
from repro.core.selfdep import LoopCutReport, enforce_loop_cut_invariant
from repro.core.sizebound import bound_region_sizes
from repro.core.verify import verify_idempotent_regions
from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Boundary, Call, Ret
from repro.ir.module import Module
from repro.transforms.pipeline import optimize_function


@dataclass
class ConstructionConfig:
    """Tuning knobs of the region construction."""

    #: Cut selection policy: "loop" (paper §4.3) or "coverage" (pure greedy).
    heuristic: str = HEURISTIC_LOOP
    #: Apply the unroll-by-one enhancement in the §4.2.2 case analysis.
    unroll_self_dep: bool = True
    #: Upper bound on boundary-free path length in IR instructions
    #: (None = unbounded, the paper's default of maximizing path length).
    #: See §6.2: shorter regions tolerate shorter detection latencies and
    #: re-execute less on recovery, at higher runtime overhead.
    max_region_size: Optional[int] = None
    #: Treat distinct pointer arguments as non-aliasing (restrict-style
    #: promise). The paper's §8 notes better aliasing information grows
    #: regions; its own Fig. 1 example assumes exactly this (footnote 1).
    trust_argument_noalias: bool = False


@dataclass
class ConstructionResult:
    """What the construction did to one function."""

    function: str
    antidep_count: int = 0
    mandatory_cut_count: int = 0
    hitting_set_cut_count: int = 0
    loop_report: Optional[LoopCutReport] = None
    size_bound_cuts: int = 0
    single_region_splits: int = 0
    region_count: int = 0
    static_region_sizes: List[int] = field(default_factory=list)

    @property
    def total_boundaries(self) -> int:
        forced = self.loop_report.forced_cuts if self.loop_report else 0
        return (
            self.mandatory_cut_count
            + self.hitting_set_cut_count
            + forced
            + self.size_bound_cuts
            + self.single_region_splits
        )


def _call_cut_points(func: Function) -> List[Point]:
    """Mandatory boundaries before and after every call.

    Calls split regions in the intra-procedural construction (§3, §5).
    Pure builtins (sqrt, exp, ...) are cut as well: at the machine level
    any call is an implicit restart point, and the argument-register
    copies feeding it must not overwrite a region input — the boundary
    before the call puts those copies in the call's own region.
    """
    points: List[Point] = []
    for block in func.blocks:
        for i, inst in enumerate(block.instructions):
            if isinstance(inst, Call):
                points.append((block, i))
                points.append((block, i + 1))
    return points


def _insert_boundaries(func: Function, points: List[Point]) -> int:
    """Materialize cut points as ``boundary`` instructions.

    Points are (block, index) pairs meaning "before the instruction
    currently at ``index``"; inserting bottom-up keeps earlier indices
    valid. Duplicate points collapse to a single boundary.
    """
    by_block: Dict[BasicBlock, Set[int]] = {}
    for block, index in points:
        by_block.setdefault(block, set()).add(index)
    inserted = 0
    for block, indices in by_block.items():
        for index in sorted(indices, reverse=True):
            block.insert(index, Boundary())
            inserted += 1
    return inserted


def _split_single_region(func: Function) -> int:
    """Boundary before every ``ret`` (§5 calling-convention handling).

    The return sequence overwrites the result register, which doubles as
    the first argument register read at function entry. Cutting before
    each return puts that overwrite in its own region, "allowing parameter
    values to be overwritten by return values". (The paper splits only
    single-region functions; we cut before every return because any
    boundary-free entry→ret path has the same hazard. One marker per
    return is the entire cost.)
    """
    splits = 0
    for block in func.blocks:
        terminator = block.terminator
        if isinstance(terminator, Ret):
            if len(block.instructions) >= 2 and isinstance(
                block.instructions[-2], Boundary
            ):
                continue
            block.insert_before(terminator, Boundary())
            splits += 1
    return splits


def construct_idempotent_regions(
    func: Function,
    config: Optional[ConstructionConfig] = None,
    manager: Optional[AnalysisManager] = None,
) -> ConstructionResult:
    """Partition ``func`` into idempotent regions, in place.

    All phases share one :class:`AnalysisManager` (``manager``, or a
    fresh one), so the CFG, dominator tree, reachability, and loop nest
    are each computed once and reused until a mutation invalidates them
    — boundary insertion preserves the CFG tier (a ``boundary`` is not a
    terminator), only unrolling forces a full recompute.  Results are
    bit-identical with and without the cache (a
    :class:`repro.analysis.manager.NullAnalysisManager` disables it).
    """
    config = config or ConstructionConfig()
    result = ConstructionResult(function=func.name)
    if func.is_declaration:
        return result
    am = manager if manager is not None else AnalysisManager()

    with obs.span("construction.function", func=func.name):
        with obs.span("construction.ssa", func=func.name):
            optimize_function(func, am=am)

        with obs.span("construction.antideps", func=func.name):
            aa = AliasAnalysis(
                func, trust_argument_noalias=config.trust_argument_noalias
            )
            analysis = AntiDepAnalysis(
                func,
                aa,
                cfg=am.cfg(func),
                domtree=am.domtree(func),
                reach=am.reachability(func),
            )
        result.antidep_count = len(analysis.antideps)

        mandatory = _call_cut_points(func)

        with obs.span("construction.cuts", func=func.name):
            candidate_sets = [
                analysis.candidate_cuts(ad) for ad in analysis.antideps
            ]
            loop_info = am.loops(func)
            chosen = solve_hitting_set(
                HittingSetProblem(candidate_sets),
                loop_info=loop_info,
                heuristic=config.heuristic,
                preselected=mandatory,
            )
        result.mandatory_cut_count = len(set(mandatory))
        result.hitting_set_cut_count = len(chosen)

        if _insert_boundaries(func, mandatory + chosen):
            am.invalidate(func, preserve=CFG_ANALYSES)

        with obs.span("construction.loops", func=func.name):
            result.loop_report = enforce_loop_cut_invariant(
                func, unroll=config.unroll_self_dep, am=am
            )
        if result.loop_report.forced_cuts:
            am.invalidate(func, preserve=CFG_ANALYSES)

        if config.max_region_size is not None:
            with obs.span("construction.sizebound", func=func.name):
                result.size_bound_cuts = bound_region_sizes(
                    func, config.max_region_size
                )
                if result.size_bound_cuts:
                    am.invalidate(func, preserve=CFG_ANALYSES)
                    # New in-loop cuts can break the loop invariant;
                    # re-establish it (never unrolling twice — the
                    # invariant pass tracks that).
                    enforce_loop_cut_invariant(func, unroll=False, am=am)

        result.single_region_splits = _split_single_region(func)
        if result.single_region_splits:
            am.invalidate(func, preserve=CFG_ANALYSES)

        with obs.span("construction.regions", func=func.name):
            # Every phase since the last invalidation preserved the CFG
            # tier (boundary markers only), so the cached snapshot is live.
            decomposition = RegionDecomposition(func, cfg=am.cfg(func))
        result.region_count = len(decomposition)
        result.static_region_sizes = decomposition.static_sizes()

        # Verify under the same alias assumptions the construction used.
        with obs.span("construction.verify", func=func.name):
            if result.loop_report.loops_unrolled:
                # Unrolling cloned loads/stores: the antidep list from
                # the antideps phase is stale, rebuild it from scratch.
                verify_aa = AliasAnalysis(
                    func,
                    trust_argument_noalias=config.trust_argument_noalias,
                )
                verify_idempotent_regions(func, verify_aa, am=am)
            else:
                # Everything since the antideps phase inserted only
                # ``boundary`` markers — no memory instruction or CFG
                # edge changed, so the antidep list is exactly the one
                # already computed; verify it against the placement.
                verify_idempotent_regions(func, am=am, analysis=analysis)

    _publish_metrics(result)
    return result


def _publish_metrics(result: ConstructionResult) -> None:
    """Feed one function's construction accounting into ``repro.obs``."""
    obs.counter("construction.antideps").inc(result.antidep_count)
    cuts = obs.counter("construction.cuts")
    cuts.inc(result.mandatory_cut_count, kind="call")
    cuts.inc(result.hitting_set_cut_count, kind="hitting_set")
    if result.loop_report:
        cuts.inc(result.loop_report.forced_cuts, kind="loop")
        obs.counter("construction.loops_unrolled").inc(
            result.loop_report.loops_unrolled
        )
    cuts.inc(result.size_bound_cuts, kind="size_bound")
    cuts.inc(result.single_region_splits, kind="single_region_split")
    obs.counter("construction.regions").inc(result.region_count)
    sizes = obs.histogram("construction.region_size")
    for size in result.static_region_sizes:
        sizes.observe(size)


def construct_module_regions(
    module: Module,
    config: Optional[ConstructionConfig] = None,
    analysis_cache: bool = True,
) -> Dict[str, ConstructionResult]:
    """Run the region construction over every defined function.

    ``analysis_cache=False`` makes every construction phase recompute
    its graph analyses from scratch (bit-identical output, used by the
    cached-vs-fresh bit-identity tests).

    The cyclic collector is paused for the duration of the pass: the
    rewrites detach thousands of instructions whose operand ``Use``
    records keep reference cycles, and letting the young-generation
    collector re-scan that churn mid-flight costs several percent of
    the pass.  Deferred garbage is reclaimed by the next natural
    collection after the pass returns.
    """
    manager = AnalysisManager() if analysis_cache else NullAnalysisManager()
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        return {
            func.name: construct_idempotent_regions(func, config, manager=manager)
            for func in module.defined_functions
        }
    finally:
        if was_enabled:
            gc.enable()
