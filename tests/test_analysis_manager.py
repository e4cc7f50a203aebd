"""AnalysisManager: cache identity, invalidation contract, stale detection,
and cached-vs-fresh agreement on random programs.

The load-bearing guarantees (see ``docs/performance.md``):

1. a cache hit returns the *same* analysis object until invalidated;
2. ``invalidate(preserve=...)`` keeps exactly the declared survivors and
   rejects contract violations (preserving a derived analysis without its
   base);
3. a pass that mutates the block graph without invalidating is caught by
   the ``ir.verifier.cfg_checksum`` assertion in ``debug=True`` mode
   (:class:`StaleAnalysisError`);
4. compiling with the cache enabled and disabled produces byte-identical
   IR — the cache is an optimization, never a semantic input.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import (
    ALL_ANALYSES,
    AnalysisManager,
    CFG_ANALYSES,
    NullAnalysisManager,
    StaleAnalysisError,
    compute_dominance_frontiers,
    CFG,
    DominatorTree,
    LoopInfo,
)
from repro.compiler import compile_minic
from repro.frontend import compile_source
from repro.ir import format_module
from repro.ir.instructions import Boundary
from repro.ir.verifier import cfg_checksum
from repro.transforms.clone import split_edge

from tests.test_random_programs import sources

BRANCHY = """
int g[4];
int main() {
  int acc = 0;
  for (int i = 0; i < 8; i = i + 1) {
    if (acc % 3 == 0) g[i % 4] = g[i % 4] + i; else acc = acc + g[i % 4];
  }
  return acc;
}
"""


def _main_func():
    module = compile_source(BRANCHY)
    return module.functions["main"]


def _edit_block_graph(func):
    """Split the entry block's first out-edge: a new block and two
    rewired edges, with no analysis invalidated."""
    entry = func.entry
    split_edge(func, entry, entry.successors[0])


class TestCacheCore:
    def test_hit_returns_same_object(self):
        func = _main_func()
        am = AnalysisManager()
        assert am.cfg(func) is am.cfg(func)
        assert am.domtree(func) is am.domtree(func)
        assert am.frontiers(func) is am.frontiers(func)
        assert am.loops(func) is am.loops(func)
        assert am.reachability(func) is am.reachability(func)
        assert am.liveness(func) is am.liveness(func)

    def test_derived_analyses_share_the_cached_base(self):
        func = _main_func()
        am = AnalysisManager()
        assert am.domtree(func).cfg is am.cfg(func)
        assert am.loops(func).domtree is am.domtree(func)

    def test_null_manager_never_caches(self):
        func = _main_func()
        am = NullAnalysisManager()
        assert am.cfg(func) is not am.cfg(func)
        assert am.domtree(func) is not am.domtree(func)

    def test_per_function_isolation(self):
        module = compile_source(BRANCHY + "\nint other() { return 3; }")
        am = AnalysisManager()
        main, other = module.functions["main"], module.functions["other"]
        cfg_main = am.cfg(main)
        am.invalidate(other)
        assert am.cfg(main) is cfg_main


class TestInvalidation:
    def test_full_invalidation_drops_everything(self):
        func = _main_func()
        am = AnalysisManager()
        old = am.cfg(func)
        am.invalidate(func)
        assert am.cfg(func) is not old

    def test_preserve_cfg_tier_keeps_graph_analyses(self):
        func = _main_func()
        am = AnalysisManager()
        kept = {kind: getattr(am, kind)(func) for kind in sorted(CFG_ANALYSES)}
        live = am.liveness(func)
        am.invalidate(func, preserve=CFG_ANALYSES)
        for kind, value in kept.items():
            assert getattr(am, kind)(func) is value, kind
        assert am.liveness(func) is not live

    def test_preserving_derived_without_base_raises(self):
        func = _main_func()
        am = AnalysisManager()
        with pytest.raises(ValueError, match="requires preserving 'cfg'"):
            am.invalidate(func, preserve={"loops"})

    def test_unknown_analysis_kind_raises(self):
        func = _main_func()
        am = AnalysisManager()
        with pytest.raises(ValueError, match="unknown"):
            am.invalidate(func, preserve={"cfg", "points_to"})

    def test_kind_sets_are_consistent(self):
        assert CFG_ANALYSES < ALL_ANALYSES
        assert "liveness" in ALL_ANALYSES - CFG_ANALYSES


class TestStaleDetection:
    def test_cfg_checksum_ignores_instruction_inserts(self):
        func = _main_func()
        before = cfg_checksum(func)
        func.entry.insert(0, Boundary())
        assert cfg_checksum(func) == before

    def test_snapshot_checksum_matches_verifier(self):
        # The manager records CFG.structural_checksum() at build time and
        # compares it against cfg_checksum(func) later; they must agree.
        func = _main_func()
        assert CFG(func).structural_checksum() == cfg_checksum(func)

    def test_cfg_checksum_sees_graph_edits(self):
        func = _main_func()
        before = cfg_checksum(func)
        _edit_block_graph(func)
        assert cfg_checksum(func) != before

    def test_mutating_pass_without_invalidate_is_caught(self):
        func = _main_func()
        am = AnalysisManager(debug=True)
        am.cfg(func)
        _edit_block_graph(func)  # mutates the graph, no invalidate
        with pytest.raises(StaleAnalysisError, match="without calling"):
            am.cfg(func)

    def test_check_on_demand(self):
        func = _main_func()
        am = AnalysisManager()  # debug off: hits do not self-check
        am.cfg(func)
        _edit_block_graph(func)
        with pytest.raises(StaleAnalysisError):
            am.check(func)

    def test_invalidate_clears_the_checksum(self):
        func = _main_func()
        am = AnalysisManager(debug=True)
        am.cfg(func)
        _edit_block_graph(func)
        am.invalidate(func)
        am.cfg(func)  # rebuild against the new graph: no error
        am.check(func)

    def test_boundary_insertion_is_not_stale(self):
        func = _main_func()
        am = AnalysisManager(debug=True)
        am.cfg(func)
        func.entry.insert(0, Boundary())
        am.cfg(func)  # still a valid hit
        am.check(func)


_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestCachedVsFresh:
    @_SETTINGS
    @given(source=sources())
    def test_cached_analyses_agree_with_fresh(self, source):
        module = compile_source(source)
        am = AnalysisManager(debug=True)
        for func in module.defined_functions:
            cached_cfg, fresh_cfg = am.cfg(func), CFG(func)
            assert [b.name for b in cached_cfg.reverse_post_order] == [
                b.name for b in fresh_cfg.reverse_post_order
            ]
            cached_dt = am.domtree(func)
            fresh_dt = DominatorTree.compute_from_cfg(fresh_cfg)
            assert {
                b.name: (p.name if p else None)
                for b, p in cached_dt.idom.items()
            } == {
                b.name: (p.name if p else None)
                for b, p in fresh_dt.idom.items()
            }
            assert {
                b.name: sorted(x.name for x in fs)
                for b, fs in am.frontiers(func).items()
            } == {
                b.name: sorted(x.name for x in fs)
                for b, fs in compute_dominance_frontiers(fresh_dt).items()
            }
            assert sorted(
                lp.header.name for lp in am.loops(func).loops
            ) == sorted(lp.header.name for lp in LoopInfo(func).loops)

    @_SETTINGS
    @given(source=sources())
    def test_pipeline_output_bit_identical_with_and_without_cache(self, source):
        cached = compile_minic(source, idempotent=True, analysis_cache=True)
        fresh = compile_minic(source, idempotent=True, analysis_cache=False)
        assert format_module(cached.module) == format_module(fresh.module)


class TestWorkloadBitIdentity:
    """The acceptance check on real workloads (fast subset)."""

    def test_fast_subset_bit_identical(self):
        from repro.bench.runner import FAST_SUBSET
        from repro.workloads import all_workloads

        for workload in all_workloads():
            if workload.name not in FAST_SUBSET:
                continue
            cached = compile_minic(
                workload.source, idempotent=True,
                name=workload.name, analysis_cache=True,
            )
            fresh = compile_minic(
                workload.source, idempotent=True,
                name=workload.name, analysis_cache=False,
            )
            assert format_module(cached.module) == format_module(fresh.module), (
                workload.name
            )
