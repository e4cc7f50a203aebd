"""Kernel/legacy equivalence: the packed-bitset analyses must be
bit-identical to the pre-rewrite implementations.

The corpus is ``repro.fuzz.generator.sources()`` (deterministic seeds,
so a divergence reported by CI reproduces locally verbatim) plus
hand-built edge-case CFGs: single block, unreachable blocks, and an
irreducible loop.  References live in ``tests/frozen_kernels.py`` —
the original implementations, frozen verbatim when the kernels landed
(see ``docs/kernels.md``).
"""

import doctest

import pytest

from repro.analysis import (
    AntiDepAnalysis,
    BlockReachability,
    CFG,
    DominatorTree,
    Liveness,
    compute_dominance_frontiers,
)
from repro.core.construction import ConstructionConfig, construct_idempotent_regions
from repro.core.verify import BoundarySegments
from repro.frontend import compile_source
from repro.fuzz.generator import sources
from repro.ir.instructions import Boundary
from repro.ir.parser import parse_module
from tests import frozen_kernels
from tests.frozen_kernels import (
    reference_dominates,
    reference_frontiers,
    reference_liveness,
    reference_reaches,
)

CORPUS_SIZE = 12

EDGE_CASES = {
    "single-block": """
func @single(%a: int) -> int {
entry:
  %x = add %a, 1
  ret %x
}
""",
    "unreachable-block": """
func @unreach(%a: int) -> int {
entry:
  jmp exit
dead:
  %y = add %a, 2
  jmp exit
dead2:
  jmp dead
exit:
  ret %a
}
""",
    "irreducible-loop": """
func @irr(%c: int) -> int {
entry:
  %t = icmp gt %c, 0
  br %t, left, right
left:
  %t2 = icmp gt %c, 10
  br %t2, right, out
right:
  %t3 = icmp gt %c, 20
  br %t3, left, out
out:
  ret %c
}
""",
}


def corpus_functions():
    """(label, function) pairs: fuzz corpus plus edge-case CFGs."""
    pairs = []
    for seed, source in enumerate(sources(CORPUS_SIZE)):
        module = compile_source(source, name=f"fuzz{seed}")
        for func in module.functions.values():
            pairs.append((f"seed{seed}:{func.name}", func))
    for label, ir_text in EDGE_CASES.items():
        module = parse_module(ir_text)
        for func in module.functions.values():
            pairs.append((label, func))
    return pairs


CORPUS = corpus_functions()
PARAMS = [pytest.param(func, id=label) for label, func in CORPUS]


class _LegacyReach:
    """The old one-DFS-per-source BlockReachability, as an injectable."""

    def __init__(self, cfg):
        self.cfg = cfg

    def reaches(self, a, b):
        return reference_reaches(self.cfg, a, b)


def _legacy_boundary_free_path_exists(func, a, b):
    """The old per-antidep instruction-level DFS from ``core.verify``."""
    block_a = a.parent
    start_index = block_a.instructions.index(a) + 1
    seen = set()
    stack = [(block_a, start_index)]
    while stack:
        block, start = stack.pop()
        key = (id(block), start)
        if key in seen:
            continue
        seen.add(key)
        instructions = block.instructions
        blocked = False
        for i in range(start, len(instructions)):
            inst = instructions[i]
            if inst is b:
                return True
            if isinstance(inst, Boundary):
                blocked = True
                break
        if not blocked:
            for succ in block.successors:
                stack.append((succ, 0))
    return False


@pytest.mark.parametrize("func", PARAMS)
def test_liveness_matches_reference(func):
    lv = Liveness(func)
    ref_in, ref_out = reference_liveness(func)
    assert lv.live_in == ref_in
    assert lv.live_out == ref_out


@pytest.mark.parametrize("func", PARAMS)
def test_frontiers_match_reference(func):
    dt = DominatorTree.compute(func)
    assert compute_dominance_frontiers(dt) == reference_frontiers(dt)


@pytest.mark.parametrize("func", PARAMS)
def test_reachability_matches_reference(func):
    cfg = CFG(func)
    reach = BlockReachability(cfg)
    for a in cfg.blocks:
        for b in cfg.blocks:
            assert reach.reaches(a, b) == reference_reaches(cfg, a, b), (
                f"reaches({a.name}, {b.name}) diverged"
            )


@pytest.mark.parametrize("func", PARAMS)
def test_dominance_matches_reference(func):
    dt = DominatorTree.compute(func)
    for a in dt.cfg.blocks:
        for b in dt.cfg.blocks:
            assert dt.dominates(a, b) == reference_dominates(dt, a, b), (
                f"dominates({a.name}, {b.name}) diverged"
            )


def _antidep_key(ad):
    return (id(ad.read), id(ad.write), ad.storage, ad.is_clobber)


@pytest.mark.parametrize("func", PARAMS)
def test_antideps_match_legacy_reachability(func):
    """The antidep list and every candidate cut set are unchanged when
    the bitset reachability is swapped for the legacy DFS."""
    current = AntiDepAnalysis(func)
    legacy = AntiDepAnalysis(func, reach=_LegacyReach(CFG(func)))
    assert [_antidep_key(ad) for ad in current.antideps] == [
        _antidep_key(ad) for ad in legacy.antideps
    ]
    for cur_ad, leg_ad in zip(current.antideps, legacy.antideps):
        assert current.candidate_cuts(cur_ad) == legacy.candidate_cuts(leg_ad)


@pytest.mark.parametrize("func", PARAMS)
def test_boundary_segments_match_legacy_dfs(func):
    """After region construction, the boundary-segment closure answers
    every (read, write) query exactly like the old per-pair DFS."""
    construct_idempotent_regions(func, config=ConstructionConfig())
    analysis = AntiDepAnalysis(func)
    segments = BoundarySegments(func)
    for ad in analysis.antideps:
        assert segments.boundary_free_path_exists(
            ad.read, ad.write
        ) == _legacy_boundary_free_path_exists(func, ad.read, ad.write)


def test_reference_doctest():
    results = doctest.testmod(frozen_kernels, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0
