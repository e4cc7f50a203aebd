"""Standard optimization pipeline driven before region construction.

Order follows paper §4.1: SSA conversion first (mem2reg), then elimination
of non-clobber memory antidependences (store-to-load forwarding), plus
routine cleanups (unreachable code removal, DCE).

Each pass runs under a ``transforms.<pass>`` span and publishes its
statistic to the :mod:`repro.obs` metrics registry as
``transforms.<stat>{func=...}``, so pass productivity is visible in
``repro stats`` even for the many callers that ignore the returned
dict.  The dict itself is still returned for direct inspection.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro import obs
from repro.analysis.cfg import remove_unreachable_blocks
from repro.analysis.manager import AnalysisManager, CFG_ANALYSES
from repro.ir.function import Function
from repro.ir.module import Module
from repro.transforms.dce import eliminate_dead_code
from repro.transforms.mem2reg import promote_to_ssa
from repro.transforms.redundancy import forward_stores_to_loads

#: What a pass declares about the CFG tier (cfg/domtree/frontiers/loops/
#: reachability — see :data:`repro.analysis.manager.CFG_ANALYSES`):
#: ``"always"`` — the pass edits instructions only, never blocks or
#: terminators; ``"if_zero"`` — it preserves the tier only when it
#: reports zero changes (unreachable-block removal).  Liveness depends
#: on instructions too, so it never survives a productive pass.
_PRESERVES_CFG = "always"
_PRESERVES_CFG_IF_ZERO = "if_zero"

#: The pipeline: (stat name, pass callable, CFG declaration, accepts the
#: analysis manager), in execution order.
_PASSES = (
    ("unreachable_blocks", remove_unreachable_blocks, _PRESERVES_CFG_IF_ZERO, True),
    ("promoted_allocas", promote_to_ssa, _PRESERVES_CFG, True),
    ("forwarded_loads", forward_stores_to_loads, _PRESERVES_CFG, True),
    ("dead_instructions", eliminate_dead_code, _PRESERVES_CFG, False),
)


def publish_pass_stats(func_name: str, stats: Dict[str, int]) -> None:
    """Feed one function's pass-stat dict into the metrics registry."""
    for stat, value in stats.items():
        if value:
            obs.counter(f"transforms.{stat}").inc(value, func=func_name)


def optimize_function(
    func: Function, am: Optional[AnalysisManager] = None
) -> Dict[str, int]:
    """Run the standard pipeline on one function; returns pass statistics.

    The pipeline is the paper's (§4.1): SSA + redundancy elimination +
    cleanups.  With ``am``, passes share the manager's cached
    CFG/dominator/frontier snapshots and each pass's declared
    preservation (see the pipeline table above) drives
    :meth:`AnalysisManager.invalidate` after it runs; a pass reporting
    zero changes left the function untouched and invalidates nothing.
    """
    if func.is_declaration:
        return {}
    stats: Dict[str, int] = {}
    for stat, run_pass, cfg_decl, takes_am in _PASSES:
        with obs.span(f"transforms.{stat}", func=func.name):
            if takes_am and am is not None:
                changed = run_pass(func, am=am)
            else:
                changed = run_pass(func)
        stats[stat] = changed
        if am is not None and changed:
            preserved = cfg_decl == _PRESERVES_CFG
            am.invalidate(func, preserve=CFG_ANALYSES if preserved else ())
    publish_pass_stats(func.name, stats)
    return stats


def optimize_module(
    module: Module, am: Optional[AnalysisManager] = None
) -> Dict[str, Dict[str, int]]:
    """Run the standard pipeline on every defined function."""
    return {
        func.name: optimize_function(func, am=am)
        for func in module.defined_functions
    }
