"""Dynamic idempotent path tracing on constructed binaries (Figs. 8, 9).

A *path* is the dynamic instruction sequence between consecutive restart
points — ``rcb`` markers, calls, builtin calls, returns, and function
entry. Its length distribution, weighted by execution time, is the
paper's Fig. 8; its average compared against the limit study's
``semantic_calls`` ideal is Fig. 9.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.codegen.machine import MachineInstr, MachineProgram
from repro.sim.limit_study import PathStats
from repro.sim.simulator import Simulator

_BOUNDARY_OPS = frozenset(["rcb", "call", "callb", "ret"])


def trace_paths(
    program: MachineProgram,
    func: str = "main",
    args: Tuple = (),
    max_instructions: int = 20_000_000,
) -> PathStats:
    """Run ``func`` and histogram dynamic path lengths between boundaries.

    Boundary instructions themselves are not counted toward path lengths,
    so the statistic matches the paper's "instructions executed through a
    region" notion rather than our marker overhead.
    """
    sim = Simulator(program, max_instructions=max_instructions, timed=False)
    stats = PathStats()
    state = {"length": 0}

    def hook(sim_: Simulator, instr: MachineInstr) -> None:
        if instr.opcode in _BOUNDARY_OPS:
            stats.record(state["length"])
            state["length"] = 0
        else:
            state["length"] += 1

    sim.pre_hook = hook
    sim.run(func, args)
    stats.record(state["length"])
    return stats


def region_size_summary(stats: PathStats) -> Dict[str, float]:
    """Headline numbers for reports: count, average, p50/p90 by time."""
    cdf = stats.weighted_cdf()

    def percentile(target: float) -> float:
        for length, fraction in cdf:
            if fraction >= target:
                return float(length)
        return float(cdf[-1][0]) if cdf else 0.0

    return {
        "paths": float(stats.count),
        "average": stats.average,
        "p50_time_weighted": percentile(0.5),
        "p90_time_weighted": percentile(0.9),
    }
