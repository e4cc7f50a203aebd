"""Dynamic idempotent-path limit study (paper §3, Fig. 4).

Measures, on a conventionally compiled ("original") binary, the lengths of
dynamic instruction sequences between *clobber antidependences* — a write
to a location that the current path has read before writing. Three
categories, as in the paper:

- ``semantic`` — only non-stack memory locations are tracked, and paths
  run across function boundaries (the inter-procedural limit; the paper
  optimistically ignores calling-convention antidependences, which our
  register-free tracking does implicitly);
- ``semantic_calls`` — same, but paths also end at call/return boundaries
  (the intra-procedural limit the constructed regions are compared to);
- ``artificial`` — additionally tracks registers and stack memory, with
  call boundaries (what a conventional compiler's code actually allows).

Paper result: geomeans of ≈1300 / ≈110 / ≈10.8 instructions respectively —
artificial clobbers shrink idempotent paths by ~10×.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.codegen.machine import MachineInstr, MachineProgram
from repro.interp.memory import STACK_BASE
from repro.sim.simulator import Simulator

CATEGORY_SEMANTIC = "semantic"
CATEGORY_SEMANTIC_CALLS = "semantic_calls"
CATEGORY_ARTIFICIAL = "artificial"
CATEGORIES = (CATEGORY_SEMANTIC, CATEGORY_SEMANTIC_CALLS, CATEGORY_ARTIFICIAL)


@dataclass
class PathStats:
    """Histogram of dynamic idempotent path lengths."""

    lengths: Dict[int, int] = field(default_factory=dict)
    open_path_length: int = 0

    def record(self, length: int) -> None:
        if length > 0:
            self.lengths[length] = self.lengths.get(length, 0) + 1

    @property
    def count(self) -> int:
        return sum(self.lengths.values())

    @property
    def total_instructions(self) -> int:
        return sum(length * n for length, n in self.lengths.items())

    @property
    def average(self) -> float:
        return self.total_instructions / self.count if self.count else 0.0

    def weighted_cdf(self) -> List[Tuple[int, float]]:
        """(length, fraction of execution time in paths ≤ length) points."""
        total = self.total_instructions
        if total == 0:
            return []
        acc = 0
        points = []
        for length in sorted(self.lengths):
            acc += length * self.lengths[length]
            points.append((length, acc / total))
        return points


class _ClobberTracker:
    """Per-category dynamic clobber-antidependence detector."""

    def __init__(self, track_registers: bool, track_stack: bool, split_at_calls: bool) -> None:
        self.track_registers = track_registers
        self.track_stack = track_stack
        self.split_at_calls = split_at_calls
        self.stats = PathStats()
        self._read: Set = set()
        self._written: Set = set()
        self._length = 0

    def _end_path(self) -> None:
        self.stats.record(self._length)
        self._read.clear()
        self._written.clear()
        self._length = 0

    def _on_read(self, loc) -> None:
        if loc not in self._written:
            self._read.add(loc)

    def _on_write(self, loc) -> bool:
        """Returns True if this write clobbers a path input."""
        if loc in self._read and loc not in self._written:
            return True
        self._written.add(loc)
        return False

    def step(self, sim: Simulator, instr: MachineInstr) -> None:
        opcode = instr.opcode
        self._length += 1

        if self.split_at_calls and opcode in ("call", "callb", "ret"):
            self._end_path()
            return

        clobbered = False
        # Register effects.
        if self.track_registers:
            for src in instr.srcs:
                self._on_read(("reg", src.rclass, src.index))
            if instr.dst is not None:
                if self._on_write(("reg", instr.dst.rclass, instr.dst.index)):
                    clobbered = True

        # Memory effects. Addresses are resolved against live state
        # *before* the instruction executes.
        frame = sim.frames[-1] if sim.frames else None
        if opcode == "ld":
            addr = sim.get_reg(instr.srcs[0])
            self._track_mem_read(addr)
        elif opcode == "ldslot" and frame is not None:
            self._track_mem_read(frame.base + instr.imm)
        elif opcode == "st":
            addr = sim.get_reg(instr.srcs[1])
            if self._track_mem_write(addr):
                clobbered = True
        elif opcode == "stslot" and frame is not None:
            if self._track_mem_write(frame.base + instr.imm):
                clobbered = True

        if clobbered:
            # The clobbering write starts the next path (cut before it).
            self._length -= 1
            self._end_path()
            self._length = 1
            if self.track_registers and instr.dst is not None:
                self._written.add(("reg", instr.dst.rclass, instr.dst.index))
            if opcode == "st":
                self._written.add(("mem", sim.get_reg(instr.srcs[1])))
            elif opcode == "stslot" and frame is not None:
                self._written.add(("mem", frame.base + instr.imm))

    def _is_tracked_addr(self, addr: int) -> bool:
        if addr >= STACK_BASE:
            return self.track_stack
        return True

    def _track_mem_read(self, addr: int) -> None:
        if self._is_tracked_addr(addr):
            self._on_read(("mem", addr))

    def _track_mem_write(self, addr: int) -> bool:
        if self._is_tracked_addr(addr):
            return self._on_write(("mem", addr))
        return False

    def finish(self) -> PathStats:
        self._end_path()
        return self.stats


def run_limit_study(
    program: MachineProgram,
    func: str = "main",
    args: Tuple = (),
    max_instructions: int = 20_000_000,
    warmup_fraction: float = 0.2,
) -> Dict[str, PathStats]:
    """Execute and measure all three clobber categories concurrently.

    Like the paper (which fast-forwards 5B instructions past the setup
    phase, §3), measurement starts only after a warmup window — otherwise
    a program's input-initialization stores make everything it later
    touches look write-before-read and hence clobber-free from program
    start. ``warmup_fraction`` of the fault-free dynamic instruction count
    is skipped (a plain counting run determines the total).
    """
    warmup = 0
    if warmup_fraction > 0:
        counting = Simulator(program, max_instructions=max_instructions, timed=False)
        counting.run(func, args)
        warmup = int(counting.instructions * warmup_fraction)

    sim = Simulator(program, max_instructions=max_instructions, timed=False)
    trackers = {
        CATEGORY_SEMANTIC: _ClobberTracker(
            track_registers=False, track_stack=False, split_at_calls=False
        ),
        CATEGORY_SEMANTIC_CALLS: _ClobberTracker(
            track_registers=False, track_stack=False, split_at_calls=True
        ),
        CATEGORY_ARTIFICIAL: _ClobberTracker(
            track_registers=True, track_stack=True, split_at_calls=True
        ),
    }

    def hook(sim_: Simulator, instr: MachineInstr) -> None:
        if sim_.instructions < warmup:
            return
        for tracker in trackers.values():
            tracker.step(sim_, instr)

    sim.pre_hook = hook
    sim.run(func, args)
    return {name: tracker.finish() for name, tracker in trackers.items()}
