"""Flat word-addressed memory for IR interpretation and machine simulation.

Addresses are plain integers; each address holds one Python value (int or
float). Three segments with disjoint address ranges:

- globals:   [GLOBAL_BASE, HEAP_BASE)
- heap:      [HEAP_BASE, STACK_BASE)   — bump-allocated by ``malloc``
- stack:     [STACK_BASE, ∞)           — per-activation frames, grows up

The segment layout lets the dynamic analyses (limit study, §3) classify a
store as stack vs non-stack by address alone, mirroring the paper's
"writes relative to the stack pointer" test.
"""

from __future__ import annotations

from typing import Dict, Optional

GLOBAL_BASE = 0x0000_1000
HEAP_BASE = 0x0100_0000
STACK_BASE = 0x1000_0000

SEGMENT_GLOBAL = "global"
SEGMENT_HEAP = "heap"
SEGMENT_STACK = "stack"


class MemoryError_(RuntimeError):
    """Out-of-segment or uninitialized access (renamed to avoid builtins)."""


class Memory:
    """Word-addressed memory with segment bookkeeping."""

    def __init__(self) -> None:
        self.cells: Dict[int, object] = {}
        self.global_top = GLOBAL_BASE
        self.heap_top = HEAP_BASE
        self.stack_top = STACK_BASE
        self.load_count = 0
        self.store_count = 0
        #: ``[zero_base, zero_end)`` is mapped but holds no cells until
        #: written: an absent address there reads as 0 (see reserve_heap)
        self.zero_base = self.zero_end = HEAP_BASE

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc_global(self, size: int) -> int:
        if self.global_top + size > HEAP_BASE:
            raise MemoryError_("global segment exhausted")
        addr = self.global_top
        self.global_top += size
        for i in range(size):
            self.cells[addr + i] = 0
        return addr

    def alloc_heap(self, size: int) -> int:
        addr = self._bump_heap(size)
        for i in range(size):
            self.cells[addr + i] = 0
        return addr

    def reserve_heap(self, size: int) -> int:
        """Allocate a zero-filled heap block without writing its cells.

        The block gets the address :meth:`alloc_heap` would give it; an
        address in it that was never written reads as 0.  One block at
        most can be reserved.
        """
        addr = self._bump_heap(size)
        self.zero_base, self.zero_end = addr, addr + size
        return addr

    def _bump_heap(self, size: int) -> int:
        if size < 0:
            raise MemoryError_(f"malloc of negative size {size}")
        if self.heap_top + size > STACK_BASE:
            raise MemoryError_("heap exhausted")
        addr = self.heap_top
        self.heap_top += max(size, 1)
        return addr

    def alloc_stack(self, size: int) -> int:
        addr = self.stack_top
        self.stack_top += size
        for i in range(size):
            self.cells[addr + i] = 0
        return addr

    def free_stack(self, addr: int) -> None:
        """Pop the stack back to ``addr`` (frame deallocation)."""
        for a in range(addr, self.stack_top):
            self.cells.pop(a, None)
        self.stack_top = addr

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def load(self, addr: int):
        try:
            value = self.cells[addr]
        except KeyError:
            if not self.zero_base <= addr < self.zero_end:
                raise MemoryError_(f"load from unmapped address {addr:#x}") from None
            value = 0
        self.load_count += 1
        return value

    def store(self, addr: int, value) -> None:
        if addr not in self.cells and not self.zero_base <= addr < self.zero_end:
            raise MemoryError_(f"store to unmapped address {addr:#x}")
        self.cells[addr] = value
        self.store_count += 1

    def peek(self, addr: int):
        """Read without counting (for harnesses/tests); ``KeyError`` if
        ``addr`` is unmapped."""
        try:
            return self.cells[addr]
        except KeyError:
            if not self.zero_base <= addr < self.zero_end:
                raise
            return 0

    def poke(self, addr: int, value) -> None:
        """Write without counting, mapping the cell if needed (test setup)."""
        self.cells[addr] = value

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    @staticmethod
    def segment_of(addr: int) -> str:
        if addr >= STACK_BASE:
            return SEGMENT_STACK
        if addr >= HEAP_BASE:
            return SEGMENT_HEAP
        return SEGMENT_GLOBAL

    def snapshot(self) -> Dict[int, object]:
        return dict(self.cells)
