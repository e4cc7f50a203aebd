"""Small-unit coverage: C types, memory, machine datatypes, cost model."""

import pytest

from repro.codegen.machine import (
    CLASS_FLOAT,
    CLASS_INT,
    DEFAULT_LATENCY,
    Frame,
    MachineInstr,
    Reg,
    preg,
    vreg,
)
from repro.frontend.ctypes_ import (
    CArrayType,
    CFLOAT,
    CINT,
    CPtrType,
    CVOID,
    words_of,
)
from repro.interp.memory import (
    GLOBAL_BASE,
    HEAP_BASE,
    Memory,
    MemoryError_,
    STACK_BASE,
)
from repro.sim import CostModel


class TestCTypes:
    def test_equality_and_hash(self):
        assert CPtrType(CINT) == CPtrType(CINT)
        assert CPtrType(CINT) != CPtrType(CFLOAT)
        assert CArrayType(CINT, 4) == CArrayType(CINT, 4)
        assert CArrayType(CINT, 4) != CArrayType(CINT, 5)
        assert len({CPtrType(CINT), CPtrType(CINT)}) == 1

    def test_decay(self):
        assert CArrayType(CFLOAT, 8).decayed() == CPtrType(CFLOAT)
        assert CINT.decayed() == CINT

    def test_words(self):
        assert words_of(CINT) == 1
        assert words_of(CPtrType(CFLOAT)) == 1
        assert words_of(CArrayType(CINT, 7)) == 7
        with pytest.raises(ValueError):
            words_of(CVOID)

    def test_invalid_compositions(self):
        with pytest.raises(ValueError):
            CPtrType(CVOID)
        with pytest.raises(ValueError):
            CArrayType(CPtrType(CINT), 4)
        with pytest.raises(ValueError):
            CArrayType(CINT, 0)

    def test_str(self):
        assert str(CPtrType(CINT)) == "int*"
        assert str(CArrayType(CFLOAT, 3)) == "float[3]"


class TestMemory:
    def test_segment_boundaries(self):
        memory = Memory()
        assert memory.alloc_global(4) == GLOBAL_BASE
        assert memory.alloc_heap(4) == HEAP_BASE
        assert memory.alloc_stack(4) == STACK_BASE

    def test_zero_initialized(self):
        memory = Memory()
        addr = memory.alloc_heap(3)
        assert [memory.load(addr + i) for i in range(3)] == [0, 0, 0]

    def test_counters(self):
        memory = Memory()
        addr = memory.alloc_global(1)
        memory.store(addr, 5)
        memory.load(addr)
        assert memory.store_count == 1 and memory.load_count == 1
        memory.poke(addr, 9)
        memory.peek(addr)
        assert memory.store_count == 1 and memory.load_count == 1

    def test_stack_lifo(self):
        memory = Memory()
        a = memory.alloc_stack(2)
        b = memory.alloc_stack(2)
        assert b == a + 2
        memory.free_stack(b)
        assert memory.alloc_stack(1) == b  # reuses the freed range

    def test_freed_stack_unmapped(self):
        memory = Memory()
        addr = memory.alloc_stack(1)
        memory.free_stack(addr)
        with pytest.raises(MemoryError_):
            memory.load(addr)

    def test_negative_malloc(self):
        with pytest.raises(MemoryError_):
            Memory().alloc_heap(-1)

    def test_snapshot_is_copy(self):
        memory = Memory()
        addr = memory.alloc_global(1)
        snap = memory.snapshot()
        memory.store(addr, 7)
        assert snap[addr] == 0


class TestMachineDatatypes:
    def test_reg_identity(self):
        assert vreg(CLASS_INT, 3) == vreg(CLASS_INT, 3)
        assert vreg(CLASS_INT, 3) != preg(CLASS_INT, 3)
        assert vreg(CLASS_INT, 3) != vreg(CLASS_FLOAT, 3)
        assert repr(preg(CLASS_INT, 5)) == "r5"
        assert repr(preg(CLASS_FLOAT, 5)) == "f5"

    def test_instr_classification(self):
        assert MachineInstr("add", dst=vreg(CLASS_INT, 0), srcs=[]).is_alu
        assert MachineInstr("ld", dst=vreg(CLASS_INT, 0), srcs=[]).is_memory
        assert MachineInstr("stlog", srcs=[]).is_memory
        assert MachineInstr("bnz", srcs=[]).is_branch
        assert MachineInstr("call", callee="f").is_call
        assert not MachineInstr("rcb").is_alu

    def test_frame_slots(self):
        frame = Frame()
        assert frame.add_slot(2, "arr") == 0
        assert frame.add_slot(1, "x") == 2
        assert frame.size == 3

    def test_every_opcode_has_latency(self):
        # The simulator falls back to 1, but the table should cover the
        # opcodes isel/regalloc/recovery can actually emit.
        emitted = [
            "mov", "fmov", "movi", "fmovi", "ga", "lea", "csel",
            "add", "sub", "mul", "div", "rem", "and", "or", "xor",
            "shl", "shr", "fadd", "fsub", "fmul", "fdiv", "itof", "ftoi",
            "ld", "st", "ldslot", "stslot", "stlog", "advlp",
            "b", "bnz", "ret", "call", "callb", "rcb",
            "cmpeq", "cmpne", "cmplt", "cmple", "cmpgt", "cmpge",
            "fcmpeq", "fcmpne", "fcmplt", "fcmple", "fcmpgt", "fcmpge",
        ]
        for opcode in emitted:
            assert opcode in DEFAULT_LATENCY, opcode


class TestCostModel:
    def test_defaults(self):
        cost = CostModel()
        assert cost.alu_issue_factor == 1
        assert cost.latency["div"] > cost.latency["add"]

    def test_latency_table_is_private_copy(self):
        a = CostModel()
        b = CostModel()
        a.latency["add"] = 99
        assert b.latency["add"] == 1
