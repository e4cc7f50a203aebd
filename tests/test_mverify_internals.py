"""White-box tests for the machine-level idempotence oracle."""

import pytest

from repro.codegen.machine import (
    CLASS_FLOAT,
    CLASS_INT,
    MachineFunction,
    MachineInstr,
    preg,
)
from repro.codegen.mverify import (
    _locations,
    _reads_of,
    _region_inputs,
    _writes_of,
    verify_machine_function,
)
from repro.codegen.regalloc import Linearized, machine_regions

R0 = preg(CLASS_INT, 0)
R1 = preg(CLASS_INT, 1)
R2 = preg(CLASS_INT, 2)
F0 = preg(CLASS_FLOAT, 0)


def _mfunc(returns_value=False):
    return MachineFunction(
        "t", int_args=0, float_args=0, returns_float=False, returns_value=returns_value
    )


class TestReadWriteSets:
    def test_alu(self):
        mfunc = _mfunc()
        instr = MachineInstr("add", dst=R0, srcs=[R1, R2])
        assert set(_reads_of(instr, mfunc)) == {("i", 1), ("i", 2)}
        assert _writes_of(instr) == [("i", 0)]

    def test_slots(self):
        mfunc = _mfunc()
        load = MachineInstr("ldslot", dst=R0, imm=3)
        store = MachineInstr("stslot", srcs=[R1], imm=3)
        assert ("slot", 3) in _reads_of(load, mfunc)
        assert ("slot", 3) in _writes_of(store)

    def test_ret_reads_result_register(self):
        mfunc = _mfunc(returns_value=True)
        assert ("i", 0) in _reads_of(MachineInstr("ret"), mfunc)
        void_func = _mfunc(returns_value=False)
        assert ("i", 0) not in _reads_of(MachineInstr("ret"), void_func)


class TestRegionInputs:
    def test_straight_line_inputs(self):
        mfunc = _mfunc()
        block = mfunc.add_block("entry")
        block.append(MachineInstr("mov", dst=R1, srcs=[R0]))  # reads r0
        block.append(MachineInstr("movi", dst=R2, imm=5))
        block.append(MachineInstr("add", dst=R1, srcs=[R1, R2]))
        block.append(MachineInstr("ret"))
        lin = Linearized(mfunc)
        (header, members), = machine_regions(lin)
        inputs, witness = _region_inputs(lin, *_locations(lin), header, members)
        assert ("i", 0) in inputs
        assert ("i", 2) not in inputs  # written before read
        assert witness[("i", 0)] == 0

    def test_branch_merge_definitely_written(self):
        """A location written on only one path stays a potential input."""
        mfunc = _mfunc()
        entry = mfunc.add_block("entry")
        left = mfunc.add_block("left")
        right = mfunc.add_block("right")
        join = mfunc.add_block("join")
        entry.append(MachineInstr("movi", dst=R0, imm=1))
        entry.append(MachineInstr("bnz", srcs=[R0], imm="left"))
        entry.append(MachineInstr("b", imm="right"))
        left.append(MachineInstr("movi", dst=R1, imm=1))   # writes r1
        left.append(MachineInstr("b", imm="join"))
        right.append(MachineInstr("b", imm="join"))        # r1 untouched
        join.append(MachineInstr("mov", dst=R2, srcs=[R1]))  # reads r1
        join.append(MachineInstr("ret"))
        lin = Linearized(mfunc)
        (header, members), = machine_regions(lin)
        inputs, _ = _region_inputs(lin, *_locations(lin), header, members)
        assert ("i", 1) in inputs  # not definitely written on all paths

    def test_written_on_all_paths_not_input(self):
        mfunc = _mfunc()
        entry = mfunc.add_block("entry")
        left = mfunc.add_block("left")
        right = mfunc.add_block("right")
        join = mfunc.add_block("join")
        entry.append(MachineInstr("movi", dst=R0, imm=1))
        entry.append(MachineInstr("bnz", srcs=[R0], imm="left"))
        entry.append(MachineInstr("b", imm="right"))
        left.append(MachineInstr("movi", dst=R1, imm=1))
        left.append(MachineInstr("b", imm="join"))
        right.append(MachineInstr("movi", dst=R1, imm=2))
        right.append(MachineInstr("b", imm="join"))
        join.append(MachineInstr("mov", dst=R2, srcs=[R1]))
        join.append(MachineInstr("ret"))
        lin = Linearized(mfunc)
        (header, members), = machine_regions(lin)
        inputs, _ = _region_inputs(lin, *_locations(lin), header, members)
        assert ("i", 1) not in inputs


class TestVerifier:
    def test_float_register_clobber_detected(self):
        mfunc = MachineFunction(
            "t", int_args=0, float_args=1, returns_float=True, returns_value=True
        )
        block = mfunc.add_block("entry")
        f1 = preg(CLASS_FLOAT, 1)
        block.append(MachineInstr("fmov", dst=f1, srcs=[F0]))   # read f0
        block.append(MachineInstr("fmovi", dst=F0, imm=0.0))    # clobber f0
        block.append(MachineInstr("ret"))
        violations = verify_machine_function(mfunc)
        assert any(v.loc == (CLASS_FLOAT, 0) for v in violations)

    def test_ender_write_belongs_to_next_window(self):
        """A call's r0 write must not be charged to the region it ends."""
        mfunc = _mfunc(returns_value=True)
        block = mfunc.add_block("entry")
        block.append(MachineInstr("mov", dst=R1, srcs=[R0]))  # r0 is an input
        block.append(MachineInstr("callb", callee="abs", srcs=[R0]))
        block.append(MachineInstr("ret"))
        # callb writes r0, but as a region ender; no violation in window 1.
        assert verify_machine_function(mfunc) == []

    def test_violation_repr_is_informative(self):
        mfunc = _mfunc(returns_value=True)
        block = mfunc.add_block("entry")
        block.append(MachineInstr("mov", dst=R1, srcs=[R0]))
        block.append(MachineInstr("movi", dst=R0, imm=1))
        block.append(MachineInstr("ret"))
        violations = verify_machine_function(mfunc)
        assert violations
        text = repr(violations[0])
        assert "region@0" in text and "read@0" in text
