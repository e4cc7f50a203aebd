"""White-box tests for register-allocation machinery."""

import pytest

from repro.codegen.machine import (
    CLASS_FLOAT,
    CLASS_INT,
    MachineFunction,
    MachineInstr,
    preg,
    vreg,
)
from repro.codegen.regalloc import (
    Linearized,
    _machine_loop_depths,
    block_liveness,
    build_intervals,
    machine_regions,
    physical_ranges,
)
from repro.codegen import select_module
from repro.frontend import compile_source
from repro.transforms import optimize_module


def _machine_of(source, name="main"):
    module = compile_source(source)
    optimize_module(module)
    return select_module(module).functions[name]


class TestLinearized:
    def test_positions_cover_all(self):
        mfunc = _machine_of("int main() { return 1 + 2; }")
        lin = Linearized(mfunc)
        assert len(lin.instrs) == mfunc.instruction_count()
        for block in mfunc.blocks:
            start = lin.block_start[block.name]
            end = lin.block_end[block.name]
            assert end - start == len(block.instructions)


class TestLoopDepths:
    def test_flat_function(self):
        mfunc = _machine_of("int main() { return 5; }")
        depths = _machine_loop_depths(Linearized(mfunc))
        assert set(depths.values()) == {0}

    def test_single_loop(self):
        mfunc = _machine_of(
            """
int main() {
  int acc = 0;
  for (int i = 0; i < 9; i = i + 1) acc = acc + i;
  return acc;
}
"""
        )
        depths = _machine_loop_depths(Linearized(mfunc))
        assert max(depths.values()) >= 1
        # Entry block stays at depth zero.
        assert depths[mfunc.blocks[0].name] == 0

    def test_nested_loops(self):
        mfunc = _machine_of(
            """
int main() {
  int acc = 0;
  for (int i = 0; i < 4; i = i + 1)
    for (int j = 0; j < 4; j = j + 1)
      acc = acc + i * j;
  return acc;
}
"""
        )
        depths = _machine_loop_depths(Linearized(mfunc))
        assert max(depths.values()) >= 2


class TestIntervals:
    def test_every_vreg_has_interval(self):
        mfunc = _machine_of("int main() { int x = 2; return x * x + 1; }")
        lin = Linearized(mfunc)
        intervals = build_intervals(lin)
        vregs = set()
        for instr in mfunc.instructions():
            for reg in instr.srcs + ([instr.dst] if instr.dst else []):
                if not reg.is_physical:
                    vregs.add(reg)
        assert set(intervals) == vregs

    def test_interval_spans_defs_and_uses(self):
        mfunc = _machine_of("int main() { int x = 2; return x * x + 1; }")
        lin = Linearized(mfunc)
        intervals = build_intervals(lin)
        for i, instr in enumerate(lin.instrs):
            for src in instr.srcs:
                if not src.is_physical:
                    interval = intervals[src]
                    assert interval.start <= i <= interval.end
            if instr.dst is not None and not instr.dst.is_physical:
                interval = intervals[instr.dst]
                assert interval.start <= i <= interval.end

    def test_loop_weight_exceeds_flat_weight(self):
        mfunc = _machine_of(
            """
int g;
int main() {
  int cold = g + 1;
  int acc = 0;
  for (int i = 0; i < 50; i = i + 1) acc = acc + i;
  return acc + cold;
}
"""
        )
        lin = Linearized(mfunc)
        intervals = build_intervals(lin)
        weights = sorted(iv.weight for iv in intervals.values())
        assert weights[-1] > weights[0]  # loop values dominate


class TestPhysicalRanges:
    def test_entry_args_blocked(self):
        mfunc = _machine_of("int f(int a) { return a + 1; }", name="f")
        lin = Linearized(mfunc)
        ranges = physical_ranges(lin)
        assert (CLASS_INT, 0) in ranges
        begin, end = ranges[(CLASS_INT, 0)][0]
        assert begin == -1  # live from function entry

    def test_return_value_blocked(self):
        mfunc = _machine_of("int f() { return 7; }", name="f")
        lin = Linearized(mfunc)
        ranges = physical_ranges(lin)
        assert (CLASS_INT, 0) in ranges  # mov r0 + ret use


class TestMachineRegions:
    def test_region_headers_follow_boundaries(self):
        from repro.compiler import compile_minic

        # Build unallocated machine code with boundaries.
        from repro.core import construct_module_regions

        module = compile_source(
            """
int a[4];
int main() {
  a[0] = a[0] + 1;
  a[0] = a[0] + 2;
  return a[0];
}
"""
        )
        construct_module_regions(module)
        mfunc = select_module(module).functions["main"]
        lin = Linearized(mfunc)
        regions = machine_regions(lin)
        headers = [h for h, _ in regions]
        assert headers[0] == 0
        # Every rcb/call is followed by a header.
        for i, instr in enumerate(lin.instrs):
            if instr.opcode in ("rcb", "call", "callb") and i + 1 < len(lin.instrs):
                assert i + 1 in headers

    def test_members_disjoint_from_next_header_prefix(self):
        mfunc = _machine_of("int main() { return 3; }")
        lin = Linearized(mfunc)
        regions = machine_regions(lin)
        assert len(regions) >= 1
        _, members = regions[0]
        assert 0 in members


class TestRematerialization:
    def _spilly_source(self):
        """Enough simultaneously-live values to force spills, with table
        addresses (ga) among them."""
        n = 16
        decls = "\n".join(f"  int v{i} = t[{i}] + x;" for i in range(n))
        total = " + ".join(f"v{i}" for i in range(n))
        return f"""
int t[{n}];
int f(int x) {{
{decls}
  return {total};
}}
int main() {{
  int i;
  for (i = 0; i < {n}; i = i + 1) t[i] = i * i;
  return f(3);
}}
"""

    def test_remat_replaces_reloads_of_constants(self):
        from repro.compiler import compile_minic
        from repro.sim import Simulator

        source = self._spilly_source()
        build = compile_minic(source, idempotent=True)
        sim = Simulator(build.program)
        result = sim.run("main")
        expected = sum(i * i + 3 for i in range(16))
        assert result == expected
        # Rematerialized defs never write their slot: there must be some
        # ga/movi feeding scratch registers (r12/r13) in the output.
        from repro.codegen.machine import INT_SCRATCH

        scratch_indices = set(INT_SCRATCH)
        remat_like = [
            instr
            for mfunc in build.program.functions.values()
            for instr in mfunc.instructions()
            if instr.opcode in ("ga", "movi", "lea")
            and instr.dst is not None
            and instr.dst.is_physical
            and instr.dst.index in scratch_indices
        ]
        assert remat_like  # rematerialization engaged

    def test_remat_preserves_semantics_under_faults(self):
        from repro.compiler import compile_minic
        from repro.sim import Simulator
        from repro.sim.faults import fault_campaign

        source = self._spilly_source()
        build = compile_minic(source, idempotent=True)
        sim = Simulator(build.program)
        reference = sim.run("main")
        campaign = fault_campaign(build.program, reference, [], trials=15)
        assert campaign.injected > 0
        assert campaign.recovered_correctly == campaign.injected

    def test_multi_def_vregs_not_rematerialized(self):
        """φ-web vregs have several defs; they must keep real slots."""
        from repro.codegen.regalloc import Interval, _remat_defs
        from repro.codegen.machine import (
            CLASS_INT,
            MachineFunction,
            MachineInstr,
        )

        mfunc = MachineFunction("t", 0, 0, returns_float=False, returns_value=False)
        block = mfunc.add_block("entry")
        v = mfunc.new_vreg(CLASS_INT)
        block.append(MachineInstr("movi", dst=v, imm=1))
        block.append(MachineInstr("movi", dst=v, imm=2))
        block.append(MachineInstr("ret"))
        interval = Interval(v, 0, 2)
        interval.slot = 0
        assert _remat_defs(mfunc, {v: interval}) == {}


class TestBlockLiveness:
    def test_dead_value_not_live_out(self):
        mfunc = MachineFunction("t", 0, 0, returns_float=False, returns_value=True)
        b = mfunc.add_block("entry")
        v = mfunc.new_vreg(CLASS_INT)
        w = mfunc.new_vreg(CLASS_INT)
        b.append(MachineInstr("movi", dst=v, imm=1))
        b.append(MachineInstr("movi", dst=w, imm=2))
        b.append(MachineInstr("mov", dst=preg(CLASS_INT, 0), srcs=[w]))
        b.append(MachineInstr("ret"))
        live_in, live_out = block_liveness(Linearized(mfunc))
        assert v not in live_in["entry"]
        assert live_out["entry"] == set()

    def test_loop_liveness_cycles(self):
        mfunc = MachineFunction("t", 0, 0, returns_float=False, returns_value=True)
        entry = mfunc.add_block("entry")
        loop = mfunc.add_block("loop")
        out = mfunc.add_block("out")
        v = mfunc.new_vreg(CLASS_INT)
        c = mfunc.new_vreg(CLASS_INT)
        entry.append(MachineInstr("movi", dst=v, imm=0))
        entry.append(MachineInstr("b", imm="loop"))
        loop.append(MachineInstr("add", dst=v, srcs=[v, v]))
        loop.append(MachineInstr("cmplt", dst=c, srcs=[v, v]))
        loop.append(MachineInstr("bnz", srcs=[c], imm="loop"))
        loop.append(MachineInstr("b", imm="out"))
        out.append(MachineInstr("mov", dst=preg(CLASS_INT, 0), srcs=[v]))
        out.append(MachineInstr("ret"))
        live_in, live_out = block_liveness(Linearized(mfunc))
        assert v in live_in["loop"]
        assert v in live_out["loop"]
