"""Machine simulator tests: semantics, store buffer, rp tracking, timing."""

import pytest

from repro.codegen.machine import MachineInstr, preg, CLASS_INT
from repro.compiler import compile_minic
from repro.frontend import compile_source
from repro.interp import run_module
from repro.ir import parse_module
from repro.sim import CostModel, SimLimitExceeded, Simulator
from repro.sim.simulator import Location
from tests.helpers import MINIC_QUICK


def build(source, idempotent=True):
    return compile_minic(source, idempotent=idempotent).program


class TestExecution:
    def test_differential_vs_interpreter(self):
        ref, ref_out = run_module(compile_source(MINIC_QUICK))
        for idem in (False, True):
            sim = Simulator(build(MINIC_QUICK, idem))
            assert sim.run("main") == ref
            assert sim.output == ref_out

    def test_arguments_passed_through_registers(self):
        source = "int f(int a, int b) { return a * 10 + b; }"
        sim = Simulator(build(source))
        assert sim.run("f", (4, 2)) == 42

    def test_float_arguments(self):
        source = "float f(float a, float b) { return a / b; }"
        sim = Simulator(build(source))
        assert sim.run("f", (1.0, 4.0)) == 0.25

    def test_mixed_arguments(self):
        source = "float f(int n, float x) { return x * (float) n; }"
        sim = Simulator(build(source))
        assert sim.run("f", (3, 1.5)) == 4.5

    def test_instruction_limit(self):
        source = "int main() { while (1) {} return 0; }"
        sim = Simulator(build(source, idempotent=False), max_instructions=5000)
        with pytest.raises(SimLimitExceeded):
            sim.run("main")

    def test_unknown_function(self):
        sim = Simulator(build("int main() { return 0; }"))
        from repro.sim import SimulationError

        with pytest.raises(SimulationError):
            sim.run("nope")


class TestStoreBuffer:
    def test_loads_snoop_buffer(self):
        sim = Simulator(build("int main() { return 0; }"))
        sim.mem_store(0x5000, 99)
        # Unflushed store must be visible to a subsequent load.
        sim.memory.poke(0x5000, 0)
        assert sim.mem_load(0x5000) == 99

    def test_flush_commits(self):
        sim = Simulator(build("int main() { return 0; }"))
        sim.memory.poke(0x5000, 0)
        sim.mem_store(0x5000, 7)
        sim.flush_store_buffer()
        assert sim.memory.peek(0x5000) == 7
        assert sim.store_buffer == []

    def test_discard_drops_unverified(self):
        sim = Simulator(build("int main() { return 0; }"))
        sim.memory.poke(0x5000, 1)
        sim.mem_store(0x5000, 2)
        dropped = sim.discard_store_buffer()
        assert dropped == 1
        assert sim.memory.peek(0x5000) == 1

    def test_newest_entry_wins(self):
        sim = Simulator(build("int main() { return 0; }"))
        sim.mem_store(0x5000, 1)
        sim.mem_store(0x5000, 2)
        assert sim.mem_load(0x5000) == 2


class TestRestartPointer:
    def test_rp_advances_at_boundaries(self):
        program = build(MINIC_QUICK, idempotent=True)
        sim = Simulator(program)
        rp_values = []
        sim.post_hook = lambda s, i: rp_values.append(s.rp) if i.opcode == "rcb" else None
        sim.run("main")
        assert rp_values
        depths = {depth for depth, _ in rp_values}
        assert depths  # rp carries the frame depth

    def test_recover_to_rp_without_rp_raises(self):
        from repro.sim import SimulationError

        sim = Simulator(build("int main() { return 0; }"))
        with pytest.raises(SimulationError):
            sim.recover_to_rp()

    def test_recover_discards_buffer(self):
        sim = Simulator(build("int main() { return 0; }"))
        sim.rp = (0, Location("main", 0, 0))
        sim.frames = []
        sim.mem_store(0x5000, 1)
        sim.memory.poke(0x5000, 0)
        sim.recover_to_rp()
        assert sim.store_buffer == []


class TestTiming:
    def test_cycles_positive_and_bounded(self):
        sim = Simulator(build(MINIC_QUICK, idempotent=False))
        sim.run("main")
        assert 0 < sim.cycles
        # Two-issue: cycles >= instructions / 2 (ignoring latency credits).
        assert sim.cycles >= sim.instructions / 2 - 1

    def test_dependent_chain_slower_than_independent(self):
        dependent = """
int main() {
  int x = 1;
  int i;
  for (i = 0; i < 100; i = i + 1) { x = x * 3; x = x * 5; x = x * 7; }
  return x;
}
"""
        independent = """
int main() {
  int a = 1; int b = 1; int c = 1;
  int i;
  for (i = 0; i < 100; i = i + 1) { a = a * 3; b = b * 5; c = c * 7; }
  return a + b + c;
}
"""
        sim_dep = Simulator(build(dependent, idempotent=False))
        sim_dep.run("main")
        sim_ind = Simulator(build(independent, idempotent=False))
        sim_ind.run("main")
        # Same mul count; the dependent chain must cost more per instr.
        dep_cpi = sim_dep.cycles / sim_dep.instructions
        ind_cpi = sim_ind.cycles / sim_ind.instructions
        assert dep_cpi > ind_cpi

    def test_cost_model_multipliers_increase_cycles(self):
        program = build(MINIC_QUICK, idempotent=False)
        base = Simulator(program)
        base.run("main")
        dmr = Simulator(program, cost_model=CostModel(alu_issue_factor=2,
                                                      check_ops_per_load=1,
                                                      check_ops_per_store=1,
                                                      check_ops_per_branch=1))
        dmr.run("main")
        tmr = Simulator(program, cost_model=CostModel(alu_issue_factor=3,
                                                      check_ops_per_load=1,
                                                      check_ops_per_store=1,
                                                      check_ops_per_branch=1))
        tmr.run("main")
        assert base.cycles < dmr.cycles < tmr.cycles
        assert base.instructions == dmr.instructions == tmr.instructions

    def test_loads_cost_more_than_moves(self):
        loads = """
int g[4];
int main() {
  int acc = 0;
  int i;
  for (i = 0; i < 200; i = i + 1) acc = acc + g[i % 4];
  return acc;
}
"""
        sim = Simulator(build(loads, idempotent=False))
        sim.run("main")
        assert sim.cycles > 0  # smoke: latency model engaged


class TestGlobalsLayout:
    def test_global_initializers_visible(self):
        source = """
int table[3] = {7, 8, 9};
int main() { return table[0] + table[2]; }
"""
        sim = Simulator(build(source, idempotent=False))
        assert sim.run("main") == 16

    def test_frame_slots_are_stack_memory(self):
        source = """
int f(int x) {
  int buf[4];
  buf[x] = 42;
  return buf[x];
}
int main() { return f(2); }
"""
        sim = Simulator(build(source, idempotent=False))
        assert sim.run("main") == 42
