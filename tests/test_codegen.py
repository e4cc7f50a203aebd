"""Code generation tests: isel, register allocation, machine verification.

Ground truth throughout is the IR interpreter: machine code must compute
the same results through the simulator.
"""

import pytest

from repro.codegen import (
    CLASS_FLOAT,
    CLASS_INT,
    MachineInstr,
    format_machine_function,
    select_module,
    allocate_program,
    verify_machine_function,
    verify_machine_program,
)
from repro.codegen.machine import (
    FLOAT_SCRATCH,
    INT_ALLOCATABLE,
    INT_SCRATCH,
    MachineBlock,
    MachineFunction,
    preg,
    vreg,
)
from repro.codegen.regalloc import (
    Linearized,
    build_intervals,
    block_liveness,
    machine_regions,
)
from repro.compiler import CompilationError, compile_ir_module, compile_minic
from repro.core import construct_module_regions
from repro.interp import run_module
from repro.ir import parse_module
from repro.sim import Simulator
from repro.transforms import optimize_module
from tests.helpers import LIST_PUSH_IR, MINIC_QUICK, SCALE_IR, SUM_IR


def compile_and_run(source, idempotent, func="main", args=()):
    result = compile_minic(source, idempotent=idempotent)
    sim = Simulator(result.program)
    value = sim.run(func, args)
    return value, sim


class TestISel:
    def test_every_vreg_is_physical_after_ra(self):
        result = compile_minic(MINIC_QUICK, idempotent=True)
        for mfunc in result.program.functions.values():
            for instr in mfunc.instructions():
                for reg in instr.srcs + ([instr.dst] if instr.dst else []):
                    assert reg.is_physical, f"{mfunc.name}: {instr!r}"

    def test_phi_swap_cycle(self):
        """Parallel copies with a swap must go through a temporary."""
        source = """
func @swap(%n: int) -> int {
entry:
  jmp loop
loop:
  %a = phi int [1, entry], [%b, loop]
  %b = phi int [2, entry], [%a, loop]
  %i = phi int [0, entry], [%i2, loop]
  %i2 = add %i, 1
  %done = icmp ge %i2, %n
  br %done, out, loop
out:
  %r = mul %a, 10
  %r2 = add %r, %b
  ret %r2
}
"""
        module = parse_module(source)
        expected3 = run_module(parse_module(source), "swap") if False else None
        result = compile_ir_module(module, idempotent=False)
        for trips, expected in ((1, 12), (2, 21), (3, 12)):
            sim = Simulator(result.program)
            assert sim.run("swap", (trips,)) == expected

    def test_phi_of_phi_copy_group_is_idempotent(self):
        """Regression: a φ whose incoming value is another φ makes the
        latch copy group read a register it also writes. The group must
        hoist the overlapped source into a temp *above* the boundary or
        re-execution reads a clobbered input (caught by the machine
        oracle and by fault injection)."""
        source = """
int buf[8];
int main() {
  int prev = 0;
  int cur = 1;
  int acc = 0;
  for (int i = 0; i < 12; i = i + 1) {
    buf[i % 8] = buf[i % 8] + cur;   // memory cuts inside the loop
    int next = prev + cur;           // prev = phi-of-phi of cur
    prev = cur;
    cur = next;
    acc = acc + prev;
  }
  return acc + cur;
}
"""
        from repro.frontend import compile_source
        from repro.sim.faults import FaultPlan, run_with_fault

        ref, _ = run_module(compile_source(source))
        build = compile_minic(source, idempotent=True)  # oracle runs inside
        sim = Simulator(build.program)
        assert sim.run("main") == ref
        # Faults at every region of the hot loop must recover exactly.
        for target in range(20, min(sim.instructions, 400), 13):
            outcome = run_with_fault(build.program, FaultPlan(target))
            if outcome.injected:
                assert outcome.result == ref, target

    def test_boundary_lowered_to_rcb(self):
        module = parse_module(LIST_PUSH_IR)
        construct_module_regions(module)
        result = compile_ir_module(module, idempotent=True)
        mfunc = result.program.functions["list_push"]
        assert any(i.opcode == "rcb" for i in mfunc.instructions())

    def test_original_binary_has_no_rcb(self):
        result = compile_minic(MINIC_QUICK, idempotent=False)
        for mfunc in result.program.functions.values():
            assert not any(i.opcode == "rcb" for i in mfunc.instructions())

    def test_calls_use_argument_registers(self):
        source = """
func @callee(%a: int, %b: int) -> int {
entry:
  %s = add %a, %b
  ret %s
}

func @main() -> int {
entry:
  %r = call int @callee(30, 12)
  ret %r
}
"""
        module = parse_module(source)
        result = compile_ir_module(module, idempotent=False)
        sim = Simulator(result.program)
        assert sim.run("main") == 42

    def test_float_calling_convention(self):
        source = """
func @fmix(%a: float, %b: float, %n: int) -> float {
entry:
  %m = fmul %a, %b
  %i = itof %n
  %r = fadd %m, %i
  ret %r
}

func @main() -> float {
entry:
  %r = call float @fmix(2.0, 3.0, 4)
  ret %r
}
"""
        module = parse_module(source)
        result = compile_ir_module(module, idempotent=False)
        sim = Simulator(result.program)
        assert sim.run("main") == pytest.approx(10.0)

    def test_too_many_args_rejected(self):
        params = ", ".join(f"%a{i}: int" for i in range(6))
        source = f"""
func @f({params}) -> int {{
entry:
  ret %a0
}}
"""
        from repro.codegen.isel import ISelError

        module = parse_module(source)
        with pytest.raises(ISelError):
            select_module(module)


class TestRegAlloc:
    def test_spills_under_pressure(self):
        """More live values than registers forces spill code."""
        n = 20
        lines = [f"  %v{i} = add %x, {i}" for i in range(n)]
        adds = []
        prev = "%v0"
        for i in range(1, n):
            adds.append(f"  %s{i} = add {'%s' + str(i - 1) if i > 1 else prev}, %v{i}")
        source = (
            "func @f(%x: int) -> int {\nentry:\n"
            + "\n".join(lines)
            + "\n"
            + "\n".join(adds)
            + f"\n  ret %s{n - 1}\n}}\n"
        )
        module = parse_module(source)
        result = compile_ir_module(module, idempotent=False)
        stats = result.alloc_stats["f"]
        assert stats.spilled > 0
        sim = Simulator(result.program)
        assert sim.run("f", (100,)) == sum(100 + i for i in range(n)) - 100 + 100

    def test_spill_code_correctness(self):
        n = 16
        decls = "\n".join(f"  int v{i} = x + {i};" for i in range(n))
        total = " + ".join(f"v{i}" for i in range(n))
        source = f"""
int f(int x) {{
  {decls}
  return {total};
}}
int main() {{ return f(10); }}
"""
        expected = sum(10 + i for i in range(n))
        for idem in (False, True):
            value, _ = compile_and_run(source, idem)
            assert value == expected

    def test_call_crossing_values_spilled(self):
        source = """
int g = 5;
int id(int x) { return x; }
int main() {
  int a = g * 3;
  int b = id(7);
  return a + b;   // a is computed before and used after the call
}
"""
        result = compile_minic(source, idempotent=False)
        assert result.alloc_stats["main"].spilled >= 1
        sim = Simulator(result.program)
        assert sim.run("main") == 22

    def test_idempotent_mode_extends_intervals(self):
        module = parse_module(LIST_PUSH_IR)
        construct_module_regions(module)
        result = compile_ir_module(module, idempotent=True)
        assert result.alloc_stats["list_push"].extended > 0

    def test_machine_regions_cover_function(self):
        result = compile_minic(MINIC_QUICK, idempotent=True)
        for mfunc in result.program.functions.values():
            lin = Linearized(mfunc)
            covered = set()
            for _, members in machine_regions(lin):
                covered |= members
            assert covered == set(range(len(lin.instrs)))

    def test_block_liveness_loop(self):
        module = parse_module(SCALE_IR)
        optimize_module(module)
        program = select_module(module)
        mfunc = program.functions["scale"]
        live_in, live_out = block_liveness(Linearized(mfunc))
        loop_block = next(b for b in mfunc.blocks if "loop" in b.name)
        assert live_in[loop_block.name]  # the φ web is live around the loop


class TestMachineVerifier:
    def test_clean_on_compiled_idempotent(self):
        result = compile_minic(MINIC_QUICK, idempotent=True)
        assert verify_machine_program(result.program) == []

    def test_detects_clobbered_input(self):
        mfunc = MachineFunction("bad", int_args=1, float_args=0,
                                returns_float=False, returns_value=True)
        block = mfunc.add_block("entry")
        r0 = preg(CLASS_INT, 0)
        r1 = preg(CLASS_INT, 1)
        block.append(MachineInstr("mov", dst=r1, srcs=[r0]))   # read r0
        block.append(MachineInstr("movi", dst=r0, imm=7))      # clobber r0
        block.append(MachineInstr("ret"))
        violations = verify_machine_function(mfunc)
        assert any(v.loc == (CLASS_INT, 0) for v in violations)

    def test_write_before_read_is_fine(self):
        mfunc = MachineFunction("good", int_args=0, float_args=0,
                                returns_float=False, returns_value=True)
        block = mfunc.add_block("entry")
        r0 = preg(CLASS_INT, 0)
        block.append(MachineInstr("movi", dst=r0, imm=7))
        block.append(MachineInstr("mov", dst=r0, srcs=[r0]))  # self-move ok
        block.append(MachineInstr("ret"))
        assert verify_machine_function(mfunc) == []

    def test_rcb_resets_window(self):
        mfunc = MachineFunction("cut", int_args=1, float_args=0,
                                returns_float=False, returns_value=True)
        block = mfunc.add_block("entry")
        r0 = preg(CLASS_INT, 0)
        r1 = preg(CLASS_INT, 1)
        block.append(MachineInstr("mov", dst=r1, srcs=[r0]))
        block.append(MachineInstr("rcb"))
        block.append(MachineInstr("movi", dst=r0, imm=7))  # new window: fine
        block.append(MachineInstr("ret"))
        assert verify_machine_function(mfunc) == []

    def test_slot_clobber_detected(self):
        mfunc = MachineFunction("slots", int_args=0, float_args=0,
                                returns_float=False, returns_value=False)
        slot = mfunc.frame.add_slot(1, "s")
        block = mfunc.add_block("entry")
        r1 = preg(CLASS_INT, 1)
        block.append(MachineInstr("ldslot", dst=r1, imm=slot))   # read slot
        block.append(MachineInstr("stslot", srcs=[r1], imm=slot))  # clobber
        block.append(MachineInstr("ret"))
        violations = verify_machine_function(mfunc)
        assert any(v.loc == ("slot", slot) for v in violations)

    def test_compiler_raises_on_violation(self):
        """compile_ir_module(verify=True) wires the machine verifier in."""
        module = parse_module(SUM_IR)
        # Constructing regions by hand *without* the loop invariant would
        # violate; here we just check the happy path raises nothing.
        compile_ir_module(module, idempotent=True)


class TestWholePipelineDifferential:
    @pytest.mark.parametrize("idempotent", [False, True])
    def test_minic_quick(self, idempotent):
        from repro.frontend import compile_source

        ref, ref_out = run_module(compile_source(MINIC_QUICK))
        value, sim = compile_and_run(MINIC_QUICK, idempotent)
        assert value == ref and sim.output == ref_out

    @pytest.mark.parametrize("idempotent", [False, True])
    def test_float_kernel(self, idempotent):
        source = """
float xs[8];
int main() {
  int i;
  for (i = 0; i < 8; i = i + 1) xs[i] = (float) i * 0.5;
  float acc = 0.0;
  for (i = 0; i < 8; i = i + 1) acc = acc + xs[i] * xs[i];
  print_float(acc);
  return (int) acc;
}
"""
        from repro.frontend import compile_source

        ref, ref_out = run_module(compile_source(source))
        value, sim = compile_and_run(source, idempotent)
        assert value == ref and sim.output == ref_out

    def test_idempotent_binary_has_boundaries_crossed(self):
        _, sim = compile_and_run(MINIC_QUICK, idempotent=True)
        assert sim.boundaries_crossed > 0
