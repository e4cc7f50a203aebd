"""Machine-level builtin and simulator edge-case tests."""

import math

import pytest

from repro.compiler import compile_minic
from repro.sim import SimulationError, Simulator


def run_main(source, idempotent=False):
    program = compile_minic(source, idempotent=idempotent).program
    sim = Simulator(program)
    result = sim.run("main")
    return result, sim


class TestBuiltinsAtMachineLevel:
    def test_float_math(self):
        result, sim = run_main(
            """
int main() {
  float a = sqrt(25.0);
  float b = exp(0.0);
  float c = log(1.0);
  float d = fabs(-2.5);
  print_float(a + b + c + d);
  return (int) (a + b + c + d);
}
"""
        )
        assert sim.output == [pytest.approx(8.5)]
        assert result == 8

    def test_minmax_family(self):
        result, sim = run_main(
            """
int main() {
  print_int(min(3, -1));
  print_int(max(3, -1));
  print_float(fmin(1.5, 2.5));
  print_float(fmax(1.5, 2.5));
  print_int(abs(-42));
  return 0;
}
"""
        )
        assert sim.output == [-1, 3, 1.5, 2.5, 42]

    def test_malloc_distinct_blocks(self):
        result, _ = run_main(
            """
int main() {
  int *a = malloc(2);
  int *b = malloc(2);
  a[0] = 1; a[1] = 2;
  b[0] = 10; b[1] = 20;
  return a[0] + a[1] + b[0] + b[1];
}
"""
        )
        assert result == 33

    def test_free_is_noop(self):
        result, _ = run_main(
            """
int main() {
  int *a = malloc(1);
  a[0] = 5;
  free(a);
  return a[0];   // bump allocator: still mapped
}
"""
        )
        assert result == 5

    def test_builtin_advances_rp(self):
        """After a builtin the restart pointer points past it — a fault
        later never re-executes the (non-idempotent) builtin."""
        source = """
int main() {
  print_int(1);
  int x = 41;
  x = x + 1;
  return x;
}
"""
        program = compile_minic(source, idempotent=True).program
        sim = Simulator(program)
        seen_rp = []

        def hook(s, instr):
            if instr.opcode == "callb":
                seen_rp.append(s.rp)

        sim.post_hook = hook
        sim.run("main")
        assert seen_rp
        depth, loc = seen_rp[0]
        # rp points to the instruction after the callb, not at/before it.
        assert loc.index > 0 or loc.block > 0

    def test_output_ordering_matches_interpreter(self):
        from repro.frontend import compile_source
        from repro.interp import run_module

        source = """
int main() {
  for (int i = 0; i < 5; i++) {
    if (i % 2 == 0) print_int(i);
    else print_float((float) i);
  }
  return 0;
}
"""
        _, expected = run_module(compile_source(source))
        _, sim = run_main(source)
        assert sim.output == expected


class TestSimulatorEdges:
    def test_rem_by_negative(self):
        result, _ = run_main("int main() { return (-7) % 3; }")
        assert result == -1

    def test_shift_by_large_amount_masks(self):
        result, _ = run_main("int main() { int x = 1; return x << 65; }")
        # shifts mask to 6 bits like hardware: 1 << 1 == 2
        assert result == 2

    def test_deep_recursion_frames(self):
        source = """
int down(int n) {
  if (n == 0) return 0;
  return down(n - 1) + 1;
}
int main() { return down(200); }
"""
        result, sim = run_main(source)
        assert result == 200
        # All frames popped.
        assert sim.frames == []

    def test_instruction_count_monotone_with_work(self):
        small, sim_small = run_main("int main() { return 1; }")
        big, sim_big = run_main(
            "int main() { int a = 0; for (int i = 0; i < 50; i++) a += i; return a; }"
        )
        assert sim_big.instructions > sim_small.instructions

    def test_boundaries_counted_only_for_idempotent(self):
        source = "int g; int main() { g = g + 1; return g; }"
        _, orig = run_main(source, idempotent=False)
        _, idem = run_main(source, idempotent=True)
        assert orig.boundaries_crossed == 0
        assert idem.boundaries_crossed > 0
