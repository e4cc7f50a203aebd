"""Recovery scheme configuration tests (Fig. 11/12 machinery)."""

import copy

import pytest

from repro.codegen.machine import MachineInstr, format_machine_function
from repro.compiler import compile_minic
from repro.recovery import (
    SCHEME_CHECKPOINT_LOG,
    SCHEME_DMR,
    SCHEME_IDEMPOTENCE,
    SCHEME_TMR,
    SCHEMES,
    compare_schemes,
    dmr_cost_model,
    instrument_checkpoint_log,
    run_scheme,
    tmr_cost_model,
)
from repro.recovery.schemes import _LOG_SCRATCH
from repro.sim import Simulator
from repro.workloads import all_workloads
from tests.helpers import MINIC_QUICK

STORE_HEAVY = """
int a[16];
int main() {
  int t;
  for (t = 0; t < 100; t = t + 1) {
    a[t % 16] = a[t % 16] + t;
  }
  int acc = 0;
  for (t = 0; t < 16; t = t + 1) acc = acc + a[t];
  print_int(acc);
  return acc;
}
"""


@pytest.fixture(scope="module")
def programs():
    orig = compile_minic(STORE_HEAVY, idempotent=False).program
    idem = compile_minic(STORE_HEAVY, idempotent=True).program
    return orig, idem


def _listing(program):
    return program.name, program.globals, [
        (func.int_args, func.float_args, func.returns_float, func.returns_value,
         func.frame.slot_sizes, func.frame.slot_names, format_machine_function(func))
        for func in program.functions.values()
    ]


def _deep_copy_instrument(program):
    """``instrument_checkpoint_log`` before it shared instructions."""
    instrumented = copy.deepcopy(program)
    for mfunc in instrumented.functions.values():
        for block in mfunc.blocks:
            new_instrs = []
            for instr in block.instructions:
                if instr.opcode == "st":
                    addr_reg = instr.srcs[1]
                    new_instrs.append(
                        MachineInstr("ld", dst=_LOG_SCRATCH, srcs=[addr_reg])
                    )
                    new_instrs.append(
                        MachineInstr("stlog", srcs=[_LOG_SCRATCH], imm=0)
                    )
                    new_instrs.append(MachineInstr("stlog", srcs=[addr_reg], imm=1))
                    new_instrs.append(MachineInstr("advlp", imm=2))
                elif instr.opcode == "stslot":
                    new_instrs.append(
                        MachineInstr("ldslot", dst=_LOG_SCRATCH, imm=instr.imm)
                    )
                    new_instrs.append(
                        MachineInstr("stlog", srcs=[_LOG_SCRATCH], imm=0)
                    )
                    new_instrs.append(
                        MachineInstr("stlog", srcs=[_LOG_SCRATCH], imm=1)
                    )
                    new_instrs.append(MachineInstr("advlp", imm=2))
                new_instrs.append(instr)
            block.instructions = new_instrs
    return instrumented


class TestInstrumentation:
    def test_logging_added_per_store(self, programs):
        orig, _ = programs
        logged = instrument_checkpoint_log(orig)
        for name in orig.functions:
            stores = sum(
                1
                for i in orig.functions[name].instructions()
                if i.opcode in ("st", "stslot")
            )
            stlogs = sum(
                1 for i in logged.functions[name].instructions() if i.opcode == "stlog"
            )
            advlps = sum(
                1 for i in logged.functions[name].instructions() if i.opcode == "advlp"
            )
            assert stlogs == 2 * stores
            assert advlps == stores

    def test_original_untouched(self, programs):
        orig, _ = programs
        before = sum(f.instruction_count() for f in orig.functions.values())
        instrument_checkpoint_log(orig)
        after = sum(f.instruction_count() for f in orig.functions.values())
        assert before == after  # a copy, not mutation

    def test_shared_instructions_list_as_a_deep_copy(self):
        """Every workload instruments as the deep-copying version did, and
        its original program lists the same afterwards."""
        for workload in all_workloads():
            orig = compile_minic(workload.source, idempotent=False).program
            before = _listing(orig)
            logged = instrument_checkpoint_log(orig)
            assert _listing(orig) == before, workload.name
            assert _listing(logged) == _listing(_deep_copy_instrument(orig))

    def test_logged_program_computes_same_result(self, programs):
        orig, _ = programs
        ref = Simulator(orig).run("main")
        logged = instrument_checkpoint_log(orig)
        sim = Simulator(logged)
        assert sim.run("main") == ref

    def test_log_wraps_without_corruption(self):
        """More logged stores than log capacity: wrap-around is safe."""
        source = """
int a[4];
int main() {
  int t;
  for (t = 0; t < 3000; t = t + 1) a[t % 4] = t;
  return a[0] + a[1] + a[2] + a[3];
}
"""
        orig = compile_minic(source, idempotent=False).program
        ref = Simulator(orig).run("main")
        logged = instrument_checkpoint_log(orig)
        sim = Simulator(logged)
        assert sim.run("main") == ref


class TestCostModels:
    def test_dmr_vs_tmr_factors(self):
        assert dmr_cost_model().alu_issue_factor == 2
        assert tmr_cost_model().alu_issue_factor == 3


class TestSchemeComparison:
    def test_all_schemes_agree_on_result(self, programs):
        orig, idem = programs
        runs = compare_schemes(orig, idem)
        assert set(runs) == set(SCHEMES)
        results = {r.result for r in runs.values()}
        assert len(results) == 1

    def test_expected_ordering(self, programs):
        """TMR > checkpoint-and-log and TMR > idempotence (paper Fig. 12)."""
        orig, idem = programs
        runs = compare_schemes(orig, idem)
        baseline = runs[SCHEME_DMR]
        tmr = runs[SCHEME_TMR].overhead_vs(baseline)
        log = runs[SCHEME_CHECKPOINT_LOG].overhead_vs(baseline)
        idem_ovh = runs[SCHEME_IDEMPOTENCE].overhead_vs(baseline)
        assert tmr > idem_ovh
        assert log > idem_ovh
        assert tmr > 0 and log > 0

    def test_single_scheme_runner(self, programs):
        orig, idem = programs
        run = run_scheme(SCHEME_IDEMPOTENCE, orig, idem)
        assert run.scheme == SCHEME_IDEMPOTENCE
        assert run.cycles > 0 and run.instructions > 0

    def test_unknown_scheme_rejected(self, programs):
        orig, idem = programs
        with pytest.raises(ValueError):
            run_scheme("raid5", orig, idem)

    def test_quick_program_all_schemes(self):
        orig = compile_minic(MINIC_QUICK, idempotent=False).program
        idem = compile_minic(MINIC_QUICK, idempotent=True).program
        runs = compare_schemes(orig, idem)
        assert runs[SCHEME_DMR].cycles < runs[SCHEME_TMR].cycles
