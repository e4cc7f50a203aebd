"""The four recovery configurations compared in Fig. 12 (paper §6.3).

All schemes share instruction-level DMR *detection* (Reis et al. SWIFT
style: duplicated computation, checks before loads/stores/branches), whose
cost the simulator models with issue-slot multipliers:

- **DMR baseline** — original binary, ``alu×2`` + one check op per
  load/store/branch. Detection only; the reference everything else is
  normalized to.
- **INSTRUCTION-TMR** — original binary, ``alu×3`` + one single-cycle
  majority op per load/store/branch (Chang et al.): corrects in place.
- **CHECKPOINT-AND-LOG** — original binary + DMR costs + *real* logging
  instrumentation: before every store, load the old value and write
  (old value, address) into a 16KB wrap-around log, advancing ``lp``
  (4 ops per store, as in the paper's Fig. 11 column). Register
  checkpoints and log-overflow polling are assumed free, as the paper
  optimistically does.
- **IDEMPOTENCE** — the idempotent binary + DMR costs; its ``rcb``
  boundary markers (a ``mov`` into ``rp``) are the entire recovery
  instrumentation.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.codegen.machine import (
    CLASS_INT,
    MachineBlock,
    MachineFunction,
    MachineInstr,
    MachineProgram,
    preg,
)
from repro.sim.simulator import CostModel, Simulator

SCHEME_DMR = "dmr"
SCHEME_TMR = "instruction-tmr"
SCHEME_CHECKPOINT_LOG = "checkpoint-and-log"
SCHEME_IDEMPOTENCE = "idempotence"
SCHEMES = (SCHEME_DMR, SCHEME_TMR, SCHEME_CHECKPOINT_LOG, SCHEME_IDEMPOTENCE)

#: scratch register for the logging sequence — ``rp`` (r14) is idle in the
#: checkpoint-and-log scheme, which never uses restart pointers.
_LOG_SCRATCH = preg(CLASS_INT, 14)


def dmr_cost_model() -> CostModel:
    return CostModel(
        alu_issue_factor=2,
        check_ops_per_load=1,
        check_ops_per_store=1,
        check_ops_per_branch=1,
    )


def tmr_cost_model() -> CostModel:
    return CostModel(
        alu_issue_factor=3,
        check_ops_per_load=1,   # majority vote, single-cycle (§6.3)
        check_ops_per_store=1,
        check_ops_per_branch=1,
    )


#: original program -> its instrumented copy, which lives as long as the
#: original does
_INSTRUMENTED: "weakref.WeakKeyDictionary[MachineProgram, MachineProgram]" = (
    weakref.WeakKeyDictionary()
)


def instrument_checkpoint_log(program: MachineProgram) -> MachineProgram:
    """A copy of ``program`` with store-logging sequences inserted.

    Per store: ``ld old ← [addr]; stlog old, 0; stlog addr, 1; advlp 2`` —
    the paper's load-old-value / log-value / log-address / bump-pointer
    sequence. Frame-slot stores use ``ldslot`` for the old value.

    The copy has its own functions, frames and blocks but shares every
    instruction of ``program``: no instruction changes once a program
    exists (the register allocator rewrites them before).  So every call
    with one ``program`` returns the one copy, and its simulators share
    their translated runs (:mod:`repro.sim.translate`).
    """
    instrumented = _INSTRUMENTED.get(program)
    if instrumented is None:
        instrumented = _INSTRUMENTED[program] = _instrumented(program)
    return instrumented


def _instrumented(program: MachineProgram) -> MachineProgram:
    instrumented = MachineProgram(program.name)
    instrumented.globals = dict(program.globals)
    for mfunc in program.functions.values():
        logged = instrumented.add_function(MachineFunction(
            mfunc.name, mfunc.int_args, mfunc.float_args,
            mfunc.returns_float, mfunc.returns_value,
        ))
        logged.frame = mfunc.frame.copy()
        for block in mfunc.blocks:
            logged.blocks.append(MachineBlock(block.name))
            new_instrs = logged.blocks[-1].instructions
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
    return instrumented


@dataclass
class SchemeRun:
    scheme: str
    result: object
    output: List[object]
    instructions: int
    cycles: int

    def overhead_vs(self, baseline: "SchemeRun") -> float:
        return self.cycles / baseline.cycles - 1.0


def run_scheme(
    scheme: str,
    original_program: MachineProgram,
    idempotent_program: MachineProgram,
    func: str = "main",
    args: Tuple = (),
    max_instructions: int = 50_000_000,
) -> SchemeRun:
    """Execute one workload under one recovery configuration."""
    if scheme == SCHEME_DMR:
        program, cost = original_program, dmr_cost_model()
    elif scheme == SCHEME_TMR:
        program, cost = original_program, tmr_cost_model()
    elif scheme == SCHEME_CHECKPOINT_LOG:
        program, cost = instrument_checkpoint_log(original_program), dmr_cost_model()
    elif scheme == SCHEME_IDEMPOTENCE:
        program, cost = idempotent_program, dmr_cost_model()
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    sim = Simulator(program, cost_model=cost, max_instructions=max_instructions)
    result = sim.run(func, args)
    return SchemeRun(
        scheme=scheme,
        result=result,
        output=list(sim.output),
        instructions=sim.instructions,
        cycles=sim.cycles,
    )


def compare_schemes(
    original_program: MachineProgram,
    idempotent_program: MachineProgram,
    func: str = "main",
    args: Tuple = (),
) -> Dict[str, SchemeRun]:
    """Run all four configurations; results keyed by scheme name."""
    runs = {}
    for scheme in SCHEMES:
        runs[scheme] = run_scheme(
            scheme, original_program, idempotent_program, func=func, args=args
        )
    # Sanity: every scheme must compute the same answer.
    baseline = runs[SCHEME_DMR]
    for scheme, run in runs.items():
        if run.result != baseline.result or run.output != baseline.output:
            raise AssertionError(
                f"{scheme} computed {run.result!r}, DMR computed {baseline.result!r}"
            )
    return runs
