"""Top-level compilation driver: MiniC source → executable machine code.

Two build flavours, matching the paper's §6.1 methodology:

- ``compile_minic(src, idempotent=False)`` — the **original binary**: the
  standard optimization pipeline and an unconstrained register allocator.
- ``compile_minic(src, idempotent=True)`` — the **idempotent binary**:
  region construction (§4) plus the idempotence-preserving allocator
  (§4.4), with ``rcb`` boundary markers in the emitted code.

Both flavours run on :class:`repro.sim.Simulator`; the Fig. 10 overheads
are the ratio of their cycle/instruction counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro import obs
from repro.codegen.isel import select_module
from repro.codegen.machine import MachineProgram
from repro.codegen.mverify import verify_machine_program
from repro.codegen.regalloc import AllocationStats, allocate_program
from repro.core.construction import (
    ConstructionConfig,
    ConstructionResult,
    construct_module_regions,
)
from repro.frontend import compile_source
from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.transforms.pipeline import optimize_module


class CompilationError(RuntimeError):
    pass


@dataclass
class CompileResult:
    """Everything a caller may want to inspect about one build."""

    module: Module
    program: MachineProgram
    idempotent: bool
    construction: Dict[str, ConstructionResult] = field(default_factory=dict)
    alloc_stats: Dict[str, AllocationStats] = field(default_factory=dict)

    @property
    def static_instruction_count(self) -> int:
        return sum(f.instruction_count() for f in self.program.functions.values())


def compile_ir_module(
    module: Module,
    idempotent: bool = True,
    config: Optional[ConstructionConfig] = None,
    analysis_cache: bool = True,
) -> CompileResult:
    """Compile an IR module (mutated in place) down to machine code.

    The IR verifier always runs, and so does the machine idempotence
    verifier on an idempotent build: a violation raises
    :class:`CompilationError`.

    ``analysis_cache=False`` disables the per-function
    :class:`~repro.analysis.manager.AnalysisManager` during region
    construction (every phase recomputes its graph analyses from
    scratch); output is bit-identical either way — the switch exists
    for the cached-vs-fresh bit-identity tests.
    """
    flavour = "idempotent" if idempotent else "original"
    construction: Dict[str, ConstructionResult] = {}
    if idempotent:
        with obs.span("construction.module", module=module.name, flavour=flavour):
            construction = construct_module_regions(
                module, config, analysis_cache=analysis_cache,
            )
    else:
        with obs.span("transforms.module", module=module.name, flavour=flavour):
            optimize_module(module)
    with obs.span("verify.ir", module=module.name):
        verify_module(module, ssa=True)

    program = select_module(module)
    alloc_stats = allocate_program(program, idempotent=idempotent)

    if idempotent:
        with obs.span("verify.machine", module=module.name):
            violations = verify_machine_program(program)
        if violations:
            details = "\n".join(repr(v) for v in violations)
            raise CompilationError(
                f"machine idempotence verification failed:\n{details}"
            )
    obs.counter("compile.modules").inc(flavour=flavour)
    return CompileResult(
        module=module,
        program=program,
        idempotent=idempotent,
        construction=construction,
        alloc_stats=alloc_stats,
    )


def compile_minic(
    source: str,
    idempotent: bool = True,
    config: Optional[ConstructionConfig] = None,
    name: str = "minic",
    analysis_cache: bool = True,
) -> CompileResult:
    """Compile MiniC source text to machine code."""
    flavour = "idempotent" if idempotent else "original"
    with obs.span("compile.minic", name=name, flavour=flavour):
        with obs.span("frontend.compile", name=name):
            module = compile_source(source, name)
        return compile_ir_module(
            module, idempotent=idempotent, config=config,
            analysis_cache=analysis_cache,
        )


def format_asm_listing(result: CompileResult) -> str:
    """The canonical machine-code listing of a build.

    One block per function: the formatted machine code followed by its
    allocator statistics line.  This is exactly what ``repro compile``
    prints, and the text the hash-seed determinism test compares across
    processes.
    """
    from repro.codegen import format_machine_function

    blocks = []
    for mfunc in result.program.functions.values():
        stats = result.alloc_stats[mfunc.name]
        blocks.append(
            format_machine_function(mfunc)
            + f"\n  ; vregs={stats.vregs} spilled={stats.spilled} "
              f"extended={stats.extended}\n\n"
        )
    return "".join(blocks)
