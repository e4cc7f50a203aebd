"""Differential and re-execution oracles for fuzzed programs.

Three layers of checking, strongest last:

1. **Three-way differential** — the MiniC interpreter (semantic
   reference), the simulator on the *original* binary, and the simulator
   on the *idempotent* binary must agree on the return value, the
   printed output, **and the final global memory image**.  This is the
   classic Csmith-style compiler oracle.

2. **Exhaustive re-execution** — the dynamic counterpart of the static
   :mod:`repro.core.verify`: the paper's contract (§3) is that jumping
   back to the restart pointer is *always* safe, so we force
   ``recover_to_rp()`` at **every** dynamic check point of the
   idempotent binary — not one sampled fault — and require the
   bit-exact fault-free result each time.

3. **Multi-fault re-execution** — recovery itself may be interrupted:
   for every dynamic check point we force a recovery *and then a second
   recovery at the next check point reached*, which lands inside the
   re-executed region (a fault during recovery / back-to-back faults in
   the same region).  Idempotence must survive that too.

All three report :class:`OracleFailure` rows rather than raising, so a
fuzz campaign can quarantine and minimize failing seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.compiler import compile_minic
from repro.frontend import compile_source
from repro.interp import Interpreter
from repro.interp.memory import MemoryError_
from repro.sim.simulator import SimulationError, Simulator

#: Oracle identifiers carried on failures (and preserved by the reducer).
ORACLE_REFERENCE = "reference"
ORACLE_DIFF_ORIGINAL = "differential:original"
ORACLE_DIFF_IDEMPOTENT = "differential:idempotent"
ORACLE_REEXEC = "reexec"
ORACLE_MULTI_FAULT = "multifault"

#: Hard ceiling on simulated instructions per run; a forced recovery
#: that fails to make progress shows up as a budget crash, not a hang.
DEFAULT_MAX_INSTRUCTIONS = 2_000_000


@dataclass
class OracleFailure:
    oracle: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.oracle}] {self.detail}"


@dataclass
class OracleReport:
    """Everything the oracles observed about one program."""

    failures: List[OracleFailure] = field(default_factory=list)
    checkpoints: int = 0         # dynamic check points in the clean run
    forced_runs: int = 0         # re-execution runs performed
    instructions: int = 0        # clean-run dynamic instruction count

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failed_oracles(self) -> Tuple[str, ...]:
        """Sorted, de-duplicated failing oracle names — the failure
        signature the reducer preserves."""
        return tuple(sorted({f.oracle for f in self.failures}))


# ----------------------------------------------------------------------
# State extraction
# ----------------------------------------------------------------------
def _interp_globals(interp: Interpreter) -> Dict[str, List[object]]:
    image = {}
    for name, addr in interp.globals.items():
        size = interp.module.globals[name].size
        image[name] = [interp.memory.peek(addr + i) for i in range(size)]
    return image


def _sim_globals(sim: Simulator) -> Dict[str, List[object]]:
    image = {}
    for name, addr in sim.globals.items():
        size = sim.program.globals[name][0]
        image[name] = [sim.memory.peek(addr + i) for i in range(size)]
    return image


def _diff_state(
    label: str,
    result: object, ref_result: object,
    output: Sequence[object], ref_output: Sequence[object],
    memory: Dict[str, List[object]], ref_memory: Dict[str, List[object]],
) -> Optional[str]:
    """First observable divergence from the reference, or None."""
    if result != ref_result:
        return f"{label}: result {result!r} != reference {ref_result!r}"
    if list(output) != list(ref_output):
        return f"{label}: output {list(output)!r} != reference {list(ref_output)!r}"
    if memory != ref_memory:
        for name in sorted(ref_memory):
            if memory.get(name) != ref_memory[name]:
                return (
                    f"{label}: global {name!r} = {memory.get(name)!r} "
                    f"!= reference {ref_memory[name]!r}"
                )
    return None


# ----------------------------------------------------------------------
# Forced recovery
# ----------------------------------------------------------------------
class ForcedRecovery:
    """Pre-instruction hook forcing ``recover_to_rp()`` at chosen
    dynamic check-point occurrences.

    Occurrences count *every* check-point visit, re-executed ones
    included, so a trigger set ``{k, k+1}`` models a second fault during
    the recovery of the first (the next check point reached after the
    jump back is, by construction, inside the re-executed region).
    """

    def __init__(self, sim: Simulator, triggers: Sequence[int]) -> None:
        self.triggers = set(triggers)
        self.occurrence = 0
        self.recoveries = 0
        sim.pre_hook = self._pre

    def _pre(self, sim: Simulator, instr) -> None:
        if instr.opcode not in Simulator.CHECK_POINTS:
            return
        occurrence = self.occurrence
        self.occurrence += 1
        if occurrence in self.triggers:
            sim.recover_to_rp()
            sim.redirect()
            self.recoveries += 1


def _count_checkpoints(sim: Simulator) -> List[int]:
    """Attach a counting hook; returns a single-cell list updated live."""
    cell = [0]

    def hook(_sim: Simulator, instr) -> None:
        if instr.opcode in Simulator.CHECK_POINTS:
            cell[0] += 1

    sim.pre_hook = hook
    return cell


def _forced_run(
    program, entry: str, triggers: Sequence[int], max_instructions: int
) -> Tuple[object, List[object], Dict[str, List[object]], int]:
    sim = Simulator(program, max_instructions=max_instructions)
    forced = ForcedRecovery(sim, triggers)
    result = sim.run(entry)
    return result, list(sim.output), _sim_globals(sim), forced.recoveries


# ----------------------------------------------------------------------
# The oracle stack
# ----------------------------------------------------------------------
def check_source(
    source: str,
    entry: str = "main",
    multi_fault: bool = True,
    max_forced: Optional[int] = None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
) -> OracleReport:
    """Run the full oracle stack over one MiniC program.

    ``max_forced`` caps the number of forced-recovery points per mode
    (evenly spaced, deterministic); ``None`` means exhaustive, and a cap
    below 1 raises :class:`ValueError`.
    """
    report = OracleReport()

    # ---- semantic reference: the MiniC interpreter -------------------
    try:
        module = compile_source(source)
        interp = Interpreter(module)
        ref_result = interp.run(entry)
        ref_output = list(interp.output)
        ref_memory = _interp_globals(interp)
    except Exception as exc:
        report.failures.append(OracleFailure(
            ORACLE_REFERENCE, f"{type(exc).__name__}: {exc}"
        ))
        return report

    # ---- differential: original binary -------------------------------
    try:
        original = compile_minic(source, idempotent=False)
        sim = Simulator(original.program, max_instructions=max_instructions)
        value = sim.run(entry)
        divergence = _diff_state(
            "original", value, ref_result, sim.output, ref_output,
            _sim_globals(sim), ref_memory,
        )
        if divergence:
            report.failures.append(
                OracleFailure(ORACLE_DIFF_ORIGINAL, divergence)
            )
    except Exception as exc:
        report.failures.append(OracleFailure(
            ORACLE_DIFF_ORIGINAL, f"{type(exc).__name__}: {exc}"
        ))

    # ---- differential: idempotent binary -----------------------------
    try:
        idem = compile_minic(source, idempotent=True)
    except Exception as exc:
        report.failures.append(OracleFailure(
            ORACLE_DIFF_IDEMPOTENT, f"{type(exc).__name__}: {exc}"
        ))
        return report
    try:
        clean = Simulator(idem.program, max_instructions=max_instructions)
        counter = _count_checkpoints(clean)
        value = clean.run(entry)
        report.checkpoints = counter[0]
        report.instructions = clean.instructions
        divergence = _diff_state(
            "idempotent", value, ref_result, clean.output, ref_output,
            _sim_globals(clean), ref_memory,
        )
        if divergence:
            report.failures.append(
                OracleFailure(ORACLE_DIFF_IDEMPOTENT, divergence)
            )
    except Exception as exc:
        report.failures.append(OracleFailure(
            ORACLE_DIFF_IDEMPOTENT, f"{type(exc).__name__}: {exc}"
        ))
        return report

    # ---- exhaustive re-execution -------------------------------------
    points = _forced_points(report.checkpoints, max_forced)
    for occurrence in points:
        failure = _check_forced(
            idem.program, entry, (occurrence,), ORACLE_REEXEC,
            ref_result, ref_output, ref_memory, max_instructions,
        )
        report.forced_runs += 1
        if failure:
            report.failures.append(failure)
            break  # one witness is enough; the reducer will sharpen it

    # ---- multi-fault: fault during recovery --------------------------
    if multi_fault:
        for occurrence in points:
            failure = _check_forced(
                idem.program, entry, (occurrence, occurrence + 1),
                ORACLE_MULTI_FAULT,
                ref_result, ref_output, ref_memory, max_instructions,
            )
            report.forced_runs += 1
            if failure:
                report.failures.append(failure)
                break

    obs.counter("fuzz.oracle_runs").inc(report.forced_runs + 3)
    for failure in report.failures:
        obs.counter("fuzz.oracle_failures").inc(oracle=failure.oracle)
    return report


def _forced_points(checkpoints: int, max_forced: Optional[int]) -> List[int]:
    """Which dynamic check-point occurrences to force recovery at:
    every one, or an evenly spaced deterministic subset of
    ``max_forced`` of them.  A cap below 1 would force no recovery, so
    the re-execution oracle would silently not run: it is rejected."""
    if max_forced is not None and max_forced < 1:
        raise ValueError(f"max_forced must be >= 1, got {max_forced}")
    if checkpoints <= 0:
        return []
    if max_forced is None or checkpoints <= max_forced:
        return list(range(checkpoints))
    step = checkpoints / max_forced
    points = sorted({int(k * step) for k in range(max_forced)})
    return points


def _check_forced(
    program, entry: str, triggers: Tuple[int, ...], oracle: str,
    ref_result: object, ref_output: List[object],
    ref_memory: Dict[str, List[object]], max_instructions: int,
) -> Optional[OracleFailure]:
    label = f"recovery at check point(s) {list(triggers)}"
    try:
        result, output, memory, recoveries = _forced_run(
            program, entry, triggers, max_instructions
        )
    except (MemoryError_, SimulationError) as exc:
        return OracleFailure(
            oracle, f"{label}: crashed: {type(exc).__name__}: {exc}"
        )
    if recoveries == 0:
        return None  # trigger past the end of this run's check points
    divergence = _diff_state(
        label, result, ref_result, output, ref_output, memory, ref_memory
    )
    if divergence:
        return OracleFailure(oracle, divergence)
    return None
