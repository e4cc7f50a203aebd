"""Pluggable recovery backends: the Fig. 12 schemes as fault-campaign drivers.

:mod:`repro.recovery.schemes` prices the paper's recovery schemes (their
*fault-free* dynamic cost); this module makes each of them a
:class:`RecoveryBackend` that can actually *drive* a fault campaign, so
overhead and recovery behaviour come from the same pluggable layer.

The fault model — where a fault strikes, what it corrupts, which region
it is attributed to, when it is detected — is written once, in
:class:`repro.sim.faults.FaultInjector`. Each backend contributes only a
recovery policy over it:

- ``idempotent`` — the paper's scheme, the core's own policy: discard
  the store buffer and jump to the restart pointer. Campaign results
  are bit-identical to the pre-zoo code path (same program, same seeds,
  same injector).
- ``tmr`` — instruction-level triple-modular redundancy. Three copies of
  every operation vote at each check point; a single-fault model means
  the corrupted lane is always outvoted, so the policy only marks the
  fault and "recovery" is a zero-cost in-place correction. Highest
  dynamic overhead, best recovery.
- ``checkpoint_log`` — checkpoint-and-log in the AutoCheck mould:
  periodic register-file checkpoints plus an undo log of committed
  stores; detection restores the last checkpoint and rolls the log back.
  The statically derived checkpoint contents come from
  :mod:`repro.recovery.checkpoint` (live sets at region boundaries).

All three report a :class:`repro.sim.faults.FaultOutcome` per trial and
reuse the campaign bucket arithmetic of
:func:`repro.sim.faults.fault_campaign`; each names the configuration of
:mod:`repro.recovery.schemes` that prices its fault-free overhead
(:attr:`RecoveryBackend.scheme`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.codegen.machine import MachineInstr, MachineProgram
from repro.recovery.schemes import (
    SCHEME_CHECKPOINT_LOG,
    SCHEME_IDEMPOTENCE,
    SCHEME_TMR,
    instrument_checkpoint_log,
)
from repro.sim.faults import (
    FAULT_VALUE,
    CampaignResult,
    FaultInjector,
    FaultPlan,
    fault_campaign,
)
from repro.sim.simulator import Simulator

#: Sentinel for "address was unmapped before this store" in the undo log.
_UNMAPPED = object()


class TMRInjector(FaultInjector):
    """Instruction-level TMR under a single-fault model.

    The fault corrupts one of three redundant lanes; the majority vote at
    the next check point both detects it and supplies the correct value,
    so architectural state is never corrupted and no re-execution is
    charged (``recovery_instructions`` stays 0). The only way TMR loses
    a fault is the same way DMR does: detection latency outlives the
    program (``undetected`` bucket — result still correct, since the
    voted value was).
    """

    corrupts = False


class CheckpointLogInjector(FaultInjector):
    """Checkpoint-and-log recovery over the store-instrumented binary.

    State capture is the scheme's defining move: every ``interval``-th
    check point (and at every call-depth change, where the frame stack
    is in flux) the injector snapshots the register files and location;
    between checkpoints it keeps an undo log of committed stores — the
    dynamic realisation of the statically derived live-set checkpoints
    of :mod:`repro.recovery.checkpoint`. Detection restores the snapshot
    and unwinds the log in reverse.

    A fresh checkpoint is also forced after every ``callb``: externally
    visible effects (``print`` output, ``malloc``'s heap bump) cannot be
    replayed, so the scheme never rolls back across them — exactly the
    constraint that forces idempotent region boundaries at the same
    points.

    The failure mode under detection latency is structural, not tuned:
    a checkpoint taken while a fault is still latent snapshots corrupt
    registers, and restoring it re-executes from corrupt state — the
    checkpoint-spacing analogue of idempotence's rp-slip hazard.
    """

    DEFAULT_INTERVAL = 8

    def __init__(
        self,
        sim: Simulator,
        plan: Optional[FaultPlan],
        recover: bool = True,
        interval: int = DEFAULT_INTERVAL,
    ) -> None:
        super().__init__(sim, plan, recover=recover)
        self.interval = interval
        self.checkpoints_taken = 0
        self._ckpt: Optional[Tuple] = None
        #: ``sim.instructions`` when ``_ckpt`` was taken
        self._ckpt_count = 0
        self._undo: List[Tuple[int, object]] = []
        self._since = 0

    # ------------------------------------------------------------------
    # Checkpoint machinery
    # ------------------------------------------------------------------
    def _take(self, sim: Simulator) -> None:
        self._ckpt = (
            len(sim.frames),
            list(sim.int_regs),
            list(sim.float_regs),
            sim.loc,
        )
        self._ckpt_count = sim.instructions
        self._undo = []
        self._since = 0
        self.checkpoints_taken += 1

    def restart_count(self, sim: Simulator) -> int:
        """Where the last checkpoint was taken."""
        return self._ckpt_count

    def fork_state(self) -> Tuple:
        """The checkpoint, the undo log since it and the check points
        until the next one."""
        return (self._ckpt, self._ckpt_count, list(self._undo), self._since,
                self.checkpoints_taken)

    def restore_fork_state(self, state: Tuple) -> None:
        self._ckpt, self._ckpt_count, undo, self._since, self.checkpoints_taken = state
        self._undo = list(undo)

    def roll_back(self, sim: Simulator) -> None:
        """Restore the last checkpoint and unwind the undo log."""
        depth, int_regs, float_regs, loc = self._ckpt
        # Depth equality is structural: every call-depth change takes a
        # fresh checkpoint, so detection always happens in the frame the
        # checkpoint was taken in. The loop is defensive only.
        while len(sim.frames) > depth:
            dead = sim.frames.pop()
            sim.memory.free_stack(dead.base)
        sim.discard_store_buffer()
        for addr, old in reversed(self._undo):
            if old is _UNMAPPED:
                sim.memory.cells.pop(addr, None)
            else:
                sim.memory.cells[addr] = old
        self._undo = []
        sim.int_regs[:] = int_regs
        sim.float_regs[:] = float_regs
        sim.loc = loc

    # ------------------------------------------------------------------
    # Snapshot bookkeeping: every instruction, around the fault model
    # ------------------------------------------------------------------
    def _install(self, sim: Simulator, pre, post) -> None:
        self._model_pre, self._model_post = pre, post
        sim.pre_hook, sim.post_hook = self._pre, self._post

    def _pre(self, sim: Simulator, instr: MachineInstr) -> None:
        if sim.frames and (self._ckpt is None or len(sim.frames) != self._ckpt[0]):
            self._take(sim)
        if instr.opcode in Simulator.CHECK_POINTS and not (
            self._pending and self.detects(sim, instr)
        ):
            self._since += 1
            if self._since >= self.interval:
                self._take(sim)
            # The buffered stores commit when this check point executes;
            # log their pre-images so a later restore can unwind them.
            for addr, _value in sim.store_buffer:
                try:
                    old = sim.memory.peek(addr)
                except KeyError:
                    old = _UNMAPPED
                self._undo.append((addr, old))
        if self._model_pre is not None:
            self._model_pre(sim, instr)

    def _post(self, sim: Simulator, instr: MachineInstr) -> None:
        if self._model_post is not None:
            self._model_post(sim, instr)
        if instr.opcode == "callb":
            # I/O and allocation are not replayable; never allow a
            # restore to cross them.
            self._take(sim)


class RecoveryBackend:
    """One recovery strategy: a program to run, an injector, a price.

    Subclasses define which binary executes under fault injection
    (:meth:`campaign_program`) and which recovery policy drives the
    fault model (:meth:`make_injector`); the shared :meth:`campaign`
    then reports the common campaign buckets.  :attr:`scheme` names the
    configuration whose fault-free cycles, against the DMR baseline's,
    are the backend's price (:func:`repro.recovery.schemes.compare_schemes`).
    """

    #: registry key (``--backends``, report rows)
    name: str = ""
    #: scheme constant used to price fault-free overhead
    scheme: str = ""
    #: which build the campaign executes (for reports/manifests)
    flavour: str = "original"
    #: spawn-key component for per-workload campaign seeds. The
    #: idempotent backend reuses the legacy flavour key so zoo campaigns
    #: are bit-identical to pre-zoo ``flavour="idempotent"`` units.
    seed_key: str = ""

    def campaign_program(
        self,
        original_program: MachineProgram,
        idempotent_program: MachineProgram,
    ) -> MachineProgram:
        raise NotImplementedError

    def make_injector(self, sim: Simulator, plan: FaultPlan, recover: bool = True):
        raise NotImplementedError

    def campaign(
        self,
        original_program: MachineProgram,
        idempotent_program: MachineProgram,
        reference_result: object,
        reference_output: List[object],
        trials: int = 50,
        func: str = "main",
        args: Tuple = (),
        kind: str = FAULT_VALUE,
        seed: int = 12345,
        recover: bool = True,
        detection_latency: int = 0,
        per_region: Optional[Dict[str, CampaignResult]] = None,
    ) -> CampaignResult:
        """Run a standard fault campaign under this backend's scheme."""
        program = self.campaign_program(original_program, idempotent_program)
        return fault_campaign(
            program,
            reference_result,
            reference_output,
            trials=trials,
            func=func,
            args=args,
            kind=kind,
            seed=seed,
            recover=recover,
            detection_latency=detection_latency,
            injector_factory=self.make_injector,
            per_region=per_region,
        )


class IdempotentBackend(RecoveryBackend):
    """The paper's scheme, verbatim: rp recovery on the idempotent binary."""

    name = "idempotent"
    scheme = SCHEME_IDEMPOTENCE
    flavour = "idempotent"
    seed_key = "idempotent"

    def campaign_program(self, original_program, idempotent_program):
        return idempotent_program

    def make_injector(self, sim, plan, recover=True):
        return FaultInjector(sim, plan, recover=recover)


class TMRBackend(RecoveryBackend):
    """Instruction-level TMR on the original binary."""

    name = "tmr"
    scheme = SCHEME_TMR
    flavour = "original"
    seed_key = "tmr"

    def campaign_program(self, original_program, idempotent_program):
        return original_program

    def make_injector(self, sim, plan, recover=True):
        return TMRInjector(sim, plan, recover=recover)


class CheckpointLogBackend(RecoveryBackend):
    """Checkpoint-and-log on the store-instrumented original binary."""

    name = "checkpoint_log"
    scheme = SCHEME_CHECKPOINT_LOG
    flavour = "original"
    seed_key = "checkpoint_log"

    def __init__(self, interval: int = CheckpointLogInjector.DEFAULT_INTERVAL) -> None:
        self.interval = interval

    def campaign_program(self, original_program, idempotent_program):
        return instrument_checkpoint_log(original_program)

    def make_injector(self, sim, plan, recover=True):
        return CheckpointLogInjector(
            sim, plan, recover=recover, interval=self.interval
        )


#: Registry order is report order: cheapest scheme first.
BACKEND_TYPES = (IdempotentBackend, CheckpointLogBackend, TMRBackend)
BACKEND_NAMES = tuple(cls.name for cls in BACKEND_TYPES)


def get_backend(name: str) -> RecoveryBackend:
    """Instantiate the named backend; unknown names list the valid set."""
    for cls in BACKEND_TYPES:
        if cls.name == name:
            return cls()
    raise ValueError(
        f"unknown recovery backend {name!r} "
        f"(valid: {', '.join(BACKEND_NAMES)})"
    )
