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
  stores, both kept by the simulator while this policy drives it;
  detection restores the last checkpoint and rolls the log back.
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

from repro.codegen.machine import MachineProgram
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

    State capture is the scheme's defining move: every
    :data:`~repro.sim.simulator.CHECKPOINT_INTERVAL`-th check point (and
    at every call-depth change, where the frame stack is in flux) the
    register files and location are checkpointed; between checkpoints an
    undo log keeps the pre-image of every committed store — the dynamic
    realisation of the statically derived live-set checkpoints of
    :mod:`repro.recovery.checkpoint`. Detection restores the checkpoint
    and unwinds the log in reverse. The simulator keeps both while this
    policy drives it (:attr:`~FaultInjector.checkpoints`), so the policy
    hooks no instruction outside a fault's window.

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

    checkpoints = True

    def restart_count(self, sim: Simulator) -> int:
        """Where the last checkpoint was taken."""
        return sim.checkpoint_count

    def roll_back(self, sim: Simulator) -> None:
        """Restore the last checkpoint and unwind the undo log."""
        sim.recover_to_checkpoint()


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

    def campaign_program(self, original_program, idempotent_program):
        return instrument_checkpoint_log(original_program)

    def make_injector(self, sim, plan, recover=True):
        return CheckpointLogInjector(sim, plan, recover=recover)


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
