"""Transient-fault injection and recovery (paper §2.3, §6.3).

Fault model (the paper's): memory and register *storage* are ECC-protected;
faults arise in instruction execution only. We corrupt the destination of
one dynamic instruction (a soft error in a functional unit) or a branch
decision (incorrect control flow). Detection is instruction-level DMR: the
fault becomes visible at the next *check point* — a load, store, branch,
call, or region boundary — before that operation commits, so corrupted
stores never reach memory and corrupted values never cross an undetected
region boundary.

This module is the one owner of that model. Where a fault may strike is
:func:`value_site` / :func:`control_site` plus
:attr:`FaultPlan.strike_count`; what it does to the value or branch is
:meth:`FaultPlan.corrupt`; the region it lands in is :func:`region_key`;
when it surfaces is :meth:`FaultInjector.detects`. :func:`landings`,
which tells the section engine of :mod:`repro.harness.incremental` where
every trial lands, arms the injector itself; the region profile of
:mod:`repro.recovery.predict` calls the same site functions.

Recovery is a policy over that core. :class:`FaultInjector`'s own is the
paper's idempotence scheme: discard unverified stores and jump to the
restart pointer ``rp``. On an idempotent binary this always reproduces
the fault-free result; on an original (non-idempotent) binary the same
procedure silently corrupts state — the negative control used in tests.
The TMR and checkpoint-and-log policies of :mod:`repro.recovery.backends`
subclass it.  Recovery state lives in the simulator, as ``rp`` does: a
checkpoint-and-log policy has the simulator keep its checkpoint and undo
log, so no policy hooks an instruction outside a fault's window, from
arming to detection.

A campaign's trials fork from one fault-free :class:`GoldenRun` of their
program: :func:`run_planned_trial` restores the golden run's last
snapshot before the strike, and stops the trial as soon as its state
matches a later snapshot exactly (see ``docs/campaigns.md``).
:func:`landings` walks the same golden run once to find where each
trial will strike.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.codegen.machine import MachineInstr, MachineProgram
from repro.harness.executor import derive_seed
from repro.interp.memory import MemoryError_
from repro.sim.simulator import SimulationError, Simulator, Snapshot

FAULT_VALUE = "value"      # corrupt an instruction's destination register
FAULT_CONTROL = "control"  # corrupt a branch condition (wrong control flow)

#: Version of the fault model: trial planning, site rules, corruption,
#: detection and outcome classification.  Outcome-store section keys mix
#: it in, so bump it whenever a change here can alter any trial's outcome.
FAULT_MODEL_VERSION = "repro.faults/1"

#: Retired instructions between two snapshots of a golden run, at first.
SNAPSHOT_INTERVAL = 4096
#: Snapshots a golden run keeps: at the cap it drops every other one and
#: doubles its interval, so long runs hold no more state than short ones.
MAX_SNAPSHOTS = 16


@dataclass
class FaultPlan:
    """Inject one fault at the Nth dynamically executed instruction.

    ``detection_latency`` models slow detection (paper §6.2: "longer path
    lengths allow execution to proceed speculatively for longer amounts of
    time while potential execution failures remain undetected"): the fault
    is only detected at the first check point at least that many dynamic
    instructions after injection. If a region boundary slips by in the
    meantime, ``rp`` advances past the fault and recovery re-executes a
    region whose inputs are already corrupt — large regions are what make
    long latencies survivable.
    """

    target_instruction: int
    kind: str = FAULT_VALUE
    flip_mask: int = 0x1
    detection_latency: int = 0

    @property
    def strike_count(self) -> int:
        """Retired-instruction count from which the fault strikes a site.

        A value fault corrupts a result after its instruction retires, so
        it strikes the first site retiring at or past
        ``target_instruction``. A control fault flips a branch before it
        issues — the ``bnz`` that will retire at or past the target — so
        it strikes one retired instruction earlier.
        """
        if self.kind == FAULT_CONTROL:
            return self.target_instruction - 1
        return self.target_instruction

    def corrupt(self, value):
        """The faulty value: the opposite branch decision, or a result
        with ``flip_mask`` flipped (floats are negated and shifted)."""
        if self.kind == FAULT_CONTROL:
            return 0 if value else 1
        if isinstance(value, float):
            return -(value + 1.0)
        return value ^ self.flip_mask


@dataclass
class FaultOutcome:
    injected: bool = False
    detected: bool = False
    recovered: bool = False
    crashed: bool = False
    result: object = None
    output: List[object] = field(default_factory=list)
    instructions: int = 0
    recovery_instructions: int = 0
    #: Region key (``func@block.index`` of the restart pointer active at
    #: injection time) — lets campaigns attribute outcomes to regions.
    region: Optional[str] = None
    #: Dynamic instructions between injection and detection (0 when the
    #: fault was never detected) — the detect-latency histograms of the
    #: incremental outcome store are built from this.
    detect_gap: int = 0


REGION_UNKNOWN = "?"


def region_key(sim: Simulator) -> str:
    """Stable key for the region executing now: the active restart pointer.

    Dynamic regions are delimited by restart-pointer updates, so the rp
    location identifies the region an injected fault lands in. ``"?"``
    covers the window before the first rp is established.
    """
    if sim.rp is None:
        return REGION_UNKNOWN
    _depth, loc = sim.rp
    return f"{loc.func}@{loc.block}.{loc.index}"


def value_site(instr: MachineInstr) -> bool:
    """Can a value fault corrupt ``instr``'s result?

    Every register-writing instruction except memory operations, whose
    loads DMR verifies directly.
    """
    return instr.dst is not None and not instr.is_memory


def control_site(instr: MachineInstr) -> bool:
    """Can a control fault flip ``instr``'s decision? Conditional branches."""
    return instr.opcode == "bnz"


class FaultInjector:
    """Drives a simulator run with one planned fault and rp recovery.

    The hooks are the fault model, installed only while there is
    something to watch. Nothing can strike before ``plan.strike_count``
    instructions have retired, so the trial executor arms the injector
    (:meth:`arm`) only once ``plan.strike_count - 1`` have. An armed control
    fault then strikes in the pre-issue hook and an armed value fault in
    the post-retire hook, each at the first site reached once
    ``plan.strike_count`` instructions have retired; the pending fault
    then surfaces in the pre-issue hook of the first check point
    :meth:`detects` accepts, and no hook runs after that. The
    scheme-specific parts are the recovery policy: :attr:`corrupts`,
    :attr:`checkpoints`, :meth:`roll_back` and :meth:`restart_count`.
    None of them restates when a fault strikes or surfaces.
    """

    #: Whether the fault reaches architectural state. A scheme that masks
    #: it (TMR's vote) only marks it, and recovery has nothing to undo.
    corrupts = True
    #: Whether the policy rolls back to the simulator's checkpoint: the
    #: simulator keeps its checkpoint and undo log while the policy
    #: drives it.
    checkpoints = False

    def __init__(
        self, sim: Simulator, plan: Optional[FaultPlan], recover: bool = True
    ) -> None:
        """``plan`` None arms no fault: the policy runs fault-free (a
        :class:`GoldenRun`)."""
        self.sim = sim
        self.plan = plan
        self.recover = recover
        self.outcome = FaultOutcome()
        #: instructions the roll-back re-runs: a trial count less the
        #: fault-free run's count at the same point of the program
        self.rewound = 0
        self._pending = False
        self._injected_at = 0
        sim.checkpointing = self.checkpoints
        self._install(sim, None, None)

    def arm(self, sim: Simulator) -> None:
        """Watch for the strike: hook the sites ``plan`` can strike."""
        plan = self.plan
        self._strike_at = plan.strike_count
        self._install(
            sim,
            self._strike_branch if plan.kind == FAULT_CONTROL else None,
            self._strike_result if plan.kind == FAULT_VALUE else None,
        )

    @property
    def settled(self) -> bool:
        """Has the fault struck and surfaced?  From then on only the
        simulator's state shapes the rest of the run."""
        return self.outcome.injected and not self._pending

    def _install(self, sim: Simulator, pre, post) -> None:
        """Hook the fault model's current phase (None: nothing to watch).

        While hooks are installed the loop leaves the checkpoint and undo
        log to them, so on a checkpointing simulator they keep both around
        the model's: a check point is counted and logged before the model's
        pre hook runs (a strike must leave a clean checkpoint), but not
        when the pending fault surfaces at it, and a call-depth change
        or ``callb`` is checkpointed after the model's post hook.
        """
        if self.checkpoints and (pre is not None or post is not None):
            model_pre, model_post = pre, post

            def pre(sim: Simulator, instr: MachineInstr) -> None:
                sim.checkpoint_before(
                    instr, commits=not (self._pending and self.detects(sim, instr))
                )
                if model_pre is not None:
                    model_pre(sim, instr)

            def post(sim: Simulator, instr: MachineInstr) -> None:
                if model_post is not None:
                    model_post(sim, instr)
                sim.checkpoint_after(instr)

        sim.pre_hook = pre
        sim.post_hook = post

    # ------------------------------------------------------------------
    # The fault model
    # ------------------------------------------------------------------
    def _strike_branch(self, sim: Simulator, instr: MachineInstr) -> None:
        if sim.instructions >= self._strike_at and control_site(instr):
            self._inject(sim, instr.srcs[0])

    def _strike_result(self, sim: Simulator, instr: MachineInstr) -> None:
        if sim.instructions >= self._strike_at and value_site(instr):
            self._inject(sim, instr.dst)

    def _await_detection(self, sim: Simulator, instr: MachineInstr) -> None:
        if self.detects(sim, instr):
            self._detect(sim)

    def detects(self, sim: Simulator, instr: MachineInstr) -> bool:
        """Does a pending fault surface before ``instr`` issues?

        At the first check point at least ``detection_latency`` dynamic
        instructions after injection.
        """
        return (
            instr.opcode in Simulator.CHECK_POINTS
            and sim.instructions - self._injected_at
            >= self.plan.detection_latency
        )

    def _inject(self, sim: Simulator, reg) -> None:
        if self.corrupts:
            sim.set_reg(reg, self.plan.corrupt(sim.get_reg(reg)))
        self.outcome.injected = True
        self.outcome.region = region_key(sim)
        self._injected_at = sim.instructions
        self._pending = True
        self._install(sim, self._await_detection, None)

    def _detect(self, sim: Simulator) -> None:
        outcome = self.outcome
        outcome.detected = True
        outcome.detect_gap = sim.instructions - self._injected_at
        self._pending = False
        self._install(sim, None, None)
        if not self.recover:
            return
        if self.corrupts:
            mark = sim.instructions
            self.rewound = mark - self.restart_count(sim)
            self.roll_back(sim)
            sim.redirect()
            outcome.recovery_instructions = mark
        outcome.recovered = True

    # ------------------------------------------------------------------
    # Recovery policy
    # ------------------------------------------------------------------
    def roll_back(self, sim: Simulator) -> None:
        """Undo the fault's effects; execution resumes at ``sim.loc``.

        The idempotence scheme: discard the unverified stores and jump to
        the restart pointer.
        """
        sim.recover_to_rp()

    def restart_count(self, sim: Simulator) -> int:
        """The count at which the run stood where :meth:`roll_back`
        resumes: here, where ``rp`` was last set."""
        return sim.rp_count


#: Instruction budget of one fault trial: a fault that makes the
#: program run away crashes at this count.
TRIAL_MAX_INSTRUCTIONS = 50_000_000


def run_with_fault(
    program: MachineProgram,
    plan: FaultPlan,
    func: str = "main",
    args: Tuple = (),
    recover: bool = True,
    max_instructions: int = TRIAL_MAX_INSTRUCTIONS,
    injector_factory: Optional[Callable[..., object]] = None,
) -> FaultOutcome:
    """Execute ``func`` with one injected fault; returns the outcome.

    ``injector_factory`` selects the recovery scheme driving the run —
    any callable with :class:`FaultInjector`'s ``(sim, plan, recover)``
    signature returning a :class:`FaultInjector`. The default is the
    paper's idempotence scheme (``FaultInjector``); the alternatives
    live in :mod:`repro.recovery.backends`.

    A run the fault makes trap (an unmapped address, a zero divisor, a
    math domain error) or run away is ``crashed``; any other exception
    is a simulator bug and propagates.
    """
    sim = Simulator(program, max_instructions=max_instructions, timed=False)
    return _execute(sim, plan, func, args, recover, injector_factory)


@dataclass
class GoldenRun:
    """One fault-free run of a program under a recovery policy, recorded
    for trials to fork from (:func:`record_golden_run`).

    ``forks`` are its snapshots in count order; a checkpoint-and-log
    policy's checkpoint and undo log are part of them.  ``sim`` is the
    decoded simulator that every trial forked from this run, and the
    walk of :func:`landings`, reuse, with the trial budget
    :data:`TRIAL_MAX_INSTRUCTIONS`, and ``start`` its state before the
    run began.
    """

    sim: Simulator
    start: Snapshot
    forks: List[Snapshot]
    result: object
    output: List[object]
    instructions: int

    @property
    def span(self) -> int:
        return target_span(self.instructions)

    def fork_for(self, plan: FaultPlan) -> int:
        """How many of ``forks`` precede ``plan``'s strike: a trial
        forks from the last of them (from ``start`` when there is none)."""
        counts = [snapshot.instructions for snapshot in self.forks]
        return bisect_left(counts, plan.strike_count)


def record_golden_run(
    program: MachineProgram,
    func: str = "main",
    args: Tuple = (),
    injector_factory: Optional[Callable[..., object]] = None,
) -> GoldenRun:
    """Run ``program`` fault-free under the policy of ``injector_factory``
    (no fault armed), snapshotting every :data:`SNAPSHOT_INTERVAL`
    retired instructions; at most :data:`MAX_SNAPSHOTS` are kept.

    The run has the trial budget :data:`TRIAL_MAX_INSTRUCTIONS`: one that
    traps or runs past it raises, as any fault-free run does.
    """
    sim = Simulator(program, max_instructions=TRIAL_MAX_INSTRUCTIONS, timed=False)
    start = sim.snapshot()
    (injector_factory or FaultInjector)(sim, None)
    forks: List[Snapshot] = []
    interval = SNAPSHOT_INTERVAL
    sim.start(func, args)
    while not sim.resume((sim.instructions // interval + 1) * interval):
        forks.append(sim.snapshot())
        if len(forks) == MAX_SNAPSHOTS:
            forks = forks[1::2]  # those at multiples of the doubled interval
            interval *= 2
    return GoldenRun(
        sim=sim, start=start, forks=forks, result=sim.result,
        output=list(sim.output), instructions=sim.instructions,
    )


class _SiteMarker(FaultInjector):
    """The injector, marking where its plan strikes and changing nothing:
    the strike takes TMR's path (``corrupts`` False), and the marker
    disarms there instead of awaiting detection."""

    corrupts = False

    def _inject(self, sim: Simulator, reg) -> None:
        super()._inject(sim, reg)
        self._install(sim, None, None)


def landings(
    golden: GoldenRun,
    plans: Sequence[FaultPlan],
    func: str = "main",
    args: Tuple = (),
) -> List[Optional[Tuple[int, str]]]:
    """Where each of ``plans`` (all of one kind) strikes: the count and
    region the injector records there, or None for a plan that would
    strike past the last fault site.

    One fault-free walk over ``golden``, in strike order.  Up to its
    strike a trial *is* the fault-free run, so the walk arms an injector
    (:class:`_SiteMarker`) exactly as :func:`_execute` does: it restores
    the last snapshot before the strike when that lies ahead of the walk,
    runs with no hook to ``strike_count - 1``, arms, and steps until the
    strike.  A plan whose strike count is at most the last landing's
    lands there too, since no site lies between.  So no instruction runs
    twice, hooks run only between arming and striking, and the marker,
    which rolls nothing back, has the simulator keep no checkpoint log.
    """
    sim = golden.sim
    found: List[Optional[Tuple[int, str]]] = [None] * len(plans)
    last: Optional[Tuple[int, str]] = None
    ended = False
    sim.restore(golden.start)
    sim.start(func, args)
    for i in sorted(range(len(plans)), key=lambda i: plans[i].strike_count):
        plan = plans[i]
        if last is not None and plan.strike_count <= last[0]:
            found[i] = last
            continue
        if ended:
            continue
        after = golden.fork_for(plan)
        if after and golden.forks[after - 1].instructions > sim.instructions:
            sim.restore(golden.forks[after - 1])
        marker = _SiteMarker(sim, plan, recover=False)
        arm_at = plan.strike_count - 1
        if arm_at > sim.instructions and sim.resume(arm_at):
            ended = True
            continue
        marker.arm(sim)
        while not (marker.outcome.injected or ended):
            ended = sim.resume(sim.instructions + 1)
        if marker.outcome.injected:
            last = found[i] = (marker._injected_at, marker.outcome.region)
    return found


def _execute(
    sim: Simulator,
    plan: FaultPlan,
    func: str,
    args: Tuple,
    recover: bool,
    injector_factory: Optional[Callable[..., object]],
    golden: Optional[GoldenRun] = None,
) -> FaultOutcome:
    """The trial executor: run ``plan`` on ``sim`` and judge the outcome.

    Without ``golden`` the trial is a full run from the start.  With it,
    the trial forks from the golden run's last snapshot before the strike
    (``sim`` is ``golden.sim``) and, once the fault has struck and
    surfaced, compares its state with each later snapshot at the trial
    count that lines up with it: the snapshot's count plus the
    instructions the roll-back rewound.  On an exact match (see
    :meth:`Simulator.matches`) the rest of the trial is the golden run's
    rest, so the result and output are the golden run's and the count is
    the golden total plus the trial's excess.  A match whose total would
    pass ``max_instructions`` is not taken: the trial runs on and crashes
    where the full run would.
    """
    forks = golden.forks if golden is not None else []
    after = golden.fork_for(plan) if golden is not None else 0
    if golden is not None:
        sim.restore(forks[after - 1] if after else golden.start)
    injector = (injector_factory or FaultInjector)(sim, plan, recover=recover)
    outcome = injector.outcome
    forked_at = sim.instructions
    rejoined: Optional[Snapshot] = None
    try:
        if not after:
            sim.start(func, args)
        # Nothing strikes before this count: run there with no fault hook.
        arm_at = plan.strike_count - 1
        if arm_at <= sim.instructions or not sim.resume(arm_at):
            injector.arm(sim)
            rejoined = _until_rejoined(sim, injector, golden, after)
        outcome.result = sim.result if rejoined is None else golden.result
    except (MemoryError_, SimulationError):
        outcome.crashed = True
    obs.counter("faults.simulated_instructions").inc(sim.instructions - forked_at)
    if rejoined is None:
        outcome.output = list(sim.output)
        outcome.instructions = sim.instructions
        end = "crashed" if outcome.crashed else "ran_to_end"
    else:
        outcome.output = list(golden.output)
        outcome.instructions = (
            golden.instructions + sim.instructions - rejoined.instructions
        )
        end = "converged"
    obs.counter("faults.trials").inc(end=end)
    return outcome


def _until_rejoined(
    sim: Simulator,
    injector: FaultInjector,
    golden: Optional[GoldenRun],
    position: int,
) -> Optional[Snapshot]:
    """Run the trial on until it ends (None) or its state matches one of
    ``golden.forks[position:]`` (that snapshot)."""
    forks = golden.forks if golden is not None else []
    while True:
        pause = None
        while position < len(forks):
            at = forks[position].instructions + injector.rewound
            if at >= sim.instructions:
                pause = at
                break
            position += 1
        if sim.resume(pause):
            return None
        snapshot = forks[position]
        if sim.instructions != snapshot.instructions + injector.rewound:
            continue  # a roll-back since the pause moved the alignment
        position += 1
        excess = sim.instructions - snapshot.instructions
        if golden.instructions + excess > sim.max_instructions:
            position = len(forks)  # no match can be taken: run to the end
        elif injector.settled and sim.matches(snapshot):
            return snapshot


@dataclass
class CampaignResult:
    """Aggregate of a fault-injection campaign.

    Injected trials land in exactly one of four disjoint buckets:
    ``crashed``, ``recovered_correctly`` (detected *and* reproduced the
    reference), ``wrong_result`` (diverged from the reference, whether
    or not detection fired), or ``undetected`` (the fault slipped past
    every check point — detection latency ran past program end — yet
    the result happened to be correct).  An undetected fault is never
    reported as recovered: nothing recovered it.
    """

    trials: int = 0
    injected: int = 0
    detected: int = 0
    recovered_correctly: int = 0
    wrong_result: int = 0
    crashed: int = 0
    undetected: int = 0

    @property
    def recovery_rate(self) -> float:
        """Fraction of injected faults recovered correctly.

        A campaign that injected nothing has no recovery rate: it
        returns NaN rather than a misleading 0.0 (which reads as "every
        fault was lost") — use :func:`format_rate` for display.
        """
        if not self.injected:
            return float("nan")
        return self.recovered_correctly / self.injected

    def count(self, bucket: Optional[str], detected: bool = False) -> None:
        """Tally one trial classified by :func:`classify_outcome`
        (``bucket`` is None when nothing was injected)."""
        self.trials += 1
        if bucket is None:
            return
        self.injected += 1
        if detected:
            self.detected += 1
        setattr(self, bucket, getattr(self, bucket) + 1)

    def merge(self, other: "CampaignResult") -> "CampaignResult":
        """Fold in another shard of the same campaign (in place)."""
        self.trials += other.trials
        self.injected += other.injected
        self.detected += other.detected
        self.recovered_correctly += other.recovered_correctly
        self.wrong_result += other.wrong_result
        self.crashed += other.crashed
        self.undetected += other.undetected
        return self


def format_rate(result: CampaignResult) -> str:
    """``recovery_rate`` for reports: ``"n/a"`` when nothing was injected."""
    if not result.injected:
        return "n/a"
    return f"{result.recovery_rate:.0%}"


def classify_outcome(
    outcome: FaultOutcome,
    reference_result: object,
    reference_output: List[object],
) -> Optional[str]:
    """Bucket name for one trial outcome, ``None`` if nothing was injected.

    The four disjoint buckets of :class:`CampaignResult`, in the same
    precedence order every campaign has always used: ``crashed`` beats
    ``wrong_result`` beats ``recovered_correctly`` beats ``undetected``.
    """
    if not outcome.injected:
        return None
    correct = (
        outcome.result == reference_result
        and outcome.output == reference_output
    )
    if outcome.crashed:
        return "crashed"
    if not correct:
        return "wrong_result"
    if outcome.detected:
        return "recovered_correctly"
    # Fault injected, never detected (latency outlived the program),
    # result coincidentally correct: benign, but NOT a recovery —
    # nothing recovered it.
    return "undetected"


def trial_plan(
    campaign_seed: int,
    index: int,
    span: int,
    kind: str = FAULT_VALUE,
    detection_latency: int = 0,
) -> FaultPlan:
    """The fault plan of trial ``index`` in a campaign.

    The per-trial RNG is seeded spawn-key style from the campaign seed
    and the trial index (not drawn from one sequential stream), so any
    sharding of the trial range over processes injects exactly the fault
    set a serial campaign does.
    """
    rng = random.Random(derive_seed(campaign_seed, "trial", index))
    return FaultPlan(
        target_instruction=rng.randrange(1, span),
        kind=kind,
        detection_latency=detection_latency,
    )


def campaign_span(
    program: MachineProgram,
    func: str = "main",
    args: Tuple = (),
) -> int:
    """The fault-target range of a campaign over ``program``.

    One fault-free run measures the dynamic instruction count; targets
    are drawn uniformly from ``[1, span)`` so every campaign (monolithic
    or per-section) over the same program faces the identical target
    distribution.
    """
    baseline = Simulator(program, timed=False)
    baseline.run(func, args)
    return target_span(baseline.instructions)


def target_span(instructions: int) -> int:
    """The span (targets are ``[1, span)``) of a fault-free run that
    retires ``instructions``."""
    return max(instructions - 2, 1)


def run_planned_trial(
    program: MachineProgram,
    seed: int,
    index: int,
    span: int,
    func: str = "main",
    args: Tuple = (),
    kind: str = FAULT_VALUE,
    detection_latency: int = 0,
    recover: bool = True,
    injector_factory: Optional[Callable[..., object]] = None,
    golden: Optional[GoldenRun] = None,
) -> FaultOutcome:
    """Execute campaign trial ``index`` exactly as :func:`fault_campaign` would.

    Trial identity is ``(seed, index, span)`` alone, so any partition of
    a campaign's index range — such as the per-region sections of
    :mod:`repro.harness.incremental` — reproduces the monolithic run's
    outcomes bit for bit.  With ``golden`` (a :func:`record_golden_run`
    of ``program``, ``func`` and ``args`` under ``injector_factory``'s
    policy) the trial forks from it and stops where it rejoins it, with
    every outcome field as the full run's.
    """
    plan = trial_plan(
        seed, index, span, kind=kind, detection_latency=detection_latency
    )
    if golden is None:
        return run_with_fault(
            program, plan, func=func, args=args, recover=recover,
            injector_factory=injector_factory,
        )
    return _execute(
        golden.sim, plan, func, args, recover, injector_factory, golden
    )


def fault_campaign(
    program: MachineProgram,
    reference_result: object,
    reference_output: List[object],
    trials: int = 50,
    func: str = "main",
    args: Tuple = (),
    kind: str = FAULT_VALUE,
    seed: int = 12345,
    recover: bool = True,
    detection_latency: int = 0,
    injector_factory: Optional[Callable[..., object]] = None,
    per_region: Optional[Dict[str, CampaignResult]] = None,
) -> CampaignResult:
    """Inject ``trials`` faults at random points; compare against reference.

    One golden run (:func:`record_golden_run`) measures the fault-free
    dynamic instruction count first, so targets are uniform over the
    execution, and every trial forks from it.  Trial ``i`` is
    :func:`run_planned_trial` at ``(seed, i, span)``, so any partition of
    ``range(trials)`` run trial by trial measures the identical fault set.

    ``injector_factory`` swaps the recovery scheme (see
    :func:`run_with_fault`); the trial plans depend only on the baseline
    instruction count, so two schemes running the same ``program`` face
    the identical fault set.  Pass a dict as ``per_region`` to
    additionally collect one :class:`CampaignResult` per region key
    (keyed by :func:`region_key` at injection time).
    """
    golden = record_golden_run(
        program, func=func, args=args, injector_factory=injector_factory
    )

    result = CampaignResult()
    for index in range(trials):
        outcome = run_planned_trial(
            program, seed, index, golden.span, func=func, args=args,
            kind=kind, detection_latency=detection_latency, recover=recover,
            injector_factory=injector_factory, golden=golden,
        )
        bucket = classify_outcome(outcome, reference_result, reference_output)
        result.count(bucket, outcome.detected)
        if per_region is not None and bucket is not None:
            per_region.setdefault(
                outcome.region or REGION_UNKNOWN, CampaignResult()
            ).count(bucket, outcome.detected)
    _publish_campaign_metrics(result, kind)
    return result


def _publish_campaign_metrics(result: CampaignResult, kind: str) -> None:
    """Fault-detection event totals onto the ``repro.obs`` registry."""
    events = obs.counter("sim.fault_events")
    for outcome in ("trials", "injected", "detected", "recovered_correctly",
                    "wrong_result", "crashed", "undetected"):
        count = getattr(result, outcome)
        if count:
            events.inc(count, outcome=outcome, kind=kind)
