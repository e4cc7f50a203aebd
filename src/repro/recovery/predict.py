"""Static per-region fault-outcome prediction (predicted vs measured).

The paper's §6.2 observation — "longer path lengths allow execution to
proceed speculatively for longer ... while potential execution failures
remain undetected" — is a *predictable* hazard: a fault injected in a
region is unrecoverable by the idempotence scheme exactly when a region
boundary slips past during the detection-latency window, because ``rp``
then advances over the corrupt state. The probability of that slip is
(to first order) the latency over the region's dynamic path length.

This module builds the per-region features (a cheap fault-free profiling
run keyed by the same ``rp``-derived region keys the injectors use for
attribution) and turns them into per-region outcome probabilities for
each backend:

- ``idempotent``: hazard window = the region's mean dynamic length;
  ``p(wrong) ≈ min(1, latency / length)``.
- ``checkpoint_log``: same hazard, but the window is the checkpoint
  spacing (``interval`` check points) rather than the region length.
- ``tmr``: the vote corrects in place; ``p(wrong) ≈ 0``.

All backends share the tail hazard: a fault injected within ``latency``
of program end is never detected (``undetected`` bucket). The model is
deliberately coarse — its purpose is to be *checked* against measured
campaign rates (``repro recovery compare``), with regions whose
disagreement exceeds a threshold flagged as predictor defects worth a
minimized reproducer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.codegen.machine import MachineInstr, MachineProgram
from repro.sim import faults
from repro.sim.faults import CampaignResult, region_key
from repro.sim.simulator import CHECKPOINT_INTERVAL, Simulator


@dataclass
class RegionProfile:
    """Dynamic shape of one region, from a fault-free profiling run."""

    key: str
    entries: int = 0       # dynamic executions of the region
    instructions: int = 0  # dynamic instructions attributed to it
    eligible: int = 0      # value-fault sites (faults.value_site)
    branches: int = 0      # control-fault sites (faults.control_site)
    checks: int = 0        # dynamic check points (detection opportunities)

    @property
    def mean_length(self) -> float:
        """Mean dynamic instructions per execution of the region."""
        if not self.entries:
            return 0.0
        return self.instructions / self.entries

    @property
    def mean_check_gap(self) -> float:
        """Mean dynamic instructions between check points in the region."""
        if not self.checks:
            return float(self.instructions or 1)
        return self.instructions / self.checks


def profile_regions(
    program: MachineProgram,
    func: str = "main",
    args: Tuple = (),
    max_instructions: int = 50_000_000,
) -> Tuple[Dict[str, RegionProfile], object, Simulator]:
    """One fault-free run collecting per-region dynamic features.

    Regions are keyed by :func:`repro.sim.faults.region_key` — the
    restart pointer active at each instruction — so profile keys line up
    exactly with the ``region`` attribution on campaign outcomes, and
    fault sites are counted by the fault model's own site rule.
    Returns ``(profiles, result, sim)``.
    """
    sim = Simulator(program, max_instructions=max_instructions, timed=False)
    profiles: Dict[str, RegionProfile] = {}
    current = [None]
    value_site, control_site = faults.value_site, faults.control_site

    def pre(s: Simulator, instr: MachineInstr) -> None:
        key = region_key(s)
        profile = profiles.get(key)
        if profile is None:
            profile = profiles[key] = RegionProfile(key=key)
        if key != current[0]:
            profile.entries += 1
            current[0] = key
        profile.instructions += 1
        if value_site(instr):
            profile.eligible += 1
        if control_site(instr):
            profile.branches += 1
        if instr.opcode in Simulator.CHECK_POINTS:
            profile.checks += 1

    sim.pre_hook = pre
    result = sim.run(func, args)
    return profiles, result, sim


@dataclass
class RegionPrediction:
    """Predicted outcome distribution for faults landing in one region."""

    key: str
    weight: float        # share of the program's fault targets
    p_recovered: float
    p_wrong: float
    p_undetected: float


@dataclass
class OutcomePrediction:
    """Program-level prediction: weighted mix of the per-region models."""

    backend: str
    latency: int
    regions: Dict[str, RegionPrediction] = field(default_factory=dict)
    p_recovered: float = 0.0
    p_wrong: float = 0.0
    p_undetected: float = 0.0


def _slip_probability(latency: int, window: float) -> float:
    """P(the hazard window ends within ``latency`` of the fault)."""
    if latency <= 0:
        return 0.0
    if window <= 0:
        return 1.0
    return min(1.0, latency / window)


def predict_outcomes(
    profiles: Dict[str, RegionProfile],
    backend: str,
    latency: int = 0,
    kind: str = "value",
    interval: int = CHECKPOINT_INTERVAL,
) -> OutcomePrediction:
    """Static outcome probabilities per region and program-wide.

    ``interval`` is the checkpoint spacing (in check points) of the
    checkpoint-and-log backend; ignored for the others.
    """
    total_instructions = sum(p.instructions for p in profiles.values())
    weight_attr = "eligible" if kind == "value" else "branches"
    total_targets = sum(getattr(p, weight_attr) for p in profiles.values())

    # Tail hazard (all backends): a fault within `latency` of program end
    # reaches no further check point, so detection never fires.
    p_tail = _slip_probability(latency, float(total_instructions))

    prediction = OutcomePrediction(backend=backend, latency=latency)
    for key, profile in profiles.items():
        targets = getattr(profile, weight_attr)
        weight = targets / total_targets if total_targets else 0.0
        if backend == "tmr":
            p_wrong = 0.0
        elif backend == "checkpoint_log":
            window = interval * profile.mean_check_gap
            p_wrong = _slip_probability(latency, window)
        else:  # idempotent: boundary slip within the region
            p_wrong = _slip_probability(latency, profile.mean_length)
        p_wrong *= 1.0 - p_tail
        prediction.regions[key] = RegionPrediction(
            key=key,
            weight=weight,
            p_recovered=max(0.0, 1.0 - p_wrong - p_tail),
            p_wrong=p_wrong,
            p_undetected=p_tail,
        )

    prediction.p_wrong = sum(
        r.weight * r.p_wrong for r in prediction.regions.values()
    )
    prediction.p_undetected = p_tail
    prediction.p_recovered = max(
        0.0, 1.0 - prediction.p_wrong - prediction.p_undetected
    )
    return prediction


def measured_region_results(
    records: Sequence[dict],
    indices_by_region: Optional[Dict[str, Set[int]]] = None,
) -> Dict[str, CampaignResult]:
    """Fold outcome-store section records into per-region measured buckets.

    ``records`` are :data:`repro.harness.incremental.STORE_SCHEMA` section
    records; each trial row is ``[index, bucket, detected, detect_gap]``.
    ``indices_by_region`` (region key -> allowed trial indices) restricts
    the fold to the trials a specific campaign budget needs — a record
    accumulated at a larger budget composes down to exactly the requested
    one, which is what keeps composed campaigns bit-identical to
    monolithic ones.  The result joins directly against
    :func:`compare_predictions`.
    """
    regions: Dict[str, CampaignResult] = {}
    for record in records:
        region = str(record.get("region", "?"))
        allowed: Optional[Set[int]] = None
        if indices_by_region is not None:
            allowed = indices_by_region.get(region, set())
        sub = regions.setdefault(region, CampaignResult())
        for row in record.get("trials", []):
            index, bucket, detected = int(row[0]), str(row[1]), row[2]
            if allowed is not None and index not in allowed:
                continue
            sub.count(bucket, detected)
    return regions


@dataclass
class RegionComparison:
    """Predicted vs measured recovery rate for one region."""

    key: str
    injected: int
    predicted: float
    measured: float

    @property
    def error(self) -> float:
        return abs(self.predicted - self.measured)


def compare_predictions(
    prediction: OutcomePrediction,
    per_region: Dict[str, CampaignResult],
) -> List[RegionComparison]:
    """Join predictions with measured per-region campaign buckets.

    Only regions that actually received injections are comparable; a
    measured region missing from the profile (possible only for the
    pre-``rp`` window ``"?"``) is compared against the program-level
    prediction.
    """
    rows: List[RegionComparison] = []
    for key, measured in sorted(per_region.items()):
        if not measured.injected:
            continue
        region = prediction.regions.get(key)
        predicted = region.p_recovered if region else prediction.p_recovered
        rows.append(
            RegionComparison(
                key=key,
                injected=measured.injected,
                predicted=predicted,
                measured=measured.recovered_correctly / measured.injected,
            )
        )
    return rows


def mean_absolute_error(rows: List[RegionComparison]) -> Optional[float]:
    """Unweighted MAE over comparable regions; ``None`` with no data."""
    if not rows:
        return None
    return sum(row.error for row in rows) / len(rows)
