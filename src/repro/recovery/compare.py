"""`repro recovery compare`: predicted vs measured outcomes per backend.

For each workload × backend the driver runs the store-backed fault
campaign of `repro campaign` (same section engine, same spawn-key seed
derivation, so the idempotent rows here are bit-identical to campaign
units at the same parameters), profiles the campaign binary fault-free
to build region features, and holds the static predictor of :mod:`repro.recovery.predict` to the
measured per-region recovery rates. Regions whose disagreement exceeds
the threshold are flagged; ``--hunt`` searches fuzz-generated programs
for the worst program-level divergence and feeds the fuzz reducer a
minimized reproducer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler import compile_minic
from repro.harness.executor import derive_seed
from repro.recovery.backends import BACKEND_NAMES, get_backend
from repro.recovery.checkpoint import mean_checkpoint_words, module_checkpoint_plans
from repro.recovery.predict import (
    OutcomePrediction,
    RegionComparison,
    compare_predictions,
    mean_absolute_error,
    predict_outcomes,
    profile_regions,
)
from repro.recovery.schemes import SCHEME_DMR, SCHEME_IDEMPOTENCE, compare_schemes
from repro.sim.faults import FAULT_VALUE, CampaignResult, format_rate
from repro.sim.simulator import CHECKPOINT_INTERVAL, Simulator

DEFAULT_TRIALS = 24
DEFAULT_THRESHOLD = 0.25


@dataclass
class BackendReport:
    """One workload under one backend: price, buckets, prediction."""

    backend: str
    overhead: float
    campaign: CampaignResult
    prediction: OutcomePrediction
    regions: List[RegionComparison] = field(default_factory=list)

    @property
    def measured_rate(self) -> Optional[float]:
        if not self.campaign.injected:
            return None
        return self.campaign.recovery_rate

    @property
    def mae(self) -> Optional[float]:
        return mean_absolute_error(self.regions)


@dataclass
class WorkloadReport:
    workload: str
    checkpoint_words: float  # mean live words per static checkpoint
    checkpoint_boundaries: int
    backends: List[BackendReport] = field(default_factory=list)


@dataclass
class CompareReport:
    workloads: List[WorkloadReport]
    backends: Tuple[str, ...]
    trials: int
    seed: int
    kind: str
    latency: int
    threshold: float

    def region_rows(self) -> List[Tuple[str, str, RegionComparison]]:
        return [
            (wl.workload, backend.backend, row)
            for wl in self.workloads
            for backend in wl.backends
            for row in backend.regions
        ]

    def flagged(self) -> List[Tuple[str, str, RegionComparison]]:
        return [
            (name, backend, row)
            for name, backend, row in self.region_rows()
            if row.error > self.threshold
        ]

    @property
    def mae(self) -> Optional[float]:
        return mean_absolute_error(
            [row for _name, _backend, row in self.region_rows()]
        )


def parse_backend_names(names: Optional[Sequence[str]]) -> Tuple[str, ...]:
    """Validate a backend subset; unknown names list the valid choices."""
    if not names:
        return BACKEND_NAMES
    unknown = [name for name in names if name not in BACKEND_NAMES]
    if unknown:
        raise ValueError(
            f"unknown recovery backend(s) {', '.join(sorted(unknown))} "
            f"(valid: {', '.join(BACKEND_NAMES)})"
        )
    return tuple(names)


def compare_workload(
    name: str,
    backends: Sequence[str] = BACKEND_NAMES,
    trials: int = DEFAULT_TRIALS,
    seed: int = 12345,
    kind: str = FAULT_VALUE,
    latency: int = 0,
) -> WorkloadReport:
    """Run every backend's campaign + prediction for one workload.

    The per-backend campaigns go through the section engine
    (:func:`repro.harness.incremental.incremental_campaign`): sections
    already in the outcome store compose and only missing ones inject.
    Results and the per-region join are bit-identical to
    ``backend.campaign`` at equal budgets.
    """
    from repro.experiments.common import build_pair
    from repro.harness.incremental import incremental_campaign
    from repro.workloads import get_workload

    workload = get_workload(name)
    original, idempotent = build_pair(name)
    runs = compare_schemes(
        original.program, idempotent.program, func=workload.entry
    )
    # Every scheme computed the same answer (compare_schemes asserts it),
    # so the idempotence run doubles as the campaign reference.
    reference = runs[SCHEME_IDEMPOTENCE]

    plans = module_checkpoint_plans(idempotent.module)
    report = WorkloadReport(
        workload=name,
        checkpoint_words=mean_checkpoint_words(plans),
        checkpoint_boundaries=sum(p.boundaries for p in plans.values()),
    )
    for backend_name in backends:
        backend = get_backend(backend_name)
        program = backend.campaign_program(original.program, idempotent.program)
        profiles, _result, _sim = profile_regions(program, func=workload.entry)
        prediction = predict_outcomes(
            profiles, backend_name, latency=latency, kind=kind,
            interval=CHECKPOINT_INTERVAL,
        )
        per_region: Dict[str, CampaignResult] = {}
        campaign = incremental_campaign(
            original.program,
            idempotent.program,
            reference.result,
            reference.output,
            trials=trials,
            func=workload.entry,
            kind=kind,
            seed=derive_seed(seed, name, backend.seed_key),
            detection_latency=latency,
            backend=backend,
            name=name,
            per_region=per_region,
        ).result
        report.backends.append(
            BackendReport(
                backend=backend_name,
                overhead=runs[backend.scheme].overhead_vs(runs[SCHEME_DMR]),
                campaign=campaign,
                prediction=prediction,
                regions=compare_predictions(prediction, per_region),
            )
        )
    return report


def run_compare(
    names: Optional[Sequence[str]] = None,
    backends: Optional[Sequence[str]] = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = 12345,
    kind: str = FAULT_VALUE,
    latency: int = 0,
    threshold: float = DEFAULT_THRESHOLD,
) -> CompareReport:
    """The full predicted-vs-measured sweep (default: every workload)."""
    from repro.experiments.common import resolve_workloads

    backend_names = parse_backend_names(backends)
    workloads = resolve_workloads(names)
    return CompareReport(
        workloads=[
            compare_workload(
                workload.name, backend_names, trials=trials, seed=seed,
                kind=kind, latency=latency,
            )
            for workload in workloads
        ],
        backends=backend_names,
        trials=trials,
        seed=seed,
        kind=kind,
        latency=latency,
        threshold=threshold,
    )


def format_compare_report(report: CompareReport) -> str:
    """Human-readable tables: overhead-vs-recovery, regions, verdict."""
    from repro.experiments.common import format_table

    lines = [
        "recovery zoo: predicted vs measured outcomes "
        f"(kind={report.kind}, trials={report.trials}/backend, "
        f"seed={report.seed}, latency={report.latency})",
        "",
    ]
    rows = []
    for wl in report.workloads:
        for backend in wl.backends:
            predicted = backend.prediction.p_recovered
            measured = backend.measured_rate
            rows.append([
                wl.workload,
                backend.backend,
                f"{backend.overhead:+.1%}",
                backend.campaign.injected,
                backend.campaign.recovered_correctly,
                backend.campaign.wrong_result,
                backend.campaign.crashed,
                backend.campaign.undetected,
                format_rate(backend.campaign),
                f"{predicted:.0%}",
                "n/a" if measured is None else f"{abs(predicted - measured):.2f}",
            ])
    lines.append(format_table(
        ["workload", "backend", "overhead", "injected", "recovered",
         "wrong", "crashed", "undetected", "measured", "predicted", "|err|"],
        rows,
    ))

    region_rows = report.region_rows()
    if region_rows:
        lines.append("")
        lines.append("per-region (regions that received injections):")
        lines.append(format_table(
            ["workload", "backend", "region", "injected",
             "measured", "predicted", "|err|"],
            [
                [name, backend, row.key, row.injected,
                 f"{row.measured:.0%}", f"{row.predicted:.0%}",
                 f"{row.error:.2f}"]
                for name, backend, row in region_rows
            ],
        ))

    lines.append("")
    lines.append("static checkpoint sets (idempotent build live-ins):")
    lines.append(format_table(
        ["workload", "boundaries", "mean words/checkpoint"],
        [
            [wl.workload, wl.checkpoint_boundaries, f"{wl.checkpoint_words:.1f}"]
            for wl in report.workloads
        ],
    ))

    flagged = report.flagged()
    mae = report.mae
    lines.append("")
    if mae is None:
        lines.append("predictor MAE: n/a (no injected regions)")
    else:
        lines.append(
            f"predictor MAE: {mae:.3f} over {len(region_rows)} region samples "
            f"({len(flagged)} exceeding threshold {report.threshold:.2f})"
        )
    for name, backend, row in flagged:
        lines.append(
            f"  FLAGGED {name}/{backend} {row.key}: "
            f"predicted {row.predicted:.0%} vs measured {row.measured:.0%}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Divergence hunting: fuzz programs where the predictor is most wrong
# ----------------------------------------------------------------------

def measure_divergence(
    source: str,
    backend_name: str = "idempotent",
    trials: int = 16,
    seed: int = 12345,
    kind: str = FAULT_VALUE,
    latency: int = 4,
) -> float:
    """Program-level |predicted − measured| recovery rate on one source.

    Returns 0.0 when the campaign injects nothing (no divergence
    evidence either way).  The campaign runs in memory
    (``backend.campaign``), so throwaway hunt programs never fill the
    outcome store.
    """
    original = compile_minic(source, idempotent=False)
    idempotent = compile_minic(source, idempotent=True)
    sim = Simulator(idempotent.program, timed=False)
    reference = sim.run("main", ())
    reference_output = list(sim.output)

    backend = get_backend(backend_name)
    program = backend.campaign_program(original.program, idempotent.program)
    profiles, _result, _sim = profile_regions(program)
    prediction = predict_outcomes(
        profiles, backend_name, latency=latency, kind=kind,
        interval=CHECKPOINT_INTERVAL,
    )
    campaign = backend.campaign(
        original.program, idempotent.program, reference, reference_output,
        trials=trials, kind=kind, seed=seed, detection_latency=latency,
    )
    if not campaign.injected:
        return 0.0
    return abs(prediction.p_recovered - campaign.recovery_rate)


@dataclass
class HuntResult:
    """Worst predictor divergence found over fuzz-generated programs."""

    programs: int
    worst_seed: Optional[int] = None
    worst_divergence: float = 0.0
    reduced_source: Optional[str] = None
    reduced_path: Optional[str] = None
    reduce_steps: int = 0


def hunt_divergence(
    count: int,
    hunt_seed: int = 0,
    backend_name: str = "idempotent",
    trials: int = 16,
    kind: str = FAULT_VALUE,
    latency: int = 4,
    threshold: float = DEFAULT_THRESHOLD,
    out_dir: Optional[str] = None,
) -> HuntResult:
    """Scan ``count`` generated programs; minimize the worst divergence.

    Programs come from the fuzz generator's seed derivation
    (``generate(trial_seed(hunt_seed, i))``), so the scan is fully
    reproducible. If the worst divergence reaches ``threshold`` the
    program is handed to the fuzz reducer with a
    divergence-at-least-threshold predicate, and the minimized source is
    written to ``out_dir`` with a provenance header.
    """
    import os

    from repro.fuzz.generator import generate, render, trial_seed
    from repro.fuzz.reduce import reduce_spec

    result = HuntResult(programs=count)
    worst_program = None
    for index in range(count):
        program = generate(trial_seed(hunt_seed, index))
        divergence = measure_divergence(
            program.source, backend_name, trials=trials,
            kind=kind, latency=latency,
        )
        if worst_program is None or divergence > result.worst_divergence:
            result.worst_divergence = divergence
            result.worst_seed = program.seed
            worst_program = program

    if worst_program is None or result.worst_divergence < threshold:
        return result

    def predicate(source: str) -> bool:
        return measure_divergence(
            source, backend_name, trials=trials, kind=kind, latency=latency,
        ) >= threshold

    reduced = reduce_spec(worst_program.spec, predicate)
    result.reduced_source = reduced.source
    result.reduce_steps = reduced.steps
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(
            out_dir, f"divergence-{backend_name}-s{result.worst_seed}.c"
        )
        header = (
            f"// predictor divergence reproducer (backend={backend_name})\n"
            f"// hunt_seed={hunt_seed} gen_seed={result.worst_seed} "
            f"trials={trials} kind={kind} latency={latency}\n"
            f"// divergence={result.worst_divergence:.3f} "
            f"threshold={threshold:.2f} reduce_steps={reduced.steps}\n"
        )
        with open(path, "w") as handle:
            handle.write(header + reduced.source)
        result.reduced_path = path
    return result
