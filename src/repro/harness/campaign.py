"""Resumable campaign orchestration.

A *campaign* is a set of independent work units (e.g. every
workload × binary-flavour × trial-shard of a fault-injection study).
:class:`CampaignRunner` executes units through a
:class:`~repro.harness.executor.TaskExecutor` and records each completed
unit as one JSON line in a :class:`RunManifest`.  Because rows are
appended the moment a unit finishes, killing a campaign loses at most
the in-flight units: re-invoking it with the same manifest skips every
recorded unit and executes only the remainder.

The concrete campaign shipped here is the paper's fault-injection study
(§6.3) scaled to the whole benchmark suite: :func:`run_fault_campaign`
shards trials spawn-key style (see
:func:`repro.sim.faults.trial_plan`), so the merged result of any
sharding — across processes or across resumed invocations — is
bit-identical to one serial run.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.codegen.machine import MachineProgram
from repro.experiments.common import build_pair, format_table, prebuild_pairs, resolve_workloads
from repro.harness.executor import TaskExecutor, derive_seed
from repro.harness.report import Telemetry
from repro.harness.resilience import (
    UNIT_ERROR,
    ChaosPolicy,
    PermanentUnitError,
    RetryPolicy,
)
from repro.obs.context import get_observer
from repro.sim.faults import (
    FAULT_VALUE,
    CampaignResult,
    fault_campaign,
    format_rate,
)
from repro.sim.simulator import Simulator

FLAVOURS = ("original", "idempotent")


def parse_label_subset(
    names: Optional[Sequence[str]],
    valid: Sequence[str],
    what: str,
) -> Tuple[str, ...]:
    """Validate a ``--flavours``/``--backends`` subset.

    Unknown names are a hard error listing the valid choices; ``None``
    (flag not passed) returns the empty tuple so callers can apply their
    own default.
    """
    if names is None:
        return ()
    unknown = [name for name in names if name not in valid]
    if unknown:
        raise ValueError(
            f"unknown {what}(s) {', '.join(sorted(unknown))} "
            f"(valid: {', '.join(valid)})"
        )
    return tuple(names)

#: Manifest row statuses.  ``done`` resumes as complete, ``failed`` is
#: retried on resume, ``quarantined`` (retry budget exhausted under a
#: resilience policy) is *skipped* on resume with a visible warning.
STATUS_DONE = "done"
STATUS_FAILED = "failed"
STATUS_QUARANTINED = "quarantined"


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
@dataclass
class UnitRecord:
    """One manifest row: a completed (or failed) work unit."""

    unit_id: str
    status: str  # "done" | "failed" | "quarantined"
    seconds: float = 0.0
    data: dict = field(default_factory=dict)
    #: Executions this unit took (retries included); old manifests
    #: without the field load as 1.
    attempts: int = 1
    #: Compiler/scheme provenance stamped when the unit ran (pipeline
    #: version, flavour/backend, cfg checksum of the campaigned code).
    #: Old manifests load as ``{}`` and resume unconditionally; rows
    #: with provenance are re-run when it no longer matches, so a
    #: resumed campaign never silently mixes outcomes across compiler
    #: versions.
    provenance: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_DONE

    @property
    def quarantined(self) -> bool:
        return self.status == STATUS_QUARANTINED


class RunManifest:
    """Append-only JSON-lines record of completed campaign units.

    Rows are flushed and fsync'd per unit; a torn final line (killed
    mid-write, power loss) is skipped on load, so the unit simply
    re-executes on resume.  The last row for a unit id wins, letting a
    failed unit be retried and its later success supersede the failure.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    def load(self) -> Dict[str, UnitRecord]:
        records: Dict[str, UnitRecord] = {}
        try:
            handle = open(self.path, "r", encoding="utf-8")
        except FileNotFoundError:
            return records
        with handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                    record = UnitRecord(
                        unit_id=row["unit_id"],
                        status=row["status"],
                        seconds=float(row.get("seconds", 0.0)),
                        data=row.get("data", {}),
                        attempts=int(row.get("attempts", 1)),
                        provenance=row.get("provenance", {}),
                    )
                except (ValueError, KeyError, TypeError):
                    continue  # torn or foreign line: unit will re-run
                records[record.unit_id] = record
        return records

    def append(self, record: UnitRecord) -> None:
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(asdict(record), sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())  # crash-consistent: row survives power loss


# ----------------------------------------------------------------------
# Generic runner
# ----------------------------------------------------------------------
class CampaignRunner:
    """Executes (unit_id, payload) units with skip-completed semantics.

    With a resilience policy active (any of ``retry`` / ``unit_timeout``
    / ``chaos``), a unit that still fails after the executor's retry
    machinery is *quarantined*: recorded with its attempt count and
    error category, skipped on resume with a visible warning, and
    surfaced in the campaign report.  Without one, failures keep the
    legacy ``failed`` status and are retried on the next invocation.
    """

    def __init__(
        self,
        manifest: Optional[RunManifest] = None,
        jobs: int = 1,
        telemetry: Optional[Telemetry] = None,
        retry: Optional[RetryPolicy] = None,
        unit_timeout: Optional[float] = None,
        chaos: Optional[ChaosPolicy] = None,
    ) -> None:
        self.manifest = manifest
        self.jobs = jobs
        self.telemetry = telemetry or Telemetry(label="campaign")
        self.retry = retry
        self.unit_timeout = unit_timeout
        self.chaos = chaos
        self.executed = 0
        self.skipped = 0
        self.failed = 0
        self.quarantined = 0
        self.quarantine_skipped = 0

    @property
    def _resilient(self) -> bool:
        return (
            self.retry is not None
            or self.unit_timeout is not None
            or self.chaos is not None
        )

    def run(
        self,
        worker: Callable[[dict], dict],
        units: Sequence[Tuple[str, dict]],
        phase: str = "campaign",
        provenance: Optional[Dict[str, dict]] = None,
    ) -> Dict[str, UnitRecord]:
        """Run every unit not already recorded as done; returns all records.

        ``worker`` must be a module-level function ``payload -> dict``
        with a JSON-serializable result (it becomes the manifest row).

        ``provenance`` maps unit id -> expected provenance dict (see
        :class:`UnitRecord`).  A done manifest row whose *recorded*
        provenance is non-empty and differs from the expected one is
        stale — written by a different compiler pipeline or against
        different code — and re-runs instead of resuming, with a
        visible warning.  Rows without provenance (old manifests)
        resume unconditionally.
        """
        provenance = provenance or {}
        records = self.manifest.load() if self.manifest else {}
        observer = get_observer()
        stale: set = set()
        for uid, record in records.items():
            if not record.ok or not record.provenance:
                continue
            expected = provenance.get(uid)
            if expected and record.provenance != expected:
                stale.add(uid)
                observer.log(
                    f"stale manifest row re-run: {uid} "
                    f"(recorded provenance {record.provenance} != "
                    f"expected {expected})"
                )
                observer.counter("campaign.stale_units").inc()
        done = {
            uid for uid, record in records.items()
            if record.ok and uid not in stale
        }
        poisoned = {uid for uid, record in records.items() if record.quarantined}
        todo = [
            (uid, payload) for uid, payload in units
            if uid not in done and uid not in poisoned
        ]
        self.skipped = sum(1 for uid, _ in units if uid in done)
        for uid, _ in units:
            if uid not in poisoned:
                continue
            self.quarantine_skipped += 1
            record = records[uid]
            observer.log(
                f"quarantined unit skipped: {uid} "
                f"({record.data.get('category', UNIT_ERROR)} after "
                f"{record.attempts} attempts) — pass --fresh to retry it"
            )
            observer.counter("harness.quarantined").inc(event="skipped")
        if self.manifest is not None:
            observer.log(
                f"campaign resume: {self.skipped} of {len(units)} units "
                f"already in manifest, {len(todo)} to run"
            )
        observer.counter("campaign.units").inc(self.skipped, status="skipped")
        if not todo:
            return records
        executor = TaskExecutor(
            self.jobs, retry=self.retry,
            unit_timeout=self.unit_timeout, chaos=self.chaos,
        )
        with self.telemetry.phase(phase, units=len(todo)):
            for result in executor.imap(
                worker, [payload for _, payload in todo],
                keys=[uid for uid, _ in todo],
            ):
                if result.ok:
                    record = UnitRecord(
                        unit_id=str(result.key), status=STATUS_DONE,
                        seconds=result.seconds, data=result.value,
                        attempts=result.attempts,
                        provenance=provenance.get(str(result.key), {}),
                    )
                    self.executed += 1
                    observer.counter("campaign.units").inc(status="executed")
                elif self._resilient:
                    category = result.category or UNIT_ERROR
                    record = UnitRecord(
                        unit_id=str(result.key), status=STATUS_QUARANTINED,
                        seconds=result.seconds,
                        data={"error": result.error, "category": category},
                        attempts=result.attempts,
                    )
                    self.quarantined += 1
                    observer.counter("harness.quarantined").inc(
                        event="new", category=category
                    )
                    observer.counter("campaign.units").inc(status="quarantined")
                else:
                    record = UnitRecord(
                        unit_id=str(result.key), status=STATUS_FAILED,
                        seconds=result.seconds,
                        data={"error": result.error,
                              "category": result.category or UNIT_ERROR},
                        attempts=result.attempts,
                    )
                    self.failed += 1
                    observer.counter("campaign.units").inc(status="failed")
                records[record.unit_id] = record
                if self.manifest:
                    self.manifest.append(record)
        return records


# ----------------------------------------------------------------------
# Fault-injection campaign over the benchmark suite
# ----------------------------------------------------------------------
@dataclass
class FaultCampaignSummary:
    """Merged per-(workload, label) results plus run accounting.

    A *label* is a binary flavour (``original``/``idempotent``) or a
    recovery backend name (``tmr``/``checkpoint_log``/...) — whatever
    scheme subset the campaign was asked to run. Legacy campaigns (no
    subset flags) keep the two flavour labels, in :data:`FLAVOURS`
    order, so their reports are byte-identical.
    """

    #: (workload, label) -> merged CampaignResult across shards
    results: Dict[Tuple[str, str], CampaignResult] = field(default_factory=dict)
    trials: int = 0
    seed: int = 0
    kind: str = FAULT_VALUE
    #: report/footer order: requested flavours then requested backends
    labels: Tuple[str, ...] = FLAVOURS
    executed_units: int = 0
    skipped_units: int = 0
    failed_units: int = 0
    quarantined_units: int = 0
    errors: List[str] = field(default_factory=list)
    #: (unit_id, error category) for every quarantined unit, so reports
    #: can list *which* units are poisoned, not just how many.
    quarantined: List[Tuple[str, str]] = field(default_factory=list)
    telemetry: Optional[Telemetry] = None

    def flavour_totals(self, label: str) -> CampaignResult:
        total = CampaignResult()
        for (_, unit_label), result in self.results.items():
            if unit_label == label:
                total.merge(result)
        return total


def campaign_target(
    original: MachineProgram,
    idempotent: MachineProgram,
    flavour: str,
    backend=None,
) -> Tuple[MachineProgram, Optional[Callable]]:
    """The binary and injector factory a campaign label runs.

    A recovery backend campaigns its own program under its own policy;
    a bare flavour campaigns that build under the paper's rp recovery
    (factory ``None``: :class:`~repro.sim.faults.FaultInjector`).
    """
    if backend is not None:
        return (
            backend.campaign_program(original, idempotent),
            backend.make_injector,
        )
    return (idempotent if flavour == "idempotent" else original), None


def prepare_unit(payload: dict):
    """``(program, injector_factory, reference, reference_output)`` of
    one campaign work unit (a trial shard or an incremental section).

    The recovery target is the idempotent build's fault-free run (the
    same convention as ``python -m repro faults``); every scheme must
    reproduce it to count as recovered.  A crashing reference means the
    *build* is broken — deterministic for every retry — so it is
    reported as a structured, permanently-classified unit error rather
    than escaping as a raw exception string.
    """
    from repro.recovery.backends import get_backend

    name = payload["workload"]
    original, idempotent = build_pair(name)
    try:
        reference_sim = Simulator(idempotent.program)
        reference = reference_sim.run(payload["entry"])
        reference_output = list(reference_sim.output)
    except Exception as exc:
        raise PermanentUnitError(
            f"reference run failed for workload {name!r} "
            f"(flavour {payload['flavour']}, entry {payload['entry']!r}): "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    backend_name = payload.get("backend")
    program, factory = campaign_target(
        original.program, idempotent.program, payload["flavour"],
        get_backend(backend_name) if backend_name else None,
    )
    return program, factory, reference, reference_output


def _fault_unit(payload: dict) -> dict:
    """Worker: one trial-shard of one workload × flavour (or backend)."""
    program, factory, reference, reference_output = prepare_unit(payload)
    campaign = fault_campaign(
        program,
        reference,
        reference_output,
        trials=payload["trials"],
        func=payload["entry"],
        kind=payload["kind"],
        seed=payload["unit_seed"],
        detection_latency=payload["detection_latency"],
        start_trial=payload["start_trial"],
        injector_factory=factory,
    )
    row = asdict(campaign)
    row["workload"] = payload["workload"]
    row["flavour"] = payload["flavour"]
    if payload.get("backend") is not None:
        row["backend"] = payload["backend"]
    return row


def campaign_labels(
    flavours: Optional[Sequence[str]] = None,
    backends: Optional[Sequence[str]] = None,
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Resolve ``--flavours``/``--backends`` into validated work lists.

    Defaults preserve legacy behaviour: with neither flag the campaign
    runs both :data:`FLAVOURS` and no backends; with only ``--backends``
    the flavour units are dropped (the backend rows subsume them).
    Unknown names raise :class:`ValueError` listing the valid choices.
    """
    from repro.recovery.backends import BACKEND_NAMES

    flavour_list = parse_label_subset(flavours, FLAVOURS, "flavour")
    backend_list = parse_label_subset(backends, BACKEND_NAMES, "backend")
    if flavours is None and backends is None:
        flavour_list = FLAVOURS
    return flavour_list, backend_list


def campaign_label_specs(
    flavours: Optional[Sequence[str]] = None,
    backends: Optional[Sequence[str]] = None,
) -> List[Tuple[str, str, object, str]]:
    """``(label, flavour, backend, seed_key)`` of every label a campaign
    runs, in report order (see :func:`campaign_labels`).

    ``backend`` is None for a bare flavour. Backend units derive their
    seeds from the backend's ``seed_key`` — for the ``idempotent``
    backend that is the legacy ``"idempotent"`` flavour key, so its
    units (and therefore their results) are bit-identical to flavour
    campaigns at the same parameters.
    """
    from repro.recovery.backends import get_backend

    flavour_list, backend_list = campaign_labels(flavours, backends)
    specs: List[Tuple[str, str, object, str]] = [
        (flavour, flavour, None, flavour) for flavour in flavour_list
    ]
    for name in backend_list:
        backend = get_backend(name)
        specs.append((name, backend.flavour, backend, backend.seed_key))
    return specs


def label_tag(label: str, backend) -> str:
    """A label as campaign unit ids name it (``backend-<name>`` for a
    recovery backend)."""
    return f"backend-{label}" if backend is not None else label


def fault_campaign_units(
    names: Optional[Sequence[str]],
    trials: int,
    seed: int,
    kind: str = FAULT_VALUE,
    detection_latency: int = 0,
    shard_trials: Optional[int] = None,
    flavours: Optional[Sequence[str]] = None,
    backends: Optional[Sequence[str]] = None,
) -> List[Tuple[str, dict]]:
    """The (unit_id, payload) work list of a suite-wide fault campaign.

    Trials shard into chunks of ``shard_trials`` (default: all trials in
    one unit per workload × label); ``trials=0`` still yields one empty
    unit per workload × label, so the report keeps its ``n/a`` rows as
    the incremental campaign's does.  Unit ids encode every parameter
    that affects the unit's result, so a manifest written with one
    configuration never satisfies another.  ``flavours``/``backends``
    select scheme subsets (see :func:`campaign_label_specs`).
    """
    specs = campaign_label_specs(flavours, backends)
    shard = max(1, int(shard_trials or trials))
    units: List[Tuple[str, dict]] = []
    for workload in resolve_workloads(names):
        for label, flavour, backend, seed_key in specs:
            unit_seed = derive_seed(seed, workload.name, seed_key)
            for start in range(0, max(trials, 1), shard):
                count = min(shard, trials - start)
                unit_id = (
                    f"{workload.name}:{label_tag(label, backend)}:{kind}"
                    f":seed{seed}:lat{detection_latency}:t{start}+{count}"
                )
                payload = {
                    "workload": workload.name,
                    "flavour": flavour,
                    "entry": workload.entry,
                    "trials": count,
                    "start_trial": start,
                    "unit_seed": unit_seed,
                    "kind": kind,
                    "detection_latency": detection_latency,
                }
                if backend is not None:
                    payload["backend"] = label
                units.append((unit_id, payload))
    return units


def run_fault_campaign(
    names: Optional[Sequence[str]] = None,
    trials: int = 40,
    seed: int = 12345,
    kind: str = FAULT_VALUE,
    detection_latency: int = 0,
    jobs: int = 1,
    manifest_path: Optional[str] = None,
    shard_trials: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
    retry: Optional[RetryPolicy] = None,
    unit_timeout: Optional[float] = None,
    chaos: Optional[ChaosPolicy] = None,
    flavours: Optional[Sequence[str]] = None,
    backends: Optional[Sequence[str]] = None,
) -> FaultCampaignSummary:
    """Suite-wide fault-injection campaign, sharded, cached, resumable."""
    telemetry = telemetry or Telemetry(label="fault campaign")
    if manifest_path:
        get_observer().log(f"campaign manifest: {manifest_path}")
    specs = campaign_label_specs(flavours, backends)
    units = fault_campaign_units(
        names, trials, seed, kind=kind,
        detection_latency=detection_latency, shard_trials=shard_trials,
        flavours=flavours, backends=backends,
    )
    # Builds happen in the parent first: workers inherit the memo via
    # fork and warm runs pull artifacts straight from the disk cache.
    prebuild_pairs(names, jobs=jobs, telemetry=telemetry)
    # Stamp every unit with the pipeline version and the checksum of the
    # code it campaigns over: resuming a manifest written by a different
    # compiler (or against edited source) re-runs those units instead of
    # silently mixing outcomes.
    from repro.harness.cache import PIPELINE_VERSION
    from repro.harness.incremental import program_fingerprint

    fingerprints: Dict[Tuple[str, str], str] = {}
    provenance: Dict[str, dict] = {}
    for unit_id, payload in units:
        fp_key = (payload["workload"], payload["flavour"])
        if fp_key not in fingerprints:
            original, idempotent = build_pair(payload["workload"])
            program, _factory = campaign_target(
                original.program, idempotent.program, payload["flavour"]
            )
            fingerprints[fp_key] = program_fingerprint(program)
        provenance[unit_id] = {
            "pipeline": PIPELINE_VERSION,
            "label": payload.get("backend") or payload["flavour"],
            "cfg": fingerprints[fp_key],
        }
    manifest = RunManifest(manifest_path) if manifest_path else None
    runner = CampaignRunner(
        manifest=manifest, jobs=jobs, telemetry=telemetry,
        retry=retry, unit_timeout=unit_timeout, chaos=chaos,
    )
    records = runner.run(_fault_unit, units, phase="inject", provenance=provenance)

    summary = FaultCampaignSummary(
        trials=trials, seed=seed, kind=kind,
        labels=tuple(label for label, _f, _b, _s in specs),
        executed_units=runner.executed,
        skipped_units=runner.skipped,
        failed_units=runner.failed,
        quarantined_units=runner.quarantined + runner.quarantine_skipped,
        telemetry=telemetry,
    )
    for unit_id, _ in units:
        record = records.get(unit_id)
        if record is None:
            continue
        if record.quarantined:
            category = record.data.get("category", UNIT_ERROR)
            summary.quarantined.append((unit_id, category))
            summary.errors.append(
                f"{unit_id}: quarantined after {record.attempts} attempts "
                f"[{category}]: "
                f"{record.data.get('error')}"
            )
            continue
        if not record.ok:
            summary.errors.append(f"{unit_id}: {record.data.get('error')}")
            continue
        data = record.data
        key = (data["workload"], data.get("backend") or data["flavour"])
        # ``.get`` keeps manifests written before the ``undetected``
        # bucket existed loadable (they recorded no such faults).
        shard_result = CampaignResult(**{
            f: data.get(f, 0)
            for f in ("trials", "injected", "detected",
                      "recovered_correctly", "wrong_result", "crashed",
                      "undetected")
        })
        summary.results.setdefault(key, CampaignResult()).merge(shard_result)
    return summary


def format_campaign_report(summary: FaultCampaignSummary) -> str:
    headers = ["workload", "flavour", "trials", "injected", "recovered",
               "wrong", "crashed", "recovery"]
    rows = []
    for (name, flavour), result in summary.results.items():
        rows.append([
            name, flavour, result.trials, result.injected,
            result.recovered_correctly, result.wrong_result, result.crashed,
            format_rate(result),
        ])
    lines = [format_table(headers, rows), ""]
    for flavour in summary.labels:
        total = summary.flavour_totals(flavour)
        undetected = (
            f" undetected={total.undetected}" if total.undetected else ""
        )
        lines.append(
            f"{flavour:10s}: injected={total.injected} "
            f"recovered={total.recovered_correctly} "
            f"wrong={total.wrong_result} crashed={total.crashed}"
            f"{undetected} "
            f"({format_rate(total)} recovery)"
        )
    units_line = (
        f"units: {summary.executed_units} executed, "
        f"{summary.skipped_units} resumed from manifest, "
        f"{summary.failed_units} failed"
    )
    if summary.quarantined_units:
        units_line += f", {summary.quarantined_units} quarantined"
    lines.append(units_line)
    if summary.quarantined:
        lines.append("quarantined units (pass --fresh to retry):")
        for unit_id, category in summary.quarantined:
            lines.append(f"  - {unit_id} [{category}]")
    for error in summary.errors:
        lines.append(f"  ! {error}")
    return "\n".join(lines)
