"""Resumable campaign orchestration.

A *campaign* is a set of independent work units (e.g. every
workload × label of a fault-injection study).
:class:`CampaignRunner` executes units through a
:class:`~repro.harness.executor.TaskExecutor` and records each completed
unit as one JSON line in a :class:`RunManifest`.  Because rows are
appended the moment a unit finishes, killing a campaign loses at most
the in-flight units: re-invoking it with the same manifest skips every
unit recorded as done and executes only the remainder, failed units
included.  That re-run is the harness's one recovery path; nothing
runs twice within one invocation.

The concrete campaign shipped here is the paper's fault-injection study
(§6.3) scaled to the whole benchmark suite: :func:`run_fault_campaign`
runs one unit per workload × label, and each unit's worker runs the
section engine of :mod:`repro.harness.incremental`.  Sections already in
the outcome store compose, the rest inject and publish as they finish,
and the composed counts are bit-identical to one monolithic
:func:`repro.sim.faults.fault_campaign` whether the store is warm, cold
or disabled — up to the compositional caveat of
:mod:`repro.harness.incremental`: after an edit that keeps the trial
span, a cached fault whose corruption reaches the edited code can be
stale.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import build_pair, format_table, prebuild_pairs, resolve_workloads
from repro.harness.cache import PIPELINE_VERSION
from repro.harness.executor import TaskExecutor, derive_seed
from repro.harness.incremental import (
    SECTION_CACHED,
    OutcomeStore,
    SectionAccounting,
    SectionStatus,
    campaign_sections,
    campaign_target,
    default_store,
    index_entries,
    program_fingerprint,
)
from repro.harness.report import Telemetry
from repro.obs.context import get_observer
from repro.sim.faults import FAULT_VALUE, CampaignResult, format_rate

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

#: Manifest row statuses.  ``done`` resumes as complete; any other row
#: (``failed`` here) re-runs on resume.
STATUS_DONE = "done"
STATUS_FAILED = "failed"


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
@dataclass
class UnitRecord:
    """One manifest row: a completed (or failed) work unit."""

    unit_id: str
    status: str  # "done" | "failed" (fuzz adds "quarantined")
    seconds: float = 0.0
    data: dict = field(default_factory=dict)
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


class RunManifest:
    """Append-only JSON-lines record of completed campaign units.

    Rows are flushed and fsync'd per unit; a torn final line (killed
    mid-write, power loss) is skipped on load, so the unit simply
    re-executes on resume.  The last row for a unit id wins, so a failed
    unit's later success supersedes the failure.
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

    Each unit runs once per invocation.  A unit that fails is recorded
    as ``failed`` with its error category (``unit-error`` or
    ``worker-lost``) and runs again on the next invocation.
    """

    def __init__(
        self,
        manifest: Optional[RunManifest] = None,
        jobs: int = 1,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.manifest = manifest
        self.jobs = jobs
        self.telemetry = telemetry or Telemetry(label="campaign")
        self.executed = 0
        self.skipped = 0
        #: ids of the units the last :meth:`run` resumed from the manifest
        self.resumed: set = set()
        self.failed = 0

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
        todo = [(uid, payload) for uid, payload in units if uid not in done]
        self.resumed = {uid for uid, _ in units if uid in done}
        self.skipped = len(self.resumed)
        if self.manifest is not None:
            observer.log(
                f"campaign resume: {self.skipped} of {len(units)} units "
                f"already in manifest, {len(todo)} to run"
            )
        observer.counter("campaign.units").inc(self.skipped, status="skipped")
        if not todo:
            return records
        with self.telemetry.phase(phase, units=len(todo)):
            for result in TaskExecutor(self.jobs).imap(
                worker, [payload for _, payload in todo],
                keys=[uid for uid, _ in todo],
            ):
                if result.ok:
                    record = UnitRecord(
                        unit_id=str(result.key), status=STATUS_DONE,
                        seconds=result.seconds, data=result.value,
                        provenance=provenance.get(str(result.key), {}),
                    )
                    self.executed += 1
                    observer.counter("campaign.units").inc(status="executed")
                else:
                    record = UnitRecord(
                        unit_id=str(result.key), status=STATUS_FAILED,
                        seconds=result.seconds,
                        data={"error": result.error,
                              "category": result.category},
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
class FaultCampaignSummary(SectionAccounting):
    """Per-(workload, label) results plus run and section accounting.

    A *label* is a binary flavour (``original``/``idempotent``) or a
    recovery backend name (``tmr``/``checkpoint_log``/...) — whatever
    scheme subset the campaign was asked to run. Legacy campaigns (no
    subset flags) keep the two flavour labels, in :data:`FLAVOURS`
    order, so their reports are byte-identical.
    """

    #: (workload, label) -> CampaignResult of that unit
    results: Dict[Tuple[str, str], CampaignResult] = field(default_factory=dict)
    trials: int = 0
    seed: int = 0
    kind: str = FAULT_VALUE
    #: report/footer order: requested flavours then requested backends
    labels: Tuple[str, ...] = FLAVOURS
    executed_units: int = 0
    skipped_units: int = 0
    failed_units: int = 0
    errors: List[str] = field(default_factory=list)
    telemetry: Optional[Telemetry] = None
    #: every section the units executed by this invocation planned
    #: (a unit resumed from the manifest plans none)
    sections: List[SectionStatus] = field(default_factory=list)
    store_root: str = ""

    def flavour_totals(self, label: str) -> CampaignResult:
        total = CampaignResult()
        for (_, unit_label), result in self.results.items():
            if unit_label == label:
                total.merge(result)
        return total


def _campaign_unit(payload: dict) -> dict:
    """Worker: one workload × label campaign through the section engine.

    The manifest row is the composed counts plus the unit's section
    statuses; the outcome store in the payload receives every section
    record as it finishes.
    """
    from repro.recovery.backends import get_backend

    original, idempotent = build_pair(payload["workload"])
    backend_name = payload.get("backend")
    outcome = campaign_sections(
        original.program,
        idempotent.program,
        payload["trials"],
        payload["store"],
        func=payload["entry"],
        kind=payload["kind"],
        seed=payload["unit_seed"],
        detection_latency=payload["detection_latency"],
        backend=get_backend(backend_name) if backend_name else None,
        flavour=payload["flavour"],
        name=payload["workload"],
    )
    row = asdict(outcome.result)
    row["workload"] = payload["workload"]
    row["flavour"] = payload["flavour"]
    if backend_name is not None:
        row["backend"] = backend_name
    row["sections"] = [asdict(status) for status in outcome.sections]
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


def fault_campaign_units(
    names: Optional[Sequence[str]],
    trials: int,
    seed: int,
    kind: str = FAULT_VALUE,
    detection_latency: int = 0,
    flavours: Optional[Sequence[str]] = None,
    backends: Optional[Sequence[str]] = None,
) -> List[Tuple[str, dict]]:
    """The (unit_id, payload) work list of a suite-wide fault campaign.

    One unit per workload × label runs all of its trials; ``trials=0``
    still yields the unit, so the report keeps its ``n/a`` rows.  Unit
    ids encode every parameter that affects the unit's result, so a
    manifest written with one configuration never satisfies another.
    ``flavours``/``backends`` select scheme subsets (see
    :func:`campaign_label_specs`).
    """
    specs = campaign_label_specs(flavours, backends)
    units: List[Tuple[str, dict]] = []
    for workload in resolve_workloads(names):
        for label, flavour, backend, seed_key in specs:
            tag = f"backend-{label}" if backend is not None else label
            unit_id = (
                f"{workload.name}:{tag}:{kind}"
                f":seed{seed}:lat{detection_latency}:t0+{trials}"
            )
            payload = {
                "workload": workload.name,
                "flavour": flavour,
                "entry": workload.entry,
                "trials": trials,
                "unit_seed": derive_seed(seed, workload.name, seed_key),
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
    telemetry: Optional[Telemetry] = None,
    flavours: Optional[Sequence[str]] = None,
    backends: Optional[Sequence[str]] = None,
    store: Optional[OutcomeStore] = None,
) -> FaultCampaignSummary:
    """Suite-wide fault-injection campaign: store-backed, parallel, resumable.

    Each workload × label unit runs the section engine in its worker;
    ``store`` (default: the process-wide outcome store) travels in the
    payload.  The parent merges the store's identity index once, for
    the sections of every unit this invocation ran.
    """
    from repro.recovery.backends import get_backend

    telemetry = telemetry or Telemetry(label="fault campaign")
    if manifest_path:
        get_observer().log(f"campaign manifest: {manifest_path}")
    store = store or default_store()
    specs = campaign_label_specs(flavours, backends)
    units = fault_campaign_units(
        names, trials, seed, kind=kind, detection_latency=detection_latency,
        flavours=flavours, backends=backends,
    )
    # Builds happen in the parent first: workers inherit the memo via
    # fork and warm runs pull artifacts straight from the disk cache.
    prebuild_pairs(names, jobs=jobs, telemetry=telemetry)
    # Stamp every unit with the pipeline version and the fingerprint of
    # the program it campaigns: resuming a manifest written by a
    # different compiler (or against edited source) re-runs those units
    # instead of silently mixing outcomes.
    provenance: Dict[str, dict] = {}
    for unit_id, payload in units:
        original, idempotent = build_pair(payload["workload"])
        backend_name = payload.get("backend")
        program, _factory = campaign_target(
            original.program, idempotent.program, payload["flavour"],
            get_backend(backend_name) if backend_name else None,
        )
        provenance[unit_id] = {
            "pipeline": PIPELINE_VERSION,
            "label": backend_name or payload["flavour"],
            "cfg": program_fingerprint(program),
        }
        payload["store"] = store
    manifest = RunManifest(manifest_path) if manifest_path else None
    runner = CampaignRunner(manifest=manifest, jobs=jobs, telemetry=telemetry)
    records = runner.run(
        _campaign_unit, units, phase="inject", provenance=provenance
    )

    summary = FaultCampaignSummary(
        trials=trials, seed=seed, kind=kind,
        labels=tuple(label for label, _f, _b, _s in specs),
        executed_units=runner.executed,
        skipped_units=runner.skipped,
        failed_units=runner.failed,
        telemetry=telemetry,
        store_root=store.root,
    )
    for unit_id, _ in units:
        record = records.get(unit_id)
        if record is None:
            continue
        if not record.ok:
            summary.errors.append(f"{unit_id}: {record.data.get('error')}")
            continue
        data = record.data
        key = (data["workload"], data.get("backend") or data["flavour"])
        # ``.get`` keeps manifests written before the ``undetected``
        # bucket existed loadable (they recorded no such faults).
        summary.results[key] = CampaignResult(**{
            f: data.get(f, 0)
            for f in ("trials", "injected", "detected",
                      "recovered_correctly", "wrong_result", "crashed",
                      "undetected")
        })
        if unit_id not in runner.resumed:
            summary.sections.extend(
                SectionStatus(**row) for row in data.get("sections", [])
            )
    store.update_index(index_entries(summary.sections))
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
    lines.append(
        f"units: {summary.executed_units} executed, "
        f"{summary.skipped_units} resumed from manifest, "
        f"{summary.failed_units} failed"
    )
    for error in summary.errors:
        lines.append(f"  ! {error}")
    return "\n".join(lines)


def format_section_accounting(summary: FaultCampaignSummary) -> str:
    """One-line section/trial cache accounting (stderr)."""
    return (
        f"sections: {len(summary.sections)} total, "
        f"{summary.sections_cached} cached, "
        f"{summary.sections_reinjected} re-injected "
        f"({summary.trials_from_store} trials from store, "
        f"{summary.trials_injected} injected); "
        f"store: {summary.store_root}"
    )


def format_stale_report(summary: FaultCampaignSummary) -> str:
    """The ``--explain-stale`` view: which sections re-ran, and why."""
    lines = [format_section_accounting(summary)]
    if not summary.sections:
        # Manifest-resumed units plan no sections: nothing was composed.
        lines.append(
            f"stale sections: none planned ({summary.executed_units} units "
            f"executed, {summary.skipped_units} resumed from manifest)"
        )
        return "\n".join(lines)
    stale = [s for s in summary.sections if s.status != SECTION_CACHED]
    if not stale:
        lines.append("stale sections: none (every section composed "
                     "from the store)")
        return "\n".join(lines)
    lines.append("stale sections:")
    for status in stale:
        lines.append(
            f"  {status.workload}:{status.label} {status.region} "
            f"[{status.trials_run} trials]: {status.reason}"
        )
    return "\n".join(lines)
