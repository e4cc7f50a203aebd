"""Incremental, compositional fault campaigns (FastFlip-style).

A monolithic ``repro campaign`` re-injects every workload × scheme from
scratch on every compiler change.  This module makes campaigns
*compositional*: the constructed idempotent regions are the natural
program sections, so each workload campaign is split into per-region
**sections**, each section is campaigned as an independent work unit on
the existing :class:`~repro.harness.campaign.CampaignRunner` stack, and
the per-trial outcomes are persisted in a content-addressed **outcome
store** under ``.repro-cache/outcomes/``.  A composer folds stored
section outcomes back into whole-program
:class:`~repro.sim.faults.CampaignResult` rows that are bit-identical to
a monolithic campaign at the same seeds and budgets.

How bit-identity is preserved
-----------------------------
Trial ``i``'s fault plan is a pure function of ``(seed, i, span)``
(:func:`repro.sim.faults.trial_plan`), and the faulted run's dynamic
prefix is identical to the fault-free run up to the injection point.  So
one fault-free *eligibility trace* — recording the dynamic position and
region of every fault site, by calling the fault model's own site rule —
predicts where every trial lands without running it.  Sections
then execute exactly their assigned trial indices through
:func:`repro.sim.faults.run_planned_trial` (the same code path the
monolithic loop uses), and the composed buckets match trial for trial.

Section keys and staleness
--------------------------
A section's store key hashes ``(store schema, PIPELINE_VERSION,
workload, entry, label, kind, latency, unit seed, region key, owning
function's machine-code fingerprint)``.  The fingerprint is the SHA-256
of the function's formatted machine code — a *stable* content checksum
(the process-seeded :func:`repro.ir.verifier.cfg_checksum` cannot key a
persistent store).  Editing one function changes only its sections'
keys, so a re-campaign after a localized edit re-injects only that
function's sections; everything else composes from the store.  A
``--explain-stale`` report classifies every re-injected section
(new-section, code-changed, pipeline-changed, evicted, top-up) from a
small identity index kept next to the objects.

Store safety mirrors :mod:`repro.harness.cache`: atomic
write-temp-then-rename publication, corruption-is-a-miss (the entry is
deleted and the section re-injected), and hit/miss/store counters on the
``repro.obs`` registry (``campaign.store.*`` labeled ``store=<root>``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.codegen.machine import MachineProgram, format_machine_function
from repro.harness.cache import DEFAULT_CACHE_DIR, PIPELINE_VERSION
from repro.harness.campaign import (
    CampaignRunner,
    FaultCampaignSummary,
    RunManifest,
    campaign_label_specs,
    campaign_target,
    label_tag,
    prepare_unit,
)
from repro.harness.executor import derive_seed
from repro.harness.report import Telemetry
from repro.harness.resilience import UNIT_ERROR, PermanentUnitError
from repro.obs.context import get_observer
from repro.sim import faults
from repro.sim.faults import (
    FAULT_VALUE,
    REGION_UNKNOWN,
    CampaignResult,
    _publish_campaign_metrics,
    classify_outcome,
    format_rate,
    region_key,
    run_planned_trial,
    target_span,
    trial_plan,
)
from repro.sim.simulator import Simulator

#: Schema tag of outcome-store records; mixed into every section key, so
#: bumping it invalidates the whole store (a layout change is a miss).
STORE_SCHEMA = "repro.outcomes/1"

#: Section statuses reported by the planner.
SECTION_CACHED = "cached"   # every needed trial composed from the store
SECTION_TOPUP = "topup"     # record found, but short of the budget
SECTION_NEW = "new"         # no usable record: full re-injection


# ----------------------------------------------------------------------
# Stable code fingerprints
# ----------------------------------------------------------------------
def function_fingerprint(program: MachineProgram, name: str) -> str:
    """SHA-256 of one function's formatted machine code.

    The machine text is byte-stable for identical inputs (deterministic
    regalloc and block order), so this is a content address: it changes
    exactly when the function's generated code changes.
    """
    text = format_machine_function(program.functions[name])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def program_fingerprint(program: MachineProgram) -> str:
    """SHA-256 over every function's machine code (name-sorted)."""
    h = hashlib.sha256()
    for name in sorted(program.functions):
        h.update(name.encode("utf-8"))
        h.update(b"\x00")
        h.update(function_fingerprint(program, name).encode("ascii"))
        h.update(b"\x00")
    return h.hexdigest()


def region_owner(region: str, entry: str) -> str:
    """The function a region key belongs to (``func@block.index``).

    The pre-``rp`` window ``"?"`` precedes the first restart pointer of
    the entry function, so its code content is the entry's.
    """
    if region == REGION_UNKNOWN:
        return entry
    return region.split("@", 1)[0]


# ----------------------------------------------------------------------
# Eligibility trace: predict where every trial lands without running it
# ----------------------------------------------------------------------
@dataclass
class EligibilityTrace:
    """Fault sites of one fault-free run, in dynamic order.

    ``value_events[i]`` is the retired-instruction count at which the
    ``i``-th :func:`~repro.sim.faults.value_site` retires, and
    ``control_events[i]`` the count before the ``i``-th
    :func:`~repro.sim.faults.control_site` issues — the quantity
    :class:`~repro.sim.faults.FaultInjector` compares against a plan's
    :attr:`~repro.sim.faults.FaultPlan.strike_count`.  ``*_regions[i]``
    is the region key the injector would attribute a fault there to.
    """

    span: int
    instructions: int
    value_events: List[int] = field(default_factory=list)
    value_regions: List[str] = field(default_factory=list)
    control_events: List[int] = field(default_factory=list)
    control_regions: List[str] = field(default_factory=list)

    def events(self, kind: str) -> Tuple[List[int], List[str]]:
        if kind == FAULT_VALUE:
            return self.value_events, self.value_regions
        return self.control_events, self.control_regions


def trace_eligibility(
    program: MachineProgram,
    func: str = "main",
    args: Tuple = (),
    max_instructions: int = 50_000_000,
) -> EligibilityTrace:
    """One fault-free run recording every fault site.

    The hooks call the fault model's own site rule at the points the
    injector does (control sites before they issue, value sites after
    they retire), so a trial whose strike count resolves to event ``i``
    here injects at precisely that instruction (the faulted run's
    dynamic prefix equals the fault-free prefix up to injection).
    """
    sim = Simulator(program, max_instructions=max_instructions)
    trace = EligibilityTrace(span=1, instructions=0)
    value_site, control_site = faults.value_site, faults.control_site

    def pre(s: Simulator, instr) -> None:
        if control_site(instr):
            trace.control_events.append(s.instructions)
            trace.control_regions.append(region_key(s))

    def post(s: Simulator, instr, loc) -> None:
        if value_site(instr):
            trace.value_events.append(s.instructions)
            trace.value_regions.append(region_key(s))

    sim.pre_hook = pre
    sim.post_hook = post
    sim.run(func, args)
    trace.instructions = sim.instructions
    trace.span = target_span(sim.instructions)
    return trace


@dataclass
class TrialAssignment:
    """Partition of a campaign's trial indices by landing region."""

    span: int
    #: region key -> sorted trial indices landing there
    regions: Dict[str, List[int]] = field(default_factory=dict)
    #: trials whose target falls past the last eligible event: they
    #: inject nothing and contribute only to the ``trials`` count
    uninjected: List[int] = field(default_factory=list)


def assign_trials(
    trace: EligibilityTrace,
    seed: int,
    trials: int,
    kind: str = FAULT_VALUE,
    detection_latency: int = 0,
) -> TrialAssignment:
    """Map every trial index to the region its fault lands in.

    Pure arithmetic over the trace: trial ``i``'s plan comes from the
    exact :func:`~repro.sim.faults.trial_plan` the executing run will
    use, and the landing event is the first fault site at or past its
    strike count (binary search).
    """
    events, regions = trace.events(kind)
    assignment = TrialAssignment(span=trace.span)
    for index in range(trials):
        plan = trial_plan(
            seed, index, trace.span, kind=kind,
            detection_latency=detection_latency,
        )
        pos = bisect_left(events, plan.strike_count)
        if pos >= len(events):
            assignment.uninjected.append(index)
        else:
            assignment.regions.setdefault(regions[pos], []).append(index)
    return assignment


# ----------------------------------------------------------------------
# Content-addressed outcome store
# ----------------------------------------------------------------------
def section_key(
    workload: str,
    entry: str,
    label: str,
    kind: str,
    latency: int,
    unit_seed: int,
    region: str,
    fingerprint: str,
) -> str:
    """SHA-256 content address of one section's outcome record."""
    h = hashlib.sha256()
    for part in (
        STORE_SCHEMA, PIPELINE_VERSION, workload, entry, label, kind,
        str(latency), str(unit_seed), region, fingerprint,
    ):
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def section_identity(
    workload: str,
    entry: str,
    label: str,
    kind: str,
    latency: int,
    unit_seed: int,
    region: str,
) -> str:
    """Code-independent identity of a section (for staleness diagnosis).

    Everything in :func:`section_key` except the fingerprint and the
    pipeline version: the identity survives code edits, so the explain
    index can tell *why* a key missed (code changed vs never seen).
    """
    h = hashlib.sha256()
    for part in (workload, entry, label, kind, str(latency),
                 str(unit_seed), region):
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


class OutcomeStore:
    """Content-addressed JSON store of per-section campaign outcomes.

    Mirrors :class:`~repro.harness.cache.ArtifactCache` safety: records
    publish via same-directory temp file + atomic ``os.replace``, any
    unreadable or schema-mismatched entry is a miss (deleted, then
    re-injected), and accounting lives on the ``repro.obs`` registry as
    ``campaign.store.<event>{store=<root>}`` — worker deltas ship back
    to the parent, so counters aggregate across the pool.
    """

    def __init__(self, root: Optional[str] = None, enabled: bool = True) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        self.root = os.path.join(root, "outcomes")
        self.enabled = enabled and not os.environ.get("REPRO_CACHE_DISABLE")

    def _count(self, name: str, amount: int = 1) -> None:
        get_observer().counter(f"campaign.store.{name}").inc(
            amount, store=self.root
        )

    @property
    def objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    def path_for(self, key: str) -> str:
        return os.path.join(self.objects_dir, key[:2], f"{key}.json")

    @property
    def index_path(self) -> str:
        return os.path.join(self.root, "index.json")

    def get(self, key: str) -> Optional[dict]:
        """Load a section record, or None on miss; corruption is a miss."""
        if not self.enabled:
            return None
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            self._count("misses")
            return None
        except (OSError, ValueError):
            self._count("misses")
            self._count("corrupt")
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        if not isinstance(record, dict) or record.get("schema") != STORE_SCHEMA:
            self._count("misses")
            self._count("corrupt")
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self._count("hits")
        return record

    def put(self, key: str, record: dict) -> None:
        """Publish a section record atomically."""
        if not self.enabled:
            return
        self._write_json(self.path_for(key), record)
        self._count("stores")

    def _write_json(self, path: str, payload: dict) -> None:
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Identity index (drives --explain-stale diagnosis)
    # ------------------------------------------------------------------
    def load_index(self) -> Dict[str, dict]:
        if not self.enabled:
            return {}
        try:
            with open(self.index_path, "r", encoding="utf-8") as handle:
                index = json.load(handle)
        except (OSError, ValueError):
            return {}
        return index if isinstance(index, dict) else {}

    def update_index(self, entries: Dict[str, dict]) -> None:
        """Merge identity -> {key, fingerprint, pipeline} rows (atomic)."""
        if not self.enabled or not entries:
            return
        index = self.load_index()
        changed = False
        for identity, row in entries.items():
            if index.get(identity) != row:
                index[identity] = row
                changed = True
        if changed:
            self._write_json(self.index_path, index)

    def entry_count(self) -> int:
        count = 0
        try:
            shards = os.listdir(self.objects_dir)
        except FileNotFoundError:
            return 0
        for shard in shards:
            shard_dir = os.path.join(self.objects_dir, shard)
            try:
                names = os.listdir(shard_dir)
            except NotADirectoryError:
                continue
            count += sum(1 for name in names if name.endswith(".json"))
        return count


_default_store: Optional[OutcomeStore] = None


def default_store() -> OutcomeStore:
    """The process-wide outcome store (created on first use)."""
    global _default_store
    if _default_store is None:
        _default_store = OutcomeStore()
    return _default_store


def set_default_store(store: Optional[OutcomeStore]) -> Optional[OutcomeStore]:
    """Swap the process-wide store (None resets); returns the previous."""
    global _default_store
    previous = _default_store
    _default_store = store
    return previous


# ----------------------------------------------------------------------
# Section records
# ----------------------------------------------------------------------
def detect_gap_histogram(rows: Sequence[Sequence[object]]) -> Dict[str, int]:
    """Power-of-two histogram of injection-to-detection gaps.

    Bucket ``"0"`` counts undetected trials and zero-gap detections;
    bucket ``"2^k"`` counts gaps in ``[2^k, 2^(k+1))``.
    """
    histogram: Dict[str, int] = {}
    for _index, _bucket, detected, gap in rows:
        if not detected or gap <= 0:
            label = "0"
        else:
            label = str(1 << (int(gap).bit_length() - 1))
        histogram[label] = histogram.get(label, 0) + 1
    return histogram


def summarize_rows(rows: Sequence[Sequence[object]]) -> Dict[str, int]:
    """Campaign-bucket totals of a section's trial rows."""
    summary = CampaignResult()
    for _index, bucket, detected, _gap in rows:
        summary.count(bucket, detected)
    return asdict(summary)


def make_section_record(
    workload: str,
    entry: str,
    label: str,
    kind: str,
    latency: int,
    unit_seed: int,
    region: str,
    fingerprint: str,
    rows: Sequence[Sequence[object]],
) -> dict:
    """Assemble a schema-complete store record from trial rows.

    Rows are ``[index, bucket, detected, detect_gap]`` with one row per
    *injected* trial; the aggregates (bucket totals, detect-latency
    histogram) are derived so they can never drift from the rows.
    """
    ordered = sorted(rows, key=lambda row: row[0])
    return {
        "schema": STORE_SCHEMA,
        "pipeline": PIPELINE_VERSION,
        "workload": workload,
        "entry": entry,
        "label": label,
        "kind": kind,
        "latency": latency,
        "seed": unit_seed,
        "region": region,
        "fingerprint": fingerprint,
        "trials": [list(row) for row in ordered],
        "summary": summarize_rows(ordered),
        "detect_gaps": detect_gap_histogram(ordered),
    }


def merge_section_rows(
    record: Optional[dict],
    new_rows: Sequence[Sequence[object]],
) -> List[List[object]]:
    """Union existing record rows with newly executed ones (by index)."""
    by_index: Dict[int, List[object]] = {}
    if record is not None:
        for row in record.get("trials", []):
            by_index[int(row[0])] = list(row)
    for row in new_rows:
        by_index[int(row[0])] = list(row)
    return [by_index[index] for index in sorted(by_index)]


# ----------------------------------------------------------------------
# Section planning (probe the store, classify staleness)
# ----------------------------------------------------------------------
@dataclass
class SectionStatus:
    """One section's cache outcome within a campaign run."""

    workload: str
    label: str
    region: str
    key: str
    identity: str
    fingerprint: str
    status: str             # SECTION_CACHED | SECTION_TOPUP | SECTION_NEW
    reason: str             # staleness diagnosis ("" when fully cached)
    trials_needed: int
    trials_cached: int
    trials_run: int = 0


@dataclass
class _SectionPlan:
    """Internal planning row: status plus the data needed to execute."""

    status: SectionStatus
    needed: List[int]
    missing: List[int]
    record: Optional[dict]


def _classify_miss(
    index: Dict[str, dict], identity: str, fingerprint: str
) -> str:
    """Why a section key missed, from the identity index."""
    row = index.get(identity)
    if not isinstance(row, dict):
        return "new-section"
    if row.get("fingerprint") != fingerprint:
        old = str(row.get("fingerprint", ""))[:12]
        return f"code-changed ({old or '?'} -> {fingerprint[:12]})"
    if row.get("pipeline") != PIPELINE_VERSION:
        return f"pipeline-changed ({row.get('pipeline')} -> {PIPELINE_VERSION})"
    return "evicted (record missing from store)"


def plan_sections(
    store: OutcomeStore,
    workload: str,
    entry: str,
    label: str,
    kind: str,
    latency: int,
    unit_seed: int,
    assignment: TrialAssignment,
    program: MachineProgram,
) -> List[_SectionPlan]:
    """Probe the store for every section of one workload × label.

    Returns one plan row per landing region (sorted by region key for a
    deterministic unit order), each carrying the trial indices still to
    inject and the existing record to merge into.
    """
    index = store.load_index()
    observer = get_observer()
    plans: List[_SectionPlan] = []
    fingerprints: Dict[str, str] = {}
    for region in sorted(assignment.regions):
        needed = assignment.regions[region]
        owner = region_owner(region, entry)
        fingerprint = fingerprints.get(owner)
        if fingerprint is None:
            fingerprint = fingerprints[owner] = function_fingerprint(
                program, owner
            )
        key = section_key(
            workload, entry, label, kind, latency, unit_seed, region,
            fingerprint,
        )
        identity = section_identity(
            workload, entry, label, kind, latency, unit_seed, region
        )
        record = store.get(key)
        cached = set()
        if record is not None:
            cached = {int(row[0]) for row in record.get("trials", [])}
        missing = [i for i in needed if i not in cached]
        if record is None:
            status, reason = SECTION_NEW, _classify_miss(
                index, identity, fingerprint
            )
        elif missing:
            status, reason = SECTION_TOPUP, (
                f"top-up (+{len(missing)} of {len(needed)} trials)"
            )
        else:
            status, reason = SECTION_CACHED, ""
        observer.counter("campaign.sections").inc(status=status)
        plans.append(_SectionPlan(
            status=SectionStatus(
                workload=workload, label=label, region=region, key=key,
                identity=identity, fingerprint=fingerprint, status=status,
                reason=reason, trials_needed=len(needed),
                trials_cached=len(needed) - len(missing),
                trials_run=len(missing),
            ),
            needed=needed,
            missing=missing,
            record=record,
        ))
    return plans


# ----------------------------------------------------------------------
# Composition
# ----------------------------------------------------------------------
def compose_campaign(
    plans: Sequence[_SectionPlan],
    uninjected: int,
    per_region: Optional[Dict[str, CampaignResult]] = None,
) -> CampaignResult:
    """Fold section records into one whole-program CampaignResult.

    Only the trial indices the current assignment *needs* are counted —
    a record holding more trials than the budget (an earlier, larger
    run) composes down to exactly the requested budget, which is what
    keeps composed results bit-identical to a monolithic campaign.
    """
    from repro.recovery.predict import measured_region_results

    records = [p.record for p in plans if p.record is not None]
    indices = {p.status.region: set(p.needed) for p in plans}
    regions = measured_region_results(records, indices_by_region=indices)
    total = CampaignResult(trials=uninjected)
    for region in sorted(regions):
        total.merge(regions[region])
        if per_region is not None:
            per_region[region] = regions[region]
    return total


# ----------------------------------------------------------------------
# Section execution — worker for the distributed CampaignRunner path
# ----------------------------------------------------------------------
def run_section_trials(
    program: MachineProgram,
    reference_result: object,
    reference_output: List[object],
    region: str,
    indices: Sequence[int],
    span: int,
    unit_seed: int,
    func: str = "main",
    kind: str = FAULT_VALUE,
    detection_latency: int = 0,
    injector_factory=None,
) -> List[List[object]]:
    """Execute one section's trial indices; returns store rows.

    Every trial must land in the section's region — the assignment
    predicted it from the shared fault-free prefix — so a mismatch means
    the faulted run diverged from the eligibility trace before the fault
    struck, and is raised as a permanent (non-retryable) unit error
    rather than silently mis-filed.
    """
    rows: List[List[object]] = []
    for index in indices:
        outcome = run_planned_trial(
            program, unit_seed, index, span, func=func, kind=kind,
            detection_latency=detection_latency,
            injector_factory=injector_factory,
        )
        bucket = classify_outcome(outcome, reference_result, reference_output)
        landed = outcome.region or REGION_UNKNOWN if outcome.injected else None
        if bucket is None or landed != region:
            raise PermanentUnitError(
                f"section assignment drift: trial {index} was assigned to "
                f"region {region!r} but landed in {landed!r}"
            )
        rows.append([
            index, bucket, 1 if outcome.detected else 0, outcome.detect_gap,
        ])
    return rows


def _section_unit(payload: dict) -> dict:
    """Worker: inject one section's missing trial indices."""
    program, injector_factory, reference, reference_output = prepare_unit(
        payload
    )
    rows = run_section_trials(
        program, reference, reference_output,
        region=payload["region"], indices=payload["indices"],
        span=payload["span"], unit_seed=payload["unit_seed"],
        func=payload["entry"], kind=payload["kind"],
        detection_latency=payload["detection_latency"],
        injector_factory=injector_factory,
    )
    return {
        "workload": payload["workload"],
        "label": payload["label"],
        "region": payload["region"],
        "rows": rows,
    }


# ----------------------------------------------------------------------
# Inline driver (recovery compare, bench)
# ----------------------------------------------------------------------
@dataclass
class InlineCampaign:
    """Result + section accounting of one inline incremental campaign."""

    result: CampaignResult
    sections: List[SectionStatus] = field(default_factory=list)
    trials_from_store: int = 0
    trials_injected: int = 0

    @property
    def sections_reinjected(self) -> int:
        return sum(1 for s in self.sections if s.status != SECTION_CACHED)


def incremental_campaign(
    original_program: MachineProgram,
    idempotent_program: MachineProgram,
    reference_result: object,
    reference_output: List[object],
    trials: int,
    func: str = "main",
    kind: str = FAULT_VALUE,
    seed: int = 12345,
    detection_latency: int = 0,
    backend=None,
    flavour: str = "idempotent",
    name: str = "adhoc",
    store: Optional[OutcomeStore] = None,
    per_region: Optional[Dict[str, CampaignResult]] = None,
) -> InlineCampaign:
    """Store-backed campaign of one program, sections run inline.

    The single-process analogue of :func:`run_incremental_fault_campaign`
    — used by the ``repro recovery compare --use-store`` join and the
    campaign-cache bench.  ``seed`` is the *unit* seed (callers derive it
    exactly as their monolithic path would), so the composed result is
    bit-identical to :func:`repro.sim.faults.fault_campaign` (or
    ``backend.campaign(...)``) at the same parameters.

    ``name`` scopes store keys and should be stable across source edits
    (it is provenance, not content — the code content is in the
    per-function fingerprints), so editing one function of a benched
    program re-injects only that function's sections.
    """
    store = store or default_store()
    label = backend.name if backend is not None else flavour
    program, injector_factory = campaign_target(
        original_program, idempotent_program, flavour, backend
    )

    trace = trace_eligibility(program, func=func)
    assignment = assign_trials(
        trace, seed, trials, kind=kind, detection_latency=detection_latency
    )
    plans = plan_sections(
        store, name, func, label, kind, detection_latency, seed,
        assignment, program,
    )
    index_entries: Dict[str, dict] = {}
    for plan in plans:
        if plan.missing:
            rows = run_section_trials(
                program, reference_result, reference_output,
                region=plan.status.region, indices=plan.missing,
                span=assignment.span, unit_seed=seed, func=func, kind=kind,
                detection_latency=detection_latency,
                injector_factory=injector_factory,
            )
            merged = merge_section_rows(plan.record, rows)
            plan.record = make_section_record(
                name, func, label, kind, detection_latency, seed,
                plan.status.region, plan.status.fingerprint, merged,
            )
            store.put(plan.status.key, plan.record)
        index_entries[plan.status.identity] = {
            "key": plan.status.key,
            "fingerprint": plan.status.fingerprint,
            "pipeline": PIPELINE_VERSION,
        }
    store.update_index(index_entries)

    result = compose_campaign(
        plans, len(assignment.uninjected), per_region=per_region
    )
    _publish_campaign_metrics(result, kind)
    outcome = InlineCampaign(
        result=result,
        sections=[plan.status for plan in plans],
        trials_from_store=sum(p.status.trials_cached for p in plans),
        trials_injected=sum(len(p.missing) for p in plans),
    )
    observer = get_observer()
    if outcome.trials_from_store:
        observer.counter("campaign.trials").inc(
            outcome.trials_from_store, source="store"
        )
    if outcome.trials_injected:
        observer.counter("campaign.trials").inc(
            outcome.trials_injected, source="injected"
        )
    return outcome


# ----------------------------------------------------------------------
# Suite-wide incremental campaign (the `repro campaign --incremental` path)
# ----------------------------------------------------------------------
@dataclass
class IncrementalCampaignSummary(FaultCampaignSummary):
    """Fault-campaign summary plus per-section cache accounting."""

    sections: List[SectionStatus] = field(default_factory=list)
    store_root: str = ""
    trials_from_store: int = 0
    trials_injected: int = 0
    #: (workload, label) -> region -> measured CampaignResult
    per_region: Dict[Tuple[str, str], Dict[str, CampaignResult]] = field(
        default_factory=dict
    )

    @property
    def sections_total(self) -> int:
        return len(self.sections)

    @property
    def sections_cached(self) -> int:
        return sum(1 for s in self.sections if s.status == SECTION_CACHED)

    @property
    def sections_reinjected(self) -> int:
        return self.sections_total - self.sections_cached


def _section_unit_id(
    workload: str,
    label_tag: str,
    kind: str,
    seed: int,
    latency: int,
    key: str,
    indices: Sequence[int],
) -> str:
    digest = hashlib.sha256(
        ",".join(str(i) for i in indices).encode("ascii")
    ).hexdigest()[:8]
    return (
        f"{workload}:{label_tag}:{kind}:seed{seed}:lat{latency}"
        f":sec{key[:12]}:n{len(indices)}h{digest}"
    )


def run_incremental_fault_campaign(
    names: Optional[Sequence[str]] = None,
    trials: int = 40,
    seed: int = 12345,
    kind: str = FAULT_VALUE,
    detection_latency: int = 0,
    jobs: int = 1,
    manifest_path: Optional[str] = None,
    telemetry: Optional[Telemetry] = None,
    retry=None,
    unit_timeout: Optional[float] = None,
    chaos=None,
    flavours: Optional[Sequence[str]] = None,
    backends: Optional[Sequence[str]] = None,
    store: Optional[OutcomeStore] = None,
) -> IncrementalCampaignSummary:
    """Suite-wide fault campaign, sectioned and backed by the outcome store.

    The incremental counterpart of
    :func:`repro.harness.campaign.run_fault_campaign`: same workload ×
    label grid, same spawn-key seeds, but each landing region is one
    work unit and previously stored sections are composed instead of
    re-injected.  Composed results are bit-identical to the monolithic
    campaign at equal budgets.
    """
    from repro.experiments.common import (
        build_pair,
        prebuild_pairs,
        resolve_workloads,
    )

    telemetry = telemetry or Telemetry(label="incremental campaign")
    observer = get_observer()
    if manifest_path:
        observer.log(f"campaign manifest: {manifest_path}")
    store = store or default_store()
    label_specs = campaign_label_specs(flavours, backends)
    workloads = resolve_workloads(names)
    prebuild_pairs([w.name for w in workloads], jobs=jobs, telemetry=telemetry)

    # ------------------------------------------------------------------
    # Plan: one eligibility trace per workload × label, then store probes
    # ------------------------------------------------------------------
    campaign_plans: Dict[Tuple[str, str], List[_SectionPlan]] = {}
    uninjected: Dict[Tuple[str, str], int] = {}
    units: List[Tuple[str, dict]] = []
    provenance: Dict[str, dict] = {}
    unit_meta: Dict[str, Tuple[Tuple[str, str], int]] = {}
    with telemetry.phase(
        "plan", units=len(workloads) * max(1, len(label_specs))
    ):
        for workload in workloads:
            original, idempotent = build_pair(workload.name)
            for label, flavour, backend, seed_key in label_specs:
                program, _factory = campaign_target(
                    original.program, idempotent.program, flavour, backend
                )
                unit_seed = derive_seed(seed, workload.name, seed_key)
                trace = trace_eligibility(program, func=workload.entry)
                assignment = assign_trials(
                    trace, unit_seed, trials, kind=kind,
                    detection_latency=detection_latency,
                )
                plans = plan_sections(
                    store, workload.name, workload.entry, label, kind,
                    detection_latency, unit_seed, assignment, program,
                )
                campaign_plans[(workload.name, label)] = plans
                uninjected[(workload.name, label)] = len(
                    assignment.uninjected
                )
                tag = label_tag(label, backend)
                for plan_index, plan in enumerate(plans):
                    if not plan.missing:
                        continue
                    unit_id = _section_unit_id(
                        workload.name, tag, kind, seed,
                        detection_latency, plan.status.key, plan.missing,
                    )
                    units.append((unit_id, {
                        "workload": workload.name,
                        "flavour": flavour,
                        "backend": label if backend is not None else None,
                        "label": label,
                        "entry": workload.entry,
                        "region": plan.status.region,
                        "indices": plan.missing,
                        "span": assignment.span,
                        "unit_seed": unit_seed,
                        "kind": kind,
                        "detection_latency": detection_latency,
                    }))
                    provenance[unit_id] = {
                        "pipeline": PIPELINE_VERSION,
                        "schema": STORE_SCHEMA,
                        "label": tag,
                        "cfg": plan.status.fingerprint,
                    }
                    unit_meta[unit_id] = (
                        (workload.name, label), plan_index,
                    )

    # ------------------------------------------------------------------
    # Inject the missing sections on the shared runner stack
    # ------------------------------------------------------------------
    manifest = RunManifest(manifest_path) if manifest_path else None
    runner = CampaignRunner(
        manifest=manifest, jobs=jobs, telemetry=telemetry,
        retry=retry, unit_timeout=unit_timeout, chaos=chaos,
    )
    records = runner.run(
        _section_unit, units, phase="inject", provenance=provenance
    )

    # ------------------------------------------------------------------
    # Merge executed sections into the store, then compose
    # ------------------------------------------------------------------
    summary = IncrementalCampaignSummary(
        trials=trials, seed=seed, kind=kind,
        labels=tuple(label for label, _f, _b, _s in label_specs),
        executed_units=runner.executed,
        skipped_units=runner.skipped,
        failed_units=runner.failed,
        quarantined_units=runner.quarantined + runner.quarantine_skipped,
        telemetry=telemetry,
        store_root=store.root,
    )
    index_entries: Dict[str, dict] = {}
    for unit_id, _payload in units:
        record = records.get(unit_id)
        if record is None:
            continue
        campaign_key, plan_index = unit_meta[unit_id]
        plan = campaign_plans[campaign_key][plan_index]
        if record.quarantined:
            summary.errors.append(
                f"{unit_id}: quarantined after {record.attempts} attempts "
                f"[{record.data.get('category', UNIT_ERROR)}]: "
                f"{record.data.get('error')}"
            )
            summary.quarantined.append(
                (unit_id, record.data.get("category", UNIT_ERROR))
            )
            continue
        if not record.ok:
            summary.errors.append(f"{unit_id}: {record.data.get('error')}")
            continue
        rows = record.data.get("rows", [])
        merged = merge_section_rows(plan.record, rows)
        workload_name, label = campaign_key
        plan.record = make_section_record(
            workload_name, _payload["entry"], label, kind,
            detection_latency, _payload["unit_seed"],
            plan.status.region, plan.status.fingerprint, merged,
        )
        store.put(plan.status.key, plan.record)

    for (workload_name, label), plans in campaign_plans.items():
        for plan in plans:
            summary.sections.append(plan.status)
            index_entries[plan.status.identity] = {
                "key": plan.status.key,
                "fingerprint": plan.status.fingerprint,
                "pipeline": PIPELINE_VERSION,
            }
        per_region: Dict[str, CampaignResult] = {}
        composed = compose_campaign(
            plans, uninjected[(workload_name, label)], per_region=per_region
        )
        summary.results[(workload_name, label)] = composed
        summary.per_region[(workload_name, label)] = per_region
        _publish_campaign_metrics(composed, kind)
    store.update_index(index_entries)
    summary.trials_from_store = sum(
        s.trials_cached for s in summary.sections
    )
    summary.trials_injected = sum(s.trials_run for s in summary.sections)
    if summary.trials_from_store:
        observer.counter("campaign.trials").inc(
            summary.trials_from_store, source="store"
        )
    if summary.trials_injected:
        observer.counter("campaign.trials").inc(
            summary.trials_injected, source="injected"
        )
    return summary


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def format_incremental_report(summary: IncrementalCampaignSummary) -> str:
    """The composed campaign tables (stdout).

    Deliberately omits unit/section accounting — that goes to stderr via
    :func:`format_section_accounting` — so a warm re-run's stdout is
    byte-identical to the cold run that populated the store.
    """
    from repro.experiments.common import format_table

    headers = ["workload", "flavour", "trials", "injected", "recovered",
               "wrong", "crashed", "recovery"]
    rows = []
    for (name, label), result in summary.results.items():
        rows.append([
            name, label, result.trials, result.injected,
            result.recovered_correctly, result.wrong_result, result.crashed,
            format_rate(result),
        ])
    lines = [format_table(headers, rows), ""]
    for label in summary.labels:
        total = summary.flavour_totals(label)
        undetected = (
            f" undetected={total.undetected}" if total.undetected else ""
        )
        lines.append(
            f"{label:10s}: injected={total.injected} "
            f"recovered={total.recovered_correctly} "
            f"wrong={total.wrong_result} crashed={total.crashed}"
            f"{undetected} "
            f"({format_rate(total)} recovery)"
        )
    for error in summary.errors:
        lines.append(f"  ! {error}")
    return "\n".join(lines)


def format_section_accounting(summary: IncrementalCampaignSummary) -> str:
    """One-line section/trial cache accounting (stderr)."""
    return (
        f"sections: {summary.sections_total} total, "
        f"{summary.sections_cached} cached, "
        f"{summary.sections_reinjected} re-injected "
        f"({summary.trials_from_store} trials from store, "
        f"{summary.trials_injected} injected); "
        f"store: {summary.store_root}"
    )


def format_stale_report(summary: IncrementalCampaignSummary) -> str:
    """The ``--explain-stale`` view: which sections re-ran, and why."""
    lines = [format_section_accounting(summary)]
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
