"""The section engine of fault campaigns (FastFlip-style composition).

Every fault campaign driver — each ``repro campaign`` unit, ``repro
recovery compare`` and perfbench's ``recampaign`` workload — runs
:func:`campaign_sections`.  The constructed idempotent regions are the
natural program sections, so one workload × label campaign splits into
per-region **sections** whose per-trial outcomes persist in a
content-addressed **outcome store** under ``.repro-cache/outcomes/``.
A composer folds the section outcomes back into one whole-program
:class:`~repro.sim.faults.CampaignResult` that is bit-identical to a
monolithic campaign at the same seeds and budgets.  With the store
disabled every section is new and nothing is published: the same code
is the monolithic campaign.

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
monolithic loop uses, forking from one golden run per unit), and the
composed buckets match trial for trial.

Section keys and staleness
--------------------------
A section's store key hashes ``(store schema, PIPELINE_VERSION,
FAULT_MODEL_VERSION, workload, entry, label, kind, latency, unit seed,
trace span, region key, owning function's machine-code fingerprint)``.
The fingerprint is the SHA-256 of the function's formatted machine code
— a *stable* content checksum (the process-seeded
:func:`repro.ir.verifier.cfg_checksum` cannot key a persistent store).
The span fixes every trial's plan, so an edit anywhere that changes how
many instructions the program runs re-keys every section.  An edit
that keeps the span changes only the edited function's keys, so a
re-campaign re-injects only that function's sections; everything else
composes from the store.  A ``--explain-stale`` report classifies every
re-injected section (new-section, code-changed, pipeline-changed,
fault-model-changed, span-changed, evicted, top-up) from a small
identity index kept next to the objects.

The key pins the code a fault lands in, not the code its corruption
flows into: after a span-preserving edit, a cached fault that reached
the edited function (or read a value it computes) can go stale.
``REPRO_CACHE_DISABLE=1`` (``repro campaign --no-cache``) re-injects
every section.

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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.codegen.machine import MachineProgram, format_machine_function
from repro.harness.cache import DEFAULT_CACHE_DIR, PIPELINE_VERSION
from repro.harness.resilience import PermanentUnitError
from repro.obs.context import get_observer
from repro.sim import faults
from repro.sim.faults import (
    FAULT_MODEL_VERSION,
    FAULT_VALUE,
    REGION_UNKNOWN,
    CampaignResult,
    _publish_campaign_metrics,
    classify_outcome,
    region_key,
    run_planned_trial,
    target_span,
    trial_plan,
)
from repro.sim.simulator import Simulator

#: Schema tag of outcome-store records; mixed into every section key, so
#: bumping it invalidates the whole store (a layout change is a miss).
STORE_SCHEMA = "repro.outcomes/2"

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
    ``result`` and ``output`` are the run's return value and printed
    output, so a trace of the idempotent build doubles as the campaign's
    reference run.
    """

    span: int
    instructions: int
    value_events: List[int] = field(default_factory=list)
    value_regions: List[str] = field(default_factory=list)
    control_events: List[int] = field(default_factory=list)
    control_regions: List[str] = field(default_factory=list)
    result: object = None
    output: List[object] = field(default_factory=list)

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
    sim = Simulator(program, max_instructions=max_instructions, timed=False)
    trace = EligibilityTrace(span=1, instructions=0)
    value_site, control_site = faults.value_site, faults.control_site

    def pre(s: Simulator, instr) -> None:
        if control_site(instr):
            trace.control_events.append(s.instructions)
            trace.control_regions.append(region_key(s))

    def post(s: Simulator, instr) -> None:
        if value_site(instr):
            trace.value_events.append(s.instructions)
            trace.value_regions.append(region_key(s))

    sim.pre_hook = pre
    sim.post_hook = post
    trace.result = sim.run(func, args)
    trace.output = list(sim.output)
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
    span: int,
    region: str,
    fingerprint: str,
) -> str:
    """SHA-256 content address of one section's outcome record.

    Trial ``i`` of the section is :func:`~repro.sim.faults.trial_plan`
    at ``(unit_seed, i, span)``, so the span is part of what a stored
    row means: a different span aims the same index elsewhere.
    """
    h = hashlib.sha256()
    for part in (
        STORE_SCHEMA, PIPELINE_VERSION, FAULT_MODEL_VERSION, workload,
        entry, label, kind, str(latency), str(unit_seed), str(span),
        region, fingerprint,
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

    Everything in :func:`section_key` except the fingerprint, the span
    and the pipeline and fault-model versions: the identity survives
    code edits, so the explain index can tell *why* a key missed (code
    changed vs never seen).
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
        """Merge identity -> {key, fingerprint, pipeline, fault_model,
        span} rows (atomic)."""
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
    span: int,
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
        "fault_model": FAULT_MODEL_VERSION,
        "workload": workload,
        "entry": entry,
        "label": label,
        "kind": kind,
        "latency": latency,
        "seed": unit_seed,
        "span": span,
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
    span: int
    status: str             # SECTION_CACHED | SECTION_TOPUP | SECTION_NEW
    reason: str             # staleness diagnosis ("" when fully cached)
    trials_needed: int
    trials_cached: int
    trials_run: int = 0


class SectionAccounting:
    """Store accounting of a campaign, derived from its planned sections."""

    sections: List[SectionStatus]

    @property
    def sections_cached(self) -> int:
        return sum(1 for s in self.sections if s.status == SECTION_CACHED)

    @property
    def sections_reinjected(self) -> int:
        return len(self.sections) - self.sections_cached

    @property
    def trials_from_store(self) -> int:
        return sum(s.trials_cached for s in self.sections)

    @property
    def trials_injected(self) -> int:
        return sum(s.trials_run for s in self.sections)


@dataclass
class _SectionPlan:
    """Internal planning row: status plus the data needed to execute."""

    status: SectionStatus
    needed: List[int]
    missing: List[int]
    record: Optional[dict]


def _classify_miss(
    index: Dict[str, dict], identity: str, fingerprint: str, span: int
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
    if row.get("fault_model") != FAULT_MODEL_VERSION:
        return (f"fault-model-changed ({row.get('fault_model')} -> "
                f"{FAULT_MODEL_VERSION})")
    if row.get("span") != span:
        return f"span-changed ({row.get('span')} -> {span})"
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
    deterministic section order), each carrying the trial indices still to
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
            workload, entry, label, kind, latency, unit_seed,
            assignment.span, region, fingerprint,
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
                index, identity, fingerprint, assignment.span
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
                identity=identity, fingerprint=fingerprint,
                span=assignment.span, status=status,
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
# Section execution
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
    golden: Optional[faults.GoldenRun] = None,
) -> List[List[object]]:
    """Execute one section's trial indices; returns store rows.

    ``golden`` is the unit's golden run for the trials to fork from.

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
            injector_factory=injector_factory, golden=golden,
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


# ----------------------------------------------------------------------
# The section engine: the one body of every campaign driver
# ----------------------------------------------------------------------
@dataclass
class InlineCampaign(SectionAccounting):
    """Result + section accounting of one workload × label campaign."""

    result: CampaignResult
    sections: List[SectionStatus] = field(default_factory=list)


def index_entries(sections: Sequence[SectionStatus]) -> Dict[str, dict]:
    """Identity-index rows (see :meth:`OutcomeStore.update_index`) of
    planned sections."""
    return {
        status.identity: {
            "key": status.key,
            "fingerprint": status.fingerprint,
            "pipeline": PIPELINE_VERSION,
            "fault_model": FAULT_MODEL_VERSION,
            "span": status.span,
        }
        for status in sections
    }


@contextmanager
def _fault_free_run(name: str, label: str, func: str):
    """Report a trapping fault-free run as a permanent unit error: every
    trial is judged against fault-free runs, and a build whose fault-free
    run traps traps on every retry too."""
    try:
        yield
    except Exception as exc:
        raise PermanentUnitError(
            f"fault-free run failed for workload {name!r} "
            f"(label {label}, entry {func!r}): {type(exc).__name__}: {exc}"
        ) from exc


def campaign_sections(
    original_program: MachineProgram,
    idempotent_program: MachineProgram,
    trials: int,
    store: OutcomeStore,
    func: str = "main",
    kind: str = FAULT_VALUE,
    seed: int = 12345,
    detection_latency: int = 0,
    backend=None,
    flavour: str = "idempotent",
    name: str = "adhoc",
    per_region: Optional[Dict[str, CampaignResult]] = None,
    reference: Optional[Tuple[object, List[object]]] = None,
) -> InlineCampaign:
    """Campaign one workload × label section by section.

    One eligibility trace assigns every trial its landing region; each
    region's trials that ``store`` lacks inject, and that section's
    record publishes at once, so a killed campaign keeps every finished
    section.  The composed result is bit-identical to
    :func:`repro.sim.faults.fault_campaign` (or ``backend.campaign``) at
    the unit ``seed``.  With the store disabled every section is new and
    nothing is published: that is the monolithic campaign.

    ``reference`` is the idempotent build's fault-free ``(result,
    output)``, which every scheme must reproduce.  Without it, the trace
    is that run when the campaigned program is the idempotent build;
    otherwise one plain run supplies it, and only when some section has
    trials to inject.  So is the golden run the trials fork from
    (:func:`repro.sim.faults.record_golden_run`).

    The identity index (:func:`index_entries`) is the store's one
    read-modify-write file, so it is left to the caller: a suite
    campaign merges it once in its parent.
    """
    label = backend.name if backend is not None else flavour
    program, injector_factory = campaign_target(
        original_program, idempotent_program, flavour, backend
    )
    with _fault_free_run(name, label, func):
        trace = trace_eligibility(program, func=func)
    assignment = assign_trials(
        trace, seed, trials, kind=kind, detection_latency=detection_latency
    )
    plans = plan_sections(
        store, name, func, label, kind, detection_latency, seed,
        assignment, program,
    )
    golden = None
    if any(plan.missing for plan in plans):
        with _fault_free_run(name, label, func):
            if reference is None:
                if program is idempotent_program:
                    reference = trace.result, trace.output
                else:
                    reference_sim = Simulator(idempotent_program, timed=False)
                    reference = (
                        reference_sim.run(func), list(reference_sim.output)
                    )
            golden = faults.record_golden_run(
                program, func=func, injector_factory=injector_factory
            )
    for plan in plans:
        if not plan.missing:
            continue
        rows = run_section_trials(
            program, *reference,
            region=plan.status.region, indices=plan.missing,
            span=assignment.span, unit_seed=seed, func=func, kind=kind,
            detection_latency=detection_latency,
            injector_factory=injector_factory, golden=golden,
        )
        plan.record = make_section_record(
            name, func, label, kind, detection_latency, seed,
            assignment.span, plan.status.region, plan.status.fingerprint,
            merge_section_rows(plan.record, rows),
        )
        store.put(plan.status.key, plan.record)

    result = compose_campaign(
        plans, len(assignment.uninjected), per_region=per_region
    )
    _publish_campaign_metrics(result, kind)
    outcome = InlineCampaign(
        result=result, sections=[plan.status for plan in plans]
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
    """Store-backed campaign of one program, run in this process.

    :func:`campaign_sections` plus the identity-index merge — used by
    ``repro recovery compare`` and perfbench's ``recampaign``.  ``seed``
    is the *unit* seed (callers derive it exactly as
    ``repro campaign`` does), so the composed result is bit-identical to
    :func:`repro.sim.faults.fault_campaign` (or ``backend.campaign(...)``)
    at the same parameters.

    ``name`` scopes store keys and should be stable across source edits
    (it is provenance, not content — the code content is in the
    per-function fingerprints), so editing one function of a
    campaigned program re-injects only that function's sections.
    """
    store = store or default_store()
    outcome = campaign_sections(
        original_program, idempotent_program, trials, store,
        func=func, kind=kind, seed=seed,
        detection_latency=detection_latency, backend=backend,
        flavour=flavour, name=name, per_region=per_region,
        reference=(reference_result, reference_output),
    )
    store.update_index(index_entries(outcome.sections))
    return outcome
