"""Fuzz campaign orchestration on the PR 1/3 harness.

A fuzz campaign is a set of independent trials — one generator seed
each — run through :class:`~repro.harness.executor.TaskExecutor`
(parallel, each trial once per invocation) and recorded in the same
JSON-lines :class:`~repro.harness.campaign.RunManifest` fault campaigns
use, so fuzz runs are resumable and torn manifests self-heal.

Statuses follow the campaign taxonomy:

- ``done`` — all oracles passed; skipped on resume.
- ``quarantined`` — an *oracle failure* (a real compiler bug witness):
  recorded with the failing oracle set, skipped on resume (a failing
  seed stays failing), surfaced in the report, minimized into a
  reproducer.
- ``failed`` — infrastructure failure (``worker-lost``, or an oracle
  run that raised: ``unit-error``); re-run on resume.  The report
  names each one's category and error, so the reason survives a run
  without a manifest.

Determinism: trial ``i``'s generator seed is
``derive_seed(seed, "fuzz.trial", i)`` (spawn-key style), so any
``--jobs`` sharding or resumed invocation checks exactly the trial set
a serial run does, and the summary is bit-identical.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.fuzz.generator import (
    GEN_VERSION,
    GenConfig,
    generate,
    trial_seed,
)
from repro.fuzz.oracle import check_source
from repro.fuzz.reduce import failure_predicate, reduce_program
from repro.harness.campaign import (
    RunManifest,
    STATUS_DONE,
    STATUS_FAILED,
    UnitRecord,
)
from repro.harness.executor import UNIT_ERROR, TaskExecutor
from repro.harness.report import Telemetry

#: Manifest status of an oracle failure: a verdict on the program, so
#: resume keeps the witness instead of re-running the trial.
STATUS_QUARANTINED = "quarantined"


@dataclass
class FuzzFailure:
    """One failing trial: its coordinates and witness."""

    index: int
    seed: int                      # generator seed of the trial
    oracles: Tuple[str, ...]
    detail: str
    reproducer: Optional[str] = None  # path of the (minimized) source


@dataclass
class FuzzInfraFailure:
    """One trial the harness could not check: why, as recorded."""

    index: int
    category: str                  # unit-error | worker-lost
    error: str                     # "TypeName: message"


@dataclass
class FuzzSummary:
    trials: int = 0
    seed: int = 0
    executed: int = 0
    passed: int = 0
    skipped: int = 0               # resumed from manifest as done
    checkpoints: int = 0           # total forced-recovery points exercised
    forced_runs: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    #: harness-level failures (re-run on resume)
    infra_failures: List[FuzzInfraFailure] = field(default_factory=list)
    budget_exhausted: bool = False
    remaining: int = 0             # trials not run (budget stop)

    @property
    def infra_failed(self) -> int:
        return len(self.infra_failures)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.infra_failures


def _unit_id(seed: int, index: int) -> str:
    return f"fuzz:g{GEN_VERSION}:seed{seed}:t{index}"


def fuzz_unit(payload: dict) -> dict:
    """Worker: generate trial ``index``'s program and run every oracle.

    Returns a JSON-serializable row; oracle failures are *data*, not
    exceptions — the parent quarantines them, and a failed unit stays
    reserved for genuine infrastructure faults.
    """
    gen_seed = payload["trial_seed"]
    program = generate(gen_seed, GenConfig(**payload.get("gen", {})))
    report = check_source(
        program.source,
        multi_fault=payload.get("multi_fault", True),
        max_forced=payload.get("max_forced"),
    )
    obs.counter("fuzz.trials").inc(
        status="pass" if report.ok else "fail"
    )
    return {
        "trial_seed": gen_seed,
        "index": payload["index"],
        "ok": report.ok,
        "oracles": list(report.failed_oracles),
        "detail": "; ".join(str(f) for f in report.failures[:4]),
        "checkpoints": report.checkpoints,
        "forced_runs": report.forced_runs,
        "instructions": report.instructions,
    }


def _write_reproducer(
    out_dir: str, failure: FuzzFailure, source: str, minimized: bool,
    campaign_seed: int,
) -> str:
    os.makedirs(out_dir, exist_ok=True)
    name = f"fuzz-g{GEN_VERSION}-s{failure.seed}.c"
    path = os.path.join(out_dir, name)
    oracles = ",".join(failure.oracles) or "unknown"
    header = (
        f"// repro.fuzz reproducer ({'minimized' if minimized else 'raw'})\n"
        f"// generator: v{GEN_VERSION}"
        f"  campaign seed: {campaign_seed}"
        f"  trial: {failure.index}"
        f"  trial seed: {failure.seed}\n"
        f"// failing oracle(s): {oracles}\n"
        f"// detail: {failure.detail[:200]}\n"
        f"// replayed by tests/test_regression_corpus.py\n"
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + source)
    obs.counter("fuzz.reproducers").inc()
    return path


def run_fuzz_campaign(
    trials: int = 50,
    seed: int = 0,
    jobs: int = 1,
    shrink: bool = True,
    time_budget: Optional[float] = None,
    manifest_path: Optional[str] = None,
    out_dir: str = os.path.join("examples", "regressions"),
    gen: Optional[dict] = None,
    multi_fault: bool = True,
    max_forced: Optional[int] = None,
    max_reproducers: int = 5,
    telemetry: Optional[Telemetry] = None,
) -> FuzzSummary:
    """Run a differential fuzzing campaign; returns the summary.

    ``time_budget`` (seconds) stops launching new trials once exceeded;
    completed trials are already in the manifest, so a later invocation
    picks up where the budget ran out.
    """
    started = time.monotonic()
    telemetry = telemetry or Telemetry(label="fuzz campaign")
    observer = obs.get_observer()
    manifest = RunManifest(manifest_path) if manifest_path else None
    if manifest_path:
        observer.log(f"fuzz manifest: {manifest_path}")

    units: List[Tuple[str, dict]] = []
    for index in range(trials):
        units.append((
            _unit_id(seed, index),
            {
                "index": index,
                "trial_seed": trial_seed(seed, index),
                "gen": dict(gen or {}),
                "multi_fault": multi_fault,
                "max_forced": max_forced,
            },
        ))

    records: Dict[str, UnitRecord] = manifest.load() if manifest else {}
    summary = FuzzSummary(trials=trials, seed=seed)
    todo: List[Tuple[str, dict]] = []
    for uid, payload in units:
        record = records.get(uid)
        if record is not None and (record.ok or (
            record.status == STATUS_QUARANTINED
            and not (record.data or {}).get("infra")
        )):
            # Done, or a recorded oracle failure, which stays failing:
            # keep its witness without re-running the trial.
            summary.skipped += 1
        else:
            todo.append((uid, payload))
    if manifest is not None:
        observer.log(
            f"fuzz resume: {summary.skipped} of {trials} trials already "
            f"in manifest, {len(todo)} to run"
        )

    with telemetry.phase("fuzz", units=len(todo)):
        stream = TaskExecutor(jobs).imap(
            fuzz_unit,
            [payload for _, payload in todo],
            keys=[uid for uid, _ in todo],
        )
        for result in stream:
            if result.ok and result.value.get("ok"):
                record = UnitRecord(
                    unit_id=str(result.key), status=STATUS_DONE,
                    seconds=result.seconds, data=result.value,
                )
                summary.executed += 1
                observer.counter("fuzz.units").inc(status="passed")
            elif result.ok:
                # Oracle failure: quarantine the seed (permanently
                # failing by construction — retrying cannot help).
                record = UnitRecord(
                    unit_id=str(result.key), status=STATUS_QUARANTINED,
                    seconds=result.seconds, data=result.value,
                )
                summary.executed += 1
                observer.counter("fuzz.units").inc(status="quarantined")
            else:
                record = UnitRecord(
                    unit_id=str(result.key), status=STATUS_FAILED,
                    seconds=result.seconds,
                    data={"error": result.error, "infra": True,
                          "category": result.category},
                )
                observer.counter("fuzz.units").inc(status="infra_failed")
            records[record.unit_id] = record
            if manifest:
                manifest.append(record)
            if (
                time_budget is not None
                and time.monotonic() - started >= time_budget
            ):
                summary.budget_exhausted = True
                stream.close()
                break

    # ---- settle: fold every known record into the summary ------------
    seen = 0
    for index, (uid, payload) in enumerate(units):
        record = records.get(uid)
        if record is None:
            continue
        seen += 1
        data = record.data or {}
        if record.ok:
            summary.passed += 1
            summary.checkpoints += int(data.get("checkpoints", 0))
            summary.forced_runs += int(data.get("forced_runs", 0))
        elif data.get("infra") or "oracles" not in data:
            summary.infra_failures.append(FuzzInfraFailure(
                index=index,
                category=str(data.get("category", UNIT_ERROR)),
                error=str(data.get("error", "")),
            ))
        else:
            summary.checkpoints += int(data.get("checkpoints", 0))
            summary.forced_runs += int(data.get("forced_runs", 0))
            summary.failures.append(FuzzFailure(
                index=index,
                seed=int(data.get("trial_seed", payload["trial_seed"])),
                oracles=tuple(data.get("oracles", [])),
                detail=str(data.get("detail", "")),
            ))
    summary.remaining = trials - seen
    summary.failures.sort(key=lambda f: f.index)

    # ---- minimize + persist reproducers ------------------------------
    for failure in summary.failures[:max_reproducers]:
        program = generate(
            failure.seed, GenConfig(**(gen or {}))
        )
        source = program.source
        minimized = False
        if shrink and failure.oracles:
            predicate = failure_predicate(
                failure.oracles, multi_fault=multi_fault,
                max_forced=max_forced,
            )
            with telemetry.phase("shrink"):
                try:
                    reduced = reduce_program(program, predicate)
                    source = reduced.source
                    minimized = True
                except ValueError:
                    # The failure did not reproduce in-process (e.g. a
                    # flaky environment); keep the raw program.
                    pass
        failure.reproducer = _write_reproducer(
            out_dir, failure, source, minimized, seed
        )
    return summary


def format_fuzz_report(summary: FuzzSummary) -> str:
    lines = [
        f"fuzz: {summary.trials} trials, seed {summary.seed} "
        f"(generator v{GEN_VERSION})",
        f"  passed:      {summary.passed}",
        f"  oracle fail: {len(summary.failures)}",
        f"  infra fail:  {summary.infra_failed}",
        f"  resumed:     {summary.skipped}",
        f"  forced recoveries exercised: {summary.forced_runs} "
        f"(over {summary.checkpoints} dynamic check points)",
    ]
    if summary.budget_exhausted:
        lines.append(
            f"  time budget exhausted: {summary.remaining} trials not run "
            "(resume with the same manifest to continue)"
        )
    for infra in summary.infra_failures:
        lines.append(
            f"  ! trial {infra.index} infra fail [{infra.category}]: "
            f"{infra.error[:160]}"
        )
    for failure in summary.failures:
        oracles = ",".join(failure.oracles) or "?"
        lines.append(
            f"  ! trial {failure.index} seed {failure.seed} "
            f"failed [{oracles}]"
        )
        if failure.reproducer:
            lines.append(f"    reproducer: {failure.reproducer}")
        if failure.detail:
            lines.append(f"    {failure.detail[:160]}")
    return "\n".join(lines)
