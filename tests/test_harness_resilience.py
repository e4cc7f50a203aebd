"""Failing work units: each runs once, keeps its key, and re-runs only
when the command is re-run.

Re-running the command is the harness's one recovery path, the paper's
re-execution from the last durable restart point: a failed campaign unit
is a ``failed`` manifest row, and the next invocation with the same
manifest executes exactly the units that are not done.  The worker
functions that die or raise live here, in the tests.
"""

import json
import os
import time

import pytest

import repro.experiments.fig9_avg_paths as fig9_avg_paths
import repro.harness.campaign as campaign
from repro.cli import main
from repro.harness.cache import ArtifactCache, set_default_cache
from repro.harness.campaign import (
    CampaignRunner,
    RunManifest,
    fault_campaign_units,
    format_campaign_report,
    run_fault_campaign,
)
from repro.harness.executor import (
    UNIT_ERROR,
    WORKER_LOST,
    TaskExecutor,
    UnitsFailed,
)
from repro.harness.incremental import OutcomeStore, set_default_store


@pytest.fixture
def isolated_cache(tmp_path):
    """Private build cache and outcome store under ``tmp_path``."""
    previous = set_default_cache(ArtifactCache(root=str(tmp_path / "cache")))
    previous_store = set_default_store(OutcomeStore(root=str(tmp_path / "cache")))
    yield
    set_default_cache(previous)
    set_default_store(previous_store)


# ----------------------------------------------------------------------
# Executor: one execution per unit, every result keyed
# ----------------------------------------------------------------------
def _crash_if_die(x):
    if x == "die":
        os._exit(9)  # simulate a worker killed by a signal
    return x


def _sleep_unless_first(x):
    if x != "first":
        time.sleep(60)
    return x


def _raise_flaky(x):
    raise RuntimeError("deterministic unit failure")


def _log_and_raise(item):
    log, name = item
    with open(log, "a") as handle:
        handle.write(name + "\n")
    raise RuntimeError(f"unit {name} failed")


class TestExecutorRecovery:
    def test_exhausted_crasher_fails_with_key_and_category(self):
        """A unit whose worker dies fails at once: it has one attempt."""
        results = list(TaskExecutor(2).imap(_crash_if_die, ["ok", "die"],
                                            ordered=True))
        by_key = {r.key: r for r in results}
        assert set(by_key) == {"ok", "die"}  # a dead worker loses no key
        dead = by_key["die"]
        assert not dead.ok
        assert dead.category == WORKER_LOST
        assert "BrokenProcessPool" in dead.error
        # The other unit finished first or was lost with the pool.
        assert by_key["ok"].ok or by_key["ok"].category == WORKER_LOST

    @pytest.mark.parametrize("ordered", [True, False])
    def test_results_keep_keys_when_a_worker_dies(self, ordered):
        items = ["a", "b", "die", "d", "e", "f"]
        keys = [f"k{i}" for i in range(len(items))]
        results = list(TaskExecutor(2).imap(_crash_if_die, items, keys=keys,
                                            ordered=ordered))
        if ordered:
            assert [r.key for r in results] == keys
        assert sorted(r.key for r in results) == keys
        item_of = dict(zip(keys, items))
        for result in results:
            if result.ok:
                assert result.value == item_of[result.key]
            else:
                assert result.category == WORKER_LOST
        assert not {r.key: r for r in results}["k2"].ok

    def test_closing_the_stream_stops_running_units(self):
        """A caller that stops early (fuzz's time budget) does not wait
        for the units still running."""
        started = time.monotonic()
        stream = TaskExecutor(2).imap(_sleep_unless_first,
                                      ["first", "slow", "slower"])
        assert next(stream).key == "first"
        stream.close()
        assert time.monotonic() - started < 30

    def test_unit_exceptions_never_retried(self, tmp_path):
        log = str(tmp_path / "calls.log")
        results = list(TaskExecutor(2).imap(
            _log_and_raise, [(log, "a"), (log, "b")], keys=["a", "b"],
            ordered=True,
        ))
        assert [r.key for r in results] == ["a", "b"]
        assert all(not r.ok for r in results)
        assert all(r.category == UNIT_ERROR for r in results)
        assert sorted(open(log).read().split()) == ["a", "b"]  # once each

    def test_inline_failures_are_classified(self):
        results = list(TaskExecutor(1).imap(_raise_flaky, ["a"],
                                            ordered=True))
        assert results[0].category == UNIT_ERROR
        assert "deterministic unit failure" in results[0].error

    def test_map_names_every_failed_unit(self, tmp_path):
        """``map`` raises once, naming each failed unit and its category,
        not just the first in item order."""
        log = str(tmp_path / "calls.log")
        with pytest.raises(UnitsFailed) as raised:
            TaskExecutor(2).map(_log_and_raise, [(log, "a"), (log, "b")],
                                keys=["a", "b"])
        message = str(raised.value)
        assert [r.key for r in raised.value.failed] == ["a", "b"]
        assert "'a' unit-error (RuntimeError: unit a failed)" in message
        assert "'b' unit-error (RuntimeError: unit b failed)" in message
        assert "\n" not in message

    def test_map_names_the_lost_worker(self):
        with pytest.raises(UnitsFailed) as raised:
            TaskExecutor(2).map(_crash_if_die, ["ok", "die"])
        failed = {r.key: r.category for r in raised.value.failed}
        assert failed["die"] == WORKER_LOST
        assert "'die' worker-lost (BrokenProcessPool" in str(raised.value)


# ----------------------------------------------------------------------
# Experiments: a lost worker is named, in one line
# ----------------------------------------------------------------------
_fig9_measure = fig9_avg_paths.measure


def _die_measuring_mcf(name):
    if name == "mcf":
        os._exit(9)  # simulate a worker killed by a signal
    return _fig9_measure(name)


class TestDyingWorkerExperiment:
    def test_lost_worker_is_one_line_naming_it(
        self, isolated_cache, monkeypatch, capfd
    ):
        monkeypatch.setattr(fig9_avg_paths, "measure", _die_measuring_mcf)
        assert main(["experiment", "fig9", "bzip2", "mcf", "--jobs", "2"]) == 1
        captured = capfd.readouterr()
        assert "Traceback" not in captured.out + captured.err
        errors = [line for line in captured.err.splitlines() if "failed" in line]
        assert len(errors) == 1
        assert errors[0].startswith("repro experiment fig9: ")
        assert "'mcf' worker-lost (BrokenProcessPool" in errors[0]


# ----------------------------------------------------------------------
# Campaign: a failed unit is a failed row, and resume re-runs it
# ----------------------------------------------------------------------
WORKLOADS = ["bzip2", "mcf"]
DOOMED = "mcf"  # its original-flavour unit kills its worker
_campaign_unit = campaign._campaign_unit


def _die_on_doomed_unit(payload):
    if payload["workload"] == DOOMED and payload["flavour"] == "original":
        os._exit(9)
    return _campaign_unit(payload)


def _report_without_units_line(summary):
    return [line for line in format_campaign_report(summary).splitlines()
            if not line.startswith("units:")]


class TestDyingWorkerCampaign:
    def test_dead_unit_is_failed_then_resumed(
        self, tmp_path, isolated_cache, monkeypatch, capfd
    ):
        """Acceptance: a worker that dies mid-campaign fails its unit as
        ``worker-lost`` (no hang, no traceback), and the next invocation
        with the same manifest runs only the units that are not done and
        prints the undisturbed serial run's table and totals."""
        serial = run_fault_campaign(names=WORKLOADS, trials=4, seed=3)
        doomed_id = next(uid for uid, payload in fault_campaign_units(
            WORKLOADS, trials=4, seed=3)
            if payload["workload"] == DOOMED
            and payload["flavour"] == "original")
        manifest_path = str(tmp_path / "run.jsonl")
        monkeypatch.setattr(campaign, "_campaign_unit", _die_on_doomed_unit)
        # A store of its own, so the workers inject rather than compose
        # the serial run's section records.
        disturbed = run_fault_campaign(
            names=WORKLOADS, trials=4, seed=3, jobs=2,
            manifest_path=manifest_path,
            store=OutcomeStore(root=str(tmp_path / "disturbed-store")),
        )
        captured = capfd.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert disturbed.failed_units >= 1
        assert disturbed.executed_units + disturbed.failed_units == 4
        report = format_campaign_report(disturbed)
        assert f"  ! {doomed_id}: BrokenProcessPool" in report
        records = RunManifest(manifest_path).load()
        assert records[doomed_id].status == "failed"
        assert records[doomed_id].data["category"] == WORKER_LOST
        assert sum(not r.ok for r in records.values()) == disturbed.failed_units

        monkeypatch.setattr(campaign, "_campaign_unit", _campaign_unit)
        resumed = run_fault_campaign(
            names=WORKLOADS, trials=4, seed=3, jobs=2,
            manifest_path=manifest_path,
            store=OutcomeStore(root=str(tmp_path / "disturbed-store")),
        )
        assert resumed.executed_units == disturbed.failed_units
        assert resumed.skipped_units == disturbed.executed_units
        assert resumed.failed_units == 0
        assert _report_without_units_line(resumed) == (
            _report_without_units_line(serial)
        )


def _failing_unit(payload):
    raise RuntimeError("poison unit")


class TestQuarantine:
    """Policy quarantine is gone: a failed campaign unit is a ``failed``
    row, and any row that is not done re-runs on the next invocation."""

    def test_without_policy_failures_stay_retryable(self, tmp_path):
        manifest = RunManifest(str(tmp_path / "run.jsonl"))
        runner = CampaignRunner(manifest=manifest, jobs=1)
        records = runner.run(_failing_unit, [("bad", {"x": 1})])
        assert runner.failed == 1
        assert records["bad"].status == "failed"
        assert records["bad"].data["category"] == UNIT_ERROR
        # A failed row re-runs on resume.
        retry = CampaignRunner(manifest=manifest, jobs=1)
        retry.run(_failing_unit, [("bad", {"x": 1})])
        assert retry.executed == 0 and retry.failed == 1

    def test_quarantined_row_reruns(self, tmp_path, isolated_cache):
        """A ``quarantined`` campaign row (written under the retired
        retry policy) is not done, so resume runs its unit again."""
        manifest_path = str(tmp_path / "run.jsonl")
        first = run_fault_campaign(names=["blackscholes"], trials=1, seed=5,
                                   manifest_path=manifest_path)
        assert first.executed_units == 2
        uid = fault_campaign_units(["blackscholes"], trials=1, seed=5)[1][0]
        with open(manifest_path, "a") as handle:
            handle.write(json.dumps({
                "unit_id": uid, "status": "quarantined", "seconds": 0.0,
                "attempts": 2,
                "data": {"error": "ChaosError: poison", "category": UNIT_ERROR},
            }) + "\n")
        second = run_fault_campaign(names=["blackscholes"], trials=1, seed=5,
                                    manifest_path=manifest_path)
        assert (second.executed_units, second.skipped_units) == (1, 1)
        assert format_campaign_report(second) == (
            format_campaign_report(first).replace(
                "units: 2 executed, 0 resumed", "units: 1 executed, 1 resumed"
            )
        )
        assert RunManifest(manifest_path).load()[uid].ok
