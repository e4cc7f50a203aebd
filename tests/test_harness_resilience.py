"""Resilient execution: retries, timeouts, quarantine, chaos testing.

The executor treats work units the way the paper treats idempotent
regions — failure recovery is re-execution from the unit's entry — so
these tests kill workers, hang units, and break pools on purpose and
assert the campaign results come out bit-identical to an undisturbed
serial run.
"""

import dataclasses
import os
import time

import pytest

from repro.harness.campaign import (
    FLAVOURS,
    CampaignRunner,
    RunManifest,
    fault_campaign_units,
    format_campaign_report,
    run_fault_campaign,
)
from repro.harness.cache import ArtifactCache, set_default_cache
from repro.harness import resilience
from repro.harness.executor import TaskExecutor
from repro.harness.incremental import OutcomeStore, set_default_store
from repro.harness.resilience import (
    TIMEOUT,
    UNIT_ERROR,
    WORKER_LOST,
    ChaosError,
    ChaosPolicy,
    RetryPolicy,
    is_transient,
)
from repro.obs import Observer, counter_values, set_observer


@pytest.fixture
def fresh_observer():
    observer = Observer()
    previous = set_observer(observer)
    yield observer
    set_observer(previous)


@pytest.fixture
def isolated_cache(tmp_path):
    """Private build cache and outcome store under ``tmp_path``."""
    previous = set_default_cache(ArtifactCache(root=str(tmp_path / "cache")))
    previous_store = set_default_store(OutcomeStore(root=str(tmp_path / "cache")))
    yield
    set_default_cache(previous)
    set_default_store(previous_store)


@pytest.fixture
def fast_backoff(monkeypatch):
    """Back off 0.01 s before a first retry, so recovery tests stay fast."""
    monkeypatch.setattr(resilience, "BACKOFF_BASE", 0.01)


def _counter_total(observer, name):
    return sum(
        value for _, value in
        counter_values(observer.metrics.snapshot(), name)
    )


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_transient_taxonomy(self):
        assert is_transient(WORKER_LOST)
        assert is_transient(TIMEOUT)
        assert not is_transient(UNIT_ERROR)
        assert not is_transient(None)

    def test_should_retry_respects_budget_and_category(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(WORKER_LOST, 1)
        assert policy.should_retry(TIMEOUT, 2)
        assert not policy.should_retry(WORKER_LOST, 3)  # budget exhausted
        assert not policy.should_retry(UNIT_ERROR, 1)   # permanent

    def test_backoff_is_exponential_and_deterministic(self):
        policy = RetryPolicy()
        first = policy.delay("unit", 1)
        again = policy.delay("unit", 1)
        assert first == again  # deterministic jitter
        assert 0.05 <= first <= 0.075
        assert 0.1 <= policy.delay("unit", 2) <= 0.15
        # Distinct units draw distinct jitter from the same schedule.
        assert policy.delay("unit", 1) != policy.delay("other", 1)

    def test_backoff_is_capped(self, monkeypatch):
        monkeypatch.setattr(resilience, "BACKOFF_JITTER", 0.0)
        assert RetryPolicy().delay("u", 9) == resilience.BACKOFF_MAX == 2.0


class TestChaosPolicy:
    def test_only_affects_early_attempts(self):
        policy = ChaosPolicy(crash_units=("u",), affect_attempts=1)
        assert policy.mode("u", 1) == "crash"
        assert policy.mode("u", 2) is None

    def test_explicit_unit_targeting(self):
        policy = ChaosPolicy(crash_units=("c",), hang_units=("h",),
                             raise_units=("r",))
        assert policy.mode("c", 1) == "crash"
        assert policy.mode("h", 1) == "hang"
        assert policy.mode("r", 1) == "raise"
        assert policy.mode("x", 1) is None

    def test_raise_mode_applies(self):
        policy = ChaosPolicy(raise_units=("r",))
        with pytest.raises(ChaosError):
            policy.apply("r", 1)
        policy.apply("r", 2)  # past affect_attempts: no-op


# ----------------------------------------------------------------------
# Executor-level recovery
# ----------------------------------------------------------------------
def _ident(x):
    return x


def _crash_if_die(x):
    if x == "die":
        os._exit(9)  # simulate a worker killed by a signal
    return x


def _sleep_if_hang(x):
    if x == "hang":
        time.sleep(60)
    return x


def _raise_flaky(x):
    raise RuntimeError("deterministic unit failure")


@pytest.mark.usefixtures("fast_backoff")
class TestExecutorRecovery:
    def test_chaos_crash_recovers_on_rebuilt_pool(self, fresh_observer):
        executor = TaskExecutor(
            2,
            retry=RetryPolicy(max_attempts=4),
            chaos=ChaosPolicy(crash_units=("k1",)),
        )
        results = executor.map(_ident, ["a", "b", "c", "d"],
                               keys=["k1", "k2", "k3", "k4"])
        assert [r.value for r in results] == ["a", "b", "c", "d"]
        assert all(r.ok for r in results)
        by_key = {r.key: r for r in results}
        assert by_key["k1"].attempts >= 2  # crashed once, then recovered
        assert _counter_total(fresh_observer, "harness.retries") >= 1

    def test_exhausted_crasher_fails_with_key_and_category(self):
        executor = TaskExecutor(2, retry=RetryPolicy(max_attempts=2))
        results = list(executor.imap(_crash_if_die, ["ok", "die"],
                                     ordered=True))
        by_key = {r.key: r for r in results}
        assert None not in by_key  # pool breakage never loses the key
        assert by_key["ok"].ok
        dead = by_key["die"]
        assert not dead.ok
        assert dead.category == WORKER_LOST
        assert dead.attempts == 2

    def test_timeout_kills_hung_unit_and_spares_survivors(
        self, fresh_observer
    ):
        executor = TaskExecutor(
            2,
            retry=RetryPolicy(max_attempts=1),  # no retry: fail on timeout
            unit_timeout=1.0,
        )
        results = list(executor.imap(_sleep_if_hang, ["hang", "b", "c"],
                                     ordered=True))
        by_key = {r.key: r for r in results}
        hung = by_key["hang"]
        assert not hung.ok
        assert hung.category == TIMEOUT
        assert "wall-clock" in hung.error
        assert by_key["b"].ok and by_key["c"].ok
        assert _counter_total(fresh_observer, "harness.timeouts") >= 1

    def test_chaos_hang_recovers_after_timeout(self, fresh_observer):
        executor = TaskExecutor(
            2,
            retry=RetryPolicy(max_attempts=2),
            unit_timeout=1.0,
            chaos=ChaosPolicy(hang_units=("h",), hang_seconds=60),
        )
        results = executor.map(_ident, ["x", "y"], keys=["h", "k"])
        by_key = {r.key: r for r in results}
        assert by_key["h"].ok and by_key["h"].value == "x"
        assert by_key["h"].attempts == 2
        assert by_key["k"].ok
        assert _counter_total(fresh_observer, "harness.timeouts") >= 1

    def test_chaos_raise_is_permanent(self):
        executor = TaskExecutor(
            2,
            retry=RetryPolicy(max_attempts=5),
            chaos=ChaosPolicy(raise_units=("r",)),
        )
        results = list(executor.imap(_ident, ["x", "y"], keys=["r", "k"],
                                     ordered=True))
        by_key = {r.key: r for r in results}
        failed = by_key["r"]
        assert not failed.ok
        assert failed.category == UNIT_ERROR
        assert failed.attempts == 1  # permanent: budget never spent
        assert "ChaosError" in failed.error

    def test_unit_exceptions_never_retried(self):
        executor = TaskExecutor(2, retry=RetryPolicy(max_attempts=5))
        results = list(executor.imap(_raise_flaky, ["a", "b"], ordered=True))
        assert all(not r.ok for r in results)
        assert all(r.attempts == 1 for r in results)
        assert all(r.category == UNIT_ERROR for r in results)

    def test_inline_failures_are_classified(self):
        results = list(TaskExecutor(1).imap(_raise_flaky, ["a"],
                                            ordered=True))
        assert results[0].category == UNIT_ERROR
        assert results[0].attempts == 1

    def test_ordered_map_preserves_item_order_under_chaos(self):
        executor = TaskExecutor(
            2,
            retry=RetryPolicy(max_attempts=4),
            chaos=ChaosPolicy(crash_units=("k2",)),
        )
        results = executor.map(_ident, list("abcdef"),
                               keys=[f"k{i}" for i in range(6)])
        assert [r.value for r in results] == list("abcdef")


# ----------------------------------------------------------------------
# Campaign-level quarantine and chaos
# ----------------------------------------------------------------------
def _failing_unit(payload):
    raise RuntimeError("poison unit")


def _log_and_return(payload):
    with open(payload["log"], "a") as handle:
        handle.write(payload["id"] + "\n")
    return {"id": payload["id"]}


class TestQuarantine:
    def test_exhausted_unit_is_quarantined(self, tmp_path, fresh_observer):
        manifest = RunManifest(str(tmp_path / "run.jsonl"))
        runner = CampaignRunner(
            manifest=manifest, jobs=1, retry=RetryPolicy(max_attempts=2)
        )
        records = runner.run(_failing_unit, [("bad", {"x": 1})])
        assert runner.quarantined == 1 and runner.failed == 0
        record = records["bad"]
        assert record.quarantined
        assert record.data["category"] == UNIT_ERROR
        assert "poison unit" in record.data["error"]
        assert _counter_total(fresh_observer, "harness.quarantined") == 1

    def test_quarantined_unit_skipped_on_resume(
        self, tmp_path, fresh_observer, capsys
    ):
        manifest = RunManifest(str(tmp_path / "run.jsonl"))
        log = str(tmp_path / "calls.log")
        units = [("bad", {"id": "bad", "log": log}),
                 ("good", {"id": "good", "log": log})]
        first = CampaignRunner(
            manifest=manifest, jobs=1, retry=RetryPolicy(max_attempts=2)
        )
        first.run(_failing_unit, units[:1])
        assert first.quarantined == 1

        second = CampaignRunner(
            manifest=manifest, jobs=1, retry=RetryPolicy(max_attempts=2)
        )
        records = second.run(_log_and_return, units)
        # The poisoned unit was skipped — never re-executed — with a
        # visible warning; the fresh unit ran normally.
        assert second.quarantine_skipped == 1
        assert second.executed == 1 and second.quarantined == 0
        assert records["bad"].quarantined and records["good"].ok
        assert open(log).read().split() == ["good"]
        assert "quarantined unit skipped: bad" in capsys.readouterr().err

    def test_without_policy_failures_stay_retryable(self, tmp_path):
        manifest = RunManifest(str(tmp_path / "run.jsonl"))
        runner = CampaignRunner(manifest=manifest, jobs=1)
        records = runner.run(_failing_unit, [("bad", {"x": 1})])
        assert runner.failed == 1 and runner.quarantined == 0
        assert records["bad"].status == "failed"
        # Legacy semantics: a plain failed row re-runs on resume.
        retry = CampaignRunner(manifest=manifest, jobs=1)
        retry.run(_failing_unit, [("bad", {"x": 1})])
        assert retry.executed == 0 and retry.failed == 1


WORKLOAD = "blackscholes"  # fastest simulator run in the suite


@pytest.mark.usefixtures("fast_backoff")
class TestChaosCampaign:
    def test_chaos_campaign_matches_undisturbed_serial(
        self, tmp_path, isolated_cache, fresh_observer, campaign_chaos
    ):
        """Acceptance: one worker crash plus one hang leave the
        merged per-(workload, flavour) counts bit-identical to a serial
        undisturbed run, with retries/timeouts visible in obs counters
        and attempt counts in the manifest."""
        labels = dict(flavours=list(FLAVOURS), backends=["tmr", "checkpoint_log"])
        serial = run_fault_campaign(
            names=[WORKLOAD], trials=2, seed=11, **labels,
        )
        units = fault_campaign_units([WORKLOAD], trials=2, seed=11, **labels)
        assert len(units) == 4
        campaign_chaos(ChaosPolicy(
            crash_units=(units[0][0],),
            hang_units=(units[2][0],),
            hang_seconds=120,
        ))
        manifest_path = str(tmp_path / "chaos.jsonl")
        # A store of its own, so the disturbed workers inject every
        # section rather than compose the serial run's records.
        chaotic = run_fault_campaign(
            names=[WORKLOAD], trials=2, seed=11, jobs=2, **labels,
            store=OutcomeStore(root=str(tmp_path / "chaos-store")),
            manifest_path=manifest_path,
            retry=RetryPolicy(max_attempts=4),
            unit_timeout=20.0,
        )
        assert chaotic.failed_units == 0 and chaotic.quarantined_units == 0
        assert set(chaotic.results) == set(serial.results)
        for key, result in serial.results.items():
            assert dataclasses.asdict(chaotic.results[key]) == (
                dataclasses.asdict(result)
            ), f"chaotic counts diverged for {key}"
        assert _counter_total(fresh_observer, "harness.retries") >= 1
        assert _counter_total(fresh_observer, "harness.timeouts") >= 1
        # The manifest records how many executions the disturbed units
        # took, and no unit ever lost its id to pool breakage.
        records = RunManifest(manifest_path).load()
        assert "None" not in records
        assert records[units[0][0]].attempts >= 2  # crashed then recovered
        assert records[units[2][0]].attempts >= 2  # hung then recovered
        assert all(r.ok for r in records.values())

    def test_chaos_raise_quarantines_unit_in_report(
        self, tmp_path, isolated_cache, fresh_observer, campaign_chaos
    ):
        units = fault_campaign_units([WORKLOAD], trials=1, seed=5)
        poisoned_id = units[1][0]
        campaign_chaos(ChaosPolicy(raise_units=(poisoned_id,)))
        summary = run_fault_campaign(
            names=[WORKLOAD], trials=1, seed=5, jobs=2,
            manifest_path=str(tmp_path / "poison.jsonl"),
            retry=RetryPolicy(max_attempts=2),
        )
        assert summary.quarantined_units == 1
        assert any("quarantined after" in e for e in summary.errors)
        report = format_campaign_report(summary)
        assert "1 quarantined" in report
        assert "ChaosError" in report
