"""Campaign orchestration: manifest resume and sharding determinism."""

import dataclasses
import json

import pytest

from repro.compiler import compile_minic
from repro.harness.cache import ArtifactCache, set_default_cache
from repro.harness.campaign import (
    FLAVOURS,
    CampaignRunner,
    RunManifest,
    UnitRecord,
    campaign_labels,
    fault_campaign_units,
    format_campaign_report,
    parse_label_subset,
    run_fault_campaign,
)
from repro.sim import Simulator
from repro.sim.faults import CampaignResult, fault_campaign

KERNEL = """
int hist[8];
int main() {
  int seed = 5;
  int acc = 0;
  for (int i = 0; i < 40; i = i + 1) {
    seed = (seed * 1103515245 + 12345) % 2147483648;
    int b = (seed >> 8) % 8;
    if (b < 0) b = b + 8;
    hist[b] = hist[b] + 1;
    acc = (acc * 31 + hist[b]) % 1000003;
  }
  return acc;
}
"""


@pytest.fixture
def isolated_cache(tmp_path):
    previous = set_default_cache(ArtifactCache(root=str(tmp_path / "cache")))
    yield
    set_default_cache(previous)


@pytest.fixture
def kernel_build():
    build = compile_minic(KERNEL, idempotent=True)
    reference = Simulator(build.program).run("main")
    return build, reference


class TestShardedTrialSeeds:
    def test_sharded_equals_serial(self, kernel_build):
        """The satellite fix: spawn-key per-trial seeds mean any sharding
        of the trial range injects the identical fault set."""
        build, reference = kernel_build
        serial = fault_campaign(build.program, reference, [], trials=12, seed=99)
        merged = CampaignResult()
        for start in (0, 4, 8):
            merged.merge(fault_campaign(
                build.program, reference, [], trials=4, seed=99, start_trial=start,
            ))
        assert dataclasses.asdict(merged) == dataclasses.asdict(serial)

    def test_different_seeds_differ(self, kernel_build):
        build, reference = kernel_build
        a = fault_campaign(build.program, reference, [], trials=10, seed=1)
        b = fault_campaign(build.program, reference, [], trials=10, seed=2)
        # Same program, same trial count; the drawn targets must differ
        # somewhere (detected/recovered splits are seed-dependent).
        assert a.trials == b.trials == 10


class TestRunManifest:
    def test_append_load_roundtrip(self, tmp_path):
        manifest = RunManifest(str(tmp_path / "run.jsonl"))
        manifest.append(UnitRecord("u1", "done", 1.5, {"x": 1}))
        manifest.append(UnitRecord("u2", "failed", 0.1, {"error": "nope"}))
        records = manifest.load()
        assert records["u1"].ok and records["u1"].data == {"x": 1}
        assert not records["u2"].ok

    def test_missing_file_is_empty(self, tmp_path):
        assert RunManifest(str(tmp_path / "absent.jsonl")).load() == {}

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        manifest = RunManifest(str(path))
        manifest.append(UnitRecord("u1", "done", 1.0, {}))
        with open(path, "a") as handle:
            handle.write('{"unit_id": "u2", "status": "do')  # killed mid-write
        records = manifest.load()
        assert set(records) == {"u1"}

    def test_torn_final_line_mid_data_dict_is_skipped(self, tmp_path):
        """A kill can also land inside the row's nested ``data`` dict —
        syntactically deeper than a truncated status, same outcome."""
        path = tmp_path / "run.jsonl"
        manifest = RunManifest(str(path))
        manifest.append(UnitRecord("u1", "done", 1.0, {"trials": 4}))
        with open(path, "a") as handle:
            handle.write(
                '{"unit_id": "u2", "status": "done", "seconds": 0.5, '
                '"data": {"trials": 4, "inject'  # torn inside data
            )
        records = manifest.load()
        assert set(records) == {"u1"}

    def test_last_record_wins(self, tmp_path):
        manifest = RunManifest(str(tmp_path / "run.jsonl"))
        manifest.append(UnitRecord("u1", "failed", 0.1, {"error": "flake"}))
        manifest.append(UnitRecord("u1", "done", 2.0, {"x": 42}))
        records = manifest.load()
        assert records["u1"].ok and records["u1"].data["x"] == 42

    def test_attempts_roundtrip_and_legacy_rows_default_to_one(self, tmp_path):
        path = tmp_path / "run.jsonl"
        manifest = RunManifest(str(path))
        manifest.append(UnitRecord("u1", "done", 1.0, {}, attempts=3))
        with open(path, "a") as handle:  # a pre-`attempts` manifest row
            handle.write(json.dumps({
                "unit_id": "old", "status": "done", "seconds": 0.2, "data": {},
            }) + "\n")
        records = manifest.load()
        assert records["u1"].attempts == 3
        assert records["old"].attempts == 1


def _record_call(payload):
    with open(payload["log"], "a") as handle:
        handle.write(payload["id"] + "\n")
    return {"id": payload["id"]}


class TestCampaignRunner:
    def _units(self, tmp_path, ids):
        log = str(tmp_path / "calls.log")
        return [(uid, {"id": uid, "log": log}) for uid in ids], log

    def test_interrupted_campaign_resumes(self, tmp_path):
        """Kill-and-reinvoke: completed units are never re-executed."""
        units, log = self._units(tmp_path, ["a", "b", "c"])
        manifest = RunManifest(str(tmp_path / "run.jsonl"))

        # First invocation is "killed" after two units: simulate by
        # running only a prefix of the work list.
        first = CampaignRunner(manifest=manifest, jobs=1)
        first.run(_record_call, units[:2])
        assert first.executed == 2

        second = CampaignRunner(manifest=manifest, jobs=1)
        records = second.run(_record_call, units)
        assert second.skipped == 2 and second.executed == 1
        assert sorted(records) == ["a", "b", "c"]
        assert all(record.ok for record in records.values())
        # Each unit ran exactly once across both invocations.
        calls = open(log).read().split()
        assert sorted(calls) == ["a", "b", "c"]

    def test_failed_units_are_recorded_and_retried(self, tmp_path):
        manifest = RunManifest(str(tmp_path / "run.jsonl"))
        units = [("bad", {"x": 1})]
        runner = CampaignRunner(manifest=manifest, jobs=1)
        records = runner.run(_always_fails, units)
        assert runner.failed == 1
        assert not records["bad"].ok
        # A failed unit is not "done": the next invocation retries it.
        retry = CampaignRunner(manifest=manifest, jobs=1)
        retry.run(_always_fails, units)
        assert retry.skipped == 0 and retry.failed == 1

    def test_no_manifest_runs_everything(self, tmp_path):
        units, _ = self._units(tmp_path, ["a", "b"])
        runner = CampaignRunner(manifest=None, jobs=1)
        runner.run(_record_call, units)
        assert runner.executed == 2 and runner.skipped == 0

    def test_failed_row_superseded_by_later_done_row(self, tmp_path):
        """Resume after a transient breakage: the manifest keeps both
        the failed row and the later done row, and load resolves to
        done — the unit is neither lost nor re-executed a third time."""
        flag = tmp_path / "broken"
        flag.touch()
        manifest = RunManifest(str(tmp_path / "run.jsonl"))
        units = [("u1", {"flag": str(flag)})]

        first = CampaignRunner(manifest=manifest, jobs=1)
        first.run(_fail_while_flagged, units)
        assert first.failed == 1

        flag.unlink()  # the transient cause goes away
        second = CampaignRunner(manifest=manifest, jobs=1)
        records = second.run(_fail_while_flagged, units)
        assert second.executed == 1 and records["u1"].ok

        # Both rows are on disk; the done row wins on every later load.
        rows = [json.loads(line)
                for line in open(manifest.path) if line.strip()]
        assert [row["status"] for row in rows] == ["failed", "done"]
        third = CampaignRunner(manifest=manifest, jobs=1)
        third.run(_fail_while_flagged, units)
        assert third.skipped == 1 and third.executed == 0


def _fail_while_flagged(payload):
    import os as _os

    if _os.path.exists(payload["flag"]):
        raise RuntimeError("transient infrastructure failure")
    return {"ok": True}


def _always_fails(payload):
    raise RuntimeError("unit exploded")


class TestFaultCampaign:
    def test_unit_ids_encode_parameters(self):
        value_units = fault_campaign_units(["bzip2"], trials=4, seed=1)
        control_units = fault_campaign_units(["bzip2"], trials=4, seed=1, kind="control")
        assert {uid for uid, _ in value_units}.isdisjoint(
            uid for uid, _ in control_units
        )
        sharded = fault_campaign_units(["bzip2"], trials=4, seed=1, shard_trials=2)
        assert len(sharded) == 2 * len(value_units)

    def test_zero_trials_keep_one_empty_unit_per_label(self):
        for shard_trials in (None, 2):
            units = fault_campaign_units(
                ["bzip2"], trials=0, seed=1, shard_trials=shard_trials
            )
            assert [payload["trials"] for _, payload in units] == [0, 0]
            assert all(uid.endswith(":t0+0") for uid, _ in units)

    def test_end_to_end_resume_and_determinism(self, tmp_path, isolated_cache):
        """A full (tiny) campaign: resumable, and sharding-invariant."""
        manifest_path = str(tmp_path / "campaign.jsonl")
        first = run_fault_campaign(
            names=["bzip2"], trials=3, seed=7, manifest_path=manifest_path,
        )
        assert first.executed_units == 2 and first.failed_units == 0
        idem = first.results[("bzip2", "idempotent")]
        assert idem.injected == 3 and idem.recovered_correctly == 3

        # Re-invoking with the manifest executes nothing new but merges
        # the identical results back from the recorded rows.
        resumed = run_fault_campaign(
            names=["bzip2"], trials=3, seed=7, manifest_path=manifest_path,
        )
        assert resumed.executed_units == 0
        assert resumed.skipped_units == 2
        assert dataclasses.asdict(
            resumed.results[("bzip2", "idempotent")]
        ) == dataclasses.asdict(idem)

        # A sharded, manifest-free run of the same campaign agrees too.
        sharded = run_fault_campaign(
            names=["bzip2"], trials=3, seed=7, shard_trials=1,
        )
        assert dataclasses.asdict(
            sharded.results[("bzip2", "idempotent")]
        ) == dataclasses.asdict(idem)

        report = format_campaign_report(resumed)
        assert "bzip2" in report and "idempotent" in report
        assert "resumed from manifest" in report

    def test_control_faults_with_latency_through_sharded_path(
        self, isolated_cache
    ):
        """kind=control with detection_latency > 0 through the sharded
        campaign path merges to exactly the serial fault_campaign run."""
        from repro.experiments.common import build_pair
        from repro.harness.executor import derive_seed
        from repro.sim.faults import FAULT_CONTROL
        from repro.workloads import get_workload

        workload = get_workload("bzip2")
        summary = run_fault_campaign(
            names=["bzip2"], trials=4, seed=5, kind=FAULT_CONTROL,
            detection_latency=4, shard_trials=2,
        )
        assert summary.failed_units == 0
        _, idem = build_pair("bzip2")
        reference_sim = Simulator(idem.program)
        reference = reference_sim.run(workload.entry)
        reference_output = list(reference_sim.output)
        expected = fault_campaign(
            idem.program, reference, reference_output, trials=4,
            func=workload.entry, kind=FAULT_CONTROL,
            seed=derive_seed(5, "bzip2", "idempotent"),
            detection_latency=4,
        )
        merged = summary.results[("bzip2", "idempotent")]
        assert dataclasses.asdict(merged) == dataclasses.asdict(expected)
        assert merged.injected > 0

    def test_manifest_rows_are_json(self, tmp_path, isolated_cache):
        manifest_path = str(tmp_path / "campaign.jsonl")
        run_fault_campaign(
            names=["bzip2"], trials=2, seed=3, manifest_path=manifest_path,
        )
        with open(manifest_path) as handle:
            rows = [json.loads(line) for line in handle if line.strip()]
        assert len(rows) == 2
        for row in rows:
            assert row["status"] == "done"
            assert row["data"]["workload"] == "bzip2"


class TestLabelSelection:
    def test_parse_label_subset(self):
        assert parse_label_subset(None, FLAVOURS, "flavour") == ()
        assert parse_label_subset(["original"], FLAVOURS, "flavour") \
            == ("original",)
        with pytest.raises(ValueError) as info:
            parse_label_subset(["bogus", "idempotent"], FLAVOURS, "flavour")
        assert "unknown flavour(s) bogus" in str(info.value)
        assert "original, idempotent" in str(info.value)

    def test_campaign_labels_defaults(self):
        """No flags: both flavours, no backends (legacy behaviour)."""
        assert campaign_labels() == (FLAVOURS, ())

    def test_backends_only_drop_flavour_units(self):
        flavour_list, backend_list = campaign_labels(backends=["tmr"])
        assert flavour_list == () and backend_list == ("tmr",)

    def test_unknown_backend_lists_choices(self):
        with pytest.raises(ValueError) as info:
            campaign_labels(backends=["nope"])
        assert "unknown backend(s) nope" in str(info.value)
        assert "idempotent, checkpoint_log, tmr" in str(info.value)

    def test_unit_ids_and_payloads_for_backend_units(self):
        units = fault_campaign_units(
            ["bzip2"], trials=4, seed=1,
            flavours=["idempotent"], backends=["tmr", "checkpoint_log"],
        )
        ids = [uid for uid, _ in units]
        assert ids == [
            "bzip2:idempotent:value:seed1:lat0:t0+4",
            "bzip2:backend-tmr:value:seed1:lat0:t0+4",
            "bzip2:backend-checkpoint_log:value:seed1:lat0:t0+4",
        ]
        payloads = {uid: payload for uid, payload in units}
        tmr = payloads["bzip2:backend-tmr:value:seed1:lat0:t0+4"]
        assert tmr["backend"] == "tmr" and tmr["flavour"] == "original"
        assert "backend" not in payloads[ids[0]]

    def test_idempotent_backend_unit_seed_matches_flavour_unit(self):
        """Bit-identity at the seed level: the backend unit draws the
        same fault plans as the legacy flavour unit."""
        flavour_units = fault_campaign_units(
            ["bzip2"], trials=4, seed=9, flavours=["idempotent"],
        )
        backend_units = fault_campaign_units(
            ["bzip2"], trials=4, seed=9, backends=["idempotent"],
        )
        assert flavour_units[0][1]["unit_seed"] \
            == backend_units[0][1]["unit_seed"]


class TestBackendCampaigns:
    def test_backend_results_keyed_by_backend_name(self, isolated_cache):
        summary = run_fault_campaign(
            names=["bzip2"], trials=3, seed=7,
            flavours=["idempotent"], backends=["tmr"],
        )
        assert summary.labels == ("idempotent", "tmr")
        assert set(summary.results) == {
            ("bzip2", "idempotent"), ("bzip2", "tmr"),
        }
        tmr = summary.results[("bzip2", "tmr")]
        assert tmr.injected == 3 and tmr.recovered_correctly == 3
        report = format_campaign_report(summary)
        assert "tmr" in report

    def test_idempotent_backend_bit_identical_to_flavour(self, isolated_cache):
        """The tentpole acceptance criterion at the harness level."""
        flavour = run_fault_campaign(
            names=["bzip2"], trials=3, seed=7, flavours=["idempotent"],
        )
        backend = run_fault_campaign(
            names=["bzip2"], trials=3, seed=7, backends=["idempotent"],
        )
        assert dataclasses.asdict(
            flavour.results[("bzip2", "idempotent")]
        ) == dataclasses.asdict(backend.results[("bzip2", "idempotent")])

    def test_backend_units_shard_and_resume(self, tmp_path, isolated_cache):
        """Backend units ride the same manifest machinery: sharded runs
        merge to the serial result and resume skips completed units,
        reconstructing the result with its backend column intact."""
        manifest_path = str(tmp_path / "campaign.jsonl")
        sharded = run_fault_campaign(
            names=["bzip2"], trials=4, seed=5, backends=["checkpoint_log"],
            shard_trials=2, manifest_path=manifest_path,
        )
        assert sharded.executed_units == 2
        serial = run_fault_campaign(
            names=["bzip2"], trials=4, seed=5, backends=["checkpoint_log"],
        )
        key = ("bzip2", "checkpoint_log")
        assert dataclasses.asdict(sharded.results[key]) \
            == dataclasses.asdict(serial.results[key])

        resumed = run_fault_campaign(
            names=["bzip2"], trials=4, seed=5, backends=["checkpoint_log"],
            shard_trials=2, manifest_path=manifest_path,
        )
        assert resumed.executed_units == 0 and resumed.skipped_units == 2
        assert dataclasses.asdict(resumed.results[key]) \
            == dataclasses.asdict(serial.results[key])
        with open(manifest_path) as handle:
            rows = [json.loads(line) for line in handle if line.strip()]
        assert all(row["data"]["backend"] == "checkpoint_log" for row in rows)

    def test_unknown_names_raise_before_any_work(self, isolated_cache):
        with pytest.raises(ValueError, match="unknown backend"):
            run_fault_campaign(names=["bzip2"], trials=2, backends=["x"])
        with pytest.raises(ValueError, match="unknown flavour"):
            run_fault_campaign(names=["bzip2"], trials=2, flavours=["x"])
