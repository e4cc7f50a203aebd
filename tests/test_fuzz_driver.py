"""Fuzz campaign orchestration: manifests, resume, quarantine,
parallel determinism, the CLI surface."""

import json
import os

import pytest

from repro.cli import main
from repro.fuzz.driver import (
    FuzzInfraFailure,
    FuzzSummary,
    format_fuzz_report,
    run_fuzz_campaign,
)
from repro.fuzz.generator import GEN_VERSION
from repro.fuzz.oracle import OracleFailure, OracleReport
from repro.harness.executor import UNIT_ERROR

# Cheap oracle settings for orchestration tests: the oracle stack
# itself is exercised exhaustively in test_fuzz_oracle.py.
FAST = dict(multi_fault=False, max_forced=2, shrink=False)


def _summary_key(summary):
    return (
        summary.passed,
        summary.infra_failed,
        summary.checkpoints,
        summary.forced_runs,
        [(f.index, f.seed, f.oracles) for f in summary.failures],
    )


class TestCampaign:
    def test_all_pass(self, tmp_path):
        summary = run_fuzz_campaign(
            trials=3, seed=0, out_dir=str(tmp_path), **FAST
        )
        assert summary.ok
        assert summary.passed == 3
        assert summary.executed == 3
        assert summary.failures == []
        assert not os.listdir(tmp_path)  # no reproducers for a clean run

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_fuzz_campaign(
            trials=4, seed=7, jobs=1, out_dir=str(tmp_path), **FAST
        )
        sharded = run_fuzz_campaign(
            trials=4, seed=7, jobs=2, out_dir=str(tmp_path), **FAST
        )
        assert _summary_key(serial) == _summary_key(sharded)

    def test_resume_skips_done(self, tmp_path):
        manifest = str(tmp_path / "fuzz.jsonl")
        first = run_fuzz_campaign(
            trials=3, seed=0, manifest_path=manifest,
            out_dir=str(tmp_path), **FAST
        )
        assert first.executed == 3
        second = run_fuzz_campaign(
            trials=3, seed=0, manifest_path=manifest,
            out_dir=str(tmp_path), **FAST
        )
        assert second.executed == 0
        assert second.skipped == 3
        assert second.passed == 3  # settled from the manifest records

    def test_resume_tolerates_torn_manifest(self, tmp_path):
        manifest = str(tmp_path / "fuzz.jsonl")
        run_fuzz_campaign(
            trials=3, seed=0, manifest_path=manifest,
            out_dir=str(tmp_path), **FAST
        )
        with open(manifest, "a", encoding="utf-8") as handle:
            handle.write('{"unit_id": "fuzz:torn')  # crash mid-append
        summary = run_fuzz_campaign(
            trials=3, seed=0, manifest_path=manifest,
            out_dir=str(tmp_path), **FAST
        )
        assert summary.ok
        assert summary.skipped == 3

    def test_time_budget_stops_and_reports_remaining(self, tmp_path):
        summary = run_fuzz_campaign(
            trials=4, seed=0, time_budget=0.0,
            out_dir=str(tmp_path), **FAST
        )
        assert summary.budget_exhausted
        assert summary.executed >= 1  # the in-flight trial completes
        assert summary.remaining == 4 - summary.executed


class TestOracleFailurePath:
    @pytest.fixture
    def broken_oracle(self, monkeypatch):
        """Make every trial fail the re-execution oracle (inline jobs=1
        execution, so the patch reaches the worker)."""

        def fake_check_source(source, **kwargs):
            report = OracleReport(checkpoints=5, forced_runs=5,
                                  instructions=100)
            report.failures.append(OracleFailure("reexec", "synthetic"))
            return report

        monkeypatch.setattr(
            "repro.fuzz.driver.check_source", fake_check_source
        )

    def test_failure_quarantined_and_reproducer_written(
        self, tmp_path, broken_oracle
    ):
        out = tmp_path / "regressions"
        summary = run_fuzz_campaign(
            trials=2, seed=0, shrink=False, out_dir=str(out),
            manifest_path=str(tmp_path / "fuzz.jsonl"),
        )
        assert not summary.ok
        assert len(summary.failures) == 2
        assert summary.failures[0].oracles == ("reexec",)
        for failure in summary.failures:
            assert failure.reproducer and os.path.exists(failure.reproducer)
            text = open(failure.reproducer).read()
            assert f"// generator: v{GEN_VERSION}" in text
            assert "int main()" in text

    def test_quarantine_persists_on_resume(self, tmp_path, broken_oracle):
        manifest = str(tmp_path / "fuzz.jsonl")
        out = str(tmp_path / "regressions")
        run_fuzz_campaign(
            trials=2, seed=0, shrink=False, out_dir=out,
            manifest_path=manifest,
        )
        # Resume with a HEALTHY oracle: the quarantined seeds must not
        # re-run (their witness is the manifest record), and the summary
        # must still report them as failures.
        summary = run_fuzz_campaign(
            trials=2, seed=0, shrink=False, out_dir=out,
            manifest_path=manifest, **{k: v for k, v in FAST.items()
                                       if k != "shrink"},
        )
        assert summary.executed == 0
        assert summary.skipped == 2
        assert len(summary.failures) == 2


class TestInfraFailure:
    def test_report_names_the_error_without_a_manifest(self, tmp_path):
        """A trial whose oracle run raised is an infra failure; its
        reason reaches the report, not only the manifest."""
        summary = run_fuzz_campaign(
            trials=1, seed=0, max_forced=0, manifest_path=None,
            out_dir=str(tmp_path),
        )
        assert not summary.ok and summary.infra_failed == 1
        assert summary.infra_failures == [FuzzInfraFailure(
            index=0, category=UNIT_ERROR,
            error="ValueError: max_forced must be >= 1, got 0",
        )]
        assert (
            "  ! trial 0 infra fail [unit-error]: "
            "ValueError: max_forced must be >= 1, got 0"
        ) in format_fuzz_report(summary).splitlines()

    def test_long_error_is_cut_like_oracle_details(self):
        summary = FuzzSummary(trials=1, infra_failures=[
            FuzzInfraFailure(index=4, category="worker-lost", error="x" * 500)
        ])
        line = format_fuzz_report(summary).splitlines()[-1]
        assert line == "  ! trial 4 infra fail [worker-lost]: " + "x" * 160

    def test_quarantined_infra_row_reruns(self, tmp_path):
        """An infra failure quarantined under the retired retry policy is
        no verdict on the program: resume runs the trial again."""
        manifest = str(tmp_path / "fuzz.jsonl")
        run = dict(trials=1, seed=0, manifest_path=manifest,
                   out_dir=str(tmp_path), **FAST)
        assert run_fuzz_campaign(**run).executed == 1
        with open(manifest) as handle:
            uid = json.loads(handle.readline())["unit_id"]
        with open(manifest, "a") as handle:
            handle.write(json.dumps({
                "unit_id": uid, "status": "quarantined", "attempts": 2,
                "data": {"error": "BrokenProcessPool: lost", "infra": True,
                         "category": "worker-lost"},
            }) + "\n")
        summary = run_fuzz_campaign(**run)
        assert (summary.executed, summary.skipped) == (1, 0)
        assert summary.ok and summary.passed == 1


class TestFuzzCLI:
    def test_fuzz_subcommand(self, tmp_path, capsys):
        code = main([
            "fuzz", "--trials", "2", "--seed", "0",
            "--no-multi-fault", "--max-forced", "2", "--no-shrink",
            "--no-manifest", "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fuzz: 2 trials, seed 0" in out
        assert "passed:      2" in out

    def test_fuzz_subcommand_manifest_resume(self, tmp_path, capsys):
        manifest = str(tmp_path / "m.jsonl")
        args = [
            "fuzz", "--trials", "2", "--seed", "0",
            "--no-multi-fault", "--max-forced", "2", "--no-shrink",
            "--manifest", manifest, "--out", str(tmp_path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "resumed:     2" in capsys.readouterr().out
