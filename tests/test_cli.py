"""CLI tests (``python -m repro``)."""

import pytest

from repro.cli import main

DEMO = """
int a[4];
int main() {
  for (int i = 0; i < 10; i = i + 1) a[i % 4] = a[i % 4] + i;
  print_int(a[0] + a[1] + a[2] + a[3]);
  return a[0];
}
"""


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.c"
    path.write_text(DEMO)
    return str(path)


class TestRun:
    def test_run_prints_output(self, demo_file, capsys):
        assert main(["run", demo_file]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "45"
        assert "result=" in captured.err

    def test_run_original(self, demo_file, capsys):
        assert main(["run", demo_file, "--original"]) == 0
        assert capsys.readouterr().out.strip() == "45"

    def test_run_with_region_bound(self, demo_file, capsys):
        assert main(["run", demo_file, "--max-region-size", "5"]) == 0
        assert capsys.readouterr().out.strip() == "45"


class TestCompile:
    def test_emit_ir_has_boundaries(self, demo_file, capsys):
        assert main(["compile", demo_file, "--emit", "ir"]) == 0
        out = capsys.readouterr().out
        assert "boundary" in out
        assert "func @main" in out

    def test_emit_ir_original_has_none(self, demo_file, capsys):
        assert main(["compile", demo_file, "--emit", "ir", "--original"]) == 0
        assert "boundary" not in capsys.readouterr().out

    def test_emit_asm(self, demo_file, capsys):
        assert main(["compile", demo_file]) == 0
        out = capsys.readouterr().out
        assert "rcb" in out
        assert "vregs=" in out

    def test_heuristic_flag(self, demo_file, capsys):
        assert main(["compile", demo_file, "--emit", "ir",
                     "--heuristic", "coverage"]) == 0


class TestRegions:
    def test_report_fields(self, demo_file, capsys):
        assert main(["regions", demo_file]) == 0
        out = capsys.readouterr().out
        assert "@main:" in out
        assert "hitting-set cuts:" in out
        assert "regions:" in out


class TestFaults:
    def test_campaign_runs(self, demo_file, capsys):
        assert main(["faults", demo_file, "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert "idempotent" in out and "recovery" in out


class TestWorkloads:
    def test_lists_all(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "bzip2" in out and "blackscholes" in out
        assert len(out.strip().splitlines()) == 19


class TestExperiment:
    def test_table2_subset(self, capsys):
        assert main(["experiment", "table2", "mcf"]) == 0
        captured = capsys.readouterr()
        assert "artificial" in captured.out
        # Telemetry goes to stderr so report text stays byte-identical.
        assert "[harness]" in captured.err

    def test_jobs_flag_matches_serial(self, capsys):
        assert main(["experiment", "table2", "mcf", "bzip2"]) == 0
        serial = capsys.readouterr().out
        assert main(["experiment", "table2", "mcf", "bzip2", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_no_cache_flag(self, capsys):
        assert main(["experiment", "table2", "mcf", "--no-cache"]) == 0
        assert "artificial" in capsys.readouterr().out

    def test_all_drives_every_figure(self, capsys):
        assert main(["experiment", "all", "bzip2"]) == 0
        out = capsys.readouterr().out
        for title in ("TABLE 2", "FIGURE 4", "FIGURE 8", "FIGURE 9",
                      "FIGURE 10", "FIGURE 12"):
            assert title in out
        assert out.rstrip().endswith("DONE")

    def test_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig999"])


class TestCampaign:
    def test_campaign_runs_and_resumes(self, tmp_path, capsys):
        manifest = str(tmp_path / "campaign.jsonl")
        argv = ["campaign", "bzip2", "--trials", "2",
                "--manifest", manifest]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "idempotent" in first and "2 executed" in first
        # Second invocation resumes from the manifest: same table, no work.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 executed, 2 resumed from manifest" in second
        assert first.splitlines()[:6] == second.splitlines()[:6]

    def test_resilience_flags_do_not_change_stdout(self, capsys):
        """With no failures, --retries/--unit-timeout are invisible:
        the campaign report is byte-identical to a plain run."""
        base = ["campaign", "bzip2", "--trials", "2", "--no-manifest"]
        assert main(base) == 0
        plain = capsys.readouterr().out
        assert main(base + ["--retries", "2", "--unit-timeout", "60"]) == 0
        assert capsys.readouterr().out == plain

    def test_flavour_and_backend_selection(self, capsys):
        argv = ["campaign", "bzip2", "--trials", "2", "--no-manifest",
                "--flavours", "idempotent", "--backends", "tmr"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "tmr" in out and "idempotent" in out
        assert "original" not in out.splitlines()[0]  # flavour filtered out

    def test_unknown_backend_is_exit_2(self, capsys):
        argv = ["campaign", "bzip2", "--trials", "2", "--no-manifest",
                "--backends", "nope"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "campaign error" in captured.err
        assert "idempotent, checkpoint_log, tmr" in captured.err

    def test_unknown_flavour_is_exit_2(self, capsys):
        argv = ["campaign", "bzip2", "--trials", "2", "--no-manifest",
                "--flavours", "bogus"]
        assert main(argv) == 2
        assert "unknown flavour(s) bogus" in capsys.readouterr().err


class TestTrialCounts:
    @pytest.mark.parametrize("argv", [
        ["faults", "demo.c"],
        ["campaign", "bzip2", "--no-manifest"],
        ["recovery", "compare", "bzip2"],
        ["fuzz", "--no-manifest"],
    ])
    def test_negative_trials_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--trials", "-1"])
        assert exc.value.code == 2
        assert "--trials: must be >= 0, got -1" in capsys.readouterr().err

    def test_non_integer_trials_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "bzip2", "--trials", "many"])
        assert exc.value.code == 2
        assert "invalid int value: 'many'" in capsys.readouterr().err


class TestRecovery:
    def test_compare_reports_all_backends(self, capsys):
        assert main(["recovery", "compare", "bzip2",
                     "--trials", "4", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        for name in ("idempotent", "checkpoint_log", "tmr"):
            assert name in out
        assert "predictor MAE" in out
        assert "static checkpoint sets" in out

    def test_compare_writes_validated_bench(self, tmp_path, capsys):
        out_path = str(tmp_path / "BENCH_recovery.json")
        assert main(["recovery", "compare", "bzip2",
                     "--backends", "tmr", "--trials", "3",
                     "--out", out_path]) == 0
        captured = capsys.readouterr()
        assert "(1 backends)" in captured.err

        from repro.bench import load_recovery_bench_file

        bench = load_recovery_bench_file(out_path)
        assert [row["name"] for row in bench["backends"]] == ["tmr"]

    def test_unknown_backend_is_exit_2(self, capsys):
        assert main(["recovery", "compare", "bzip2",
                     "--backends", "bogus", "--trials", "2"]) == 2
        assert "recovery error" in capsys.readouterr().err

    def test_unknown_workload_is_exit_2(self, capsys):
        assert main(["recovery", "compare", "no-such-workload",
                     "--trials", "2"]) == 2
        assert "recovery error" in capsys.readouterr().err


class TestCampaignIncremental:
    @pytest.fixture(autouse=True)
    def restore_harness_options(self):
        """main() threads --jobs/--chaos/--retries into the process-global
        HarnessOptions; restore every field so the chaos policy (and the
        jobs>1 pool path it needs) never leaks into later test files."""
        import dataclasses

        from repro.experiments.common import current_options

        options = current_options()
        snapshot = dataclasses.replace(options)
        yield
        for field in dataclasses.fields(options):
            setattr(options, field.name, getattr(snapshot, field.name))

    @pytest.fixture
    def isolated_store(self, tmp_path):
        """Private outcome store per test.  Only the parent process
        touches the store (workers just return trial rows), so swapping
        the in-process default is sufficient — and the build cache stays
        shared, like every other CLI test."""
        from repro.harness.incremental import OutcomeStore, set_default_store

        previous = set_default_store(OutcomeStore(root=str(tmp_path / "cache")))
        yield
        set_default_store(previous)

    def test_warm_rerun_stdout_is_byte_identical(self, isolated_store, capsys):
        argv = ["campaign", "bzip2", "--trials", "4", "--no-manifest",
                "--incremental"]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "sections:" in cold.err
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert ", 0 re-injected" in warm.err

    def test_explain_stale_reports_warm_store(self, isolated_store, capsys):
        argv = ["campaign", "bzip2", "--trials", "4", "--no-manifest",
                "--incremental", "--explain-stale"]
        assert main(argv) == 0
        assert "stale sections:" in capsys.readouterr().err
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "stale sections: none" in err

    def test_explain_stale_requires_incremental(self, capsys):
        argv = ["campaign", "bzip2", "--trials", "2", "--no-manifest",
                "--explain-stale"]
        assert main(argv) == 2
        assert "--explain-stale requires --incremental" in capsys.readouterr().err

    def test_zero_trials_table_matches_monolithic(self, isolated_store, capsys):
        argv = ["campaign", "bzip2", "--trials", "0", "--no-manifest"]
        assert main(argv) == 0
        monolithic = capsys.readouterr().out.splitlines()
        assert main(argv + ["--incremental"]) == 0
        incremental = capsys.readouterr().out.splitlines()
        assert monolithic[:len(incremental)] == incremental
        rows = incremental[2:4]
        assert [row.split()[1:3] for row in rows] == [
            ["original", "0"], ["idempotent", "0"],
        ]
        assert all(row.endswith("n/a") for row in rows)

    def test_incremental_rejects_shard_trials(self, capsys):
        argv = ["campaign", "bzip2", "--trials", "2", "--no-manifest",
                "--incremental", "--shard-trials", "1"]
        assert main(argv) == 2
        assert "sections are the resume granularity" in capsys.readouterr().err

    def test_chaos_quarantine_is_exit_1(self, isolated_store, capsys):
        # Warm the build pair inline first so the chaos below only ever
        # fires inside section units, not the prebuild compiles.
        assert main(["campaign", "bzip2", "--trials", "2", "--no-manifest"]) == 0
        capsys.readouterr()
        argv = ["campaign", "bzip2", "--trials", "2", "--seed", "99",
                "--no-manifest", "--incremental", "-j", "2",
                "--chaos", "seed=1,raise=1.0"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "quarantined after" in captured.out

    def test_monolithic_chaos_lists_quarantined_units(
        self, isolated_store, capsys
    ):
        assert main(["campaign", "bzip2", "--trials", "2", "--no-manifest"]) == 0
        capsys.readouterr()
        argv = ["campaign", "bzip2", "--trials", "2", "--seed", "99",
                "--no-manifest", "-j", "2", "--chaos", "seed=1,raise=1.0"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "quarantined units (pass --fresh to retry):" in out
        assert "bzip2:" in out.split("quarantined units", 1)[1]
