"""CLI tests (``python -m repro``)."""

import re

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
def isolated_store(tmp_path):
    """Private outcome store per test.  A campaign puts the store in
    every unit's payload, so swapping the in-process default reaches
    the workers too — and the build cache stays shared, like every
    other CLI test."""
    from repro.harness.incremental import OutcomeStore, set_default_store

    previous = set_default_store(OutcomeStore(root=str(tmp_path / "cache")))
    yield
    set_default_store(previous)


def _store_off():
    """Swap in a disabled outcome store, as ``REPRO_CACHE_DISABLE=1`` at
    startup does: every section injects, the monolithic campaign.  The
    ``isolated_store`` fixture restores the previous store."""
    from repro.harness.incremental import OutcomeStore, set_default_store

    set_default_store(OutcomeStore(enabled=False))


#: SCALE_IR of tests/helpers.py in MiniC: a loop with a self-dependent
#: induction φ and an in-loop memory antidependence, so the §5
#: unroll-by-one enhancement fires.
SCALE = """
int a[8];
void scale(int *p, int n) {
  for (int i = 0; i < n; i = i + 1) p[i] = p[i] * 3;
}
int main() {
  scale(a, 8);
  return a[0];
}
"""

#: The copy kernel of tests/test_core_extensions.py: only the possible
#: alias between ``dst`` and ``src`` needs a hitting-set cut.
COPY = """
int a[16];
int b[16];
void copy(int *dst, int *src, int n) {
  for (int i = 0; i < n; i = i + 1) dst[i] = src[i];
}
int main() {
  int i;
  for (i = 0; i < 16; i = i + 1) a[i] = i * i;
  copy(b, a, 16);
  return b[15];
}
"""


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.c"
    path.write_text(DEMO)
    return str(path)


def _source_file(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source)
    return str(path)


def _report_count(out, func, pattern):
    """The number ``pattern`` captures in ``func``'s regions report."""
    section = out.split(f"@{func}:", 1)[1].split("\n@", 1)[0]
    return int(re.search(pattern, section).group(1))


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

    def test_no_unroll_flag(self, tmp_path, capsys):
        path = _source_file(tmp_path, "scale.c", SCALE)
        unrolled = r"(\d+) loops unrolled"
        assert main(["regions", path]) == 0
        assert _report_count(capsys.readouterr().out, "scale", unrolled) == 1
        assert main(["regions", path, "--no-unroll"]) == 0
        assert _report_count(capsys.readouterr().out, "scale", unrolled) == 0

    def test_trust_noalias_flag(self, tmp_path, capsys):
        path = _source_file(tmp_path, "copy.c", COPY)
        cuts = r"hitting-set cuts:\s+(\d+)"
        assert main(["regions", path]) == 0
        honest = _report_count(capsys.readouterr().out, "copy", cuts)
        assert main(["regions", path, "--trust-noalias"]) == 0
        promised = _report_count(capsys.readouterr().out, "copy", cuts)
        assert promised < honest


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


@pytest.mark.usefixtures("isolated_store")
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

    @pytest.mark.parametrize("argv", [
        ["campaign", "bzip2", "--no-manifest"],
        ["recovery", "compare", "bzip2"],
    ])
    def test_negative_latency_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--latency", "-1"])
        assert exc.value.code == 2
        assert "--latency: must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_max_forced_below_one_exit_2(self, value, capsys):
        """Below 1 the re-execution oracle would force no recovery."""
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--trials", "2", "--no-manifest",
                  "--max-forced", value])
        assert exc.value.code == 2
        assert (f"--max-forced: must be >= 1, got {value}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_hunt_below_one_exit_2(self, value, capsys):
        """-1 used to report a hunt over -1 programs, and 0 skipped it."""
        with pytest.raises(SystemExit) as exc:
            main(["recovery", "compare", "bzip2", "--hunt", value])
        assert exc.value.code == 2
        assert f"--hunt: must be >= 1, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "-0.5"])
    def test_threshold_nan_or_negative_exit_2(self, value, capsys):
        """Every comparison with NaN is false, so no region was flagged."""
        with pytest.raises(SystemExit) as exc:
            main(["recovery", "compare", "bzip2", "--threshold", value])
        assert exc.value.code == 2
        assert (f"--threshold: must be a number >= 0, got {value}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["compile", "run", "regions", "faults"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_max_region_size_below_one_exit_2(self, command, value, capsys):
        """A region bound below 1 is an argparse error, not a traceback
        from the size-bound pass."""
        with pytest.raises(SystemExit) as exc:
            main([command, "demo.c", "--max-region-size", value])
        assert exc.value.code == 2
        assert (f"--max-region-size: must be >= 1, got {value}"
                in capsys.readouterr().err)


RESILIENT_COMMANDS = [
    ["experiment", "table2", "mcf"],
    ["campaign", "bzip2", "--no-manifest"],
    ["fuzz", "--no-manifest"],
]


class TestResilienceFlags:
    @pytest.mark.parametrize("argv", RESILIENT_COMMANDS)
    @pytest.mark.parametrize("value", ["0", "-1", "inf"])
    def test_unit_timeout_not_positive_finite_exit_2(self, argv, value, capsys):
        """0 used to mean no limit, -1 timed out every pool unit and inf
        overflows the pool's wait."""
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--unit-timeout", value])
        assert exc.value.code == 2
        assert (f"--unit-timeout: must be > 0 and finite, got {value}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", RESILIENT_COMMANDS)
    def test_negative_retries_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--retries", "-1"])
        assert exc.value.code == 2
        assert "--retries: must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.usefixtures("isolated_store")
class TestRecovery:
    def test_compare_reports_all_backends(self, capsys):
        assert main(["recovery", "compare", "bzip2",
                     "--trials", "4", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        for name in ("idempotent", "checkpoint_log", "tmr"):
            assert name in out
        assert "predictor MAE" in out
        assert "static checkpoint sets" in out

    def test_unknown_backend_is_exit_2(self, capsys):
        assert main(["recovery", "compare", "bzip2",
                     "--backends", "bogus", "--trials", "2"]) == 2
        assert "recovery error" in capsys.readouterr().err

    def test_unknown_workload_is_exit_2(self, capsys):
        assert main(["recovery", "compare", "no-such-workload",
                     "--trials", "2"]) == 2
        assert "recovery error" in capsys.readouterr().err

    def test_hunt_below_threshold_writes_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        """No divergence reaches 2.0 (rates lie in [0, 1]), so the hunt
        reports and leaves examples/regressions/ alone."""
        monkeypatch.chdir(tmp_path)
        assert main(["recovery", "compare", "blackscholes",
                     "--backends", "tmr", "--trials", "2",
                     "--hunt", "1", "--threshold", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "hunt: worst divergence" in out
        assert "hunt: below threshold 2.00; no reproducer written" in out
        assert not (tmp_path / "examples").exists()


def _raise_in_every_bzip2_unit(trials, seed):
    """A chaos policy that raises ``ChaosError`` in every unit of a
    ``campaign bzip2 --trials T --seed S`` run (pool path only)."""
    from repro.harness.campaign import fault_campaign_units
    from repro.harness.resilience import ChaosPolicy

    units = fault_campaign_units(["bzip2"], trials, seed)
    return ChaosPolicy(raise_units=tuple(uid for uid, _ in units))


class TestCampaignIncremental:
    @pytest.fixture(autouse=True)
    def restore_harness_options(self):
        """main() threads --jobs/--retries into the process-global
        HarnessOptions; restore every field so the jobs>1 pool path the
        chaos tests need never leaks into later test files."""
        import dataclasses

        from repro.experiments.common import current_options

        options = current_options()
        snapshot = dataclasses.replace(options)
        yield
        for field in dataclasses.fields(options):
            setattr(options, field.name, getattr(snapshot, field.name))

    def test_warm_rerun_stdout_is_byte_identical(self, isolated_store, capsys):
        argv = ["campaign", "bzip2", "--trials", "4", "--no-manifest"]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "sections:" in cold.err
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert ", 0 re-injected" in warm.err

    def test_explain_stale_reports_warm_store(self, isolated_store, capsys):
        argv = ["campaign", "bzip2", "--trials", "4", "--no-manifest",
                "--explain-stale"]
        assert main(argv) == 0
        assert "stale sections:" in capsys.readouterr().err
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "stale sections: none (every section composed" in err

    def test_explain_stale_after_manifest_resume(
        self, isolated_store, tmp_path, capsys
    ):
        """Units resumed from the manifest plan no sections, so the report
        says so instead of claiming the store composed them."""
        argv = ["campaign", "bzip2", "--trials", "2",
                "--manifest", str(tmp_path / "m.jsonl")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--explain-stale"]) == 0
        err = capsys.readouterr().err
        assert ("stale sections: none planned (0 units executed, "
                "2 resumed from manifest)") in err
        assert "composed from the store" not in err

    def test_no_cache_injects_every_section(self, isolated_store, capsys):
        """--no-cache is a from-scratch run: even with the store full,
        every section injects and nothing is published."""
        from repro.harness.incremental import default_store

        argv = ["campaign", "bzip2", "--trials", "4", "--no-manifest",
                "--explain-stale"]
        assert main(argv) == 0
        cold = capsys.readouterr()
        entries = default_store().entry_count()
        assert entries > 0
        assert main(argv + ["--no-cache"]) == 0
        fresh = capsys.readouterr()
        assert fresh.out == cold.out
        assert " 0 cached, " in fresh.err
        assert "(0 trials from store, " in fresh.err
        assert "composed from the store" not in fresh.err
        assert default_store().entry_count() == entries

    def test_zero_trials_table_matches_monolithic(self, isolated_store, capsys):
        argv = ["campaign", "bzip2", "--trials", "0", "--no-manifest"]
        assert main(argv) == 0
        composed = capsys.readouterr().out
        _store_off()
        assert main(argv) == 0
        assert capsys.readouterr().out == composed
        rows = composed.splitlines()[2:4]
        assert [row.split()[1:3] for row in rows] == [
            ["original", "0"], ["idempotent", "0"],
        ]
        assert all(row.endswith("n/a") for row in rows)

    def test_chaos_quarantine_is_exit_1(
        self, isolated_store, capsys, campaign_chaos
    ):
        campaign_chaos(_raise_in_every_bzip2_unit(trials=2, seed=99))
        argv = ["campaign", "bzip2", "--trials", "2", "--seed", "99",
                "--no-manifest", "-j", "2", "--retries", "0"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "quarantined after" in captured.out

    def test_monolithic_chaos_lists_quarantined_units(
        self, isolated_store, capsys, campaign_chaos
    ):
        _store_off()
        campaign_chaos(_raise_in_every_bzip2_unit(trials=2, seed=99))
        argv = ["campaign", "bzip2", "--trials", "2", "--seed", "99",
                "--no-manifest", "-j", "2", "--retries", "0"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "quarantined units (pass --fresh to retry):" in out
        assert "bzip2:" in out.split("quarantined units", 1)[1]

    def test_trapping_fault_free_run_is_exit_1(
        self, isolated_store, capsys, monkeypatch
    ):
        from repro.sim.simulator import SimulationError, Simulator

        def trap(self, *args, **kwargs):
            raise SimulationError("trap in the fault-free run")

        monkeypatch.setattr(Simulator, "run", trap)
        argv = ["campaign", "blackscholes", "--trials", "2", "--no-manifest"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "0 executed, 0 resumed from manifest, 2 failed" in out
        for label in ("original", "idempotent"):
            assert (f"! blackscholes:{label}:value:seed12345:lat0:t0+2: "
                    f"PermanentUnitError: fault-free run failed") in out
