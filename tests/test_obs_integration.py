"""End-to-end observability: CLI flags, campaign resume, telemetry."""

import json

import pytest

from repro.cli import main
from repro.harness.report import Telemetry
from repro.ir import parse_module
from repro.obs import Observer, counter_values, set_observer
from repro.transforms.pipeline import optimize_function

from .helpers import SUM_IR


@pytest.fixture
def observer():
    obs_ = Observer()
    previous = set_observer(obs_)
    yield obs_
    set_observer(previous)


class TestCliObsFlags:
    def test_stdout_byte_identical_with_profile(self, observer, tmp_path, capsys):
        assert main(["experiment", "table2", "mcf"]) == 0
        plain = capsys.readouterr().out
        trace = str(tmp_path / "t.json")
        metrics = str(tmp_path / "m.json")
        assert main(["experiment", "table2", "mcf",
                     "--profile", trace, "--metrics", metrics, "--stats"]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain  # report text must not change
        # The obs artifacts and stats table are stderr-only.
        assert "[obs] trace:" in captured.err
        assert "[obs] metrics:" in captured.err
        assert "metric" in captured.err

    def test_profile_emits_valid_artifacts(self, observer, tmp_path, capsys):
        # Force a cold build so compile-side spans appear in the trace.
        from repro.experiments.common import clear_build_memo
        from repro.harness.cache import ArtifactCache, set_default_cache

        clear_build_memo()
        previous = set_default_cache(ArtifactCache(root=str(tmp_path / "cache")))
        trace = str(tmp_path / "t.json")
        metrics = str(tmp_path / "m.json")
        try:
            assert main(["experiment", "fig9", "mcf",
                         "--profile", trace, "--metrics", metrics]) == 0
        finally:
            set_default_cache(previous)
            clear_build_memo()
        capsys.readouterr()
        assert main(["stats", trace, metrics]) == 0
        out = capsys.readouterr().out
        assert "valid Chrome trace" in out
        assert "valid metrics dump" in out
        payload = json.load(open(trace))
        cats = {e.get("cat") for e in payload["traceEvents"]
                if e.get("ph") == "X"}
        # fig9 compiles cold and simulates: every pipeline layer traces.
        assert {"frontend", "transforms", "construction",
                "codegen", "sim", "harness"} <= cats

    def test_no_profile_leaves_tracer_empty(self, observer, capsys):
        assert main(["experiment", "table2", "mcf"]) == 0
        capsys.readouterr()
        assert len(observer.tracer) == 0
        # ... while metrics accumulated regardless.
        assert "transforms.promoted_allocas" in observer.metrics.names()


@pytest.fixture
def isolated_store(tmp_path):
    """Campaigns publish section records: keep them in a private store."""
    from repro.harness.incremental import OutcomeStore, set_default_store

    previous = set_default_store(OutcomeStore(root=str(tmp_path / "cache")))
    yield
    set_default_store(previous)


@pytest.mark.usefixtures("isolated_store")
class TestCampaignObs:
    def test_resume_logged_via_obs(self, observer, tmp_path, capsys):
        manifest = str(tmp_path / "campaign.jsonl")
        argv = ["campaign", "bzip2", "--trials", "2", "--manifest", manifest]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert f"campaign manifest: {manifest}" in first.err
        assert "campaign resume: 0 of" in first.err

        assert main(argv) == 0
        second = capsys.readouterr()
        assert "0 executed, 2 resumed from manifest" in second.out
        # The resume accounting reaches both the obs log and the registry.
        assert "already in manifest, 0 to run" in second.err
        skipped = {
            tuple(sorted(labels.items())): value
            for labels, value in counter_values(
                observer.metrics.snapshot(), "campaign.units")
        }
        assert skipped.get((("status", "skipped"),), 0) >= 2
        assert skipped.get((("status", "executed"),), 0) >= 2


class TestTelemetryOverObs:
    def test_phase_stats_from_registry_delta(self, observer):
        telemetry = Telemetry(label="t1")
        with telemetry.phase("build", units=3):
            pass
        with telemetry.phase("measure", units=2):
            pass
        stats = telemetry.phase_stats()
        assert [(name, units) for name, _, units in stats] == \
            [("build", 3), ("measure", 2)]
        assert all(seconds >= 0 for _, seconds, _ in stats)

    def test_runs_are_isolated_by_label(self, observer):
        t1 = Telemetry(label="one")
        with t1.phase("build", units=1):
            pass
        t2 = Telemetry(label="two")
        with t2.phase("build", units=5):
            pass
        assert [u for _, _, u in t1.phase_stats()] == [1]
        assert [u for _, _, u in t2.phase_stats()] == [5]

    def test_summary_format(self, observer):
        telemetry = Telemetry(label="demo")
        with telemetry.phase("build", units=2):
            pass
        telemetry.note("extra note")
        telemetry.finish()
        summary = telemetry.format_summary()
        lines = summary.splitlines()
        assert lines[0].startswith("[harness] demo:")
        assert lines[0].endswith("s wall")
        assert "phase build" in lines[1] and "(2 units)" in lines[1]
        assert lines[-1] == "  extra note"

    def test_phase_spans_recorded_when_tracing(self, observer):
        observer.enable()
        telemetry = Telemetry(label="traced")
        with telemetry.phase("measure"):
            pass
        names = [s.name for s in observer.tracer.spans()]
        assert "harness.measure" in names


class TestPipelineMetrics:
    def test_pass_stats_published_and_returned(self, observer):
        module = parse_module(SUM_IR)
        stats = optimize_function(module.functions["sum"])
        # The return value (existing contract) still reports the work...
        assert stats["promoted_allocas"] > 0
        # ...and the same numbers land on the metrics registry.
        snapshot = observer.metrics.snapshot()
        rows = counter_values(snapshot, "transforms.promoted_allocas")
        assert sum(value for _, value in rows) == stats["promoted_allocas"]
        by_func = {labels.get("func") for labels, _ in rows}
        assert by_func == {"sum"}

    def test_pass_spans_when_tracing(self, observer):
        observer.enable()
        module = parse_module(SUM_IR)
        optimize_function(module.functions["sum"])
        names = {s.name for s in observer.tracer.spans()}
        assert "transforms.promoted_allocas" in names
        assert "transforms.dead_instructions" in names
