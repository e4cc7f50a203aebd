"""Chrome-trace / metrics-dump exporters and the ``repro stats`` command."""

import json

import pytest

from repro.cli import main
from repro.obs import (
    METRICS_SCHEMA,
    MetricsRegistry,
    ObsExportError,
    Tracer,
    chrome_trace_events,
    format_stats_table,
    load_metrics_file,
    summarize_file,
    validate_metrics_file,
    validate_trace_file,
    write_chrome_trace,
    write_metrics_json,
)


@pytest.fixture
def traced():
    """A tracer with a small nested span tree plus an instant marker."""
    tracer = Tracer(enabled=True)
    with tracer.span("frontend.compile", workload="demo"):
        with tracer.span("transforms.promoted_allocas", func="main"):
            pass
        tracer.instant("log", message="hello")
    return tracer


class TestChromeTrace:
    def test_event_schema(self, traced):
        events = chrome_trace_events(traced.spans())
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(meta) == 1 and meta[0]["name"] == "process_name"
        assert {e["name"] for e in complete} == {
            "frontend.compile", "transforms.promoted_allocas"}
        assert len(instants) == 1 and instants[0]["s"] == "t"
        for event in complete:
            assert event["cat"] == event["name"].split(".")[0]
            assert isinstance(event["ts"], float) and event["ts"] >= 0
            assert isinstance(event["dur"], float) and event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)

    def test_args_carry_span_attrs(self, traced):
        events = chrome_trace_events(traced.spans())
        by_name = {e["name"]: e for e in events if e["ph"] == "X"}
        assert by_name["frontend.compile"]["args"] == {"workload": "demo"}

    def test_per_pid_rebasing(self):
        # Two fake processes with wildly different perf_counter origins
        # must both start near ts=0 in the export.
        from repro.obs.tracer import Span

        spans = [
            Span(name="a", start_ns=10**15, dur_ns=1000, pid=1, tid=1, span_id=1),
            Span(name="b", start_ns=5_000, dur_ns=1000, pid=2, tid=2, span_id=2),
        ]
        events = chrome_trace_events(spans)
        ts = {e["name"]: e["ts"] for e in events if e["ph"] == "X"}
        assert ts["a"] == 0.0 and ts["b"] == 0.0

    def test_write_and_validate_roundtrip(self, traced, tmp_path):
        path = str(tmp_path / "out.trace.json")
        count = write_chrome_trace(path, traced.spans())
        assert validate_trace_file(path) == count
        payload = json.loads(open(path).read())
        assert isinstance(payload["traceEvents"], list)

    def test_validate_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        with pytest.raises(ObsExportError):
            validate_trace_file(str(bad))
        bad.write_text('{"traceEvents": [{"ph": "X"}]}')  # no name
        with pytest.raises(ObsExportError):
            validate_trace_file(str(bad))


class TestMetricsDump:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("cache.hits").inc(3, cache="c1")
        reg.gauge("depth").set(2)
        reg.histogram("sizes").observe(10)
        return reg

    def test_write_and_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "m.json")
        reg = self._registry()
        assert write_metrics_json(path, reg.snapshot()) == 3
        loaded = load_metrics_file(path)
        assert loaded == reg.snapshot()
        assert validate_metrics_file(path) == 3
        assert json.loads(open(path).read())["schema"] == METRICS_SCHEMA

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"schema": "something/else", "metrics": {}}')
        with pytest.raises(ObsExportError):
            load_metrics_file(str(path))

    def test_load_rejects_malformed_rows(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "schema": METRICS_SCHEMA,
            "metrics": {"x": {"type": "counter", "values": [{"labels": {}}]}},
        }))
        with pytest.raises(ObsExportError):
            load_metrics_file(str(path))

    def test_stats_table(self):
        table = format_stats_table(self._registry().snapshot())
        assert "cache.hits" in table and "cache=c1" in table
        assert "sizes" in table
        lines = table.splitlines()
        assert lines[0].startswith("metric")

    def test_stats_table_prefix_filter(self):
        table = format_stats_table(self._registry().snapshot(), prefix="cache.")
        assert "cache.hits" in table and "sizes" not in table

    def test_stats_table_empty(self):
        assert "no metrics" in format_stats_table({})


class TestStatsCommand:
    def test_summarizes_both_kinds(self, tmp_path, capsys):
        tracer = Tracer(enabled=True)
        with tracer.span("sim.run"):
            pass
        trace = str(tmp_path / "t.json")
        metrics = str(tmp_path / "m.json")
        write_chrome_trace(trace, tracer.spans())
        reg = MetricsRegistry()
        reg.counter("sim.cycles").inc(42)
        write_metrics_json(metrics, reg.snapshot())

        assert main(["stats", trace, metrics]) == 0
        out = capsys.readouterr().out
        assert "valid Chrome trace" in out and "categories: sim" in out
        assert "valid metrics dump" in out and "sim.cycles" in out

    def test_invalid_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["stats", str(bad)]) == 1
        assert "invalid" in capsys.readouterr().err

    def test_summarize_file_sniffs_kind(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"traceEvents": []}')
        assert "Chrome trace" in summarize_file(str(path))
        path.write_text('{"schema": "%s", "metrics": {}}' % METRICS_SCHEMA)
        assert "metrics dump" in summarize_file(str(path))
        path.write_text("[]")
        with pytest.raises(ObsExportError):
            summarize_file(str(path))
        # A dump in a retired bench schema is neither kind.
        path.write_text(json.dumps({
            "schema": "repro.bench/1", "label": "baseline",
            "workloads": ["bzip2"],
            "phases": {"sim": {"seconds": 1.5,
                               "per_workload": {"bzip2": 1.5}}},
        }))
        with pytest.raises(ObsExportError, match="neither"):
            summarize_file(str(path))
        assert main(["stats", str(path)]) == 1
