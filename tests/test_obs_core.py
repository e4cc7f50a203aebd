"""Tracer spans, metrics registry, and cross-process merge semantics."""

import threading

import pytest

from repro.harness.executor import TaskExecutor
from repro.obs import (
    Observer,
    MetricsRegistry,
    counter_values,
    diff_snapshots,
    get_observer,
    set_observer,
)
from repro.obs.tracer import _NULL_SPAN, Span, Tracer


@pytest.fixture
def observer():
    """Fresh process-global observer, restored after the test."""
    obs_ = Observer()
    previous = set_observer(obs_)
    yield obs_
    set_observer(previous)


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_is_shared_noop(self):
        tracer = Tracer(enabled=False)
        cm = tracer.span("construction.cuts", func="f")
        assert cm is _NULL_SPAN
        with cm:
            pass
        tracer.instant("never")
        assert len(tracer) == 0  # buffer untouched

    def test_span_records_timing_and_attrs(self):
        tracer = Tracer(enabled=True)
        with tracer.span("transforms.mem2reg", func="main"):
            pass
        (span,) = tracer.spans()
        assert span.name == "transforms.mem2reg"
        assert span.category == "transforms"
        assert span.attrs == {"func": "main"}
        assert span.dur_ns >= 0
        assert span.parent_id is None and span.depth == 0

    def test_nesting_parent_and_depth(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
        inner, middle, outer = tracer.spans()  # finish order
        assert [s.name for s in (inner, middle, outer)] == [
            "inner", "middle", "outer"]
        assert outer.parent_id is None and outer.depth == 0
        assert middle.parent_id == outer.span_id and middle.depth == 1
        assert inner.parent_id == middle.span_id and inner.depth == 2

    def test_siblings_share_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("parent"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b, parent = tracer.spans()
        assert a.parent_id == parent.span_id
        assert b.parent_id == parent.span_id
        assert a.span_id != b.span_id

    def test_nesting_is_per_thread(self):
        tracer = Tracer(enabled=True)
        done = threading.Event()

        def other():
            with tracer.span("thread.b"):
                pass
            done.set()

        with tracer.span("thread.a"):
            t = threading.Thread(target=other)
            t.start()
            t.join()
        assert done.is_set()
        by_name = {s.name: s for s in tracer.spans()}
        # The other thread's span must NOT nest under thread.a.
        assert by_name["thread.b"].parent_id is None
        assert by_name["thread.a"].tid != by_name["thread.b"].tid

    def test_instant_has_zero_duration(self):
        tracer = Tracer(enabled=True)
        tracer.instant("log", message="hello")
        (span,) = tracer.spans()
        assert span.dur_ns == 0
        assert span.attrs["message"] == "hello"

    def test_mark_and_spans_since(self):
        tracer = Tracer(enabled=True)
        with tracer.span("before"):
            pass
        mark = tracer.mark()
        with tracer.span("after"):
            pass
        since = tracer.spans_since(mark)
        assert [s.name for s in since] == ["after"]

    def test_adopt_merges_foreign_spans(self):
        a, b = Tracer(enabled=True), Tracer(enabled=True)
        with b.span("remote.work"):
            pass
        a.adopt(b.spans())
        assert [s.name for s in a.spans()] == ["remote.work"]

    def test_exception_still_records_span(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("will.fail"):
                raise ValueError("boom")
        assert [s.name for s in tracer.spans()] == ["will.fail"]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_labels_and_total(self):
        reg = MetricsRegistry()
        c = reg.counter("cache.hits")
        c.inc(cache="a")
        c.inc(3, cache="a")
        c.inc(cache="b")
        assert c.value(cache="a") == 4
        assert c.value(cache="b") == 1
        assert c.value(cache="zzz") == 0
        assert c.total() == 5

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        g = reg.gauge("sim.store_buffer")
        g.set(4)
        g.set(7)
        snap = reg.snapshot()
        (row,) = snap["sim.store_buffer"]["values"]
        assert row["value"] == 7

    def test_histogram_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("construction.region_size")
        for v in (1, 2, 3, 100):
            h.observe(v)
        stats = h.stats()
        assert stats["count"] == 4
        assert stats["sum"] == 106
        assert stats["min"] == 1 and stats["max"] == 100

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_same_name_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_merge_equals_serial(self):
        # Two registries written independently must merge to the same
        # aggregates as one registry taking all the writes.
        serial = MetricsRegistry()
        part_a, part_b = MetricsRegistry(), MetricsRegistry()
        for reg, vals in ((part_a, (1, 5)), (part_b, (2, 9))):
            for v in vals:
                reg.counter("n").inc(v, shard="s")
                reg.histogram("h").observe(v)
        for v in (1, 5, 2, 9):
            serial.counter("n").inc(v, shard="s")
            serial.histogram("h").observe(v)
        merged = MetricsRegistry()
        merged.merge_snapshot(part_a.snapshot())
        merged.merge_snapshot(part_b.snapshot())
        assert merged.snapshot() == serial.snapshot()

    def test_merge_is_order_independent(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(5)
        ab, ba = MetricsRegistry(), MetricsRegistry()
        ab.merge_snapshot(a.snapshot())
        ab.merge_snapshot(b.snapshot())
        ba.merge_snapshot(b.snapshot())
        ba.merge_snapshot(a.snapshot())
        assert ab.snapshot() == ba.snapshot()

    def test_diff_snapshots(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2, k="v")
        before = reg.snapshot()
        reg.counter("c").inc(3, k="v")
        reg.counter("c").inc(1, k="other")
        after = reg.snapshot()
        delta = diff_snapshots(before, after)
        rows = counter_values(delta, "c")
        assert {tuple(sorted(labels.items())): value
                for labels, value in rows} == \
            {(("k", "v"),): 3, (("k", "other"),): 1}


# ----------------------------------------------------------------------
# Observer / executor integration
# ----------------------------------------------------------------------
def _metric_unit(x):
    """Module-level worker: records one counter bump and one span."""
    from repro import obs

    obs.counter("test.obs.units").inc(x, parity=str(x % 2))
    with obs.span("test.obs.unit", item=x):
        pass
    return x * x


class TestObserver:
    def test_disabled_observer_no_buffer_growth(self, observer):
        from repro import obs

        assert not observer.enabled
        for i in range(50):
            with obs.span("hot.path", i=i):
                pass
        assert len(observer.tracer) == 0
        # Metrics are always on regardless.
        obs.counter("still.counts").inc()
        assert observer.metrics.counter("still.counts").total() == 1

    def test_parallel_metrics_equal_serial(self, observer):
        items = list(range(6))
        serial = TaskExecutor(1).map(_metric_unit, items)
        serial_snap = observer.metrics.snapshot()

        fresh = Observer()
        set_observer(fresh)
        try:
            parallel = TaskExecutor(2).map(_metric_unit, items)
            parallel_snap = fresh.metrics.snapshot()
        finally:
            set_observer(observer)

        assert [r.value for r in serial] == [r.value for r in parallel]

        def rows(snap):
            return sorted(
                (tuple(sorted(labels.items())), value)
                for labels, value in counter_values(snap, "test.obs.units")
            )

        assert rows(parallel_snap) == rows(serial_snap)

    def test_parallel_spans_adopted_when_tracing(self, observer):
        observer.enable()
        TaskExecutor(2).map(_metric_unit, list(range(4)))
        names = [s.name for s in observer.tracer.spans()
                 if s.name == "test.obs.unit"]
        assert len(names) == 4

    def test_worker_exception_still_ships_metrics(self, observer):
        results = list(TaskExecutor(2).imap(_sometimes_boom, [0, 1, 2, 3],
                                            ordered=True))
        assert [r.error is not None for r in results] == \
            [False, True, False, True]
        # Counters from both successful and failing units arrive.
        assert observer.metrics.counter("test.obs.attempts").total() == 4

    def test_get_observer_is_process_global(self, observer):
        assert get_observer() is observer


def _sometimes_boom(x):
    from repro import obs

    obs.counter("test.obs.attempts").inc()
    if x % 2:
        raise ValueError(f"unit {x}")
    return x
