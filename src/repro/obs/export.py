"""Exporters: Chrome ``trace_event`` JSON, metrics dumps, stats tables.

Three output shapes:

- :func:`write_chrome_trace` — the span buffer as Chrome's JSON Object
  Format (``{"traceEvents": [...]}``), loadable in ``chrome://tracing``
  or https://ui.perfetto.dev.  Spans become complete ("X") events;
  instant markers become "i" events; per-pid metadata names the tracks.
- :func:`write_metrics_json` — a flat, schema-tagged dump of a
  :class:`~repro.obs.metrics.MetricsRegistry` snapshot.
- :func:`format_stats_table` — the human ``--stats`` rendering of a
  snapshot.

The ``validate_*`` functions re-read an emitted file and check its
schema; ``repro stats FILE`` (and the CI trace-validity step) are built
on them.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.obs.tracer import Span

#: Schema tag stamped into metrics dumps (bump on breaking layout change).
METRICS_SCHEMA = "repro.obs.metrics/1"

_VALID_TYPES = ("counter", "gauge", "histogram")


class ObsExportError(ValueError):
    """An emitted trace/metrics file failed schema validation."""


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------
def chrome_trace_events(spans: Sequence[Span]) -> List[dict]:
    """Spans → trace_event dicts (timestamps normalized per process).

    ``perf_counter_ns`` origins differ between processes, so each pid's
    events are rebased to that pid's earliest span.  Tracks from worker
    processes therefore all start near zero rather than at meaningless
    absolute offsets.
    """
    base_ns: Dict[int, int] = {}
    for span in spans:
        base = base_ns.get(span.pid)
        if base is None or span.start_ns < base:
            base_ns[span.pid] = span.start_ns

    events: List[dict] = []
    for pid in sorted(base_ns):
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": "repro" if len(base_ns) == 1 or pid == min(base_ns)
                     else f"repro worker {pid}"},
        })
    for span in spans:
        event = {
            "name": span.name,
            "cat": span.category,
            "ph": "i" if span.dur_ns == 0 else "X",
            "ts": (span.start_ns - base_ns[span.pid]) / 1000.0,
            "pid": span.pid,
            "tid": span.tid,
        }
        if event["ph"] == "X":
            event["dur"] = span.dur_ns / 1000.0
        else:
            event["s"] = "t"  # thread-scoped instant
        if span.attrs:
            event["args"] = {k: _jsonable(v) for k, v in span.attrs.items()}
        events.append(event)
    return events


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def write_chrome_trace(path: str, spans: Sequence[Span]) -> int:
    """Write the Chrome JSON Object Format file; returns the event count."""
    events = chrome_trace_events(spans)
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs"},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    return len(events)


def validate_trace_file(path: str) -> int:
    """Schema-check an emitted trace; returns its event count.

    Raises :class:`ObsExportError` on malformed JSON or events missing
    the fields Chrome/Perfetto require.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ObsExportError(f"{path}: unreadable trace ({exc})") from exc
    if not isinstance(payload, dict) or not isinstance(
        payload.get("traceEvents"), list
    ):
        raise ObsExportError(f"{path}: missing traceEvents list")
    for i, event in enumerate(payload["traceEvents"]):
        if not isinstance(event, dict):
            raise ObsExportError(f"{path}: event {i} is not an object")
        if not isinstance(event.get("name"), str) or "ph" not in event:
            raise ObsExportError(f"{path}: event {i} lacks name/ph")
        if event["ph"] == "M":
            continue
        for field in ("ts", "pid", "tid"):
            if not isinstance(event.get(field), (int, float)):
                raise ObsExportError(
                    f"{path}: event {i} ({event['name']!r}) lacks numeric {field}"
                )
        if event["ph"] == "X" and not isinstance(event.get("dur"), (int, float)):
            raise ObsExportError(
                f"{path}: complete event {i} ({event['name']!r}) lacks dur"
            )
    return len(payload["traceEvents"])


# ----------------------------------------------------------------------
# Metrics dump
# ----------------------------------------------------------------------
def write_metrics_json(path: str, snapshot: Dict[str, dict]) -> int:
    """Write a schema-tagged metrics dump; returns the instrument count."""
    payload = {"schema": METRICS_SCHEMA, "metrics": snapshot}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return len(snapshot)


def load_metrics_file(path: str) -> Dict[str, dict]:
    """Read and validate a metrics dump; returns the snapshot."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ObsExportError(f"{path}: unreadable metrics dump ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("schema") != METRICS_SCHEMA:
        raise ObsExportError(
            f"{path}: not a {METRICS_SCHEMA} dump "
            f"(schema={payload.get('schema')!r})"
            if isinstance(payload, dict)
            else f"{path}: not a metrics dump"
        )
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        raise ObsExportError(f"{path}: metrics section is not an object")
    for name, entry in metrics.items():
        if not isinstance(entry, dict) or entry.get("type") not in _VALID_TYPES:
            raise ObsExportError(f"{path}: metric {name!r} has invalid type")
        values = entry.get("values")
        if not isinstance(values, list):
            raise ObsExportError(f"{path}: metric {name!r} lacks a values list")
        for row in values:
            if not isinstance(row, dict) or not isinstance(row.get("labels"), dict):
                raise ObsExportError(f"{path}: metric {name!r} has a malformed row")
            if entry["type"] in ("counter", "gauge"):
                if not isinstance(row.get("value"), (int, float)):
                    raise ObsExportError(
                        f"{path}: metric {name!r} row lacks numeric value"
                    )
            else:
                if not isinstance(row.get("count"), int):
                    raise ObsExportError(
                        f"{path}: histogram {name!r} row lacks integer count"
                    )
    return metrics


def validate_metrics_file(path: str) -> int:
    """Schema-check a metrics dump; returns its instrument count."""
    return len(load_metrics_file(path))


# ----------------------------------------------------------------------
# Human table
# ----------------------------------------------------------------------
def _format_labels(labels: Dict[str, object]) -> str:
    if not labels:
        return "-"
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def _format_number(value: object) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.3f}"
    if value is None:
        return "-"
    return str(int(value))


def format_stats_table(snapshot: Dict[str, dict], prefix: str = "") -> str:
    """Render a snapshot as a plain-text table (the ``--stats`` view)."""
    headers = ["metric", "labels", "value", "count", "mean", "min", "max"]
    rows: List[List[str]] = []
    for name in sorted(snapshot):
        if prefix and not name.startswith(prefix):
            continue
        entry = snapshot[name]
        kind = entry.get("type")
        for row in entry.get("values", ()):
            labels = _format_labels(row.get("labels", {}))
            if kind in ("counter", "gauge"):
                rows.append([name, labels, _format_number(row.get("value")),
                             "", "", "", ""])
            else:
                count = row.get("count", 0)
                mean = (row.get("sum", 0.0) / count) if count else 0.0
                rows.append([
                    name, labels, "", str(count), f"{mean:.2f}",
                    _format_number(row.get("min")), _format_number(row.get("max")),
                ])
    if not rows:
        return "(no metrics recorded)"
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(
            cell.ljust(widths[i]) if i < 2 else cell.rjust(widths[i])
            for i, cell in enumerate(row)
        ))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# File summaries (the ``repro stats`` subcommand)
# ----------------------------------------------------------------------
def summarize_file(path: str) -> str:
    """Validate ``path`` as a trace or metrics dump and describe it.

    The file kind is sniffed from its JSON top level.  Raises
    :class:`ObsExportError` if the file is neither.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ObsExportError(f"{path}: unreadable ({exc})") from exc
    if isinstance(payload, dict) and "traceEvents" in payload:
        count = validate_trace_file(path)
        names = sorted({
            e.get("cat", "?") for e in payload["traceEvents"]
            if isinstance(e, dict) and e.get("ph") != "M"
        })
        return (
            f"{path}: valid Chrome trace, {count} events, "
            f"categories: {', '.join(names) if names else '(none)'}"
        )
    if isinstance(payload, dict) and "metrics" in payload:
        metrics = load_metrics_file(path)
        header = f"{path}: valid metrics dump, {len(metrics)} instruments"
        return header + "\n" + format_stats_table(metrics)
    raise ObsExportError(f"{path}: neither a Chrome trace nor a metrics dump")
