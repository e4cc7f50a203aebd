"""``BENCH_recovery.json`` — the recovery-zoo benchmark schema.

Where ``repro.bench/1`` dumps record *compiler phase* wall-times, a
``repro.recovery.bench/1`` dump records the Fig. 12 trade-off as
measured by ``repro recovery compare``: per-backend dynamic overhead
(geomean vs the DMR baseline) against the fault-campaign outcome
buckets, plus the static predictor's mean absolute error over the
per-region predicted-vs-measured comparison.  ``repro stats FILE``
validates and summarizes these like every other observability artifact.
"""

from __future__ import annotations

import json
import platform
from typing import Dict, List, Optional

from repro.bench.runner import BenchError

#: Schema tag stamped into recovery bench dumps (bump on layout change).
RECOVERY_BENCH_SCHEMA = "repro.recovery.bench/1"

#: Required integer bucket counters of each backend row.
_BUCKET_FIELDS = ("trials", "injected", "recovered", "wrong", "crashed",
                  "undetected")

#: Required fields of the ``predictor`` section.
_PREDICTOR_FIELDS = ("mae", "regions", "flagged", "threshold")


def recovery_bench_payload(
    label: str,
    version: str,
    seed: int,
    trials: int,
    latency: int,
    kind: str,
    threshold: float,
    workloads: List[str],
    backends: List[Dict[str, object]],
    predictor: Dict[str, object],
) -> dict:
    """Assemble a schema-complete recovery bench dump.

    Each ``backends`` row carries a backend name, its geomean fault-free
    ``overhead`` vs DMR, the campaign bucket totals, the measured and
    predicted recovery rates (``measured_rate`` is ``None`` when nothing
    was injected — the NaN path of ``CampaignResult.recovery_rate``),
    and the per-region ``mae`` (``None`` with no comparable regions).
    """
    rows = []
    for backend in backends:
        row = {
            "name": str(backend["name"]),
            "overhead": round(float(backend["overhead"]), 6),
            "predicted_rate": round(float(backend["predicted_rate"]), 6),
            "measured_rate": (
                None if backend["measured_rate"] is None
                else round(float(backend["measured_rate"]), 6)
            ),
            "mae": (
                None if backend["mae"] is None
                else round(float(backend["mae"]), 6)
            ),
        }
        for name in _BUCKET_FIELDS:
            row[name] = int(backend[name])
        rows.append(row)
    return {
        "schema": RECOVERY_BENCH_SCHEMA,
        "label": label,
        "version": version,
        "seed": int(seed),
        "trials": int(trials),
        "latency": int(latency),
        "kind": str(kind),
        "threshold": float(threshold),
        "workloads": [str(name) for name in workloads],
        "backends": rows,
        "predictor": {
            "mae": (
                None if predictor["mae"] is None
                else round(float(predictor["mae"]), 6)
            ),
            "regions": int(predictor["regions"]),
            "flagged": int(predictor["flagged"]),
            "threshold": float(predictor["threshold"]),
        },
        "env": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }


def write_recovery_bench_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_recovery_bench_file(path: str) -> dict:
    """Read and schema-validate a recovery bench dump; returns the payload."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"{path}: unreadable recovery bench dump ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("schema") != RECOVERY_BENCH_SCHEMA:
        schema = payload.get("schema") if isinstance(payload, dict) else None
        raise BenchError(
            f"{path}: not a {RECOVERY_BENCH_SCHEMA} dump (schema={schema!r})"
        )
    for field in ("label", "version", "kind"):
        if not isinstance(payload.get(field), str):
            raise BenchError(f"{path}: missing string {field!r}")
    for field in ("seed", "trials", "latency"):
        if not isinstance(payload.get(field), int):
            raise BenchError(f"{path}: missing integer {field!r}")
    if not isinstance(payload.get("threshold"), (int, float)):
        raise BenchError(f"{path}: missing numeric 'threshold'")
    workloads = payload.get("workloads")
    if not isinstance(workloads, list) or not all(
        isinstance(name, str) for name in workloads
    ):
        raise BenchError(f"{path}: missing workloads list")
    backends = payload.get("backends")
    if not isinstance(backends, list) or not backends:
        raise BenchError(f"{path}: missing non-empty backends list")
    for row in backends:
        if not isinstance(row, dict) or not isinstance(row.get("name"), str):
            raise BenchError(f"{path}: backend row lacks a name")
        name = row["name"]
        for field in ("overhead", "predicted_rate"):
            if not isinstance(row.get(field), (int, float)):
                raise BenchError(
                    f"{path}: backend {name!r} lacks numeric {field!r}"
                )
        for field in ("measured_rate", "mae"):
            value = row.get(field, "absent")
            if value is not None and not isinstance(value, (int, float)):
                raise BenchError(
                    f"{path}: backend {name!r} {field!r} must be numeric or null"
                )
        for field in _BUCKET_FIELDS:
            if not isinstance(row.get(field), int):
                raise BenchError(
                    f"{path}: backend {name!r} lacks integer {field!r}"
                )
    predictor = payload.get("predictor")
    if not isinstance(predictor, dict):
        raise BenchError(f"{path}: missing predictor section")
    for field in _PREDICTOR_FIELDS:
        if field not in predictor:
            raise BenchError(f"{path}: predictor lacks {field!r}")
    mae = predictor["mae"]
    if mae is not None and not isinstance(mae, (int, float)):
        raise BenchError(f"{path}: predictor mae must be numeric or null")
    for field in ("regions", "flagged"):
        if not isinstance(predictor.get(field), int):
            raise BenchError(f"{path}: predictor lacks integer {field!r}")
    return payload


def validate_recovery_bench_file(path: str) -> int:
    """Schema-check a recovery bench dump; returns its backend count."""
    return len(load_recovery_bench_file(path)["backends"])


def _rate(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.0%}"


def summarize_recovery_bench(payload: dict) -> str:
    """Human rendering of a recovery bench dump (``repro stats`` view)."""
    predictor = payload["predictor"]
    lines = [
        f"label: {payload['label']}  version: {payload['version']}"
        f"  seed: {payload['seed']}  trials: {payload['trials']}/backend"
        f"  kind: {payload['kind']}  latency: {payload['latency']}",
        f"  workloads  {', '.join(payload['workloads'])}",
    ]
    for row in payload["backends"]:
        lines.append(
            f"  {row['name']:<15s} overhead {row['overhead']:+7.1%}   "
            f"recovered {row['recovered']}/{row['injected']} "
            f"(wrong {row['wrong']}, crashed {row['crashed']}, "
            f"undetected {row['undetected']})   "
            f"measured {_rate(row['measured_rate'])} "
            f"vs predicted {row['predicted_rate']:.0%}"
        )
    mae = predictor["mae"]
    lines.append(
        "  predictor  "
        + (
            "MAE n/a (no injected regions)"
            if mae is None
            else f"MAE {mae:.3f} over {predictor['regions']} regions "
            f"({predictor['flagged']} flagged at "
            f"threshold {predictor['threshold']:.2f})"
        )
    )
    return "\n".join(lines)
