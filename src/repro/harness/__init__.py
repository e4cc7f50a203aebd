"""repro.harness — campaign orchestration shared by every driver.

The harness is the layer between "compile one program" and "regenerate
the paper": it makes whole-evaluation runs cheap and restartable.

- :mod:`repro.harness.cache` — the one persistent content-addressed
  store (``ContentStore``: root, atomic publish, corruption-is-a-miss,
  counters) and the build cache on it: :class:`ArtifactCache` pickles
  builds keyed on SHA-256 of MiniC source,
  :class:`~repro.core.ConstructionConfig` fields, and a pipeline version
  stamp, so builds are shared across processes *and* across runs.  The
  campaign outcome store (:mod:`repro.harness.incremental`) is the same
  store with a JSON codec.
- :mod:`repro.harness.executor` — :class:`TaskExecutor`, a process-pool
  sharder with per-task timing and inline fallback that runs each unit
  once (a failed unit comes back as ``unit-error`` or ``worker-lost``),
  plus :func:`derive_seed`, the spawn-key-style deterministic seed
  derivation that keeps sharded campaigns bit-identical to serial ones.
- :mod:`repro.harness.campaign` — resumable campaigns: every finished
  work unit becomes a JSON-lines row in a :class:`RunManifest`, so
  re-running a killed or failed campaign executes only the units that
  are not done — the harness's one recovery path.  (Imported on demand
  as a submodule; it pulls in the simulator stack.)
- :mod:`repro.harness.report` — :class:`Telemetry`, the wall-time /
  per-phase / cache-effectiveness summary every entry point prints.
"""

from repro.harness.cache import (
    PIPELINE_VERSION,
    ArtifactCache,
    CacheStats,
    cache_key,
    cached_compile,
    default_cache,
    set_default_cache,
)
from repro.harness.executor import (
    UNIT_ERROR,
    WORKER_LOST,
    PermanentUnitError,
    TaskExecutor,
    TaskResult,
    UnitsFailed,
    derive_seed,
)
from repro.harness.report import Telemetry

__all__ = [
    "PIPELINE_VERSION",
    "ArtifactCache",
    "CacheStats",
    "PermanentUnitError",
    "TaskExecutor",
    "TaskResult",
    "Telemetry",
    "UNIT_ERROR",
    "UnitsFailed",
    "WORKER_LOST",
    "cache_key",
    "cached_compile",
    "default_cache",
    "derive_seed",
    "set_default_cache",
]
