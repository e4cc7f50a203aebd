"""Persistent content-addressed cache for compilation artifacts.

Builds are pure functions of (MiniC source, build flavour,
:class:`~repro.core.ConstructionConfig`, compiler pipeline version), so a
:class:`CompileResult` can be cached under the SHA-256 of exactly those
inputs and reused by any process, in this run or a later one.  Artifacts
are pickled under ``.repro-cache/objects/<k[:2]>/<k>.pkl``.

Safety properties:

- *Concurrent writers* never expose a torn entry: artifacts are written
  to a same-directory temp file and published with an atomic
  ``os.replace``.
- *Corrupted entries* (truncated file, stale pickle protocol, garbage)
  are treated as misses, deleted, and recompiled — never an exception.
- *Staleness* is impossible by construction: any change to the source,
  the config, or :data:`PIPELINE_VERSION` changes the key.  Bump
  :data:`PIPELINE_VERSION` whenever a compiler change alters build
  output for identical inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Optional

from repro.compiler import CompileResult, compile_minic
from repro.core.construction import ConstructionConfig
from repro.harness.executor import ensure_deep_pickle
from repro.obs.context import get_observer

#: Stamp mixed into every cache key.  Bump when the compiler pipeline
#: changes in a way that affects build output for unchanged inputs.
PIPELINE_VERSION = "idem-pipeline-v2"  # v2: deterministic regalloc order

#: Default on-disk location, overridable via ``REPRO_CACHE_DIR``.
DEFAULT_CACHE_DIR = ".repro-cache"


def config_fingerprint(config: Optional[ConstructionConfig]) -> str:
    """Canonical text encoding of every ConstructionConfig field.

    Field order is sorted by name so the fingerprint does not depend on
    declaration order; ``None`` (default config) is normalised to the
    fingerprint of ``ConstructionConfig()`` so both spellings share
    cache entries.
    """
    if config is None:
        config = ConstructionConfig()
    items = sorted(dataclasses.asdict(config).items())
    return ";".join(f"{name}={value!r}" for name, value in items)


def cache_key(
    source: str,
    idempotent: bool,
    config: Optional[ConstructionConfig] = None,
    name: str = "minic",
    pipeline_version: str = PIPELINE_VERSION,
) -> str:
    """SHA-256 content address of one build."""
    h = hashlib.sha256()
    for part in (
        pipeline_version,
        name,
        "idempotent" if idempotent else "original",
        config_fingerprint(config),
        source,
    ):
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


#: Metric names backing every cache counter (label: ``cache=<root>``).
CACHE_METRICS = ("hits", "misses", "stores", "evictions", "corrupt")


@dataclass
class CacheStats:
    """Point-in-time counter view of one cache (or a delta between two).

    The live counters themselves live on the :mod:`repro.obs` metrics
    registry as ``cache.<name>{cache=<root>}``; this dataclass is the
    read-side snapshot that reports and tests consume.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.evictions += other.evictions
        self.corrupt += other.corrupt

    def summary(self) -> str:
        text = (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.stores} stores, {self.evictions} evictions"
        )
        if self.lookups:
            text += f" (hit rate {self.hit_rate:.0%})"
        if self.corrupt:
            text += f", {self.corrupt} corrupt entries dropped"
        return text

    @classmethod
    def from_snapshot(
        cls, snapshot: dict, cache_label: Optional[str] = None
    ) -> "CacheStats":
        """Sum ``cache.*`` counters out of a metrics snapshot (or delta).

        ``cache_label`` restricts to one cache root; None sums them all.
        """
        from repro.obs.metrics import counter_values

        stats = cls()
        for name in CACHE_METRICS:
            total = sum(
                value
                for labels, value in counter_values(snapshot, f"cache.{name}")
                if cache_label is None or labels.get("cache") == cache_label
            )
            setattr(stats, name, int(total))
        return stats


class ArtifactCache:
    """Content-addressed pickle store with hit/miss/evict accounting.

    ``max_entries`` bounds the object store: inserting past the bound
    evicts least-recently-used entries (by file mtime, which ``get``
    refreshes on every hit).

    Accounting lives on the global :mod:`repro.obs` metrics registry
    (``cache.hits`` etc., labeled ``cache=<root>``): every process — and
    every :class:`~repro.harness.executor.TaskExecutor` worker, whose
    deltas ship back to the parent — contributes to one set of counters,
    and :attr:`stats` is a per-instance view over them.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        enabled: bool = True,
        max_entries: Optional[int] = None,
    ) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        self.root = root
        self.enabled = enabled and not os.environ.get("REPRO_CACHE_DISABLE")
        self.max_entries = max_entries

    @property
    def obs_label(self) -> str:
        """Label value distinguishing this cache's counters (its root)."""
        return self.root

    def _count(self, name: str, amount: int = 1) -> None:
        get_observer().counter(f"cache.{name}").inc(amount, cache=self.root)

    @property
    def stats(self) -> CacheStats:
        """Live counter view for this cache root (from the registry)."""
        return CacheStats.from_snapshot(
            get_observer().metrics.snapshot(), cache_label=self.root
        )

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    def path_for(self, key: str) -> str:
        return os.path.join(self.objects_dir, key[:2], f"{key}.pkl")

    # ------------------------------------------------------------------
    # Store operations
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[object]:
        """Load an artifact, or None on miss; corruption is a miss."""
        if not self.enabled:
            return None
        path = self.path_for(key)
        ensure_deep_pickle()
        try:
            with open(path, "rb") as handle:
                artifact = pickle.load(handle)
        except FileNotFoundError:
            self._count("misses")
            return None
        except Exception:
            # Truncated write from a killed process, disk corruption,
            # or an artifact from an incompatible interpreter: drop it.
            self._count("misses")
            self._count("corrupt")
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self._count("hits")
        try:
            os.utime(path)  # refresh LRU clock
        except OSError:
            pass
        return artifact

    def put(self, key: str, artifact: object) -> None:
        """Publish an artifact atomically (write-to-temp + rename)."""
        if not self.enabled:
            return
        path = self.path_for(key)
        ensure_deep_pickle()
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(artifact, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        self._count("stores")
        if self.max_entries is not None:
            self._evict_over(self.max_entries)

    def contains(self, key: str) -> bool:
        return self.enabled and os.path.exists(self.path_for(key))

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _entries(self):
        entries = []
        try:
            shards = os.listdir(self.objects_dir)
        except FileNotFoundError:
            return entries
        for shard in shards:
            shard_dir = os.path.join(self.objects_dir, shard)
            try:
                names = os.listdir(shard_dir)
            except NotADirectoryError:
                continue
            for filename in names:
                if filename.endswith(".pkl"):
                    entries.append(os.path.join(shard_dir, filename))
        return entries

    def entry_count(self) -> int:
        return len(self._entries())

    def size_bytes(self) -> int:
        total = 0
        for path in self._entries():
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        return total

    def _evict_over(self, limit: int) -> None:
        entries = self._entries()
        if len(entries) <= limit:
            return

        def mtime(path: str) -> float:
            try:
                return os.path.getmtime(path)
            except OSError:
                return 0.0

        entries.sort(key=mtime)
        for path in entries[: len(entries) - limit]:
            try:
                os.unlink(path)
                self._count("evictions")
            except OSError:
                pass

    def clear(self) -> int:
        """Drop every object; returns how many were removed."""
        removed = 0
        for path in self._entries():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed


# ----------------------------------------------------------------------
# Process-wide default cache
# ----------------------------------------------------------------------
_default_cache: Optional[ArtifactCache] = None


def default_cache() -> ArtifactCache:
    """The process-wide cache (created on first use)."""
    global _default_cache
    if _default_cache is None:
        _default_cache = ArtifactCache()
    return _default_cache


def set_default_cache(cache: Optional[ArtifactCache]) -> Optional[ArtifactCache]:
    """Swap the process-wide cache (None resets to lazy default).

    Returns the previous cache so callers (tests, the CLI's
    ``--no-cache``) can restore it.
    """
    global _default_cache
    previous = _default_cache
    _default_cache = cache
    return previous


def cached_compile(
    source: str,
    idempotent: bool,
    config: Optional[ConstructionConfig] = None,
    name: str = "minic",
    cache: Optional[ArtifactCache] = None,
) -> CompileResult:
    """``compile_minic`` through the artifact cache."""
    if cache is None:
        cache = default_cache()
    key = cache_key(source, idempotent=idempotent, config=config, name=name)
    artifact = cache.get(key)
    if isinstance(artifact, CompileResult):
        return artifact
    result = compile_minic(source, idempotent=idempotent, config=config,
                           name=name)
    cache.put(key, result)
    return result
