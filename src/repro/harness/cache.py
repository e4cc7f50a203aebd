"""The content-addressed store of the harness, and the build cache on it.

:class:`ContentStore` is the one persistent store: it owns the cache
root (``REPRO_CACHE_DIR``, ``REPRO_CACHE_DISABLE``), the sharded
``objects/<k[:2]>/<k><suffix>`` layout, the atomic publish, the rule
that an unreadable entry is a miss, and the counters.  Two codecs use
it: :class:`ArtifactCache` pickles builds under
``.repro-cache/objects/<k[:2]>/<k>.pkl``, and
:class:`repro.harness.incremental.OutcomeStore` keeps per-section
campaign outcomes as JSON under ``.repro-cache/outcomes/``.

Builds are pure functions of (MiniC source, build flavour,
:class:`~repro.core.ConstructionConfig`, compiler pipeline version), so a
:class:`CompileResult` can be cached under the SHA-256 of exactly those
inputs and reused by any process, in this run or a later one.
*Staleness* is impossible by construction: any change to the source,
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
from dataclasses import dataclass
from typing import Optional

from repro.compiler import CompileResult, compile_minic
from repro.core.construction import ConstructionConfig
from repro.harness.executor import ensure_deep_pickle
from repro.obs.context import get_observer

#: Stamp mixed into every cache key.  Bump when the compiler pipeline
#: changes in a way that affects build output for unchanged inputs.
PIPELINE_VERSION = "idem-pipeline-v3"  # v3: frames store their size

#: Default on-disk location, overridable via ``REPRO_CACHE_DIR``.
DEFAULT_CACHE_DIR = ".repro-cache"


def cache_root() -> str:
    """The root every store lives under: ``REPRO_CACHE_DIR``, by default
    :data:`DEFAULT_CACHE_DIR` in the working directory."""
    return os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)


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


#: Events counted for every store (``<counters>.<event>``, labeled by root).
CACHE_METRICS = ("hits", "misses", "stores", "corrupt")


@dataclass
class CacheStats:
    """Point-in-time counter view of one store (or a delta between two).

    The live counters themselves live on the :mod:`repro.obs` metrics
    registry (see :class:`ContentStore`); this dataclass is the
    read-side snapshot that reports and tests consume.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
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
        self.corrupt += other.corrupt

    def summary(self) -> str:
        text = f"{self.hits} hits, {self.misses} misses, {self.stores} stores"
        if self.lookups:
            text += f" (hit rate {self.hit_rate:.0%})"
        if self.corrupt:
            text += f", {self.corrupt} corrupt entries dropped"
        return text

    @classmethod
    def from_snapshot(cls, snapshot: dict, store: "ContentStore") -> "CacheStats":
        """Sum one store's counters out of a metrics snapshot (or delta)."""
        from repro.obs.metrics import counter_values

        stats = cls()
        for name in CACHE_METRICS:
            total = sum(
                value
                for labels, value in counter_values(
                    snapshot, f"{store.counters}.{name}"
                )
                if labels.get(store.counter_label) == store.root
            )
            setattr(stats, name, int(total))
        return stats


class ContentStore:
    """Content-addressed store of encoded values under one root.

    An entry lives at ``<root>/objects/<k[:2]>/<k><suffix>``.  A subclass
    supplies the codec (:meth:`encode`, :meth:`decode`) and the names of
    its counters, and the store owns the rest:

    - the store lives in :attr:`subdir` of the cache root, which
      defaults to :func:`cache_root`, and ``REPRO_CACHE_DISABLE`` turns
      every store off: a disabled store never touches disk;
    - :meth:`put` publishes through :meth:`_publish`, a same-directory
      temp file and an atomic ``os.replace``, so concurrent writers and
      killed processes never expose a torn entry;
    - an entry that cannot be read or decoded is a miss, counted as
      corrupt and unlinked, never an exception; one deleted between
      lookup and read is a plain miss.

    Accounting lives on the global :mod:`repro.obs` registry as
    ``<counters>.<event>{<counter_label>=<root>}``: every process, and
    every :class:`~repro.harness.executor.TaskExecutor` worker, whose
    deltas ship back to the parent, adds to one set of counters, and
    :attr:`stats` is a per-store view over them.
    """

    #: Directory under the cache root that holds this store ("" = the root).
    subdir = ""
    #: File suffix of an entry.
    suffix = ""
    #: Counter family and the label that carries the store's root.
    counters = ""
    counter_label = ""

    def __init__(self, root: Optional[str] = None, enabled: bool = True) -> None:
        if root is None:
            root = cache_root()
        self.root = os.path.join(root, self.subdir) if self.subdir else root
        self.enabled = enabled and not os.environ.get("REPRO_CACHE_DISABLE")

    def encode(self, value: object) -> bytes:
        """The bytes of an entry holding ``value``."""
        raise NotImplementedError

    def decode(self, data: bytes) -> object:
        """The value of an entry's bytes; raises on a bad entry."""
        raise NotImplementedError

    def _count(self, event: str) -> None:
        get_observer().counter(f"{self.counters}.{event}").inc(
            **{self.counter_label: self.root}
        )

    @property
    def stats(self) -> CacheStats:
        """Live counter view for this store (from the registry)."""
        return CacheStats.from_snapshot(get_observer().metrics.snapshot(), self)

    @property
    def objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    def path_for(self, key: str) -> str:
        return os.path.join(self.objects_dir, key[:2], key + self.suffix)

    def get(self, key: str) -> Optional[object]:
        """The value stored under ``key``, or None on a miss."""
        if not self.enabled:
            return None
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                value = self.decode(handle.read())
        except FileNotFoundError:
            self._count("misses")
            return None
        except Exception:
            # Truncated write from a killed process, disk corruption, or
            # an entry in a format this code no longer reads: drop it.
            self._count("misses")
            self._count("corrupt")
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self._count("hits")
        return value

    def put(self, key: str, value: object) -> None:
        """Publish ``value`` under ``key`` atomically."""
        if not self.enabled:
            return
        self._publish(self.path_for(key), self.encode(value))
        self._count("stores")

    def _publish(self, path: str, data: bytes) -> None:
        """Write ``path`` via a same-directory temp file and ``os.replace``."""
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    def entry_count(self) -> int:
        """How many entries the store holds on disk."""
        count = 0
        try:
            shards = os.listdir(self.objects_dir)
        except FileNotFoundError:
            return 0
        for shard in shards:
            try:
                names = os.listdir(os.path.join(self.objects_dir, shard))
            except NotADirectoryError:
                continue
            count += sum(1 for name in names if name.endswith(self.suffix))
        return count


class ArtifactCache(ContentStore):
    """The build cache: pickled artifacts, counted as ``cache.<event>``
    labeled ``cache=<root>``."""

    suffix = ".pkl"
    counters = "cache"
    counter_label = "cache"

    def encode(self, artifact: object) -> bytes:
        ensure_deep_pickle()
        return pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)

    def decode(self, data: bytes) -> object:
        ensure_deep_pickle()
        return pickle.loads(data)


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
