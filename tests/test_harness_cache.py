"""The content-addressed store: build-cache keys, and the store's safety
cases run over both record kinds it holds (pickled build artifacts and
JSON campaign section records)."""

import dataclasses
import os

import pytest

from repro.compiler import CompileResult
from repro.core import ConstructionConfig
from repro.harness.cache import (
    PIPELINE_VERSION,
    ArtifactCache,
    CacheStats,
    cache_key,
    cached_compile,
    config_fingerprint,
    set_default_cache,
)
from repro.harness.incremental import OutcomeStore, make_section_record
from repro.sim import Simulator

SOURCE = """
int a[4];
int main() {
  for (int i = 0; i < 10; i = i + 1) a[i % 4] = a[i % 4] + i;
  return a[0] + a[1] + a[2] + a[3];
}
"""


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(root=str(tmp_path / "cache"))


@pytest.fixture
def isolated_default(cache):
    previous = set_default_cache(cache)
    yield cache
    set_default_cache(previous)


def _altered(config: ConstructionConfig, field: dataclasses.Field) -> ConstructionConfig:
    """A copy of ``config`` with one field changed to a valid other value."""
    value = getattr(config, field.name)
    if isinstance(value, bool):
        changed = not value
    elif isinstance(value, int):
        changed = value + 1
    elif isinstance(value, str):
        changed = value + "-alt"
    elif value is None:
        changed = 7
    else:  # pragma: no cover - no such field today
        raise AssertionError(f"unhandled field type: {field.name}")
    return dataclasses.replace(config, **{field.name: changed})


class TestCacheKey:
    def test_identical_inputs_same_key(self):
        assert cache_key(SOURCE, idempotent=True) == cache_key(SOURCE, idempotent=True)

    def test_default_config_spellings_agree(self):
        assert cache_key(SOURCE, idempotent=True) == cache_key(
            SOURCE, idempotent=True, config=ConstructionConfig()
        )

    def test_every_config_field_invalidates(self):
        """Changing any ConstructionConfig field must change the key."""
        base = ConstructionConfig()
        base_key = cache_key(SOURCE, idempotent=True, config=base)
        for field in dataclasses.fields(ConstructionConfig):
            altered = _altered(base, field)
            altered_key = cache_key(SOURCE, idempotent=True, config=altered)
            assert altered_key != base_key, field.name

    def test_source_flavour_name_version_invalidate(self):
        base = cache_key(SOURCE, idempotent=True)
        assert cache_key(SOURCE + " ", idempotent=True) != base
        assert cache_key(SOURCE, idempotent=False) != base
        assert cache_key(SOURCE, idempotent=True, name="other") != base
        assert cache_key(
            SOURCE, idempotent=True, pipeline_version=PIPELINE_VERSION + ".next"
        ) != base

    def test_fingerprint_covers_every_field(self):
        text = config_fingerprint(None)
        for field in dataclasses.fields(ConstructionConfig):
            assert field.name in text


def _artifact(version):
    return {"entry": version, "blob": "x" * 512}


def _section(version):
    return make_section_record(
        "wl", "main", "idempotent", "value", 0, 7, 500, "main@b.0", "f" * 64,
        [[version, "crashed", 0, 0]],
    )


#: The two record kinds on the one store: (store class, record of a version).
RECORD_KINDS = {
    "artifact": (ArtifactCache, _artifact),
    "section": (OutcomeStore, _section),
}


def _key(slot=0):
    return cache_key(f"shared source {slot}", idempotent=True)


@pytest.fixture
def store(request, tmp_path):
    """A fresh store of the record kind the test class names."""
    store_class, _ = RECORD_KINDS[request.cls.kind]
    return store_class(root=str(tmp_path / "store"))


class _RecordKind:
    """A test class of one record kind (``kind``, a RECORD_KINDS key)."""

    kind = ""

    def record(self, version=0):
        return RECORD_KINDS[self.kind][1](version)


class _StoreCases(_RecordKind):
    """Lookup, corruption and publish cases every record kind passes."""

    def test_miss_then_hit_roundtrip(self, store):
        key = _key()
        assert store.get(key) is None
        store.put(key, self.record())
        assert store.get(key) == self.record()
        assert store.entry_count() == 1
        stats = store.stats
        assert (stats.hits, stats.misses, stats.stores, stats.corrupt) == (
            1, 1, 1, 0)

    def test_corrupted_entry_is_a_miss_not_a_crash(self, store):
        key = _key()
        store.put(key, self.record())
        with open(store.path_for(key), "wb") as handle:
            handle.write(b"\x00garbage, not a record")
        assert store.get(key) is None
        assert store.stats.corrupt == 1
        assert not os.path.exists(store.path_for(key))  # the bad entry went
        store.put(key, self.record())  # and a fresh write repopulates it
        assert store.get(key) == self.record()

    def test_truncated_entry_is_a_miss(self, store):
        key = _key()
        store.put(key, self.record())
        path = store.path_for(key)
        payload = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(payload[: len(payload) // 2])
        assert store.get(key) is None
        assert store.stats.corrupt == 1
        assert not os.path.exists(path)

    def test_no_temp_droppings(self, store):
        for version in range(2):
            store.put(_key(version), self.record(version))
        leftovers = [
            name
            for _, _, files in os.walk(store.root)
            for name in files
            if name.endswith(".tmp")
        ]
        assert leftovers == []
        assert store.entry_count() == 2

    def test_disabled_cache_never_touches_disk(self, tmp_path, monkeypatch):
        store_class, _ = RECORD_KINDS[self.kind]
        off = store_class(root=str(tmp_path / "off"), enabled=False)
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        env_off = store_class(root=str(tmp_path / "env-off"))
        for disabled in (off, env_off):
            disabled.put(_key(), self.record())
            assert disabled.get(_key()) is None
            assert disabled.entry_count() == 0
        assert os.listdir(tmp_path) == []


class TestStore(_StoreCases):
    kind = "artifact"

    def test_cached_compile_skips_recompile(self, cache):
        cached_compile(SOURCE, idempotent=True, cache=cache)
        stores_before = cache.stats.stores
        cached_compile(SOURCE, idempotent=True, cache=cache)
        assert cache.stats.stores == stores_before  # hit, no new artifact

    def test_config_change_misses(self, cache):
        cached_compile(SOURCE, idempotent=True, cache=cache)
        config = ConstructionConfig(max_region_size=4)
        cached_compile(SOURCE, idempotent=True, config=config, cache=cache)
        assert cache.stats.stores == 2  # second build was a genuine miss

    def test_wrong_type_entry_is_ignored_by_cached_compile(self, cache):
        key = cache_key(SOURCE, idempotent=True)
        cache.put(key, {"not": "a CompileResult"})
        result = cached_compile(SOURCE, idempotent=True, cache=cache)
        assert isinstance(result, CompileResult)


class TestSectionStore(_StoreCases):
    kind = "section"


class TestBuildPairIntegration:
    def test_build_pair_shares_disk_artifacts(self, isolated_default):
        from repro.experiments.common import build_pair, clear_build_memo

        clear_build_memo()
        try:
            first = build_pair("bzip2")
            second = build_pair("bzip2")
            assert first[0] is second[0]  # in-process identity via memo
            assert isolated_default.stats.stores == 2
            # A "new process" (fresh memo) pulls from disk instead of
            # recompiling.
            clear_build_memo()
            rebuilt = build_pair("bzip2")
            assert isolated_default.stats.hits >= 2
            assert Simulator(rebuilt[1].program).run("main") == Simulator(
                first[1].program
            ).run("main")
        finally:
            clear_build_memo()

    def test_prebuild_recompiles_only_the_missed_flavour(
        self, isolated_default
    ):
        """One truncated artifact: that flavour compiles and is stored
        again, and the flavour that hit is neither."""
        from repro.experiments.common import clear_build_memo, prebuild_pairs

        clear_build_memo()
        try:
            assert prebuild_pairs(["bzip2"], jobs=1) == 1
            victim = sorted(
                os.path.join(directory, name)
                for directory, _, names in os.walk(isolated_default.objects_dir)
                for name in names
            )[0]
            with open(victim, "r+b") as handle:
                handle.truncate(os.path.getsize(victim) // 2)
            clear_build_memo()
            before = isolated_default.stats
            assert prebuild_pairs(["bzip2"], jobs=1) == 1
            after = isolated_default.stats
            delta = CacheStats(**{
                name: getattr(after, name) - getattr(before, name)
                for name in ("hits", "misses", "stores", "corrupt")
            })
            assert delta.summary().startswith("1 hits, 1 misses, 1 stores")
            assert delta.corrupt == 1
        finally:
            clear_build_memo()


def _stress_worker(args):
    """One process of the concurrency stress: readers against writers.

    Every round reads one of eight shared keys.  A miss publishes the
    entry; a hit republishes it on some rounds and unlinks it on others,
    as dropping a corrupt entry does.  Returns (hits, misses, corrupt,
    failures): a lookup that raises or returns another value is a
    failure, and so is a corrupt read, since a publish or unlink racing
    a read must leave it a hit or a clean miss.
    """
    kind, root, worker, rounds = args
    store_class, make = RECORD_KINDS[kind]
    store = store_class(root=root)
    expected = [make(slot) for slot in range(8)]
    hits = misses = 0
    failures = []
    for i in range(rounds):
        slot = (i + worker) % 8
        key = _key(slot)
        try:
            value = store.get(key)
            if value is None:
                misses += 1
                store.put(key, expected[slot])
                continue
            hits += 1
            if value != expected[slot]:
                failures.append(f"worker {worker}: wrong value at {i}")
            if i % 3 == 0:
                store.put(key, expected[slot])
            elif i % 3 == 1:
                try:
                    os.unlink(store.path_for(key))
                except FileNotFoundError:
                    pass
        except Exception as exc:  # the contract under test: never raises
            failures.append(f"worker {worker} round {i}: "
                            f"{type(exc).__name__}: {exc}")
    return hits, misses, store.stats.corrupt, failures


class _ConcurrencyCases(_RecordKind):
    """Races every record kind survives: other writers and droppers."""

    def test_reads_racing_writers_are_hits_or_misses(self, tmp_path):
        from multiprocessing import get_context

        root = str(tmp_path / "shared-store")
        jobs = [(self.kind, root, worker, 60) for worker in range(4)]
        with get_context("spawn").Pool(4) as pool:
            outcomes = pool.map_async(_stress_worker, jobs).get(timeout=120)
        assert [f for *_, fs in outcomes for f in fs] == []
        assert sum(corrupt for _, _, corrupt, _ in outcomes) == 0
        # Both outcomes must actually occur for the race to be exercised.
        assert sum(hits for hits, *_ in outcomes) > 0
        assert sum(misses for _, misses, *_ in outcomes) > 0

    def test_read_of_entry_deleted_mid_lookup_is_a_miss(self, store):
        key = _key()
        store.put(key, self.record())
        os.unlink(store.path_for(key))  # another process dropped it
        assert store.get(key) is None
        assert (store.stats.misses, store.stats.corrupt) == (1, 0)

    def test_concurrent_identical_puts_last_writer_wins_atomically(self, store):
        key = _key()
        store.put(key, self.record(1))
        store.put(key, self.record(2))  # atomic replace, no torn state
        assert store.get(key) == self.record(2)


class TestConcurrentMultiprocess(_ConcurrencyCases):
    kind = "artifact"


class TestSectionConcurrency(_ConcurrencyCases):
    kind = "section"
