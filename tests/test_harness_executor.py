"""TaskExecutor sharding and deterministic seed derivation."""

import time

import pytest

from repro.harness.executor import TaskExecutor, TaskResult, derive_seed


def square(x):
    return x * x


def boom(x):
    raise ValueError(f"bad unit {x}")


def slow_identity(x):
    time.sleep(0.01)
    return x


def unpicklable(x):
    return lambda: x  # result cannot cross the pool's pickle transport


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(12345, "trial", 7) == derive_seed(12345, "trial", 7)

    def test_path_sensitivity(self):
        seeds = {
            derive_seed(12345),
            derive_seed(12345, "trial", 0),
            derive_seed(12345, "trial", 1),
            derive_seed(12345, "other", 0),
            derive_seed(54321, "trial", 0),
            derive_seed(12345, "trial", "0"),  # type-distinct from int 0
        }
        assert len(seeds) == 6

    def test_range(self):
        for i in range(100):
            seed = derive_seed(0, i)
            assert 0 <= seed < 2**63

    def test_concatenation_is_not_ambiguous(self):
        assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")


class TestInline:
    def test_jobs_one_runs_inline_in_order(self):
        results = TaskExecutor(1).map(square, [1, 2, 3])
        assert [r.value for r in results] == [1, 4, 9]
        assert [r.key for r in results] == [1, 2, 3]
        assert all(r.ok and r.seconds >= 0 for r in results)

    def test_explicit_keys(self):
        results = TaskExecutor(1).map(square, [2], keys=["two"])
        assert results[0].key == "two"

    def test_key_item_length_mismatch(self):
        with pytest.raises(ValueError):
            TaskExecutor(1).map(square, [1, 2], keys=["only-one"])

    def test_error_capture(self):
        results = list(TaskExecutor(1).imap(boom, [1], ordered=True))
        assert not results[0].ok
        assert "bad unit 1" in results[0].error

    def test_error_reraise(self):
        with pytest.raises(RuntimeError, match="bad unit"):
            TaskExecutor(1).map(boom, [1])


class TestParallel:
    def test_map_preserves_item_order(self):
        results = TaskExecutor(2).map(square, list(range(8)))
        assert [r.value for r in results] == [x * x for x in range(8)]

    def test_imap_unordered_yields_everything(self):
        seen = {r.value for r in TaskExecutor(2).imap(slow_identity, list(range(6)))}
        assert seen == set(range(6))

    def test_worker_errors_are_per_unit(self):
        results = list(TaskExecutor(2).imap(boom, [1, 2], ordered=True))
        assert all(not r.ok for r in results)
        assert all("bad unit" in r.error for r in results)

    def test_single_item_runs_inline(self):
        executor = TaskExecutor(4)
        results = executor.map(square, [3])
        assert results[0].value == 9
        assert not executor.degraded

    def test_pool_that_cannot_start_runs_inline(self, monkeypatch):
        import repro.harness.executor as executor_module

        def no_pool(*args, **kwargs):
            raise OSError("no /dev/shm")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", no_pool)
        executor = TaskExecutor(2)
        results = executor.map(square, [1, 2, 3])
        assert [r.value for r in results] == [1, 4, 9]
        assert executor.degraded

    def test_pool_level_failure_keeps_unit_keys(self):
        """Result transport failing (unpicklable return value) is a
        pool-level error, yet every failure stays attributed to its
        submitted key — never a `None` key row."""
        from repro.harness.executor import WORKER_LOST

        results = list(TaskExecutor(2).imap(unpicklable, ["a", "b"],
                                            ordered=True))
        assert {r.key for r in results} == {"a", "b"}
        assert all(not r.ok for r in results)
        assert all(r.category == WORKER_LOST for r in results)
