"""The differential / re-execution / multi-fault oracle stack."""

import pytest

from repro.core.construction import ConstructionConfig
from repro.fuzz.generator import generate
from repro.fuzz.oracle import (
    ORACLE_MULTI_FAULT,
    ORACLE_REEXEC,
    ORACLE_REFERENCE,
    _forced_points,
    check_source,
)

# A seed whose program the broken construction (first hitting-set cut
# silently dropped) miscompiles — found by scanning seeds 0..59; cheap
# (57 dynamic check points).  If GEN_VERSION bumps, re-scan.
BROKEN_SEED = 3

BROKEN_CONFIG = ConstructionConfig(verify=False, drop_hitting_set_cut=0)


class TestHealthyCompiler:
    @pytest.mark.parametrize("seed", range(5))
    def test_all_oracles_pass(self, seed):
        report = check_source(generate(seed).source, max_forced=8)
        assert report.ok, report.failures
        assert report.checkpoints > 0
        assert report.forced_runs > 0

    def test_exhaustive_covers_every_checkpoint(self):
        source = generate(3).source
        report = check_source(source, multi_fault=False)
        # One forced run per dynamic check point of the clean run.
        assert report.forced_runs == report.checkpoints

    def test_multi_fault_doubles_runs(self):
        source = generate(3).source
        single = check_source(source, multi_fault=False, max_forced=6)
        double = check_source(source, multi_fault=True, max_forced=6)
        assert double.forced_runs == 2 * single.forced_runs
        assert double.ok

    def test_trigger_past_end_is_benign(self):
        # _forced_points never emits occurrences >= checkpoints, but the
        # multi-fault mode's (k, k+1) second trigger can land past the
        # end of a run; a forced run that never fired must not fail.
        source = generate(0).source
        report = check_source(source, max_forced=4)
        assert report.ok, report.failures


class TestBrokenConstructionCaught:
    def test_reexec_oracle_catches_dropped_cut(self):
        """The dynamic oracle's reason to exist: a construction with a
        hitting-set cut removed passes both differential oracles (the
        fault-free run is still correct) but must fail re-execution."""
        source = generate(BROKEN_SEED).source
        report = check_source(
            source, config=BROKEN_CONFIG, verify=False, multi_fault=False
        )
        assert not report.ok
        assert report.failed_oracles == (ORACLE_REEXEC,)

    def test_static_verifier_catches_it_first_when_enabled(self):
        # With verification on, the hole never reaches the dynamic
        # oracles: compile_minic raises inside check_source and the
        # failure is attributed to the idempotent-build oracle.
        source = generate(BROKEN_SEED).source
        config = ConstructionConfig(drop_hitting_set_cut=0)
        report = check_source(source, config=config, multi_fault=False)
        assert not report.ok

    def test_multi_fault_flavour(self):
        source = generate(BROKEN_SEED).source
        report = check_source(
            source, config=BROKEN_CONFIG, verify=False, multi_fault=True
        )
        assert not report.ok
        assert ORACLE_REEXEC in report.failed_oracles or (
            ORACLE_MULTI_FAULT in report.failed_oracles
        )


class TestOracleMechanics:
    def test_reference_failure_on_invalid_source(self):
        report = check_source("int main( {")
        assert report.failed_oracles == (ORACLE_REFERENCE,)

    def test_forced_points_exhaustive(self):
        assert _forced_points(5, None) == [0, 1, 2, 3, 4]

    def test_forced_points_capped_even_spacing(self):
        points = _forced_points(100, 10)
        assert len(points) == 10
        assert points == sorted(set(points))
        assert points[0] == 0 and points[-1] < 100

    def test_forced_points_empty(self):
        assert _forced_points(0, None) == []
        assert _forced_points(0, 5) == []

    @pytest.mark.parametrize("max_forced", [0, -1])
    def test_forced_points_rejects_cap_below_one(self, max_forced):
        with pytest.raises(ValueError, match="max_forced must be >= 1"):
            _forced_points(5, max_forced)
