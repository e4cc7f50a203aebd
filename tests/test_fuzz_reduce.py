"""Delta-debugging reducer: minimality, signature preservation,
determinism."""

import pytest

from repro.fuzz.generator import Leaf, ProgramSpec, generate, render
from repro.fuzz.reduce import (
    failure_predicate,
    reduce_program,
    reduce_spec,
    spec_weight,
)

# See tests/test_fuzz_oracle.py: a seed miscompiled by the
# ``broken_construction`` fixture, caught by the re-execution oracle.
BROKEN_SEED = 3


def _broken_predicate():
    return failure_predicate(("reexec",), multi_fault=False)


@pytest.mark.usefixtures("broken_construction")
class TestReduceKnownFailure:
    def test_shrinks_and_still_fails_same_oracle(self):
        predicate = _broken_predicate()
        program = generate(BROKEN_SEED)
        result = reduce_program(program, predicate)
        # No larger than the input, and the witness survives.
        assert spec_weight(result.spec) <= spec_weight(program.spec)
        assert len(result.source) <= len(program.source)
        assert predicate(result.source)
        assert result.steps >= 1

    def test_deterministic(self):
        predicate = _broken_predicate()
        first = reduce_program(generate(BROKEN_SEED), predicate)
        second = reduce_program(generate(BROKEN_SEED), predicate)
        assert first.source == second.source
        assert first.steps == second.steps
        assert first.tests == second.tests

    def test_result_is_local_minimum_for_removal(self):
        # Dropping any single top-level statement from the reduced spec
        # must break the failure (otherwise the reducer missed a step).
        predicate = _broken_predicate()
        result = reduce_program(generate(BROKEN_SEED), predicate)
        for index in range(len(result.spec.body)):
            import copy

            candidate = copy.deepcopy(result.spec)
            del candidate.body[index]
            assert not predicate(render(candidate))


class TestReduceMechanics:
    def test_rejects_non_failing_input(self):
        with pytest.raises(ValueError):
            reduce_program(generate(0), lambda source: False)

    def test_syntactic_predicate(self):
        # A predicate on the text alone: keep programs containing "^".
        spec = generate(BROKEN_SEED).spec
        if "^" not in render(spec):  # pragma: no cover - seed-dependent
            pytest.skip("seed produced no xor")
        result = reduce_spec(spec, lambda source: "^" in source)
        assert "^" in result.source
        assert spec_weight(result.spec) <= spec_weight(spec)

    def test_predicate_exceptions_reject_candidate(self):
        # Candidates that explode the predicate are rejected, not fatal.
        spec = ProgramSpec(
            n_globals=8, scalars=[], helpers=[],
            body=[Leaf("acc = acc + 1;"), Leaf("acc = acc * 3;")],
        )
        calls = {"n": 0}

        def predicate(source):
            calls["n"] += 1
            if calls["n"] == 1:
                return True  # the entry check
            raise RuntimeError("boom")

        result = reduce_spec(spec, predicate)
        # Nothing could be accepted after the entry check.
        assert render(result.spec) == render(spec)

    def test_weight_counts_structure_and_trips(self):
        flat = ProgramSpec(
            n_globals=8, scalars=[], helpers=[],
            body=[Leaf("acc = acc + 1;")], outer_trips=2,
        )
        assert spec_weight(flat) == 3  # one leaf + outer_trips
