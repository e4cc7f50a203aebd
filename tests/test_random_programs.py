"""Randomized structured-program testing (hypothesis).

Programs come from :mod:`repro.fuzz.generator` — the same seeded
generator the ``repro fuzz`` campaign uses — so every counterexample
hypothesis shrinks to is reproducible from one integer seed (and can be
fed straight to ``repro.fuzz.reduce`` for further minimization).
Hypothesis contributes only the seed choice; the program shape is
entirely the generator's.

Checked properties (the strongest whole-pipeline ones we have):

1. interpreter == simulator for the original binary;
2. interpreter == simulator for the idempotent binary (construction and
   the constrained allocator preserve semantics);
3. the machine idempotence oracle accepts every idempotent build
   (enforced inside compile_minic already — a failure raises);
4. a fault injected anywhere recovers to the exact fault-free result.
"""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.compiler import compile_minic
from repro.frontend import compile_source
from repro.fuzz.generator import generate
from repro.interp import Interpreter
from repro.sim import Simulator
from repro.sim.faults import FaultPlan, run_with_fault

# Seeds index into the generator's full program space; hypothesis
# explores and shrinks over this one integer.
_SEEDS = st.integers(0, 2**32 - 1)


def _source(seed: int) -> str:
    return generate(seed).source


def sources():
    """Strategy over generator-produced MiniC sources (shared with other
    suites that want random whole programs)."""
    return _SEEDS.map(_source)


_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestRandomStructuredPrograms:
    @_SETTINGS
    @given(seed=_SEEDS)
    def test_differential_original(self, seed):
        source = _source(seed)
        expected = Interpreter(compile_source(source)).run("main")
        program = compile_minic(source, idempotent=False).program
        assert Simulator(program).run("main") == expected

    @_SETTINGS
    @given(seed=_SEEDS)
    def test_differential_idempotent(self, seed):
        source = _source(seed)
        expected = Interpreter(compile_source(source)).run("main")
        program = compile_minic(source, idempotent=True).program
        assert Simulator(program).run("main") == expected

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(seed=_SEEDS, fraction=st.floats(0.05, 0.95))
    # A fault that reaches a divisor before it is detected traps; the
    # fault model counts such a trial as crashed, not recovered.
    @example(seed=173, fraction=0.572265625)
    @example(seed=2_210_356_943, fraction=0.5)
    def test_fault_recovery_anywhere(self, seed, fraction):
        build = compile_minic(_source(seed), idempotent=True)
        clean = Simulator(build.program)
        reference = clean.run("main")
        target = max(1, int(clean.instructions * fraction))
        outcome = run_with_fault(build.program, FaultPlan(target))
        if outcome.crashed:
            assert not outcome.detected
        else:
            assert outcome.result == reference

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(seed=_SEEDS)
    def test_region_size_bound_preserves_semantics(self, seed):
        from repro.core import ConstructionConfig

        source = _source(seed)
        expected = Interpreter(compile_source(source)).run("main")
        config = ConstructionConfig(max_region_size=6)
        program = compile_minic(source, idempotent=True, config=config).program
        assert Simulator(program).run("main") == expected
