"""Fault-injection edge cases: end-of-program faults, detection latency
outliving the run, faults that make the program trap, and
empty-campaign accounting."""

import math

import pytest

from repro.compiler import compile_minic
from repro.harness.campaign import campaign_target
from repro.harness.executor import derive_seed
from repro.interp import ExecutionError, run_module
from repro.recovery.backends import BACKEND_NAMES, get_backend
from repro.sim import SimulationError, Simulator
from repro.sim.faults import (
    CampaignResult,
    FaultInjector,
    FaultPlan,
    campaign_span,
    classify_outcome,
    fault_campaign,
    format_rate,
    run_planned_trial,
    run_with_fault,
)

SOURCE = """
int g[4];
int main() {
  int acc = 1;
  for (int i = 0; i < 6; i = i + 1) {
    g[i % 4] = g[i % 4] + i;
    acc = acc * 3 + g[(i + 1) % 4];
  }
  return acc + g[0] + g[1] + g[2] + g[3];
}
"""


def _build():
    build = compile_minic(SOURCE, idempotent=True)
    clean = Simulator(build.program)
    reference = clean.run("main")
    return build.program, reference, list(clean.output), clean.instructions


class TestEndOfProgramFaults:
    def test_fault_targeting_final_dynamic_instruction(self):
        program, reference, ref_output, span = _build()
        # Targets at and just before the last dynamic instruction: the
        # injector must stay well-behaved whether or not a fault can
        # still land (the final ``ret`` has no destination register).
        for target in (span - 1, span):
            outcome = run_with_fault(program, FaultPlan(target))
            assert not outcome.crashed
            if not outcome.injected:
                assert not outcome.detected and not outcome.recovered
                assert outcome.result == reference
            else:
                # Never "recovered" without detection having fired.
                assert outcome.detected or not outcome.recovered

    def test_fault_past_program_end_never_injects(self):
        program, reference, ref_output, span = _build()
        outcome = run_with_fault(program, FaultPlan(span + 100))
        assert not outcome.injected
        assert not outcome.detected
        assert outcome.result == reference


class TestDetectionLatencyPastEnd:
    def test_undetected_fault_is_not_recovered(self):
        program, reference, ref_output, span = _build()
        plan = FaultPlan(
            target_instruction=max(1, span // 2),
            detection_latency=10**9,  # no check point will ever qualify
        )
        outcome = run_with_fault(program, plan)
        assert outcome.injected
        assert not outcome.detected
        assert not outcome.recovered

    def test_campaign_buckets_undetected_separately(self):
        program, reference, ref_output, _ = _build()
        result = fault_campaign(
            program, reference, ref_output,
            trials=20, detection_latency=10**9,
        )
        assert result.detected == 0
        assert result.recovered_correctly == 0
        # Every injected fault lands in exactly one remaining bucket.
        assert (
            result.crashed + result.wrong_result + result.undetected
            == result.injected
        )


# A corrupted ``(i & 1) + 1`` is a zero divisor in 50 of the ~900
# value-fault targets; campaign seed 3 draws four of them in 40 trials.
DIVIDE = """
int main() {
  int s = 0;
  for (int i = 0; i < 50; i = i + 1) {
    s = s + 1000 / ((i & 1) + 1);
  }
  return s;
}
"""

FLOAT_DIVIDE = """
float g;
int main() {
  print_float(1.0 / g);
  return 1;
}
"""

# A fault that lets ``n`` grow overflows ``f`` to infinity, which has no
# integer for the cast.
OVERFLOW_CAST = """
float scale(float f, int n) {
  int i = 0;
  while (i < n) { f = f * 1.0e100; i = i + 1; }
  return f;
}
int main() {
  int n = 2;
  float f = scale(1.0e100, n);
  int y = (int) f;
  print_int(y % 1000);
  return 0;
}
"""


def _partitioned(result):
    return (
        result.recovered_correctly + result.wrong_result
        + result.crashed + result.undetected
    ) == result.injected


class TestTrappingFaults:
    """A fault that makes the program trap crashes its trial, not the
    campaign."""

    @pytest.mark.parametrize("latency", (0, 4))
    @pytest.mark.parametrize("label", ("original",) + BACKEND_NAMES)
    def test_zero_divisor_crashes_the_trial(self, label, latency):
        original = compile_minic(DIVIDE, idempotent=False).program
        idempotent = compile_minic(DIVIDE, idempotent=True).program
        clean = Simulator(idempotent)
        reference = clean.run("main")
        backend = None if label == "original" else get_backend(label)
        program, factory = campaign_target(original, idempotent, label, backend)
        result = fault_campaign(
            program, reference, list(clean.output), trials=40, seed=3,
            detection_latency=latency, injector_factory=factory,
        )
        assert result.injected == 40
        assert _partitioned(result)
        if label == "tmr":
            assert result.crashed == 0  # the vote masks the bad divisor
        else:
            assert result.crashed > 0

    def test_math_domain_error_crashes_the_trial(self):
        """``repro campaign blackscholes --trials 7 --latency 4 --flavours
        idempotent``: trial 6 hands ``sqrt``/``log`` a corrupted argument."""
        from repro.experiments.common import build_pair

        original, idempotent = build_pair("blackscholes")
        clean = Simulator(idempotent.program)
        reference = clean.run("main")
        seed = derive_seed(12345, "blackscholes", "idempotent")
        for name in BACKEND_NAMES:
            backend = get_backend(name)
            program = backend.campaign_program(
                original.program, idempotent.program
            )
            outcome = run_planned_trial(
                program, seed, 6, campaign_span(program),
                detection_latency=4, injector_factory=backend.make_injector,
            )
            result = CampaignResult()
            result.count(
                classify_outcome(outcome, reference, list(clean.output)),
                outcome.detected,
            )
            assert _partitioned(result), name
            if name == "idempotent":
                assert result.crashed == 1

    @pytest.mark.parametrize("name, kind, latency", [
        ("idempotent", "value", 4),
        ("checkpoint_log", "value", 4),
        ("checkpoint_log", "control", 12),
    ])
    def test_infinite_float_to_int_crashes_the_trial(self, name, kind, latency):
        original = compile_minic(OVERFLOW_CAST, idempotent=False).program
        idempotent = compile_minic(OVERFLOW_CAST, idempotent=True).program
        clean = Simulator(idempotent)
        reference = clean.run("main")
        result = get_backend(name).campaign(
            original, idempotent, reference, list(clean.output), trials=300,
            kind=kind, seed=3, detection_latency=latency,
        )
        assert result.crashed >= 1
        assert _partitioned(result)

    def test_float_division_by_zero_traps_like_the_interpreter(self):
        build = compile_minic(FLOAT_DIVIDE, idempotent=True)
        with pytest.raises(ExecutionError, match="float division by zero"):
            run_module(build.module, "main")
        with pytest.raises(SimulationError, match="float division by zero"):
            Simulator(build.program).run("main")

    def test_simulator_bugs_still_propagate(self):
        class Broken(FaultInjector):
            def roll_back(self, sim):
                raise KeyError("not a trap")

        program, _reference, _output, span = _build()
        with pytest.raises(KeyError):
            run_with_fault(program, FaultPlan(span // 2), injector_factory=Broken)


class TestEmptyCampaignAccounting:
    def test_recovery_rate_nan_when_nothing_injected(self):
        result = CampaignResult(trials=5)
        assert math.isnan(result.recovery_rate)
        assert format_rate(result) == "n/a"

    def test_zero_trial_campaign(self):
        program, reference, ref_output, _ = _build()
        result = fault_campaign(program, reference, ref_output, trials=0)
        assert result.injected == 0
        assert math.isnan(result.recovery_rate)

    def test_merge_preserves_all_buckets(self):
        left = CampaignResult(trials=2, injected=2, detected=1,
                              recovered_correctly=1, undetected=1)
        right = CampaignResult(trials=3, injected=2, detected=2,
                               recovered_correctly=1, wrong_result=1)
        left.merge(right)
        assert left.trials == 5
        assert left.injected == 4
        assert left.undetected == 1
        assert left.recovered_correctly == 2
        assert left.recovery_rate == 0.5

    def test_merge_of_empty_shards_stays_nan(self):
        left = CampaignResult(trials=1)
        left.merge(CampaignResult(trials=1))
        assert math.isnan(left.recovery_rate)
        assert format_rate(left) == "n/a"
