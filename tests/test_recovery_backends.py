"""The recovery backend zoo: bit-identity, bucket arithmetic, checkpoints.

The contract under test is three-fold: the ``idempotent`` backend is the
pre-zoo fault-campaign path behind the pluggable interface (bit-identical
results at identical parameters), every backend accounts for each
injected fault in exactly one bucket (including ``undetected``), and the
static checkpoint machinery agrees with the region decomposition it is
derived from.
"""

import dataclasses
import math

import pytest

from repro.compiler import compile_minic
from repro.recovery.backends import (
    BACKEND_NAMES,
    BACKEND_TYPES,
    CheckpointLogBackend,
    IdempotentBackend,
    TMRBackend,
    get_backend,
)
from repro.recovery.checkpoint import (
    checkpoint_plan,
    mean_checkpoint_words,
    module_checkpoint_plans,
)
from repro.core.regions import RegionDecomposition, boundary_live_sets
from repro.recovery.schemes import SCHEME_DMR, compare_schemes
from repro.sim.faults import (
    FAULT_CONTROL,
    CampaignResult,
    campaign_span,
    classify_outcome,
    fault_campaign,
    format_rate,
    run_planned_trial,
)
from repro.sim.simulator import Simulator

# State-mutating kernel: in-place histogram writes give the campaigns
# something to corrupt and the undo log something to unwind.
KERNEL = """
int hist[8];
int main() {
  int seed = 5;
  int acc = 0;
  for (int i = 0; i < 40; i = i + 1) {
    seed = (seed * 1103515245 + 12345) % 2147483648;
    int b = (seed >> 8) % 8;
    if (b < 0) b = b + 8;
    hist[b] = hist[b] + 1;
    acc = (acc * 31 + hist[b]) % 1000003;
  }
  return acc;
}
"""


@pytest.fixture(scope="module")
def builds():
    original = compile_minic(KERNEL, idempotent=False)
    idempotent = compile_minic(KERNEL, idempotent=True)
    sim = Simulator(idempotent.program)
    reference = sim.run("main")
    return original, idempotent, reference, list(sim.output)


def _campaign(builds, backend, **over):
    original, idempotent, reference, output = builds
    kwargs = dict(trials=12, seed=99)
    kwargs.update(over)
    return backend.campaign(
        original.program, idempotent.program, reference, output, **kwargs
    )


def _partitioned(builds, backend, shards, seed, **over):
    """``backend``'s campaign run trial by trial over ``shards`` (index
    ranges), the way per-region sections run it."""
    original, idempotent, reference, output = builds
    program = backend.campaign_program(original.program, idempotent.program)
    span = campaign_span(program)
    result = CampaignResult()
    for shard in shards:
        for index in shard:
            outcome = run_planned_trial(
                program, seed, index, span,
                injector_factory=backend.make_injector, **over,
            )
            result.count(
                classify_outcome(outcome, reference, output), outcome.detected
            )
    return result


class TestRegistry:
    def test_names_cover_all_types_in_report_order(self):
        assert BACKEND_NAMES == ("idempotent", "checkpoint_log", "tmr")
        assert tuple(cls.name for cls in BACKEND_TYPES) == BACKEND_NAMES

    def test_get_backend_resolves_each(self):
        assert isinstance(get_backend("idempotent"), IdempotentBackend)
        assert isinstance(get_backend("tmr"), TMRBackend)
        assert isinstance(get_backend("checkpoint_log"), CheckpointLogBackend)

    def test_unknown_backend_lists_valid_choices(self):
        with pytest.raises(ValueError) as info:
            get_backend("raid5")
        message = str(info.value)
        assert "raid5" in message
        for name in BACKEND_NAMES:
            assert name in message

    def test_idempotent_seed_key_is_the_legacy_flavour_key(self):
        """The bit-identity contract hangs off this string."""
        assert IdempotentBackend.seed_key == "idempotent"
        assert IdempotentBackend.flavour == "idempotent"


class TestIdempotentBitIdentity:
    def test_campaign_matches_legacy_fault_campaign(self, builds):
        """The acceptance criterion: the idempotent backend IS the old
        code path — same program, same injector, same seeds."""
        original, idempotent, reference, output = builds
        legacy = fault_campaign(
            idempotent.program, reference, output, trials=12, seed=99
        )
        zoo = _campaign(builds, get_backend("idempotent"))
        assert dataclasses.asdict(zoo) == dataclasses.asdict(legacy)

    def test_matches_under_latency_control_and_sharding(self, builds):
        original, idempotent, reference, output = builds
        params = dict(kind=FAULT_CONTROL, detection_latency=6)
        legacy = fault_campaign(
            idempotent.program, reference, output, trials=9, seed=5, **params,
        )
        backend = get_backend("idempotent")
        zoo = _campaign(builds, backend, trials=9, seed=5, **params)
        assert dataclasses.asdict(zoo) == dataclasses.asdict(legacy)
        sharded = _partitioned(
            builds, backend, (range(3, 9), range(0, 3)), seed=5, **params,
        )
        assert dataclasses.asdict(sharded) == dataclasses.asdict(legacy)

    def test_campaign_program_is_the_idempotent_build(self, builds):
        original, idempotent, _reference, _output = builds
        backend = get_backend("idempotent")
        assert backend.campaign_program(
            original.program, idempotent.program
        ) is idempotent.program


class TestBucketArithmetic:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_buckets_partition_injected(self, builds, name):
        """Every injected fault lands in exactly one of the four
        disjoint outcome buckets, for every backend."""
        result = _campaign(builds, get_backend(name), detection_latency=4)
        assert result.injected > 0
        assert (
            result.recovered_correctly + result.wrong_result
            + result.crashed + result.undetected
        ) == result.injected

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_merge_across_shards_equals_serial(self, builds, name):
        backend = get_backend(name)
        serial = _campaign(builds, backend, trials=8, seed=31)
        merged = CampaignResult()
        for shard in (range(4, 8), range(0, 4)):
            merged.merge(_partitioned(builds, backend, [shard], seed=31))
        assert dataclasses.asdict(merged) == dataclasses.asdict(serial)

    def test_empty_campaign_rate_is_nan_and_formats_na(self, builds):
        for name in BACKEND_NAMES:
            result = _campaign(builds, get_backend(name), trials=0)
            assert result.injected == 0
            assert math.isnan(result.recovery_rate)
            assert format_rate(result) == "n/a"

    def test_huge_latency_fills_the_undetected_bucket(self, builds):
        """Latency past program end: the fault never reaches a check
        point, so it is neither recovered nor reported recovered."""
        result = _campaign(
            builds, get_backend("idempotent"), detection_latency=10_000_000,
        )
        assert result.injected > 0
        assert result.detected == 0
        assert result.recovered_correctly == 0
        assert (
            result.undetected + result.wrong_result + result.crashed
        ) == result.injected

    def test_tmr_huge_latency_is_undetected_not_recovered(self, builds):
        """TMR never corrupts state, so a fault that outlives every
        check point leaves a correct result — but nothing recovered it,
        and the buckets must say so."""
        result = _campaign(
            builds, get_backend("tmr"), detection_latency=10_000_000,
        )
        assert result.injected > 0
        assert result.undetected == result.injected
        assert result.recovered_correctly == 0
        assert result.wrong_result == 0


class TestTMR:
    def test_corrects_in_place_everything_recovered(self, builds):
        """Single-fault TMR: the vote masks the bad lane, so state is
        never corrupted and recovery re-executes nothing."""
        result = _campaign(builds, get_backend("tmr"), trials=16)
        assert result.injected > 0
        assert result.recovered_correctly == result.injected
        assert result.wrong_result == 0 and result.crashed == 0

    def test_zero_reexecution_cost(self, builds):
        """The vote supplies the correct value: detection charges no
        rolled-back instructions, unlike rp re-execution."""
        from repro.sim.faults import run_with_fault, trial_plan

        original, _idempotent, reference, _output = builds
        backend = get_backend("tmr")
        probe = Simulator(original.program)
        probe.run("main")
        recovered = 0
        for index in range(8):
            plan = trial_plan(99, index, probe.instructions)
            outcome = run_with_fault(
                original.program, plan,
                injector_factory=backend.make_injector,
            )
            if not outcome.injected:
                continue
            assert outcome.recovery_instructions == 0
            assert outcome.result == reference
            recovered += 1
        assert recovered > 0

    def test_control_faults_are_outvoted_too(self, builds):
        result = _campaign(
            builds, get_backend("tmr"), kind=FAULT_CONTROL, trials=10,
        )
        assert result.injected > 0
        assert result.wrong_result == 0

    def test_overhead_is_the_most_expensive(self, builds):
        """Fig. 12 ordering on this kernel: the x3 issue cost tops both
        alternatives."""
        original, idempotent, _reference, _output = builds
        runs = compare_schemes(original.program, idempotent.program)
        overheads = {
            name: runs[get_backend(name).scheme].overhead_vs(runs[SCHEME_DMR])
            for name in BACKEND_NAMES
        }
        assert overheads["tmr"] > overheads["idempotent"]
        assert overheads["tmr"] > overheads["checkpoint_log"]


class TestCheckpointLog:
    def test_recovers_everything_at_zero_latency(self, builds):
        result = _campaign(builds, get_backend("checkpoint_log"), trials=16)
        assert result.injected > 0
        assert result.recovered_correctly == result.injected

    def test_detection_latency_degrades_recovery(self, builds):
        """The structural failure mode: checkpoints taken while a fault
        is latent snapshot corrupt state, so raising the latency can
        only lose faults, never gain them."""
        prompt = _campaign(
            builds, get_backend("checkpoint_log"), trials=20, seed=11,
        )
        slow = _campaign(
            builds, get_backend("checkpoint_log"), trials=20, seed=11,
            detection_latency=40,
        )
        assert prompt.injected == slow.injected > 0
        assert slow.recovered_correctly <= prompt.recovered_correctly

    def test_campaigns_the_instrumented_original(self, builds):
        """The scheme pays for store logging: its campaign binary is
        bigger than the plain original (the Fig. 11 4-op sequence)."""
        original, idempotent, _reference, _output = builds
        program = get_backend("checkpoint_log").campaign_program(
            original.program, idempotent.program
        )
        assert program is not original.program

        def size(prog):
            return sum(
                len(block.instructions)
                for mfunc in prog.functions.values()
                for block in mfunc.blocks
            )

        assert size(program) > size(original.program)

    def test_interval_is_configurable(self, builds):
        backend = CheckpointLogBackend(interval=2)
        result = _campaign(builds, backend, trials=8)
        assert result.injected > 0
        assert (
            result.recovered_correctly + result.wrong_result
            + result.crashed + result.undetected
        ) == result.injected


class TestPerRegionAttribution:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_per_region_sums_to_campaign_totals(self, builds, name):
        per_region = {}
        campaign = _campaign(
            builds, get_backend(name), detection_latency=4,
            per_region=per_region,
        )
        total = CampaignResult()
        for result in per_region.values():
            total.merge(result)
        assert total.injected == campaign.injected > 0
        assert total.recovered_correctly == campaign.recovered_correctly
        assert total.wrong_result == campaign.wrong_result
        assert total.undetected == campaign.undetected


class TestCheckpointPlans:
    def test_boundary_live_sets_match_decomposition(self, builds):
        _original, idempotent, _reference, _output = builds
        func = idempotent.module.functions["main"]
        sets = boundary_live_sets(func)
        assert len(sets) == len(RegionDecomposition(func).headers())
        assert len(sets) > 0
        for (_block, _index), live in sets:
            assert isinstance(live, set)

    def test_checkpoint_plan_sizes(self, builds):
        _original, idempotent, _reference, _output = builds
        func = idempotent.module.functions["main"]
        plan = checkpoint_plan(func)
        assert plan.function == "main"
        assert plan.boundaries == len(boundary_live_sets(func))
        assert plan.total_words == sum(plan.sizes)
        assert plan.max_words == max(plan.sizes)
        assert plan.mean_words == pytest.approx(
            plan.total_words / plan.boundaries
        )

    def test_module_plans_and_mean_words(self, builds):
        _original, idempotent, _reference, _output = builds
        plans = module_checkpoint_plans(idempotent.module)
        assert set(plans) == set(idempotent.module.functions)
        mean = mean_checkpoint_words(plans)
        total = sum(plan.total_words for plan in plans.values())
        boundaries = sum(plan.boundaries for plan in plans.values())
        assert mean == pytest.approx(total / boundaries)

    def test_empty_plan_is_zero_not_nan(self):
        from repro.recovery.checkpoint import CheckpointPlan

        empty = CheckpointPlan(function="f")
        assert empty.mean_words == 0.0 and empty.max_words == 0
        assert mean_checkpoint_words({"f": empty}) == 0.0
