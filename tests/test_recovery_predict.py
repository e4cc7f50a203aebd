"""The static outcome predictor: profiles, probabilities, divergence.

The predictor's job is to be *checkable*: region profiles must agree
with the simulator's own accounting, probabilities must be coherent
(bounded, summing to one, ordered by hazard-window size), and the
compare/hunt drivers must join prediction and measurement on the same
region keys the injectors use for attribution.
"""

import pytest

import repro.harness.incremental as incremental
from repro.compiler import compile_minic
from repro.harness.incremental import OutcomeStore, set_default_store
from repro.recovery.backends import BACKEND_NAMES, get_backend
from repro.recovery.compare import (
    bench_payload,
    compare_workload,
    format_compare_report,
    hunt_divergence,
    measure_divergence,
    parse_backend_names,
    run_compare,
)
from repro.recovery.predict import (
    RegionComparison,
    compare_predictions,
    mean_absolute_error,
    predict_outcomes,
    profile_regions,
)
from repro.sim.faults import CampaignResult
from repro.sim.simulator import Simulator

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


@pytest.fixture(autouse=True, scope="module")
def private_outcome_store(tmp_path_factory):
    """The compare driver campaigns through the outcome store; keep this
    module's records in a store of its own."""
    previous = set_default_store(
        OutcomeStore(root=str(tmp_path_factory.mktemp("outcomes")))
    )
    yield
    set_default_store(previous)


@pytest.fixture(scope="module")
def profiled():
    build = compile_minic(KERNEL, idempotent=True)
    profiles, result, sim = profile_regions(build.program)
    return build, profiles, result, sim


class TestProfiles:
    def test_totals_match_simulator_accounting(self, profiled):
        """Every dynamic instruction is attributed to exactly one region."""
        _build, profiles, result, sim = profiled
        assert sum(p.instructions for p in profiles.values()) == sim.instructions
        reference = Simulator(compile_minic(KERNEL, idempotent=True).program)
        assert result == reference.run("main")

    def test_feature_counts_are_consistent(self, profiled):
        _build, profiles, _result, _sim = profiled
        assert len(profiles) > 1  # the loop kernel has several regions
        for profile in profiles.values():
            assert profile.entries > 0
            assert 0 <= profile.eligible <= profile.instructions
            assert 0 <= profile.branches <= profile.instructions
            assert profile.mean_length == pytest.approx(
                profile.instructions / profile.entries
            )

    def test_mean_check_gap_degenerate(self):
        from repro.recovery.predict import RegionProfile

        no_checks = RegionProfile(key="r", instructions=10)
        assert no_checks.mean_check_gap == 10.0
        empty = RegionProfile(key="r")
        assert empty.mean_length == 0.0


class TestPredictions:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("latency", [0, 4, 1_000_000])
    def test_probabilities_are_coherent(self, profiled, backend, latency):
        _build, profiles, _result, _sim = profiled
        prediction = predict_outcomes(profiles, backend, latency=latency)
        for region in prediction.regions.values():
            for p in (region.p_recovered, region.p_wrong, region.p_undetected):
                assert 0.0 <= p <= 1.0
            assert region.p_recovered + region.p_wrong + region.p_undetected \
                == pytest.approx(1.0)
        assert 0.0 <= prediction.p_recovered <= 1.0
        assert sum(r.weight for r in prediction.regions.values()) \
            == pytest.approx(1.0)

    def test_zero_latency_predicts_full_recovery(self, profiled):
        _build, profiles, _result, _sim = profiled
        for backend in BACKEND_NAMES:
            prediction = predict_outcomes(profiles, backend, latency=0)
            assert prediction.p_recovered == pytest.approx(1.0)
            assert prediction.p_wrong == 0.0

    def test_tmr_never_predicts_wrong(self, profiled):
        """The vote corrects in place: latency only feeds the tail
        (undetected) hazard, never the wrong-result one."""
        _build, profiles, _result, _sim = profiled
        prediction = predict_outcomes(profiles, "tmr", latency=50)
        assert prediction.p_wrong == 0.0
        for region in prediction.regions.values():
            assert region.p_wrong == 0.0

    def test_latency_monotonically_hurts_idempotence(self, profiled):
        _build, profiles, _result, _sim = profiled
        rates = [
            predict_outcomes(profiles, "idempotent", latency=latency).p_recovered
            for latency in (0, 2, 8, 32)
        ]
        assert rates == sorted(rates, reverse=True)

    def test_checkpoint_interval_widens_the_window(self, profiled):
        """Frequent checkpoints are the hazard under latency: a snapshot
        taken while the fault is latent captures corrupt state, so a
        tighter interval predicts no fewer wrong results."""
        _build, profiles, _result, _sim = profiled
        tight = predict_outcomes(
            profiles, "checkpoint_log", latency=8, interval=1
        )
        loose = predict_outcomes(
            profiles, "checkpoint_log", latency=8, interval=64
        )
        assert tight.p_wrong >= loose.p_wrong


class TestComparison:
    def test_join_on_region_keys(self, profiled):
        _build, profiles, _result, _sim = profiled
        prediction = predict_outcomes(profiles, "idempotent", latency=0)
        key = next(iter(prediction.regions))
        per_region = {
            key: CampaignResult(trials=4, injected=4, recovered_correctly=3),
            "ghost": CampaignResult(),  # zero injected: not comparable
        }
        rows = compare_predictions(prediction, per_region)
        assert [row.key for row in rows] == [key]
        assert rows[0].measured == pytest.approx(0.75)
        assert rows[0].error == pytest.approx(abs(rows[0].predicted - 0.75))

    def test_unprofiled_region_falls_back_to_program_level(self, profiled):
        _build, profiles, _result, _sim = profiled
        prediction = predict_outcomes(profiles, "idempotent", latency=0)
        per_region = {"?": CampaignResult(trials=2, injected=2,
                                          recovered_correctly=2)}
        rows = compare_predictions(prediction, per_region)
        assert rows[0].predicted == pytest.approx(prediction.p_recovered)

    def test_mae(self):
        rows = [
            RegionComparison(key="a", injected=4, predicted=1.0, measured=0.5),
            RegionComparison(key="b", injected=4, predicted=0.8, measured=0.9),
        ]
        assert mean_absolute_error(rows) == pytest.approx(0.3)
        assert mean_absolute_error([]) is None


def _no_injection(*args, **kwargs):
    raise AssertionError("a warm store re-injected a section")


class TestCompareDriver:
    def test_parse_backend_names(self):
        assert parse_backend_names(None) == BACKEND_NAMES
        assert parse_backend_names(["tmr"]) == ("tmr",)
        with pytest.raises(ValueError, match="valid: idempotent"):
            parse_backend_names(["tmr", "bogus"])

    @pytest.fixture(scope="class")
    def report(self):
        return run_compare(
            names=["bzip2"], trials=6, seed=7, latency=4,
        )

    def test_workload_report_structure(self, report):
        assert [wl.workload for wl in report.workloads] == ["bzip2"]
        wl = report.workloads[0]
        assert [b.backend for b in wl.backends] == list(BACKEND_NAMES)
        assert wl.checkpoint_boundaries > 0
        assert wl.checkpoint_words > 0
        for backend in wl.backends:
            assert backend.campaign.injected > 0
            assert backend.measured_rate is not None

    def test_idempotent_row_matches_campaign_seed_derivation(self, report):
        """The compare driver's idempotent campaign is bit-identical to
        a `repro campaign` unit at the same parameters."""
        import dataclasses

        from repro.experiments.common import build_pair
        from repro.harness.executor import derive_seed
        from repro.sim.faults import fault_campaign
        from repro.workloads import get_workload

        workload = get_workload("bzip2")
        _original, idempotent = build_pair("bzip2")
        sim = Simulator(idempotent.program)
        reference = sim.run(workload.entry)
        expected = fault_campaign(
            idempotent.program, reference, list(sim.output), trials=6,
            func=workload.entry, seed=derive_seed(7, "bzip2", "idempotent"),
            detection_latency=4,
        )
        measured = report.workloads[0].backends[0]
        assert measured.backend == "idempotent"
        assert dataclasses.asdict(measured.campaign) \
            == dataclasses.asdict(expected)

    def test_report_renders_and_flags(self, report):
        text = format_compare_report(report)
        assert "predicted vs measured" in text
        assert "static checkpoint sets" in text
        assert "predictor MAE" in text
        for name in BACKEND_NAMES:
            assert name in text

    def test_bench_payload_validates(self, report, tmp_path):
        from repro.bench.recovery import (
            load_recovery_bench_file,
            write_recovery_bench_json,
        )

        payload = bench_payload(report, label="test", version="0")
        path = str(tmp_path / "BENCH_recovery.json")
        write_recovery_bench_json(path, payload)
        loaded = load_recovery_bench_file(path)
        assert [row["name"] for row in loaded["backends"]] \
            == list(BACKEND_NAMES)
        for row in loaded["backends"]:
            assert row["injected"] == (
                row["recovered"] + row["wrong"]
                + row["crashed"] + row["undetected"]
            )
        assert loaded["predictor"]["regions"] == len(report.region_rows())

    def test_store_backed_rows_equal_in_memory_campaigns(
        self, tmp_path, monkeypatch
    ):
        """Every backend's campaign composes from the outcome store; cold
        and warm, its buckets and per-region join equal
        ``backend.campaign`` at the same seed."""
        import dataclasses

        from repro.experiments.common import build_pair
        from repro.harness.executor import derive_seed
        from repro.workloads import get_workload

        workload = get_workload("bzip2")
        original, idempotent = build_pair("bzip2")
        sim = Simulator(idempotent.program)
        reference = sim.run(workload.entry)
        expected = {}
        for name in BACKEND_NAMES:
            backend = get_backend(name)
            per_region = {}
            campaign = backend.campaign(
                original.program, idempotent.program, reference,
                list(sim.output), trials=6, func=workload.entry,
                seed=derive_seed(7, "bzip2", backend.seed_key),
                detection_latency=4, per_region=per_region,
            )
            expected[name] = (campaign, per_region)

        store = OutcomeStore(root=str(tmp_path / "store"))
        monkeypatch.setattr(incremental, "_default_store", store)
        for leg in ("cold", "warm"):
            report = compare_workload("bzip2", trials=6, seed=7, latency=4)
            assert [row.backend for row in report.backends] \
                == list(BACKEND_NAMES)
            for row in report.backends:
                campaign, per_region = expected[row.backend]
                assert dataclasses.asdict(row.campaign) \
                    == dataclasses.asdict(campaign), (leg, row.backend)
                assert row.regions == compare_predictions(
                    row.prediction, per_region
                ), (leg, row.backend)
            # The warm leg must compose every section from the store.
            assert store.entry_count() > 0
            monkeypatch.setattr(
                incremental, "run_section_trials", _no_injection
            )

    def test_single_backend_subset(self):
        report = run_compare(names=["bzip2"], backends=["tmr"],
                             trials=4, seed=3)
        assert report.backends == ("tmr",)
        rows = report.workloads[0].backends
        assert len(rows) == 1 and rows[0].backend == "tmr"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown recovery backend"):
            run_compare(names=["bzip2"], backends=["nope"], trials=2)


class TestDivergenceHunt:
    def test_measure_divergence_bounded(self):
        value = measure_divergence(KERNEL, trials=6, latency=4)
        assert 0.0 <= value <= 1.0

    def test_trivial_program_has_no_divergence_evidence(self):
        # No eligible injection site reached in two instructions.
        assert measure_divergence(
            "int main() { return 0; }", trials=2
        ) == 0.0

    def test_hunt_is_reproducible_and_writes_reproducer(self, tmp_path):
        first = hunt_divergence(
            2, hunt_seed=1, trials=4, latency=8, threshold=0.0,
            out_dir=str(tmp_path),
        )
        second = hunt_divergence(
            2, hunt_seed=1, trials=4, latency=8, threshold=0.0,
            out_dir=str(tmp_path),
        )
        assert first.programs == 2
        assert first.worst_seed == second.worst_seed
        assert first.worst_divergence == second.worst_divergence
        # threshold=0.0 forces the reduction path even on tame programs.
        assert first.reduced_path is not None
        content = open(first.reduced_path).read()
        assert "predictor divergence reproducer" in content
        assert f"gen_seed={first.worst_seed}" in content

    def test_hunt_below_threshold_writes_nothing(self, tmp_path):
        result = hunt_divergence(
            1, hunt_seed=2, trials=4, latency=0, threshold=2.0,
            out_dir=str(tmp_path),
        )
        assert result.reduced_path is None
        assert list(tmp_path.iterdir()) == []
