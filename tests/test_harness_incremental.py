"""Incremental campaigns: sections, the outcome store, and composition.

The load-bearing property under test is *bit identity*: a campaign
composed from per-region section records must equal the monolithic
:func:`repro.sim.faults.fault_campaign` (or ``backend.campaign``) at the
same parameters — cold, warm, after a top-up, and after a
shape-preserving source edit.
"""

import dataclasses
import json
import os

import pytest

from repro.compiler import compile_minic
from repro.harness.cache import ArtifactCache, set_default_cache
from repro.harness.campaign import (
    CampaignRunner,
    FaultCampaignSummary,
    RunManifest,
    UnitRecord,
    format_campaign_report,
    format_section_accounting,
    format_stale_report,
    run_fault_campaign,
)
from repro.harness.incremental import (
    SECTION_CACHED,
    SECTION_NEW,
    SECTION_TOPUP,
    STORE_SCHEMA,
    OutcomeStore,
    SectionStatus,
    compose_campaign,
    function_fingerprint,
    incremental_campaign,
    make_section_record,
    merge_section_rows,
    plan_sections,
    program_fingerprint,
    region_owner,
    section_identity,
    section_key,
    trace_eligibility,
)
from repro.recovery.backends import BACKEND_NAMES, get_backend
from repro.recovery.predict import measured_region_results
from repro.sim import Simulator
from repro.sim.faults import (
    FAULT_CONTROL,
    FAULT_VALUE,
    CampaignResult,
    fault_campaign,
    record_golden_run,
    run_planned_trial,
)

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


@pytest.fixture
def isolated_cache(tmp_path):
    previous = set_default_cache(ArtifactCache(root=str(tmp_path / "cache")))
    yield
    set_default_cache(previous)


@pytest.fixture
def store(tmp_path):
    return OutcomeStore(root=str(tmp_path / "store"))


@pytest.fixture
def kernel_pair():
    original = compile_minic(KERNEL, idempotent=False)
    idempotent = compile_minic(KERNEL, idempotent=True)
    reference_sim = Simulator(idempotent.program)
    reference = reference_sim.run("main")
    return original, idempotent, reference, list(reference_sim.output)


def _inline(pair, store, trials, **kwargs):
    original, idempotent, reference, reference_output = pair
    return incremental_campaign(
        original.program, idempotent.program, reference, reference_output,
        trials=trials, name="kernel", store=store, **kwargs,
    )


class TestFingerprints:
    def test_stable_across_recompiles(self):
        a = compile_minic(KERNEL, idempotent=True).program
        b = compile_minic(KERNEL, idempotent=True).program
        assert function_fingerprint(a, "main") == function_fingerprint(b, "main")
        assert program_fingerprint(a) == program_fingerprint(b)

    def test_edit_changes_only_the_edited_function(self):
        from repro.bench.campaign_cache import (
            BASE_SOURCE,
            EDITED_FUNCTION,
            EDITED_SOURCE,
        )

        base = compile_minic(BASE_SOURCE, idempotent=True).program
        edited = compile_minic(EDITED_SOURCE, idempotent=True).program
        changed = [
            name for name in base.functions
            if function_fingerprint(base, name)
            != function_fingerprint(edited, name)
        ]
        assert changed == [EDITED_FUNCTION]
        assert program_fingerprint(base) != program_fingerprint(edited)

    def test_region_owner(self):
        assert region_owner("?", "main") == "main"
        assert region_owner("mix_b@entry.0", "main") == "mix_b"


class TestTrialAssignment:
    def test_partitions_every_trial_exactly_once(self, kernel_pair):
        _, idempotent, _, _ = kernel_pair
        golden = record_golden_run(idempotent.program)
        for kind in (FAULT_VALUE, FAULT_CONTROL):
            assignment = trace_eligibility(golden, seed=9, trials=20, kind=kind)
            seen = list(assignment.uninjected)
            for indices in assignment.regions.values():
                seen.extend(indices)
            assert sorted(seen) == list(range(20))

    def test_assignment_matches_injector_landing(self, kernel_pair):
        """The whole design rests on this: the predicted landing region
        of every trial equals where the injector actually fires (the
        per-region fault_campaign counts agree with the assignment)."""
        _, idempotent, reference, reference_output = kernel_pair
        golden = record_golden_run(idempotent.program)
        assignment = trace_eligibility(golden, seed=4, trials=16, kind=FAULT_VALUE)
        per_region = {}
        fault_campaign(
            idempotent.program, reference, reference_output, trials=16,
            seed=4, kind=FAULT_VALUE, per_region=per_region,
        )
        predicted = {r: len(ix) for r, ix in assignment.regions.items()}
        measured = {r: c.injected for r, c in per_region.items() if c.injected}
        assert predicted == measured

    def test_targets_past_the_last_site_are_uninjected(self):
        """Control faults aimed past the last branch inject nothing, and
        the assignment files them so before they run."""
        source = (
            "int main() {\n  int acc = 0;\n"
            "  for (int i = 0; i < 8; i = i + 1) {\n    acc = acc + i;\n  }\n"
            + "  acc = acc * 5 + 7;\n" * 200
            + "  return acc;\n}\n"
        )
        program = compile_minic(source, idempotent=True).program
        golden = record_golden_run(program)
        assignment = trace_eligibility(golden, seed=1, trials=12, kind=FAULT_CONTROL)
        assert assignment.uninjected and assignment.regions
        total = len(assignment.uninjected) + sum(
            len(ix) for ix in assignment.regions.values()
        )
        assert total == 12
        for index in range(12):
            outcome = run_planned_trial(
                program, 1, index, golden.span, kind=FAULT_CONTROL
            )
            assert outcome.injected == (index not in assignment.uninjected)


class TestOutcomeStore:
    def _record(self, **overrides):
        record = make_section_record(
            "wl", "main", "idempotent", "value", 0, 7, 500, "main@b.0",
            "f" * 64, [[0, "recovered_correctly", 1, 2], [3, "crashed", 0, 0]],
        )
        record.update(overrides)
        return record

    def test_put_get_roundtrip(self, store):
        record = self._record()
        store.put("ab" * 32, record)
        assert store.get("ab" * 32) == record
        assert store.entry_count() == 1

    def test_missing_key_is_none(self, store):
        assert store.get("cd" * 32) is None

    def test_corrupt_json_is_a_miss_and_unlinked(self, store):
        key = "ab" * 32
        store.put(key, self._record())
        with open(store.path_for(key), "w") as handle:
            handle.write("{ not json")
        assert store.get(key) is None
        assert not os.path.exists(store.path_for(key))

    def test_schema_mismatch_is_a_miss_and_unlinked(self, store):
        key = "ab" * 32
        store.put(key, self._record(schema="repro.outcomes/0"))
        assert store.get(key) is None
        assert not os.path.exists(store.path_for(key))

    def test_disabled_by_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        disabled = OutcomeStore(root=str(tmp_path / "off"))
        disabled.put("ab" * 32, self._record())
        assert disabled.get("ab" * 32) is None
        assert disabled.entry_count() == 0

    def test_index_merge_roundtrip(self, store):
        store.update_index({"id1": {"key": "k1", "fingerprint": "f1",
                                    "pipeline": "p"}})
        store.update_index({"id2": {"key": "k2", "fingerprint": "f2",
                                    "pipeline": "p"}})
        index = store.load_index()
        assert set(index) == {"id1", "id2"}
        assert index["id1"]["key"] == "k1"

    def test_keys_differ_by_fingerprint_but_identity_does_not(self):
        base = ("wl", "main", "idempotent", "value", 0, 7)
        assert section_key(*base, 500, "main@b.0", "a" * 64) \
            != section_key(*base, 500, "main@b.0", "b" * 64)
        assert section_identity(*base, "main@b.0") \
            == section_identity(*base, "main@b.0")

    def test_keys_differ_by_span_and_fault_model(self, monkeypatch):
        """Trial ``i`` is planned from ``(seed, i, span)``, so a record
        written under another span (or another fault model) must miss."""
        from repro.harness import incremental

        base = ("wl", "main", "idempotent", "value", 0, 7)
        key = section_key(*base, 500, "main@b.0", "f" * 64)
        assert key != section_key(*base, 501, "main@b.0", "f" * 64)
        monkeypatch.setattr(incremental, "FAULT_MODEL_VERSION", "next")
        assert key != section_key(*base, 500, "main@b.0", "f" * 64)

    def test_record_carries_span_and_fault_model(self):
        from repro.sim.faults import FAULT_MODEL_VERSION

        record = self._record()
        assert record["span"] == 500
        assert record["fault_model"] == FAULT_MODEL_VERSION


class TestRowAggregates:
    def test_merge_section_rows_unions_by_index(self):
        record = {"trials": [[0, "crashed", 0, 0], [2, "crashed", 0, 0]]}
        merged = merge_section_rows(
            record, [[1, "recovered_correctly", 1, 3], [2, "wrong_result", 1, 1]]
        )
        assert [row[0] for row in merged] == [0, 1, 2]
        assert merged[2][1] == "wrong_result"  # new row wins


class TestMeasuredRegionResults:
    def test_index_restriction_composes_down(self):
        record = make_section_record(
            "wl", "main", "idempotent", "value", 0, 7, 500, "r1", "f" * 64,
            [[0, "recovered_correctly", 1, 1], [1, "crashed", 0, 0],
             [2, "recovered_correctly", 1, 2]],
        )
        full = measured_region_results([record])
        assert full["r1"].injected == 3
        restricted = measured_region_results(
            [record], indices_by_region={"r1": {0, 2}}
        )
        assert restricted["r1"].injected == 2
        assert restricted["r1"].recovered_correctly == 2
        assert restricted["r1"].crashed == 0


class TestInlineBitIdentity:
    @pytest.mark.parametrize("kind", [FAULT_VALUE, FAULT_CONTROL])
    @pytest.mark.parametrize("flavour", ["idempotent", "original"])
    def test_flavours_match_monolithic(self, kernel_pair, store, kind, flavour):
        original, idempotent, reference, reference_output = kernel_pair
        program = (idempotent if flavour == "idempotent" else original).program
        monolithic = fault_campaign(
            program, reference, reference_output, trials=10, seed=11, kind=kind,
        )
        composed = _inline(
            kernel_pair, store, trials=10, seed=11, kind=kind, flavour=flavour,
        )
        assert dataclasses.asdict(composed.result) == dataclasses.asdict(monolithic)
        assert composed.trials_from_store == 0

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_backends_match_monolithic(self, kernel_pair, store, backend_name):
        original, idempotent, reference, reference_output = kernel_pair
        backend = get_backend(backend_name)
        monolithic = backend.campaign(
            original.program, idempotent.program, reference, reference_output,
            trials=8, seed=21,
        )
        composed = _inline(kernel_pair, store, trials=8, seed=21, backend=backend)
        assert dataclasses.asdict(composed.result) == dataclasses.asdict(monolithic)

    def test_warm_rerun_injects_nothing(self, kernel_pair, store):
        cold = _inline(kernel_pair, store, trials=10, seed=3)
        warm = _inline(kernel_pair, store, trials=10, seed=3)
        assert warm.trials_injected == 0
        assert warm.sections_reinjected == 0
        assert warm.trials_from_store == cold.trials_injected
        assert dataclasses.asdict(warm.result) == dataclasses.asdict(cold.result)

    def test_topup_injects_only_the_new_indices(self, kernel_pair, store):
        small = _inline(kernel_pair, store, trials=6, seed=3)
        grown = _inline(kernel_pair, store, trials=10, seed=3)
        assert grown.trials_from_store == small.trials_injected
        assert grown.trials_injected + grown.trials_from_store == grown.result.injected
        _, idempotent, reference, reference_output = kernel_pair
        monolithic = fault_campaign(
            idempotent.program, reference, reference_output, trials=10, seed=3,
        )
        assert dataclasses.asdict(grown.result) == dataclasses.asdict(monolithic)
        statuses = {s.status for s in grown.sections}
        assert SECTION_CACHED not in statuses or grown.trials_from_store
        assert SECTION_TOPUP in statuses or SECTION_NEW in statuses

    def test_larger_record_composes_down_to_smaller_budget(
        self, kernel_pair, store
    ):
        """A record holding 10 trials serves a 6-trial campaign with zero
        injection, and the composition equals the 6-trial monolithic run."""
        _inline(kernel_pair, store, trials=10, seed=3)
        shrunk = _inline(kernel_pair, store, trials=6, seed=3)
        assert shrunk.trials_injected == 0
        _, idempotent, reference, reference_output = kernel_pair
        monolithic = fault_campaign(
            idempotent.program, reference, reference_output, trials=6, seed=3,
        )
        assert dataclasses.asdict(shrunk.result) == dataclasses.asdict(monolithic)

    def test_per_region_matches_monolithic_per_region(self, kernel_pair, store):
        _, idempotent, reference, reference_output = kernel_pair
        mono_regions = {}
        fault_campaign(
            idempotent.program, reference, reference_output, trials=10,
            seed=5, per_region=mono_regions,
        )
        composed_regions = {}
        _inline(kernel_pair, store, trials=10, seed=5,
                per_region=composed_regions)
        mono = {r: dataclasses.asdict(c) for r, c in mono_regions.items()
                if c.injected}
        composed = {r: dataclasses.asdict(c)
                    for r, c in composed_regions.items() if c.injected}
        assert composed == mono


class TestSelectiveStaleness:
    def _pair(self, source):
        original = compile_minic(source, idempotent=False)
        idempotent = compile_minic(source, idempotent=True)
        reference_sim = Simulator(idempotent.program)
        reference = reference_sim.run("main")
        return original, idempotent, reference, list(reference_sim.output)

    def test_one_function_edit_reinjects_only_its_sections(self, store):
        from repro.bench.campaign_cache import (
            BASE_SOURCE,
            EDITED_FUNCTION,
            EDITED_SOURCE,
        )

        base = self._pair(BASE_SOURCE)
        cold = incremental_campaign(
            base[0].program, base[1].program, base[2], base[3],
            trials=12, seed=17, name="edit-demo", store=store,
        )
        assert cold.trials_from_store == 0
        edited = self._pair(EDITED_SOURCE)
        warm = incremental_campaign(
            edited[0].program, edited[1].program, edited[2], edited[3],
            trials=12, seed=17, name="edit-demo", store=store,
        )
        stale = [s for s in warm.sections if s.status != SECTION_CACHED]
        assert stale, "the edited function's sections must re-run"
        assert warm.sections_reinjected < len(warm.sections), (
            "unchanged functions' sections must stay cached"
        )
        for status in stale:
            assert region_owner(status.region, "main") == EDITED_FUNCTION
            assert status.reason.startswith("code-changed")

    def test_cold_warm_edited_are_bit_identical(self, store):
        """Cold, warm and one-function-edited runs each equal the
        monolithic campaign of the program they ran on."""
        from repro.bench.campaign_cache import BASE_SOURCE, EDITED_SOURCE

        def run(pair):
            return incremental_campaign(
                pair[0].program, pair[1].program, pair[2], pair[3],
                trials=12, seed=17, name="edit-demo", store=store,
            )

        def monolithic(pair):
            return dataclasses.asdict(fault_campaign(
                pair[1].program, pair[2], pair[3], trials=12, seed=17,
            ))

        base = self._pair(BASE_SOURCE)
        cold = run(base)
        warm = run(base)
        assert warm.trials_injected == 0
        assert dataclasses.asdict(cold.result) == monolithic(base)
        assert dataclasses.asdict(warm.result) == monolithic(base)
        # Composing the cached sections of the unchanged functions with
        # the re-injected ones is the edited program's own campaign.
        edited_pair = self._pair(EDITED_SOURCE)
        edited = run(edited_pair)
        assert edited.trials_injected > 0
        assert dataclasses.asdict(edited.result) == monolithic(edited_pair)

    def test_zero_region_function_contributes_no_sections(self, store):
        """A function the entry never reaches owns no landing regions, so
        it produces no sections (and its code can't go stale)."""
        source = KERNEL.replace(
            "int main()",
            "int dead(int x) { return x * 3 + 1; }\nint main()",
        )
        pair = self._pair(source)
        campaign = incremental_campaign(
            pair[0].program, pair[1].program, pair[2], pair[3],
            trials=10, seed=3, name="dead-fn", store=store,
        )
        owners = {region_owner(s.region, "main") for s in campaign.sections}
        assert "dead" not in owners
        assert campaign.result.trials == 10


class TestCompositionEdgeCases:
    def test_compose_with_no_sections_counts_only_uninjected(self):
        composed = compose_campaign([], uninjected=5)
        assert composed.trials == 5
        assert composed.injected == 0

    def test_uninjected_trials_survive_composition(self, kernel_pair, store):
        """Zero-dynamic-occupancy targets (past the last eligible event)
        contribute to ``trials`` but never to ``injected`` — composed
        exactly as the monolithic campaign counts them."""
        _, idempotent, reference, reference_output = kernel_pair
        campaign = _inline(kernel_pair, store, trials=40, seed=13,
                           kind=FAULT_CONTROL)
        monolithic = fault_campaign(
            idempotent.program, reference, reference_output, trials=40,
            seed=13, kind=FAULT_CONTROL,
        )
        assert campaign.result.trials == 40
        assert dataclasses.asdict(campaign.result) == dataclasses.asdict(monolithic)


class TestExplainStale:
    def _plans(self, store, program, seed=7, trials=10):
        assignment = trace_eligibility(record_golden_run(program), seed, trials)
        return plan_sections(
            store, "kernel", "main", "idempotent", FAULT_VALUE, 0, seed,
            assignment, program,
        ), assignment

    def test_cold_store_reports_new_section(self, kernel_pair, store):
        _, idempotent, _, _ = kernel_pair
        plans, _ = self._plans(store, idempotent.program)
        assert plans
        for plan in plans:
            assert plan.status.status == SECTION_NEW
            assert plan.status.reason == "new-section"

    def test_evicted_record_is_diagnosed(self, kernel_pair, store):
        _, idempotent, _, _ = kernel_pair
        _inline(kernel_pair, store, trials=10, seed=7)
        plans, _ = self._plans(store, idempotent.program)
        victim = plans[0].status
        os.unlink(store.path_for(victim.key))
        replanned, _ = self._plans(store, idempotent.program)
        assert replanned[0].status.reason == (
            "record-missing (deleted or unreadable)"
        )

    def test_truncated_record_is_diagnosed(self, kernel_pair, store):
        """An unreadable record is a corrupt miss, not a new section."""
        _, idempotent, _, _ = kernel_pair
        _inline(kernel_pair, store, trials=10, seed=7)
        plans, _ = self._plans(store, idempotent.program)
        path = store.path_for(plans[0].status.key)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        corrupt = store.stats.corrupt
        replanned, _ = self._plans(store, idempotent.program)
        assert replanned[0].status.status == SECTION_NEW
        assert replanned[0].status.reason == (
            "record-missing (deleted or unreadable)"
        )
        assert store.stats.corrupt == corrupt + 1
        assert all(plan.status.status != SECTION_NEW for plan in replanned[1:])

    def test_pipeline_change_is_diagnosed(self, kernel_pair, store):
        _, idempotent, _, _ = kernel_pair
        _inline(kernel_pair, store, trials=10, seed=7)
        index = store.load_index()
        for row in index.values():
            row["pipeline"] = "stale-pipeline/0"
        store.update_index(index)
        plans, _ = self._plans(store, idempotent.program)
        for plan in plans:
            os.unlink(store.path_for(plan.status.key))
        replanned, _ = self._plans(store, idempotent.program)
        assert replanned[0].status.reason.startswith("pipeline-changed")

    def test_topup_reason_counts_missing_trials(self, kernel_pair, store):
        _, idempotent, _, _ = kernel_pair
        _inline(kernel_pair, store, trials=6, seed=7)
        plans, _ = self._plans(store, idempotent.program, trials=10)
        topped = [p for p in plans if p.status.status == SECTION_TOPUP]
        assert topped
        for plan in topped:
            assert plan.status.reason.startswith("top-up (+")


def _provenance_unit(payload):
    return {"value": payload["value"]}


class TestProvenanceResume:
    UNITS = [("u1", {"value": 1}), ("u2", {"value": 2})]
    STAMP = {"pipeline": "p1", "label": "idempotent", "cfg": "abc"}

    def _run(self, manifest_path, provenance):
        runner = CampaignRunner(manifest=RunManifest(manifest_path))
        records = runner.run(
            _provenance_unit, self.UNITS, provenance=provenance
        )
        return runner, records

    def test_matching_provenance_resumes(self, tmp_path):
        manifest_path = str(tmp_path / "run.jsonl")
        stamps = {uid: dict(self.STAMP) for uid, _ in self.UNITS}
        first, _ = self._run(manifest_path, stamps)
        assert first.executed == 2
        second, _ = self._run(manifest_path, stamps)
        assert second.executed == 0 and second.skipped == 2

    def test_mismatched_provenance_reruns(self, tmp_path, capsys):
        manifest_path = str(tmp_path / "run.jsonl")
        old = {uid: dict(self.STAMP) for uid, _ in self.UNITS}
        self._run(manifest_path, old)
        new = {uid: {**self.STAMP, "cfg": "different"} for uid, _ in self.UNITS}
        second, records = self._run(manifest_path, new)
        assert second.executed == 2 and second.skipped == 0
        assert "stale manifest row re-run" in capsys.readouterr().err
        assert records["u1"].provenance == new["u1"]

    def test_rows_without_provenance_still_resume(self, tmp_path):
        """Backward compatibility: manifests written before provenance
        stamping resume as before (no spurious re-runs)."""
        manifest_path = str(tmp_path / "run.jsonl")
        with open(manifest_path, "w") as handle:  # a pre-provenance manifest
            for uid, payload in self.UNITS:
                handle.write(json.dumps({
                    "unit_id": uid, "status": "done", "seconds": 0.1,
                    "data": {"value": payload["value"]},
                }) + "\n")
        stamps = {uid: dict(self.STAMP) for uid, _ in self.UNITS}
        runner, _ = self._run(manifest_path, stamps)
        assert runner.executed == 0 and runner.skipped == 2

    def test_provenance_roundtrips_through_manifest(self, tmp_path):
        manifest = RunManifest(str(tmp_path / "run.jsonl"))
        manifest.append(
            UnitRecord("u1", "done", 0.5, {}, provenance={"cfg": "abc"})
        )
        assert manifest.load()["u1"].provenance == {"cfg": "abc"}


class TestSuiteIncremental:
    def test_cold_matches_monolithic_and_warm_injects_nothing(
        self, isolated_cache, store
    ):
        monolithic = run_fault_campaign(
            names=["bzip2"], trials=3, seed=7,
            store=OutcomeStore(enabled=False),
        )
        assert monolithic.sections and monolithic.trials_from_store == 0
        cold = run_fault_campaign(
            names=["bzip2"], trials=3, seed=7, store=store,
        )
        assert set(cold.results) == set(monolithic.results)
        for key, result in monolithic.results.items():
            assert dataclasses.asdict(cold.results[key]) == dataclasses.asdict(result)
        assert cold.trials_from_store == 0
        warm = run_fault_campaign(
            names=["bzip2"], trials=3, seed=7, store=store,
        )
        assert warm.executed_units == 2
        assert warm.trials_injected == 0
        assert warm.sections_reinjected == 0
        for key, result in monolithic.results.items():
            assert dataclasses.asdict(warm.results[key]) == dataclasses.asdict(result)
        assert format_campaign_report(warm) == format_campaign_report(cold) \
            == format_campaign_report(monolithic)

    def test_manifest_resume_refills_a_wiped_store(
        self, isolated_cache, store, tmp_path
    ):
        """The manifest, not the store, is what a resume reads: with the
        store wiped but the manifest intact, the campaign resumes every
        unit instead of re-injecting, and reports the identical result.
        A run without the manifest then refills the store."""
        import shutil

        manifest_path = str(tmp_path / "campaign.jsonl")
        cold = run_fault_campaign(
            names=["bzip2"], trials=3, seed=7, store=store,
            manifest_path=manifest_path,
        )
        assert cold.executed_units > 0
        shutil.rmtree(store.root)
        resumed = run_fault_campaign(
            names=["bzip2"], trials=3, seed=7, store=store,
            manifest_path=manifest_path,
        )
        assert resumed.executed_units == 0
        assert resumed.skipped_units == cold.executed_units
        assert resumed.sections == []
        for key, result in cold.results.items():
            assert dataclasses.asdict(resumed.results[key]) == dataclasses.asdict(result)
        assert store.entry_count() == 0
        refilled = run_fault_campaign(
            names=["bzip2"], trials=3, seed=7, store=store,
        )
        assert refilled.trials_injected == cold.trials_injected > 0
        assert store.entry_count() == len(cold.sections)

    def test_span_changing_edit_matches_a_fresh_campaign(
        self, isolated_cache, store, monkeypatch
    ):
        """An edit of one function that changes how many instructions the
        program runs moves every trial's target, so no section of the
        unchanged functions may compose from rows planned under the old
        span: the warm campaign of the edited program equals a fresh
        monolithic campaign of it.  Control faults at latency 4 give the
        original build different outcomes in the two programs, so rows
        composed under the old span would change its counts."""
        from repro import workloads
        from repro.bench.campaign_cache import BASE_SOURCE, EDITED_FUNCTION
        from repro.experiments.common import build_pair, clear_build_memo
        from repro.harness.executor import derive_seed

        site = "v = v % 65536;\n    acc[(i + 8)"
        assert BASE_SOURCE.count(site) == 1
        edited_source = BASE_SOURCE.replace(
            site, "v = v % 65536;\n    v = v + (v & 3);\n    acc[(i + 8)"
        )
        name, trials, seed = "span-edit", 16, 5
        params = dict(kind=FAULT_CONTROL, detection_latency=4)

        def campaign(source):
            monkeypatch.setitem(
                workloads._REGISTRY, name,
                workloads.Workload(name=name, suite="specint", source=source),
            )
            clear_build_memo()
            summary = run_fault_campaign(
                names=[name], trials=trials, seed=seed, store=store, **params
            )
            return summary, build_pair(name)

        base, (_, base_idem) = campaign(BASE_SOURCE)
        assert base.trials_injected > 0
        edited, (orig, idem) = campaign(edited_source)
        clear_build_memo()

        changed = {
            fn for fn in idem.program.functions
            if function_fingerprint(idem.program, fn)
            != function_fingerprint(base_idem.program, fn)
        }
        assert changed == {EDITED_FUNCTION}
        spans = {s.span for s in base.sections} | {s.span for s in edited.sections}
        assert len(spans) == 4  # each flavour's span moved
        assert edited.trials_from_store == 0
        unchanged = [
            s for s in edited.sections
            if region_owner(s.region, "main") != EDITED_FUNCTION
        ]
        assert unchanged
        assert all(s.reason.startswith("span-changed") for s in unchanged
                   if s.identity in {b.identity for b in base.sections})

        reference_sim = Simulator(idem.program)
        reference = reference_sim.run("main")
        for flavour, build in (("original", orig), ("idempotent", idem)):
            fresh = fault_campaign(
                build.program, reference, list(reference_sim.output),
                trials=trials, seed=derive_seed(seed, name, flavour), **params
            )
            assert dataclasses.asdict(edited.results[(name, flavour)]) \
                == dataclasses.asdict(fresh), flavour

    def test_backend_labels_compose_from_store(self, isolated_cache, store):
        cold = run_fault_campaign(
            names=["bzip2"], trials=3, seed=7, backends=["tmr"], store=store,
        )
        warm = run_fault_campaign(
            names=["bzip2"], trials=3, seed=7, backends=["tmr"], store=store,
        )
        assert warm.trials_injected == 0
        assert set(cold.results) == {("bzip2", "tmr")}
        assert dataclasses.asdict(warm.results[("bzip2", "tmr")]) == \
            dataclasses.asdict(cold.results[("bzip2", "tmr")])


def _section(status=SECTION_NEW, reason="new-section", needed=3, cached=0):
    return SectionStatus(
        workload="wl", label="idempotent", region="f@b.0", key="k" * 64,
        identity="i" * 64, fingerprint="f" * 64, span=500, status=status,
        reason=reason, trials_needed=needed, trials_cached=cached,
        trials_run=needed - cached,
    )


class TestReports:
    def _summary(self, **overrides):
        summary = FaultCampaignSummary(
            trials=4, seed=1, kind=FAULT_VALUE, labels=("idempotent",),
            store_root="/tmp/outcomes",
        )
        summary.results[("wl", "idempotent")] = CampaignResult(
            trials=4, injected=4, detected=4, recovered_correctly=4,
        )
        for name, value in overrides.items():
            setattr(summary, name, value)
        return summary

    def test_section_accounting_line(self):
        summary = self._summary(sections=[
            _section(SECTION_CACHED, "", needed=6, cached=6),
            _section(SECTION_TOPUP, "top-up (+2 of 2 trials)", needed=2),
        ])
        line = format_section_accounting(summary)
        assert "2 total, 1 cached, 1 re-injected" in line
        assert "(6 trials from store, 2 injected)" in line
        assert line.endswith("store: /tmp/outcomes")

    def test_stale_report_with_no_stale_sections(self):
        report = format_stale_report(self._summary())
        assert "stale sections: none" in report

    def test_stale_report_lists_reasons(self):
        summary = self._summary()
        summary.sections.append(_section(reason="code-changed (aaa -> bbb)"))
        report = format_stale_report(summary)
        assert "stale sections:" in report
        assert "wl:idempotent f@b.0 [3 trials]: code-changed (aaa -> bbb)" in report
