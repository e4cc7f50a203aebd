"""Workload suite tests.

Every workload must compile through the full pipeline in both flavours;
a representative subset (one per suite plus the paper-critical kernels)
is differentially executed end-to-end. Full-suite execution lives in the
benchmark harness, not here.
"""

import pytest

from repro.compiler import compile_minic
from repro.interp import Interpreter
from repro.recovery.schemes import SCHEME_DMR, SCHEME_TMR, run_scheme
from repro.sim import Simulator
from repro.workloads import (
    SUITES,
    all_workloads,
    by_suite,
    get_workload,
    workload_names,
)

#: (instructions, cycles, boundaries crossed) of each fault-free run under
#: the default cost model, (original, idempotent), as measured before the
#: simulator decoded its programs: any change to the timing model moves them.
DIFFERENTIAL = {
    "bzip2": ((154340, 153825, 0), (167663, 161606, 11809)),
    "mcf": ((287524, 284989, 0), (345919, 341486, 21823)),
    "sjeng": ((443735, 513860, 0), (498951, 564443, 28845)),
    "milc": ((359666, 429798, 0), (370609, 436838, 8575)),
    "soplex": ((194729, 229894, 0), (209771, 237582, 12736)),
    "blackscholes": ((129920, 203568, 0), (144556, 213206, 12812)),
    "canneal": ((1377566, 1865979, 0), (1472495, 1933557, 74052)),
}


class TestRegistry:
    def test_nineteen_workloads(self):
        assert len(all_workloads()) == 19

    def test_suite_partition(self):
        names = set()
        for suite in SUITES:
            suite_names = {w.name for w in by_suite(suite)}
            assert suite_names, suite
            assert not (names & suite_names)
            names |= suite_names
        assert names == set(workload_names())

    def test_suite_sizes(self):
        assert len(by_suite("specint")) == 8
        assert len(by_suite("specfp")) == 6
        assert len(by_suite("parsec")) == 5

    def test_unknown_lookups(self):
        with pytest.raises(KeyError):
            get_workload("doom")
        with pytest.raises(KeyError):
            by_suite("specweb")

    def test_sources_nonempty_and_have_main(self):
        for workload in all_workloads():
            assert "int main()" in workload.source


class TestCompilation:
    @pytest.mark.parametrize("name", workload_names())
    def test_compiles_both_flavours(self, name):
        workload = get_workload(name)
        original = compile_minic(workload.source, idempotent=False, name=name)
        idempotent = compile_minic(workload.source, idempotent=True, name=name)
        # The idempotent binary carries boundary markers; original doesn't.
        idem_rcbs = sum(
            1
            for f in idempotent.program.functions.values()
            for i in f.instructions()
            if i.opcode == "rcb"
        )
        orig_rcbs = sum(
            1
            for f in original.program.functions.values()
            for i in f.instructions()
            if i.opcode == "rcb"
        )
        assert idem_rcbs > 0 and orig_rcbs == 0

    @pytest.mark.parametrize("name", workload_names())
    def test_construction_statistics_recorded(self, name):
        workload = get_workload(name)
        result = compile_minic(workload.source, idempotent=True, name=name)
        assert result.construction
        assert any(r.region_count > 0 for r in result.construction.values())


class TestDifferentialExecution:
    @pytest.mark.parametrize("name", DIFFERENTIAL)
    def test_interp_orig_idem_agree(self, name):
        workload = get_workload(name)
        interp = Interpreter(workload.compile_ir())
        expected = interp.run("main")
        expected_output = list(interp.output)

        for idem, counts in zip((False, True), DIFFERENTIAL[name]):
            program = compile_minic(workload.source, idempotent=idem).program
            sim = Simulator(program)
            result = sim.run("main")
            assert result == expected, (name, idem)
            assert sim.output == expected_output, (name, idem)
            assert (sim.instructions, sim.cycles, sim.boundaries_crossed) \
                == counts, (name, idem)

    def test_scheme_cycles_pinned(self):
        """DMR and TMR issue-cost multipliers, priced on mcf."""
        workload = get_workload("mcf")
        original = compile_minic(workload.source, idempotent=False).program
        idempotent = compile_minic(workload.source, idempotent=True).program
        cycles = [run_scheme(scheme, original, idempotent).cycles
                  for scheme in (SCHEME_DMR, SCHEME_TMR)]
        assert cycles == [328278, 411387]

    @pytest.mark.parametrize(
        "name, bound",
        [
            ("lbm", 1.4),
            ("gobmk", 1.4),
            # hmmer is the paper's aliasing-limited outlier (§6.2): tiny
            # regions inside a high-pressure DP loop. Bounded, not cheap.
            ("hmmer", 2.0),
        ],
    )
    def test_idempotent_overhead_is_bounded(self, name, bound):
        """Idempotence costs percent-level overhead, not multiples."""
        workload = get_workload(name)
        orig = Simulator(compile_minic(workload.source, idempotent=False).program)
        orig.run("main")
        idem = Simulator(compile_minic(workload.source, idempotent=True).program)
        idem.run("main")
        assert idem.cycles < orig.cycles * bound
