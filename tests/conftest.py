"""Fixtures shared across test modules."""

import pytest

import repro.compiler as compiler
import repro.core.construction as construction


@pytest.fixture
def dropped_cut(monkeypatch):
    """Break the region construction: drop the first hitting-set cut.

    Every function's construction loses the first cut that
    :func:`repro.core.cuts.solve_hitting_set` chose, which breaks the
    §4.2.1 invariant.  The static verifiers still run, so a build that
    needed the cut raises.  The patch reaches every in-process
    :func:`repro.compiler.compile_minic` call, and ``compile_minic``
    never reads or writes the build cache, so no cached healthy build
    hides the hole and no broken build is stored.
    """
    solve = construction.solve_hitting_set

    def solve_and_drop_first(*args, **kwargs):
        return solve(*args, **kwargs)[1:]

    monkeypatch.setattr(construction, "solve_hitting_set", solve_and_drop_first)


@pytest.fixture
def broken_construction(dropped_cut, monkeypatch):
    """``dropped_cut`` with both static idempotence verifiers replaced by
    no-ops, so the hole reaches the dynamic oracles of
    :mod:`repro.fuzz.oracle`."""
    monkeypatch.setattr(
        construction, "verify_idempotent_regions", lambda *args, **kwargs: None
    )
    monkeypatch.setattr(compiler, "verify_machine_program", lambda program: [])

