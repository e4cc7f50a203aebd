"""The linear-time back end against the one it replaced.

``tests/frozen_backend.py`` is the register allocator and the machine
idempotence verifier before both ran in linear time, verbatim.  Every
build below goes through ``compile_minic`` with its allocation step
doubled: the frozen and the new allocator each run on a deep copy of
the same ``select_module`` output, and must agree on the machine code
(``format_machine_function``), the ``AllocationStats`` and the frame
slot names and sizes.  Both verifiers must then return equal violation
lists (same order, every field) on the allocated code:

- of every idempotent build, where they find nothing;
- of every original build, where nothing keeps a region's inputs live
  and they find plenty;
- of every idempotent build's code allocated as if it were original
  (without the §4.4 extension), where they find inputs clobbered inside
  ``rcb``-bounded regions too;
- of idempotent builds whose construction drops a cut while the static
  verifiers are off (the ``broken_construction`` fixture).  A dropped
  cut breaks the memory half of idempotence, which these verifiers do
  not see, so they find nothing there.

The inputs are ``repro.fuzz.generator.sources(32)``,
``examples/regressions/`` and every workload, in both flavours.
"""

import copy
import dataclasses
import glob
import os

import pytest

import repro.codegen.mverify as mverify
import repro.codegen.regalloc as regalloc
import repro.compiler as compiler
from repro.codegen.machine import format_machine_function
from repro.compiler import compile_minic
from repro.fuzz.generator import sources
from repro.workloads import get_workload, workload_names
from tests import frozen_backend

REGRESSIONS = sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "regressions", "*.c",
)))


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


CORPUS = sources(32) + [_read(path) for path in REGRESSIONS]


def _code(program):
    """Everything allocation decides, per function."""
    return [
        (format_machine_function(mfunc), mfunc.frame.slot_names,
         mfunc.frame.slot_sizes, mfunc.frame.size)
        for mfunc in program.functions.values()
    ]


def _violations(violations):
    return [(v.func, v.header, v.loc, v.read_pos, v.write_pos) for v in violations]


def _same_violations(program):
    """Both verifiers' findings on ``program``, asserted equal."""
    found = _violations(mverify.verify_machine_program(program))
    assert found == _violations(frozen_backend.verify_machine_program(program))
    return found


def _allocate_both(program, idempotent):
    """Allocate ``program`` in place, and a deep copy with the frozen
    allocator; assert that they agree.  Returns the statistics."""
    frozen = copy.deepcopy(program)
    frozen_stats = frozen_backend.allocate_program(frozen, idempotent=idempotent)
    stats = regalloc.allocate_program(program, idempotent=idempotent)
    assert _code(program) == _code(frozen)
    assert {name: dataclasses.asdict(s) for name, s in stats.items()} == {
        name: dataclasses.asdict(s) for name, s in frozen_stats.items()
    }
    return stats


@pytest.fixture
def allocate_both(monkeypatch):
    """Allocate every build with both allocators and compare.

    Returns the number of violations the verifiers agreed on, by kind of
    code: ``original``, ``idempotent`` and ``unprotected`` (idempotent
    code allocated as original).
    """
    found = {"original": 0, "idempotent": 0, "unprotected": 0}

    def allocate_program(program, idempotent=False):
        if idempotent:
            unprotected = copy.deepcopy(program)
            _allocate_both(unprotected, idempotent=False)
            found["unprotected"] += len(_same_violations(unprotected))
        stats = _allocate_both(program, idempotent)
        found["idempotent" if idempotent else "original"] += len(_same_violations(program))
        return stats

    monkeypatch.setattr(compiler, "allocate_program", allocate_program)
    return found


@pytest.mark.parametrize("name", workload_names())
def test_workload_matches_frozen(name, allocate_both):
    source = get_workload(name).source
    for idempotent in (False, True):
        compile_minic(source, idempotent=idempotent, name=name)
    assert allocate_both["idempotent"] == 0


def test_corpus_matches_frozen(allocate_both):
    for source in CORPUS:
        for idempotent in (False, True):
            compile_minic(source, idempotent=idempotent)
    assert allocate_both["idempotent"] == 0
    assert allocate_both["original"] > 0
    assert allocate_both["unprotected"] > 0


def test_broken_construction_matches_frozen(broken_construction):
    for source in CORPUS:
        _same_violations(compile_minic(source, idempotent=True).program)
