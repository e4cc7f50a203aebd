"""The decoded interpreter against the interpreter it replaced.

``tests/frozen_interpreter.py`` is the interpreter before decoding,
verbatim.  Both run each input below on a fresh interpreter and must
agree on the result (its type, and a float's sign), the output,
``steps``, the memory cells and access counts, and any exception (type
and message):

- ``repro.fuzz.generator.sources(32)`` and ``examples/regressions/``,
  as ``compile_source`` modules and as the SSA modules of both
  ``compile_minic`` flavours;
- every workload in the same three forms (the SSA modules carry φs,
  selects and region boundaries);
- one hand-built module per runtime error, each also run under every
  step limit up to the steps it takes, so the limit is hit at every
  instruction and φ, and exactly at ``max_steps``;
- ``run`` called more than once on one interpreter.
"""

import glob
import os

import pytest

from repro.compiler import compile_minic
from repro.frontend import compile_source
from repro.fuzz.generator import sources
from repro.interp import Interpreter
from repro.ir import parse_module
from repro.ir.instructions import Instruction
from repro.ir.types import VOID
from repro.workloads import get_workload, workload_names
from tests import frozen_interpreter

FORMS = ("source", "original", "idempotent")

REGRESSIONS = sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "regressions", "*.c",
)))


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


CORPUS = sources(32) + [_read(path) for path in REGRESSIONS]


def _module(source, form):
    if form == "source":
        return compile_source(source)
    return compile_minic(source, idempotent=form == "idempotent").module


def _typed(value):
    return type(value).__name__, repr(value)


def _runs(interpreter_type, module, calls, max_steps):
    """What one interpreter returns or raises, and its state, after
    each of ``calls``."""
    interp = interpreter_type(module, max_steps=max_steps)
    seen = []
    for func, args in calls:
        try:
            seen.append(("returned", _typed(interp.run(func, args))))
        except Exception as exc:
            seen.append(("raised", type(exc).__name__, str(exc)))
        memory = interp.memory
        seen.append((
            [_typed(value) for value in interp.output],
            interp.steps,
            sorted((addr, _typed(value)) for addr, value in memory.cells.items()),
            memory.load_count,
            memory.store_count,
            (memory.global_top, memory.heap_top, memory.stack_top),
            dict(interp.globals),
        ))
    return seen


def _same(module, calls=(("main", ()),), max_steps=50_000_000):
    """The decoded interpreter's outcome, asserted equal to the frozen one."""
    new = _runs(Interpreter, module, calls, max_steps)
    assert new == _runs(frozen_interpreter.Interpreter, module, calls, max_steps)
    return new


def _same_at_every_limit(module, calls):
    """``_same`` under every step limit from 0 to one past what ``calls``
    take: the limit falls on each instruction and φ in turn."""
    total = _same(module, calls)[-1][1]
    for max_steps in range(total + 2):
        _same(module, calls, max_steps)
    return total


@pytest.mark.parametrize("form", FORMS)
def test_corpus_matches_frozen(form):
    for source in CORPUS:
        assert _same(_module(source, form))[0][0] == "returned"


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("name", workload_names())
def test_workload_matches_frozen(name, form):
    assert _same(_module(get_workload(name).source, form))[0][0] == "returned"


# ----------------------------------------------------------------------
# Errors: each module raises (type, message) on the call given
# ----------------------------------------------------------------------
CALLEE = """
declare @missing() -> int

func @g(%x: int) -> int {
entry:
  ret %x
}

func @unknown() -> int {
entry:
  %x = call int @missing()
  ret %x
}

func @arity() -> int {
entry:
  %r = call int @g(1, 2)
  ret %r
}
"""

ARITH = """
func @div(%a: int, %b: int) -> int {
entry:
  %q = div %a, %b
  ret %q
}

func @rem(%a: int, %b: int) -> int {
entry:
  %q = rem %a, %b
  ret %q
}

func @fdiv(%a: float, %b: float) -> float {
entry:
  %q = fdiv %a, %b
  ret %q
}
"""

MEMORY = """
func @load(%p: ptr) -> int {
entry:
  %v = load int, %p
  ret %v
}

func @store(%p: ptr) {
entry:
  store 1, %p
  ret
}
"""

FALLS_THROUGH = """
func @falls() -> int {
entry:
  %x = add 1, 2
  jmp next
next:
  %y = add %x, 1
}
"""

PHI_EDGES = """
func @missing_edge(%c: int) -> int {
entry:
  br %c, a, join
a:
  jmp join
join:
  %p = phi int [7, a]
  ret %p
}

func @in_entry() -> int {
entry:
  %p = phi int [1, entry]
  ret %p
}
"""

# Uses no definition dominates: valid only on some paths (the SSA
# verifier rejects all of them).
UNDEFINED = """
func @operand(%c: int) -> int {
entry:
  br %c, a, b
a:
  %x = add 1, 2
  jmp b
b:
  %y = add %x, 1
  ret %y
}

func @phi_input(%c: int) -> int {
entry:
  br %c, a, b
a:
  %x = add 1, 2
  jmp b
b:
  %p = phi int [%x, entry], [%x, a]
  ret %p
}

func @select_arm(%c: int, %d: int) -> int {
entry:
  br %c, a, b
a:
  %x = add 1, 2
  jmp b
b:
  %s = select %d, %x, 5
  ret %s
}

func @later_in_block(%n: int) -> int {
entry:
  jmp loop
loop:
  %i = phi int [0, entry], [%j, loop]
  %y = add %z, 1
  %z = add %i, 1
  %j = add %i, 1
  %done = icmp ge %j, %n
  br %done, out, loop
out:
  ret %y
}

func @store_value(%c: int) -> int {
entry:
  %t = alloca 1
  br %c, a, b
a:
  %x = add 1, 2
  jmp b
b:
  store %x, %t
  %v = load int, %t
  ret %v
}

func @call_arg(%c: int) -> int {
entry:
  br %c, a, b
a:
  %x = add 1, 2
  jmp b
b:
  call void @print_int(%x)
  ret 0
}
"""

ERRORS = [
    # (module, function, args, exception type, message)
    (CALLEE, "nope", (), "ExecutionError", "no defined function @nope"),
    (CALLEE, "missing", (), "ExecutionError", "no defined function @missing"),
    (CALLEE, "unknown", (), "ExecutionError", "call to undefined function @missing"),
    (CALLEE, "arity", (), "ExecutionError", "@g expects 1 args, got 2"),
    (CALLEE, "g", (), "ExecutionError", "@g expects 1 args, got 0"),
    (ARITH, "div", (7, 0), "ExecutionError", "integer division by zero"),
    (ARITH, "rem", (7, 0), "ExecutionError", "integer remainder by zero"),
    (ARITH, "fdiv", (1.0, 0.0), "ExecutionError", "float division by zero"),
    (MEMORY, "load", (12345,), "MemoryError_", "load from unmapped address 0x3039"),
    (MEMORY, "store", (12345,), "MemoryError_", "store to unmapped address 0x3039"),
    (FALLS_THROUGH, "falls", (), "ExecutionError", "block next in @falls fell through"),
    (PHI_EDGES, "missing_edge", (0,), "KeyError",
     "'phi %p has no incoming edge from entry'"),
    (PHI_EDGES, "in_entry", (), "AttributeError",
     "'NoneType' object has no attribute 'name'"),
    (UNDEFINED, "operand", (0,), "ExecutionError",
     "use of undefined value %x in @operand"),
    (UNDEFINED, "phi_input", (0,), "ExecutionError",
     "use of undefined value %x in @phi_input"),
    (UNDEFINED, "select_arm", (0, 1), "ExecutionError",
     "use of undefined value %x in @select_arm"),
    (UNDEFINED, "later_in_block", (3,), "ExecutionError",
     "use of undefined value %z in @later_in_block"),
    (UNDEFINED, "store_value", (0,), "ExecutionError",
     "use of undefined value %x in @store_value"),
    (UNDEFINED, "call_arg", (0,), "ExecutionError",
     "use of undefined value %x in @call_arg"),
]


@pytest.mark.parametrize(
    "source, func, args, kind, message", ERRORS,
    ids=[case[1] for case in ERRORS],
)
def test_error_matches_frozen(source, func, args, kind, message):
    module = parse_module(source)
    assert _same(module, [(func, args)])[0] == ("raised", kind, message)
    _same_at_every_limit(module, [(func, args)])


@pytest.mark.parametrize("func, args, result", [
    ("missing_edge", (1,), 7),
    ("operand", (1,), 4),
    ("phi_input", (1,), 3),
    ("select_arm", (0, 0), 5),
    ("select_arm", (1, 1), 3),
    ("store_value", (1,), 3),
])
def test_checked_paths_run_when_defined(func, args, result):
    """Where the path does define the value, the checked operand reads it."""
    module = parse_module(PHI_EDGES + UNDEFINED)
    assert _same(module, [(func, args)])[0] == ("returned", _typed(result))
    _same_at_every_limit(module, [(func, args)])


def test_branch_to_nowhere_falls_through():
    module = parse_module(FALLS_THROUGH.replace("  %y = add %x, 1\n", "  ret 1\n"))
    module.function_by_name("falls").entry.instructions[-1].target = None
    outcome = _same(module, [("falls", ())])
    assert outcome[0] == ("raised", "ExecutionError", "block entry in @falls fell through")


BROKEN = """
func @f(%c: int) -> int {
entry:
  br %c, bad, good
bad:
  %x = add 1, 2
  %y = itof %x
  %z = icmp lt %x, 3
  ret %x
good:
  ret 0
}
"""


class _Unknown(Instruction):
    opcode = "unknown"


def _break_opcode(block):
    block.instructions[0].opcode = "bogus"


def _break_pred(block):
    block.instructions[2].pred = "bogus"


def _drop_operand(block):
    block.instructions[1].drop_operands()


def _insert_unknown(block):
    block.insert(0, _Unknown(VOID, []))


@pytest.mark.parametrize("breakage, kind", [
    (_break_opcode, "ExecutionError"),
    (_break_pred, "KeyError"),
    (_drop_operand, "IndexError"),
    (_insert_unknown, "ExecutionError"),
])
def test_broken_instruction_raises_only_when_it_runs(breakage, kind):
    module = parse_module(BROKEN)
    breakage(module.function_by_name("f").block_by_name("bad"))
    outcome = _same(module, [("f", (0,)), ("f", (1,))])
    assert outcome[0] == ("returned", _typed(0))
    assert outcome[2][:2] == ("raised", kind)


LOOPS_AND_CALLS = """
global @g 2 = [5]

func @swap(%n: int) -> int {
entry:
  jmp loop
loop:
  %a = phi int [1, entry], [%b, loop]
  %b = phi int [2, entry], [%a, loop]
  %i = phi int [0, entry], [%i2, loop]
  %i2 = add %i, 1
  %done = icmp ge %i2, %n
  br %done, out, loop
out:
  %r = mul %a, 10
  %r2 = add %r, %b
  ret %r2
}

func @bump() -> int {
entry:
  %v = load int, @g
  %w = add %v, 1
  store %w, @g
  boundary
  %s = call int @swap(%w)
  call void @print_int(%s)
  ret %w
}
"""


def test_step_limit_at_every_instruction_and_phi():
    calls = [("bump", ())]
    total = _same_at_every_limit(parse_module(LOOPS_AND_CALLS), calls)
    exact = _same(parse_module(LOOPS_AND_CALLS), calls, max_steps=total)
    assert exact[0] == ("returned", _typed(6))
    over = _same(parse_module(LOOPS_AND_CALLS), calls, max_steps=total - 1)
    assert over[0] == ("raised", "StepLimitExceeded", f"exceeded {total - 1} steps")
    assert over[1][1] == total


def test_run_twice_on_one_interpreter():
    """State carries over from call to call, an error's included."""
    calls = [("bump", ()), ("bump", ()), ("swap", (3,)), ("nope", ()), ("bump", ())]
    outcome = _same(parse_module(LOOPS_AND_CALLS), calls)
    assert [outcome[i][0] for i in (0, 2, 4, 6, 8)] == [
        "returned", "returned", "returned", "raised", "returned",
    ]
    _same_at_every_limit(parse_module(LOOPS_AND_CALLS), calls)
