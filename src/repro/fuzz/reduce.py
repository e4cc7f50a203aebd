"""Delta-debugging reducer for fuzzer-found failures.

Shrinks a failing :class:`~repro.fuzz.generator.ProgramSpec` to a
minimal program that *still fails the same oracles*, by transforming
the statement tree — never the text — so every candidate is
syntactically valid MiniC:

- ddmin-style chunk removal over every statement list (main body,
  branch arms, loop bodies, helper bodies);
- structural simplification: an ``if`` collapses to one of its arms, a
  loop's trip count drops to 1, a loop unwraps to its body (the loop
  variable kept alive as a plain declaration), the outer loop's trip
  count shrinks;
- cleanup: helpers no longer called anywhere are deleted, then unused
  global scalars.

The algorithm is greedy-to-fixpoint and uses no randomness, so the
same failing spec and predicate always reduce to the same minimal
program.  Every accepted step strictly shrinks the tree (or a trip
count), so the result is never larger than the input and termination
is structural.

The *predicate* decides "still failing": callers usually build it with
:func:`failure_predicate`, which re-runs the oracle stack and accepts a
candidate only when the same set of oracles fails.  Candidates that
fail to compile or fail *differently* are simply rejected.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro import obs
from repro.fuzz.generator import (
    GeneratedProgram,
    If,
    Leaf,
    Loop,
    ProgramSpec,
    Stmt,
    render,
)

Predicate = Callable[[str], bool]


@dataclass
class ReduceResult:
    spec: ProgramSpec
    source: str
    steps: int          # accepted reductions
    tests: int          # predicate evaluations


def _stmt_lists(spec: ProgramSpec) -> List[List[Stmt]]:
    """Every mutable statement list in the tree, outermost first."""
    lists: List[List[Stmt]] = [spec.body]
    for helper in spec.helpers:
        lists.append(helper.body)
    index = 0
    while index < len(lists):
        for stmt in lists[index]:
            if isinstance(stmt, If):
                lists.append(stmt.body)
                if stmt.orelse:
                    lists.append(stmt.orelse)
            elif isinstance(stmt, Loop):
                lists.append(stmt.body)
        index += 1
    return lists


def _node_weight(stmts: Sequence[Stmt]) -> int:
    total = 0
    for stmt in stmts:
        total += 1
        if isinstance(stmt, If):
            total += _node_weight(stmt.body) + _node_weight(stmt.orelse)
        elif isinstance(stmt, Loop):
            total += _node_weight(stmt.body)
    return total


def spec_weight(spec: ProgramSpec) -> int:
    """Tree-size metric every accepted reduction strictly decreases
    (trip counts weigh in so trip shrinking is also progress)."""
    weight = _node_weight(spec.body) + spec.outer_trips
    for helper in spec.helpers:
        weight += 1 + _node_weight(helper.body)
    for stmts in _stmt_lists(spec):
        for stmt in stmts:
            if isinstance(stmt, Loop):
                weight += stmt.trips
    return weight


class _Reducer:
    def __init__(self, spec: ProgramSpec, predicate: Predicate) -> None:
        self.spec = copy.deepcopy(spec)
        self.predicate = predicate
        self.steps = 0
        self.tests = 0

    # -- candidate evaluation ------------------------------------------
    def _accept(self, candidate: ProgramSpec) -> bool:
        self.tests += 1
        try:
            ok = self.predicate(render(candidate))
        except Exception:
            ok = False  # a candidate that explodes the predicate is dead
        if ok:
            self.spec = candidate
            self.steps += 1
        return ok

    # -- passes --------------------------------------------------------
    # Each pass scans the tree in a fixed order and applies the FIRST
    # accepted transformation, then reports success so the driver
    # rescans a fresh enumeration (nested statement lists shift when
    # their parent statement is removed — restarting keeps list indices
    # honest).  Greedy first-improvement + fixed scan order = the same
    # input always reduces through the same sequence of steps.

    def _remove_one(self) -> bool:
        """ddmin flavour: try deleting chunks (largest first) from
        every statement list."""
        lists = _stmt_lists(self.spec)
        for list_index, stmts in enumerate(lists):
            n = len(stmts)
            chunk = n
            while chunk >= 1:
                for start in range(0, n, chunk):
                    candidate = copy.deepcopy(self.spec)
                    target = _stmt_lists(candidate)[list_index]
                    if start >= len(target):
                        continue
                    del target[start:start + chunk]
                    if self._accept(candidate):
                        return True
                chunk //= 2
        return False

    def _simplify_one(self) -> bool:
        """Collapse an if, unwrap or shrink a loop, or shrink the
        outer loop's trip count."""
        lists = _stmt_lists(self.spec)
        for list_index, stmts in enumerate(lists):
            for position, stmt in enumerate(stmts):
                for replacement in _replacements(stmt):
                    candidate = copy.deepcopy(self.spec)
                    target = _stmt_lists(candidate)[list_index]
                    target[position:position + 1] = copy.deepcopy(replacement)
                    if self._accept(candidate):
                        return True
        if self.spec.outer_trips > 1:
            candidate = copy.deepcopy(self.spec)
            candidate.outer_trips = 1
            if self._accept(candidate):
                return True
        return False

    def _cleanup_one(self) -> bool:
        """Drop a helper or global scalar no remaining statement uses."""
        body_text = render(self.spec)
        for helper in self.spec.helpers:
            # render() emits the definition itself once: "int h0(int a…".
            if body_text.count(f"{helper.name}(") <= 1:
                candidate = copy.deepcopy(self.spec)
                candidate.helpers = [
                    h for h in candidate.helpers if h.name != helper.name
                ]
                if self._accept(candidate):
                    return True
        for scalar in self.spec.scalars:
            if body_text.count(scalar) <= 2:  # decl + final fold only
                candidate = copy.deepcopy(self.spec)
                candidate.scalars = [s for s in candidate.scalars if s != scalar]
                if self._accept(candidate):
                    return True
        return False

    def run(self) -> ReduceResult:
        progress = True
        while progress:
            progress = (
                self._remove_one()
                or self._simplify_one()
                or self._cleanup_one()
            )
        obs.counter("fuzz.reduce.steps").inc(self.steps)
        obs.counter("fuzz.reduce.tests").inc(self.tests)
        return ReduceResult(
            spec=self.spec, source=render(self.spec),
            steps=self.steps, tests=self.tests,
        )


def _replacements(stmt: Stmt) -> List[List[Stmt]]:
    """Smaller stand-ins for one statement, most aggressive first."""
    options: List[List[Stmt]] = []
    if isinstance(stmt, If):
        options.append(list(stmt.body))        # keep then-arm only
        if stmt.orelse:
            options.append(list(stmt.orelse))  # keep else-arm only
    elif isinstance(stmt, Loop):
        # Unwrap: body once, loop variable kept as a plain declaration
        # so body expressions referencing it stay well-formed.
        options.append([Leaf(f"int {stmt.var} = 0;")] + list(stmt.body))
        if stmt.trips > 1:
            shrunk = Loop(stmt.var, 1, list(stmt.body), style=stmt.style)
            options.append([shrunk])
    return options


def reduce_spec(spec: ProgramSpec, predicate: Predicate) -> ReduceResult:
    """Shrink ``spec`` while ``predicate(source)`` stays true.

    ``predicate(render(spec))`` must hold on entry — reducing a
    non-failing program is a caller bug and raises ``ValueError``.
    """
    if not predicate(render(spec)):
        raise ValueError("reduce_spec: the input program does not satisfy "
                         "the failure predicate")
    return _Reducer(spec, predicate).run()


def reduce_program(
    program: GeneratedProgram, predicate: Predicate
) -> ReduceResult:
    """Convenience wrapper over :func:`reduce_spec`."""
    return reduce_spec(program.spec, predicate)


def failure_predicate(
    oracles: Tuple[str, ...],
    multi_fault: bool = True,
    max_forced: Optional[int] = None,
) -> Predicate:
    """A predicate that holds iff the candidate fails *exactly* the
    given set of oracles (the original failure's signature), so
    reduction never wanders onto a different bug."""
    from repro.fuzz.oracle import check_source

    signature = tuple(sorted(set(oracles)))

    def predicate(source: str) -> bool:
        report = check_source(
            source, multi_fault=multi_fault, max_forced=max_forced
        )
        return report.failed_oracles == signature

    return predicate
