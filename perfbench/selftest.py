"""Self-test: a run whose every output check fails still prints its result.

    python3 perfbench/selftest.py [workload ...]

Runs each named workload (by default ``compile`` and ``recampaign``, the
quick ones) untraced and traced for one second, with every operation's
check forced to fail, and asserts that the last line of standard output
is a result with ``correct`` false, every failed operation counted and
every metric of ``BENCHMARK.json`` present.  Prints one line per run and
exits with status 1 when any result is missing or wrong.
"""

import contextlib
import io
import json
import sys
from unittest import mock

import run

sys.path.insert(0, run.SRC)

import suite  # noqa: E402


def _failing(workload_class):
    """Patch ``run_pass`` of ``workload_class`` to fail every operation."""
    original = workload_class.run_pass

    def run_pass(self, probes):
        ops = original(self, probes)
        for op in ops:
            op.failure = "forced failure"
        return ops

    return mock.patch.object(workload_class, "run_pass", run_pass)


def check(workload: str, trace: int) -> str:
    """Empty when the forced-failure run printed a proper result."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace)]
    try:
        with _failing(suite.WORKLOADS[workload]), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = run.main(argv)
    except Exception as error:  # the failure this test exists to report
        return f"raised {error!r}"
    if status != 0:
        return f"exited with {status}"
    lines = out.getvalue().strip().splitlines()
    if not lines:
        return "printed no result"
    result = json.loads(lines[-1])
    spec = run._spec("per_layer" if trace else "end_to_end")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"result keys {sorted(result)}"
    if result["correct"] or result["failed"] < 1:
        return f"failures not reported: {lines[-1]}"
    # the traced run also counts the compile-coverage check, which passes
    if result["attempted"] - result["failed"] > trace:
        return f"{result['attempted'] - result['failed']} operations passed"
    if sorted(result["metrics"]) != sorted(m["name"] for m in spec):
        return "metrics differ from BENCHMARK.json"
    return ""


def main(argv) -> int:
    problems = 0
    for workload in argv or ["compile", "recampaign"]:
        for trace in (0, 1):
            problem = check(workload, trace)
            problems += bool(problem)
            print(f"{workload} --trace {trace}: {problem or 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
