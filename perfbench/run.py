"""The repository's benchmark: one workload per invocation, closed loop.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 8 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's ``src/``; without it the benchmark exits with status 2 and
prints no result.  Workloads are in ``suite.py``; metric names and units
come from ``BENCHMARK.json`` beside ``src/``; every duration is in
reference seconds (``clock.py``).

One process runs one workload, single-threaded, one operation at a time.
Set-up (imports, builds, interpreter references, store pre-fill,
warm-up) runs in this process and, to report ``setup_s`` as a median, in
``EXTRA_SETUPS`` fresh child processes, one after the other, that stop
after set-up.  Passes of the workload's timed work then repeat until
``--seconds`` have passed (always at least one whole pass).

``--trace 0`` measures the end-to-end metrics with no layer timer
installed, and asserts before every pass that the global ``repro.obs``
observer is disabled.  ``--trace 1`` sets up with the layer timers of
``probes.py`` installed, runs untraced passes for half of ``--seconds``
and then as many traced passes, fails every traced operation whose
output differs from its untraced twin, and prints the per-layer metrics.
The last line of standard output is the JSON result.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402

from clock import Clock  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Set-ups in child processes, besides this process's own.
EXTRA_SETUPS = 2

#: Largest share of traced compile time that no compile layer may cover.
COVERAGE_TOLERANCE = 0.10

#: Seconds a child set-up may take before it counts as hung.
CHILD_TIMEOUT_S = 150


def main(argv=None) -> int:
    clock = Clock()
    clock.start()
    try:
        return _main(argv, clock)
    finally:
        clock.stop()


def _main(argv, clock: Clock) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("compile", "simulate", "campaign", "recampaign"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up measurements, exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from repro.obs.context import Observer, set_observer

    set_observer(Observer(enabled=False))
    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    try:
        import suite

        workload = suite.WORKLOADS[args.workload](args.seed, scratch, clock)
        if args.setup_only:
            report = _setup(workload, clock)
        elif args.trace:
            report = _traced(workload, args, clock)
        else:
            report = _untraced(workload, args, clock)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass
    clock.stop()
    print(json.dumps(report))
    return 0


def _spec(section: str) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)[section]


def _setup(workload, clock: Clock) -> dict:
    """Set the workload up; its measurements plus ``setup_s`` from process start."""
    sample = workload.setup()
    sample["setup_s"] = clock.seconds(_START, time.perf_counter())
    return sample


def _child_setup(args) -> dict:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"child set-up exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _assert_untraced() -> None:
    """The observer-off guard: end-to-end numbers never include tracing."""
    from repro.obs.context import get_observer

    if get_observer().enabled:
        raise RuntimeError("an untraced pass would run with the observer tracing")


def _passes(workload, seconds: float = 0.0, probes=None, count: int = 0):
    """Run passes for ``seconds`` (at least one), or exactly ``count``."""
    passes = []
    start = time.perf_counter()
    while not passes or (len(passes) < count if count
                         else time.perf_counter() - start < seconds):
        if probes is None:
            _assert_untraced()
        passes.append(workload.run_pass(probes))
    return passes


def _mark_divergent(reference, passes, what: str) -> None:
    """Fail every op whose output differs from the same op in ``reference``."""
    expected = {op.key: op.output for op in reference}
    for ops in passes:
        for op in ops:
            if not op.failure and op.output != expected.get(op.key):
                op.failure = f"output differs from the {what}"


def _tally(passes, name: str):
    ops = [op for ops in passes for op in ops]
    for op in ops:
        if op.failure:
            print(f"perfbench: {name} {op.key}: {op.failure}", file=sys.stderr)
    return len(ops), sum(1 for op in ops if op.failure)


def _result(spec: list, values: dict, attempted: int, failed: int) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec
        },
    }


def _untraced(workload, args, clock: Clock) -> dict:
    samples = [_setup(workload, clock)]
    clock.stop()  # the children run alone
    samples += [_child_setup(args) for _ in range(EXTRA_SETUPS)]
    clock.start()
    passes = _passes(workload, args.seconds)
    _mark_divergent(passes[0], passes[1:], "first pass")
    attempted, failed = _tally(passes, workload.name)
    values = workload.end_to_end(passes, samples)
    values["setup_s"] = statistics.median(s["setup_s"] for s in samples)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    spec = _spec("end_to_end")
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise RuntimeError(f"workload {workload.name} did not measure {missing}")
    return _result(spec, values, attempted, failed)


def _traced(workload, args, clock: Clock) -> dict:
    import suite
    from probes import COMPILE_LAYERS, Probes, install

    probes = Probes(clock)
    with install(probes):
        sample = _setup(workload, clock)
    setup_probes = probes.snapshot()
    probes.reset()

    untraced = _passes(workload, args.seconds / 2)
    with install(probes):
        traced = _passes(workload, probes=probes, count=len(untraced))
    _mark_divergent(untraced[0], untraced[1:], "first pass")
    for reference, ops in zip(untraced, traced):
        _mark_divergent(reference, [ops], "untraced pass")
    attempted, failed = _tally(untraced + traced, workload.name)

    values = workload.layer_metrics(untraced)
    values["interp.run_s"] = sample["interp_s"]
    untraced_s = sum(suite.per_op(untraced).values())
    if untraced_s:
        values["bench.trace_overhead_frac"] = (
            sum(suite.per_op(traced).values()) / untraced_s - 1
        )

    # Compile-side layers per build of the compile set: measured on the
    # traced passes where compiling is the timed work, else on set-up.
    if workload.compiles_in_pass:
        compile_probes, builds = probes.snapshot(), len(traced)
    else:
        compile_probes, builds = setup_probes, workload.builds
    seconds = compile_probes["seconds"]
    for timer in COMPILE_LAYERS:
        values[f"{timer}_s"] = seconds.get(timer, 0.0) / builds
    for phase, total in compile_probes["core"].items():
        values[f"core.{phase}_s"] = total / builds
    busy = compile_probes["busy"]
    unattributed = 1 - sum(busy.get(t, 0.0) for t in COMPILE_LAYERS) / busy["compile"]
    values["compile.unattributed_frac"] = unattributed
    attempted += 1
    if abs(unattributed) > COVERAGE_TOLERANCE:
        failed += 1
        print(f"perfbench: compile layers leave {unattributed:.1%} of compile "
              f"time unattributed (tolerance {COVERAGE_TOLERANCE:.0%})",
              file=sys.stderr)
    values["failed_frac"] = failed / attempted
    values.update(_compile_counts(workload.pairs))
    values.update(_run_side(probes.snapshot(), probes.counts, len(traced)))
    values["obs.overhead_frac"] = _obs_overhead(suite.simulate, workload.obs_program, clock)
    values["bench.host_speed"] = clock.speed()
    return _result(_spec("per_layer"), values, attempted, failed)


def _compile_counts(pairs) -> dict:
    """Construction and codegen counts of one build of the compile set."""
    antideps = cuts = regions = spilled = instrs = 0
    for pair in pairs:
        for build in pair:
            instrs += build.static_instruction_count
            spilled += sum(s.spilled for s in build.alloc_stats.values())
            for result in build.construction.values():
                antideps += result.antidep_count
                cuts += result.total_boundaries
                regions += result.region_count
    return {"core.antideps": antideps, "core.cuts": cuts, "core.regions": regions,
            "codegen.static_instrs": instrs, "codegen.spilled": spilled}


def _run_side(snapshot: dict, counts: dict, passes: int) -> dict:
    """Simulator, fault and harness layers, per pass of the timed work."""
    seconds = defaultdict(float, snapshot["seconds"])
    calls = defaultdict(int, snapshot["calls"])

    def mean(timer):
        return seconds[timer] / calls[timer] if calls[timer] else 0.0

    values = {
        "sim.init_s": mean("sim.init"),
        "faults.trial_s": mean("faults.trial"),
        "faults.trials": calls["faults.trial"] / passes,
        "harness.store_gets": calls["harness.store_get"] / passes,
        "harness.store_puts": calls["harness.store_put"] / passes,
    }
    for timer in ("sim.run", "faults.span", "recovery.checkpoint_log.instrument",
                  "harness.trace", "harness.plan", "harness.inject",
                  "harness.compose", "harness.store_get", "harness.store_put"):
        values[f"{timer}_s"] = seconds[timer] / passes
    for name in ("sim.instructions", "sim.cycles", "sim.boundaries",
                 "faults.injected", "faults.detected", "faults.trial_instrs"):
        values[name] = counts[name] / passes
    for backend in ("idempotent", "checkpoint_log", "tmr"):
        values[f"recovery.{backend}.trial_s"] = mean(f"recovery.{backend}.trial")
    if calls["harness.store_get"]:
        values["harness.store_hit_frac"] = (
            counts["harness.store_hits"] / calls["harness.store_get"]
        )
    if seconds["faults.span"] and seconds["faults.trial"]:
        fault_free = counts["faults.span_instrs"] / seconds["faults.span"]
        in_trial = counts["faults.trial_instrs"] / seconds["faults.trial"]
        values["faults.hook_overhead"] = fault_free / in_trial
    return values


def _obs_overhead(simulate, program, clock: Clock) -> float:
    """Cost of the repo's own tracing: one program run with the global
    observer tracing vs disabled, alternating, at least 0.5 s a side."""
    from repro.obs.context import Observer, set_observer

    reps = max(2, math.ceil(0.5 / simulate(program, clock).seconds))
    times = {True: [], False: []}
    for _ in range(reps):
        for enabled in (True, False):
            previous = set_observer(Observer(enabled=enabled))
            try:
                times[enabled].append(simulate(program, clock).seconds)
            finally:
                set_observer(previous)
    return statistics.median(times[True]) / statistics.median(times[False]) - 1


if __name__ == "__main__":
    sys.exit(main())
