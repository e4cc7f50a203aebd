"""The four workloads of the benchmark.

Each workload drives the program only through public functions, builds
its inputs from the seed, and checks every output.  One *pass* is the
workload's unit of timed work; ``run.py`` repeats passes for the run's
time budget.  Every workload also builds a *compile set* (the programs it
compiles, both flavours) and simulates some of its programs fault-free,
so the compile- and simulator-side end-to-end metrics exist on all four:
where that work is not the timed work, it is timed during set-up.

Why these workloads:

- ``compile``: every suite program plus a seeded draw of generated
  programs keeps the compile-side layers (frontend, transforms, core, ir,
  codegen) busy and the simulator idle.  The generated programs add many
  small functions, which exposes per-program fixed costs.
- ``simulate``: fault-free runs of ``FAST_SUBSET`` (two programs per
  suite), the programs of ``BENCH_baseline.json``, so its rows stay
  comparable.  The simulator does all the timed work: no injector hooks,
  no outcome store, no compile.
- ``campaign``: monolithic campaigns through ``RecoveryBackend.campaign``,
  the path of ``repro campaign`` and Fig. 12, with Fig. 12's six trials
  per campaign: every backend and both fault kinds on blackscholes, the
  cheapest suite program.  Each trial is a full re-run with hooks, the
  cost that ``simulate`` cannot show.
- ``recampaign``: ``incremental_campaign`` on the two-function kernel of
  ``repro.bench.campaign_cache`` against a pre-filled outcome store: a
  warm compose that only reads, then an edited compose (``mix_b``
  changed) that re-injects and writes that function's sections.  It is
  the only workload where the harness store, plan, compose and trace
  steps are a visible share.
"""

from __future__ import annotations

import math
import random
import shutil
import statistics
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import repro.compiler as compiler
import repro.sim.simulator as simulator
from repro.bench.campaign_cache import BASE_SOURCE, EDITED_FUNCTION
from repro.bench.runner import FAST_SUBSET
from repro.frontend import compile_source
from repro.fuzz.generator import generate
from repro.harness.incremental import (
    SECTION_CACHED,
    OutcomeStore,
    incremental_campaign,
    region_owner,
)
from repro.interp.interpreter import run_module
from repro.recovery.backends import BACKEND_NAMES, get_backend
from repro.sim.faults import FAULT_CONTROL, FAULT_VALUE, fault_campaign
from repro.workloads import all_workloads, get_workload

from clock import Clock
from probes import Probes, TimedStore

FLAVOURS = ("original", "idempotent")

#: Generated programs in the compile set.  With the 19 suite programs a
#: warm pass takes about 1.5 s.
GENERATED_PROGRAMS = 16

#: Candidates drawn per generated program kept.  Sorted by size, one of
#: each run of this many is kept: a random draw of 16 alone moved the
#: pass time by 15% from seed to seed, against 5% between repeats of
#: one seed.
DRAW_STRATA = 4

#: Where compiling is not the timed work, set-up builds the compile set
#: until this many seconds are spent (at least twice); ``compile_s`` there
#: is the median build.
BUILD_SECONDS = 1.0

#: Program of the campaign workload: the cheapest of the suite.  A second
#: program (bzip2, the next cheapest) would add 25 s to every run.
CAMPAIGN_PROGRAM = "blackscholes"

#: Trials per campaign, as Fig. 12 runs them (``DEFAULT_TRIALS`` of
#: ``repro.experiments.fig12_recovery``): each campaign's fault-free
#: baseline run is one run in seven, as there.
CAMPAIGN_TRIALS = 6

#: (backend, fault kind) of the campaigns of one pass.
CAMPAIGNS = tuple(
    (backend, kind) for backend in BACKEND_NAMES for kind in (FAULT_VALUE, FAULT_CONTROL)
)

#: Trial budget and campaign seed of the recampaign kernel, as in
#: ``BENCH_campaign_cache.json``.  The seed is fixed so that every edit
#: re-injects the same trials: the run's seed picks the edit instead.
KERNEL_TRIALS = 48
KERNEL_SEED = 20126

#: The statement of ``mix_b`` whose multiplier the edit changes.  Any odd
#: multiplier keeps the dynamic shape: same instructions, same branches.
KERNEL_EDIT_SITE = "v = v + i * 13;"

#: Store scope of the kernel: the same for base and edit, so the edit
#: exercises per-function staleness.
KERNEL_NAME = "perfbench-kernel"

#: Fault-free runs of the kernel per flavour and variant in set-up (one
#: run is only ~8k instructions).
KERNEL_SIM_REPS = 8


class SetupError(RuntimeError):
    """A set-up check failed: the workload has no valid reference."""


@dataclass
class Op:
    """One timed operation and the result of its output check."""

    key: str
    seconds: float
    failure: str = ""
    output: object = None
    stats: Dict[str, object] = field(default_factory=dict)


@dataclass
class Run:
    """One fault-free simulation."""

    result: object
    output: list
    instructions: int
    cycles: int
    seconds: float


def build_pair(source: str, name: str):
    """(original, idempotent) builds, verify on, no artifact cache."""
    return (
        compiler.compile_minic(source, idempotent=False, name=name),
        compiler.compile_minic(source, idempotent=True, name=name),
    )


def listing(pair) -> str:
    return "".join(compiler.format_asm_listing(build) for build in pair)


def simulate(program, clock: Clock) -> Run:
    def run():
        sim = simulator.Simulator(program)
        return sim, sim.run("main")

    (sim, result), seconds = clock.timed(run)
    return Run(result, list(sim.output), sim.instructions, sim.cycles, seconds)


def interpret(source: str, name: str) -> Tuple[object, list]:
    """The IR interpreter's (result, output): the oracle for every binary."""
    result, output = run_module(compile_source(source, name))
    return result, list(output)


def mismatch(run: Run, expected: Tuple[object, list], what: str) -> str:
    if (run.result, run.output) == expected:
        return ""
    return f"{what}: result {run.result!r} differs from the interpreter's {expected[0]!r}"


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def rate(amount: float, seconds: float) -> float:
    """``amount`` per second; 0 when no operation passed its check, so
    that none was timed."""
    return amount / seconds if seconds else 0.0


def per_op(passes: List[List[Op]], field_name: str = "") -> Dict[str, float]:
    """Median seconds per op key over the passes (``stats[field_name]`` if
    given); failed ops are left out, never timed."""
    samples: Dict[str, List[float]] = {}
    for ops in passes:
        for op in ops:
            if not op.failure:
                seconds = op.stats[field_name] if field_name else op.seconds
                samples.setdefault(op.key, []).append(seconds)
    return {key: statistics.median(values) for key, values in samples.items()}


def code_size(pairs) -> int:
    return sum(build.static_instruction_count for pair in pairs for build in pair)


class Workload:
    """A seeded workload: ``setup`` once, then ``run_pass`` repeatedly."""

    name = ""
    #: whether the timed work compiles (else the compile set is built in set-up)
    compiles_in_pass = False

    def __init__(self, seed: int, scratch: str, clock: Clock) -> None:
        self.seed = seed
        self.scratch = scratch
        self.clock = clock
        #: (original, idempotent) builds of the compile set
        self.pairs: list = []
        #: (original cycles, idempotent cycles) per program run both ways
        self.cycles: List[Tuple[int, int]] = []
        #: builds of the compile set in set-up
        self.builds = 1

    def setup(self) -> Dict[str, float]:
        """Build inputs and references; returns this set-up's measurements."""
        raise NotImplementedError

    def run_pass(self, probes: Optional[Probes]) -> List[Op]:
        raise NotImplementedError

    @property
    def obs_program(self):
        """The fault-free program the repo-tracing overhead is measured on."""
        raise NotImplementedError

    def end_to_end(self, passes: List[List[Op]], samples: List[dict]) -> dict:
        """``pass_s``, ``compile_s``, ``sim_instr_per_s`` and the exact counts."""
        metrics = {
            "pass_s": sum(per_op(passes).values()),
            "code_size_instrs": code_size(self.pairs),
            "idem_cycle_overhead": geomean([i / o for o, i in self.cycles]),
        }
        if not self.compiles_in_pass:
            metrics["compile_s"] = statistics.median(s["build_s"] for s in samples)
        if "sim_s" in samples[0]:
            metrics["sim_instr_per_s"] = statistics.median(
                s["sim_instrs"] / s["sim_s"] for s in samples
            )
        return metrics

    def layer_metrics(self, passes: List[List[Op]]) -> dict:
        """Per-layer numbers read off this workload's own results."""
        return {}

    def _build_reps(self, build) -> float:
        """Build the compile set for ``BUILD_SECONDS``; median seconds."""
        times = []
        while len(times) < 2 or sum(times) < BUILD_SECONDS:
            self.pairs, seconds = self.clock.timed(build)
            times.append(seconds)
        self.builds = len(times)
        return statistics.median(times)


class CompileWorkload(Workload):
    name = "compile"
    compiles_in_pass = True

    def setup(self):
        seeds = random.Random(self.seed).sample(
            range(1 << 20), GENERATED_PROGRAMS * DRAW_STRATA
        )
        by_size = sorted((len(p.source), p.seed, p.source) for p in map(generate, seeds))
        self.programs = [(w.name, w.source) for w in all_workloads()]
        self.programs += [(f"gen{seed}", source)
                          for _, seed, source in by_size[1::DRAW_STRATA]]
        self.expected, interp_s = self.clock.timed(lambda: {
            name: interpret(source, name)
            for name, source in self.programs if name.startswith("gen")
        })
        # Warm-up pass; its listings are the reference of every later pass.
        self.pairs = [build_pair(source, name) for name, source in self.programs]
        builds = {name: pair for (name, _), pair in zip(self.programs, self.pairs)}
        self.listings = {name: listing(pair) for name, pair in builds.items()}
        # idem_cycle_overhead: the generated programs that the passes run
        # are drawn by the seed, so their cycles would make it seed-bound.
        # The recampaign kernel is fixed and runs in milliseconds.
        self._kernel = build_pair(BASE_SOURCE, KERNEL_NAME)
        original, idempotent = (simulate(b.program, self.clock) for b in self._kernel)
        if (original.result, original.output) != (idempotent.result, idempotent.output):
            raise SetupError("kernel: the two flavours disagree")
        self.cycles = [(original.cycles, idempotent.cycles)]
        return {"interp_s": interp_s}

    @property
    def obs_program(self):
        return self._kernel[1].program

    def run_pass(self, probes):
        ops = []
        for name, source in self.programs:
            pair, seconds = self.clock.timed(build_pair, source, name)
            text = listing(pair)
            failure = "" if text == self.listings[name] else "listing differs from the warm-up build"
            stats = {}
            runs = []
            if name in self.expected:
                runs = [simulate(build.program, self.clock) for build in pair]
                for flavour, run in zip(FLAVOURS, runs):
                    failure = failure or mismatch(run, self.expected[name], flavour)
                stats = {
                    "sim_instrs": sum(r.instructions for r in runs),
                    "sim_s": sum(r.seconds for r in runs),
                }
            output = (text, [(r.result, r.output) for r in runs])
            ops.append(Op(name, seconds, failure, output, stats))
        return ops

    def end_to_end(self, passes, samples):
        metrics = super().end_to_end(passes, samples)
        metrics["compile_s"] = metrics["pass_s"]
        # Code size of the suite programs: the generated ones are there to
        # load the compiler, and their draw would make the count seed-bound.
        metrics["code_size_instrs"] = code_size(self.pairs[:len(all_workloads())])
        checked = [op for op in passes[0] if op.stats]
        sim_s = per_op([[op for op in ops if op.stats] for ops in passes], "sim_s")
        metrics["sim_instr_per_s"] = rate(
            sum(op.stats["sim_instrs"] for op in checked if op.key in sim_s),
            sum(sim_s.values()),
        )
        return metrics


class SimulateWorkload(Workload):
    name = "simulate"

    def setup(self):
        sources = {name: get_workload(name).source for name in FAST_SUBSET}
        build_s = self._build_reps(
            lambda: [build_pair(src, name) for name, src in sources.items()]
        )
        self.binaries = {
            (name, flavour): build.program
            for name, pair in zip(sources, self.pairs)
            for flavour, build in zip(FLAVOURS, pair)
        }
        self.expected, interp_s = self.clock.timed(lambda: {
            name: interpret(src, name) for name, src in sources.items()
        })
        # The seed fixes the order of the twelve runs.
        self.order = sorted(self.binaries)
        random.Random(self.seed).shuffle(self.order)
        return {"build_s": build_s, "interp_s": interp_s}

    @property
    def obs_program(self):
        return self.binaries[("bzip2", "idempotent")]

    def run_pass(self, probes):
        ops = []
        for name, flavour in self.order:
            run = simulate(self.binaries[(name, flavour)], self.clock)
            ops.append(Op(
                f"{name}/{flavour}", run.seconds,
                mismatch(run, self.expected[name], flavour),
                (run.result, run.output, run.instructions, run.cycles),
                {"program": name, "instrs": run.instructions, "cycles": run.cycles},
            ))
        if not self.cycles:
            cycles = {(op.stats["program"], op.key.partition("/")[2]): op.stats["cycles"]
                      for op in ops}
            self.cycles = [(cycles[(n, "original")], cycles[(n, "idempotent")])
                           for n in FAST_SUBSET]
        return ops

    def end_to_end(self, passes, samples):
        metrics = super().end_to_end(passes, samples)
        instrs = sum(op.stats["instrs"] for op in passes[0] if not op.failure)
        metrics["sim_instr_per_s"] = rate(instrs, metrics["pass_s"])
        return metrics

    def layer_metrics(self, passes):
        seconds = per_op(passes)
        instrs = {op.key: op.stats["instrs"] for op in passes[0]}
        metrics = {}
        for name in FAST_SUBSET:
            keys = [f"{name}/{flavour}" for flavour in FLAVOURS]
            if all(key in seconds for key in keys):
                total = sum(instrs[key] for key in keys)
                metrics[f"sim.instructions.{name}"] = total
                metrics[f"sim.instr_per_s.{name}"] = total / sum(seconds[k] for k in keys)
        return metrics


class _ReferencedWorkload(Workload):
    """A workload whose programs are built and run fault-free in set-up."""

    def _reference_runs(self, sources: Dict[str, str], reps: int) -> dict:
        """Interpreter references plus ``reps`` fault-free runs of both
        flavours; simulator speed is taken from the median of the reps."""
        self.expected, interp_s = self.clock.timed(lambda: {
            name: interpret(src, name) for name, src in sources.items()
        })
        instrs = seconds = 0
        self.cycles = []
        for name, pair in zip(sources, self.pairs):
            cycles = []
            for flavour, build in zip(FLAVOURS, pair):
                runs = [simulate(build.program, self.clock) for _ in range(reps)]
                problem = mismatch(runs[0], self.expected[name], f"{name} {flavour}")
                if problem:
                    raise SetupError(problem)
                instrs += runs[0].instructions
                seconds += statistics.median(run.seconds for run in runs)
                cycles.append(runs[0].cycles)
            self.cycles.append(tuple(cycles))
        return {"interp_s": interp_s, "sim_instrs": instrs, "sim_s": seconds}


class CampaignWorkload(_ReferencedWorkload):
    name = "campaign"

    def setup(self):
        sources = {CAMPAIGN_PROGRAM: get_workload(CAMPAIGN_PROGRAM).source}
        build_s = self._build_reps(
            lambda: [build_pair(src, name) for name, src in sources.items()]
        )
        sample = self._reference_runs(sources, reps=1)
        self.backends = {name: get_backend(name) for name in BACKEND_NAMES}
        sample["build_s"] = build_s
        return sample

    @property
    def obs_program(self):
        return self.pairs[0][1].program

    def run_pass(self, probes):
        ops = []
        (original, idempotent), = self.pairs
        for backend, kind in CAMPAIGNS:
            if probes:
                probes.backend = backend
            result, seconds = self.clock.timed(
                self.backends[backend].campaign, original.program,
                idempotent.program, *self.expected[CAMPAIGN_PROGRAM],
                trials=CAMPAIGN_TRIALS, kind=kind, seed=self.seed,
            )
            ops.append(Op(
                f"{backend}/{kind}", seconds,
                bucket_problem(result), asdict(result),
                {"backend": backend,
                 # the fault-free baseline run counts as a trial
                 "trials": result.trials + 1,
                 "injected": result.injected,
                 "recovered": result.recovered_correctly},
            ))
        if probes:
            probes.backend = ""
        return ops

    def layer_metrics(self, passes):
        ops = [op for p in passes for op in p if not op.failure]
        metrics = {
            "trials_per_s": rate(sum(op.stats["trials"] for op in ops),
                                 sum(op.seconds for op in ops)),
            "recovered_frac": _recovered(ops),
        }
        for backend in BACKEND_NAMES:
            own = [op for op in ops if op.stats["backend"] == backend]
            metrics[f"recovery.{backend}.recovered_frac"] = _recovered(own)
        return metrics


def _recovered(ops: List[Op]) -> float:
    injected = sum(op.stats["injected"] for op in ops)
    return sum(op.stats["recovered"] for op in ops) / injected if injected else 0.0


def bucket_problem(result) -> str:
    """Empty when the buckets are disjoint and cover every injected trial."""
    buckets = (result.recovered_correctly + result.wrong_result
               + result.crashed + result.undetected)
    if result.trials != CAMPAIGN_TRIALS:
        return f"ran {result.trials} trials, not {CAMPAIGN_TRIALS}"
    if buckets != result.injected:
        return f"buckets hold {buckets} trials, not the {result.injected} injected"
    if not 0 <= result.detected <= result.injected <= result.trials:
        return f"inconsistent counts: {result}"
    return ""


class RecampaignWorkload(_ReferencedWorkload):
    name = "recampaign"

    def setup(self):
        # The seed picks the edit: a new odd multiplier for mix_b.
        multiplier = random.Random(self.seed).choice(range(15, 129, 2))
        edited = BASE_SOURCE.replace(KERNEL_EDIT_SITE, f"v = v + i * {multiplier};")
        sources = {"base": BASE_SOURCE, "edited": edited}
        build_s = self._build_reps(
            lambda: [build_pair(src, name) for name, src in sources.items()]
        )
        sample = self._reference_runs(sources, reps=KERNEL_SIM_REPS)
        sample["build_s"] = build_s
        (base_orig, base_idem), _ = self.pairs
        self.monolithic = asdict(fault_campaign(
            base_idem.program, *self.expected["base"],
            trials=KERNEL_TRIALS, seed=KERNEL_SEED,
        ))
        # Pre-fill the store with the base program (a cold compose).
        self.template = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        cold = self._compose("base", OutcomeStore(root=self.template))
        if asdict(cold.result) != self.monolithic:
            raise SetupError("cold compose differs from the monolithic campaign")
        return sample

    @property
    def obs_program(self):
        return self.pairs[0][1].program

    def _compose(self, variant: str, store: OutcomeStore):
        original, idempotent = self.pairs[variant == "edited"]
        return incremental_campaign(
            original.program, idempotent.program, *self.expected[variant],
            trials=KERNEL_TRIALS, seed=KERNEL_SEED, name=KERNEL_NAME, store=store,
        )

    def run_pass(self, probes):
        root = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        try:
            shutil.copytree(self.template, root, dirs_exist_ok=True)
            store = TimedStore(root, probes) if probes else OutcomeStore(root=root)
            (warm, edited), seconds = self.clock.timed(
                lambda: (self._compose("base", store), self._compose("edited", store))
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)
        failure = recompose_problem(warm, edited, self.monolithic)
        output = (asdict(warm.result), asdict(edited.result),
                  [(s.region, s.status) for s in edited.sections])
        sections = len(warm.sections) + len(edited.sections)
        reinjected = warm.sections_reinjected + edited.sections_reinjected
        return [Op("recompose", seconds, failure, output,
                   {"sections": sections, "reinjected": reinjected})]

    def layer_metrics(self, passes):
        ops = [op for p in passes for op in p if not op.failure]
        if not ops:
            return {}
        return {
            "recompose_s": statistics.median(op.seconds for op in ops),
            "harness.sections": ops[0].stats["sections"],
            "harness.sections_reinjected": ops[0].stats["reinjected"],
        }


def recompose_problem(warm, edited, monolithic: dict) -> str:
    """Empty when the warm compose is bit-identical to the monolithic
    campaign and the edit re-injected only sections of the edited function."""
    if asdict(warm.result) != monolithic:
        return "warm compose differs from the monolithic campaign"
    if warm.trials_injected or warm.sections_reinjected:
        return f"warm compose injected {warm.trials_injected} trials"
    stale = [s.region for s in edited.sections if s.status != SECTION_CACHED]
    if not stale:
        return f"edit re-injected nothing of {EDITED_FUNCTION}"
    owners = {region_owner(region, "main") for region in stale}
    if owners != {EDITED_FUNCTION}:
        return f"edit re-injected sections of {sorted(owners)}"
    return ""


WORKLOADS = {
    cls.name: cls
    for cls in (CompileWorkload, SimulateWorkload, CampaignWorkload, RecampaignWorkload)
}
