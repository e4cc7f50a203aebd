"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``compile FILE``    — compile MiniC and dump IR or machine code
- ``run FILE``        — compile and execute on the machine simulator
- ``regions FILE``    — region construction report for each function
- ``faults FILE``     — fault-injection campaign against both binaries
- ``experiment NAME`` — regenerate a paper figure/table (fig4, fig8,
  fig9, fig10, fig12, table2, or ``all``), with ``--jobs N`` sharding
  and the persistent artifact cache (``--no-cache`` to bypass)
- ``campaign``        — suite-wide fault-injection campaign: one unit per
  workload and label, composed from the per-region sections of the
  outcome store so only missing sections inject; resumable via a
  JSON-lines manifest; ``--flavours``/``--backends`` select which
  binaries and recovery backends to campaign
- ``recovery``        — recovery-strategy zoo: idempotence vs TMR vs
  checkpoint-and-log under one interface — per-backend dynamic overhead
  and fault-campaign buckets, per-region predicted-vs-measured recovery
  from the static outcome predictor, and ``--hunt`` for minimized
  predictor-divergence reproducers (``docs/recovery.md``)
- ``fuzz``            — differential fuzzing: seeded program generation,
  interpreter/simulator differential + exhaustive re-execution +
  multi-fault oracles, delta-debugged reproducers (``docs/fuzzing.md``)
- ``stats``           — validate and summarize emitted trace/metrics files
- ``workloads``       — list the benchmark suite

``repro --version`` prints the package version.

The ``experiment`` and ``campaign`` commands print a telemetry summary
(wall time, per-phase breakdown, cache effectiveness) to stderr, so
stdout stays byte-identical across serial, parallel, and warm-cache
invocations.  They also take resilience flags — ``--retries N``
(re-execute transiently failed units with deterministic backoff) and
``--unit-timeout SECONDS`` (kill hung units and rebuild the pool; see
``docs/harness.md``) — and the observability flags ``--profile
out.trace.json`` (Chrome ``trace_event`` profile of the whole pipeline —
open in chrome://tracing or Perfetto), ``--metrics out.metrics.json``
(flat dump of every counter/gauge/histogram), and ``--stats`` (human
metrics table on stderr); none of these change stdout by a single byte.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import List, Optional

from repro import repro_version
from repro.compiler import compile_minic, format_asm_listing
from repro.core import ConstructionConfig, construct_module_regions
from repro.frontend import compile_source
from repro.ir import format_module
from repro.sim import Simulator
from repro.transforms import optimize_module


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _config_from_args(args) -> ConstructionConfig:
    return ConstructionConfig(
        heuristic=args.heuristic,
        unroll_self_dep=not args.no_unroll,
        max_region_size=args.max_region_size,
        trust_argument_noalias=args.trust_noalias,
    )


def _trial_count(text: str, minimum: int = 0) -> int:
    """argparse type of every ``--trials``, ``--latency`` and
    ``--retries``: a non-negative integer (``--max-forced``, ``--hunt``
    and ``--max-region-size`` bind ``minimum=1``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


def _seconds(text: str) -> float:
    """argparse type of ``--unit-timeout``: a positive, finite number of
    seconds (``inf`` would overflow the pool's wait)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be > 0 and finite, got {text}")
    return value


def _threshold(text: str) -> float:
    """argparse type of ``recovery --threshold``: a number >= 0 (NaN
    compares false with every divergence, so it would flag nothing)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be a number >= 0, got {text}")
    return value


def _split_names(value: Optional[str]) -> Optional[List[str]]:
    """Comma-separated CLI list → name list (None when empty/absent)."""
    if value is None:
        return None
    names = [name.strip() for name in value.split(",") if name.strip()]
    return names or None


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", metavar="FILE", default=None,
                        help="write a Chrome trace_event profile "
                             "(open in chrome://tracing or Perfetto)")
    parser.add_argument("--metrics", metavar="FILE", default=None,
                        help="write a JSON dump of every recorded metric")
    parser.add_argument("--stats", action="store_true",
                        help="print the metrics table to stderr at exit")


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--retries", type=_trial_count, default=None,
                        metavar="N",
                        help="re-execute transiently failed work units "
                             "(worker killed, timeout) up to N extra times "
                             "with deterministic exponential backoff; "
                             "exhausted units are quarantined in the manifest")
    parser.add_argument("--unit-timeout", type=_seconds, default=None,
                        metavar="SECONDS",
                        help="kill work units running longer than this; the "
                             "pool is rebuilt and surviving units resubmitted")


def _resilience_from_args(args):
    """(retry, unit_timeout) from the CLI flags (both may be None)."""
    from repro.harness.resilience import RetryPolicy

    retry = None
    if args.retries is not None:
        retry = RetryPolicy(max_attempts=args.retries + 1)
    return retry, args.unit_timeout


def _setup_obs(args) -> None:
    """Enable tracing before any work if a profile was requested."""
    if getattr(args, "profile", None):
        from repro.obs import get_observer

        get_observer().enable()


def _finalize_obs(args) -> None:
    """Write the requested trace/metrics artifacts (stderr notes only)."""
    from repro.obs import (
        format_stats_table,
        get_observer,
        write_chrome_trace,
        write_metrics_json,
    )

    observer = get_observer()
    if getattr(args, "profile", None):
        count = write_chrome_trace(args.profile, observer.tracer.spans())
        print(f"[obs] trace: {args.profile} ({count} events)", file=sys.stderr)
    if getattr(args, "metrics", None):
        count = write_metrics_json(args.metrics, observer.metrics.snapshot())
        print(f"[obs] metrics: {args.metrics} ({count} instruments)",
              file=sys.stderr)
    if getattr(args, "stats", False):
        print(format_stats_table(observer.metrics.snapshot()), file=sys.stderr)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--heuristic", choices=["loop", "coverage"], default="loop",
                        help="cut selection policy (paper §4.3)")
    parser.add_argument("--no-unroll", action="store_true",
                        help="disable the unroll-by-one enhancement (§5)")
    parser.add_argument("--max-region-size",
                        type=functools.partial(_trial_count, minimum=1),
                        default=None,
                        help="bound boundary-free path length (§6.2)")
    parser.add_argument("--trust-noalias", action="store_true",
                        help="assume distinct pointer args never alias (§8)")


def cmd_compile(args) -> int:
    source = _read_source(args.file)
    if args.emit == "ir":
        module = compile_source(source)
        if args.original:
            optimize_module(module)
        else:
            construct_module_regions(module, _config_from_args(args))
        print(format_module(module))
        return 0
    result = compile_minic(
        source,
        idempotent=not args.original,
        config=_config_from_args(args),
    )
    sys.stdout.write(format_asm_listing(result))
    return 0


def cmd_run(args) -> int:
    source = _read_source(args.file)
    result = compile_minic(
        source,
        idempotent=not args.original,
        config=_config_from_args(args),
    )
    sim = Simulator(result.program)
    value = sim.run("main")
    for item in sim.output:
        print(item)
    print(f"; result={value} instructions={sim.instructions} "
          f"cycles={sim.cycles} boundaries={sim.boundaries_crossed}",
          file=sys.stderr)
    return 0


def cmd_regions(args) -> int:
    source = _read_source(args.file)
    module = compile_source(source)
    results = construct_module_regions(module, _config_from_args(args))
    for name, result in results.items():
        print(f"@{name}:")
        print(f"  antidependences:   {result.antidep_count}")
        print(f"  hitting-set cuts:  {result.hitting_set_cut_count}")
        print(f"  call cuts:         {result.mandatory_cut_count}")
        if result.loop_report:
            print(f"  loop fixups:       {result.loop_report.forced_cuts} cuts, "
                  f"{result.loop_report.loops_unrolled} loops unrolled")
        print(f"  size-bound cuts:   {result.size_bound_cuts}")
        print(f"  regions:           {result.region_count} "
              f"(sizes {result.static_region_sizes})")
    return 0


def cmd_faults(args) -> int:
    from repro.sim.faults import fault_campaign, format_rate

    source = _read_source(args.file)
    idem = compile_minic(source, idempotent=True, config=_config_from_args(args))
    orig = compile_minic(source, idempotent=False)
    reference_sim = Simulator(idem.program, timed=False)
    reference = reference_sim.run("main")
    reference_output = list(reference_sim.output)
    print(f"fault-free result: {reference}")
    for label, program in (("idempotent", idem.program), ("original", orig.program)):
        campaign = fault_campaign(
            program, reference, reference_output,
            trials=args.trials, kind=args.kind,
        )
        print(f"{label:10s}: injected={campaign.injected} "
              f"recovered={campaign.recovered_correctly} "
              f"wrong={campaign.wrong_result} crashed={campaign.crashed} "
              f"({format_rate(campaign)} recovery)")
    return 0


def cmd_fuzz(args) -> int:
    from repro.fuzz import GEN_VERSION, format_fuzz_report, run_fuzz_campaign
    from repro.harness.report import Telemetry

    _setup_obs(args)
    retry, unit_timeout = _resilience_from_args(args)
    manifest_path = args.manifest
    if manifest_path is None and not args.no_manifest:
        tag = f"fuzz-g{GEN_VERSION}-seed{args.seed}-t{args.trials}"
        manifest_path = os.path.join(".repro-cache", "campaigns", f"{tag}.jsonl")
    if args.fresh and manifest_path and os.path.exists(manifest_path):
        os.unlink(manifest_path)
    telemetry = Telemetry(label="fuzz campaign")
    summary = run_fuzz_campaign(
        trials=args.trials,
        seed=args.seed,
        jobs=args.jobs,
        shrink=args.shrink,
        time_budget=args.time_budget,
        manifest_path=manifest_path,
        out_dir=args.out,
        multi_fault=not args.no_multi_fault,
        max_forced=args.max_forced,
        retry=retry,
        unit_timeout=unit_timeout,
        telemetry=telemetry,
    )
    print(format_fuzz_report(summary))
    telemetry.finish()
    if manifest_path:
        telemetry.note(f"manifest: {manifest_path}")
    print(telemetry.format_summary(), file=sys.stderr)
    _finalize_obs(args)
    return 0 if summary.ok else 1


def cmd_experiment(args) -> int:
    from repro import experiments
    from repro.experiments.common import configure
    from repro.harness.cache import default_cache
    from repro.harness.report import Telemetry

    _setup_obs(args)
    retry, unit_timeout = _resilience_from_args(args)
    configure(jobs=args.jobs, use_cache=not args.no_cache,
              retry=retry, unit_timeout=unit_timeout)
    telemetry = Telemetry(label=f"experiment {args.name}")
    names = args.workloads or None
    if args.name == "all":
        from repro.experiments.all_figures import run_all

        run_all(names, jobs=args.jobs, telemetry=telemetry)
    else:
        drivers = {
            "table2": experiments.table2_classification,
            "fig4": experiments.fig4_limit_study,
            "fig8": experiments.fig8_path_cdf,
            "fig9": experiments.fig9_avg_paths,
            "fig10": experiments.fig10_overheads,
            "fig12": experiments.fig12_recovery,
        }
        driver = drivers[args.name]
        print(driver.format_report(
            driver.run(names, jobs=args.jobs, telemetry=telemetry)
        ))
    telemetry.finish()
    telemetry.attach_cache(default_cache())
    print(telemetry.format_summary(), file=sys.stderr)
    _finalize_obs(args)
    return 0


def cmd_campaign(args) -> int:
    from repro.experiments.common import configure
    from repro.harness.cache import default_cache
    from repro.harness.campaign import (
        format_campaign_report,
        format_section_accounting,
        format_stale_report,
        run_fault_campaign,
    )
    from repro.harness.incremental import OutcomeStore
    from repro.harness.report import Telemetry

    _setup_obs(args)
    retry, unit_timeout = _resilience_from_args(args)
    configure(jobs=args.jobs, use_cache=not args.no_cache,
              retry=retry, unit_timeout=unit_timeout)
    flavours = _split_names(args.flavours)
    backends = _split_names(args.backends)
    manifest_path = args.manifest
    if manifest_path is None and not args.no_manifest:
        tag = (
            f"{args.kind}-seed{args.seed}-t{args.trials}-lat{args.latency}"
        )
        # Selection flags extend the tag so different subsets never share
        # a manifest; the no-flag tag stays byte-identical to before.
        if flavours:
            tag += "-fl" + "+".join(flavours)
        if backends:
            tag += "-be" + "+".join(backends)
        manifest_path = os.path.join(".repro-cache", "campaigns", f"{tag}.jsonl")
    if args.fresh and manifest_path and os.path.exists(manifest_path):
        os.unlink(manifest_path)
    telemetry = Telemetry(label="fault campaign")
    try:
        summary = run_fault_campaign(
            names=args.workloads or None,
            trials=args.trials,
            seed=args.seed,
            kind=args.kind,
            detection_latency=args.latency,
            jobs=args.jobs,
            manifest_path=manifest_path,
            telemetry=telemetry,
            retry=retry,
            unit_timeout=unit_timeout,
            flavours=flavours,
            backends=backends,
            # --no-cache is a from-scratch run: inject every section.
            store=OutcomeStore(enabled=False) if args.no_cache else None,
        )
    except ValueError as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return 2
    print(format_campaign_report(summary))
    # Section accounting goes to stderr so stdout is byte-identical
    # whether sections composed from the store or were injected.
    explain = format_stale_report if args.explain_stale else format_section_accounting
    print(explain(summary), file=sys.stderr)
    telemetry.finish()
    telemetry.attach_cache(default_cache())
    if manifest_path:
        telemetry.note(f"manifest: {manifest_path}")
    print(telemetry.format_summary(), file=sys.stderr)
    _finalize_obs(args)
    return 1 if summary.failed_units or summary.quarantined_units else 0


def cmd_recovery(args) -> int:
    from repro.recovery import format_compare_report, run_compare
    from repro.recovery.compare import hunt_divergence

    _setup_obs(args)
    backends = _split_names(args.backends)
    try:
        report = run_compare(
            names=args.workloads or None,
            backends=backends,
            trials=args.trials,
            seed=args.seed,
            kind=args.kind,
            latency=args.latency,
            threshold=args.threshold,
        )
    except (KeyError, ValueError) as exc:
        print(f"recovery error: {exc}", file=sys.stderr)
        return 2
    print(format_compare_report(report))
    if args.hunt:
        hunt = hunt_divergence(
            args.hunt,
            backend_name=report.backends[0],
            trials=args.trials,
            kind=args.kind,
            latency=args.latency,
            threshold=args.threshold,
            out_dir=os.path.join("examples", "regressions"),
        )
        print()
        print(f"hunt: worst divergence {hunt.worst_divergence:.3f} "
              f"(gen seed {hunt.worst_seed}) over {hunt.programs} programs")
        if hunt.reduced_path:
            print(f"hunt: minimized reproducer {hunt.reduced_path} "
                  f"({hunt.reduce_steps} reduction steps)")
        else:
            print(f"hunt: below threshold {args.threshold:.2f}; "
                  f"no reproducer written")
    _finalize_obs(args)
    return 0


def cmd_stats(args) -> int:
    from repro.obs import ObsExportError, summarize_file

    status = 0
    for path in args.files:
        try:
            print(summarize_file(path))
        except ObsExportError as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            status = 1
    return status


def cmd_workloads(args) -> int:
    from repro.workloads import all_workloads

    for workload in all_workloads():
        lines = len(workload.source.splitlines())
        print(f"{workload.suite:8s} {workload.name:14s} {lines:4d} lines")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Idempotent processing: compiler, simulator, experiments.",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {repro_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile MiniC; dump IR or machine code")
    p.add_argument("file", help="MiniC source file, or - for stdin")
    p.add_argument("--emit", choices=["ir", "asm"], default="asm")
    p.add_argument("--original", action="store_true",
                   help="conventional binary (no region construction)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="compile and execute")
    p.add_argument("file")
    p.add_argument("--original", action="store_true")
    _add_config_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("regions", help="region construction report")
    p.add_argument("file")
    _add_config_flags(p)
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("faults", help="fault injection campaign")
    p.add_argument("file")
    p.add_argument("--trials", type=_trial_count, default=30)
    p.add_argument("--kind", choices=["value", "control"], default="value")
    _add_config_flags(p)
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser("experiment", help="regenerate a paper figure/table")
    p.add_argument("name", choices=["table2", "fig4", "fig8", "fig9", "fig10",
                                    "fig12", "all"])
    p.add_argument("workloads", nargs="*", help="workload subset (default: all)")
    p.add_argument("-j", "--jobs", type=int, default=1,
                   help="shard builds and measurements over N processes")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the persistent artifact cache")
    _add_resilience_flags(p)
    _add_obs_flags(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser(
        "campaign",
        help="suite-wide fault-injection campaign (store-backed, resumable)",
    )
    p.add_argument("workloads", nargs="*", help="workload subset (default: all)")
    p.add_argument("--trials", type=_trial_count, default=40,
                   help="fault trials per workload and flavour")
    p.add_argument("--seed", type=int, default=12345,
                   help="campaign seed; per-trial seeds derive from it")
    p.add_argument("--kind", choices=["value", "control"], default="value")
    p.add_argument("--latency", type=_trial_count, default=0,
                   help="detection latency in dynamic instructions")
    p.add_argument("--flavours", default=None, metavar="NAMES",
                   help="comma-separated flavour subset (original, "
                        "idempotent; default: both)")
    p.add_argument("--backends", default=None, metavar="NAMES",
                   help="also campaign these recovery backends "
                        "(idempotent, checkpoint_log, tmr; see "
                        "docs/recovery.md)")
    p.add_argument("-j", "--jobs", type=int, default=1,
                   help="run workload x label units over N processes")
    p.add_argument("--manifest", default=None,
                   help="JSON-lines run manifest (default: derived path "
                        "under .repro-cache/campaigns/)")
    p.add_argument("--no-manifest", action="store_true",
                   help="do not record or resume from a manifest")
    p.add_argument("--fresh", action="store_true",
                   help="discard any existing manifest before running")
    p.add_argument("--explain-stale", action="store_true",
                   help="report on stderr which sections re-injected "
                        "instead of composing from the outcome store, and "
                        "why (new-section, code-changed, pipeline-changed, "
                        "fault-model-changed, span-changed, evicted, top-up)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the persistent artifact cache and the "
                        "outcome store (inject every section)")
    _add_resilience_flags(p)
    _add_obs_flags(p)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "recovery",
        help="recovery-strategy zoo: overhead vs measured recovery, "
             "with the static outcome predictor (docs/recovery.md)",
    )
    p.add_argument("mode", choices=["compare"],
                   help="comparison driver (predicted vs measured outcomes)")
    p.add_argument("workloads", nargs="*", help="workload subset (default: all)")
    p.add_argument("--backends", default=None, metavar="NAMES",
                   help="comma-separated backend subset (idempotent, "
                        "checkpoint_log, tmr; default: all three)")
    p.add_argument("--trials", type=_trial_count, default=24,
                   help="fault trials per workload and backend")
    p.add_argument("--seed", type=int, default=12345,
                   help="campaign seed; per-backend seeds derive from it "
                        "spawn-key style (idempotent rows are bit-identical "
                        "to repro campaign at the same parameters)")
    p.add_argument("--kind", choices=["value", "control"], default="value")
    p.add_argument("--latency", type=_trial_count, default=0,
                   help="detection latency in dynamic instructions")
    p.add_argument("--threshold", type=_threshold, default=0.25,
                   help="flag regions where |predicted - measured| recovery "
                        "exceeds this")
    p.add_argument("--hunt", type=functools.partial(_trial_count, minimum=1),
                   default=None, metavar="N",
                   help="scan N fuzz-generated programs for the worst "
                        "predictor divergence; at/above --threshold the "
                        "reducer minimizes it into examples/regressions/")
    _add_obs_flags(p)
    p.set_defaults(func=cmd_recovery)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing campaign against the oracle stack",
    )
    p.add_argument("--trials", type=_trial_count, default=50,
                   help="fuzz trials (one generated program each)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed; per-trial generator seeds derive "
                        "from it spawn-key style")
    p.add_argument("-j", "--jobs", type=int, default=1,
                   help="shard trials over N processes")
    p.add_argument("--no-shrink", dest="shrink", action="store_false",
                   help="write raw failing programs without the "
                        "delta-debugging reducer (default: minimize them)")
    p.add_argument("--time-budget", type=float, default=None,
                   metavar="SECONDS",
                   help="stop launching new trials once this much wall "
                        "clock has elapsed (completed trials stay in the "
                        "manifest; resume to continue)")
    p.add_argument("--max-forced", type=functools.partial(_trial_count, minimum=1),
                   default=None, metavar="N",
                   help="cap forced-recovery points per oracle mode "
                        "(evenly spaced; default: exhaustive — every "
                        "dynamic check point)")
    p.add_argument("--no-multi-fault", action="store_true",
                   help="skip the fault-during-recovery oracle")
    p.add_argument("--out", default=os.path.join("examples", "regressions"),
                   help="directory for (minimized) reproducer sources")
    p.add_argument("--manifest", default=None,
                   help="JSON-lines run manifest (default: derived path "
                        "under .repro-cache/campaigns/)")
    p.add_argument("--no-manifest", action="store_true",
                   help="do not record or resume from a manifest")
    p.add_argument("--fresh", action="store_true",
                   help="discard any existing manifest before running")
    _add_resilience_flags(p)
    _add_obs_flags(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "stats",
        help="validate and summarize emitted trace/metrics files",
    )
    p.add_argument("files", nargs="+",
                   help="files written by --profile / --metrics")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("workloads", help="list the benchmark suite")
    p.set_defaults(func=cmd_workloads)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output truncated by a closed pipe (e.g. `| head`): not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
