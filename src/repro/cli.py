"""The ``repro`` command: every experiment and tool as a subcommand.

Examples::

    repro figure 8a --jobs 4 --cache runs/cache --save-json runs
    repro figure --all --quick             # every figure, small runs
    repro validate runs/figure_8a.json     # paper-conformance report
    repro trace runs/figure_8a.json --spans runs/8a_range_mpl4.spans.jsonl

``repro --help`` lists every subcommand.  Machine/workload, execution,
input and output options are declared once, as parent parsers, and a
subcommand sets other defaults with ``set_defaults``.  ``--quick`` only
changes defaults; explicit options win.  Bad input exits 2 with usage.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import List, Optional

from .dynamics.runner import (DYNAMICS_SCENARIOS, DYNAMICS_STRATEGIES,
                             format_dynamics, run_dynamics)
from .experiments import (AXES, FIGURES, SCALEUP_SITES, ResultCache,
                          audit_payload, average_processors_table,
                          build_audit_report, build_static_report,
                          explain_figure, figure_document, load_figure_json,
                          plot_figure, processor_document,
                          rebalance_worst_case, render_markdown,
                          report_from_directory, run_experiment,
                          run_scaleup, save_figure_json, sweep, write_report)
from .experiments.latency import latency_table, traced_latency_report
from .experiments.plan import STRATEGY_NAMES
from .experiments.profile import profile_point, profile_rows
from .obs import (TelemetrySpec, chrome_events_from_critical_path,
                  critical_paths, critpath_table, load_jsonl,
                  summarize_critical_paths)
from .obs.export import (chrome_events_from_phase_spans,
                         chrome_events_from_span_records, chrome_trace,
                         validate_chrome_trace, write_chrome_trace,
                         write_run_artifacts)
from .obs.progress import ProgressTracker
from .validation import (CheckGroup, degenerate_single_site_oracle,
                         one_dimensional_magic_oracle, render_report,
                         scaling_oracle, validate_figure_result)

__all__ = ["main", "build_parser"]

#: Defaults ``--quick`` swaps in for a figure run (smoke-level fidelity).
QUICK_MPLS = (1, 16, 64)
QUICK_MEASURED = 200


class CommandError(Exception):
    """Bad input found after parsing; reported as a usage error."""


# -- argument types --------------------------------------------------------

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def _positive_ints(text: str):
    """A comma-separated list of integers >= 1 (MPLs, machine sizes)."""
    return tuple(_positive_int(v) for v in text.split(","))


def _floats(text: str):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _subset_of(choices):
    """An argument type for a comma-separated subset of *choices*."""
    def parse(text: str):
        values = tuple(text.split(","))
        unknown = [v for v in values if v not in choices]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown {unknown}; choose from {', '.join(choices)}")
        return values
    return parse


class _Given(argparse.Action):
    """Store the value and note the option was given, so ``--quick``
    never overrides it."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", ()) + (self.dest,)


class _DefaultsHelp(argparse.ArgumentDefaultsHelpFormatter):
    """Show each option's default, except the uninformative None/False."""

    def _get_help_string(self, action):
        if action.default in (None, False):
            return action.help
        return super()._get_help_string(action)


# -- shared option groups (fresh parents per subcommand, so set_defaults
# -- on one subcommand never leaks into another) --------------------------

def _parent(title: str):
    parser = argparse.ArgumentParser(add_help=False)
    return parser, parser.add_argument_group(title)


def _machine_options(figure: bool = True, sites: bool = True,
                     workload: bool = True) -> argparse.ArgumentParser:
    """The flags leave out options a subcommand would ignore."""
    parser, group = _parent("machine/workload")
    if figure:
        group.add_argument("--figure", choices=sorted(FIGURES),
                           help="figure configuration")
    group.add_argument("--cardinality", type=_positive_int, default=100_000,
                       action=_Given, help="relation cardinality")
    if sites:
        group.add_argument("--processors-count", type=_positive_int,
                           default=32, dest="num_sites",
                           help="number of processors")
    group.add_argument("--seed", type=int, default=13, help="workload seed")
    if workload:
        group.add_argument("--measured", type=_positive_int, default=400,
                           action=_Given,
                           help="measured queries per (strategy, MPL) point")
        group.add_argument("--mpls", "--mpl", type=_positive_ints,
                           action=_Given, metavar="M1,M2,...",
                           help="multiprogramming level(s); unset = the "
                                "figure's own axis")
    return parser


def _execution_options(plan: bool = True,
                       invariants: bool = True) -> argparse.ArgumentParser:
    parser, group = _parent("execution")
    if plan:
        group.add_argument("--jobs", type=_positive_int, default=1,
                           metavar="N",
                           help="worker processes sharing the parent's "
                                "prewarmed memos; results are bit-identical "
                                "at any N")
        group.add_argument("--cache", metavar="DIR",
                           help="result cache: completed points load from "
                                "DIR, new ones are stored, sweeps resume")
        group.add_argument("--progress", choices=("line", "jsonl"),
                           help="live progress on stderr: one status line, "
                                "or one JSON event per line for machines")
    if invariants:
        group.add_argument("--check-invariants", action="store_true",
                           help="simulate every point (bypassing cache "
                                "reads) under the conservation-law checker")
    return parser


def _input_options(spans: bool = True) -> argparse.ArgumentParser:
    parser, group = _parent("input")
    group.add_argument("results", nargs="*", metavar="RESULTS.json",
                       help="results-v2 figure files saved with "
                            "'repro figure --save-json'")
    if spans:
        group.add_argument("--spans", nargs="+", default=[],
                           metavar="JSONL",
                           help="*.spans.jsonl exports written by "
                                "'repro figure --metrics-out'")
    return parser


def _output_options(save: bool = False) -> argparse.ArgumentParser:
    parser, group = _parent("output")
    if save:
        group.add_argument("--save-json", metavar="DIR",
                           help="save the results as JSON in DIR")
    else:
        group.add_argument("--out", metavar="PATH",
                           help="also write the output here")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'A Performance Analysis of Alternative "
                    "Multi-Attribute Declustering Strategies' (SIGMOD "
                    "1992): regenerate its figures, then audit, validate, "
                    "profile and trace them.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(name, run, summary, *parents, quick_defaults=None,
                **defaults):
        sub = commands.add_parser(
            name, help=summary, description=summary, parents=list(parents),
            formatter_class=_DefaultsHelp)
        sub.set_defaults(run=run, subparser=sub,
                         quick_defaults=quick_defaults or {}, **defaults)
        if quick_defaults:
            sub.add_argument("--quick", action="store_true",
                             help="smaller defaults for a fast smoke run; "
                                  "options given explicitly still win")
        return sub

    sub = command("figure", _cmd_figure, "regenerate paper figures",
                  _machine_options(figure=False), _execution_options(),
                  _output_options(save=True), quick_defaults={
                      "mpls": QUICK_MPLS, "measured": QUICK_MEASURED})
    sub.add_argument("figure", nargs="?", choices=sorted(FIGURES),
                     metavar="FIG", help="figure to regenerate: "
                                         + ", ".join(sorted(FIGURES)))
    sub.add_argument("--all", action="store_true",
                     help="regenerate every figure")
    sub.add_argument("--trace", action="store_true",
                     help="collect spans, metrics and utilization timelines")
    sub.add_argument("--latency", action="store_true",
                     help="capture per-query-type response-time sketches "
                          "(p50/p95/p99/max) into reports and saved JSON")
    sub.add_argument("--metrics-out", metavar="DIR",
                     help="write span and metric artifacts per run into "
                          "DIR (implies --trace)")
    sub.add_argument("--audit", action="store_true",
                     help="placement-quality audit after each figure")
    sub.add_argument("--audit-out", metavar="DIR",
                     help="directory for audit_<figure>.{md,html} "
                          "(default: audit-reports); implies --audit")
    sub.add_argument("--audit-samples", type=_positive_int, default=400,
                     metavar="N", help="audit predicates per query type")
    sub.add_argument("--plot", action="store_true",
                     help="also render each figure as an ASCII plot")

    sub = command("sweep", _cmd_sweep,
                  "sweep one simulation parameter at a fixed MPL",
                  _machine_options(), _execution_options(), figure="8a",
                  mpls=(32,), quick_defaults={"measured": QUICK_MEASURED})
    sub.add_argument("axis", choices=sorted(AXES),
                     help="parameter swept: " + ", ".join(sorted(AXES)))
    sub.add_argument("values", type=_floats, metavar="V1,V2,...",
                     help="comma-separated axis values")

    sub = command("scaleup", _cmd_scaleup,
                  "throughput and build/simulate cost per machine size",
                  _machine_options(sites=False),
                  _execution_options(plan=False), _output_options(save=True),
                  figure="8a", mpls=(8,),
                  quick_defaults={"measured": QUICK_MEASURED})
    sub.add_argument("--sites", type=_positive_ints, default=SCALEUP_SITES,
                     metavar="P1,P2,...", help="machine sizes swept")

    sub = command("dynamics", _cmd_dynamics,
                  "site failure, elastic rescale and online-insert churn",
                  _machine_options(), _execution_options(plan=False),
                  _output_options(save=True), figure="8a", mpls=(8,),
                  quick_defaults={"measured": QUICK_MEASURED,
                                  "cardinality": 20_000})
    sub.add_argument("--scenarios", type=_subset_of(DYNAMICS_SCENARIOS),
                     metavar="S1,S2,...",
                     help="subset of " + ",".join(DYNAMICS_SCENARIOS)
                          + " (None = all)")
    sub.add_argument("--strategies", type=_subset_of(DYNAMICS_STRATEGIES),
                     metavar="N1,N2,...",
                     help="subset of " + ",".join(DYNAMICS_STRATEGIES)
                          + " (None = all)")
    sub.add_argument("--grow-to", type=_positive_int, default=64,
                     help="machine size the rescale scenario grows to")

    sub = command("explain", _cmd_explain,
                  "traced re-run of one point: where each query's time went",
                  _machine_options(), _execution_options(), figure="8a",
                  mpls=(64,), measured=200)
    sub.add_argument("--top-k", type=_positive_int, default=5, metavar="K",
                     help="rows per query type in the why-table")

    sub = command("report", _cmd_report,
                  "markdown report from saved figure_*.json files")
    sub.add_argument("directory", metavar="DIR",
                     help="directory written by 'repro figure --save-json'")

    command("processors", _cmd_processors,
            "section-7 average processors used per query type",
            _machine_options(workload=False))
    command("rebalance", _cmd_rebalance,
            "the section-4 rebalancing worst case",
            _machine_options(figure=False, workload=False),
            cardinality=32_000, seed=12)

    sub = command("audit", _cmd_audit,
                  "placement-quality audit (markdown + HTML) of saved "
                  "results, or of --figure statically; no simulation",
                  _input_options(spans=False),
                  _machine_options(workload=False), _output_options(),
                  out="audit-reports")
    sub.add_argument("--samples", type=_positive_int, default=400,
                     help="sampled predicates per query type")
    sub.add_argument("--no-sensitivity", action="store_true",
                     help="skip the correlation-sensitivity re-audit")

    sub = command("validate", _cmd_validate,
                  "check saved results, or a checked tiny run of --figure, "
                  "against the paper; exits 1 on any failed check",
                  _input_options(spans=False), _machine_options(),
                  _execution_options(invariants=False), _output_options(),
                  # The smallest machine on which figure 8a's ordering
                  # (MAGIC > BERD > range, BERD's localization) emerges.
                  cardinality=8000, num_sites=16, mpls=(1, 8, 24),
                  measured=60, check_invariants=True)
    sub.add_argument("--oracles", action="store_true",
                     help="also run the simulation-backed oracles")
    sub.add_argument("--no-cost-model", action="store_true",
                     help="skip the MPL=1 analytic cost-model oracle")

    sub = command("profile", _cmd_profile,
                  "cProfile one simulated figure point and print the "
                  "hottest functions", _machine_options(), figure="8a",
                  mpls=(16,), measured=100)
    sub.add_argument("--strategy", choices=STRATEGY_NAMES, default="range")
    sub.add_argument("--top", type=_positive_int, default=25,
                     help="rows to print")
    sub.add_argument("--sort", choices=("tottime", "cumulative"),
                     default="tottime")
    sub.add_argument("--json", metavar="PATH",
                     help="also dump the rows and run metadata as JSON; "
                          "'-' for stdout")

    sub = command("trace", _cmd_trace,
                  "export simulated-time spans and the wall-clock phases "
                  "of saved results as one Chrome-trace/Perfetto file",
                  _input_options(), _output_options(), out="trace.json")
    sub.add_argument("--critical-path", type=int, default=0, metavar="N",
                     help="also export the critical path of the N slowest "
                          "queries per --spans file as its own track")

    command("latency", _cmd_latency,
            "latency budgets of saved results, critical paths of span "
            "exports, or both for a live traced run of --figure",
            _input_options(), _machine_options(), _execution_options(),
            _output_options(), measured=200)
    return parser


# -- helpers shared by the subcommands ------------------------------------

@contextlib.contextmanager
def _execution(args):
    """The execution options as library keywords; closes progress after."""
    progress = (ProgressTracker(stream=sys.stderr, mode=args.progress)
                if args.progress else None)
    try:
        yield dict(jobs=args.jobs,
                   cache=ResultCache(args.cache) if args.cache else None,
                   check_invariants=args.check_invariants,
                   progress=progress)
    finally:
        if progress is not None:
            progress.close()


def _single_mpl(args) -> int:
    if len(args.mpls) != 1:
        raise CommandError(f"{args.command} runs one multiprogramming "
                           f"level, got {','.join(map(str, args.mpls))}")
    return args.mpls[0]


def _load(loader, path: str):
    """Read one input file, turning a bad file into a usage error."""
    try:
        return loader(path)
    except (OSError, ValueError) as exc:
        raise CommandError(f"cannot read {path}: {exc!s}") from None


def _json_path(directory: str, name: str) -> str:
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, name)


def _emit(text: str, out: Optional[str]) -> None:
    """Print *text*, and also write it to *out* when given."""
    print(text, end="")
    if out:
        with open(out, "w") as handle:
            handle.write(text)
        print(f"(wrote {out})")


# -- experiments ----------------------------------------------------------

def _cmd_figure(args) -> int:
    if not (args.all or args.figure):
        raise CommandError("name a figure or pass --all")
    names = sorted(FIGURES) if args.all else [args.figure]
    tracing = bool(args.trace or args.metrics_out)
    # --latency alone skips spans and timelines (the sketches need
    # neither), keeping capture overhead near zero.
    telemetry_spec = (TelemetrySpec(trace=tracing, latency=args.latency,
                                    timeline_interval=0.5 if tracing else 0.0)
                      if tracing or args.latency else None)
    with _execution(args) as execution:
        for name in names:
            result = run_experiment(
                FIGURES[name], cardinality=args.cardinality,
                num_sites=args.num_sites, measured_queries=args.measured,
                mpls=args.mpls, seed=args.seed,
                telemetry_spec=telemetry_spec, **execution)
            blocks = []
            if args.audit or args.audit_out:
                # Post-processing only: the audit reads the finished
                # result (and the plan layer's memoized placements), so
                # the series are bit-identical with or without it.
                report = build_audit_report(result,
                                            samples=args.audit_samples)
                result.audit = audit_payload(report)
                md_path, html_path = write_report(
                    report, args.audit_out or "audit-reports")
                blocks.append(f"(audit: wrote {md_path} and {html_path}; "
                              f"digest {report.digest})")
            blocks.append(render_markdown(figure_document(result)))
            if args.metrics_out:
                blocks += write_run_artifacts(args.metrics_out, name,
                                              result.telemetries)
            if args.plot:
                blocks += ["", plot_figure(result)]
            if args.save_json:
                path = _json_path(args.save_json, f"figure_{name}.json")
                save_figure_json(result, path)
                blocks.append(f"(saved {path})")
            blocks.append(f"(wall time {result.wall_seconds:.1f}s, sim time "
                          f"{result.cpu_seconds:.1f}s, jobs {result.jobs}; "
                          f"{result.executed_runs} simulated, "
                          f"{result.cached_runs} from cache)")
            print("\n".join(blocks) + "\n")
    return 0


def _cmd_sweep(args) -> int:
    with _execution(args) as execution:
        result = sweep(args.axis, args.values, figure=args.figure,
                       multiprogramming_level=_single_mpl(args),
                       cardinality=args.cardinality,
                       num_sites=args.num_sites,
                       measured_queries=args.measured, seed=args.seed,
                       **execution)
    print(result.render())
    return 0


def _cmd_scaleup(args) -> int:
    def note_point(point):
        print(f"  P={point.num_sites:5d} {point.strategy:>6}: "
              f"build {point.placement_build_seconds:6.2f}s  "
              f"simulate {point.simulate_seconds:6.2f}s  "
              f"{point.events_per_sec:9.0f} events/s", file=sys.stderr)

    result = run_scaleup(
        figure=args.figure, sites=args.sites,
        multiprogramming_level=_single_mpl(args),
        cardinality=args.cardinality, measured_queries=args.measured,
        seed=args.seed, check_invariants=args.check_invariants,
        on_point=note_point)
    print(result.render())
    if args.save_json:
        path = _json_path(args.save_json, f"scaleup_{result.figure}.json")
        with open(path, "w") as handle:
            json.dump(result.to_json_dict(), handle, indent=1)
        print(f"(saved {path})")
    return 0


def _cmd_dynamics(args) -> int:
    # Check the rescale target up front: the run would only trip over it
    # after simulating the strategies before it.
    hashing = "hash" in (args.strategies or DYNAMICS_STRATEGIES)
    most = 2 * args.num_sites if hashing else args.grow_to
    if ("rescale" in (args.scenarios or DYNAMICS_SCENARIOS)
            and not args.num_sites < args.grow_to <= most):
        limit = f" and be at most {most} (hash grows 2x)" if hashing else ""
        raise CommandError(f"--grow-to ({args.grow_to}) must exceed "
                           f"--processors-count ({args.num_sites}){limit}")
    result = run_dynamics(
        args.figure, strategies=args.strategies,
        scenarios=args.scenarios, cardinality=args.cardinality,
        num_sites=args.num_sites, grow_to=args.grow_to,
        multiprogramming_level=_single_mpl(args),
        measured_queries=args.measured, seed=args.seed,
        check_invariants=args.check_invariants,
        progress=lambda line: print(f"  {line}", file=sys.stderr))
    print(format_dynamics(result.dynamics))
    if args.save_json:
        path = _json_path(args.save_json, f"dynamics_{args.figure}.json")
        save_figure_json(result, path)
        print(f"(saved {path})")
    return 0


def _cmd_explain(args) -> int:
    with _execution(args) as execution:
        explained = explain_figure(
            args.figure, mpl=_single_mpl(args),
            cardinality=args.cardinality, num_sites=args.num_sites,
            measured_queries=args.measured, seed=args.seed, **execution)
    print(explained.render(top_k=args.top_k))
    return 0


def _cmd_report(args) -> int:
    try:
        print(report_from_directory(args.directory))
    except OSError as exc:  # not a directory, or no figure files in it
        raise CommandError(str(exc)) from None
    return 0


def _cmd_processors(args) -> int:
    for name in [args.figure] if args.figure else sorted(FIGURES):
        table = average_processors_table(
            FIGURES[name], cardinality=args.cardinality,
            num_sites=args.num_sites, seed=args.seed)
        print(render_markdown(processor_document(FIGURES[name], table)))
    return 0


def _cmd_rebalance(args) -> int:
    stats = rebalance_worst_case(num_sites=args.num_sites,
                                 cardinality=args.cardinality, seed=args.seed)
    print("Section 4 worst case (identical attribute values):")
    for key, value in stats.items():
        print(f"  {key}: {value}")
    return 0


# -- tools ----------------------------------------------------------------

def _cmd_audit(args) -> int:
    if not args.results and not args.figure:
        args.subparser.print_help()
        return 2
    reports = [(f"audited {path}",
                build_audit_report(_load(load_figure_json, path),
                                   samples=args.samples,
                                   sensitivity=not args.no_sensitivity))
               for path in args.results]
    if args.figure:
        reports.append((f"audited figure {args.figure} statically",
                        build_static_report(
                            FIGURES[args.figure], cardinality=args.cardinality,
                            num_sites=args.num_sites, seed=args.seed,
                            samples=args.samples,
                            sensitivity=not args.no_sensitivity)))
    for label, report in reports:
        md_path, html_path = write_report(report, args.out)
        print(f"{label}: wrote {md_path} and {html_path}")
    return 0


def _cmd_validate(args) -> int:
    if not args.results and not args.figure:
        args.subparser.print_help()
        return 2
    groups: List[CheckGroup] = []
    sources: List[str] = []
    cost_model = not args.no_cost_model
    for path in args.results:
        result = _load(load_figure_json, path)
        sources.append(f"offline {path} (figure {result.config.figure})")
        groups += validate_figure_result(result, cost_model=cost_model)
    if args.figure:
        with _execution(args) as execution:
            result = run_experiment(
                FIGURES[args.figure], cardinality=args.cardinality,
                num_sites=args.num_sites, measured_queries=args.measured,
                mpls=args.mpls, seed=args.seed, **execution)
        sources.append(
            f"live figure {args.figure} ({args.cardinality} tuples, "
            f"{args.num_sites} sites, MPLs {list(args.mpls)}, "
            f"{result.executed_runs} runs under the invariant checker)")
        live = CheckGroup(
            title=f"Runtime invariants (figure {args.figure})",
            note="conservation laws enforced during every simulated "
                 "point; a breach raises InvariantViolation and aborts")
        live.add("conservation laws", True, f"{result.executed_runs} runs "
                 "completed with the checker attached")
        groups.append(live)
        groups += validate_figure_result(result, cost_model=cost_model)
    if args.oracles:
        groups += [degenerate_single_site_oracle(),
                   one_dimensional_magic_oracle(), scaling_oracle()]

    report = render_report(groups, title="Conformance report")
    report += "\nSources:\n" + "".join(f"\n* {s}" for s in sources) + "\n"
    print(report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
        print(f"(wrote {args.out})", file=sys.stderr)
    return 0 if all(group.passed for group in groups) else 1


def _cmd_profile(args) -> int:
    mpl = _single_mpl(args)
    stats, result, wall = profile_point(
        args.figure, args.strategy, mpl, args.cardinality,
        args.num_sites, args.measured, args.seed)
    rows = profile_rows(stats, args.sort, args.top)
    print(f"figure {args.figure}, strategy {args.strategy}, mpl {mpl}, "
          f"{args.measured} measured queries (throughput "
          f"{result.throughput:.2f} q/s, wall {wall:.2f}s)")
    print(f"top {len(rows)} by {args.sort}:")
    print(f"{'calls':>9}  {'tottime':>9}  {'cumtime':>9}  function")
    for row in rows:
        print(f"{row['calls']:>9}  {row['tottime']:>9.4f}  "
              f"{row['cumtime']:>9.4f}  {row['function']}  "
              f"[{row['location']}]")
    if args.json:
        payload = json.dumps({
            "figure": args.figure, "strategy": args.strategy,
            "multiprogramming_level": mpl,
            "cardinality": args.cardinality, "num_sites": args.num_sites,
            "measured_queries": args.measured, "seed": args.seed,
            "sort": args.sort, "throughput": result.throughput,
            "wall_seconds": wall, "rows": rows}, indent=2)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as handle:
                handle.write(payload)
            print(f"wrote {args.json}")
    return 0


def _cmd_trace(args) -> int:
    if not args.spans and not args.results:
        args.subparser.print_help()
        return 2
    events = []
    # Each span file gets a distinct synthetic pid so multiple runs'
    # simulated timelines sit on separate tracks.
    for index, path in enumerate(args.spans):
        records = _load(load_jsonl, path)
        stem = os.path.basename(path).replace(".spans.jsonl", "")
        events += chrome_events_from_span_records(
            records, pid=1000 + index,
            process_name=f"simulated time: {stem}")
        print(f"{path}: {len(records)} simulated-time spans")
        if args.critical_path > 0:
            slowest = sorted(critical_paths(records),
                             key=lambda p: -p.wall)[:args.critical_path]
            pid = 2000 + index
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "tid": 0, "args": {"name": f"critical paths: "
                                                      f"{stem}"}})
            for critical_path in slowest:
                events += chrome_events_from_critical_path(critical_path,
                                                           pid=pid)
            print(f"{path}: critical path of the {len(slowest)} slowest "
                  f"queries exported")
    for path in args.results:
        result = _load(load_figure_json, path)
        spans = (result.phases or {}).get("spans", [])
        if not spans:
            print(f"{path}: no wall-clock phase spans recorded "
                  "(saved without phase attribution)", file=sys.stderr)
            continue
        events += chrome_events_from_phase_spans(
            spans, process_name=f"wall clock: {result.config.figure}")
        print(f"{path}: {len(spans)} wall-clock phase spans")

    trace = chrome_trace(events, metadata={"tool": "repro trace"})
    errors = validate_chrome_trace(trace)
    for error in errors:
        print(f"repro trace: invalid trace: {error}", file=sys.stderr)
    if errors:
        return 1
    count = write_chrome_trace(trace, args.out)
    print(f"wrote {args.out} ({count} events); open in "
          "https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_latency(args) -> int:
    if not (args.results or args.spans or args.figure):
        args.subparser.print_help()
        return 2
    blocks: List[str] = []
    for path in args.results:
        result = _load(load_figure_json, path)
        if result.latency is None:
            blocks.append(f"{path}: no latency payload (figure "
                          f"{result.config.figure} was saved without "
                          f"--latency); re-run with latency capture on")
            continue
        blocks.append(f"figure {result.config.figure} ({path}):")
        blocks.append(latency_table(result.latency, mpls=args.mpls).rstrip())
    for path in args.spans:
        records = _load(load_jsonl, path)
        blocks.append(f"critical paths from {path} ({len(records)} spans):")
        blocks.append(critpath_table(summarize_critical_paths(
            critical_paths(records))).rstrip())
    if args.figure:
        with _execution(args) as execution:
            blocks.append(traced_latency_report(
                args.figure, mpls=args.mpls or (16,),
                cardinality=args.cardinality, num_sites=args.num_sites,
                measured_queries=args.measured, seed=args.seed,
                **execution))
    _emit("\n".join(blocks) + "\n", args.out)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if getattr(args, "quick", False):
        for dest, value in args.quick_defaults.items():
            if dest not in getattr(args, "given", ()):
                setattr(args, dest, value)
    try:
        return args.run(args)
    except CommandError as exc:
        args.subparser.error(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
