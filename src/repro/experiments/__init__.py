"""Experiment harness: regenerate every table and figure of the paper.

* :mod:`~repro.experiments.config` -- one :class:`ExperimentConfig` per
  figure (8a/8b, 9, 10a/10b, 11a/11b, 12a/12b) with the paper's
  directory shapes and expected outcomes;
* :mod:`~repro.experiments.plan` -- the declarative job layer: frozen
  :class:`RunSpec` points, :class:`RunPlan` batches, and the one
  :func:`execute_run` every entry point funnels through;
* :mod:`~repro.experiments.executor` -- the plan executor, in-process
  or on a warm process pool (``--jobs N``, bit-identical at any N);
* :mod:`~repro.experiments.cache` -- the content-addressed result
  cache that makes interrupted sweeps resumable (``--cache DIR``);
* :mod:`~repro.experiments.runner` -- strategy x mix x correlation x MPL
  figure sweeps on the Gamma machine model;
* :mod:`~repro.experiments.report` -- every report (figure, §7
  processor counts, placement-quality audit) as one list of blocks with
  a markdown and a self-contained HTML back end; the audit fuses the
  static :mod:`repro.obs.audit` metrics with runtime telemetry;
* :mod:`~repro.experiments.paper_numbers` -- the §7 processor counts
  and the §4 rebalancing worst case;
* :mod:`~repro.experiments.profile` -- cProfile of one simulated point.

The command line over all of it is ``repro`` (:mod:`repro.cli`):
``repro figure``, ``repro sweep``, ``repro audit`` and the other
subcommands call the functions exported here.
"""

from .plot import ascii_plot, plot_figure
from .results_io import (
    figure_from_dict,
    figure_to_csv,
    figure_to_dict,
    load_figure_json,
    save_figure_json,
)
from .cache import ResultCache
from .config import ATTR_A, ATTR_B, SCALEUP_SITES, ExperimentConfig, FIGURES
from .executor import (
    ExecutionOutcome,
    PlanExecutor,
    WorkerCrash,
    default_start_method,
)
from .plan import (
    PAPER_INDEXES,
    PlannedRun,
    RunPlan,
    RunSpec,
    build_strategy,
    compile_figure,
    compile_point,
    execute_run,
    params_fingerprint,
    prewarm,
)
from .paper_numbers import average_processors_table, rebalance_worst_case
from .report import (
    AuditReport,
    audit_document,
    audit_payload,
    build_audit_report,
    build_static_report,
    figure_document,
    processor_document,
    render_html,
    render_markdown,
    report_from_directory,
    write_report,
)
from .sweeps import AXES, SweepResult, sweep
from .explain import ExplainResult, explain_figure
from .scaleup import ScaleupPoint, ScaleupResult, run_scaleup
from .runner import (
    FigureResult,
    check_expectation,
    run_experiment,
)

__all__ = [
    "ExperimentConfig",
    "FIGURES",
    "SCALEUP_SITES",
    "ATTR_A",
    "ATTR_B",
    "ScaleupPoint",
    "ScaleupResult",
    "run_scaleup",
    "RunSpec",
    "PlannedRun",
    "RunPlan",
    "compile_figure",
    "compile_point",
    "execute_run",
    "params_fingerprint",
    "PlanExecutor",
    "ExecutionOutcome",
    "WorkerCrash",
    "default_start_method",
    "prewarm",
    "ResultCache",
    "FigureResult",
    "PAPER_INDEXES",
    "build_strategy",
    "run_experiment",
    "check_expectation",
    "average_processors_table",
    "rebalance_worst_case",
    "ascii_plot",
    "plot_figure",
    "figure_to_dict",
    "figure_from_dict",
    "save_figure_json",
    "load_figure_json",
    "figure_to_csv",
    "sweep",
    "SweepResult",
    "AXES",
    "ExplainResult",
    "explain_figure",
    "render_markdown",
    "render_html",
    "figure_document",
    "report_from_directory",
    "processor_document",
    "AuditReport",
    "build_audit_report",
    "build_static_report",
    "audit_payload",
    "audit_document",
    "write_report",
]
