"""Experiment harness: regenerate every table and figure of the paper.

* :mod:`~repro.experiments.config` -- one :class:`ExperimentConfig` per
  figure (8a/8b, 9, 10a/10b, 11a/11b, 12a/12b) with the paper's
  directory shapes and expected outcomes;
* :mod:`~repro.experiments.plan` -- the declarative job layer: frozen
  :class:`RunSpec` points, :class:`RunPlan` batches, and the one
  :func:`execute_run` every entry point funnels through;
* :mod:`~repro.experiments.executor` -- serial and process-pool plan
  executors (``--jobs N``, bit-identical to serial);
* :mod:`~repro.experiments.cache` -- the content-addressed result
  cache that makes interrupted sweeps resumable (``--cache DIR``);
* :mod:`~repro.experiments.runner` -- strategy x mix x correlation x MPL
  figure sweeps on the Gamma machine model;
* :mod:`~repro.experiments.report` -- text tables, §7 processor-count
  numbers, the §4 rebalancing worst case;
* :mod:`~repro.experiments.audit_report` -- placement-quality audit
  reports (markdown + self-contained HTML) fusing the static
  :mod:`repro.obs.audit` metrics with runtime telemetry;
* :mod:`~repro.experiments.profile` -- cProfile of one simulated point.

The command line over all of it is ``repro`` (:mod:`repro.cli`):
``repro figure``, ``repro sweep``, ``repro audit`` and the other
subcommands call the functions exported here.
"""

from .markdown import (
    figure_section,
    report_from_directory,
    scoreboard_row,
    series_table,
)
from .plot import ascii_plot, plot_figure
from .results_io import (
    figure_from_dict,
    figure_to_csv,
    figure_to_dict,
    load_figure_json,
    save_figure_json,
)
from .cache import ResultCache
from .config import (ATTR_A, ATTR_B, DEFAULT_MPLS, SCALEUP_SITES,
                     ExperimentConfig, FIGURES)
from .executor import (
    ExecutionOutcome,
    ParallelExecutor,
    SerialExecutor,
    WorkerCrash,
    default_start_method,
    make_executor,
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
from .report import (
    average_processors_table,
    format_figure,
    format_processor_table,
    rebalance_worst_case,
)
from .sweeps import AXES, SweepAxis, SweepPoint, SweepResult, sweep
from .audit_report import (
    AuditReport,
    audit_payload,
    build_audit_report,
    build_static_report,
    render_html,
    render_markdown,
    write_report,
)
from .explain import ExplainResult, explain_figure
from .scaleup import ScaleupPoint, ScaleupResult, run_scaleup
from .runner import (
    FigureResult,
    TelemetryFactory,
    check_expectation,
    run_experiment,
)

__all__ = [
    "ExperimentConfig",
    "FIGURES",
    "DEFAULT_MPLS",
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
    "SerialExecutor",
    "ParallelExecutor",
    "ExecutionOutcome",
    "WorkerCrash",
    "default_start_method",
    "make_executor",
    "prewarm",
    "ResultCache",
    "FigureResult",
    "PAPER_INDEXES",
    "build_strategy",
    "run_experiment",
    "check_expectation",
    "format_figure",
    "average_processors_table",
    "format_processor_table",
    "rebalance_worst_case",
    "ascii_plot",
    "plot_figure",
    "figure_to_dict",
    "figure_from_dict",
    "save_figure_json",
    "load_figure_json",
    "figure_to_csv",
    "sweep",
    "SweepAxis",
    "SweepPoint",
    "SweepResult",
    "AXES",
    "scoreboard_row",
    "series_table",
    "figure_section",
    "report_from_directory",
    "ExplainResult",
    "explain_figure",
    "TelemetryFactory",
    "AuditReport",
    "build_audit_report",
    "build_static_report",
    "audit_payload",
    "render_markdown",
    "render_html",
    "write_report",
]
