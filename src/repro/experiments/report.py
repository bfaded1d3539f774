"""Every report the harness renders: figures, processor counts, audits.

Each report explains the paper's Figures 8-12 in the paper's own terms:
who wins at the highest MPL, how many processors a query touches (§7),
how skewed a placement is (§4).  A report is a plain list of blocks
(:class:`Heading`, :class:`Paragraph`, :class:`Table`, :class:`HeatMap`,
:class:`Preformatted`) that :func:`figure_document`,
:func:`processor_document`, :func:`audit_document` and
:func:`latency_budget` build.  :func:`render_markdown` and
:func:`render_html` are the only code that emits markdown or HTML; the
HTML page is self-contained (inline CSS, no scripts, no external assets)
and shades heat-map cells on a single-hue ramp.  Block text may carry
two inline marks, ```code``` and ``**strong**``, which each back end
spells its own way.

Audits never simulate.  Placements are rebuilt (or reused from the plan
layer's per-process memo) via
:func:`~repro.experiments.plan.placement_for_spec`, so ``repro audit``
on a cached results file is pure post-processing.
"""

from __future__ import annotations

import html
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..obs import span_records, why_table
from ..obs.audit import PlacementAudit, audit_digest, audit_placement
from ..obs.critpath import (critical_paths, critpath_table,
                            summarize_critical_paths)
from ..obs.sketch import QUANTILES
from ..workload import make_mix
from .config import FIGURES, ExperimentConfig
from .plan import compile_point, placement_for_spec
from .results_io import load_figure_json
from .runner import FigureResult, check_expectation

__all__ = [
    "Heading", "Paragraph", "Table", "HeatMap", "Preformatted",
    "render_markdown", "render_html",
    "figure_document", "report_from_directory", "latency_budget",
    "processor_document",
    "AuditReport", "build_audit_report", "build_static_report",
    "audit_payload", "audit_document", "write_report",
]


# -- the document model ----------------------------------------------------

Heading = NamedTuple("Heading", [("level", int), ("text", str)])
Paragraph = NamedTuple("Paragraph", [("text", str)])
Table = NamedTuple("Table", [("header", List[str]),
                             ("rows", List[List[str]])])
#: Per-processor counts, laid out :data:`_HEAT_COLUMNS` to a row.
HeatMap = NamedTuple("HeatMap", [("counts", Sequence[int])])
Preformatted = NamedTuple("Preformatted", [("text", str)])
Block = Union[Heading, Paragraph, Table, HeatMap, Preformatted]

#: Heat-map table width (processors per row).
_HEAT_COLUMNS = 8

_HEAT_HEADER = ["sites"] + [f"+{i}" for i in range(_HEAT_COLUMNS)]


def _heat_rows(counts: Sequence[int]) -> List[Tuple[str, List[int]]]:
    """Chunk a per-processor vector into labelled heat-map rows."""
    return [(f"{start}..", list(counts[start:start + _HEAT_COLUMNS]))
            for start in range(0, len(counts), _HEAT_COLUMNS)]


def _fmt(value: float, digits: int = 3) -> str:
    return f"{value:.{digits}f}"


# -- markdown back end -----------------------------------------------------


def _markdown(block: Block) -> str:
    if isinstance(block, Heading):
        return "#" * block.level + " " + block.text
    if isinstance(block, Paragraph):
        return block.text
    if isinstance(block, Preformatted):
        return f"```\n{block.text}\n```"
    if isinstance(block, HeatMap):
        block = Table(_HEAT_HEADER, [
            [label] + [str(v) for v in chunk]
            + [""] * (_HEAT_COLUMNS - len(chunk))
            for label, chunk in _heat_rows(block.counts)])
    lines = ["| " + " | ".join(block.header) + " |",
             "|" + "---|" * len(block.header)]
    lines += ["| " + " | ".join(row) + " |" for row in block.rows]
    return "\n".join(lines)


def render_markdown(blocks: Sequence[Block]) -> str:
    """*blocks* as GitHub-flavoured markdown, one blank line apart."""
    return "\n\n".join(_markdown(block) for block in blocks) + "\n"


# -- HTML back end ---------------------------------------------------------

#: Single sequential hue for heat cells (light -> dark = low -> high).
_HEAT_RGB = (38, 99, 160)

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
       color: #1f2430; background: #ffffff; }
h1, h2, h3 { color: #1f2430; }
h2 { border-bottom: 1px solid #e3e6ea; padding-bottom: 0.3rem; }
table { border-collapse: collapse; margin: 0.75rem 0; }
th, td { border: 1px solid #e3e6ea; padding: 0.3rem 0.6rem;
         text-align: right; font-variant-numeric: tabular-nums; }
th { background: #f4f6f8; color: #3c4454; }
td.label, th.label { text-align: left; }
td.heat { min-width: 3.2rem; }
pre { background: #f4f6f8; padding: 0.75rem; overflow-x: auto;
      font-size: 0.85rem; }
code { background: #f4f6f8; padding: 0.1rem 0.3rem; }
"""


def _inline(text: str) -> str:
    """Escape *text* and spell its inline marks as HTML."""
    text = re.sub(r"`([^`]*)`", r"<code>\1</code>", html.escape(text))
    return re.sub(r"\*\*(.+?)\*\*", r"<strong>\1</strong>", text)


def _html_row(cells: Sequence[str], tag: str = "td") -> str:
    """One table row; the first cell is a left-aligned label."""
    first, *rest = cells
    return (f'<tr><{tag} class="label">{_inline(first)}</{tag}>'
            + "".join(f"<{tag}>{_inline(cell)}</{tag}>" for cell in rest)
            + "</tr>")


def _heat_cell(value: float, maximum: float) -> str:
    """One shaded heat-map cell: single-hue ramp, value printed."""
    norm = (value / maximum) if maximum > 0 else 0.0
    alpha = 0.06 + 0.74 * norm
    r, g, b = _HEAT_RGB
    ink = "#ffffff" if alpha > 0.52 else "#1f2430"
    return (f'<td class="heat" style="background: '
            f'rgba({r},{g},{b},{alpha:.2f}); color: {ink};">'
            f'{int(value)}</td>')


def _html(block: Block) -> str:
    if isinstance(block, Heading):
        return f"<h{block.level}>{_inline(block.text)}</h{block.level}>"
    if isinstance(block, Paragraph):
        return f"<p>{_inline(block.text)}</p>"
    if isinstance(block, Preformatted):
        return f"<pre>{html.escape(block.text)}</pre>"
    rows = [_html_row(block.header if isinstance(block, Table)
                      else _HEAT_HEADER, "th")]
    if isinstance(block, HeatMap):
        maximum = float(max(block.counts)) if block.counts else 0.0
        rows += [f'<tr><td class="label">{label}</td>'
                 + "".join(_heat_cell(value, maximum) for value in chunk)
                 + "<td></td>" * (_HEAT_COLUMNS - len(chunk)) + "</tr>"
                 for label, chunk in _heat_rows(block.counts)]
    else:
        rows += [_html_row(row) for row in block.rows]
    return "<table>\n" + "\n".join(rows) + "\n</table>"


def render_html(blocks: Sequence[Block], title: str) -> str:
    """*blocks* as one self-contained HTML page titled *title*."""
    body = "\n".join(_html(block) for block in blocks)
    return ("<!DOCTYPE html>\n"
            '<html lang="en"><head><meta charset="utf-8">\n'
            f"<title>{html.escape(title)}</title>\n"
            f"<style>{_CSS}</style></head><body>\n"
            f"{body}\n</body></html>\n")


# -- figures ---------------------------------------------------------------


def latency_budget(payload: Dict) -> List[Block]:
    """A results-v2 ``latency`` payload as one table row per strategy.

    Each row is the overall distribution at the strategy's *highest*
    captured MPL: the point where the paper states its claims and where
    tails diverge the most.
    """
    columns = ["mean"] + [f"p{int(q * 100)}" for q in QUANTILES] + ["max"]
    rows = []
    for strategy, entries in sorted(payload.get("points", {}).items()):
        last = entries[-1]
        summary = last["overall"]
        rows.append([strategy, str(last["mpl"]), str(int(summary["count"]))]
                    + [_fmt(summary[column] * 1000, 1)
                       for column in columns])
    return [Paragraph(f"Response-time distribution at each strategy's "
                      f"highest captured MPL, from mergeable quantile "
                      f"sketches (relative accuracy "
                      f"{payload['relative_accuracy']:.0%})."),
            Table(["strategy", "MPL", "queries"]
                  + [f"{column} ms" for column in columns], rows)]


def figure_document(result: FigureResult) -> List[Block]:
    """One figure: its throughput series, the paper's verdict on it, and
    the latency budget when the run captured one."""
    config = result.config
    strategies = list(result.series)
    mpls = [run.multiprogramming_level
            for run in result.series[strategies[0]]]
    ok, detail = check_expectation(result)
    verdict = "matches the paper" if ok else "DEVIATES from the paper"
    blocks: List[Block] = [
        Heading(3, f"Figure {config.figure}: {config.title}"),
        Paragraph(f"Mix `{config.mix_name}`, correlation "
                  f"`{config.correlation}`, {result.cardinality:,} tuples "
                  f"on {result.num_sites} processors, "
                  f"{result.measured_queries} measured queries per point."),
        Table(["MPL"] + strategies,
              [[str(mpl)] + [f"{result.throughput_at(name, mpl):.0f}"
                             for name in strategies] for mpl in mpls]),
        Paragraph(f"Outcome ({verdict}): {detail}")]
    if config.expected and config.expected.note:
        blocks.append(Paragraph(f"Paper's claim: {config.expected.note}"))
    if result.latency is not None:
        blocks += latency_budget(result.latency)
    return blocks


def report_from_directory(directory: str,
                          title: str = "Regenerated figures") -> str:
    """A full markdown report from ``figure_*.json`` files in *directory*.

    A scoreboard row per figure, then each figure's section, ordered as
    in the paper; files that do not load are skipped with a note.
    """
    loaded: Dict[str, FigureResult] = {}
    skipped: List[str] = []
    for filename in sorted(os.listdir(directory)):
        if not (filename.startswith("figure_")
                and filename.endswith(".json")):
            continue
        try:
            result = load_figure_json(os.path.join(directory, filename))
        except ValueError as exc:
            skipped.append(f"{filename}: {exc}")
            continue
        loaded[result.config.figure] = result

    if not loaded:
        raise FileNotFoundError(
            f"no loadable figure_*.json files in {directory!r}")

    ordered = [loaded[name] for name in FIGURES if name in loaded]
    scoreboard = []
    for result in ordered:
        ok, detail = check_expectation(result)
        expected = result.config.expected
        scoreboard.append([f"Fig {result.config.figure}",
                           expected.note if expected else "-", detail,
                           "match" if ok else "**deviation**"])
    blocks: List[Block] = [
        Heading(1, title),
        Table(["Figure", "Paper's claim", "Measured", "Verdict"],
              scoreboard)]
    for result in ordered:
        blocks += figure_document(result)
    if skipped:
        blocks.append(Paragraph("Skipped files: " + "; ".join(skipped)))
    return render_markdown(blocks)


# -- §7 processor counts --------------------------------------------------


def processor_document(config: ExperimentConfig,
                       table: Dict[str, Dict[str, float]]) -> List[Block]:
    """An :func:`average_processors_table` result, a row per strategy."""
    columns = list(next(iter(table.values()), {}))
    return [Heading(3, f"Average processors per query -- "
                       f"{config.describe()}"),
            Table(["strategy"] + columns,
                  [[strategy] + [_fmt(stats[column], 2)
                                 for column in columns]
                   for strategy, stats in table.items()])]


# -- placement-quality audits ----------------------------------------------

#: The two correlation levels the sensitivity probe re-audits under.
SENSITIVITY_CORRELATIONS = ("low", "high")


@dataclass
class AuditReport:
    """Everything one rendered audit report contains."""

    figure: str
    title: str
    mix_name: str
    correlation: str
    cardinality: int
    num_sites: int
    seed: int
    samples: int
    strategies: List[str]
    #: Per-strategy static audit under the figure's own correlation.
    audits: Dict[str, PlacementAudit]
    #: strategy -> correlation -> compact audit summary.
    sensitivity: Dict[str, Dict[str, Dict]] = field(default_factory=dict)
    #: strategy -> [(mpl, throughput)], empty for static reports.
    throughputs: Dict[str, List[Tuple[int, float]]] = field(
        default_factory=dict)
    #: strategy -> rendered why-table (traced runs only).
    why_tables: Dict[str, str] = field(default_factory=dict)
    #: strategy -> rendered critical-path table (traced runs only):
    #: where the wall response time actually went, shares summing to
    #: <= 100% -- the non-overlapping complement of the why-table.
    critpath_tables: Dict[str, str] = field(default_factory=dict)
    #: The figure's results-v2 ``latency`` payload (latency capture
    #: only); rendered as the latency-budget section.
    latency: Optional[Dict] = None
    #: strategy -> runtime load-balance metrics (traced runs only).
    load_balance: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def summaries(self) -> Dict[str, Dict]:
        return {name: audit.summary()
                for name, audit in self.audits.items()}

    @property
    def digest(self) -> str:
        return audit_digest(self.summaries())


def audit_payload(report: AuditReport) -> Dict:
    """The compact audit payload embedded in results-v2 artifacts."""
    return {"summary": report.summaries(), "digest": report.digest}


def _audit_one(config: ExperimentConfig, strategy: str, cardinality: int,
               num_sites: int, seed: int, samples: int,
               correlation=None) -> PlacementAudit:
    """Static audit of one (strategy, correlation) placement -- memoized
    through the plan layer, never simulated."""
    planned = compile_point(config, strategy, multiprogramming_level=1,
                            cardinality=cardinality, num_sites=num_sites,
                            correlation=correlation, seed=seed)
    placement = placement_for_spec(planned.spec, planned.params, config)
    mix = make_mix(config.mix_name, domain=cardinality,
                   qb_low_tuples=planned.spec.qb_low_tuples)
    return audit_placement(placement, mix, strategy=strategy,
                           correlation=planned.spec.correlation,
                           samples=samples, seed=seed)


def _build(config: ExperimentConfig, strategies: List[str],
           cardinality: int, num_sites: int, seed: int, samples: int,
           sensitivity: bool) -> AuditReport:
    audits = {
        strategy: _audit_one(config, strategy, cardinality, num_sites,
                             seed, samples)
        for strategy in strategies
    }
    report = AuditReport(
        figure=config.figure, title=config.title,
        mix_name=config.mix_name, correlation=config.correlation,
        cardinality=cardinality, num_sites=num_sites,
        seed=seed, samples=samples,
        strategies=list(strategies), audits=audits)
    if sensitivity:
        for strategy in strategies:
            per_corr = {}
            for corr in SENSITIVITY_CORRELATIONS:
                if corr == config.correlation:
                    per_corr[corr] = audits[strategy].summary()
                else:
                    per_corr[corr] = _audit_one(
                        config, strategy, cardinality, num_sites, seed,
                        samples, correlation=corr).summary()
            report.sensitivity[strategy] = per_corr
    return report


def _fuse_telemetry(report: AuditReport, result: FigureResult) -> None:
    """Fold a traced run's telemetry into the report (highest MPL per
    strategy): the why-table and the per-node load-balance gauges the
    machine recorded at the end of the measurement window."""
    chosen: Dict[str, Tuple[int, object]] = {}
    for (strategy, mpl), telemetry in result.telemetries.items():
        if strategy not in chosen or mpl > chosen[strategy][0]:
            chosen[strategy] = (mpl, telemetry)
    for strategy, (mpl, telemetry) in sorted(chosen.items()):
        registry = telemetry.registry
        balance: Dict[str, float] = {"mpl": float(mpl)}
        ratio = registry.get("nodes.cpu.busy_share.max_over_mean")
        if ratio is not None:
            balance["busy_share_max_over_mean"] = ratio.value
        selects = []
        for site in range(result.num_sites):
            counter = registry.get(f"node.{site}.ops.selects")
            if counter is None:
                break
            selects.append(counter.value)
        if len(selects) == result.num_sites and sum(selects):
            from ..obs.audit import skew_stats
            stats = skew_stats(selects)
            balance["selects_total"] = stats.total
            balance["selects_cv"] = stats.cv
            balance["selects_max_mean_ratio"] = stats.max_mean_ratio
        report.load_balance[strategy] = balance
        if telemetry.tracing and telemetry.spans is not None:
            report.why_tables[strategy] = why_table(telemetry.spans).rstrip()
            summaries = summarize_critical_paths(
                critical_paths(span_records(telemetry.spans)))
            if summaries:
                report.critpath_tables[strategy] = \
                    critpath_table(summaries).rstrip()


def build_audit_report(result: FigureResult, samples: int = 400,
                       sensitivity: bool = True) -> AuditReport:
    """Audit every strategy of a figure run and fuse its telemetry.

    Works identically on a freshly executed :class:`FigureResult` and
    on one reloaded from a results-v2 JSON artifact; either way no
    simulation happens here.
    """
    config = result.config
    strategies = list(result.series) or list(config.strategies)
    report = _build(config, strategies, result.cardinality,
                    result.num_sites, result.seed, samples, sensitivity)
    for strategy, runs in result.series.items():
        report.throughputs[strategy] = [
            (run.multiprogramming_level, run.throughput) for run in runs]
    report.latency = result.latency
    _fuse_telemetry(report, result)
    return report


def build_static_report(config: ExperimentConfig,
                        cardinality: int = 100_000, num_sites: int = 32,
                        seed: int = 13, samples: int = 400,
                        sensitivity: bool = True) -> AuditReport:
    """Audit a figure's placements without any run at all."""
    return _build(config, list(config.strategies), cardinality, num_sites,
                  seed, samples, sensitivity)


def _skew_rows(report: AuditReport, which: str) -> List[List[str]]:
    rows = []
    for metric, attr in (("max/mean", "max_mean_ratio"), ("CV", "cv"),
                         ("Gini", "gini")):
        row = [f"{which} {metric}"]
        for strategy in report.strategies:
            audit = report.audits[strategy]
            stats = (audit.tuple_skew if which == "tuples"
                     else audit.fragment_skew)
            row.append(_fmt(getattr(stats, attr)))
        rows.append(row)
    return rows


def _fanout_rows(report: AuditReport) -> List[List[str]]:
    query_types = sorted({name for audit in report.audits.values()
                          for name in audit.fanouts})
    rows = []
    for qtype in query_types:
        for label, getter in (
                ("fan-out mean", lambda f: _fmt(f.target_mean, 2)),
                ("fan-out min..max",
                 lambda f: f"{f.target_min}..{f.target_max}"),
                ("aux probe mean", lambda f: _fmt(f.probe_mean, 2)),
                ("two-step", lambda f: "yes" if f.two_step else "no"),
                ("broadcast %",
                 lambda f: _fmt(100 * f.broadcast_fraction, 1))):
            row = [f"{qtype} {label}"]
            for strategy in report.strategies:
                fanout = report.audits[strategy].fanouts.get(qtype)
                row.append(getter(fanout) if fanout else "-")
            rows.append(row)
    return rows


def audit_document(report: AuditReport) -> List[Block]:
    """The side-by-side placement-quality comparison of one figure."""
    blocks: List[Block] = [
        Heading(1, f"Placement audit: figure {report.figure}"),
        Paragraph(f"{report.title} -- mix `{report.mix_name}`, correlation "
                  f"`{report.correlation}`, {report.cardinality} tuples on "
                  f"{report.num_sites} processors (seed {report.seed}, "
                  f"{report.samples} sampled queries per type)."),
        Paragraph(f"Audit digest: `{report.digest}`")]

    if report.throughputs:
        mpls = sorted({mpl for series in report.throughputs.values()
                       for mpl, _ in series})
        rows = []
        for mpl in mpls:
            row = [str(mpl)]
            for strategy in report.strategies:
                value = dict(report.throughputs.get(strategy, [])).get(mpl)
                row.append(_fmt(value, 1) if value is not None else "-")
            rows.append(row)
        blocks += [Heading(2, "Measured throughput (queries/second)"),
                   Table(["MPL"] + report.strategies, rows)]

    blocks += [
        Heading(2, "Declustering skew (static)"),
        Paragraph("max/mean 1.0 = perfectly even; CV and Gini 0.0 = "
                  "perfectly even."),
        Table([""] + report.strategies,
              _skew_rows(report, "tuples")
              + _skew_rows(report, "fragments")),
        Heading(2, "Per-query fan-out (static)"),
        Paragraph("Processors touched per sampled selection; BERD's "
                  "two-step rows count the auxiliary-index probe phase "
                  "separately from the base-fragment selections it "
                  "directs."),
        Table(["metric"] + report.strategies, _fanout_rows(report))]

    spread_rows = []
    for strategy in report.strategies:
        for spread in report.audits[strategy].slice_spreads:
            spread_rows.append([
                strategy, spread.attribute,
                "-" if spread.target is None else str(spread.target),
                "-" if spread.ideal_mi is None else _fmt(spread.ideal_mi, 1),
                _fmt(spread.achieved_mean, 2),
                f"{spread.achieved_min}..{spread.achieved_max}",
                {True: "yes", False: "NO", None: "-"}[spread.within_one],
            ])
    if spread_rows:
        blocks += [
            Heading(2, "MAGIC slice spread vs. M_i targets"),
            Paragraph("Distinct processors per grid slice vs. the integer "
                      "targets `assign_entries` aimed for."),
            Table(["strategy", "attribute", "target", "ideal M_i",
                   "achieved mean", "achieved range", "within 1"],
                  spread_rows)]

    blocks.append(Heading(2, "Tuple heat maps (tuples per processor)"))
    for strategy in report.strategies:
        audit = report.audits[strategy]
        blocks += [Heading(3, strategy), HeatMap(audit.tuple_counts)]
        for attribute, counts in sorted(audit.aux_counts.items()):
            blocks += [Paragraph(f"Auxiliary index on `{attribute}` "
                                 f"(entries per processor):"),
                       HeatMap(counts)]

    if report.sensitivity:
        rows = []
        for strategy in report.strategies:
            per_corr = report.sensitivity.get(strategy, {})
            for corr in SENSITIVITY_CORRELATIONS:
                summary = per_corr.get(corr)
                if not summary:
                    continue
                qb = summary["fanouts"].get("QB", {})
                rows.append([
                    strategy, corr,
                    _fmt(summary["tuple_skew"]["max_mean_ratio"]),
                    _fmt(summary["tuple_skew"]["gini"]),
                    _fmt(qb.get("target_mean", float("nan")), 2),
                ])
        blocks += [
            Heading(2, "Correlation sensitivity"),
            Paragraph("The same placements re-audited under low and high "
                      "attribute correlation (paper §4: correlation is "
                      "what breaks naive grid assignments)."),
            Table(["strategy", "correlation", "tuple max/mean",
                   "tuple Gini", "QB fan-out mean"], rows)]

    if report.load_balance:
        rows = []
        for strategy in report.strategies:
            balance = report.load_balance.get(strategy)
            if not balance:
                continue
            rows.append([
                strategy, str(int(balance.get("mpl", 0))),
                _fmt(balance.get("busy_share_max_over_mean",
                                 float("nan"))),
                _fmt(balance.get("selects_cv", float("nan"))),
                str(int(balance.get("selects_total", 0))),
            ])
        blocks += [
            Heading(2, "Runtime load balance (measured)"),
            Paragraph("From the traced run's metrics registry, at each "
                      "strategy's highest traced MPL: per-node CPU "
                      "busy-share spread and completed selections per "
                      "node."),
            Table(["strategy", "MPL", "busy max/mean", "selects CV",
                   "selects total"], rows)]

    if report.latency:
        blocks.append(Heading(2, "Query latency budget (measured)"))
        blocks += latency_budget(report.latency)

    for strategy, table in sorted(report.why_tables.items()):
        blocks += [Heading(2, f"Why-table: {strategy}"), Preformatted(table)]

    for strategy, table in sorted(report.critpath_tables.items()):
        blocks += [
            Heading(2, f"Critical path: {strategy}"),
            Paragraph("Unlike the why-table's overlapping totals, these "
                      "shares partition the wall response time, so they "
                      "sum to at most 100%."),
            Preformatted(table)]
    return blocks


def write_report(report: AuditReport, out_dir: str) -> Tuple[str, str]:
    """Write ``audit_<figure>.md`` and ``.html``; returns both paths."""
    os.makedirs(out_dir, exist_ok=True)
    blocks = audit_document(report)
    md_path = os.path.join(out_dir, f"audit_{report.figure}.md")
    html_path = os.path.join(out_dir, f"audit_{report.figure}.html")
    with open(md_path, "w") as handle:
        handle.write(render_markdown(blocks))
    with open(html_path, "w") as handle:
        handle.write(render_html(blocks, f"Placement audit: figure "
                                         f"{report.figure}"))
    return md_path, html_path
