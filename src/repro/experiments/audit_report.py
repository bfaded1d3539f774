"""Cross-strategy placement-quality reports (markdown + HTML).

Fuses the static audit of :mod:`repro.obs.audit` -- per-processor heat
maps, skew statistics, M_i slice spread, per-query fan-out -- with the
runtime telemetry a traced run collected (why-table, per-node
load-balance metrics) into one side-by-side comparison artifact per
figure.  Two render targets per report: a markdown file for terminals
and diffs, and a self-contained HTML file (inline CSS, no scripts, no
external assets) whose heat-map tables shade each cell on a single-hue
ramp.

Reports never simulate.  Placements are rebuilt (or reused from the
plan layer's per-process memo) via
:func:`~repro.experiments.plan.placement_for_spec`, so ``repro audit``
on a cached results file is pure post-processing.
"""

from __future__ import annotations

import html
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs import span_records, why_table
from ..obs.audit import PlacementAudit, audit_digest, audit_placement
from ..obs.critpath import (
    critical_paths,
    critpath_table,
    summarize_critical_paths,
)
from ..obs.sketch import QUANTILES
from ..workload import make_mix
from .config import ExperimentConfig
from .plan import compile_point, placement_for_spec
from .runner import FigureResult

__all__ = [
    "AuditReport",
    "build_audit_report",
    "build_static_report",
    "audit_payload",
    "render_markdown",
    "render_html",
    "write_report",
]

#: The two correlation levels the sensitivity probe re-audits under.
SENSITIVITY_CORRELATIONS = ("low", "high")

#: Heat-map table width (processors per row).
_HEAT_COLUMNS = 8


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


# -- building --------------------------------------------------------------


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


# -- markdown rendering ----------------------------------------------------


def _fmt(value: float, digits: int = 3) -> str:
    return f"{value:.{digits}f}"


def _heat_rows(counts: Tuple[int, ...]) -> List[Tuple[int, List[int]]]:
    """Chunk a per-processor vector into heat-map table rows."""
    return [(start, list(counts[start:start + _HEAT_COLUMNS]))
            for start in range(0, len(counts), _HEAT_COLUMNS)]


def _md_table(header: List[str], rows: List[List[str]]) -> List[str]:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return lines


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


_LATENCY_HEADER = ["strategy", "MPL", "queries", "mean ms"] \
    + [f"p{int(q * 100)} ms" for q in QUANTILES] + ["max ms"]


def _latency_rows(report: AuditReport) -> List[List[str]]:
    """Latency-budget rows: each strategy at its highest captured MPL."""
    rows = []
    for strategy, entries in sorted(
            (report.latency or {}).get("points", {}).items()):
        last = entries[-1]
        summary = last["overall"]
        rows.append(
            [strategy, str(last["mpl"]), str(int(summary["count"])),
             _fmt(summary["mean"] * 1000, 1)]
            + [_fmt(summary[f"p{int(q * 100)}"] * 1000, 1)
               for q in QUANTILES]
            + [_fmt(summary["max"] * 1000, 1)])
    return rows


def render_markdown(report: AuditReport) -> str:
    """The report as GitHub-flavoured markdown."""
    lines: List[str] = []
    lines.append(f"# Placement audit: figure {report.figure}")
    lines.append("")
    lines.append(f"{report.title} -- mix `{report.mix_name}`, correlation "
                 f"`{report.correlation}`, {report.cardinality} tuples on "
                 f"{report.num_sites} processors (seed {report.seed}, "
                 f"{report.samples} sampled queries per type).")
    lines.append("")
    lines.append(f"Audit digest: `{report.digest}`")
    lines.append("")

    if report.throughputs:
        lines.append("## Measured throughput (queries/second)")
        lines.append("")
        mpls = sorted({mpl for series in report.throughputs.values()
                       for mpl, _ in series})
        header = ["MPL"] + report.strategies
        rows = []
        for mpl in mpls:
            row = [str(mpl)]
            for strategy in report.strategies:
                value = dict(report.throughputs.get(strategy, [])).get(mpl)
                row.append(_fmt(value, 1) if value is not None else "-")
            rows.append(row)
        lines += _md_table(header, rows)
        lines.append("")

    lines.append("## Declustering skew (static)")
    lines.append("")
    lines.append("max/mean 1.0 = perfectly even; CV and Gini 0.0 = "
                 "perfectly even.")
    lines.append("")
    lines += _md_table([""] + report.strategies,
                       _skew_rows(report, "tuples")
                       + _skew_rows(report, "fragments"))
    lines.append("")

    lines.append("## Per-query fan-out (static)")
    lines.append("")
    lines.append("Processors touched per sampled selection; BERD's "
                 "two-step rows count the auxiliary-index probe phase "
                 "separately from the base-fragment selections it "
                 "directs.")
    lines.append("")
    lines += _md_table(["metric"] + report.strategies,
                       _fanout_rows(report))
    lines.append("")

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
        lines.append("## MAGIC slice spread vs. M_i targets")
        lines.append("")
        lines.append("Distinct processors per grid slice vs. the integer "
                     "targets `assign_entries` aimed for.")
        lines.append("")
        lines += _md_table(["strategy", "attribute", "target", "ideal M_i",
                            "achieved mean", "achieved range", "within 1"],
                           spread_rows)
        lines.append("")

    lines.append("## Tuple heat maps (tuples per processor)")
    for strategy in report.strategies:
        audit = report.audits[strategy]
        lines.append("")
        lines.append(f"### {strategy}")
        lines.append("")
        header = ["sites"] + [f"+{i}" for i in range(_HEAT_COLUMNS)]
        rows = []
        for start, chunk in _heat_rows(audit.tuple_counts):
            rows.append([f"{start}.."]
                        + [str(v) for v in chunk]
                        + [""] * (_HEAT_COLUMNS - len(chunk)))
        lines += _md_table(header, rows)
        for attribute, counts in sorted(audit.aux_counts.items()):
            lines.append("")
            lines.append(f"Auxiliary index on `{attribute}` "
                         f"(entries per processor):")
            lines.append("")
            rows = [[f"{start}.."] + [str(v) for v in chunk]
                    + [""] * (_HEAT_COLUMNS - len(chunk))
                    for start, chunk in _heat_rows(counts)]
            lines += _md_table(header, rows)
    lines.append("")

    if report.sensitivity:
        lines.append("## Correlation sensitivity")
        lines.append("")
        lines.append("The same placements re-audited under low and high "
                     "attribute correlation (paper §4: correlation is "
                     "what breaks naive grid assignments).")
        lines.append("")
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
        lines += _md_table(["strategy", "correlation", "tuple max/mean",
                            "tuple Gini", "QB fan-out mean"], rows)
        lines.append("")

    if report.load_balance:
        lines.append("## Runtime load balance (measured)")
        lines.append("")
        lines.append("From the traced run's metrics registry, at each "
                     "strategy's highest traced MPL: per-node CPU "
                     "busy-share spread and completed selections per "
                     "node.")
        lines.append("")
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
        lines += _md_table(["strategy", "MPL", "busy max/mean",
                            "selects CV", "selects total"], rows)
        lines.append("")

    if report.latency:
        lines.append("## Query latency budget (measured)")
        lines.append("")
        lines.append(f"Response-time distribution at each strategy's "
                     f"highest captured MPL, from mergeable quantile "
                     f"sketches (relative accuracy "
                     f"{report.latency['relative_accuracy']:.0%}).")
        lines.append("")
        lines += _md_table(_LATENCY_HEADER, _latency_rows(report))
        lines.append("")

    for strategy, table in sorted(report.why_tables.items()):
        lines.append(f"## Why-table: {strategy}")
        lines.append("")
        lines.append("```")
        lines.append(table)
        lines.append("```")
        lines.append("")

    for strategy, table in sorted(report.critpath_tables.items()):
        lines.append(f"## Critical path: {strategy}")
        lines.append("")
        lines.append("Unlike the why-table's overlapping totals, these "
                     "shares partition the wall response time, so they "
                     "sum to at most 100%.")
        lines.append("")
        lines.append("```")
        lines.append(table)
        lines.append("```")
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"


# -- HTML rendering --------------------------------------------------------

#: Single sequential hue for heat cells (light -> dark = low -> high).
_HEAT_RGB = (38, 99, 160)

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
       color: #1f2430; background: #ffffff; }
h1, h2, h3 { color: #1f2430; }
h2 { border-bottom: 1px solid #e3e6ea; padding-bottom: 0.3rem; }
p.meta { color: #5a6372; }
table { border-collapse: collapse; margin: 0.75rem 0; }
th, td { border: 1px solid #e3e6ea; padding: 0.3rem 0.6rem;
         text-align: right; font-variant-numeric: tabular-nums; }
th { background: #f4f6f8; color: #3c4454; }
td.label, th.label { text-align: left; }
td.heat { min-width: 3.2rem; }
pre { background: #f4f6f8; padding: 0.75rem; overflow-x: auto;
      font-size: 0.85rem; }
code { background: #f4f6f8; padding: 0.1rem 0.3rem; }
.digest { color: #5a6372; font-size: 0.9rem; }
"""


def _heat_cell(value: float, maximum: float) -> str:
    """One shaded heat-map cell: single-hue ramp, value printed."""
    norm = (value / maximum) if maximum > 0 else 0.0
    alpha = 0.06 + 0.74 * norm
    r, g, b = _HEAT_RGB
    ink = "#ffffff" if alpha > 0.52 else "#1f2430"
    return (f'<td class="heat" style="background: '
            f'rgba({r},{g},{b},{alpha:.2f}); color: {ink};">'
            f'{int(value)}</td>')


def _html_table(header: List[str], rows: List[List[str]],
                label_first: bool = True) -> List[str]:
    parts = ["<table>", "<tr>"]
    for index, cell in enumerate(header):
        cls = ' class="label"' if label_first and index == 0 else ""
        parts.append(f"<th{cls}>{html.escape(cell)}</th>")
    parts.append("</tr>")
    for row in rows:
        parts.append("<tr>")
        for index, cell in enumerate(row):
            cls = ' class="label"' if label_first and index == 0 else ""
            parts.append(f"<td{cls}>{html.escape(cell)}</td>")
        parts.append("</tr>")
    parts.append("</table>")
    return parts


def _html_heat_table(counts: Tuple[int, ...]) -> List[str]:
    maximum = float(max(counts)) if counts else 0.0
    parts = ["<table>", "<tr>", '<th class="label">sites</th>']
    parts += [f"<th>+{i}</th>" for i in range(_HEAT_COLUMNS)]
    parts.append("</tr>")
    for start, chunk in _heat_rows(counts):
        parts.append("<tr>")
        parts.append(f'<td class="label">{start}..</td>')
        parts += [_heat_cell(value, maximum) for value in chunk]
        parts += ["<td></td>"] * (_HEAT_COLUMNS - len(chunk))
        parts.append("</tr>")
    parts.append("</table>")
    return parts


def render_html(report: AuditReport) -> str:
    """The report as one self-contained HTML page (no scripts/assets)."""
    parts: List[str] = []
    parts.append("<!DOCTYPE html>")
    parts.append('<html lang="en"><head><meta charset="utf-8">')
    parts.append(f"<title>Placement audit: figure "
                 f"{html.escape(report.figure)}</title>")
    parts.append(f"<style>{_CSS}</style></head><body>")
    parts.append(f"<h1>Placement audit: figure "
                 f"{html.escape(report.figure)}</h1>")
    parts.append(f'<p class="meta">{html.escape(report.title)} &mdash; '
                 f"mix <code>{html.escape(report.mix_name)}</code>, "
                 f"correlation <code>{html.escape(report.correlation)}"
                 f"</code>, {report.cardinality} tuples on "
                 f"{report.num_sites} processors (seed {report.seed}, "
                 f"{report.samples} sampled queries per type).</p>")
    parts.append(f'<p class="digest">Audit digest: '
                 f"<code>{report.digest}</code></p>")

    if report.throughputs:
        parts.append("<h2>Measured throughput (queries/second)</h2>")
        mpls = sorted({mpl for series in report.throughputs.values()
                       for mpl, _ in series})
        rows = []
        for mpl in mpls:
            row = [str(mpl)]
            for strategy in report.strategies:
                value = dict(report.throughputs.get(strategy, [])).get(mpl)
                row.append(_fmt(value, 1) if value is not None else "-")
            rows.append(row)
        parts += _html_table(["MPL"] + report.strategies, rows)

    parts.append("<h2>Declustering skew (static)</h2>")
    parts.append("<p>max/mean 1.0 = perfectly even; CV and Gini 0.0 = "
                 "perfectly even.</p>")
    parts += _html_table([""] + report.strategies,
                         _skew_rows(report, "tuples")
                         + _skew_rows(report, "fragments"))

    parts.append("<h2>Per-query fan-out (static)</h2>")
    parts.append("<p>Processors touched per sampled selection; BERD's "
                 "two-step rows count the auxiliary-index probe phase "
                 "separately from the base-fragment selections it "
                 "directs.</p>")
    parts += _html_table(["metric"] + report.strategies,
                         _fanout_rows(report))

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
        parts.append("<h2>MAGIC slice spread vs. M<sub>i</sub> "
                     "targets</h2>")
        parts += _html_table(["strategy", "attribute", "target",
                              "ideal M_i", "achieved mean",
                              "achieved range", "within 1"], spread_rows)

    parts.append("<h2>Tuple heat maps (tuples per processor)</h2>")
    for strategy in report.strategies:
        audit = report.audits[strategy]
        parts.append(f"<h3>{html.escape(strategy)}</h3>")
        parts += _html_heat_table(audit.tuple_counts)
        for attribute, counts in sorted(audit.aux_counts.items()):
            parts.append(f"<p>Auxiliary index on <code>"
                         f"{html.escape(attribute)}</code> "
                         f"(entries per processor):</p>")
            parts += _html_heat_table(counts)

    if report.sensitivity:
        parts.append("<h2>Correlation sensitivity</h2>")
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
        parts += _html_table(["strategy", "correlation", "tuple max/mean",
                              "tuple Gini", "QB fan-out mean"], rows)

    if report.load_balance:
        parts.append("<h2>Runtime load balance (measured)</h2>")
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
        parts += _html_table(["strategy", "MPL", "busy max/mean",
                              "selects CV", "selects total"], rows)

    if report.latency:
        parts.append("<h2>Query latency budget (measured)</h2>")
        parts.append(f"<p>Response-time distribution at each strategy's "
                     f"highest captured MPL, from mergeable quantile "
                     f"sketches (relative accuracy "
                     f"{report.latency['relative_accuracy']:.0%}).</p>")
        parts += _html_table(_LATENCY_HEADER, _latency_rows(report))

    for strategy, table in sorted(report.why_tables.items()):
        parts.append(f"<h2>Why-table: {html.escape(strategy)}</h2>")
        parts.append(f"<pre>{html.escape(table)}</pre>")

    for strategy, table in sorted(report.critpath_tables.items()):
        parts.append(f"<h2>Critical path: {html.escape(strategy)}</h2>")
        parts.append("<p>Unlike the why-table's overlapping totals, "
                     "these shares partition the wall response time, so "
                     "they sum to at most 100%.</p>")
        parts.append(f"<pre>{html.escape(table)}</pre>")

    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def write_report(report: AuditReport, out_dir: str) -> Tuple[str, str]:
    """Write ``audit_<figure>.md`` and ``.html``; returns both paths."""
    os.makedirs(out_dir, exist_ok=True)
    md_path = os.path.join(out_dir, f"audit_{report.figure}.md")
    html_path = os.path.join(out_dir, f"audit_{report.figure}.html")
    with open(md_path, "w") as handle:
        handle.write(render_markdown(report))
    with open(html_path, "w") as handle:
        handle.write(render_html(report))
    return md_path, html_path
