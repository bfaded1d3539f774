"""Shared check-result types and the markdown conformance report.

Every validation layer -- trend specs, differential oracles, the
invariant checker summary -- reduces to a list of :class:`Check`
records grouped into :class:`CheckGroup` sections.  One renderer
(:func:`render_report`) turns any mix of them into the markdown
conformance report ``repro validate`` emits, so live runs, offline
re-validations and CI smoke jobs all produce the same artifact shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

__all__ = ["Check", "CheckGroup", "render_report"]


@dataclass(frozen=True)
class Check:
    """One named pass/fail assertion with its measured evidence."""

    name: str
    passed: bool
    detail: str = ""

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


@dataclass
class CheckGroup:
    """A titled section of checks (one oracle, one figure's trends, ...)."""

    title: str
    checks: List[Check] = field(default_factory=list)
    #: Optional free-form context shown under the section title.
    note: str = ""

    def add(self, name: str, passed: bool, detail: str = "") -> Check:
        check = Check(name=name, passed=bool(passed), detail=detail)
        self.checks.append(check)
        return check

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def failures(self) -> List[Check]:
        return [check for check in self.checks if not check.passed]


def render_report(groups: Sequence[CheckGroup],
                  title: str = "Conformance report") -> str:
    """Markdown report over any collection of check groups."""
    total = sum(len(g.checks) for g in groups)
    failed = sum(len(g.failures) for g in groups)
    lines = [f"# {title}", ""]
    verdict = "PASS" if failed == 0 else "FAIL"
    lines.append(f"**{verdict}** -- {total - failed}/{total} checks passed "
                 f"across {len(groups)} sections.")
    lines.append("")
    for group in groups:
        marker = "x" if group.passed else " "
        lines.append(f"## [{marker}] {group.title}")
        if group.note:
            lines.append("")
            lines.append(group.note)
        lines.append("")
        lines.append("| check | status | detail |")
        lines.append("| --- | --- | --- |")
        for check in group.checks:
            detail = check.detail.replace("|", "\\|")
            lines.append(f"| {check.name} | {check.status} | {detail} |")
        lines.append("")
    return "\n".join(lines)
