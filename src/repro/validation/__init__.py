"""Conformance and invariant subsystem (validation layer).

Three layers of correctness tooling on top of the simulator:

* :mod:`~repro.validation.invariants` -- an opt-in runtime
  :class:`InvariantChecker` threaded through the DES kernel and the
  Gamma machine that enforces conservation laws while a simulation
  runs (queries terminate exactly once, busy time never exceeds wall
  time, messages are not lost, buffer admissions balance evictions,
  the clock is monotone) and raises a structured
  :class:`InvariantViolation` on the first breach.  Zero-perturbation:
  results are bit-identical with the checker on or off.
* :mod:`~repro.validation.oracles` -- differential and metamorphic
  oracles that cross-check the simulator against independent
  predictions: the analytic MAGIC cost model at MPL=1, degenerate
  configurations with known-equal outcomes (1-D MAGIC vs. range
  partitioning, a single processor), and scaling laws.
* :mod:`~repro.validation.trends` -- per-figure :class:`TrendSpec`
  assertions (ordering, minimum gap, monotonicity up to saturation
  over the whole MPL series) generalizing the old single-point
  ``check_expectation``, rendered as a markdown conformance report by
  ``repro validate`` (:func:`validate_figure_result` is the per-figure
  entry point it shares with the conformance suite).
"""

from .checks import Check, CheckGroup, render_report
from .invariants import InvariantChecker, InvariantViolation
from .trends import (
    TREND_SPECS,
    TrendSpec,
    evaluate_trends,
    trend_spec_for,
)
from .oracles import (
    cost_model_oracle,
    degenerate_single_site_oracle,
    one_dimensional_magic_oracle,
    scaling_oracle,
    validate_figure_result,
)

__all__ = [
    "Check",
    "CheckGroup",
    "render_report",
    "InvariantChecker",
    "InvariantViolation",
    "TrendSpec",
    "TREND_SPECS",
    "trend_spec_for",
    "evaluate_trends",
    "cost_model_oracle",
    "degenerate_single_site_oracle",
    "one_dimensional_magic_oracle",
    "scaling_oracle",
    "validate_figure_result",
]
