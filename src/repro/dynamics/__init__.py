"""Dynamic-data and fault-injection extensions to the static model.

The paper's experiments are static: load once, query forever.  This
package adds the three time-varying dimensions the north-star needs:

- :mod:`repro.dynamics.faults` -- deterministic, seeded site failures
  (and optional recoveries) injected mid-run; in-flight work against a
  dead site aborts and the scheduler retries or degrades.
- :mod:`repro.dynamics.mutations` -- an online insert stream threaded
  through the Gamma terminals, with incremental grid-directory splits
  for MAGIC placements.
- :mod:`repro.dynamics.rescale` -- elastic growth of ``num_sites`` with
  bounded data movement per strategy, far below a naive re-partition.

Everything here is strictly additive: with no fault plan, no mutation
source and no rescale, the static figures are bit-identical (the spec
digests never see any dynamics knob).
"""

from .faults import FaultController, FaultPlan, SiteFailure
from .mutations import MutationSource, OnlineGridMaintainer
from .rescale import RescaleReport, rescale_placement
from .runner import format_dynamics, run_dynamics

__all__ = [
    "FaultController",
    "FaultPlan",
    "SiteFailure",
    "MutationSource",
    "OnlineGridMaintainer",
    "RescaleReport",
    "rescale_placement",
    "run_dynamics",
    "format_dynamics",
]
