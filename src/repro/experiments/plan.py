"""The declarative run-plan layer every experiment entry point compiles into.

Figures (:func:`~repro.experiments.runner.run_experiment`), parameter
sweeps (:func:`~repro.experiments.sweeps.sweep`) and ``repro explain`` used
to carry three divergent copies of the same strategy-build /
relation-build / machine-run loop, all strictly serial.  This module
replaces them with one vocabulary:

* :class:`RunSpec` -- a frozen, hashable description of exactly one
  simulation point: (figure, strategy, cardinality, correlation,
  machine size, MPL, seed, workload knobs, parameter fingerprint).
  Its :meth:`~RunSpec.digest` content-addresses the run for the result
  cache, and every seed used during execution derives from the spec --
  never from executor or worker state -- which is what makes
  ``--jobs N`` bit-identical to a serial run.
* :class:`RunPlan` -- an ordered tuple of :class:`PlannedRun` (spec +
  the concrete :class:`~repro.gamma.params.SimulationParameters` it
  fingerprints), produced by :func:`compile_figure` /
  :func:`compile_point` and consumed by
  :mod:`~repro.experiments.executor`.
* :func:`execute_run` -- the one place a spec becomes a simulation.
  Relations and placements are memoized per process, keyed by
  ``(cardinality, correlation, seed)`` and ``(strategy, num_sites, ...)``
  respectively, so a 5-strategy x 7-MPL figure builds each placement
  once per worker instead of 35 times.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core import (
    BerdStrategy,
    HashStrategy,
    MagicStrategy,
    MagicTuning,
    Placement,
    RangeStrategy,
)
from ..gamma import GAMMA_PARAMETERS, GammaMachine, RunResult, SimulationParameters
from ..obs import Telemetry, phases
from ..storage import make_wisconsin
from ..workload import cost_model_for_mix, make_mix
from .config import ATTR_A, ATTR_B, ExperimentConfig, FIGURES

__all__ = [
    "STRATEGY_NAMES",
    "RunSpec",
    "PlannedRun",
    "RunPlan",
    "PAPER_INDEXES",
    "params_fingerprint",
    "build_strategy",
    "compile_figure",
    "compile_point",
    "execute_run",
    "placement_for_spec",
    "prewarm",
    "clear_memos",
]

#: Indexes of §6: non-clustered on A, clustered on B.
PAPER_INDEXES = {ATTR_A: False, ATTR_B: True}


def params_fingerprint(params: SimulationParameters) -> str:
    """A stable content digest of a full simulation-parameter set.

    Two parameter objects with equal field values fingerprint
    identically across processes and sessions, so cached results keyed
    by a :class:`RunSpec` survive restarts but never alias a run made
    under different Table 2 knobs.
    """
    payload = json.dumps(asdict(params), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


#: Fingerprint of the unmodified Table 2 configuration.
DEFAULT_PARAMS_DIGEST = params_fingerprint(GAMMA_PARAMETERS)


@dataclass(frozen=True)
class RunSpec:
    """Everything identifying one (strategy, workload, MPL) simulation.

    The spec is the *only* input :func:`execute_run` consults besides
    the concrete parameter object it fingerprints, which is what lets
    serial and parallel executors produce bit-identical results: a
    worker reconstructs relation, placement and machine from the spec
    alone, with no ordering- or process-dependent state.
    """

    figure: str
    strategy: str
    cardinality: int
    correlation: Union[str, float]
    num_sites: int
    multiprogramming_level: int
    measured_queries: int
    seed: int
    mix_name: str
    qb_low_tuples: int = 10
    params_digest: str = DEFAULT_PARAMS_DIGEST

    def digest(self) -> str:
        """Content address of this run (cache key, artifact metadata)."""
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    @property
    def machine_seed(self) -> int:
        """Root seed for the simulated machine, derived from the spec.

        Workers must never seed from pool or process state; routing the
        seed through the spec is the determinism guarantee ``--jobs``
        relies on.
        """
        return self.seed

    def relation_key(self) -> Tuple:
        """Memo key for the benchmark relation this run scans."""
        return (self.cardinality, self.correlation, self.seed)

    def placement_key(self) -> Tuple:
        """Memo key for the declustered placement this run loads."""
        return (self.figure, self.strategy, self.num_sites,
                self.mix_name, self.params_digest) + self.relation_key()


@dataclass(frozen=True)
class PlannedRun:
    """One spec paired with the concrete parameters it fingerprints."""

    spec: RunSpec
    params: SimulationParameters = GAMMA_PARAMETERS


@dataclass(frozen=True)
class RunPlan:
    """An ordered batch of planned runs (one figure, sweep, or explain)."""

    runs: Tuple[PlannedRun, ...]

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)

    def specs(self) -> List[RunSpec]:
        return [run.spec for run in self.runs]

    def digests(self) -> List[str]:
        return [run.spec.digest() for run in self.runs]


#: Every name :func:`build_strategy` accepts.
STRATEGY_NAMES = ("range", "hash", "berd", "magic", "magic-derived")


def build_strategy(name: str, config: ExperimentConfig,
                   cardinality: int,
                   params: SimulationParameters = GAMMA_PARAMETERS):
    """Instantiate a declustering strategy by experiment name.

    ``magic`` pins the paper-reported directory shape and M_i values;
    ``magic-derived`` lets the cost model (fed by the analytic workload
    profiles) choose everything, the fully self-contained pipeline.
    """
    if name == "range":
        return RangeStrategy(ATTR_A)
    if name == "hash":
        return HashStrategy(ATTR_A)
    if name == "berd":
        return BerdStrategy(ATTR_A, [ATTR_B])
    if name == "magic":
        return MagicStrategy(
            [ATTR_A, ATTR_B],
            tuning=MagicTuning(shape=dict(config.magic_shape),
                               mi=dict(config.magic_mi)))
    if name == "magic-derived":
        mix = make_mix(config.mix_name, domain=cardinality)
        model = cost_model_for_mix(mix, params, cardinality)
        return MagicStrategy([ATTR_A, ATTR_B], cost_model=model)
    raise ValueError(f"unknown strategy {name!r}")


# -- compilation -----------------------------------------------------------

def compile_point(config: ExperimentConfig, strategy: str,
                  multiprogramming_level: int,
                  cardinality: int = 100_000,
                  num_sites: int = 32,
                  measured_queries: int = 250,
                  correlation: Optional[Union[str, float]] = None,
                  qb_low_tuples: int = 10,
                  params: SimulationParameters = GAMMA_PARAMETERS,
                  seed: int = 13) -> PlannedRun:
    """Compile one simulation point with arbitrary overrides.

    The override surface matches what sweep axes produce: ``params``,
    ``correlation``, ``qb_low_tuples`` and ``num_sites``.
    """
    corr = correlation if correlation is not None else config.correlation
    spec = RunSpec(
        figure=config.figure,
        strategy=strategy,
        cardinality=cardinality,
        correlation=corr,
        num_sites=num_sites,
        multiprogramming_level=multiprogramming_level,
        measured_queries=measured_queries,
        seed=seed,
        mix_name=config.mix_name,
        qb_low_tuples=qb_low_tuples,
        params_digest=params_fingerprint(params))
    return PlannedRun(spec=spec, params=params)


def compile_figure(config: ExperimentConfig,
                   cardinality: int = 100_000,
                   num_sites: int = 32,
                   measured_queries: int = 400,
                   mpls: Optional[Sequence[int]] = None,
                   seed: int = 13,
                   params: SimulationParameters = GAMMA_PARAMETERS,
                   strategies: Optional[Sequence[str]] = None) -> RunPlan:
    """Compile one figure's (strategy x MPL) grid into a plan.

    Runs are ordered strategy-major, MPL-minor -- the order the serial
    harness has always executed and reported them in.
    """
    mpls = tuple(mpls if mpls is not None else config.mpls)
    strategies = tuple(strategies if strategies is not None
                       else config.strategies)
    runs = [
        compile_point(config, name, multiprogramming_level=mpl,
                      cardinality=cardinality, num_sites=num_sites,
                      measured_queries=measured_queries, params=params,
                      seed=seed)
        for name in strategies for mpl in mpls
    ]
    return RunPlan(runs=tuple(runs))


# -- execution -------------------------------------------------------------

#: Per-process memo caps; small because entries hold full relations.
_MAX_RELATIONS = 8
_MAX_PLACEMENTS = 64

_relation_memo: Dict[Tuple, object] = {}
_placement_memo: Dict[Tuple, Placement] = {}


def clear_memos() -> None:
    """Drop the per-process relation/placement memos (tests, workers)."""
    _relation_memo.clear()
    _placement_memo.clear()


def _evict_oldest(memo: Dict, cap: int) -> None:
    """Make room for one more entry by dropping the oldest-inserted.

    Python dicts iterate in insertion order, so ``next(iter(memo))`` is
    the entry that has been resident longest.  Clearing the whole dict
    here (the previous behavior) made a sweep that cycles through
    ``cap + 1`` keys rebuild *every* entry on *every* lap; FIFO
    eviction keeps the ``cap - 1`` most recent entries live.
    """
    while len(memo) >= cap:
        memo.pop(next(iter(memo)))


def _relation_for(spec: RunSpec):
    key = spec.relation_key()
    relation = _relation_memo.get(key)
    if relation is None:
        _evict_oldest(_relation_memo, _MAX_RELATIONS)
        # Memo hits deliberately record no phase: a 0-cost lookup would
        # only pad the relation-build entry count with noise.
        with phases.phase("relation-build"):
            relation = make_wisconsin(spec.cardinality,
                                      correlation=spec.correlation,
                                      seed=spec.seed)
        _relation_memo[key] = relation
    return relation


def _placement_for(spec: RunSpec, params: SimulationParameters,
                   config: Optional[ExperimentConfig] = None) -> Placement:
    key = spec.placement_key()
    placement = _placement_memo.get(key)
    if placement is None:
        _evict_oldest(_placement_memo, _MAX_PLACEMENTS)
        if config is None:
            config = FIGURES[spec.figure]
        relation = _relation_for(spec)
        with phases.phase("placement-build"):
            strategy = build_strategy(spec.strategy, config,
                                      spec.cardinality, params)
            placement = strategy.partition(relation, spec.num_sites)
        _placement_memo[key] = placement
    return placement


def placement_for_spec(spec: RunSpec,
                       params: SimulationParameters = GAMMA_PARAMETERS,
                       config: Optional[ExperimentConfig] = None
                       ) -> Placement:
    """The declustered placement a spec's run loads -- no simulation.

    Shares the per-process memo with :func:`execute_run`; since
    :meth:`RunSpec.placement_key` excludes the multiprogramming level,
    auditing a figure that just ran in this process reuses its
    placements for free.  The static audit layer goes through here so
    re-reporting a cached run never touches the machine model.
    """
    return _placement_for(spec, params, config)


def prewarm(runs, strict: bool = True) -> Dict[str, int]:
    """Build every distinct relation/placement *runs* will need, once.

    *runs* is a :class:`RunPlan` or any iterable of
    :class:`PlannedRun`.  Specs are de-duplicated by
    :meth:`RunSpec.relation_key` / :meth:`RunSpec.placement_key` (the
    first planned run per key is the representative), and each missing
    memo entry is built here -- with the usual ``relation-build`` /
    ``placement-build`` phase attribution -- instead of lazily inside
    :func:`execute_run`.

    This is the warm half of the parallel executor's fork-shared pool:
    the parent prewarms before forking workers, so every worker
    inherits the populated memos copy-on-write and pays zero rebuild
    cost per task.  Spawn-start pools call it from the per-worker
    initializer instead (once per process, not once per task).

    With ``strict=False`` individual build failures are swallowed and
    counted: prewarming is an optimization, and a spec that cannot
    build is left to fail inside a worker, where the failure is wrapped
    with full spec/traceback context.

    Returns counters: relations/placements built here, memo hits
    skipped, and (non-strict only) builds that errored.
    """
    stats = {"relations_built": 0, "relations_hit": 0,
             "placements_built": 0, "placements_hit": 0, "errors": 0}
    seen_placements = set()
    for planned in runs:
        spec = planned.spec
        key = spec.placement_key()
        if key in seen_placements:
            continue
        seen_placements.add(key)
        relation_hit = spec.relation_key() in _relation_memo
        placement_hit = key in _placement_memo
        try:
            # _placement_for builds the relation on the way when needed,
            # so one call covers both memos.
            _placement_for(spec, planned.params)
        except Exception:
            if strict:
                raise
            stats["errors"] += 1
            continue
        stats["relations_hit" if relation_hit else "relations_built"] += 1
        stats["placements_hit" if placement_hit else "placements_built"] += 1
    return stats


def execute_run(spec: RunSpec,
                params: SimulationParameters = GAMMA_PARAMETERS,
                telemetry: Optional[Telemetry] = None,
                config: Optional[ExperimentConfig] = None,
                check_invariants: bool = False) -> RunResult:
    """Run one spec on a freshly built machine and return its result.

    Deterministic given (spec, params): the relation, placement and
    machine seeds all derive from spec fields, so any executor -- or any
    process -- produces the same :class:`~repro.gamma.metrics.RunResult`.
    ``config`` is only needed for experiment configs not registered in
    :data:`FIGURES` (the spec's ``figure`` resolves registered ones).
    ``check_invariants`` runs the simulation under a
    :class:`~repro.validation.InvariantChecker` (conservation laws
    enforced, first breach raises); the flag is deliberately NOT part of
    the spec -- results and digests are bit-identical either way.
    """
    placement = _placement_for(spec, params, config)
    mix = make_mix(spec.mix_name, domain=spec.cardinality,
                   qb_low_tuples=spec.qb_low_tuples)
    invariants = None
    if check_invariants:
        # Imported here, not at module scope: the validation package's
        # trend layer consumes this module, so a top-level import would
        # be circular.
        from ..validation.invariants import InvariantChecker
        invariants = InvariantChecker()
    machine = GammaMachine(placement, indexes=PAPER_INDEXES, params=params,
                           seed=spec.machine_seed, telemetry=telemetry,
                           invariants=invariants)
    with phases.phase("simulate"):
        result = machine.run(
            mix, multiprogramming_level=spec.multiprogramming_level,
            measured_queries=spec.measured_queries)
        # Wall-clock attribution reads the machine, never steers it:
        # these counters feed the progress line's events/sec figure.
        phases.annotate(events=machine.env.events_scheduled,
                        sim_seconds=machine.env.now)
    return result
