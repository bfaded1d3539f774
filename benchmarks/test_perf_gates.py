"""Performance gates: fixed bounds on kernel speed, parallel CPU, capture
cost and placement build time.

Each gate is a plain assertion over a fixed configuration (the module
constants next to it).  They time real work, so they are not part of
the tier-1 suite; run them all with

    PYTHONPATH=src python -m pytest -s benchmarks/test_perf_gates.py

or one at a time with ``-k`` (``-k matches_frozen_baseline``,
``-k parallel``).  ``-s`` shows the measured numbers.  Timing whole
figure regenerations from cold processes is the job of the benchmark
suite in ``benchmarks/suite/``; these gates hold the bounds it does not.

The kernel gates compare the live ``repro.des`` with the frozen
pre-optimization snapshot in ``benchmarks/_baseline_des``.  Both run
interleaved in this process: the snapshot rides in a private copy of
the ``repro`` package (registered as ``_repro_baseline`` with its
``des`` subpackage pointed at the snapshot).  Host CPU speed drifts by
tens of percent between invocations, but adjacent repeats see the same
machine state, and best-of-N CPU time per kernel discards scheduler
noise.
"""

import importlib
import importlib.util
import os
import resource
import sys
import time
from dataclasses import asdict

from repro.experiments import FIGURES, run_experiment, run_scaleup
from repro.experiments.plan import clear_memos
from repro.obs import TelemetrySpec

HERE = os.path.dirname(os.path.abspath(__file__))
_BASELINE_PKG = "_repro_baseline"

#: Figure 8a at the paper's machine size, the workload of every gate.
CARDINALITY = 100_000
PROCESSORS = 32
SEED = 13
MPLS = (1, 16, 64)
MEASURED = 250

#: Kernel gates: one MPL-16 point per strategy.
KERNEL_MPL = 16
KERNEL_STRATEGIES = ("range", "magic", "berd")
KERNEL_SMALL = dict(measured_queries=40, repeat=2)
KERNEL_FULL = dict(measured_queries=100, repeat=4)
KERNEL_SPEEDUP_FLOOR = 1.5

PARALLEL_JOBS = (1, 2, 4)
PARALLEL_ROUNDS = 3
CPU_AMPLIFICATION_CEILING = 1.25
WALL_SPEEDUP_FLOOR = 1.3

TRACE_CEILING = 2.0
LATENCY_CEILING = 1.3
CAPTURE_ROUNDS = 3

SCALEUP_SITES = (1024,)
SCALEUP_MPL = 8
SCALEUP_MEASURED = 100
MAGIC_BUILD_CEILING_S = 30.0


# -- the frozen-baseline kernel comparison ---------------------------------

def _load_baseline_machine():
    """Import a private ``repro`` copy running on the snapshot kernel.

    The copy is registered as ``_repro_baseline`` with
    ``_repro_baseline.des`` pre-bound to ``benchmarks/_baseline_des``,
    so its every relative ``from ..des import ...`` resolves to the
    frozen kernel while the model code is byte-for-byte the same
    source as the live package.  Returns the copy's ``GammaMachine``.
    """
    if _BASELINE_PKG not in sys.modules:
        src = os.path.normpath(os.path.join(HERE, os.pardir, "src", "repro"))
        pkg_spec = importlib.util.spec_from_file_location(
            _BASELINE_PKG, os.path.join(src, "__init__.py"),
            submodule_search_locations=[src])
        pkg = importlib.util.module_from_spec(pkg_spec)
        sys.modules[_BASELINE_PKG] = pkg
        # The snapshot kernel must be registered before the package
        # body runs (it imports .gamma, which imports ..des).
        base = os.path.join(HERE, "_baseline_des")
        des_spec = importlib.util.spec_from_file_location(
            f"{_BASELINE_PKG}.des", os.path.join(base, "__init__.py"),
            submodule_search_locations=[base])
        des = importlib.util.module_from_spec(des_spec)
        sys.modules[f"{_BASELINE_PKG}.des"] = des
        des_spec.loader.exec_module(des)
        pkg_spec.loader.exec_module(pkg)
    return importlib.import_module(
        f"{_BASELINE_PKG}.gamma.machine").GammaMachine


def _build_points(measured_queries, package):
    """Compile the kernel workload for one package copy.

    Placements and indexes are dispatched on ``isinstance`` inside the
    model (loader, catalog), so each package copy must consume objects
    built from its *own* classes -- a current-package ``MagicPlacement``
    handed to the baseline copy would silently fail its checks and
    simulate a different machine.  The copies are byte-identical
    source, so same seeds => same workload.
    """
    plan = importlib.import_module(f"{package}.experiments.plan")
    config = importlib.import_module(
        f"{package}.experiments.config").FIGURES["8a"]
    points = []
    for strategy in KERNEL_STRATEGIES:
        spec = plan.compile_point(
            config, strategy, multiprogramming_level=KERNEL_MPL,
            cardinality=CARDINALITY, num_sites=PROCESSORS,
            measured_queries=measured_queries, seed=SEED).spec
        # Everything the simulation consumes is built outside the timed
        # window: the gate measures the event loop, not NumPy.
        placement = plan.placement_for_spec(spec)
        mix = plan.make_mix(spec.mix_name, domain=spec.cardinality,
                            qb_low_tuples=spec.qb_low_tuples)
        points.append((spec, placement, mix))
    return points


def _timed_run(machine_cls, spec, placement, mix, indexes, params):
    """One simulation run; returns (cpu_seconds, events, result dict)."""
    machine = machine_cls(placement, indexes=indexes, params=params,
                          seed=spec.machine_seed)
    cpu_started = time.process_time()
    result = machine.run(
        mix, multiprogramming_level=spec.multiprogramming_level,
        measured_queries=spec.measured_queries)
    cpu = time.process_time() - cpu_started
    # The baseline snapshot predates the events_scheduled property;
    # _seq is the same counter in both kernels.
    return cpu, machine.env._seq, asdict(result)


def run_compare(measured_queries, repeat):
    """Time both kernels, interleaved; returns {kernel: best CPU s}.

    Per strategy, an untimed run of each kernel provides the reference
    result and pays first-contact costs; then the timed repeats run the
    two kernels back to back.  Raises ``AssertionError`` unless both
    kernels give bit-identical results and event counts, and every
    repeat reproduces its kernel's reference.
    """
    _load_baseline_machine()
    kernels = {}
    for name, package in (("current", "repro"), ("baseline", _BASELINE_PKG)):
        plan = importlib.import_module(f"{package}.experiments.plan")
        kernels[name] = (
            importlib.import_module(f"{package}.gamma.machine").GammaMachine,
            _build_points(measured_queries, package),
            plan.PAPER_INDEXES, plan.GAMMA_PARAMETERS)

    totals = {name: 0.0 for name in kernels}
    for index, strategy in enumerate(KERNEL_STRATEGIES):
        reference = {}
        for name, (machine, points, indexes, params) in kernels.items():
            _, events, result = _timed_run(machine, *points[index],
                                           indexes, params)
            reference[name] = (events, result)
        assert reference["current"] == reference["baseline"], (
            f"kernels disagree on {strategy!r}: events "
            f"{reference['current'][0]} vs {reference['baseline'][0]}")
        best = {name: float("inf") for name in kernels}
        for _ in range(repeat):
            for name, (machine, points, indexes, params) in kernels.items():
                cpu, events, result = _timed_run(machine, *points[index],
                                                 indexes, params)
                assert (events, result) == reference[name], (
                    f"non-deterministic repeat for {strategy!r} on the "
                    f"{name} kernel")
                best[name] = min(best[name], cpu)
        print(f"\n{strategy}: {reference['current'][0]} events, "
              f"current {best['current']:.3f} s, baseline "
              f"{best['baseline']:.3f} s CPU, "
              f"{best['baseline'] / best['current']:.3f}x")
        for name in kernels:
            totals[name] += best[name]
    return totals


def test_kernel_matches_frozen_baseline():
    run_compare(**KERNEL_SMALL)


def test_kernel_speedup_floor():
    totals = run_compare(**KERNEL_FULL)
    speedup = totals["baseline"] / totals["current"]
    print(f"kernel speedup {speedup:.3f}x (floor {KERNEL_SPEEDUP_FLOOR}x)")
    assert speedup >= KERNEL_SPEEDUP_FLOOR


# -- figure-level gates ----------------------------------------------------

def _fig8a(**options):
    """Regenerate fig-8a; returns (wall seconds, FigureResult)."""
    started = time.perf_counter()
    result = run_experiment(FIGURES["8a"], cardinality=CARDINALITY,
                            num_sites=PROCESSORS, measured_queries=MEASURED,
                            mpls=MPLS, seed=SEED, **options)
    return time.perf_counter() - started, result


def _usage_now():
    """(user s, system s, minor faults) of this process and its reaped
    children.

    Pool workers are children; the executor joins them before a run
    returns, so RUSAGE_CHILDREN has absorbed every worker's usage.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + kids.ru_utime, own.ru_stime + kids.ru_stime,
            own.ru_minflt + kids.ru_minflt)


def test_parallel_cpu_amplification():
    """A warm pool burns at most 1.25x the serial CPU, bit-identically.

    CPU seconds do not inflate with time-slicing on an oversubscribed
    host the way wall time does, so the ceiling holds on any core
    count.  The wall-time floor needs at least four usable cores.  The
    arms run interleaved, PARALLEL_ROUNDS times, and each keeps its
    best (lowest-CPU) round: the host's speed drifts between rounds,
    and a fixed serial-first order would charge that drift to one arm.
    """
    walls, cpus, results = {}, {}, {}
    for round_ in range(PARALLEL_ROUNDS):
        for jobs in PARALLEL_JOBS:
            # Every arm pays the same relation/placement builds.
            clear_memos()
            before = _usage_now()
            wall, results[jobs] = _fig8a(jobs=jobs)
            user, system, faults = (after - start for after, start
                                    in zip(_usage_now(), before))
            print(f"\nround {round_} jobs={jobs}: {wall:.3f} s wall, "
                  f"{user:.3f} s user, {system:.3f} s sys, "
                  f"{faults} minor faults")
            if user + system < cpus.get(jobs, float("inf")):
                walls[jobs], cpus[jobs] = wall, user + system
    for jobs in PARALLEL_JOBS:
        print(f"jobs={jobs} best: {walls[jobs]:.3f} s wall, "
              f"{cpus[jobs]:.3f} s CPU, {cpus[jobs] / cpus[1]:.3f}x CPU, "
              f"{walls[1] / walls[jobs]:.3f}x wall speedup")
    for jobs in PARALLEL_JOBS[1:]:
        assert results[jobs].series == results[1].series, jobs
    assert cpus[4] / cpus[1] <= CPU_AMPLIFICATION_CEILING
    cores = len(os.sched_getaffinity(0))
    if cores >= 4:
        assert walls[1] / walls[4] > WALL_SPEEDUP_FLOOR
    else:
        print(f"({cores} usable core(s): wall-time floor not asserted)")


def test_capture_overhead():
    """Full tracing costs < 2.0x, latency-only capture < 1.3x.

    Neither may change the simulation.  One untimed run first warms the
    relation and placement memos, so no timed arm pays their builds.
    The off and capture arms run interleaved, CAPTURE_ROUNDS times, and
    each keeps its best (lowest) process CPU: one off run against one
    on run reads the host's drift between the two, not capture's cost.
    """
    arms = {
        "off": {},
        "tracing": dict(telemetry_spec=TelemetrySpec()),
        "latency": dict(telemetry_spec=TelemetrySpec(
            trace=False, timeline_interval=0.0, latency=True)),
    }
    ceilings = {"tracing": TRACE_CEILING, "latency": LATENCY_CEILING}
    _, reference = _fig8a()
    cpus = {}
    for round_ in range(CAPTURE_ROUNDS):
        for name, options in arms.items():
            before = _usage_now()
            wall, result = _fig8a(**options)
            user, system, _ = (after - start for after, start
                               in zip(_usage_now(), before))
            assert result.series == reference.series, name
            print(f"\nround {round_} {name}: {wall:.3f} s wall, "
                  f"{user + system:.3f} s CPU")
            cpus[name] = min(cpus.get(name, float("inf")), user + system)
    ratios = {name: cpus[name] / cpus["off"] for name in ceilings}
    for name, ratio in ratios.items():
        print(f"{name} best: {cpus[name]:.3f} s CPU against "
              f"{cpus['off']:.3f} s off, {ratio:.3f}x")
    for name, ceiling in ceilings.items():
        assert ratios[name] < ceiling, (name, ratios[name])


def test_p1024_magic_build_ceiling():
    result = run_scaleup(figure="8a", sites=SCALEUP_SITES,
                         multiprogramming_level=SCALEUP_MPL,
                         cardinality=CARDINALITY,
                         measured_queries=SCALEUP_MEASURED, seed=SEED)
    build = next(p.placement_build_seconds for p in result.points
                 if p.strategy == "magic")
    print(f"\nP=1024 MAGIC placement build {build:.3f} s "
          f"(ceiling {MAGIC_BUILD_CEILING_S} s)")
    assert build < MAGIC_BUILD_CEILING_S
