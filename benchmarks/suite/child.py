"""One cold-process repeat of one workload (started by ``run.py``).

    python benchmarks/suite/child.py '<request json>'

The request carries the workload definition, the seed, the mode and a
scratch directory.  Modes: ``plain`` (what the end-to-end metrics
measure), ``traced`` (layer spans plus cProfile inside the simulator)
and ``telemetry-off`` (plain with span capture forced off, the baseline
of the capture-overhead ratio).  The child prints one JSON line with its
measurements and outputs.  It exits 2 if the program cannot be imported
or set up; a simulation that raises is reported in the JSON instead.

``setup_s`` starts at the first line below.
"""

import time

STARTED = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
sys.path.insert(0, HERE)

from workloads import Workload, output_payload  # noqa: E402


def import_program() -> None:
    """Import the checkout's ``repro`` (never an installed copy)."""
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise ImportError(f"repro came from {repro.__file__}, not {SRC}")
    import repro.experiments  # noqa: F401
    import repro.validation.trends  # noqa: F401
    # The run's confidence intervals import scipy lazily; importing it
    # here keeps that one-time cost in set-up, out of the first run.
    import scipy.stats  # noqa: F401


def cpu_seconds() -> float:
    """User + system CPU of this process and every child it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_kb() -> int:
    """Largest resident set of this process or any child it reaped."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main(argv) -> int:
    request = json.loads(argv[1])
    workload = Workload.from_dict(request["workload"])
    seed, mode, scratch = request["seed"], request["mode"], request["scratch"]
    tracer = None
    try:
        import_program()
        from repro.experiments import (FIGURES, ResultCache, compile_figure,
                                       prewarm, run_experiment)
        from repro.obs import TelemetrySpec
        if mode == "traced":
            from tracing import Tracer
            tracer = Tracer(workload.name, os.path.join(scratch, "spool"))
            os.makedirs(tracer.spool_dir, exist_ok=True)
            tracer.add_span("setup.import", STARTED, time.perf_counter())
            tracer.install()
        span = tracer.span if tracer else (
            lambda name: contextlib.nullcontext())

        config = FIGURES[workload.figure]
        grid = dict(cardinality=workload.cardinality,
                    measured_queries=workload.measured_queries,
                    mpls=workload.mpls, seed=seed,
                    strategies=workload.strategies)
        plan = [planned for sites in workload.sites
                for planned in compile_figure(config, num_sites=sites,
                                              **grid)]
        prewarm_started = time.perf_counter()
        with span("experiments.prewarm"):
            prewarm(plan)
        setup_end = time.perf_counter()
    except Exception:
        traceback.print_exc()
        return 2

    telemetry = (TelemetrySpec(trace=True, latency=True)
                 if workload.spans and mode != "telemetry-off" else None)
    cache = (ResultCache(os.path.join(scratch, "cache"))
             if workload.cache else None)

    def one_pass():
        with span("experiments.run"):
            return [(sites, run_experiment(
                config, num_sites=sites, jobs=workload.jobs, cache=cache,
                telemetry_spec=telemetry, **grid))
                for sites in workload.sites]

    cpu_started = cpu_seconds()
    parent_cpu_started = time.process_time()
    first = second = None
    error = None
    try:
        first = one_pass()
        pass1_end = time.perf_counter()
        if cache is not None:
            second = one_pass()
    except Exception:
        error = traceback.format_exc()
        pass1_end = time.perf_counter()
    run_end = time.perf_counter()
    run_cpu = cpu_seconds() - cpu_started
    parent_cpu = time.process_time() - parent_cpu_started

    report = {
        "setup_s": setup_end - STARTED,
        "prewarm_s": setup_end - prewarm_started,
        "run_s": run_end - setup_end,
        "pass1_s": pass1_end - setup_end,
        "run_cpu_s": run_cpu,
        "parent_cpu_s": parent_cpu,
        "simulated_queries": workload.simulated_queries,
        "peak_rss_kb": peak_rss_kb(),
        "error": error,
    }
    if first is not None:
        report.update(_outputs(workload, first, second, cache))
    if tracer is not None:
        tracer.uninstall()
        tracer.collect()
        report["trace"] = {"spans": tracer.spans, "profile": tracer.profile,
                           "counters": tracer.counters,
                           "peaks": tracer.peaks,
                           "covered_s": tracer.covered_seconds()}
    print(json.dumps(report))
    return 0


def _outputs(workload, first, second, cache) -> dict:
    """Outputs, trend checks and counters of a finished workload."""
    from repro.validation.trends import evaluate_trends
    totals, counters = {}, {}
    sim_cpu = spans = 0.0
    for _, result in first + (second or []):
        for name, entry in (result.phases or {}).get("totals", {}).items():
            totals[name] = totals.get(name, 0.0) + entry["seconds"]
        for name, value in (result.phases or {}).get("counters", {}).items():
            counters[name] = counters.get(name, 0.0) + value
        sim_cpu += result.process_cpu_seconds
        spans += sum(t.spans.span_count() for t in result.telemetries.values()
                     if t.spans is not None)
    checks = []
    if workload.trends:
        for sites, result in first:
            group = evaluate_trends(result)
            checks += [[f"p{sites} {check.name}", check.passed, check.detail]
                       for check in group.checks]
    return {
        "payload": output_payload(first),
        "payload_pass2": output_payload(second) if second else None,
        "trend_checks": checks,
        "simulate_s": totals.get("simulate", 0.0),
        "cache_io_s": totals.get("cache-read", 0.0)
        + totals.get("cache-write", 0.0),
        "sim_cpu_s": sim_cpu,
        "events": counters.get("events", 0.0),
        "messages": sum(run.messages_sent for _, result in first
                        for runs in result.series.values() for run in runs),
        "spans_recorded": spans,
        "cache_hits": cache.hits if cache is not None else 0,
        "cache_lookups": cache.hits + cache.misses if cache is not None else 0,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv))
