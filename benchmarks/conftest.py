"""Shared helpers for the figure-regeneration benchmarks.

Each benchmark regenerates one table or figure of the paper.  By default
the sweeps are scaled down (three MPL points, 250 measured queries per
point) so the whole suite runs in a few minutes; set
``REPRO_BENCH_FULL=1`` for the paper's full 9-point MPL axis with 400
measured queries per point.

The benchmark timer measures the wall time of regenerating the figure;
the reproduced series itself is attached to ``benchmark.extra_info`` and
printed, and each test asserts the paper's qualitative outcome (who
wins, roughly by how much).
"""

import os

import pytest

from repro.experiments import (FIGURES, figure_document, render_markdown,
                               run_experiment)

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")

#: Sweep settings: (mpls, measured queries per point).
MPLS = (1, 8, 16, 24, 32, 40, 48, 56, 64) if FULL else (1, 16, 64)
MEASURED = 400 if FULL else 250
CARDINALITY = 100_000
PROCESSORS = 32


def regenerate(figure_name, benchmark):
    """Run one figure under the benchmark timer and report its series."""
    config = FIGURES[figure_name]

    def run():
        return run_experiment(config, cardinality=CARDINALITY,
                              num_sites=PROCESSORS,
                              measured_queries=MEASURED, mpls=MPLS, seed=13)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_markdown(figure_document(result)))
    for strategy, runs in result.series.items():
        benchmark.extra_info[f"{strategy}_final_qps"] = round(
            runs[-1].throughput, 1)
    return result


@pytest.fixture
def final_throughputs():
    """Extract {strategy: final-MPL throughput} from a FigureResult."""
    def extract(result):
        return result.final_throughputs()
    return extract
