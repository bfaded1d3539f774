"""Pin of the agenda: exact event counts and results of figure-8a points.

Every agenda entry consumes one sequence number, so
``Environment.events_scheduled`` counts them; an entry added to or lost
from the kernel or the model changes the count even when the simulated
results happen to agree.  The expected values were recorded before the
kernel was cut down to one-unit servers and must not move.  The range
point is also run under the invariant checker, whose loop takes one
entry at a time without hold elision.
"""

import pytest

from repro.experiments import FIGURES
from repro.experiments.plan import (
    GAMMA_PARAMETERS,
    PAPER_INDEXES,
    compile_point,
    placement_for_spec,
)
from repro.gamma import GammaMachine
from repro.validation.invariants import InvariantChecker
from repro.workload import make_mix

#: strategy -> (events, (throughput, mean response time, messages,
#: node CPU utilization, scheduler CPU utilization)).
EXPECTED = {
    "range": (34058, (211.21869266593146, 0.07200481543767343, 1172,
                      0.6883344316068671, 0.27229609796180937)),
    "berd": (13463, (273.2515290674485, 0.055999389723349315, 565,
                     0.35533932171700294, 0.21040367738192428)),
    "magic": (15519, (405.9791719332783, 0.03972048116317549, 550,
                      0.4219938659014526, 0.3881837515635195)),
}


def _run_point(strategy, invariants=None):
    spec = compile_point(FIGURES["8a"], strategy, multiprogramming_level=16,
                         cardinality=100_000, num_sites=32,
                         measured_queries=40, seed=13).spec
    machine = GammaMachine(placement_for_spec(spec), indexes=PAPER_INDEXES,
                           params=GAMMA_PARAMETERS, seed=spec.machine_seed,
                           invariants=invariants)
    result = machine.run(
        make_mix(spec.mix_name, domain=spec.cardinality,
                 qb_low_tuples=spec.qb_low_tuples),
        multiprogramming_level=16, measured_queries=40)
    return machine.env.events_scheduled, (
        result.throughput, result.response_time_mean, result.messages_sent,
        result.cpu_utilization, result.scheduler_cpu_utilization)


@pytest.mark.parametrize("strategy", sorted(EXPECTED))
def test_figure_8a_point_is_pinned(strategy):
    assert _run_point(strategy) == EXPECTED[strategy]


def test_checked_loop_matches_pin():
    assert _run_point("range", InvariantChecker()) == EXPECTED["range"]
