"""Pin of the agenda: exact event counts and results of figure-8a points.

Every agenda entry consumes one sequence number, so
``Environment.events_scheduled`` counts them; an entry added to or lost
from the kernel or the model changes the count even when the simulated
results happen to agree.  The expected values were recorded before the
kernel was cut down to one-unit servers and must not move.  The range
point is also run under the invariant checker, whose loop takes one
entry at a time without hold elision.

A wide fan-out point (range at P=256: every QB query is sent to all 256
sites) is pinned the same way, with values recorded before the kernel
served due-now entries from a FIFO; it also runs with every FIFO append
checked to carry the current time and the newest sequence number.
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
from tests.des.test_agenda_order import install_checked_fifo

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

#: Range at P=256, MPL 8, 20 measured queries: same fields as above.
EXPECTED_WIDE = (149961, (57.185009174253466, 0.12887971630129597, 5220,
                          0.22690970136052835, 0.5549805140360764))


def _run_point(strategy, invariants=None, num_sites=32, mpl=16,
               measured=40, check_fifo=False):
    spec = compile_point(FIGURES["8a"], strategy, multiprogramming_level=mpl,
                         cardinality=100_000, num_sites=num_sites,
                         measured_queries=measured, seed=13).spec
    machine = GammaMachine(placement_for_spec(spec), indexes=PAPER_INDEXES,
                           params=GAMMA_PARAMETERS, seed=spec.machine_seed,
                           invariants=invariants)
    if check_fifo:
        install_checked_fifo(machine.env)
    result = machine.run(
        make_mix(spec.mix_name, domain=spec.cardinality,
                 qb_low_tuples=spec.qb_low_tuples),
        multiprogramming_level=mpl, measured_queries=measured)
    return machine.env.events_scheduled, (
        result.throughput, result.response_time_mean, result.messages_sent,
        result.cpu_utilization, result.scheduler_cpu_utilization)


@pytest.mark.parametrize("strategy", sorted(EXPECTED))
def test_figure_8a_point_is_pinned(strategy):
    assert _run_point(strategy) == EXPECTED[strategy]


def test_checked_loop_matches_pin():
    assert _run_point("range", InvariantChecker()) == EXPECTED["range"]


@pytest.mark.parametrize("checked", [False, True], ids=["plain", "checked"])
def test_wide_fan_out_point_is_pinned(checked):
    invariants = InvariantChecker() if checked else None
    assert _run_point("range", invariants, num_sites=256, mpl=8,
                      measured=20, check_fifo=True) == EXPECTED_WIDE
