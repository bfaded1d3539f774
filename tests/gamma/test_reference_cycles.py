"""A finished query is freed by reference counting alone.

Per-query objects that refer to each other in a cycle (a handle and its
completion event, a trace and its root span) wait for the cycle
collector; at figure scale that is tens of thousands of objects per
run.  This runs one small traced Figure 9 point with the collector off,
keeps the machine (and so every query still in flight) reachable, and
then asks the collector what it would have had to free.
"""

import gc

from repro.des import Event
from repro.experiments import FIGURES
from repro.experiments.plan import (
    GAMMA_PARAMETERS,
    PAPER_INDEXES,
    compile_point,
    placement_for_spec,
)
from repro.gamma import GammaMachine
from repro.gamma.scheduler import QueryHandle
from repro.obs import Telemetry
from repro.obs.spans import QueryTrace, Span
from repro.workload import make_mix

PER_QUERY = (QueryHandle, QueryTrace, Span, Event)


def test_traced_queries_need_no_cycle_collector():
    spec = compile_point(FIGURES["9"], "magic", multiprogramming_level=4,
                         cardinality=4000, num_sites=8, measured_queries=30,
                         seed=13).spec
    mix = make_mix(spec.mix_name, domain=spec.cardinality,
                   qb_low_tuples=spec.qb_low_tuples)
    placement = placement_for_spec(spec)
    gc.collect()
    gc.disable()
    try:
        machine = GammaMachine(placement, indexes=PAPER_INDEXES,
                               params=GAMMA_PARAMETERS,
                               seed=spec.machine_seed,
                               telemetry=Telemetry(trace=True))
        machine.run(mix, multiprogramming_level=4, measured_queries=30)
        assert machine.telemetry.spans.finished >= 30
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = sorted({type(obj).__name__ for obj in gc.garbage
                         if isinstance(obj, PER_QUERY)})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert cyclic == []
