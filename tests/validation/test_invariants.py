"""InvariantChecker: unit conservation laws, zero perturbation, and
detection of a deliberately broken machine."""

import pytest

from repro.core import RangeStrategy
from repro.experiments.config import FIGURES
from repro.experiments.plan import compile_point, execute_run
from repro.gamma import GammaMachine
from repro.validation import InvariantChecker, InvariantViolation

INDEXES = {"unique1": False, "unique2": True}


class _FakePool:
    def __init__(self, admitted, evicted, resident, capacity=8):
        self.admitted_total = admitted
        self.evicted_total = evicted
        self._resident = resident
        self.capacity = capacity

    def __len__(self):
        return self._resident


class TestUnitInvariants:
    def test_clock_never_steps_backwards(self):
        checker = InvariantChecker()
        checker.on_event(when=2.0, now=1.0, seq=1)  # forward: fine
        with pytest.raises(InvariantViolation) as err:
            checker.on_event(when=0.5, now=1.0, seq=2)
        assert err.value.invariant == "clock.monotone"
        assert err.value.context["event_time"] == 0.5

    def test_agenda_pops_in_time_seq_order(self):
        checker = InvariantChecker()
        checker.on_event(when=1.0, now=0.0, seq=4)
        checker.on_event(when=1.0, now=1.0, seq=7)  # same instant, later seq
        checker.on_event(when=2.0, now=1.0, seq=5)  # later instant
        with pytest.raises(InvariantViolation) as err:
            checker.on_event(when=2.0, now=2.0, seq=3)
        assert err.value.invariant == "agenda.order"
        assert err.value.context["previous_seq"] == 5
        assert checker.checks["agenda.order"] == 4

    def test_repeated_entry_breaks_order(self):
        checker = InvariantChecker(raise_on_violation=False)
        checker.on_event(when=1.0, now=0.0, seq=2)
        checker.on_event(when=1.0, now=1.0, seq=2)
        assert [v.invariant for v in checker.violations] == ["agenda.order"]

    def test_double_issue_raises(self):
        checker = InvariantChecker()
        checker.on_query_issued(1, "QA", 0.0)
        with pytest.raises(InvariantViolation):
            checker.on_query_issued(1, "QA", 1.0)

    def test_termination_without_issue_raises(self):
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation) as err:
            checker.on_query_terminated(7, 1.0)
        assert "never issued" in str(err.value)

    def test_double_termination_raises(self):
        checker = InvariantChecker()
        checker.on_query_issued(1, "QA", 0.0)
        checker.on_query_terminated(1, 1.0)
        with pytest.raises(InvariantViolation) as err:
            checker.on_query_terminated(1, 2.0)
        assert "terminated twice" in str(err.value)

    def test_delivery_without_send_raises(self):
        checker = InvariantChecker()
        checker.on_message_sent(0, 1)
        checker.on_message_delivered(1)  # balanced
        with pytest.raises(InvariantViolation):
            checker.on_message_delivered(1)

    def test_unbalanced_queries_fail_finalize(self):
        checker = InvariantChecker()
        checker.on_query_issued(1, "QA", 0.0)
        checker.on_query_issued(2, "QA", 0.0)
        checker.on_query_terminated(1, 1.0)
        with pytest.raises(InvariantViolation) as err:
            checker.finalize()
        assert err.value.context == {"issued": 2, "terminated": 1,
                                     "in_flight": 0, "time": 0.0}

    def test_in_flight_queries_balance(self):
        checker = InvariantChecker()
        checker.on_query_issued(1, "QA", 0.0)
        checker.on_query_issued(2, "QA", 0.0)
        checker.on_query_terminated(1, 1.0)
        checker.watch_in_flight(lambda: 1)
        checker.finalize()  # 2 issued == 1 terminated + 1 in flight

    def test_overbusy_resource_fails_finalize(self):
        checker = InvariantChecker()
        checker.begin_window(0.0)
        checker.watch_resource("cpu", lambda: 1.0)  # busy 1s in a 0s window
        with pytest.raises(InvariantViolation) as err:
            checker.finalize()
        assert err.value.invariant == "resource.busy_time"
        assert err.value.context["resource"] == "cpu"

    def test_buffer_ledger_must_balance(self):
        checker = InvariantChecker()
        checker.watch_buffer("b", _FakePool(admitted=5, evicted=1,
                                            resident=3))
        with pytest.raises(InvariantViolation) as err:
            checker.finalize()
        assert err.value.invariant == "buffer.conservation"

    def test_buffer_over_capacity(self):
        checker = InvariantChecker()
        checker.watch_buffer("b", _FakePool(admitted=9, evicted=0,
                                            resident=9, capacity=8))
        with pytest.raises(InvariantViolation) as err:
            checker.finalize()
        assert err.value.invariant == "buffer.capacity"

    def test_healthy_finalize_passes(self):
        checker = InvariantChecker()
        checker.begin_window(0.0)
        checker.on_query_issued(1, "QA", 0.0)
        checker.on_query_terminated(1, 1.0)
        checker.on_message_sent(0, 1)
        checker.on_message_delivered(1)
        checker.watch_resource("cpu", lambda: 0.0)
        checker.watch_buffer("b", _FakePool(admitted=4, evicted=1,
                                            resident=3))
        checker.finalize()
        assert checker.violations == []
        assert checker.total_checks > 0

    def test_collect_mode_accumulates(self):
        checker = InvariantChecker(raise_on_violation=False)
        checker.on_query_terminated(1, 0.0)
        checker.on_query_terminated(1, 1.0)
        assert len(checker.violations) == 2
        summary = checker.summary()
        assert summary["total_checks"] == checker.total_checks
        assert [v["invariant"] for v in summary["violations"]] == \
            ["query.termination", "query.termination"]
        assert summary["queries_terminated"] == 1

    def test_violation_message_carries_context(self):
        err = InvariantViolation("a.b", "broken", {"x": 1, "time": 2.5})
        assert str(err) == "[a.b] broken (time=2.5, x=1)"
        assert err.invariant == "a.b"


class TestZeroPerturbation:
    """A checked run must be bit-identical to an unchecked one."""

    @pytest.mark.parametrize("figure", sorted(FIGURES))
    def test_every_figure_config(self, figure):
        config = FIGURES[figure]
        planned = compile_point(config, config.strategies[0], 4,
                                cardinality=1200, num_sites=4,
                                measured_queries=12, seed=13)
        plain = execute_run(planned.spec, planned.params, config=config)
        checked = execute_run(planned.spec, planned.params, config=config,
                              check_invariants=True)
        assert plain == checked


class TestBrokenMachineDetected:
    """A machine that loses a completion must fail its run."""

    def test_dropped_termination_raises(self, tiny_relation, tiny_mix):
        placement = RangeStrategy("unique1").partition(tiny_relation, 4)
        machine = GammaMachine(placement, indexes=INDEXES, seed=5,
                               invariants=InvariantChecker())
        scheduler = machine.scheduler
        original = scheduler._finish
        state = {"dropped": False}

        def lossy_finish(handle):
            if not state["dropped"]:
                # Complete the query back to its terminal but "forget"
                # the termination bookkeeping -- the bug class the
                # checker exists to catch.
                state["dropped"] = True
                del scheduler._queries[handle.query_id]
                handle.completion.succeed()
                return
            original(handle)

        scheduler._finish = lossy_finish
        with pytest.raises(InvariantViolation) as err:
            machine.run(tiny_mix, multiprogramming_level=2,
                        measured_queries=20)
        assert err.value.invariant == "query.termination"
        assert state["dropped"]

    def test_healthy_machine_run_is_clean(self, tiny_relation, tiny_mix):
        import dataclasses

        from repro.gamma import GAMMA_PARAMETERS
        placement = RangeStrategy("unique1").partition(tiny_relation, 4)
        checker = InvariantChecker()
        # Buffer pools are off by default; enable them so the buffer
        # ledger laws are exercised too.
        params = dataclasses.replace(GAMMA_PARAMETERS,
                                     buffer_pool_pages=64)
        machine = GammaMachine(placement, indexes=INDEXES, seed=5,
                               params=params, invariants=checker)
        result = machine.run(tiny_mix, multiprogramming_level=2,
                             measured_queries=20)
        assert result.completed == 20
        assert checker.violations == []
        # Every law was actually exercised, not vacuously skipped.
        for law in ("clock.monotone", "agenda.order", "query.termination",
                    "messages.conservation", "resource.busy_time",
                    "buffer.conservation"):
            assert checker.checks.get(law, 0) > 0, law
