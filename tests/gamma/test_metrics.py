"""Unit tests for run metrics and the run result record."""

import pytest

from repro.des import Environment
from repro.gamma.metrics import RunMetrics, RunResult


@pytest.fixture
def env():
    return Environment()


class TestRunMetrics:
    def test_completion_counting(self, env):
        metrics = RunMetrics(env)
        metrics.record_completion("QA", 0.1)
        metrics.record_completion("QB", 0.2)
        assert metrics.completed_total == 2
        assert metrics.mean_response_time() == pytest.approx(0.15)
        assert metrics.mean_response_time("QA") == pytest.approx(0.1)
        assert metrics.mean_response_time("QZ") == 0.0

    def test_completion_watcher(self, env):
        metrics = RunMetrics(env)
        event = metrics.on_completion_count(2)
        metrics.record_completion("QA", 0.1)
        assert not event.triggered
        metrics.record_completion("QA", 0.1)
        assert event.triggered

    def test_watcher_already_satisfied(self, env):
        metrics = RunMetrics(env)
        metrics.record_completion("QA", 0.1)
        event = metrics.on_completion_count(1)
        assert event.triggered

    def test_window_reset(self, env):
        metrics = RunMetrics(env)
        metrics.record_completion("QA", 0.1)
        env.run(until=10)
        metrics.reset_window()
        assert metrics.completed_window == 0
        assert metrics.throughput() == 0.0
        metrics.record_completion("QA", 0.1)
        env.run(until=20)
        assert metrics.throughput() == pytest.approx(0.1)

    def test_throughput_zero_elapsed(self, env):
        metrics = RunMetrics(env)
        assert metrics.throughput() == 0.0


class TestRunResult:
    def test_str_contains_key_numbers(self):
        result = RunResult(multiprogramming_level=8, throughput=123.4,
                           completed=100, elapsed_seconds=1.0,
                           response_time_mean=0.05,
                           response_time_by_type={"QA": 0.04})
        text = str(result)
        assert "MPL=  8" in text
        assert "123.4" in text
        assert "QA" in text


class TestRunResultRoundTrip:
    """Results cross process (pickle) and artifact (JSON) boundaries."""

    def _result(self, **overrides):
        fields = dict(multiprogramming_level=8, throughput=123.456789,
                      completed=100, elapsed_seconds=1.25,
                      response_time_mean=0.0521,
                      response_time_by_type={"QA": 0.04, "QB": 0.065},
                      cpu_utilization=0.61, disk_utilization=0.44,
                      scheduler_cpu_utilization=0.08, messages_sent=4200)
        fields.update(overrides)
        return RunResult(**fields)

    def test_pickle_lossless(self):
        import pickle
        result = self._result()
        assert pickle.loads(pickle.dumps(result)) == result

    def test_json_dict_lossless(self):
        import json
        result = self._result()
        payload = json.loads(json.dumps(result.to_json_dict()))
        assert RunResult.from_json_dict(payload) == result

    def test_legacy_throughput_ci_key_ignored(self):
        # Files and cache entries saved before the field was dropped.
        payload = dict(self._result().to_json_dict(), throughput_ci=3.21)
        assert RunResult.from_json_dict(payload) == self._result()

    def test_pickle_preserves_dataclass_type(self):
        import pickle
        restored = pickle.loads(pickle.dumps(self._result()))
        assert isinstance(restored, RunResult)
        assert restored.response_time_by_type == {"QA": 0.04, "QB": 0.065}
