"""Property-based round-trips for results persistence and the cache.

Hypothesis generates adversarial-but-valid results (zero counts,
huge throughputs) and adversarial *invalid* cache entries (truncation,
digest mismatch, partial writes); the persistence layer must round-trip
the former losslessly and treat every one of the latter as a miss, not
an error.
"""

import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.cache import ResultCache
from repro.experiments.config import FIGURES
from repro.experiments.plan import RunSpec
from repro.experiments.results_io import (
    figure_from_dict,
    figure_to_dict,
    load_figure_json,
    save_figure_json,
)
from repro.experiments.runner import FigureResult
from repro.gamma import RunResult

finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                   allow_infinity=False)

run_results = st.builds(
    RunResult,
    multiprogramming_level=st.integers(min_value=1, max_value=512),
    throughput=finite,
    completed=st.integers(min_value=0, max_value=100_000),
    elapsed_seconds=finite,
    response_time_mean=finite,
    response_time_by_type=st.dictionaries(
        st.sampled_from(["QA", "QB", "INSERT"]), finite, max_size=3),
    cpu_utilization=st.floats(min_value=0.0, max_value=1.0),
    disk_utilization=st.floats(min_value=0.0, max_value=1.0),
    scheduler_cpu_utilization=st.floats(min_value=0.0, max_value=1.0),
    messages_sent=st.integers(min_value=0, max_value=10_000_000),
)

figure_results = st.builds(
    FigureResult,
    config=st.sampled_from(sorted(FIGURES)).map(FIGURES.get),
    cardinality=st.integers(min_value=1, max_value=10**6),
    num_sites=st.integers(min_value=1, max_value=128),
    measured_queries=st.integers(min_value=1, max_value=10_000),
    series=st.dictionaries(
        st.sampled_from(["range", "hash", "magic", "berd"]),
        st.lists(run_results, min_size=1, max_size=4), max_size=3),
    seed=st.integers(min_value=0, max_value=2**31),
)


def _equal(a: FigureResult, b: FigureResult) -> bool:
    return (a.config is b.config and a.series == b.series
            and (a.cardinality, a.num_sites, a.measured_queries, a.seed)
            == (b.cardinality, b.num_sites, b.measured_queries, b.seed))


class TestResultsIoProperties:
    @given(result=figure_results)
    @settings(max_examples=60, deadline=None)
    def test_dict_round_trip_v2(self, result):
        assert _equal(figure_from_dict(figure_to_dict(result)), result)

    @given(result=figure_results)
    @settings(max_examples=30, deadline=None)
    def test_v1_payloads_still_load(self, result):
        """Pre-plan-layer files: no executor block, no digests, no seed."""
        payload = figure_to_dict(result)
        payload["format_version"] = 1
        for key in ("executor", "spec_digests", "seed"):
            payload.pop(key, None)
        loaded = figure_from_dict(payload)
        assert loaded.config is result.config
        assert loaded.seed == 13  # the historical harness-wide default
        assert loaded.executor == "serial"
        assert sorted(loaded.series) == sorted(result.series)

    @given(result=figure_results)
    @settings(max_examples=20, deadline=None)
    def test_file_round_trip(self, result, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("io") / "figure.json")
        save_figure_json(result, path)
        assert _equal(load_figure_json(path), result)


SPEC = RunSpec(figure="8a", strategy="range", cardinality=1000,
               correlation="low", num_sites=4, multiprogramming_level=2,
               measured_queries=10, seed=13, mix_name="low-low")

RESULT = RunResult(multiprogramming_level=2, throughput=50.0,
                   completed=10, elapsed_seconds=0.2,
                   response_time_mean=0.03)


class TestCacheCorruptionRecovery:
    """Every malformed entry is a miss; none is an error or a wrong hit."""

    def _primed(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        path = cache.put(SPEC, RESULT)
        return cache, path

    def test_round_trip_baseline(self, tmp_path):
        cache, _ = self._primed(tmp_path)
        assert cache.get(SPEC) == RESULT
        assert (cache.hits, cache.misses) == (1, 0)

    @given(keep=st.integers(min_value=0, max_value=60))
    @settings(max_examples=25, deadline=None)
    def test_truncated_entry_is_a_miss(self, tmp_path_factory, keep):
        cache, path = self._primed(tmp_path_factory.mktemp("c"))
        blob = open(path).read()
        with open(path, "w") as handle:
            handle.write(blob[:keep])
        assert cache.get(SPEC) is None
        assert cache.misses == 1

    def test_wrong_spec_under_right_digest_is_a_miss(self, tmp_path):
        """A digest collision (or hand-moved file) must not be returned."""
        cache, path = self._primed(tmp_path)
        payload = json.load(open(path))
        payload["spec"]["cardinality"] = 999_999
        json.dump(payload, open(path, "w"))
        assert cache.get(SPEC) is None

    def test_format_version_bump_is_a_miss(self, tmp_path):
        cache, path = self._primed(tmp_path)
        payload = json.load(open(path))
        payload["cache_format"] = 999
        json.dump(payload, open(path, "w"))
        assert cache.get(SPEC) is None

    def test_mangled_result_fields_are_a_miss(self, tmp_path):
        cache, path = self._primed(tmp_path)
        payload = json.load(open(path))
        payload["result"] = {"not_a_field": 1}
        json.dump(payload, open(path, "w"))
        assert cache.get(SPEC) is None

    def test_partial_write_leaves_no_entry(self, tmp_path):
        """A crash mid-put must leave the previous state intact: the
        temp file is cleaned up and the final path never half-written."""
        cache = ResultCache(str(tmp_path / "cache"))
        path = cache.path_for(SPEC)

        class Unserializable:
            pass

        bad = RunResult(multiprogramming_level=2, throughput=1.0,
                        completed=1, elapsed_seconds=1.0,
                        response_time_mean=1.0,
                        response_time_by_type={"QA": Unserializable()})
        try:
            cache.put(SPEC, bad)
        except TypeError:
            pass
        assert not os.path.exists(path)
        assert SPEC not in cache
        leftovers = [name for _, _, files in os.walk(cache.root)
                     for name in files]
        assert leftovers == []

    def test_rewrite_after_corruption_recovers(self, tmp_path):
        cache, path = self._primed(tmp_path)
        with open(path, "w") as handle:
            handle.write("{corrupt")
        assert cache.get(SPEC) is None
        cache.put(SPEC, RESULT)
        assert cache.get(SPEC) == RESULT
