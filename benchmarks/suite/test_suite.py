"""Tests of the benchmark suite itself (not of the program it measures).

    PYTHONPATH=src python -m pytest benchmarks/suite -q

Workloads here are tiny in-test definitions (8 sites, 5,000 tuples), so
the whole file runs in well under a minute.
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                "src"))

import run  # noqa: E402
from tracing import Tracer, layer_of, span_totals  # noqa: E402
from workloads import (WORKLOADS, Workload, mismatched_points,  # noqa: E402
                       output_payload)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

TINY = Workload(name="tiny", figure="8a",
                strategies=("range", "magic"), mpls=(1, 8), sites=(8,),
                cardinality=5000, measured_queries=20, jobs=2, cache=True,
                trends=True)


def spec():
    return run.load_benchmark_spec()


@pytest.fixture(scope="module")
def traced_suite(tmp_path_factory):
    """One traced two-repeat run of the tiny workload, as the CLI does it."""
    out = str(tmp_path_factory.mktemp("out"))
    runs, layers, path = run.run_suite([TINY], 3, repeats=2, seconds=None,
                                       trace=True, out_dir=out, spec=spec(),
                                       quiet=True)
    with open(path) as handle:
        record = json.load(handle)
    return runs, layers, record, out


# -- metric names and units ---------------------------------------------------

def test_benchmark_json_names_are_well_formed():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert all(NAME.match(name) for name in run.metric_table(spec()))


def test_every_metric_is_recorded_with_its_unit(traced_suite):
    runs, layers, record, _ = traced_suite
    entry = record["workloads"]["tiny"]
    for name, meta in spec()["end_to_end"].items():
        assert entry["summary"][name]["unit"] == meta["unit"]
        assert entry["summary"][name]["median"] > 0, name
        assert len(entry["samples"][name]) == 2
    assert set(entry["per_layer"]) == set(spec()["per_layer"])
    for name in run.ABSOLUTE_METRICS:
        assert entry["summary"][name]["median"] == 0
    assert record["workloads"]["tiny"]["config_digest"] == \
        TINY.config_digest(3)
    for key in ("git_sha", "host", "harness_version"):
        assert key in record


def test_result_line_carries_exactly_the_benchmark_metrics(traced_suite):
    runs, layers, _, _ = traced_suite
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        line = run.result_line(runs, spec(), trace, layers)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        expected = {name: meta["unit"] for name, meta in spec()[kind].items()}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected


def test_trace_run_writes_spans_and_covers_the_child(traced_suite):
    runs, layers, _, out = traced_suite
    with open(os.path.join(out, "trace-tiny.json")) as handle:
        trace = json.load(handle)
    names = {span["name"] for span in trace["spans"]}
    assert {"setup.import", "experiments.prewarm", "experiments.run",
            "gamma.run", "core.rebalance", "experiments.cache_write",
            "experiments.cache_read"} <= names
    for span in trace["spans"]:
        assert {"name", "start", "end", "parent", "workload",
                "point"} <= set(span)
    shares = [layers["tiny"][f"{layer}.self_share"]
              for layer in run.PROFILE_LAYERS]
    assert sum(shares) == pytest.approx(1.0)
    assert layers["tiny"]["core.rebalance_iterations"] > 0


# -- tracing ------------------------------------------------------------------

def _tiny_figure():
    from repro.experiments import FIGURES, run_experiment
    from repro.experiments.plan import clear_memos
    clear_memos()
    result = run_experiment(FIGURES["8a"], cardinality=5000, num_sites=8,
                            measured_queries=20, mpls=(1, 8), seed=5,
                            strategies=("range", "berd", "magic"))
    return output_payload([(8, result)])


def test_tracer_restores_wrappers_and_preserves_outputs(tmp_path):
    from repro.core import magic
    from repro.experiments import executor, plan
    from repro.gamma import GammaMachine
    watched = [(plan, "make_wisconsin"), (magic, "rebalance_assignment"),
               (executor, "execute_run"), (GammaMachine, "run"),
               (GammaMachine, "__init__")]
    originals = [vars(owner)[attr] for owner, attr in watched]
    untraced = _tiny_figure()

    tracer = Tracer("tiny", str(tmp_path))
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not original for (owner, attr),
                   original in zip(watched, originals))
        traced = _tiny_figure()
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is original for (owner, attr), original
               in zip(watched, originals))
    assert not tracer._patches
    assert traced == untraced
    assert span_totals(tracer.spans)["gamma.run"] > 0
    assert tracer.profile["des"] > 0


def test_layer_of_groups_by_module():
    assert layer_of("~") == "builtins"
    assert layer_of("/x/src/repro/des/events.py") == "des"
    assert layer_of("/x/src/repro/gamma/disk.py") == "gamma.disk"
    assert layer_of("/usr/lib/python3.11/random.py") == "other"


# -- output checks ------------------------------------------------------------

def _payload():
    return {"series": {"range.p8": [[1, 10.0, 0.5, 7], [8, 40.0, 0.9, 30]]},
            "spec_digests": {"range.p8": ["a", "b"]}}


def test_perturbed_result_fails_the_digest_check(tmp_path, monkeypatch):
    workload = Workload(name="mini", figure="8a",
                        strategies=("range",), mpls=(1, 8), sites=(8,))
    reference = _payload()
    (tmp_path / "mini.json").write_text(json.dumps({
        "config_digest": workload.config_digest(13), "payload": reference}))
    monkeypatch.setattr(run, "REFERENCE_DIR", str(tmp_path))

    perturbed = json.loads(json.dumps(reference))
    perturbed["series"]["range.p8"][1][1] = 40.000000001
    assert mismatched_points(perturbed, reference) == ["range.p8[1]"]

    def child(seed, payload):
        return run.ChildRun(mode="plain", seed=seed, wall_s=1.0, cpu_s=1.0,
                            report={"payload": payload, "error": None,
                                    "trend_checks": []})

    good = run.WorkloadRun(workload=workload, seed=13,
                           children=[child(13, reference)])
    run.check_outputs(good)
    assert (good.attempted, good.failed) == (2, 0)

    bad = run.WorkloadRun(workload=workload, seed=13,
                          children=[child(13, perturbed)])
    run.check_outputs(bad)
    assert (bad.attempted, bad.failed) == (2, 1)
    assert bad.absolute()["points_failed_ratio"] == 0.5

    # Off the reference seed, children with one input seed must agree.
    drift = run.WorkloadRun(workload=workload, seed=7,
                            children=[child(7, reference),
                                      child(7, perturbed)])
    run.check_outputs(drift)
    assert drift.failed == 1


def test_stale_reference_is_refused(tmp_path, monkeypatch):
    (tmp_path / "fig8a.json").write_text(json.dumps(
        {"config_digest": "stale", "payload": _payload()}))
    monkeypatch.setattr(run, "REFERENCE_DIR", str(tmp_path))
    with pytest.raises(run.HarnessError):
        run.load_reference(WORKLOADS["fig8a"], 13)


def test_repeat_seeds():
    assert run.repeat_seed(13, 0) == 13
    seeds = {run.repeat_seed(seed, index) for seed in range(1, 11)
             for index in range(1, 6)}
    assert len(seeds) == 50


# -- compare ------------------------------------------------------------------

PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]


@pytest.mark.parametrize("change, better, bound, expected", [
    ([v * 0.8 for v in PARENT], "lower", 0.08, "better"),
    ([v * 1.2 for v in PARENT], "lower", 0.08, "worse"),
    ([v * 1.2 for v in PARENT], "higher", 0.08, "better"),
    ([v * 1.02 for v in PARENT], "lower", 0.08, "unchanged"),
    ([v * 1.01 for v in PARENT], "lower", 0.015, "unresolved"),
])
def test_verdicts(change, better, bound, expected):
    assert run.verdict(PARENT, change, better, bound) == expected


def test_absolute_verdicts():
    assert run.verdict([0], [0], "lower", 0, absolute=True) == "unchanged"
    assert run.verdict([0], [0.1], "lower", 0, absolute=True) == "worse"


def _record(path, digest, scale):
    samples = {name: [v * scale for v in PARENT]
               for name in run.metric_table(spec())}
    samples.update({name: [0.0] for name in run.ABSOLUTE_METRICS})
    path.write_text(json.dumps({"workloads": {"fig8a": {
        "config_digest": digest, "samples": samples}}}))
    return str(path)


def test_compare_prints_verdicts(tmp_path, capsys):
    a = _record(tmp_path / "a.json", "same", 1.0)
    b = _record(tmp_path / "b.json", "same", 1.5)
    assert run.compare(a, b, spec()) == 1
    out = capsys.readouterr().out
    assert re.search(r"fig8a\s+run_s .* worse", out)
    assert re.search(r"fig8a\s+sim_queries_per_s .* better", out)


def test_compare_refuses_different_configs(tmp_path):
    a = _record(tmp_path / "a.json", "one", 1.0)
    b = _record(tmp_path / "b.json", "two", 1.0)
    with pytest.raises(run.HarnessError, match="config digests"):
        run.compare(a, b, spec())


def test_compare_pairs_record_directories_in_order(tmp_path, capsys):
    for side, scale in (("a", 1.0), ("b", 0.5)):
        (tmp_path / side).mkdir()
        for i, seed in enumerate(("s1", "s2")):
            _record(tmp_path / side / f"record-{i}.json", seed, scale)
    assert run.compare(str(tmp_path / "a"), str(tmp_path / "b"),
                       spec()) == 1
    out = capsys.readouterr().out
    assert re.search(r"fig8a\s+run_s .* better", out)
    assert re.search(r"fig8a\s+sim_queries_per_s .* worse", out)
    (tmp_path / "b" / "record-1.json").unlink()
    _record(tmp_path / "b" / "record-1.json", "s1", 0.5)
    with pytest.raises(run.HarnessError, match="config digests"):
        run.compare(str(tmp_path / "a"), str(tmp_path / "b"), spec())
