"""Cold-process benchmark suite: end-to-end and per-layer host time.

    python benchmarks/suite/run.py                          # all workloads
    python benchmarks/suite/run.py --workload fig8a --seed 7 --repeats 5
    python benchmarks/suite/run.py --workload fig8a --seconds 20 --trace 1
    python benchmarks/suite/run.py --compare out/A.json out/B.json
    python benchmarks/suite/run.py --check-stability
    python benchmarks/suite/run.py --write-reference        # re-baseline

Every repeat of every workload runs in a fresh child process
(``child.py``), one at a time: a closed loop with one client.  The
parent times each child from spawn to exit and takes its CPU from
``RUSAGE_CHILDREN`` deltas around the wait.  ``--seconds`` repeats until
that much time is spent (at least four repeats); otherwise
``--repeats`` fixes the count.  ``--trace`` adds one traced child and
one telemetry-off child and reports the per-layer metrics instead of
the end-to-end ones.

Outputs are checked on every child: children given the same input
(plain, traced and telemetry-off ones), the two cache passes, and
workloads declared equivalent must agree bit for bit; at seed 13 the
outputs must equal the committed reference and the paper's trend
checks must pass.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; a record
with every sample goes to ``benchmarks/suite/out/``.  The exit code is
non-zero when an output check fails or the program cannot run.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
REFERENCE_DIR = os.path.join(HERE, "reference")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

from tracing import span_totals  # noqa: E402
from workloads import (HARNESS_VERSION, REFERENCE_SEED, WORKLOADS,  # noqa: E402
                       Workload, mismatched_points, payload_digest,
                       point_count)

#: Fewest plain repeats a ``--seconds`` run takes, however long each one
#: is: the host's speed drifts in bursts, and a median of three is moved
#: by two slow repeats.
MIN_REPEATS = 4

#: Correctness metrics reported beside the timings.  They are 0 on a
#: correct run, so they have an absolute bound of 0 and are left out of
#: BENCHMARK.json, whose metrics are never 0.
ABSOLUTE_METRICS = {
    "points_failed_ratio": {"unit": "ratio", "better": "lower", "bound": 0},
    "trend_checks_failed": {"unit": "count", "better": "lower", "bound": 0},
}

#: Spawn-to-exit totals, printed and recorded without a bound: they
#: include set-up, whose cost depends on the input far more than the
#: timed run does, and ``setup_s`` already bounds that part.
INFO_METRICS = {
    "wall_s": {"unit": "s", "better": "lower", "bound": None},
    "cpu_s": {"unit": "s", "better": "lower", "bound": None},
}

#: Metrics sampled once per plain repeat.
SAMPLED = ("run_s", "run_cpu_s", "setup_s", "sim_queries_per_s",
           "peak_rss_mb", "wall_s", "cpu_s")

#: cProfile layers inside GammaMachine.run reported with shares and
#: self seconds; gamma modules not listed fold into ``gamma.other``.
PROFILE_LAYERS = ("des", "gamma.operator", "gamma.disk", "gamma.network",
                  "gamma.scheduler", "gamma.cpu", "gamma.catalog",
                  "gamma.other", "storage", "obs", "core", "workload",
                  "builtins", "other")

PLACEMENT_SPANS = ("core.range_partition", "core.berd_partition",
                   "core.magic_partition")
PLACEMENT_STAGES = ("directory", "assign", "rebalance", "entry_exchange",
                    "materialize", "range_partition", "berd_partition")


class HarnessError(RuntimeError):
    """The benchmark could not run the program; no result is printed."""


def load_benchmark_spec(path: str = os.path.join(ROOT, "BENCHMARK.json")
                        ) -> Dict:
    with open(path) as handle:
        spec = json.load(handle)
    return {"end_to_end": {m["name"]: m for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m for m in spec["per_layer"]}}


def metric_table(spec: Dict) -> Dict[str, Dict]:
    """unit / better / bound of every end-to-end metric a record holds."""
    table = {name: {key: meta[key] for key in ("unit", "better", "bound")}
             for name, meta in spec["end_to_end"].items()}
    table.update(INFO_METRICS)
    table.update(ABSOLUTE_METRICS)
    return table


# -- statistics ---------------------------------------------------------------

def summarize(values: Sequence[float]) -> Dict:
    """Median and quartiles (Python's exclusive method), with the count.

    The highest percentile with at least ten samples beyond it is added
    once there are eleven or more samples.
    """
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    summary = {"median": median, "q1": q1, "q3": q3, "n": len(values)}
    if len(values) >= 11:
        pct = int(100 * (len(values) - 10) / len(values))
        summary[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return summary


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float, absolute: bool = False) -> str:
    """better / worse / unchanged / unresolved for one (workload, metric).

    A gain needs the change to win at least nine tenths of the pairs
    (runs paired in order) and the medians to differ by more than the
    parent's interquartile range.  The change is worse when its median
    is worse than the parent's by more than ``bound`` (a share of the
    parent's median; an absolute amount when ``absolute``).  A metric
    whose parent spread is wider than the bound is unresolved unless
    every run of the change reads better than every run of the parent.
    """
    sign = 1.0 if better == "higher" else -1.0
    base = statistics.median(parent)
    gain = sign * (statistics.median(change) - base)
    scale = 1.0 if absolute else abs(base) or 1.0
    summary = summarize(parent)
    spread = summary["q3"] - summary["q1"]
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > spread:
        return "better"
    if -gain > bound * scale:
        return "worse"
    every_run_better = (min(sign * b for b in change)
                        > max(sign * a for a in parent))
    if spread > bound * scale and not every_run_better:
        return "unresolved"
    return "unchanged"


# -- one child ----------------------------------------------------------------

@dataclass
class ChildRun:
    mode: str
    seed: int
    wall_s: float
    cpu_s: float
    report: Dict


def run_child(workload: Workload, seed: int, mode: str, scratch: str,
              timeout: float) -> ChildRun:
    """Run one cold repeat and time it from spawn to exit."""
    os.makedirs(scratch, exist_ok=True)
    request = json.dumps({"workload": workload.to_dict(), "seed": seed,
                          "mode": mode, "scratch": scratch})
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD, request], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
        wall = time.perf_counter() - started
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        raise HarnessError(f"{workload.name}: {mode} child exceeded "
                           f"{timeout:.0f}s and was killed")
    except BaseException:
        _kill_group(proc)
        raise
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise HarnessError(f"{workload.name}: {mode} child exited "
                           f"{proc.returncode}:\n{err[-3000:]}")
    cpu = (after.ru_utime + after.ru_stime
           - before.ru_utime - before.ru_stime)
    return ChildRun(mode=mode, seed=seed, wall_s=wall, cpu_s=cpu,
                    report=json.loads(out.strip().splitlines()[-1]))


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill the child and any pool workers it forked, then reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def repeat_seed(seed: int, index: int) -> int:
    """Input seed of plain repeat *index* of a run seeded with *seed*.

    Repeat 0 uses the seed itself, so ``--seed 13`` reproduces the
    committed reference.  Later repeats draw fresh, independent inputs:
    one seed fixes a whole figure's query stream and every placement's
    rebalancer search, so a run's median over several inputs varies far
    less from seed to seed than any single input does.
    """
    if index == 0:
        return seed
    digest = hashlib.sha256(f"{seed}:{index}".encode()).hexdigest()
    return int(digest[:8], 16) % 1_000_000_007


# -- one workload -------------------------------------------------------------

@dataclass
class WorkloadRun:
    workload: Workload
    seed: int
    children: List[ChildRun] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    #: [check name, passed, detail] of the first plain child, whose
    #: input is the run's own seed
    trend_checks: List = field(default_factory=list)

    @property
    def plain(self) -> List[ChildRun]:
        return [c for c in self.children if c.mode == "plain"]

    def child(self, mode: str) -> Optional[ChildRun]:
        return next((c for c in self.children if c.mode == mode), None)

    def samples(self) -> Dict[str, List[float]]:
        """Per-repeat samples of the timed metrics, from the plain children."""
        out: Dict[str, List[float]] = {name: [] for name in SAMPLED}
        for child in self.plain:
            rep = child.report
            out["run_s"].append(rep["run_s"])
            out["run_cpu_s"].append(rep["run_cpu_s"])
            out["setup_s"].append(rep["setup_s"])
            out["sim_queries_per_s"].append(
                rep["simulated_queries"] / rep["pass1_s"])
            out["peak_rss_mb"].append(rep["peak_rss_kb"] / 1024.0)
            out["wall_s"].append(child.wall_s)
            out["cpu_s"].append(child.cpu_s)
        return out

    def absolute(self) -> Dict[str, float]:
        return {"points_failed_ratio": self.failed / max(self.attempted, 1),
                "trend_checks_failed": float(sum(
                    1 for check in self.trend_checks if not check[1]))}

    @property
    def correct(self) -> bool:
        """No failed point; at the reference seed, no failed trend check.

        The paper's trend claims are asserted at the paper's seed only:
        with the suite's scaled-down query counts, sampling noise on other
        seeds can flip a 2% margin without anything being wrong.
        """
        trends_ok = (self.seed != REFERENCE_SEED
                     or not self.absolute()["trend_checks_failed"])
        return self.failed == 0 and trends_ok


def run_workload(workload: Workload, seed: int, repeats: int,
                 seconds: Optional[float], trace: bool,
                 scratch_root: str) -> WorkloadRun:
    """All children of one workload: plain repeats, plus traced ones."""
    run = WorkloadRun(workload=workload, seed=seed)
    started = time.perf_counter()
    deadline = started + (seconds + 150 if seconds else 3600)

    def spawn(mode: str) -> None:
        index = len(run.plain) if mode == "plain" else 0
        scratch = os.path.join(scratch_root,
                               f"{os.getpid()}-{len(run.children)}")
        run.children.append(run_child(
            workload, repeat_seed(seed, index), mode, scratch,
            deadline - time.perf_counter()))

    plan = ["plain"] + (["traced", "telemetry-off"] if trace else [])
    if seconds is None:
        plan += ["plain"] * (repeats - 1)
    for mode in plan:
        spawn(mode)
    if seconds is not None:
        wanted = 1 if trace else MIN_REPEATS
        while True:
            mean = statistics.mean(c.wall_s for c in run.plain)
            elapsed = time.perf_counter() - started
            if len(run.plain) >= wanted and elapsed + mean > seconds:
                break
            spawn("plain")
    check_outputs(run)
    return run


def check_outputs(run: WorkloadRun) -> None:
    """Count attempted and failed points over every child of a run.

    Children given the same input seed must agree bit for bit (plain,
    traced and telemetry-off children run in separate processes), each
    cache-served pass must equal the pass that filled the cache, and a
    child at the reference seed must equal the committed reference.
    """
    workload = run.workload
    passes = 2 if workload.cache else 1
    first_by_seed: Dict[int, Dict] = {}
    for child in run.children:
        rep = child.report
        run.attempted += workload.points * passes
        if rep.get("error") or rep.get("payload") is None:
            run.failed += workload.points * passes
            run.notes.append(f"{child.mode} child raised:\n{rep['error']}")
            continue
        payload = rep["payload"]
        if child.mode == "plain" and child.seed == run.seed:
            run.trend_checks = rep["trend_checks"]
        expected = first_by_seed.setdefault(child.seed, payload)
        bad = set(mismatched_points(payload, expected))
        if bad:
            run.notes.append(f"{child.mode} child at seed {child.seed} "
                             f"differs from its first run at "
                             f"{sorted(bad)[:5]}")
        reference = load_reference(workload, child.seed)
        if reference is not None:
            ref_bad = mismatched_points(payload, reference)
            if ref_bad:
                run.notes.append(f"{child.mode} child differs from the "
                                 f"reference at {ref_bad[:5]}")
            bad |= set(ref_bad)
        if point_count(payload) != workload.points:
            bad.add("point count")
        failed = len(bad)
        if workload.cache:
            second = mismatched_points(rep["payload_pass2"] or {
                "series": {}, "spec_digests": {}}, payload)
            if second:
                run.notes.append(f"cache pass differs at {second[:5]}")
            failed += len(second)
        run.failed += min(failed, workload.points * passes)


def load_reference(workload: Workload, seed: int) -> Optional[Dict]:
    """The committed reference payload for this workload and seed, if any."""
    path = os.path.join(REFERENCE_DIR, f"{workload.name}.json")
    if seed != REFERENCE_SEED or not os.path.exists(path):
        return None
    with open(path) as handle:
        reference = json.load(handle)
    if reference["config_digest"] != workload.config_digest(seed):
        raise HarnessError(
            f"{workload.name}: the reference was captured for another "
            f"workload definition; re-baseline with --write-reference")
    return reference["payload"]


def cross_check(runs: Sequence[WorkloadRun]) -> None:
    """Workloads declared equivalent must produce identical outputs."""
    by_name = {run.workload.name: run for run in runs}
    for run in runs:
        other = by_name.get(run.workload.same_outputs_as)
        if other is None:
            continue
        theirs = {c.seed: c.report.get("payload") for c in other.plain}
        for child in run.plain:
            mine = child.report.get("payload")
            if mine is None or theirs.get(child.seed) is None:
                continue
            bad = mismatched_points(mine, theirs[child.seed])
            if bad:
                run.notes.append(f"seed {child.seed} differs from "
                                 f"{other.workload.name} at {bad[:5]}")
                run.failed += len(bad)


# -- per-layer metrics --------------------------------------------------------

def layer_metrics(run: WorkloadRun) -> Dict[str, float]:
    """Per-layer metrics from the traced, telemetry-off and plain children.

    Timings of whole phases come from the untraced (plain) children;
    placement sub-stages, rebalancer counts and the simulator's module
    shares come from the traced child.  Self seconds inside the
    simulator are the traced share times the untraced ``gamma.run_s``.
    """
    traced, off = run.child("traced"), run.child("telemetry-off")
    if traced is None or off is None:
        raise HarnessError("per-layer metrics need a --trace run")
    if traced.report.get("error") or off.report.get("error"):
        raise HarnessError(f"{run.workload.name}: a traced child raised")
    plain = [c.report for c in run.plain if not c.report.get("error")]
    if not plain:
        raise HarnessError(f"{run.workload.name}: every plain child raised")
    jobs = run.workload.jobs

    def med(values) -> float:
        return statistics.median(list(values))

    gamma_run = med(r["simulate_s"] for r in plain)
    first = plain[0]
    m: Dict[str, float] = {
        "experiments.prewarm_s": med(r["prewarm_s"] for r in plain),
        "experiments.run_s": med(r["run_s"] for r in plain),
        "experiments.overhead_s": med(r["run_s"] - r["simulate_s"] / jobs
                                      for r in plain),
        "experiments.parent_cpu_s": med(r["parent_cpu_s"] for r in plain),
        "experiments.sim_cpu_s": med(r["sim_cpu_s"] for r in plain),
        "experiments.parent_wait_s": med(r["run_s"] - r["parent_cpu_s"]
                                         for r in plain),
        "experiments.cpu_amplification": med(r["run_cpu_s"] / r["sim_cpu_s"]
                                             for r in plain),
        "experiments.cache_hit_ratio": (first["cache_hits"]
                                        / first["cache_lookups"]
                                        if first["cache_lookups"] else 0.0),
        "experiments.cache_io_share": med(r["cache_io_s"] / r["run_s"]
                                          for r in plain),
        "gamma.run_s": gamma_run,
        "gamma.network.messages": float(first["messages"]),
        "des.events": first["events"],
        "des.events_per_query": first["events"] / first["simulated_queries"],
        "des.events_per_s": med(r["events"] / r["simulate_s"]
                                for r in plain),
        "obs.spans_recorded": first["spans_recorded"],
        # The telemetry-off child shares the first plain child's input.
        "obs.capture_overhead_ratio": (first["simulate_s"]
                                       / off.report["simulate_s"]),
        "trace_overhead_ratio": traced.wall_s / med(c.wall_s
                                                    for c in run.plain),
    }

    trace = traced.report["trace"]
    totals = span_totals(trace["spans"])
    placement = sum(totals.get(name, 0.0) for name in PLACEMENT_SPANS)
    m["storage.relation_build_s"] = totals.get("storage.relation_build", 0.0)
    m["core.placement_build_s"] = placement
    for stage in PLACEMENT_STAGES:
        m[f"core.{stage}_share"] = (totals.get(f"core.{stage}", 0.0)
                                    / placement if placement else 0.0)
    counters = trace["counters"]
    for name in ("rebalance_iterations", "rebalance_widenings",
                 "rebalance_delta_builds", "rebalance_pairs_evaluated",
                 "rebalance_swaps", "entry_exchange_moves"):
        m[f"core.{name}"] = counters.get(name, 0.0)
    pairs = counters.get("rebalance_pairs_evaluated", 0.0)
    m["core.rebalance_useful_ratio"] = (
        counters.get("rebalance_swaps", 0.0) / pairs if pairs else 0.0)
    m["core.load_spread"] = trace["peaks"].get("load_spread", 0.0)

    buckets = {layer: 0.0 for layer in PROFILE_LAYERS}
    for layer, seconds in trace["profile"].items():
        if layer not in buckets:
            layer = "gamma.other" if layer.startswith("gamma.") else "other"
        buckets[layer] += seconds
    profiled = sum(buckets.values()) or 1.0
    for layer, seconds in buckets.items():
        m[f"{layer}.self_share"] = seconds / profiled
        m[f"{layer}.self_s"] = seconds / profiled * gamma_run
    m["trace_coverage_ratio"] = trace["covered_s"] / traced.wall_s
    return m


def write_trace(run: WorkloadRun, out_dir: str) -> None:
    traced = run.child("traced")
    path = os.path.join(out_dir, f"trace-{run.workload.name}.json")
    with open(path, "w") as handle:
        json.dump({"workload": run.workload.name, "seed": run.seed,
                   "config_digest": run.workload.config_digest(run.seed),
                   "profile": traced.report["trace"]["profile"],
                   "spans": traced.report["trace"]["spans"]}, handle)


# -- records ------------------------------------------------------------------

def host_fingerprint() -> Dict:
    from importlib.metadata import PackageNotFoundError, version
    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = "unknown"
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = os.cpu_count()
    return {"nproc": os.cpu_count(), "affinity": affinity,
            "python": platform.python_version(), "numpy": numpy_version,
            "machine": platform.machine()}


def git_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def build_record(runs: Sequence[WorkloadRun], spec: Dict, trace: bool,
                 layers: Dict[str, Dict[str, float]]) -> Dict:
    record = {"harness_version": HARNESS_VERSION,
              "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
              "git_sha": git_sha(), "host": host_fingerprint(),
              "trace": trace, "workloads": {}}
    table = metric_table(spec)
    for run in runs:
        samples = run.samples()
        for name, value in run.absolute().items():
            samples[name] = [value]
        summary = {name: dict(summarize(samples[name]), **table[name])
                   for name in table}
        record["workloads"][run.workload.name] = {
            "definition": run.workload.to_dict(), "seed": run.seed,
            "config_digest": run.workload.config_digest(run.seed),
            "repeats": len(run.plain), "samples": samples,
            "summary": summary, "attempted": run.attempted,
            "failed": run.failed, "trend_checks": run.trend_checks,
            "notes": run.notes,
            "per_layer": layers.get(run.workload.name)}
    cpu = {name: record["workloads"][name]["summary"]["cpu_s"]["median"]
           for name in ("fig8a", "fig8a-jobs2") if name in record["workloads"]}
    if len(cpu) == 2:
        record["cpu_amplification"] = {
            "fig8a-jobs2_cpu_s": cpu["fig8a-jobs2"], "fig8a_cpu_s": cpu["fig8a"],
            "ratio": cpu["fig8a-jobs2"] / cpu["fig8a"]}
    return record


def write_record(record: Dict, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    path = os.path.join(out_dir, f"record-{stamp}-{os.getpid()}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return path


# -- printing -----------------------------------------------------------------

def print_workload(entry: Dict, name: str) -> None:
    print(f"\n== {name}  seed {entry['seed']}, {entry['repeats']} cold "
          f"repeats, config {entry['config_digest'][:12]}")
    print(f"  {'metric':<24}{'unit':<11}{'median':>12}{'q1':>12}"
          f"{'q3':>12}  bound")
    for metric, row in entry["summary"].items():
        bound = row["bound"]
        shown = ("-" if bound is None else f"{bound:.0%}" if bound
                 else "0 (absolute)")
        print(f"  {metric:<24}{row['unit']:<11}{row['median']:>12.5g}"
              f"{row['q1']:>12.5g}{row['q3']:>12.5g}  {shown}")
    trends = entry["trend_checks"]
    passed = sum(1 for check in trends if check[1])
    asserted = "" if entry["seed"] == REFERENCE_SEED else \
        f" (asserted at seed {REFERENCE_SEED} only)"
    print(f"  outputs: {entry['attempted'] - entry['failed']}/"
          f"{entry['attempted']} points pass; trend checks "
          f"{passed}/{len(trends)} pass{asserted}")
    for note in entry["notes"]:
        print(f"  ! {note}")
    if entry["per_layer"]:
        print(f"  {'per-layer metric':<40}{'value':>14}")
        for metric, value in entry["per_layer"].items():
            print(f"  {metric:<40}{value:>14.6g}")


def result_line(runs: Sequence[WorkloadRun], spec: Dict, trace: bool,
                layers: Dict[str, Dict[str, float]]) -> Dict:
    """The machine-readable last line of a run."""
    metrics = {}
    for run in runs:
        prefix = "" if len(runs) == 1 else f"{run.workload.name}."
        if trace:
            values = layers[run.workload.name]
            chosen = spec["per_layer"]
        else:
            values = {name: summarize(samples)["median"]
                      for name, samples in run.samples().items()}
            chosen = spec["end_to_end"]
        for name, meta in chosen.items():
            metrics[prefix + name] = {"value": values[name],
                                      "unit": meta["unit"]}
    return {"correct": all(run.correct for run in runs),
            "attempted": sum(run.attempted for run in runs),
            "failed": sum(run.failed for run in runs), "metrics": metrics}


# -- modes --------------------------------------------------------------------

def run_suite(workloads: Sequence[Workload], seed: int, repeats: int,
              seconds: Optional[float], trace: bool, out_dir: str,
              spec: Dict, quiet: bool = False):
    """Run every workload; returns (runs, per-layer metrics, record path)."""
    scratch = os.path.join(out_dir, "tmp")
    runs, layers = [], {}
    for workload in workloads:
        run = run_workload(workload, seed, repeats, seconds, trace, scratch)
        runs.append(run)
        if trace:
            layers[workload.name] = layer_metrics(run)
            os.makedirs(out_dir, exist_ok=True)
            write_trace(run, out_dir)
    cross_check(runs)
    record = build_record(runs, spec, trace, layers)
    path = write_record(record, out_dir)
    if not quiet:
        for name, entry in record["workloads"].items():
            print_workload(entry, name)
        if "cpu_amplification" in record:
            amp = record["cpu_amplification"]
            print(f"\ncpu_amplification = cpu_s(fig8a-jobs2) / cpu_s(fig8a)"
                  f" = {amp['fig8a-jobs2_cpu_s']:.3f} / "
                  f"{amp['fig8a_cpu_s']:.3f} = {amp['ratio']:.3f}")
        print(f"\nrecord: {os.path.relpath(path, ROOT)}")
    return runs, layers, path


def check_stability(workloads: Sequence[Workload], seed: int, repeats: int,
                    seconds: Optional[float], out_dir: str,
                    spec: Dict) -> int:
    """Two sets of repeats of the same code must agree within the bounds."""
    sets = [run_suite(workloads, seed, repeats, seconds, False, out_dir,
                      spec, quiet=True)[0] for _ in range(2)]
    worst = 0
    print(f"{'workload':<18}{'metric':<20}{'set 1':>12}{'set 2':>12}"
          f"{'diff':>8}{'bound':>7}")
    for first, second in zip(*sets):
        a, b = first.samples(), second.samples()
        for name, meta in spec["end_to_end"].items():
            ma, mb = statistics.median(a[name]), statistics.median(b[name])
            diff = abs(mb - ma) / abs(ma)
            flag = "" if diff <= meta["bound"] else "  UNSTABLE"
            worst += bool(flag)
            print(f"{first.workload.name:<18}{name:<20}{ma:>12.5g}"
                  f"{mb:>12.5g}{diff:>8.1%}{meta['bound']:>7.0%}{flag}")
    wrong = sum(not run.correct for runs in sets for run in runs)
    print(f"\n{worst} unstable metric(s); {wrong} run(s) failed a check")
    return 1 if worst or wrong else 0


def load_records(path: str) -> List[Dict]:
    paths = (sorted(glob.glob(os.path.join(path, "record-*.json")))
             if os.path.isdir(path) else [path])
    records = []
    for item in paths:
        with open(item) as handle:
            records.append(json.load(handle))
    if not records:
        raise HarnessError(f"no benchmark records at {path}")
    return records


def compare(path_a: str, path_b: str, spec: Dict) -> int:
    """Verdict per (workload, metric) between two records or directories.

    A single record compares its per-repeat samples; a directory of
    records compares one median per record, pairing records in file
    order (the alternating A/B protocol in README.md).  Paired records
    must have equal config digests.
    """
    sides = [load_records(path_a), load_records(path_b)]
    if len(sides[0]) != len(sides[1]):
        raise HarnessError(f"{len(sides[0])} records against "
                           f"{len(sides[1])}; pair them one to one")
    names = [n for n in sides[0][0]["workloads"]
             if all(n in r["workloads"] for side in sides for r in side)]
    if not names:
        raise HarnessError("the two sides share no workload")
    metrics = {name: meta for name, meta in metric_table(spec).items()
               if meta["bound"] is not None}
    print(f"{'workload':<18}{'metric':<21}{'A median':>11}{'A q1-q3':>22}"
          f"{'B median':>11}{'B q1-q3':>22}  verdict")
    worse = 0
    for name in names:
        if any(a["workloads"][name]["config_digest"]
               != b["workloads"][name]["config_digest"]
               for a, b in zip(*sides)):
            raise HarnessError(
                f"{name}: records have different config digests (workload "
                f"definition, seed or harness version differ); refusing to "
                f"compare them")
        for metric, meta in metrics.items():
            values = []
            for side in sides:
                if len(side) == 1:
                    values.append(side[0]["workloads"][name]["samples"][metric])
                else:
                    values.append([statistics.median(
                        r["workloads"][name]["samples"][metric])
                        for r in side])
            result = verdict(values[0], values[1], meta["better"],
                             meta["bound"],
                             absolute=metric in ABSOLUTE_METRICS)
            worse += result == "worse"
            sa, sb = summarize(values[0]), summarize(values[1])
            print(f"{name:<18}{metric:<21}{sa['median']:>11.5g}"
                  f"{sa['q1']:>11.5g}{sa['q3']:>11.5g}{sb['median']:>11.5g}"
                  f"{sb['q1']:>11.5g}{sb['q3']:>11.5g}  {result}")
    return 1 if worse else 0


def write_references(workloads: Sequence[Workload]) -> None:
    """Capture each workload's outputs at the reference seed."""
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    scratch = os.path.join(OUT, "tmp")
    for workload in workloads:
        child = run_child(workload, REFERENCE_SEED, "plain",
                          os.path.join(scratch, str(os.getpid())), 3600)
        report = child.report
        if report.get("error"):
            raise HarnessError(f"{workload.name} raised:\n{report['error']}")
        payload = report["payload"]
        path = os.path.join(REFERENCE_DIR, f"{workload.name}.json")
        with open(path, "w") as handle:
            json.dump({"workload": workload.name, "seed": REFERENCE_SEED,
                       "config_digest": workload.config_digest(REFERENCE_SEED),
                       "sha256": payload_digest(payload),
                       "payload": payload}, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Cold-process benchmark suite (see README.md).")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED,
                        help=f"input seed (default {REFERENCE_SEED})")
    parser.add_argument("--repeats", type=int, default=5,
                        help="cold repeats per workload (default 5)")
    parser.add_argument("--seconds", type=float,
                        help="repeat until this many seconds are spent "
                             f"(at least {MIN_REPEATS} repeats) instead "
                             "of --repeats")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="compare two records (or record directories)")
    mode.add_argument("--check-stability", action="store_true",
                      help="run two sets and fail if any end-to-end "
                           "metric differs by more than its bound")
    mode.add_argument("--write-reference", action="store_true",
                      help="capture reference outputs at seed "
                           f"{REFERENCE_SEED}")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    workloads = [WORKLOADS[name] for name in (args.workload or WORKLOADS)]
    try:
        spec = load_benchmark_spec()
        if args.compare:
            return compare(args.compare[0], args.compare[1], spec)
        if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
            raise HarnessError(f"no program source at {ROOT}/src/repro")
        if args.write_reference:
            write_references(workloads)
            return 0
        if args.check_stability:
            return check_stability(workloads, args.seed, args.repeats,
                                   args.seconds, OUT, spec)
        runs, layers, _ = run_suite(workloads, args.seed, args.repeats,
                                    args.seconds, bool(args.trace), OUT, spec)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    line = result_line(runs, spec, bool(args.trace), layers)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
