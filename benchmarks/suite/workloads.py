"""Workload definitions and output digests shared by the suite's processes.

A :class:`Workload` is plain data: the parent harness (``run.py``)
digests it into every record, ships it to each cold child process
(``child.py``) as JSON, and the tests build tiny ones in place of the
registered five.  Nothing here imports the program under test.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

#: Bump when a change to the harness makes old records incomparable.
HARNESS_VERSION = 1

#: The seed the committed reference outputs were captured with.
REFERENCE_SEED = 13


@dataclass(frozen=True)
class Workload:
    """One named set of inputs the suite runs.

    A workload regenerates one figure-style grid per machine size in
    ``sites``: ``strategies`` x ``mpls`` closed-loop simulations of
    ``measured_queries`` each, through ``run_experiment``.  ``jobs``,
    ``cache`` and ``spans`` choose the executor, a fresh result cache
    served a second time, and span capture; all of them must leave the
    simulated outputs bit-identical.
    """

    name: str
    figure: str
    strategies: Tuple[str, ...]
    mpls: Tuple[int, ...]
    sites: Tuple[int, ...] = (32,)
    cardinality: int = 100_000
    measured_queries: int = 100
    jobs: int = 1
    cache: bool = False
    spans: bool = False
    #: Another workload whose outputs this one must reproduce bit for bit.
    same_outputs_as: str = ""
    #: Whether the paper's trend checks apply (whole figure, >= 2 strategies).
    trends: bool = False

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "Workload":
        data = dict(payload)
        for key in ("strategies", "mpls", "sites"):
            data[key] = tuple(data[key])
        return cls(**data)

    def config_digest(self, seed: int) -> str:
        """Digest of everything that makes two records comparable."""
        return _sha256({"workload": self.to_dict(), "seed": seed,
                        "harness_version": HARNESS_VERSION})

    @property
    def points(self) -> int:
        """Simulation points one pass of the workload runs."""
        return len(self.sites) * len(self.strategies) * len(self.mpls)

    @property
    def simulated_queries(self) -> int:
        """Query completions one pass simulates, warm-up included.

        ``GammaMachine.run`` warms up with one completion per terminal,
        at least 32, before the measured window opens.
        """
        per_site = sum(max(mpl, 32) + self.measured_queries
                       for mpl in self.mpls) * len(self.strategies)
        return per_site * len(self.sites)


FIG8A_MPLS = (1, 8, 16, 24, 32, 40, 48, 56, 64)

#: The registered workloads; why each exists is in BENCHMARK.json and
#: README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="fig8a",
        figure="8a", strategies=("range", "berd", "magic"),
        mpls=FIG8A_MPLS, measured_queries=100, trends=True),
    Workload(
        name="fig8a-jobs2",
        figure="8a", strategies=("range", "berd", "magic"),
        mpls=FIG8A_MPLS, measured_queries=100, jobs=2, cache=True,
        same_outputs_as="fig8a", trends=True),
    Workload(
        name="range-p1024",
        figure="8a", strategies=("range",), mpls=(32,), sites=(1024,),
        measured_queries=40),
    Workload(
        name="magic-p128",
        figure="8a", strategies=("magic",), mpls=(16, 64), sites=(128,),
        measured_queries=250),
    Workload(
        name="fig9-spans",
        figure="9", strategies=("berd", "magic"), mpls=(1, 16, 32, 48, 64),
        measured_queries=100, spans=True, trends=True),
)}


# -- outputs ----------------------------------------------------------------

def output_payload(passes) -> Dict:
    """Canonical outputs of one workload pass list, for digests.

    The shape follows ``benchmarks/scale_smoke_digest.canonical_payload``:
    per series (MPL, throughput, mean response time, messages sent) plus
    the RunSpec digests.  Series are labelled ``<strategy>.p<sites>``.
    ``passes`` is a sequence of ``(num_sites, FigureResult)``.
    """
    series, digests = {}, {}
    for num_sites, result in passes:
        for name, runs in sorted(result.series.items()):
            label = f"{name}.p{num_sites}"
            series[label] = [[run.multiprogramming_level, run.throughput,
                              run.response_time_mean, run.messages_sent]
                             for run in runs]
            digests[label] = list(result.spec_digests[name])
    return {"series": series, "spec_digests": digests}


def payload_digest(payload: Dict) -> str:
    return _sha256(payload)


def point_count(payload: Dict) -> int:
    return sum(len(rows) for rows in payload["series"].values())


def mismatched_points(got: Dict, expected: Dict) -> List[str]:
    """Labels of the points where two payloads differ, ``label[i]`` each.

    A point missing from either side counts as a mismatch.
    """
    bad = []
    labels = sorted(set(got["series"]) | set(expected["series"]))
    for label in labels:
        rows_a = got["series"].get(label, [])
        rows_b = expected["series"].get(label, [])
        dig_a = got["spec_digests"].get(label, [])
        dig_b = expected["spec_digests"].get(label, [])
        for i in range(max(len(rows_a), len(rows_b))):
            same = (i < len(rows_a) and i < len(rows_b)
                    and rows_a[i] == rows_b[i]
                    and i < len(dig_a) and i < len(dig_b)
                    and dig_a[i] == dig_b[i])
            if not same:
                bad.append(f"{label}[{i}]")
    return bad


def _sha256(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
