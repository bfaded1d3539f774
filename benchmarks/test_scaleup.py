"""Scale-up benchmark: events/sec and placement-build seconds vs P.

Runs the fig-8a workload at machine sizes 32..1024 (one MPL-8 point per
strategy per size) and writes ``BENCH_scaleup.json`` next to the repo
root: per machine size, the MAGIC/range/BERD placement-build seconds,
the DES events/sec achieved by the simulation, and the simulated
throughputs.  Rows for the headline metrics are appended to the perf
ledger so ``repro perf`` can trend them across commits.

The acceptance bar is the ISSUE-7 criterion: the ``num_sites=1024``
MAGIC placement (fig-8a-style 62x61 grid over the full 100k-tuple
relation) must build in under 30 seconds.  The bar is asserted only on
the full configuration -- the CI smoke runs a reduced relation via the
``SCALEUP_BENCH_*`` environment knobs, where the bound would be
meaninglessly easy.

Run directly (``python benchmarks/test_scaleup.py``) or via pytest
(``pytest benchmarks/test_scaleup.py``).
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from ledger import record as ledger_record  # noqa: E402

from repro.experiments import SCALEUP_SITES, run_scaleup

# Overridable so the CI smoke job can exercise the full pipeline (and
# seed the perf ledger) from a tiny configuration.
SITES = tuple(int(v) for v in os.environ.get(
    "SCALEUP_BENCH_SITES",
    ",".join(str(s) for s in SCALEUP_SITES)).split(","))
CARDINALITY = int(os.environ.get("SCALEUP_BENCH_CARDINALITY", "100000"))
MEASURED = int(os.environ.get("SCALEUP_BENCH_MEASURED", "100"))
MPL = int(os.environ.get("SCALEUP_BENCH_MPL", "8"))
BUILD_CEILING_SECONDS = 30.0
OUTPUT = os.path.join(os.path.dirname(__file__), os.pardir,
                      "BENCH_scaleup.json")

#: The 30s bar applies to the configuration the ISSUE names: the full
#: relation at P=1024.  Reduced smoke configs record, but don't assert.
FULL_CONFIG = CARDINALITY >= 100_000 and 1024 in SITES


def measure():
    result = run_scaleup(figure="8a", sites=SITES,
                         multiprogramming_level=MPL,
                         cardinality=CARDINALITY,
                         measured_queries=MEASURED, seed=13)
    per_site = {}
    for num_sites in result.sites:
        at_size = [p for p in result.points if p.num_sites == num_sites]
        rates = [p.events_per_sec for p in at_size if p.events_per_sec > 0]
        per_site[str(num_sites)] = {
            "placement_build_seconds": {
                p.strategy: round(p.placement_build_seconds, 3)
                for p in at_size},
            "simulate_seconds": {
                p.strategy: round(p.simulate_seconds, 3) for p in at_size},
            "events": {p.strategy: p.events for p in at_size},
            "events_per_sec": round(sum(rates) / len(rates), 1)
            if rates else 0.0,
            "throughput": {p.strategy: p.result.throughput
                           for p in at_size},
        }
    magic_build = {
        num_sites: next((p.placement_build_seconds
                         for p in result.points
                         if p.num_sites == num_sites
                         and p.strategy == "magic"), 0.0)
        for num_sites in result.sites}
    return {
        "benchmark": "fig-8a scale-up, one MPL point per strategy per "
                     "machine size",
        "sites": list(result.sites),
        "multiprogramming_level": MPL,
        "cardinality": CARDINALITY,
        "measured_queries": MEASURED,
        "per_site": per_site,
        "magic_build_seconds_p1024": round(magic_build.get(1024, 0.0), 3),
        "build_ceiling_seconds": BUILD_CEILING_SECONDS,
        "ceiling_asserted": FULL_CONFIG,
    }


def test_scaleup():
    report = measure()
    with open(OUTPUT, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    metrics = {}
    for num_sites, entry in report["per_site"].items():
        metrics[f"scaleup_events_per_sec_p{num_sites}"] = (
            entry["events_per_sec"])
        magic = entry["placement_build_seconds"].get("magic")
        if magic is not None:
            metrics[f"scaleup_placement_build_seconds_p{num_sites}"] = magic
    ledger_record(metrics, benchmark="scaleup")
    print()
    print(json.dumps(report, indent=2, sort_keys=True))
    if report["ceiling_asserted"]:
        assert report["magic_build_seconds_p1024"] < BUILD_CEILING_SECONDS, (
            f"P=1024 MAGIC placement build took "
            f"{report['magic_build_seconds_p1024']}s, ceiling is "
            f"{BUILD_CEILING_SECONDS}s")
    else:
        print("(reduced configuration: build ceiling recorded, "
              "not asserted)")


if __name__ == "__main__":
    test_scaleup()
    print(f"wrote {os.path.abspath(OUTPUT)}")
