"""Thin shim the BENCH writers use to feed the perf-regression ledger.

The real implementation lives in :mod:`repro.obs.ledger` (importable by
the ``repro perf`` entry point); this module pins the ledger path to
``results/perf_ledger.jsonl`` at the repository root, wherever the
benchmark was launched from, and never lets ledger trouble fail a
benchmark -- the BENCH_*.json artifact is the primary record, the
ledger is history.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                         os.pardir))
LEDGER_PATH = os.path.join(REPO_ROOT, "results", "perf_ledger.jsonl")


def record(metrics, benchmark):
    """Append *metrics* (``{name: value}``) under *benchmark*'s name.

    Returns the rows written (empty on any failure).
    """
    try:
        from repro.obs.ledger import append_metrics
        return append_metrics(metrics, benchmark, path=LEDGER_PATH,
                              cwd=REPO_ROOT)
    except Exception as exc:  # the ledger must never fail a benchmark
        print(f"(perf ledger append skipped: {exc})", file=sys.stderr)
        return []
