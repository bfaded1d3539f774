"""A content-addressed, resumable on-disk store of run results.

Long sweeps are embarrassingly parallel grids of independent
simulations; when one is interrupted, everything already computed
should survive.  :class:`ResultCache` stores one JSON file per
completed :class:`~repro.experiments.plan.RunSpec`, addressed by the
spec's content digest, so a re-run of the same plan (``--cache DIR``)
loads finished points instead of simulating them -- regardless of which
executor, process or session produced them.

The layout is two-level (``DIR/ab/abcdef....json``) to keep directory
fan-out sane for multi-thousand-point sweeps, writes are atomic
(temp file + :func:`os.replace`) so a killed run never leaves a
half-written entry, and every entry embeds the full spec it was keyed
by: a digest collision or hand-edited file is detected on read, not
silently returned.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict
from typing import Dict, Optional

from ..gamma.metrics import RunResult
from .plan import RunSpec

__all__ = ["ResultCache", "CACHE_FORMAT_VERSION"]

#: Format identifier embedded in every cache entry.
CACHE_FORMAT_VERSION = 1


class ResultCache:
    """One directory of content-addressed run results."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        #: Lookups satisfied from disk since this object was created.
        self.hits = 0
        #: Lookups that found no (valid) entry.
        self.misses = 0

    # -- addressing --------------------------------------------------------

    def path_for(self, spec: RunSpec) -> str:
        digest = spec.digest()
        return os.path.join(self.root, digest[:2], f"{digest}.json")

    # -- store / load ------------------------------------------------------

    def get(self, spec: RunSpec) -> Optional[RunResult]:
        """The cached result of *spec*, or None.

        Corrupt or mismatched entries (truncated writes from an older
        crash, digest collisions, format changes, valid JSON of the wrong
        shape) count as misses.
        """
        path = self.path_for(spec)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        if (not isinstance(payload, dict)
                or payload.get("cache_format") != CACHE_FORMAT_VERSION
                or payload.get("spec") != _spec_dict(spec)
                or not isinstance(payload.get("result"), dict)):
            self.misses += 1
            return None
        try:
            result = RunResult.from_json_dict(payload["result"])
        except TypeError:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, spec: RunSpec, result: RunResult,
            executor: str = "serial", jobs: int = 1) -> str:
        """Store *result* under *spec*'s digest; returns the entry path."""
        path = self.path_for(spec)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "cache_format": CACHE_FORMAT_VERSION,
            "spec_digest": spec.digest(),
            "spec": _spec_dict(spec),
            "executor": {"name": executor, "jobs": jobs},
            "result": result.to_json_dict(),
        }
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    def __contains__(self, spec: RunSpec) -> bool:
        return os.path.exists(self.path_for(spec))

    def __len__(self) -> int:
        total = 0
        for _, _, files in os.walk(self.root):
            total += sum(1 for name in files if name.endswith(".json"))
        return total


def _spec_dict(spec: RunSpec) -> Dict:
    """The spec as it appears in a JSON entry (round-trips via json)."""
    return json.loads(json.dumps(asdict(spec)))
