"""The Wisconsin benchmark relation [BDC83] with correlation control.

The paper's database is "a 100,000 tuple relation (relation R) ... based
on the standard Wisconsin benchmark relations and consists of thirteen
attributes.  Two of its attributes are termed unique1 and unique2, and
their values are uniformly distributed between 0 and 100,000."  Attribute
A of the workload is ``unique1`` and attribute B is ``unique2``; tuples
are 208 bytes, 36 to a page (Table 2).

The experiments additionally vary the *correlation* between the two
partitioning attributes (paper §4): with low correlation the attributes
are independent permutations; with high correlation unique2 tracks
unique1 closely (the paper's age/salary example), so that a narrow range
of B-values maps to a narrow range of A-values and queries on either
attribute can be localized to one processor.

Correlation specifications accepted by :func:`make_wisconsin`:

* ``"low"``       -- independent uniform permutations (paper's low corr).
* ``"high"``      -- each unique2 rank is displaced at most
                     ``HIGH_CORRELATION_WINDOW`` positions from unique1's
                     rank (near-functional dependence, the age/salary case).
* ``"identical"`` -- unique2 == unique1, the worst-case of §4 used for the
                     rebalancing-heuristic experiment.
* a float in [0, 1] -- Gaussian-copula rank correlation, for sensitivity
                     sweeps between the two extremes.
"""

from __future__ import annotations

from typing import Callable, Dict, Union

import numpy as np

from .relation import Relation
from .schema import INT, STRING, Attribute, Schema

__all__ = [
    "WISCONSIN_TUPLE_BYTES",
    "HIGH_CORRELATION_WINDOW",
    "SECONDARY_COLUMNS",
    "wisconsin_schema",
    "make_wisconsin",
    "correlated_permutation",
    "measured_rank_correlation",
]

#: Standard Wisconsin tuple width; matches Table 2's "Tuple Size 208 bytes".
WISCONSIN_TUPLE_BYTES = 208

#: Maximum rank displacement of unique2 vs unique1 under "high" correlation.
#: 64 ranks out of 100,000 keeps any 300-tuple range of B inside a single
#: processor's A-range (100,000 / 32 processors ≈ 3,125 values per site).
HIGH_CORRELATION_WINDOW = 64

#: The eleven integer attributes besides unique1 and unique2, each a
#: function of unique1 [BDC83].  No experiment reads them, so a relation
#: computes one on its first ``Relation.column`` read.
SECONDARY_COLUMNS: Dict[str, Callable[[Relation], np.ndarray]] = {
    "two": lambda r: r.column("unique1") % 2,
    "four": lambda r: r.column("unique1") % 4,
    "ten": lambda r: r.column("unique1") % 10,
    "twenty": lambda r: r.column("unique1") % 20,
    "one_percent": lambda r: r.column("unique1") % 100,
    "ten_percent": lambda r: r.column("unique1") % 10,
    "twenty_percent": lambda r: r.column("unique1") % 5,
    "fifty_percent": lambda r: r.column("unique1") % 2,
    "unique3": lambda r: r.column("unique1").copy(),
    "even_one_percent": lambda r: (r.column("unique1") % 100) * 2,
    "odd_one_percent": lambda r: (r.column("unique1") % 100) * 2 + 1,
}


def wisconsin_schema() -> Schema:
    """The 208-byte Wisconsin schema (13 integer + 3 padding string attrs).

    The paper says "thirteen attributes", counting the integer attributes
    of the standard Wisconsin relation; the three 52-byte strings are the
    padding that brings the tuple to 208 bytes and carry no query load.
    """
    ints = [
        "unique1", "unique2", "two", "four", "ten", "twenty",
        "one_percent", "ten_percent", "twenty_percent", "fifty_percent",
        "unique3", "even_one_percent", "odd_one_percent",
    ]
    attrs = [Attribute(name, INT, 4) for name in ints]
    attrs += [Attribute(name, STRING, 52)
              for name in ("stringu1", "stringu2", "string4")]
    schema = Schema(attrs)
    assert schema.tuple_size_bytes == WISCONSIN_TUPLE_BYTES
    return schema


def correlated_permutation(base: np.ndarray,
                           correlation: Union[str, float],
                           rng: np.random.Generator) -> np.ndarray:
    """A permutation of ``0..n-1`` with controlled rank correlation to *base*.

    See the module docstring for the accepted *correlation* values.
    """
    n = len(base)
    if isinstance(correlation, str):
        if correlation == "low":
            return rng.permutation(n)
        if correlation == "identical":
            return base.copy()
        if correlation == "high":
            window = min(HIGH_CORRELATION_WINDOW, max(n - 1, 0))
            # Jitter each rank by U(0, window) and re-rank: every element is
            # displaced strictly less than `window` positions.
            score = base + rng.uniform(0.0, float(window or 1), size=n)
            ranks = np.empty(n, dtype=np.int64)
            ranks[np.argsort(score, kind="stable")] = np.arange(n)
            return ranks
        raise ValueError(
            f"unknown correlation level {correlation!r}; "
            "expected 'low', 'high', 'identical' or a float in [0, 1]")

    rho = float(correlation)
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [0, 1], got {rho!r}")
    if rho == 1.0:
        return base.copy()
    # Gaussian copula: blend the base ranks (as normal scores) with fresh
    # noise, then rank the blend.
    base_scores = (base - (n - 1) / 2.0) / max(n, 1)
    noise = rng.standard_normal(n)
    blend = rho * base_scores + np.sqrt(1.0 - rho * rho) * noise * 0.2887
    ranks = np.empty(n, dtype=np.int64)
    ranks[np.argsort(blend, kind="stable")] = np.arange(n)
    return ranks


def make_wisconsin(cardinality: int = 100_000,
                   correlation: Union[str, float] = "low",
                   seed: int = 42,
                   name: str = "R",
                   with_strings: bool = False) -> Relation:
    """Build the benchmark relation used throughout the paper.

    Only ``unique1`` and ``unique2`` (and the strings, if asked for) are
    generated here; the other eleven integer attributes
    (:data:`SECONDARY_COLUMNS`) are computed from ``unique1`` on their
    first read, and every run reads only the two partitioning attributes.

    Parameters
    ----------
    cardinality:
        Number of tuples (the paper uses 100,000).
    correlation:
        Correlation spec for unique2 vs unique1 (module docstring).
    seed:
        RNG seed; identical seeds give identical relations.
    name:
        Relation name (the paper calls it ``R``).
    with_strings:
        Also materialize the three padding string columns.  The experiments
        never read them, so they default off.
    """
    if cardinality <= 0:
        raise ValueError(f"cardinality must be positive, got {cardinality!r}")
    rng = np.random.default_rng(seed)
    unique1 = rng.permutation(cardinality).astype(np.int64)
    unique2 = correlated_permutation(unique1, correlation, rng)

    columns = {"unique1": unique1, "unique2": unique2}
    if with_strings:
        padding = np.array(["A" * 52], dtype="U52")
        for sname in ("stringu1", "stringu2", "string4"):
            columns[sname] = np.broadcast_to(padding, (cardinality,)).copy()

    return Relation(name, wisconsin_schema(), columns, SECONDARY_COLUMNS)


def make_skewed_wisconsin(cardinality: int = 100_000,
                          skew: float = 2.0,
                          correlation: Union[str, float] = "low",
                          seed: int = 42,
                          name: str = "R") -> Relation:
    """A Wisconsin-like relation with *non-uniform* attribute values.

    The paper's relation has uniform unique1/unique2; real data is often
    skewed, which is exactly what the grid file's adaptive (equi-depth)
    splitting exists for.  This generator draws both partitioning
    attributes from a power-law over ``[0, cardinality)``:
    ``value = floor(domain * u**skew)`` with ``u ~ U(0, 1)``, so
    ``skew = 1`` is uniform and larger values concentrate mass near 0
    (skew 2: ~71% of tuples in the first 50% of the domain; skew 4:
    ~84%).

    Unlike :func:`make_wisconsin`, values are *not* a permutation --
    duplicates occur, and a width-k predicate no longer retrieves
    exactly k tuples.
    """
    if cardinality <= 0:
        raise ValueError(f"cardinality must be positive, got {cardinality!r}")
    if skew < 1.0:
        raise ValueError(f"skew must be >= 1.0, got {skew!r}")
    rng = np.random.default_rng(seed)
    u = rng.random(cardinality)
    unique1 = np.floor(cardinality * np.power(u, skew)).astype(np.int64)
    unique1 = np.minimum(unique1, cardinality - 1)
    # unique2 follows the same marginal, with controllable association.
    ranks1 = np.empty(cardinality, dtype=np.int64)
    ranks1[np.argsort(unique1, kind="stable")] = np.arange(cardinality)
    ranks2 = correlated_permutation(ranks1, correlation, rng)
    ordered = np.sort(unique1)
    unique2 = ordered[ranks2]

    return Relation(name, wisconsin_schema(),
                    {"unique1": unique1, "unique2": unique2},
                    SECONDARY_COLUMNS)


def measured_rank_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation between two columns (both permutations
    already *are* ranks, so this is plain Pearson on the values)."""
    if len(x) != len(y):
        raise ValueError("columns differ in length")
    if len(x) < 2:
        return 1.0
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xd = x - x.mean()
    yd = y - y.mean()
    denom = np.sqrt((xd * xd).sum() * (yd * yd).sum())
    if denom == 0:
        return 0.0
    return float((xd * yd).sum() / denom)
