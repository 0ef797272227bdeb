"""Approximate key discovery for numeric time-series tables.

An attribute subset is an exact eps-key when no two rows of its projection
fall within distance eps.  For data drawn from a stationary sequence the
chance of that event is governed by the same close-pair count the entropy
estimators use: the count is approximately Poisson with mean proportional to
the projection's quadratic functional, so subsets with small estimated q2
are the asymptotically favored key candidates.  Ranking therefore sorts by
q2_hat, not by the raw count, which drifts with the ball volume.  All the
subsets of a ranking are counted by one paircount.count_subset_pairs call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .asymptotics import poisson_p_key
from .core import SeriesSample, ball_volume, checked_columns, checked_q2
from .core import worker_count  # noqa: F401  (unused; perfbench/worker.py wraps it)
from .paircount import _checked_eps, count_subset_pairs
from .paircount import count_close_pairs  # noqa: F401  (unused; perfbench/spans.py wraps it)

__all__ = ["KeyCandidate", "evaluate_subset", "rank_candidates", "all_subsets"]

SUBSET_CAP = 100_000


@dataclass(frozen=True)
class KeyCandidate:
    """One attribute subset scored on a table.

    p_key is exp(-C(n,2) ball_volume(d, eps) q2_hat): the Poisson chance of
    seeing zero eps-collisions, i.e. of the subset acting as an eps-key.
    With the plug-in q2_hat that exponent reduces to the observed pair count,
    so p_key == 1 exactly when n_pairs_close == 0.
    """

    attributes: tuple[int, ...]
    n_pairs_close: int
    q2_hat: float
    p_key: float

    @property
    def d(self) -> int:
        return len(self.attributes)

    @property
    def is_exact_key(self) -> bool:
        return self.n_pairs_close == 0

    def to_dict(self) -> dict:
        return {
            "attributes": list(self.attributes),
            "n_pairs_close": self.n_pairs_close,
            "q2_hat": self.q2_hat,
            "p_key": self.p_key,
        }


def evaluate_subset(table: SeriesSample, attributes, eps: float) -> KeyCandidate:
    """Score one column subset: close pairs, q2_hat, and the zero-count chance."""
    return rank_candidates(table, [attributes], eps)[0]


def all_subsets(n_columns: int, size: int) -> list[tuple[int, ...]]:
    """Every column subset of the given size, capped at SUBSET_CAP subsets."""
    if not 1 <= size <= n_columns:
        raise ValueError(f"subset size must be in [1, {n_columns}], got {size}")
    total = math.comb(n_columns, size)
    if total > SUBSET_CAP:
        raise ValueError(
            f"{total} subsets of size {size} exceeds the cap of {SUBSET_CAP}; "
            "pass an explicit subset list instead"
        )
    return list(combinations(range(n_columns), size))


def rank_candidates(table: SeriesSample, subsets, eps: float) -> list[KeyCandidate]:
    """Score the given same-cardinality subsets and sort by q2_hat ascending.

    Ties break on lexicographic attribute order, so the ranking is a pure
    function of the table and the subset *set*, not of input order.  Mixed
    cardinalities are rejected: q2 values at different dimensions are scaled
    by different ball volumes and cannot be compared.
    """
    subset_list = [tuple(int(a) for a in s) for s in subsets]
    if not subset_list:
        raise ValueError("need at least one subset")
    sizes = {len(s) for s in subset_list}
    if len(sizes) != 1:
        raise ValueError(f"subsets must share one cardinality, got sizes {sorted(sizes)}")
    if len(subset_list) > SUBSET_CAP:
        raise ValueError(f"{len(subset_list)} subsets exceeds the cap of {SUBSET_CAP}")

    # every rejection comes before any counting, in the order a subset-by-subset
    # scoring would meet it: the first subset's columns, the table, eps, the
    # ball volume, then the other subsets' columns
    size = len(subset_list[0])
    checked_columns(subset_list[0], table.d)
    if table.n < 2:
        raise ValueError("need at least two rows to look for collisions")
    volume = ball_volume(size, _checked_eps(eps))
    for attrs in subset_list[1:]:
        checked_columns(attrs, table.d)
    counts = count_subset_pairs(table.points, subset_list, eps)
    pairs = table.n * (table.n - 1) // 2
    candidates = []
    for attrs, count in zip(subset_list, counts):
        q2_hat = checked_q2(count / (pairs * volume), eps, size)
        candidates.append(KeyCandidate(
            attributes=tuple(sorted(attrs)),
            n_pairs_close=count,
            q2_hat=q2_hat,
            p_key=poisson_p_key(table.n, size, eps, q2_hat),
        ))
    return sorted(candidates, key=lambda c: (c.q2_hat, c.attributes))
