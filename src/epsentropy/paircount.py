"""Exact epsilon-close pair and lagged-triple counting.

Counting is exact and boundary-inclusive: a pair at distance exactly eps
counts.  All comparisons run on squared distances against eps*eps, never on
square roots.  The backend follows from the dimension of the sample:

* d = 1: rank windows.  One stable sort gives, for every point, the window
  of sorted positions within eps, found by bisection on the exact squared
  test.  Pair counts, pairs, the minimum distance and the lagged triples
  all come from these windows in O(n log n) time and O(n) memory, exact by
  construction.
* d >= 2: a uniform grid with cell side eps (widened by a proven rounding
  margin), scanning same-and-adjacent cells only, when it is safe and
  profitable (low dimension, bounded bounding-box cell count); otherwise a
  blockwise O(n^2) scan.  Lagged triples go through per-index neighbour
  bitmasks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import SeriesSample

__all__ = [
    "PairCountResult",
    "count_close_pairs",
    "close_pairs",
    "count_uh_triples",
    "min_interpoint_distance",
]

GRID_DIM_LIMIT = 12
GRID_CELL_BUDGET_FACTOR = 16
_BRUTE_BLOCK = 512


@dataclass(frozen=True)
class PairCountResult:
    """Outcome of a pair count at radius eps over n points.

    min_distance is the exact minimum inter-point distance of the whole
    sample (not only of the pairs within eps), so n_pairs_close >= 1 implies
    min_distance <= eps and n_pairs_close == 0 implies min_distance > eps.
    """

    n_pairs_close: int
    min_distance: float
    n: int
    eps: float


def _grid_is_profitable(pts: np.ndarray, eps: float) -> bool:
    n, d = pts.shape
    if n < 2 or d > GRID_DIM_LIMIT:
        return False
    # neighbor enumeration is 3^d per occupied cell; past ~n offsets the
    # O(n^2) scan wins regardless of occupancy
    if 3**d > max(n, 729):
        return False
    spans = pts.max(axis=0) - pts.min(axis=0)
    cells = 1.0
    for s in spans:
        cells *= math.floor(s / eps) + 1.0
        if cells > GRID_CELL_BUDGET_FACTOR * n:
            return False
    return True


def _cell_table(pts: np.ndarray, side: float) -> dict[tuple[int, ...], np.ndarray]:
    # anchor the grid at the data minimum: cell indices then span only the
    # bounding box, so far-from-origin coordinates cannot overflow the keys.
    # The side is widened so rounding cannot key a close pair two cells apart.
    # With u = 2^-53, a pair passing fl(sum fl(fl(a - b)^2)) <= fl(side*side)
    # has every per-coordinate gap below side * (1 + (d+3)u/2 + O(u^2)), and
    # (d+3)u/2 < 2^-40 for d <= GRID_DIM_LIMIT.  fl(x - low) and the division
    # add at most about 4u * span to the gap of the scaled coordinates, which
    # span * 2^-50 = 8u * span covers.  The scaled gap is then at most 1, so
    # the keys of such a pair differ by at most 1 in every coordinate.
    low = pts.min(axis=0)
    span = float((pts.max(axis=0) - low).max())
    side = side * (1.0 + 2.0**-40) + span * 2.0**-50
    keys = np.floor((pts - low) / side).astype(np.int64)
    order = np.lexsort(keys.T[::-1])
    sorted_keys = keys[order]
    breaks = np.nonzero(np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1))[0] + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [len(order)]))
    table: dict[tuple[int, ...], np.ndarray] = {}
    for s, e in zip(starts, ends):
        table[tuple(sorted_keys[s])] = order[s:e]
    return table


def _half_offsets(d: int) -> list[tuple[int, ...]]:
    # lexicographically positive half of {-1,0,1}^d, so each unordered cell
    # pair is visited once
    out = []
    for off in itertools.product((-1, 0, 1), repeat=d):
        if off > (0,) * d:
            out.append(off)
    return out


def _grid_candidate_pairs(
    pts: np.ndarray, side: float, table: dict | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j, within same or adjacent cells of the grid.

    Superset of all pairs at distance <= side; distances still need checking.
    _cell_table widens the side so that the cell indices of such a pair
    differ by at most one in every coordinate.
    """
    if table is None:
        table = _cell_table(pts, side)
    offsets = _half_offsets(pts.shape[1])
    ii: list[np.ndarray] = []
    jj: list[np.ndarray] = []
    for key, idx in table.items():
        k = len(idx)
        if k > 1:
            a, b = np.triu_indices(k, 1)
            ii.append(idx[a])
            jj.append(idx[b])
        for off in offsets:
            other = table.get(tuple(key[t] + off[t] for t in range(len(off))))
            if other is None:
                continue
            ii.append(np.repeat(idx, len(other)))
            jj.append(np.tile(other, k))
    if not ii:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    i_arr = np.concatenate(ii)
    j_arr = np.concatenate(jj)
    swap = i_arr > j_arr
    i_arr[swap], j_arr[swap] = j_arr[swap], i_arr[swap].copy()
    return i_arr, j_arr


def _sq_dists(pts: np.ndarray, i_arr: np.ndarray, j_arr: np.ndarray) -> np.ndarray:
    diff = pts[i_arr] - pts[j_arr]
    return np.einsum("ij,ij->i", diff, diff)


def _brute_scan(pts: np.ndarray, eps_sq: float, collect: bool):
    """Blockwise full scan: (count, min_sq, pairs or None)."""
    n = pts.shape[0]
    count = 0
    min_sq = math.inf
    pair_i: list[np.ndarray] = []
    pair_j: list[np.ndarray] = []
    for start in range(0, n - 1, _BRUTE_BLOCK):
        stop = min(start + _BRUTE_BLOCK, n - 1)
        block = pts[start:stop]  # rows i, paired against all j > i
        diff = block[:, None, :] - pts[None, start + 1 :, :]
        sq = np.einsum("ijk,ijk->ij", diff, diff)
        rows = np.arange(start, stop)
        cols = np.arange(start + 1, n)
        valid = cols[None, :] > rows[:, None]
        sq_valid = sq[valid]
        if sq_valid.size:
            min_sq = min(min_sq, float(sq_valid.min()))
        hit = valid & (sq <= eps_sq)
        count += int(hit.sum())
        if collect and hit.any():
            r, c = np.nonzero(hit)
            pair_i.append(rows[r])
            pair_j.append(cols[c])
    if collect:
        if pair_i:
            return count, min_sq, (np.concatenate(pair_i), np.concatenate(pair_j))
        empty = np.empty(0, dtype=np.int64)
        return count, min_sq, (empty, empty)
    return count, min_sq, None


def _sorted_min_sq(v: np.ndarray) -> float:
    """Squared minimum distance of sorted values: the smallest adjacent gap."""
    gap = float(np.diff(v).min())
    return gap * gap


def _min_sq_distance(pts: np.ndarray) -> float:
    """Exact squared minimum inter-point distance.

    In 1-D it is the smallest gap of the sorted values.  Otherwise
    consecutive rows give a cheap upper bound u (they are actual pairs); the
    minimal pair then lies in same-or-adjacent cells of a grid with side u,
    so one candidate sweep at that side is exact.
    """
    n, d = pts.shape
    if n < 2:
        raise ValueError("minimum distance needs at least two points")
    if d == 1:
        return _sorted_min_sq(np.sort(pts[:, 0]))
    if n <= 256 or d > GRID_DIM_LIMIT or 3**d > max(n, 729):
        _, min_sq, _ = _brute_scan(pts, -1.0, False)
        return min_sq
    cons = pts[1:] - pts[:-1]
    u_sq = float(np.einsum("ij,ij->i", cons, cons).min())
    if u_sq == 0.0:
        return 0.0
    side = math.sqrt(u_sq)
    # bail out to the scan when the bound is so small that cell indices lose
    # exactness (span/side beyond 2^52) or cells are overfull (clustered data
    # with far-apart consecutive rows would make the sweep quadratic anyway)
    spans = pts.max(axis=0) - pts.min(axis=0)
    if float(spans.max()) / side > 2.0**52:
        _, min_sq, _ = _brute_scan(pts, -1.0, False)
        return min_sq
    table = _cell_table(pts, side)
    if max(len(idx) for idx in table.values()) * n > 10_000_000:
        _, min_sq, _ = _brute_scan(pts, -1.0, False)
        return min_sq
    i_arr, j_arr = _grid_candidate_pairs(pts, side, table)
    if i_arr.size == 0:
        return u_sq
    return min(u_sq, float(_sq_dists(pts, i_arr, j_arr).min()))


def _rank_windows(v: np.ndarray, eps_sq: float) -> tuple[np.ndarray, np.ndarray]:
    """Windows [lo[p], hi[p]) of the sorted positions q within eps of v[p].

    q is in the window iff fl(fl(v[q] - v[p])^2) <= eps_sq, the test every
    other path applies, p itself included.  Rounding is monotone, so the
    test is monotone in q on each side of p and bisection on it is exact;
    no v +- eps search is trusted.  lo is nondecreasing in p, and by
    symmetry q > p lies in p's window iff lo[q] <= p, which gives hi.
    """
    n = v.shape[0]
    pos = np.arange(n)
    # invariant: position b is within eps of p, and no position below a is
    a = np.zeros(n, dtype=np.int64)
    b = pos.copy()
    while np.any(a < b):
        mid = (a + b) // 2
        gap = v - v[mid]
        close = gap * gap <= eps_sq
        b = np.where(close, mid, b)
        a = np.where(close, a, mid + 1)
    hi = np.searchsorted(a, pos, side="right")
    return a, hi


def _checked_eps(eps: float) -> float:
    eps = float(eps)
    if not (eps > 0.0) or not math.isfinite(eps):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    return eps


def _exact_sum(terms: np.ndarray, bound: int) -> int:
    """Exact integer sum of int64 terms with |term| <= bound.

    Chunks are short enough that no int64 partial sum can overflow; the
    chunk sums add as Python ints.
    """
    step = max(1, (2**63 - 1) // max(bound, 1))
    return sum(int(terms[s : s + step].sum()) for s in range(0, terms.shape[0], step))


def min_interpoint_distance(sample: SeriesSample) -> float:
    """Exact minimum pairwise distance Y_n = min_{i<j} d(X_i, X_j)."""
    return math.sqrt(_min_sq_distance(sample.points))


def count_close_pairs(sample: SeriesSample, eps: float) -> PairCountResult:
    """Count pairs i < j with d(X_i, X_j) <= eps; also report exact Y_n."""
    eps = _checked_eps(eps)
    pts = sample.points
    n = sample.n
    if n < 2:
        raise ValueError("pair counting needs at least two observations")
    eps_sq = eps * eps
    if sample.d == 1:
        v = np.sort(pts[:, 0])
        lo, _ = _rank_windows(v, eps_sq)
        count = int((np.arange(n) - lo).sum())
        min_sq = _sorted_min_sq(v)
    elif _grid_is_profitable(pts, eps):
        i_arr, j_arr = _grid_candidate_pairs(pts, eps)
        if i_arr.size:
            sq = _sq_dists(pts, i_arr, j_arr)
            count = int((sq <= eps_sq).sum())
            cand_min = float(sq.min())
        else:
            count = 0
            cand_min = math.inf
        # candidate minimum is the global minimum only if it is <= eps;
        # otherwise the closest pair may sit in non-adjacent cells
        min_sq = cand_min if cand_min <= eps_sq else _min_sq_distance(pts)
    else:
        count, min_sq, _ = _brute_scan(pts, eps_sq, False)
    return PairCountResult(n_pairs_close=count, min_distance=math.sqrt(min_sq), n=n, eps=eps)


def close_pairs(sample: SeriesSample, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """All pairs (i, j), i < j, with d(X_i, X_j) <= eps, as index arrays."""
    eps = _checked_eps(eps)
    pts = sample.points
    if sample.n < 2:
        raise ValueError("pair counting needs at least two observations")
    eps_sq = eps * eps
    if sample.d == 1:
        order = np.argsort(pts[:, 0], kind="stable")
        _, hi = _rank_windows(pts[order, 0], eps_sq)
        # sorted position p pairs with every q in (p, hi[p])
        width = hi - np.arange(1, sample.n + 1)
        p = np.repeat(np.arange(sample.n), width)
        q = p + 1 + np.arange(p.shape[0]) - np.repeat(np.cumsum(width) - width, width)
        i_arr, j_arr = order[p], order[q]
        return np.minimum(i_arr, j_arr), np.maximum(i_arr, j_arr)
    if _grid_is_profitable(pts, eps):
        i_arr, j_arr = _grid_candidate_pairs(pts, eps)
        if i_arr.size == 0:
            return i_arr, j_arr
        keep = _sq_dists(pts, i_arr, j_arr) <= eps_sq
        return i_arr[keep], j_arr[keep]
    _, _, pairs = _brute_scan(pts, eps_sq, True)
    return pairs


def _adjacency_masks(n: int, i_arr: np.ndarray, j_arr: np.ndarray) -> list[int]:
    """Neighbor sets as per-index bitmasks (bit j of masks[i] == j in N(i))."""
    masks = [0] * n
    for a, b in zip(i_arr.tolist(), j_arr.tolist()):
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return masks


def _uh_count_from_masks(masks: list[int], n: int, h: int) -> int:
    """Lagged coincidence-triple count from adjacency masks; exact integers.

    Counts triples (i, j, k) with 0 <= i <= n-h-2, j, k not in {i, i+h},
    j != k, d(X_i, X_j) <= eps0 and d(X_{i+h}, X_k) <= eps0, factorized as
    sum_i [a_i * b_i - overlap_i].
    """
    total = 0
    if h == 0:
        for i in range(n - 1):
            c = masks[i].bit_count()
            total += c * (c - 1)
        return total
    for i in range(n - h - 1):
        m_i = masks[i]
        m_j = masks[i + h]
        ex = (m_i >> (i + h)) & 1
        a = m_i.bit_count() - ex
        b = m_j.bit_count() - ex
        total += a * b - (m_i & m_j).bit_count()
    return total


def count_uh_triples(sample: SeriesSample, h: int, eps0: float) -> int:
    """Count lagged triples (i, j, k) hitting both eps0-balls.

    A triple counts when d(X_i, X_j) <= eps0 and d(X_{i+h}, X_k) <= eps0 with
    0 <= i <= n-h-2 and j, k distinct indices outside {i, i+h}.
    """
    h = int(h)
    if h < 0:
        raise ValueError(f"lag must be nonnegative, got {h}")
    if sample.n < h + 4:
        raise ValueError(f"need n >= h + 4 (n={sample.n}, h={h})")
    if sample.d == 1:
        return _uh_counts_1d(sample, eps0, (h,))[0]
    i_arr, j_arr = close_pairs(sample, eps0)
    masks = _adjacency_masks(sample.n, i_arr, j_arr)
    return _uh_count_from_masks(masks, sample.n, h)


def _uh_counts_1d(sample: SeriesSample, eps0: float, lags) -> list[int]:
    """Lagged-triple counts of a 1-D sample, one per lag, from rank windows.

    Same counts as count_uh_triples; the caller checks 0 <= h <= n - 4.
    With W(i) the window of i (i itself included), deg_i = |W(i)| - 1 and
    adj = [X_i ~ X_{i+h}], anchor i adds (deg_i - adj)(deg_{i+h} - adj)
    minus |W(i) & W(i+h)| - 2 adj, the neighbours the two anchors share
    outside {i, i+h}.  Each lag is O(n).
    """
    eps0 = _checked_eps(eps0)
    x = sample.points[:, 0]
    n = x.shape[0]
    eps_sq = eps0 * eps0
    order = np.argsort(x, kind="stable")
    lo_s, hi_s = _rank_windows(x[order], eps_sq)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    lo, hi = lo_s[rank], hi_s[rank]
    deg = hi - lo - 1
    bound = (n - 1) * (n - 1)
    out = []
    for h in lags:
        m = n - h - 1
        if h == 0:
            out.append(_exact_sum(deg[:m] * (deg[:m] - 1), bound))
            continue
        gap = x[:m] - x[h : h + m]
        adj = (gap * gap <= eps_sq).astype(np.int64)
        shared = np.maximum(0, np.minimum(hi[:m], hi[h : h + m]) - np.maximum(lo[:m], lo[h : h + m]))
        terms = (deg[:m] - adj) * (deg[h : h + m] - adj) - (shared - 2 * adj)
        out.append(_exact_sum(terms, bound))
    return out
