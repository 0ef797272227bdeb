"""Exact epsilon-close pair and lagged-triple counting.

Counting is exact and boundary-inclusive: a pair at distance exactly eps
counts.  All comparisons run on squared distances against eps*eps, never on
square roots.  Every path starts from one sort on the first
coordinate, which gives for every point the window of sorted positions
within eps on that coordinate (rank windows).  The window edges are defined
by the exact squared test: a searchsorted seed counts only where that test
confirms it, and bisection on the test finds the rest.

* d = 1: the windows are the answer.  Pair counts, the minimum distance and
  the lagged triples come from them in O(n log n) time and O(n) memory,
  exact by construction; a report sorts once.  A stack of equal-length
  samples (the replicates of a study) is counted in the same pass, with
  one sort along the rows.  Each lag then runs as 1-D passes over the
  flattened stack, pairing flat positions i and i+h, and sums each row's
  anchors i <= n-h-2 alone, none of whose pairs crosses a row.
* d >= 2: the windows hold every pair within eps, because a rounded sum of
  nonnegative squares is never below its first term.  The full squared
  distances of the window pairs, added column by column from the left, are
  filtered in blocks, written into the few block buffers a pass allocates
  once, which hold at most 8 _BLOCK floats together, so memory stays
  O(n d) however many pairs are close.  The sorted columns are padded with
  NaN, so the test sum <= eps^2 needs no window mask.  Lagged triples need
  the degrees, adj_i = [i+h in N(i)] and sum_i |N(i) & N(i+h)|: each hit
  (c, a) within eps0, in both directions, probes whether c is within eps0
  of a+h by the same rounded test, _HITS hits at a time, so memory stays
  O(n d + _HITS).
* column subsets (count_subset_pairs): the same holds for any one column
  of a subset, since the rounded sum is never below any of its terms.  The
  subsets that share their smallest column are counted in one window pass
  sorted on it; per block, a column that several sums add has its squared
  differences computed once, and a column prefix that several subsets
  share is summed once.

_counts is the one count entry of every report, study and counter: per
sample of a (k, n, d) stack, the pairs within eps, the squared minimum
distance and the lagged triples at eps0, from one window pass per d >= 2
sample at the larger radius (_window_scan, which close_pairs takes for
every d).  Every triple counter, discrete ties included, ends in
_lagged_triples.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import SeriesSample, checked_columns

__all__ = [
    "PairCountResult",
    "count_close_pairs",
    "count_subset_pairs",
    "close_pairs",
    "count_uh_triples",
    "min_interpoint_distance",
]

# entries per block buffer of a window pass that holds eight (the shared
# columns' squares, the kept prefix sums, a running sum and a scratch column
# of a keys_3d_grid pivot): 8 bytes an entry, 128 KiB each at 2^14, 1 MiB
# together, within a 2 MiB L2 cache.  A pass of b buffers shares that budget:
# 8 _BLOCK / b entries a buffer, rounded down to a power of two, up to
# 2 _BLOCK.  So a lone sum (two buffers) takes blocks of 2^15 and pays the
# per-block Python overhead half as often, and a keys_3d_grid pivot of six to
# eight buffers keeps 2^14.  At 2^16 a lone sum gained a few percent more on
# a 2-D count, and a 64-column count would hold 0.5 MiB more beside its
# O(n d) columns.
_BLOCK = 1 << 14
# values per stack of replicates given to one _counts call by a Monte Carlo
# study (montecarlo._counted): a 1-D lag reads and writes about eight arrays
# of 8 bytes a value, which at 2^15 values stay within a 2 MiB L2 cache;
# 2^16 values counted 100 samples of n = 500 about 20% slower on a 2-vCPU Xeon
_STACK_VALUES = 1 << 15
# hits within eps0 that a d >= 2 window pass hands on at a time to the lag
# probes (_probe_hits): 2^13 hits are 2^14 directed probes, about eight
# arrays of 128 KiB within a 2 MiB L2 cache; on a 2-D MA(2) report (n = 20000,
# eps 0.2, r = 4) a 2-vCPU Xeon took 0.29 s at 2^13 or 2^14, 0.41 s at 2^16
_HITS = 1 << 13


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


def _sq_sum(square, columns, out: np.ndarray, scratch: np.ndarray | None, total=None) -> np.ndarray:
    """Squared norms from per-column squared differences, written into out.

    square(c, buf) returns column c's squares, written into buf or held
    elsewhere (a column whose squares several sums share).  They are added
    column by column from the left, one fixed order for every path, so an
    "exact" count never depends on a library's summation order.  total, if
    given, is the sum of the columns before these (a prefix that another
    subset summed first) and is not written.  With no total the first
    column's squares land in out; every later column's land in scratch and
    are added into out, so one sum holds two buffers at any number of
    columns.  Returns the sum: out, or a held array when it is the sum.
    """
    for c in columns:
        sq = square(c, out if total is None else scratch)
        total = sq if total is None else np.add(total, sq, out=out)
    return total


def _pivot_windows(pts: np.ndarray, pivot: int, eps_sq: float) -> tuple[np.ndarray, np.ndarray]:
    """Sort on one column and take its rank windows at eps.

    Returns order (point order[p] in sorted position p, a stable sort) and
    width[p], the number of later sorted positions within eps of p on the
    pivot column by the exact test of _rank_windows.
    """
    order = np.argsort(pts[:, pivot], kind="stable")
    _, hi = _rank_windows(pts[order, pivot], eps_sq)
    return order, hi - np.arange(1, order.shape[0] + 1)


def _window_pairs(pts: np.ndarray, order: np.ndarray, width: np.ndarray, columns, n_buffers: int):
    """The pivot's rank-window pairs in bounded blocks, with reused buffers.

    order and width come from _pivot_windows.  Yields (start, square, bufs,
    hits) per block: entry [r, s] of a block pairs the sorted positions
    p = start+r and q = p+s+1 (points order[p] and order[q]), for s below
    the widest window of the block's rows.  square(c, out) writes
    fl(fl(x[q] - x[p])^2) on column c (one of columns) into out and returns
    it.  bufs are n_buffers float arrays and hits one bool array of the
    block's shape, views of buffers allocated once per call, so everything
    a block yields is to be read before the next block.

    The sorted columns are padded with NaN past the last position, so every
    sum of squares reads NaN where q would pass the end, and NaN <= eps^2
    is false.  An entry with q past p's window but before the end is a real
    pair, and its pivot square alone exceeds eps^2.  So on any set of
    columns that holds the pivot, sum <= eps^2 holds exactly for the pairs
    within eps, all of which are in the windows, with no margin and no
    mask: a rounded sum of nonnegative floats is never below one of its
    terms, and the pivot's term is the exact 1-D test of the windows.  A
    minimum over a block must skip the NaN (np.fmin); the real pairs past a
    window cannot lower it below the minimum over all pairs.  Each block
    holds at most 8 _BLOCK / n_buffers entries, as a power of two up to
    2 _BLOCK (at least one), unless one row's window alone is wider.
    """
    n = order.shape[0]
    w_max = int(width.max())
    if w_max == 0:
        return
    # windows[c][p, s] = cols[c][p + s], NaN past the end
    pad = np.full(w_max, np.nan)
    cols = {c: np.concatenate((pts[order, c], pad)) for c in columns}
    windows = {c: sliding_window_view(col, w_max + 1) for c, col in cols.items()}
    share = max(1, 8 * _BLOCK // n_buffers)
    block = min(2 * _BLOCK, 1 << (share.bit_length() - 1))
    size = min(n * w_max, max(block, w_max))
    flat = [np.empty(size) for _ in range(n_buffers)]
    flat_hits = np.empty(size, dtype=bool)
    start = 0
    while start < n:
        stop = min(n, start + max(1, block // max(1, int(width[start]))))
        w = int(width[start:stop].max())
        stop = min(stop, start + max(1, block // max(1, w)))
        w = int(width[start:stop].max())
        if w:
            rows = slice(start, stop)

            def square(c, out, rows=rows, w=w):
                np.subtract(windows[c][rows, 1 : w + 1], cols[c][rows, None], out=out)
                return np.multiply(out, out, out=out)

            shape = (stop - start, w)
            m = shape[0] * w
            yield start, square, [b[:m].reshape(shape) for b in flat], flat_hits[:m].reshape(shape)
        start = stop


def _window_scan(pts: np.ndarray, eps_sq: float, hits_sq: float | None = None, take=None):
    """One column-0 window pass over an (n, d) array at radius max(eps_sq, hits_sq).

    Returns the pairs within eps and the smallest squared distance over the
    window entries (actual pairs, holding every pair within the radius, so
    the global minimum whenever it is at most the radius).  Given hits_sq,
    the pairs within it go to take(i, j) as point index arrays, at least
    _HITS at a time (the rest at the end), with no fixed order or
    orientation; nothing else is held, so memory is O(n d + _HITS).
    """
    count = 0
    min_sq = math.inf
    held, size = [], 0
    order, width = _pivot_windows(pts, 0, max(eps_sq, hits_sq or 0.0))
    columns = range(pts.shape[1])
    for start, square, (out, scratch), hits in _window_pairs(pts, order, width, columns, 2):
        sq = _sq_sum(square, columns, out, scratch)
        count += int(np.count_nonzero(np.less_equal(sq, eps_sq, out=hits)))
        min_sq = min(min_sq, float(np.fmin.reduce(sq, axis=None)))
        if hits_sq is not None:
            r, s = np.nonzero(np.less_equal(sq, hits_sq, out=hits))
            held.append((order[start + r], order[start + r + s + 1]))
            size += r.shape[0]
        if size >= _HITS:
            take(*map(np.concatenate, zip(*held)))
            held, size = [], 0
    if held:
        take(*map(np.concatenate, zip(*held)))
    return count, min_sq


def _prefix_plan(subsets: list[tuple[int, ...]]):
    """How count_subset_pairs sums distinct subsets of two or more columns,
    given in lexicographic order of their own column order, sharing prefixes.

    Subsets that share a prefix are adjacent in that order, so each one
    starts from the longest prefix it shares with the one before, and only
    the prefix sums that a later subset starts from are kept.  Returns
    (chains, shared, n_slots).  A chain (k, base, columns, out) adds
    columns to the sum held in slot base (None: to nothing) with _sq_sum
    and holds the result in slot out; k is the subset it completes, or None
    for a kept prefix on the way.  shared lists the columns that more than
    one chain adds, whose squares a block computes once.  n_slots is the
    most slots held at once: the kept prefixes plus one running sum.
    """
    starts = [0] + [next((i for i, (a, b) in enumerate(zip(s, t)) if a != b), min(len(s), len(t)))
                    for s, t in zip(subsets, subsets[1:])]
    chains = []
    kept: list[tuple[int, int]] = []  # (prefix length, slot), shortest first
    free: list[int] = []
    n_slots = 0
    for k, s in enumerate(subsets):
        start = starts[k]
        while kept and kept[-1][0] > start:
            free.append(kept.pop()[1])
        # the later subsets start from the running minima of the later starts
        cuts = []
        for t in starts[k + 1 :]:
            if t <= start:
                break
            if not cuts or t < cuts[-1]:
                cuts.append(t)
        base = kept[-1][1] if start else None
        for end in sorted(set(cuts) | {len(s)}):
            if free:
                out = free.pop()
            else:
                out, n_slots = n_slots, n_slots + 1
            chains.append((k if end == len(s) else None, base, s[start:end], out))
            if end in cuts:
                kept.append((end, out))
            else:
                free.append(out)
            base, start = out, end
    uses = Counter(c for _, _, columns, _ in chains for c in columns)
    return chains, [c for c, u in uses.items() if u > 1], n_slots


def _count_group(pts: np.ndarray, order: np.ndarray, width: np.ndarray, subsets, eps_sq: float) -> list[int]:
    """Pairs within eps on each of a pivot group's distinct subsets of two or
    more columns, in lexicographic order, from the pivot's window blocks."""
    chains, shared, n_slots = _prefix_plan(subsets)
    counts = [0] * len(subsets)
    columns = sorted({c for s in subsets for c in s})
    blocks = _window_pairs(pts, order, width, columns, n_slots + len(shared) + 1)
    for _, square, bufs, hits in blocks:
        held = {c: square(c, buf) for c, buf in zip(shared, bufs[n_slots:])}

        def squares(c, buf):
            return held[c] if c in held else square(c, buf)

        sums = [None] * n_slots
        for k, base, cols, out in chains:
            sums[out] = _sq_sum(squares, cols, bufs[out], bufs[-1], None if base is None else sums[base])
            if k is not None:
                counts[k] += int(np.count_nonzero(np.less_equal(sums[out], eps_sq, out=hits)))
    return counts


@np.errstate(over="ignore")
def count_subset_pairs(pts: np.ndarray, subsets, eps: float) -> list[int]:
    """Pairs within eps on each column subset of an (n, d) array, one count per subset.

    Each count equals count_close_pairs(SeriesSample(pts[:, s]), eps)
    .n_pairs_close bit for bit, with no minimum distance.  The subsets are
    grouped by their smallest column, the pivot: one sort and one window
    pass on the pivot serve the group.  Per block, the columns that several
    sums add have their squared differences computed once, and each subset
    adds its own columns' squares in its own order (_sq_sum), starting from
    the longest prefix it shares with the subset before it in lexicographic
    order (_prefix_plan), so a shared prefix is summed once.  This is exact
    with no margin, as every window pass is: fl(s + t) >= max(s, t) for
    s, t >= 0, so a pair within eps on a subset is within eps on its pivot.
    A subset of the pivot alone is counted from the windows.  Memory: a
    group holds one block buffer per shared column and per kept prefix, a
    running sum and a scratch column; one full-width subset holds two.
    """
    eps = _checked_eps(eps)
    n, d = pts.shape
    if n < 2:
        raise ValueError("pair counting needs at least two observations")
    subset_list = [tuple(checked_columns(s, d)) for s in subsets]
    eps_sq = eps * eps
    groups: dict[int, set[tuple[int, ...]]] = {}
    for attrs in subset_list:
        groups.setdefault(min(attrs), set()).add(attrs)
    found: dict[tuple[int, ...], int] = {}
    for pivot, group in sorted(groups.items()):
        order, width = _pivot_windows(pts, pivot, eps_sq)
        if (pivot,) in group:
            found[(pivot,)] = int(width.sum())
        summed = sorted(s for s in group if len(s) > 1)
        if summed:
            found.update(zip(summed, _count_group(pts, order, width, summed, eps_sq)))
    return [found[attrs] for attrs in subset_list]


def _sorted_min_sq(v: np.ndarray):
    """Squared minimum distance of values sorted along the last axis: the
    smallest adjacent gap, squared, per row."""
    gap = np.diff(v, axis=-1).min(axis=-1)
    return gap * gap


def _min_sq_distance(pts: np.ndarray) -> float:
    """Exact squared minimum inter-point distance.

    In 1-D it is the smallest gap of the sorted values.  Otherwise rows
    adjacent in the column-0 sort give an upper bound u (they are actual
    pairs, and close in column 0 whatever the input order), and the minimal
    pair is among the column-0 window pairs at radius u.
    """
    n, d = pts.shape
    if n < 2:
        raise ValueError("minimum distance needs at least two points")
    if d == 1:
        return float(_sorted_min_sq(np.sort(pts[:, 0])))
    by_col0 = pts[np.argsort(pts[:, 0], kind="stable")]
    gaps = by_col0[1:] - by_col0[:-1]
    gaps *= gaps
    u_sq = float(_sq_sum(lambda c, _: gaps[:, c], range(d), gaps[:, 0], None).min())
    return _window_scan(pts, u_sq)[1]


@np.errstate(over="ignore")
def _exact_min_sq(pts: np.ndarray, min_sq: float, radius_sq: float) -> float:
    """The exact squared minimum distance of an (n, d) sample, from the
    minimum _counts gave for it at pass radius radius_sq: a 1-D minimum
    (_counts_1d) is always exact, and a d >= 2 window minimum is exact
    within the radius and is recomputed (_min_sq_distance) above it."""
    if pts.shape[1] == 1 or min_sq <= radius_sq:
        return min_sq
    return _min_sq_distance(pts)


@np.errstate(over="ignore")
def _rank_windows(v: np.ndarray, eps_sq: float) -> tuple[np.ndarray, np.ndarray]:
    """Windows [lo[p], hi[p]) of the sorted positions q within eps of v[p].

    v is one sorted sample, or a (k, n) stack of independent samples each
    sorted along its row; positions are flat indices into v.ravel(), so
    they are row positions when v is 1-D.  q is in the window iff
    fl(fl(v[q] - v[p])^2) <= eps_sq, the test every other path applies, p
    itself included.  Rounding is monotone, so the test is monotone in q
    on each side of p, and lo[p] is the one position of p's row where it
    holds and fails one step to the left (or lo[p] is the row's start).  A
    searchsorted seed at v - sqrt(eps_sq), one per row, counts only where
    the exact test confirms it so; the positions where it is off (rounding
    at the boundary, squares that underflow or overflow) are bisected
    together on the test itself, each between its row's start and itself.
    lo is nondecreasing along the flat positions and every lo stays in its
    own row, so by symmetry q > p lies in p's window iff lo[q] <= p, and
    hi[p] counts the q with lo[q] <= p.  A gap or square that overflows is
    inf, and the test on it is exact as it stands.
    """
    n = v.shape[-1]
    flat = v.ravel()
    rows = flat.reshape(-1, n)
    start = np.arange(0, flat.shape[0], n)[:, None]

    def close(vp, q):
        gap = vp - flat[q]
        return gap * gap <= eps_sq

    radius = math.sqrt(eps_sq)
    lo = np.empty(rows.shape, dtype=np.int64)
    for row, out, s in zip(rows, lo, start[:, 0]):
        np.add(np.searchsorted(row, row - radius), s, out=out)
    miss = np.flatnonzero(~close(rows, lo) | ((lo > start) & close(rows, np.maximum(lo - 1, start))))
    # invariant: position b is within eps of p, and no position of its row below a is
    vp = flat[miss]
    a = miss - miss % n
    b = miss
    while np.any(a < b):
        mid = (a + b) // 2
        hit = close(vp, mid)
        b = np.where(hit, mid, b)
        a = np.where(hit, a, mid + 1)
    lo = lo.ravel()
    lo[miss] = a
    return lo.reshape(v.shape), np.cumsum(np.bincount(lo, minlength=flat.shape[0])).reshape(v.shape)


def _checked_eps(eps: float) -> float:
    eps = float(eps)
    if not (eps > 0.0) or not math.isfinite(eps):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    return eps


def _exact_sum(terms: np.ndarray, bound: int):
    """Exact integer sums along the last axis of int64 terms with |term| <= bound.

    When bound * length < 2^63 no partial sum can overflow and the sums are
    int64 (an np.int64 for 1-D terms).  Otherwise chunks are short enough
    that no int64 partial sum can overflow, and the chunk sums add as
    Python ints, in an object array of shape terms.shape[:-1] (0-d for 1-D
    terms).
    """
    if bound * terms.shape[-1] < 2**63:
        return terms.sum(axis=-1)
    step = max(1, (2**63 - 1) // max(bound, 1))
    total = np.zeros(terms.shape[:-1], dtype=object)
    for s in range(0, terms.shape[-1], step):
        total += terms[..., s : s + step].sum(axis=-1)
    return total


def _lagged_triples(deg: np.ndarray, h: int, adj: np.ndarray | None, overlap, terms: np.ndarray):
    """Triples (i, j, k), i <= n-h-2, j in N(i), k in N(i+h), j != k, both
    outside {i, i+h}: sum_i (deg_i - adj_i)(deg_{i+h} - adj_i) - overlap.

    deg_i = |N(i)| over all n indices, adj_i = [i+h in N(i)] for the anchors
    and overlap = sum_i |N(i) & N(i+h)|.  At lag 0 the two anchors coincide
    and the count is sum_i deg_i (deg_i - 1); adj and overlap are not read.
    A 1-D deg gives an int.  A (k, n) deg holds k independent samples, with
    one overlap per row, and gives a list of k ints.

    The terms are one pass over the flat degrees, pairing flat positions i
    and i+h, written into terms (int64, at least deg.size values): adj
    holds adj_i at flat position i for at least the first deg.size - h
    positions, and is overwritten.  Only the anchors i <= n-h-2 of each row
    are summed, and none of their pairs crosses a row, so the pairs that do
    (and the adj entries there) are never read.
    """
    n = deg.shape[-1]
    m = n - h - 1
    flat = deg.ravel()
    size = flat.shape[0]
    if h == 0:
        np.subtract(flat, 1, out=terms[:size])
        terms[:size] *= flat
        return _exact_sum(terms[:size].reshape(deg.shape)[..., :m], n * n).tolist()
    head = size - h
    np.subtract(flat[h:], adj[:head], out=terms[:head])
    np.subtract(flat[:head], adj[:head], out=adj[:head])
    terms[:head] *= adj[:head]
    total = _exact_sum(terms[:size].reshape(deg.shape)[..., :m], n * n)
    total -= overlap
    return total.tolist()


@np.errstate(over="ignore")
def min_interpoint_distance(sample: SeriesSample) -> float:
    """Exact minimum pairwise distance Y_n = min_{i<j} d(X_i, X_j)."""
    return math.sqrt(_min_sq_distance(sample.points))


@np.errstate(over="ignore")
def count_close_pairs(sample: SeriesSample, eps: float) -> PairCountResult:
    """Count pairs i < j with d(X_i, X_j) <= eps; also report exact Y_n."""
    eps = _checked_eps(eps)
    n = sample.n
    if n < 2:
        raise ValueError("pair counting needs at least two observations")
    count, min_sq, _ = _counts(sample.points[None], eps, eps, ())[0]
    min_sq = _exact_min_sq(sample.points, min_sq, eps * eps)
    return PairCountResult(n_pairs_close=count, min_distance=math.sqrt(min_sq), n=n, eps=eps)


@np.errstate(over="ignore")
def close_pairs(sample: SeriesSample, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """All pairs (i, j), i < j, with d(X_i, X_j) <= eps, as index arrays."""
    eps = _checked_eps(eps)
    if sample.n < 2:
        raise ValueError("pair counting needs at least two observations")
    parts = [(np.empty(0, dtype=np.int64),) * 2]
    _window_scan(sample.points, eps * eps, eps * eps, lambda i, j: parts.append((i, j)))
    i_arr, j_arr = map(np.concatenate, zip(*parts))
    return np.minimum(i_arr, j_arr), np.maximum(i_arr, j_arr)


def _probe_hits(pts: np.ndarray, cols: np.ndarray, eps0_sq: float, lags, deg: np.ndarray,
                overlap: list, i: np.ndarray, j: np.ndarray) -> None:
    """Add hits (i[t], j[t]) within eps0 of an (n, d) sample pts to its
    degrees deg and, per lag h = lags[k], to overlap[k]; cols (d, n) holds
    its columns with NaN at n-1.  As a is in N(c) iff c is in N(a),
    sum_{a <= n-h-2} |N(a) & N(a+h)| counts the directed hits (c, a) whose c
    is within eps0 of a+h <= n-2, a+h != c.  Each probes that by the test
    that defines a hit, fl(x_{a+h} - x_c) squared (as fl(x_c - x_{a+h}) is)
    and added column by column from the left.  A probe past n-2 reads NaN
    and fails; a+h == c passes once per adj_a = 1, which _lag_triples takes off.
    """
    c = np.concatenate((i, j))
    a = np.concatenate((j, i))
    deg += np.bincount(c, minlength=deg.shape[0])
    x_c = np.take(pts.T, c, axis=1)
    out, scratch = np.empty(c.shape[0]), np.empty(c.shape[0])
    for k, h in enumerate(lags):
        if h:
            def square(col, buf, h=h):
                np.take(cols[col, h:], a, out=buf, mode="clip")
                return np.square(np.subtract(buf, x_c[col], out=buf), out=buf)

            overlap[k] += int(np.count_nonzero(_sq_sum(square, range(len(cols)), out, scratch) <= eps0_sq))


def _lag_triples(cols: np.ndarray, eps0_sq: float, lags, deg: np.ndarray, overlap: list) -> list[int]:
    """Lagged-triple counts per lag from the degrees and probe counts of
    _probe_hits; adj_i, whether x_{i+h} is within eps0 of x_i, takes the
    same test on the same cols, whose NaN at n-1 no anchor reads."""
    d, n = cols.shape
    adj = np.empty(n, dtype=np.int64)
    terms = np.empty(n, dtype=np.int64)
    counts = []
    for h, probed in zip(lags, overlap):
        if h:
            sq = _sq_sum(lambda c, buf: np.square(np.subtract(cols[c, :-h], cols[c, h:], out=buf), out=buf),
                         range(d), np.empty(n - h), np.empty(n - h))
            np.less_equal(sq, eps0_sq, out=adj[: n - h])
            probed -= int(adj[: n - h].sum())
        counts.append(_lagged_triples(deg, h, adj, probed, terms))
    return counts


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
    eps0 = _checked_eps(eps0)
    return _counts(sample.points[None], eps0, eps0, (h,))[0][2][0]


@np.errstate(over="ignore")
def _counts(x: np.ndarray, eps: float, eps0: float, lags) -> list[tuple[int, float, list[int]]]:
    """Per sample of a (k, n, d) stack: the pairs within eps, a squared
    minimum distance and the lagged-triple counts at eps0, one per lag.

    The caller checks eps, eps0, n >= 2 and 0 <= h <= n - 4.  A 1-D stack
    is counted by _counts_1d, whose minimum is exact.  A d >= 2 sample
    takes one window pass (_window_scan) at the larger radius, or at eps
    with no lags.  With lags, the pass hands its hits within eps0 to the
    probes of every lag (_probe_hits) and keeps none, so memory is O(n d)
    plus the hit buffer.  Its minimum is exact when it is within the pass
    radius; a caller that reports it completes it with _exact_min_sq,
    which a study, not reading it, never pays.
    """
    n, d = x.shape[1:]
    if d == 1:
        return _counts_1d(x[:, :, 0], eps, eps0, lags)
    out = []
    for pts in x:
        cols = pts.T.copy()
        cols[:, -1] = np.nan
        deg = np.zeros(n, dtype=np.int64)
        overlap = [0] * len(lags)
        probe = partial(_probe_hits, pts, cols, eps0 * eps0, lags, deg, overlap)
        count, min_sq = _window_scan(pts, eps * eps, eps0 * eps0 if lags else None, probe)
        out.append((count, min_sq, _lag_triples(cols, eps0 * eps0, lags, deg, overlap)))
    return out


@np.errstate(over="ignore")
def _counts_1d(x: np.ndarray, eps: float, eps0: float, lags) -> list[tuple[int, float, list[int]]]:
    """Per row of a (k, n) stack of independent 1-D samples: the pairs within
    eps, the squared minimum distance and the lagged-triple counts at eps0,
    one per lag, all from one sort along the rows.

    A single sample is the stack of one row.  The caller checks eps, eps0,
    n >= 2 and 0 <= h <= n - 4.  The windows at eps0 give the triples, and
    the pairs too when the radii square alike; otherwise a second window
    pass on the same sorted values gives the pairs.  A window depends only
    on the value, so the order of tied values in the sort changes no count.
    With W(i) the window of i (i itself included), deg_i = |W(i)| - 1,
    adj = [X_i ~ X_{i+h}], and the neighbours the two anchors share outside
    {i, i+h} are |W(i) & W(i+h)| - 2 adj.  Each lag is O(k n): its
    elementwise steps are 1-D passes over the flat stack, pairing flat
    positions i and i+h (on a stack, numpy pays one inner loop per row for
    a 2-D slice), written into three buffers of k*n values allocated once
    per call.  Then only the anchors i <= n-h-2 of each row are summed (a
    (k, n) view's [:, :n-h-1]), and no pair of those crosses a row.  The
    sort's arrays are dropped before the buffers are taken, so the lags
    reuse their memory.
    """
    k, n = x.shape
    # flat index of every sorted position's value in x.ravel()
    order = np.argsort(x, axis=1)
    order += np.arange(0, k * n, n)[:, None]
    xf = x.ravel()
    v = xf[order]
    eps_sq, eps0_sq = eps * eps, eps0 * eps0
    lo_s, hi_s = _rank_windows(v, eps0_sq)
    lo_pairs = lo_s if eps_sq == eps0_sq else _rank_windows(v, eps_sq)[0]
    # sum over each row of (p - lo[p]) in row positions
    n_close = n * (n - 1) // 2 - (lo_pairs.sum(axis=1) - n * np.arange(0, k * n, n))
    min_sq = _sorted_min_sq(v)
    del v, lo_pairs
    size = k * n
    lo = np.empty(size, dtype=np.int64)
    hi = np.empty(size, dtype=np.int64)
    lo[order] = lo_s
    hi[order] = hi_s
    del order, lo_s, hi_s
    deg = (hi - lo).reshape(k, n)
    deg -= 1
    # the lag buffers, each holding two values in turn: the squared gaps are
    # read before the window edges are written over them, and the shared
    # counts before the triple terms are
    sq = np.empty(size)
    edge = sq.view(np.int64)
    adj = np.empty(size, dtype=np.int64)
    shared = np.empty(size, dtype=np.int64)
    counts = []
    for h in lags:
        if h == 0:
            counts.append(_lagged_triples(deg, 0, None, None, shared))
            continue
        m = n - h - 1
        head = size - h
        np.subtract(xf[:head], xf[h:], out=sq[:head])
        np.multiply(sq[:head], sq[:head], out=sq[:head])
        np.less_equal(sq[:head], eps0_sq, out=adj[:head])
        np.minimum(hi[:head], hi[h:], out=shared[:head])
        np.maximum(lo[:head], lo[h:], out=edge[:head])
        np.subtract(shared[:head], edge[:head], out=shared[:head])
        np.maximum(shared[:head], 0, out=shared[:head])
        overlap = shared.reshape(k, n)[:, :m].sum(axis=1)
        overlap -= 2 * adj.reshape(k, n)[:, :m].sum(axis=1)
        counts.append(_lagged_triples(deg, h, adj, overlap, shared))
    return [
        (c, sq_min, [lag[r] for lag in counts])
        for r, (c, sq_min) in enumerate(zip(n_close.tolist(), min_sq.tolist()))
    ]

