import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import (
    bisect_rank_windows,
    brute_close_pairs,
    brute_min_distance,
    brute_pair_count,
    brute_uh_count,
)

from epsentropy import paircount
from epsentropy.core import RngStream, SeriesSample, ball_volume
from epsentropy.estimators import EstimateConfig, estimate_report, triple_normalizer
from epsentropy.montecarlo import SimulationPlan, run_residual_study
from epsentropy.paircount import (
    close_pairs,
    count_close_pairs,
    count_subset_pairs,
    count_uh_triples,
    min_interpoint_distance,
)
from epsentropy.processes import iid_uniform_process


# points 1 and 2 are exactly eps = 0.3 apart in floating point, but an
# eps-side grid keyed by floor((x - x_min) / eps) puts them two cells apart;
# the pair is then the only witness of the lag-1 anchor (2, 3)
_BOUNDARY_6 = [-10.557064909613523, -1.2570649096135238, -0.9570649096135239, 5.0, 5.0, 9.0]
# the same points on the x axis of the plane, where the d >= 2 path counts them
_BOUNDARY_6_2D = [(x, 0.0) for x in _BOUNDARY_6]
# a d = 4 sample whose minimum distance moves by one ulp when the squares are
# not added left to right
_ULP_4D = [
    [0.7666666666666664, 0.43333333333333324, 0.10000000000000002, -0.6666666666666669],
    [1.1000000000000005, 1.0999999999999999, 0.7666666666666665, -0.33333333333333337],
    [0.7666666666666666, 0.4333333333333333, -0.5666666666666667, 0.6666666666666665],
    [-0.5666666666666665, 0.43333333333333346, -0.5666666666666669, -1.0000000000000004],
]


def _sample(seed, n, d, scale=1.0):
    pts = RngStream(seed, 0).generator().normal(size=(n, d)) * scale
    return SeriesSample(pts)


# ---------------------------------------------------------------------------
# pair counts vs brute force
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [2, 17, 120, 400])
def test_count_matches_brute(d, n):
    s = _sample(100 + 10 * d + n, n, d)
    for eps in (0.01, 0.1, 0.5, 2.0):
        res = count_close_pairs(s, eps)
        assert res.n_pairs_close == brute_pair_count(s.points, eps)
        assert res.n == n and res.eps == eps


def test_count_high_dim_scan_path():
    # d = 15: fourteen coordinates only filter the column-0 windows
    s = _sample(7, 80, 15)
    assert count_close_pairs(s, 4.0).n_pairs_close == brute_pair_count(s.points, 4.0)


def test_count_clustered_data():
    gen = RngStream(8, 0).generator()
    pts = np.concatenate([gen.normal(size=(150, 2)) * 0.01, gen.normal(size=(150, 2)) + 8.0])
    s = SeriesSample(pts)
    for eps in (0.005, 0.05, 1.0):
        assert count_close_pairs(s, eps).n_pairs_close == brute_pair_count(pts, eps)


def test_close_pairs_sets_match_brute():
    s = _sample(21, 90, 2)
    i_arr, j_arr = close_pairs(s, 0.4)
    got = set(zip(i_arr.tolist(), j_arr.tolist()))
    assert got == brute_close_pairs(s.points, 0.4)
    assert np.all(i_arr < j_arr)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_small_blocks_match_brute(monkeypatch, block):
    # blocks of a few window entries split rows and windows at every offset
    monkeypatch.setattr(paircount, "_BLOCK", block)
    for d in (1, 2, 3):
        s = _sample(40 + d, 60, d)
        res = count_close_pairs(s, 0.8)
        assert res.n_pairs_close == brute_pair_count(s.points, 0.8)
        assert res.min_distance == brute_min_distance(s.points)
        assert min_interpoint_distance(s) == brute_min_distance(s.points)
        i_arr, j_arr = close_pairs(s, 0.8)
        pairs = set(zip(i_arr.tolist(), j_arr.tolist()))
        assert len(pairs) == i_arr.size
        assert pairs == brute_close_pairs(s.points, 0.8)


def test_boundary_is_inclusive():
    # distances constructed to be exactly representable
    s1 = SeriesSample([[0.0], [0.25]])
    assert count_close_pairs(s1, 0.25).n_pairs_close == 1
    assert count_close_pairs(s1, float(np.nextafter(0.25, 0.0))).n_pairs_close == 0

    s2 = SeriesSample([[0.0, 0.0], [3.0, 4.0]])
    assert count_close_pairs(s2, 5.0).n_pairs_close == 1
    assert count_close_pairs(s2, float(np.nextafter(5.0, 0.0))).n_pairs_close == 0


def test_boundary_pair_exactly_eps_apart_1d():
    s = SeriesSample(_BOUNDARY_6[:3])
    assert count_close_pairs(s, 0.3).n_pairs_close == 1
    i_arr, j_arr = close_pairs(s, 0.3)
    assert set(zip(i_arr.tolist(), j_arr.tolist())) == {(1, 2)}


def test_count_invariances():
    s = _sample(31, 200, 2)
    eps = 0.3
    base = count_close_pairs(s, eps).n_pairs_close
    perm = RngStream(32, 0).generator().permutation(200)
    assert count_close_pairs(SeriesSample(s.points[perm]), eps).n_pairs_close == base
    assert count_close_pairs(SeriesSample(-s.points), eps).n_pairs_close == base


def test_count_far_from_origin():
    # only coordinate differences enter the test, so a huge common offset
    # must not matter
    s = _sample(33, 300, 2)
    eps = 0.25
    base = count_close_pairs(s, eps).n_pairs_close
    shifted = SeriesSample(s.points + 2.0**33)
    assert count_close_pairs(shifted, eps).n_pairs_close == base


@pytest.mark.parametrize("eps", [0.0, -0.5, math.inf])
def test_count_rejects_bad_eps(eps):
    with pytest.raises(ValueError):
        count_close_pairs(_sample(1, 5, 1), eps)


def test_count_needs_two_points():
    with pytest.raises(ValueError):
        count_close_pairs(SeriesSample([[1.0]]), 0.1)


# ---------------------------------------------------------------------------
# minimum inter-point distance
# ---------------------------------------------------------------------------

def test_min_distance_hand_values():
    s = SeriesSample([[0.0], [10.0], [10.25], [20.0]])
    assert min_interpoint_distance(s) == 0.25
    dup = SeriesSample([[1.0, 2.0], [5.0, 5.0], [1.0, 2.0]])
    assert min_interpoint_distance(dup) == 0.0


@pytest.mark.parametrize("n,d", [(50, 1), (400, 1), (400, 2), (700, 3), (120, 14)])
def test_min_distance_matches_brute(n, d):
    s = _sample(500 + n + d, n, d)
    assert min_interpoint_distance(s) == pytest.approx(brute_min_distance(s.points), rel=0, abs=0)


def test_min_distance_grid_path_with_tiny_gap():
    # one near-duplicate pair makes the minimum-distance sweep radius tiny
    gen = RngStream(44, 0).generator()
    pts = gen.random((600, 2))
    pts[417] = pts[93] + 1e-9
    s = SeriesSample(pts)
    assert min_interpoint_distance(s) == pytest.approx(brute_min_distance(pts), rel=0, abs=0)


def test_min_distance_sums_columns_left_to_right():
    # the squares of v sum to 0.2699999995948747 in einsum's order and to
    # 0.26999999959487464 left to right, as the brute helpers add them
    v = [0.2999999994644895, -0.30000000016298145, 0.29999999969732016]
    pts = np.array([[0.0, 0.0, 0.0], v, [5.0, 5.0, 5.0], [9.0, 0.0, 0.0]])
    s = SeriesSample(pts)
    assert brute_min_distance(pts) == 0.5196152418808311
    assert count_close_pairs(s, 0.52).min_distance == brute_min_distance(pts)
    assert min_interpoint_distance(s) == brute_min_distance(pts)


def test_min_distance_alternating_clusters(monkeypatch):
    # consecutive input rows sit in different clusters 14 apart; the sweep
    # radius must come from neighbours in the column-0 sort, or the sweep
    # visits nearly every pair
    pts = RngStream(73, 0).generator().normal(scale=0.01, size=(400, 2))
    pts[1::2, 0] += 14.0
    radii = []
    scan = paircount._window_scan
    monkeypatch.setattr(
        paircount, "_window_scan",
        lambda p, eps_sq, pairs_sq=None: radii.append(eps_sq) or scan(p, eps_sq, pairs_sq),
    )
    assert min_interpoint_distance(SeriesSample(pts)) == brute_min_distance(pts)
    assert radii and max(radii) < 0.1**2


def test_peak_memory_is_bounded():
    # every pair of the 2-D sample is within eps, and the 8-D minimum needs
    # a wide sweep; neither may hold the candidate pairs all at once, and a
    # 2-D report with lags, every pair within eps0, may not hold its 2e6 hits
    wide = _sample(71, 3000, 2)
    high = _sample(72, 1500, 8)
    lagged = _sample(79, 2000, 2)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert count_close_pairs(wide, 100.0).n_pairs_close == 3000 * 2999 // 2
        count_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        min_interpoint_distance(high)
        min_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        rep = estimate_report(lagged, EstimateConfig(eps=0.5, eps0=100.0, r=2))
        report_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count_peak < 32 * 2**20
    assert min_peak < 32 * 2**20
    assert report_peak < 32 * 2**20
    assert rep.u3_hat == pytest.approx([1.0 / ball_volume(2, 100.0) ** 2] * 3)


def test_min_distance_reported_even_without_close_pairs():
    pts = np.array([[0.0], [7.0], [7.5], [30.0]])
    res = count_close_pairs(SeriesSample(pts), 0.1)
    assert res.n_pairs_close == 0
    assert res.min_distance == 0.5


@pytest.mark.parametrize("eps,eps0", [(0.1, None), (0.1, 0.4), (0.4, 0.1)])
def test_1d_minimum_without_close_pairs_is_not_recomputed(monkeypatch, eps, eps0):
    # the sort of _counts_1d gives the exact minimum whether or not a pair
    # is within the radius, so the sample is never sorted a second time
    pts = np.array([[0.0], [7.0], [30.0], [7.5], [-3.0], [12.25]])
    monkeypatch.setattr(paircount, "_min_sq_distance", lambda _: pytest.fail("sorted again"))
    s = SeriesSample(pts)
    res = count_close_pairs(s, eps)
    assert (res.n_pairs_close, res.min_distance) == (0, brute_min_distance(pts))
    rep = estimate_report(s, EstimateConfig(eps=eps, eps0=eps0, r=2))
    assert (rep.n_pairs_close, rep.min_distance) == (0, brute_min_distance(pts))
    assert rep.u3_hat == (0.0, 0.0, 0.0)


def test_min_distance_needs_two_points():
    with pytest.raises(ValueError):
        min_interpoint_distance(SeriesSample([[0.0]]))


# ---------------------------------------------------------------------------
# lagged triple counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("h", [0, 1, 2, 3])
def test_uh_count_matches_enumeration_random(h):
    for seed, n, d, eps0 in [(60, 12, 1, 0.5), (61, 25, 2, 0.8), (62, 30, 1, 0.2)]:
        s = _sample(seed, n, d)
        assert count_uh_triples(s, h, eps0) == brute_uh_count(s.points, h, eps0)


@pytest.mark.parametrize("h", [0, 1, 2])
def test_uh_count_matches_enumeration_clustered(h):
    # many neighbours shared between anchors
    gen = RngStream(63, 0).generator()
    pts = np.round(gen.random((24, 1)) * 4) / 4
    s = SeriesSample(pts)
    assert count_uh_triples(s, h, 0.3) == brute_uh_count(pts, h, 0.3)


@pytest.mark.parametrize("h,n", [(0, 8), (1, 8), (2, 9), (4, 11)])
def test_uh_count_saturates_at_normalizer(h, n):
    # all points within eps0 of each other: every admissible triple counts
    for d in (1, 2, 3):
        pts = np.repeat(np.linspace(0.0, 0.001, n)[:, None], d, axis=1)
        assert count_uh_triples(SeriesSample(pts), h, 1.0) == triple_normalizer(n, h)


def test_uh_count_zero_when_isolated():
    for d in (1, 2, 3):
        pts = np.repeat(np.arange(10.0)[:, None] * 100.0, d, axis=1)
        assert count_uh_triples(SeriesSample(pts), 1, 1.0) == 0


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("h", [4, 5, 6])
def test_uh_count_matches_enumeration_dense_in_index(d, h):
    # a slow random walk: each row's neighbours are its index neighbours, so
    # columns c and c+h of one sorted key row are few slots apart
    steps = RngStream(65, d).generator().normal(size=(22, d)) * 0.1
    s = SeriesSample(np.cumsum(steps, axis=0))
    assert count_uh_triples(s, h, 0.35) == brute_uh_count(s.points, h, 0.35)


def test_uh_count_ignores_key_gaps_across_rows():
    pts = [(0.0, 0.0), (10.0, 0.0), (0.1, 0.0), (20.0, 0.0), (30.0, 0.0), (10.1, 0.0)]
    s = SeriesSample(pts)
    for h in range(3):
        assert count_uh_triples(s, h, 0.2) == brute_uh_count(pts, h, 0.2)


def test_uh_count_validation():
    s = _sample(64, 10, 1)
    with pytest.raises(ValueError):
        count_uh_triples(s, -1, 0.5)
    with pytest.raises(ValueError):
        count_uh_triples(s, 7, 0.5)  # needs n >= h + 4


def test_exact_sum_past_int64():
    # chunked so no int64 partial sum wraps, as for n >= 2^21 anchors
    from epsentropy.paircount import _exact_sum

    terms = np.full(5, 2**62, dtype=np.int64)
    assert _exact_sum(terms, 2**62) == 5 * 2**62


def test_exact_sum_rows_past_int64():
    # every row near the bound, so each row's sum wraps int64 unless chunked
    from epsentropy.paircount import _exact_sum

    terms = np.array([[2**62] * 5, [-(2**62)] * 5, [2**62, -(2**62)] * 2 + [2**62 - 1]],
                     dtype=np.int64)
    assert _exact_sum(terms, 2**62).tolist() == [5 * 2**62, -5 * 2**62, 2**62 - 1]


# ---------------------------------------------------------------------------
# stacked 1-D counter: every row counts as if alone
# ---------------------------------------------------------------------------

@st.composite
def _stack_1d(draw):
    """(x, eps, eps0, r, h): k rows of n values on a 2^-10 grid, so ties,
    duplicates and gaps of exactly eps all occur; h is a lag in 0..r."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(4, 60))
    span = draw(st.sampled_from([8, 64, 1024]))
    ticks = draw(st.lists(st.integers(-span, span), min_size=k * n, max_size=k * n))
    x = np.array(ticks, dtype=np.float64).reshape(k, n) * 2.0**-10
    eps = draw(st.integers(1, 64)) * 2.0**-10
    eps0 = eps if draw(st.booleans()) else draw(st.integers(1, 64)) * 2.0**-10
    r = draw(st.integers(0, n - 4))
    return x, eps, eps0, r, draw(st.integers(0, r))


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(_stack_1d())
def test_stacked_counts_match_each_row_alone(case):
    x, eps, eps0, r, h = case
    lags = range(r + 1)
    rows = paircount._counts_1d(x, eps, eps0, lags)
    assert len(rows) == x.shape[0]
    for row, (n_close, min_sq, counts) in zip(x, rows):
        assert (n_close, min_sq, counts) == paircount._counts_1d(row[None], eps, eps0, lags)[0]
        col = row[:, None]
        assert n_close == brute_pair_count(col, eps)
        assert math.sqrt(min_sq) == brute_min_distance(col)
        assert len(counts) == r + 1
        assert counts[h] == brute_uh_count(col, h, eps0)


@st.composite
def _seamed_stack(draw):
    """(x, eps, eps0, r): 2-5 rows on a 2^-4 grid, each ending within eps0 of
    where the next row starts, so every flat lag pair that crosses a row
    is close; eps != eps0, ties, and rows as short as n = r + 4."""
    k = draw(st.integers(2, 5))
    r = draw(st.integers(0, 5))
    n = draw(st.sampled_from([r + 4, r + 5, 14]))
    ticks = draw(st.lists(st.integers(-12, 12), min_size=k * n, max_size=k * n))
    x = np.array(ticks, dtype=np.float64).reshape(k, n)
    e, e0 = draw(st.lists(st.integers(1, 6), min_size=2, max_size=2, unique=True))
    seam = draw(st.integers(1, min(r + 1, n)))
    for i in range(k - 1):
        shifts = draw(st.lists(st.integers(-e0, e0), min_size=seam, max_size=seam))
        x[i, n - seam :] = x[i + 1, :seam] + shifts
    return x * 2.0**-4, e * 2.0**-4, e0 * 2.0**-4, r


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(_seamed_stack())
def test_stacked_lags_match_brute_counts_across_row_seams(case):
    x, eps, eps0, r = case
    lags = range(r + 1)
    rows = paircount._counts_1d(x, eps, eps0, lags)
    for row, (n_close, min_sq, counts) in zip(x, rows):
        assert (n_close, min_sq, counts) == paircount._counts_1d(row[None], eps, eps0, lags)[0]
        col = row[:, None]
        assert n_close == brute_pair_count(col, eps)
        assert math.sqrt(min_sq) == brute_min_distance(col)
        assert counts == [brute_uh_count(col, h, eps0) for h in lags]


def test_exact_sum_int64_at_its_bound():
    # bound * length = 2^63 - 1: every partial sum fits, so the sums stay int64
    from epsentropy.paircount import _exact_sum

    bound = (2**63 - 1) // 7
    terms = np.array([[bound] * 7, [-bound] * 7, [bound, -bound] * 3 + [bound]], dtype=np.int64)
    want = [2**63 - 1, -(2**63 - 1), bound]
    total = _exact_sum(terms, bound)
    assert total.dtype == np.int64 and total.tolist() == want
    assert _exact_sum(terms[0], bound) == 2**63 - 1
    # one past it the chunks add as Python ints
    total = _exact_sum(terms, bound + 1)
    assert total.dtype == object and total.tolist() == want


# ---------------------------------------------------------------------------
# d >= 2 counts: one window pass per sample (paircount._counts)
# ---------------------------------------------------------------------------

@st.composite
def _stack_nd(draw):
    """(x, eps, eps0, r): a (k, n, d) stack, d = 2-4, on a 2^-2 grid with
    duplicate rows; both radii on the grid, so pairs sit exactly eps and
    exactly eps0 apart, and eps0 above, equal to or below eps."""
    d = draw(st.integers(2, 4))
    k = draw(st.integers(1, 3))
    r = draw(st.integers(0, 3))
    n = draw(st.integers(r + 4, 12))
    ticks = draw(st.lists(st.integers(-5, 5), min_size=k * n * d, max_size=k * n * d))
    x = np.array(ticks, dtype=np.float64).reshape(k, n, d) * 0.25
    for row, a, b in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, n - 1),
                                             st.integers(0, n - 1)), max_size=4)):
        x[row, a] = x[row, b]
    eps = draw(st.integers(1, 8)) * 0.25
    eps0 = draw(st.sampled_from([eps, eps * 0.5, eps * 2.0, draw(st.integers(1, 8)) * 0.25]))
    return x, eps, eps0, r


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(_stack_nd())
@example((np.array([[[0.0, 0.0], [0.75, 1.0], [0.0, 0.0], [0.5, 0.0], [1.0, 1.0]]]), 1.25, 0.5, 1))
def test_counts_nd_match_brute_counts(case):
    x, eps, eps0, r = case
    lags = range(r + 1)
    rows = paircount._counts(x, eps, eps0, lags)
    assert len(rows) == x.shape[0]
    for i, (pts, (n_close, min_sq, counts)) in enumerate(zip(x, rows)):
        assert paircount._counts(x[i : i + 1], eps, eps0, lags) == [(n_close, min_sq, counts)]
        assert n_close == brute_pair_count(pts, eps)
        assert counts == [brute_uh_count(pts, h, eps0) for h in lags]
        if min_sq <= max(eps, eps0) ** 2:
            assert math.sqrt(min_sq) == brute_min_distance(pts)
        else:
            assert math.sqrt(min_sq) >= brute_min_distance(pts) > max(eps, eps0)
        rep = estimate_report(SeriesSample(pts), EstimateConfig(eps=eps, eps0=eps0, r=r))
        assert (rep.n_pairs_close, rep.min_distance) == (n_close, brute_min_distance(pts))
    # with no lags the pass runs at eps alone and keeps no pairs
    assert [c for c, _, _ in paircount._counts(x, eps, eps0, ())] == [c for c, _, _ in rows]


@st.composite
def _apart_nd(draw):
    """(pts, eps, eps0): n = 5-12 distinct rows of a 2^-1 grid in R^d,
    d = 2-4, with both radii at most half the grid step, so no pair is
    within either radius and the window minimum is above both."""
    d = draw(st.integers(2, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * d), min_size=5, max_size=12, unique=True))
    pts = np.array(rows, dtype=np.float64) * 0.5
    eps, eps0 = draw(st.lists(st.sampled_from([0.0625, 0.125, 0.2, 0.25]), min_size=2, max_size=2))
    return pts, eps, eps0


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(_apart_nd())
def test_counts_nd_without_close_pairs_complete_the_minimum(case):
    pts, eps, eps0 = case
    n_close, min_sq, counts = paircount._counts(pts[None], eps, eps0, range(2))[0]
    assert (n_close, counts) == (0, [0, 0])
    assert min_sq > max(eps, eps0) ** 2
    s = SeriesSample(pts)
    res = count_close_pairs(s, eps)
    assert (res.n_pairs_close, res.min_distance) == (0, brute_min_distance(pts))
    rep = estimate_report(s, EstimateConfig(eps=eps, eps0=eps0, r=1))
    assert (rep.n_pairs_close, rep.min_distance) == (0, brute_min_distance(pts))


@st.composite
def _lattice_lags(draw):
    """(pts, eps, eps0): n = 10-16 rows of a 2^-2 grid in R^d, d = 2-4, a
    few duplicated; eps0 on the grid, so pairs sit exactly eps0 apart, and
    eps half or twice eps0."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(10, 16))
    ticks = draw(st.lists(st.integers(-3, 3), min_size=n * d, max_size=n * d))
    pts = np.array(ticks, dtype=np.float64).reshape(n, d) * 0.25
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4)):
        pts[a] = pts[b]
    eps0 = draw(st.integers(1, 6)) * 0.25
    return pts, draw(st.sampled_from([eps0 * 0.5, eps0 * 2.0])), eps0


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(_lattice_lags())
def test_nd_lags_match_brute_counts_at_every_flush_size(case):
    # the lag probes take the hits one at a time, a few at a time or all at once
    pts, eps, eps0 = case
    lags = range(7)
    want = [brute_uh_count(pts, h, eps0) for h in lags]
    for hits in (1, 5, paircount._HITS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(paircount, "_HITS", hits)
            [(n_close, _, counts)] = paircount._counts(pts[None], eps, eps0, lags)
        assert (n_close, counts) == (brute_pair_count(pts, eps), want)


def test_one_window_pass_per_nd_sample(monkeypatch):
    # a d >= 2 report and each replicate of a 2-D study walk the column-0
    # windows once: pairs within eps, minimum and pairs within eps0 together
    calls = []
    windows = paircount._pivot_windows
    monkeypatch.setattr(paircount, "_pivot_windows",
                        lambda *args: calls.append(args[2]) or windows(*args))
    for d, eps, eps0 in [(2, 0.2, 0.2), (2, 0.2, 0.1), (3, 0.3, 0.4)]:
        calls.clear()
        estimate_report(_sample(90 + d, 300, d), EstimateConfig(eps=eps, eps0=eps0, r=3))
        assert calls == [max(eps, eps0) ** 2]
    calls.clear()
    plan = SimulationPlan(spec=iid_uniform_process(2), n=200, n_sim=5,
                          config=EstimateConfig(eps=0.1, eps0=0.05, r=2), kind="q_sqrtn")
    run_residual_study(plan)
    assert calls == [0.1**2] * 5


# ---------------------------------------------------------------------------
# 1-D rank windows against brute force on hostile inputs
# ---------------------------------------------------------------------------

@st.composite
def _hostile_1d(draw):
    """(points, eps): lattices k*eps, ulp nudges, duplicates, far offsets, wide eps."""
    eps = draw(st.sampled_from([2.0**-3, 0.25, 1.0, 4.0, 0.1, 0.3, 1.0 / 3.0, 0.7]))
    ks = draw(st.lists(st.integers(-6, 6), min_size=7, max_size=12))
    # a shift off the lattice moves the rounding of every k*eps + shift
    shift = draw(st.sampled_from([0.0, 0.1, -10.557064909613523]))
    offset = draw(st.sampled_from([0.0, 1e9, -1e9]))
    pts = np.array(ks, dtype=np.float64) * eps + shift + offset
    nudges = draw(st.lists(st.integers(-2, 2), min_size=len(ks), max_size=len(ks)))
    for t, k in enumerate(nudges):
        for _ in range(abs(k)):
            pts[t] = np.nextafter(pts[t], math.copysign(math.inf, k))
    if draw(st.booleans()):
        eps = 2.0 * float(pts.max() - pts.min()) + eps  # wider than the data span
    return pts, eps


_MAX = 1.7976931348623157e308


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_hostile_1d())
@example((np.array(_BOUNDARY_6), 0.3))
# eps^2 underflows to 0, so only gaps whose square underflows count
@example((np.array([0.0, 1e-170, 3e-170, 1e-160, 2e-160, 1e-150, 1.0]), 1e-170))
# eps^2 overflows to inf, so every pair counts, even a gap that overflows
@example((np.array([-1e200, -3.0, 0.0, 1e150, 1e300, _MAX]), 1e160))
# v - eps overflows to -inf next to -1e308
@example((np.array([-_MAX, -1e308, -1e308, 0.0, 1e308, _MAX]), 1e300))
# gaps between the extremes overflow while eps^2 stays finite
@example((np.array([-_MAX, np.nextafter(-_MAX, 0.0), -1e308, 1e308, _MAX, _MAX]), 1.0))
@example((np.full(9, 0.3), 0.1))
@example((np.full(9, -1e9), 1e-170))
def test_rank_windows_match_brute(case):
    pts, eps = case
    s = SeriesSample(pts)
    col = pts[:, None]
    res = count_close_pairs(s, eps)
    assert res.n_pairs_close == brute_pair_count(col, eps)
    assert res.min_distance == brute_min_distance(col)
    assert min_interpoint_distance(s) == brute_min_distance(col)
    i_arr, j_arr = close_pairs(s, eps)
    assert np.all(i_arr < j_arr)
    pairs = set(zip(i_arr.tolist(), j_arr.tolist()))
    assert len(pairs) == i_arr.size
    assert pairs == brute_close_pairs(col, eps)
    shuffled = count_close_pairs(SeriesSample(pts[RngStream(s.n, 1).generator().permutation(s.n)]), eps)
    assert (shuffled.n_pairs_close, shuffled.min_distance) == (res.n_pairs_close, res.min_distance)
    for h in range(min(4, s.n - 3)):
        assert count_uh_triples(s, h, eps) == brute_uh_count(col, h, eps)


# ---------------------------------------------------------------------------
# d >= 2 window engine against brute force on hostile inputs
# ---------------------------------------------------------------------------

@st.composite
def _hostile_nd(draw):
    """(points, eps) in d = 2, 3, 4, 7: lattice columns of narrow or wide
    range, column 0 sometimes Cauchy-spread, ulp nudges, duplicate rows, far
    offsets, wide eps.

    d stops at 7: np.sum in tests/helpers.py adds up to 7 squares left to
    right, as the package does, but from 8 terms on it adds pairwise, so a
    boundary pair could differ by one ulp between the two.
    """
    d = draw(st.sampled_from([2, 3, 4, 7]))
    eps = draw(st.sampled_from([2.0**-3, 0.25, 1.0, 4.0, 0.1, 0.3, 1.0 / 3.0, 0.7]))
    n = draw(st.integers(7, 12))
    k_max = draw(st.sampled_from([1, 3, 10, 40]))
    ks = draw(st.lists(st.integers(-k_max, k_max), min_size=n * d, max_size=n * d))
    pts = np.array(ks, dtype=np.float64).reshape(n, d) * eps
    if draw(st.booleans()):
        pts[:, 0] = np.tan(pts[:, 0])
    for c in range(d):
        pts[:, c] += draw(st.sampled_from([0.0, 0.1, -10.557064909613523]))
        pts[:, c] += draw(st.sampled_from([0.0, 1e9, -1e9]))
    nudges = draw(st.lists(st.integers(-2, 2), min_size=n * d, max_size=n * d))
    flat = pts.reshape(-1)
    for t, k in enumerate(nudges):
        for _ in range(abs(k)):
            flat[t] = np.nextafter(flat[t], math.copysign(math.inf, k))
    if draw(st.booleans()):
        pts[draw(st.integers(0, n - 1))] = pts[0]
    if draw(st.booleans()):
        eps = 2.0 * float((pts.max(axis=0) - pts.min(axis=0)).max()) + eps
    return pts, eps


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_hostile_nd())
@example((np.array(_BOUNDARY_6_2D[:3]), 0.3))
@example((np.array(_BOUNDARY_6_2D), 0.3))
@example((np.array(_ULP_4D), 1.0 / 3.0))
def test_grid_matches_brute(case):
    pts, eps = case
    s = SeriesSample(pts)
    res = count_close_pairs(s, eps)
    assert res.n_pairs_close == brute_pair_count(pts, eps)
    assert res.min_distance == brute_min_distance(pts)
    i_arr, j_arr = close_pairs(s, eps)
    assert np.all(i_arr < j_arr)
    pairs = set(zip(i_arr.tolist(), j_arr.tolist()))
    assert len(pairs) == i_arr.size
    assert pairs == brute_close_pairs(pts, eps)
    shuffled = count_close_pairs(SeriesSample(pts[RngStream(s.n, 1).generator().permutation(s.n)]), eps)
    assert (shuffled.n_pairs_close, shuffled.min_distance) == (res.n_pairs_close, res.min_distance)
    for h in range(min(4, s.n - 3)):
        assert count_uh_triples(s, h, eps) == brute_uh_count(pts, h, eps)


# ---------------------------------------------------------------------------
# column subsets, grouped by pivot, against brute force on the projections
# ---------------------------------------------------------------------------

@st.composite
def _subset_case(draw):
    """(points, subsets, eps): a 2-6 column integer grid scaled by eps, so
    many pairs lie exactly eps apart, with ulp nudges, duplicate rows, +-2^30
    column offsets and wide eps; 1-8 subsets of 1-4 distinct columns each,
    in drawn (mostly not ascending) order, so one call holds several pivots.
    """
    d = draw(st.integers(2, 6))
    eps = draw(st.sampled_from([2.0**-3, 0.25, 1.0, 0.1, 0.3, 1.0 / 3.0, 0.7]))
    n = draw(st.integers(7, 14))
    k_max = draw(st.sampled_from([1, 2, 5, 20]))
    ks = draw(st.lists(st.integers(-k_max, k_max), min_size=n * d, max_size=n * d))
    pts = np.array(ks, dtype=np.float64).reshape(n, d) * eps
    for c in range(d):
        pts[:, c] += draw(st.sampled_from([0.0, 0.1, 2.0**30, -(2.0**30)]))
    nudges = draw(st.lists(st.integers(-1, 1), min_size=n * d, max_size=n * d))
    flat = pts.reshape(-1)
    for t, k in enumerate(nudges):
        if k:
            flat[t] = np.nextafter(flat[t], math.copysign(math.inf, k))
    for _ in range(draw(st.integers(0, 2))):
        pts[draw(st.integers(0, n - 1))] = pts[draw(st.integers(0, n - 1))]
    if draw(st.booleans()):
        eps = 2.0 * float((pts.max(axis=0) - pts.min(axis=0)).max()) + eps
    column_lists = st.lists(st.integers(0, d - 1), min_size=1, max_size=min(4, d), unique=True)
    subsets = draw(st.lists(column_lists.map(tuple), min_size=1, max_size=8))
    return pts, subsets, eps


# the two rows are 1.0 apart with the squares added in column order 0, 1, 2
# and one ulp further apart in the order 2, 1, 0
_ORDER_PAIR = np.array([[0.0, 0.0, 0.0], [-0.29634718220320333, -0.9501875070900958, 0.0965507585165991]])
_SUBSET_GRID = np.array([[0.0, 0.3, 0.6, 0.0], [0.3, 0.3, 0.3, 0.3], [0.0, 0.0, 0.6, 0.6],
                         [0.3, 0.6, 0.0, 0.3], [0.0, 0.3, 0.6, 0.0], [0.6, 0.0, 0.3, 0.3]])


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_subset_case())
@example((_SUBSET_GRID, [(2, 0), (0,), (3, 1, 0), (1, 2), (3,), (2, 3, 1, 0)], 0.3))
@example((np.array(_ULP_4D), [(0, 1, 2, 3), (3, 2, 1, 0), (1, 3), (2,)], 1.0 / 3.0))
@example((_ORDER_PAIR, [(0, 1, 2), (2, 1, 0), (1, 0, 2), (2, 0, 1)], 1.0))
def test_subset_counts_match_brute_on_projections(case):
    pts, subsets, eps = case
    counts = count_subset_pairs(pts, subsets, eps)
    if pts is _ORDER_PAIR:
        assert counts[:2] == [1, 0]
    assert counts == [brute_pair_count(pts[:, list(s)], eps) for s in subsets]
    assert counts == [count_close_pairs(SeriesSample(pts[:, list(s)]), eps).n_pairs_close
                      for s in subsets]


def test_subset_counts_are_bounded_blocks(monkeypatch):
    # blocks narrower than a window still count every pair once
    pts = _sample(68, 300, 4).points
    subsets = [(0, 1), (3, 1, 2), (1,), (2, 0, 3), (3,)]
    want = count_subset_pairs(pts, subsets, 0.8)
    for block in (1, 7, 64):
        monkeypatch.setattr(paircount, "_BLOCK", block)
        assert count_subset_pairs(pts, subsets, 0.8) == want


def test_subset_counts_reject_what_the_projection_rejects():
    pts = _sample(69, 5, 3).points
    for subsets, message in (([(0, 3)], r"column 3 outside \[0, 3\)"), ([(1, 1)], "distinct"),
                             ([()], "at least one column")):
        with pytest.raises(ValueError, match=message):
            count_subset_pairs(pts, subsets, 0.5)
    with pytest.raises(ValueError, match="eps must be positive"):
        count_subset_pairs(pts, [(0,)], math.inf)
    with pytest.raises(ValueError, match="two observations"):
        count_subset_pairs(pts[:1], [(0,)], 0.5)


def _projection_counts(pts, subsets, eps):
    return [count_close_pairs(SeriesSample(pts[:, list(s)]), eps).n_pairs_close for s in subsets]


@pytest.mark.parametrize("block", [None, 1, 7, 64])
def test_subset_prefixes_shared_and_unshared(monkeypatch, block):
    # (0, 1) is a prefix of three subsets of pivot 0, which share it with
    # each other, and (0,) is kept beside it for (0, 2, 3); (1, 0, 2) and
    # (2, 0, 1) hold the same columns in other orders
    if block is not None:
        monkeypatch.setattr(paircount, "_BLOCK", block)
    gen = RngStream(74, 0).generator()
    lattice = np.round(gen.normal(size=(80, 4)) * 3) / 4  # ties and pairs exactly eps apart
    subsets = [(0, 1, 2), (0, 1, 3), (0, 1), (1, 0, 2), (2, 0, 1), (0, 1, 2), (3, 1), (1, 3, 0, 2),
               (0, 2, 3), (0, 1, 2, 3)]
    for pts, eps in ((_sample(73, 120, 4).points, 0.9), (lattice, 0.5), (lattice, 0.25)):
        counts = count_subset_pairs(pts, subsets, eps)
        assert counts == [brute_pair_count(pts[:, list(s)], eps) for s in subsets]
        assert counts == _projection_counts(pts, subsets, eps)


@pytest.mark.parametrize("block", [None, 1, 7, 64])
def test_last_block_reads_the_padding(monkeypatch, block):
    # every point lies within eps of 0 and of every other point, so entries
    # past the last sorted position would count, and lower the minimum, if
    # the padding read as 0
    if block is not None:
        monkeypatch.setattr(paircount, "_BLOCK", block)
    pts = _sample(75, 40, 3, scale=0.01).points + 0.05
    eps = 0.5
    s = SeriesSample(pts)
    assert count_subset_pairs(pts, [(0, 1, 2), (2, 1), (0,)], eps) == [40 * 39 // 2] * 3
    res = count_close_pairs(s, eps)
    assert res.n_pairs_close == 40 * 39 // 2
    assert res.min_distance == brute_min_distance(pts)
    assert min_interpoint_distance(s) == brute_min_distance(pts)
    assert set(zip(*(a.tolist() for a in close_pairs(s, eps)))) == brute_close_pairs(pts, eps)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_windows_wider_than_a_block(monkeypatch, block):
    # at eps 3 most windows hold over 100 of the 150 points, so one row's
    # window alone is a block, wider than _BLOCK
    monkeypatch.setattr(paircount, "_BLOCK", block)
    pts = _sample(76, 150, 3).points
    eps = 3.0
    assert int(paircount._pivot_windows(pts, 0, eps * eps)[1].max()) > 64
    subsets = [(0, 1, 2), (0, 2), (1, 2), (2, 1, 0)]
    assert count_subset_pairs(pts, subsets, eps) == [brute_pair_count(pts[:, list(s)], eps) for s in subsets]
    s = SeriesSample(pts)
    res = count_close_pairs(s, eps)
    assert res.n_pairs_close == brute_pair_count(pts, eps)
    assert res.min_distance == brute_min_distance(pts)
    assert set(zip(*(a.tolist() for a in close_pairs(s, eps)))) == brute_close_pairs(pts, eps)


def test_subset_pairs_exactly_eps_apart():
    # 3-4-5 triangles: the squares and their sums are exact, so the pairs
    # 5 apart count at eps 5 and not one ulp below
    pts = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0], [3.0, 0.0, 4.0], [0.0, 4.0, 3.0], [6.0, 8.0, 0.0]])
    subsets = [(0, 1), (1, 0), (0, 2), (2, 1), (0, 1, 2)]
    below = float(np.nextafter(5.0, 0.0))
    for eps in (5.0, below):
        counts = count_subset_pairs(pts, subsets, eps)
        assert counts == [brute_pair_count(pts[:, list(s)], eps) for s in subsets]
        assert counts == _projection_counts(pts, subsets, eps)
    # every subset has a pair exactly 5 apart
    assert all(a > b for a, b in zip(count_subset_pairs(pts, subsets, 5.0),
                                     count_subset_pairs(pts, subsets, below)))
    # the pair (1, 2) of _BOUNDARY_6_2D is exactly 0.3 apart; (3, 4) coincide
    assert count_subset_pairs(np.array(_BOUNDARY_6_2D), [(0, 1), (1, 0)], 0.3) == [2, 2]


def test_subset_count_memory_is_bounded_by_blocks():
    # the keys_3d_grid shape: every subset of 3 of 6 columns, n = 2000.  A
    # group holds at most a buffer per column, one per kept prefix and one
    # more, each of _BLOCK floats, beside O(n d) for the sort and the padded
    # columns; at eps 3 nearly all 2e6 pairs are candidates
    pts = _sample(77, 2000, 6).points
    subsets = list(itertools.combinations(range(6), 3))
    peaks = []
    tracemalloc.start()
    try:
        for eps in (0.3, 3.0):
            tracemalloc.reset_peak()
            count_subset_pairs(pts, subsets, eps)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) < (2 * 6 + 1) * paircount._BLOCK * 8 + 64 * 2000 * 6


def test_high_dimensional_count_memory():
    # one running sum and one scratch column at any d (4.2 MiB measured
    # before the block buffers were reused)
    s = _sample(78, 2000, 64)
    tracemalloc.start()
    try:
        count_close_pairs(s, 8.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.2 * 2**20


def test_intended_overflow_raises_no_warning():
    # differences of +-1e308 overflow to inf, which the exact tests read as
    # "far"; the counters say nothing about it
    pts = np.array([[-1e308, 1e308], [1e308, -1e308], [0.0, 0.0], [1e308, 1e308],
                    [-1e308, -1e308], [5.0, 5.0], [1e308, 1e308]])
    with np.errstate(over="ignore"):
        want = [brute_pair_count(pts[:, list(s)], 1e150) for s in ((0, 1), (1,), (1, 0))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert count_subset_pairs(pts, [(0, 1), (1,), (1, 0)], 1e150) == want
        assert count_close_pairs(SeriesSample(pts), 1e150).n_pairs_close == want[0]
        assert count_close_pairs(SeriesSample(pts), 1.0).min_distance == 0.0
        assert min_interpoint_distance(SeriesSample(pts[[0, 1, 2, 5], :1])) == 5.0
        close_pairs(SeriesSample(pts), 1e150)
        count_uh_triples(SeriesSample(pts), 1, 1e150)
        estimate_report(SeriesSample(pts[:, :1]), EstimateConfig(eps=1e300, eps0=1e150, r=1))
        estimate_report(SeriesSample(pts), EstimateConfig(eps=1e150, eps0=1e70, r=1))


def _nudged_lattice(gen, n, step, shift):
    """n points k*step + shift, |k| <= 40, each nudged 0-2 ulps either way."""
    x = gen.integers(-40, 41, size=n) * step + shift
    k = gen.integers(-2, 3, size=n)
    for ulps in (1, 2):
        m = np.abs(k) >= ulps
        x[m] = np.nextafter(x[m], np.copysign(np.inf, k[m]))
    return x


def _window_cases():
    gen = RngStream(66, 0).generator()
    return {
        "lattice": (_nudged_lattice(gen, 3000, 0.3, 0.1), 0.3),
        "lattice_far": (_nudged_lattice(gen, 3000, 1.0 / 3.0, -10.557064909613523 + 1e9), 1.0 / 3.0),
        # eps^2 = 1e-320 is subnormal, so the squares round coarsely
        "lattice_subnormal_sq": (_nudged_lattice(gen, 3000, 1e-160, 0.0), 1e-160),
        # eps^2 is finite, but squares of gaps of two eps or more overflow
        "lattice_overflow_sq": (_nudged_lattice(gen, 3000, 1e154, 0.0), 1e154),
        "underflow_eps_sq": (gen.integers(0, 2000, size=3000) * 1e-170, 1e-170),
        "overflow_eps_sq": (gen.normal(size=3000) * 1e200, 1e160),
        "v_minus_eps_overflows": (gen.choice([-_MAX, -1e308, 0.0, 1e308, _MAX], size=3000), 1e300),
        "equal": (np.full(3000, 0.3), 0.1),
    }


@pytest.mark.parametrize("name", list(_window_cases()))
def test_rank_windows_match_full_bisection(name):
    x, eps = _window_cases()[name]
    v = np.sort(x)
    lo, hi = paircount._rank_windows(v, eps * eps)
    ref_lo, ref_hi = bisect_rank_windows(v, eps * eps)
    assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)
    if name.startswith(("lattice", "underflow")):
        # the searchsorted seed is wrong on some rows here, so the bisection runs
        with np.errstate(over="ignore"):
            seed = np.searchsorted(v, v - math.sqrt(eps * eps))
        assert np.any(seed != ref_lo)


@pytest.mark.parametrize("name", list(_window_cases()))
def test_stacked_rank_windows_match_full_bisection(name):
    # three rows of 1000: the bisection of each row's misses starts at its row
    x, eps = _window_cases()[name]
    v = np.sort(x.reshape(3, 1000), axis=1)
    lo, hi = paircount._rank_windows(v, eps * eps)
    start = np.arange(0, 3000, 1000)[:, None]
    ref = [bisect_rank_windows(row, eps * eps) for row in v]
    assert np.array_equal(lo - start, [r[0] for r in ref])
    assert np.array_equal(hi - start, [r[1] for r in ref])
    if name.startswith(("lattice", "underflow")):
        with np.errstate(over="ignore"):
            seed = np.searchsorted(v[2], v[2] - math.sqrt(eps * eps))
        assert np.any(seed != ref[2][0])


# ---------------------------------------------------------------------------
# scaling by a power of two changes no count
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("k", [-20, -1, 1, 20])
def test_power_of_two_scaling_is_exact(d, k):
    # every difference, square and sum scales exactly by 2^k or 4^k, and
    # sqrt(4^k y) = 2^k sqrt(y), so rounding happens at the same points
    gen = RngStream(67, d).generator()
    normal = gen.normal(size=(150, d))
    lattice = np.round(gen.normal(size=(150, d)) * 4) / 4  # pairs exactly 0.25 apart
    scale = 2.0**k
    for pts, eps in ((normal, 0.3), (lattice, 0.25)):
        s, t = SeriesSample(pts), SeriesSample(pts * scale)
        res, res_t = count_close_pairs(s, eps), count_close_pairs(t, eps * scale)
        assert res_t.n_pairs_close == res.n_pairs_close
        assert res_t.min_distance == res.min_distance * scale
        assert min_interpoint_distance(t) == min_interpoint_distance(s) * scale
        pairs = set(zip(*(a.tolist() for a in close_pairs(s, eps))))
        assert set(zip(*(a.tolist() for a in close_pairs(t, eps * scale)))) == pairs
        for h in range(4):
            assert count_uh_triples(t, h, eps * scale) == count_uh_triples(s, h, eps)


# ---------------------------------------------------------------------------
# translation, row and column permutation change no count
# ---------------------------------------------------------------------------

@st.composite
def _exact_lattice(draw):
    """(points, eps, row order, column order) in d = 1, 2, 3.

    Coordinates are lattice steps plus a per-column offset, all multiples of
    2^-20 below 2^20, so each translate by +-2^30 and each difference is
    exact.  The differences are small multiples of 2^-20, so their squares
    and the sums of those squares are exact too, in any column order.
    """
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(7, 12))
    step = draw(st.sampled_from([2.0**-3, 0.25, 0.375, 3 * 2.0**-20, round(0.1 * 2**20) * 2.0**-20]))
    k_max = draw(st.sampled_from([1, 3, 10, 40]))
    ks = draw(st.lists(st.integers(-k_max, k_max), min_size=n * d, max_size=n * d))
    pts = np.array(ks, dtype=np.float64).reshape(n, d) * step
    for c in range(d):
        pts[:, c] += draw(st.integers(-(2**39), 2**39)) * 2.0**-20
    if draw(st.booleans()):
        pts[draw(st.integers(0, n - 1))] = pts[0]
    eps = draw(st.sampled_from([1.0, 2.0, math.sqrt(2.0), 0.7])) * step  # pairs exactly eps apart
    if draw(st.booleans()):
        eps = 2.0 * float((pts.max(axis=0) - pts.min(axis=0)).max()) + eps
    rows = draw(st.permutations(range(n)))
    cols = draw(st.permutations(range(d)))
    return pts, eps, rows, cols


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(_exact_lattice())
def test_translation_and_permutations_are_exact(case):
    pts, eps, rows, cols = case
    s = SeriesSample(pts)
    rep = estimate_report(s, EstimateConfig(eps=eps))
    assert rep.n_pairs_close == brute_pair_count(pts, eps)
    assert rep.min_distance == brute_min_distance(pts)
    # a row permutation changes the lagged triples, and so u3_hat, but no pair
    shuffled = estimate_report(SeriesSample(pts[list(rows)]), EstimateConfig(eps=eps))
    assert (shuffled.n_pairs_close, shuffled.q2_hat, shuffled.min_distance) == (
        rep.n_pairs_close, rep.q2_hat, rep.min_distance)
    triples = [count_uh_triples(s, h, eps) for h in range(4)]
    assert triples == [brute_uh_count(pts, h, eps) for h in range(4)]
    for moved in (pts + 2.0**30, pts - 2.0**30, pts[:, list(cols)]):
        t = SeriesSample(moved)
        res = count_close_pairs(t, eps)
        assert res.n_pairs_close == rep.n_pairs_close == brute_pair_count(moved, eps)
        assert res.min_distance == rep.min_distance == brute_min_distance(moved)
        assert [count_uh_triples(t, h, eps) for h in range(4)] == triples
