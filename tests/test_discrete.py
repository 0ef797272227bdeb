import math

import numpy as np
import pytest
from helpers import brute_discrete_q2, brute_discrete_uh_count
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epsentropy.core import RngStream, SeriesSample, ball_volume
from epsentropy.discrete import DiscreteSample, _u3_count, discrete_report, discrete_residual
from epsentropy.estimators import EstimateConfig, estimate_report, triple_normalizer
from epsentropy.paircount import count_uh_triples


def _sym(seed, n, hi, d=1):
    gen = RngStream(seed, 0).generator()
    return DiscreteSample(gen.integers(0, hi, size=(n, d) if d > 1 else n))


def _binary_chain(n, stream):
    # X_t = I(U_t + U_{t+1} > 1.2): stationary, 1-dependent, P(X=1) = 0.32
    u = stream.generator().random(n + 1)
    return DiscreteSample((u[:-1] + u[1:] > 1.2).astype(np.int64))


# ---------------------------------------------------------------------------
# the sample container
# ---------------------------------------------------------------------------

def test_sample_coercion_and_props():
    s = DiscreteSample([3, 3, 7])
    assert s.symbols.shape == (3, 1) and s.symbols.dtype == np.int64
    assert s.n == 3 and s.d == 1
    with pytest.raises(ValueError):
        s.symbols[0, 0] = 0


@pytest.mark.parametrize("bad", [[1.5, 2.0], np.array(["a", "b"]), np.empty((0, 1), dtype=int)])
def test_sample_rejects_non_integer(bad):
    with pytest.raises(ValueError):
        DiscreteSample(bad)


# ---------------------------------------------------------------------------
# tie proportion and entropy
# ---------------------------------------------------------------------------

def test_q2_hand_case():
    # one tie among C(4, 2) = 6 pairs; the isolated 5 makes n >= r + 4
    rep = discrete_report(DiscreteSample([1, 1, 2, 5]), 0)
    assert rep.qn == pytest.approx(1.0 / 6.0, rel=1e-15)


@pytest.mark.parametrize("seed,n,hi,d", [(1, 30, 3, 1), (2, 50, 5, 1), (3, 40, 2, 2)])
def test_q2_matches_pairwise_scan(seed, n, hi, d):
    s = _sym(seed, n, hi, d)
    assert discrete_report(s, 0).qn == pytest.approx(brute_discrete_q2(s.symbols), rel=1e-15)


def test_q2_extremes_and_h2_clamp():
    distinct = discrete_report(DiscreteSample(np.arange(10)), 0)
    equal = discrete_report(DiscreteSample(np.zeros(10, dtype=np.int64)), 0)
    assert distinct.qn == 0.0
    assert distinct.h2_hat == pytest.approx(math.log(10), rel=1e-15)
    assert equal.qn == 1.0
    assert equal.h2_hat == 0.0


def test_negative_symbols_are_ordinary_values():
    s = DiscreteSample([-4, -4, 0, 7])
    assert discrete_report(s, 0).qn == pytest.approx(1.0 / 6.0, rel=1e-15)


# ---------------------------------------------------------------------------
# lagged triple statistics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("h", [0, 1, 2, 3])
@pytest.mark.parametrize("seed,n,hi,d", [(10, 12, 2, 1), (11, 25, 3, 1), (12, 30, 4, 2)])
def test_u3_matches_enumeration(h, seed, n, hi, d):
    s = _sym(seed, n, hi, d)
    expected = brute_discrete_uh_count(s.symbols, h) / triple_normalizer(n, h)
    assert discrete_report(s, h).u3_hat[h] == pytest.approx(expected, rel=1e-15)


def test_u3_hand_enumeration():
    # (1, 1, 2, 1, 2), h = 1: anchors i = 0..2, checked by the literal count
    s = DiscreteSample([1, 1, 2, 1, 2])
    expected = brute_discrete_uh_count(s.symbols, 1) / triple_normalizer(5, 1)
    assert discrete_report(s, 1).u3_hat[1] == expected


@pytest.mark.parametrize("h", [0, 1, 2])
def test_u3_saturates_at_one(h):
    assert discrete_report(DiscreteSample(np.zeros(9, dtype=np.int64)), h).u3_hat[h] == 1.0


@pytest.mark.parametrize("h", [0, 1])
def test_u3_zero_when_all_distinct(h):
    assert discrete_report(DiscreteSample(np.arange(9)), h).u3_hat[h] == 0.0


def test_u3_exact_past_int64():
    # n constant symbols give (n - 1)(n - 2) triples per anchor; summed over
    # n > 2^21 anchors that passes 2^63, where an int64 sum wraps negative
    n = 2**21 + 10**4
    rep = discrete_report(DiscreteSample(np.zeros(n, dtype=np.int64)), 1)
    assert rep.u3_hat == (1.0, 1.0)
    assert rep.s2_hat == 0.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_row_labels_match_axis0_unique(d):
    # rows are labelled by one np.unique over whole rows; the counts must
    # equal those from the row-wise axis=0 labelling and from brute force,
    # with negative symbols and symbols that differ only above bit 32
    gen = RngStream(17, d).generator()
    sym = gen.integers(-2, 2, size=(40, d)) * 2**33 + gen.integers(0, 2, size=(40, d))
    sym[5] = sym[3]
    sym[7] = sym[3] + 2**32
    sym[9, 0] = -(2**62)
    s = DiscreteSample(sym)
    rep = discrete_report(s, 3)
    _, codes, counts = np.unique(sym, axis=0, return_inverse=True, return_counts=True)
    codes = codes.ravel()
    n = 40
    assert rep.qn == int(np.sum(counts * (counts - 1) // 2)) / (n * (n - 1) // 2)
    assert rep.u3_hat == tuple(
        _u3_count(codes, counts[codes], n, h) / triple_normalizer(n, h) for h in range(4)
    )
    assert rep.qn == brute_discrete_q2(sym)
    assert rep.u3_hat == tuple(
        brute_discrete_uh_count(sym, h) / triple_normalizer(n, h) for h in range(4)
    )


def test_u3_needs_enough_observations():
    s = DiscreteSample([1, 1, 2])
    with pytest.raises(ValueError):
        discrete_report(s, 0)
    with pytest.raises(ValueError):
        discrete_report(_sym(13, 6, 2), 3)
    with pytest.raises(ValueError):
        discrete_report(_sym(13, 6, 2), -1)


@pytest.mark.parametrize("r", [1.9, 1.0, True])
def test_lag_bound_is_never_truncated(r):
    with pytest.raises(ValueError, match="r must be an integer"):
        discrete_report(_sym(14, 30, 3), r)


# ---------------------------------------------------------------------------
# variance plug-in and residuals
# ---------------------------------------------------------------------------

def test_s2_at_r0_is_u0_minus_q_squared():
    rep = discrete_report(_sym(14, 60, 3), 0)
    q = rep.qn
    assert rep.s2_hat == pytest.approx(rep.u3_hat[0] - q * q, rel=1e-12)


def test_s2_composition():
    s = _sym(15, 80, 3)
    q = brute_discrete_q2(s.symbols)
    u3 = [brute_discrete_uh_count(s.symbols, h) / triple_normalizer(80, h) for h in range(3)]
    expected = (u3[0] - q * q) + 2 * sum(u3[h] - q * q for h in (1, 2))
    assert discrete_report(s, 2).s2_hat == pytest.approx(expected, rel=1e-12)


def test_report_bundles_everything():
    s = _sym(16, 70, 4)
    rep = discrete_report(s, 2)
    q = brute_discrete_q2(s.symbols)
    assert (rep.n, rep.d, rep.r) == (70, 1, 2)
    assert rep.qn == q
    assert rep.h2_hat == -math.log(max(q, 1 / 70))
    assert rep.u3_hat == tuple(
        brute_discrete_uh_count(s.symbols, h) / triple_normalizer(70, h) for h in range(3)
    )
    assert rep.to_dict()["u3_hat"] == list(rep.u3_hat)


def test_residual_hand_case():
    # (1,1,1,1,2): Q = 0.6, U_0 = 24/48, s^2 = 0.5 - 0.36 = 0.14
    s = DiscreteSample([1, 1, 1, 1, 2])
    rep = discrete_report(s, 0)
    assert rep.qn == 0.6 and rep.u3_hat == (0.5,)
    expected_q = math.sqrt(5) * (0.6 - 0.5) / (2.0 * math.sqrt(0.14))
    assert discrete_residual(rep, 0.5, "q") == expected_q
    h_truth = 0.4
    expected_h = math.sqrt(5) * 0.6 * (rep.h2_hat - h_truth) / (2.0 * math.sqrt(0.14))
    assert discrete_residual(rep, h_truth, "h") == expected_h


def test_residual_rejects_nonpositive_s2():
    # (1,1,1,2,2): U_0 = 6/48 < Q^2 = 0.16, so the plug-in goes negative
    s = DiscreteSample([1, 1, 1, 2, 2])
    assert discrete_report(s, 0).s2_hat < 0.0
    with pytest.raises(ValueError, match="s2"):
        discrete_residual(discrete_report(s, 0), 0.5, "q")


def test_residual_kind_validation():
    s = _sym(17, 40, 2)
    with pytest.raises(ValueError):
        discrete_residual(discrete_report(s, 0), 0.5, "z")


@pytest.mark.parametrize("truth,match", [
    (math.nan, "truth must be finite"),
    (math.inf, "truth must be finite"),
    (-math.inf, "truth must be finite"),
    (1e308, "residual is not finite"),
])
def test_residual_rejects_non_finite(truth, match):
    rep = discrete_report(DiscreteSample([1, 1, 1, 1, 2]), 0)
    with pytest.raises(ValueError, match=match):
        discrete_residual(rep, truth, "q")


# ---------------------------------------------------------------------------
# consistency of the variance plug-in
# ---------------------------------------------------------------------------

def _chain_zeta():
    """Long-run variance of p(X_t) for the binary chain, exact arithmetic.

    P(X=1) = 0.32; P(X_t = X_{t+1} = 1) = 0.8^3/3 from the shared uniform.
    """
    p1 = 0.32
    p0 = 0.68
    q2 = p0 * p0 + p1 * p1
    var = (p0**3 + p1**3) - q2 * q2
    p11 = 0.8**3 / 3.0
    p10 = p1 - p11
    p00 = 1.0 - 2.0 * p10 - p11
    cross = p00 * p0 * p0 + 2.0 * p10 * p0 * p1 + p11 * p1 * p1
    return var + 2.0 * (cross - q2 * q2)


def test_chain_zeta_oracle_agrees_with_monte_carlo():
    # second, simulation-only route to the same constant: the variance of
    # n^{-1/2} sum (p(X_t) - q2) over independent replicates
    probs = np.array([0.68, 0.32])
    q2 = float(np.sum(probs**2))
    n, reps = 400, 600
    vals = np.empty(reps)
    for i in range(reps):
        x = _binary_chain(n, RngStream(300, i)).symbols[:, 0]
        vals[i] = np.sum(probs[x] - q2) / math.sqrt(n)
    assert float(np.var(vals, ddof=1)) == pytest.approx(_chain_zeta(), rel=0.15)


def test_s2_estimates_chain_long_run_variance():
    s = _binary_chain(20_000, RngStream(301, 0))
    assert discrete_report(s, 1).s2_hat == pytest.approx(_chain_zeta(), rel=0.15)


def test_s2_vanishes_for_uniform_alphabet():
    # uniform marginal has zero long-run variance of p(X); the plug-in may go
    # slightly negative but must shrink with n
    gen = RngStream(302, 0).generator()
    small = DiscreteSample(gen.integers(0, 4, size=1000))
    large = DiscreteSample(gen.integers(0, 4, size=16_000))
    assert abs(discrete_report(small, 2).s2_hat) < 0.01
    assert abs(discrete_report(large, 2).s2_hat) < 0.002


def test_report_needs_n_at_least_r_plus_4():
    with pytest.raises(ValueError):
        discrete_report(DiscreteSample([1, 1, 2, 2, 1]), 2)


# ---------------------------------------------------------------------------
# the continuous estimator on integers at eps = 1/2 is the discrete one
# ---------------------------------------------------------------------------

@st.composite
def _symbols_and_lag(draw):
    r = draw(st.integers(0, 4))
    x = draw(st.lists(st.integers(-3, 5), min_size=r + 4, max_size=r + 30))
    return x, r


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_symbols_and_lag())
@example(([3, 0, 0, 0, 2, 5, 1, 4, 0], 4))
def test_continuous_report_at_half_eps_equals_discrete(case):
    # integers are within 1/2 of each other only when equal, and the ball of
    # radius 1/2 in R has volume exactly 1, so every field must agree exactly
    x, r = case
    assert ball_volume(1, 0.5) == 1.0
    cont = estimate_report(SeriesSample(np.array(x, dtype=float)), EstimateConfig(eps=0.5, r=r))
    disc = discrete_report(DiscreteSample(np.array(x, dtype=np.int64)), r)
    assert cont.qn_raw == disc.qn and cont.q2_hat == disc.qn
    assert cont.h2_hat == disc.h2_hat
    assert cont.u3_hat == disc.u3_hat
    assert cont.zeta_hat == disc.s2_hat


@st.composite
def _symbol_vectors_and_lag(draw):
    d = draw(st.sampled_from([2, 3]))
    r = draw(st.integers(0, 4))
    n = draw(st.integers(r + 4, r + 24))
    x = draw(st.lists(st.integers(-1, 2), min_size=n * d, max_size=n * d))
    return np.array(x, dtype=np.int64).reshape(n, d), r


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(_symbol_vectors_and_lag())
def test_continuous_counts_at_half_eps_equal_discrete_vectors(case):
    # distinct integer vectors are at least 1 apart, so at eps = 1/2 the
    # close pairs and triples are the ties; the ball volume is no longer 1,
    # so the raw proportions are compared
    x, r = case
    n = x.shape[0]
    pts = SeriesSample(x.astype(float))
    cont = estimate_report(pts, EstimateConfig(eps=0.5, r=r))
    disc = discrete_report(DiscreteSample(x), r)
    assert cont.qn_raw == disc.qn
    for h in range(r + 1):
        assert count_uh_triples(pts, h, 0.5) / triple_normalizer(n, h) == disc.u3_hat[h]
