import math

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from helpers import gaussian_pdf, pearson2_d1_pdf, quad_power_integral

from epsentropy.core import RngStream, SeriesSample
from epsentropy.gof import GofResult, gof_statistic, k_d, sample_covariance
from epsentropy.processes import gaussian_ma_process, generate, pearson2_process


# ---------------------------------------------------------------------------
# the limit constant
# ---------------------------------------------------------------------------

def test_k_d_closed_forms():
    assert k_d(1) == pytest.approx(5.0 * math.sqrt(5.0) / 3.0, rel=1e-14)
    assert k_d(2) == pytest.approx(9.0 * math.pi / 2.0, rel=1e-14)


@pytest.mark.parametrize("d", list(range(1, 21)))
def test_k_d_against_scipy_gamma(d):
    beta = 1.0 / (4.0 + d)
    expected = (
        sps.gamma(3.0 + d / 2.0)
        * math.pi ** (d / 2.0)
        / (2.0 * sps.gamma(2.0 + d / 2.0) ** 2 * beta ** (d / 2.0))
    )
    assert k_d(d) == pytest.approx(expected, rel=1e-12)


def test_k_1_equals_inverse_pearson2_q2():
    # the statistic's limit under the null is exp(h2)/sigma = 1/q2 at unit
    # scale, so the constant must invert the quadrature value of q2
    q2 = quad_power_integral(pearson2_d1_pdf, -3, 3, 2)
    assert k_d(1) == pytest.approx(1.0 / q2, rel=1e-9)


@pytest.mark.parametrize("d", [0, 65, 1.0, True])
def test_k_d_validation(d):
    with pytest.raises(ValueError):
        k_d(d)


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------

def test_sample_covariance_matches_numpy():
    pts = RngStream(50, 0).generator().normal(size=(60, 3))
    mean, cov = sample_covariance(SeriesSample(pts))
    assert np.allclose(mean, pts.mean(axis=0), atol=1e-15)
    assert np.allclose(cov, np.cov(pts.T, ddof=1), atol=1e-14)
    with pytest.raises(ValueError):
        sample_covariance(SeriesSample([[1.0, 2.0]]))


@pytest.mark.parametrize("points", [
    [[v] for v in (0.0, 1e300, 2e300) for _ in range(3)],  # the product overflows
    [[1.7e308], [1.7e308], [1.6e308]],  # the mean's sum overflows
    [[0.0, 1.0], [1e200, -1.0], [2e200, 0.5]],  # one column's square overflows
])
def test_covariance_that_overflows_is_an_error(points):
    sample = SeriesSample(points)
    message = f"sample covariance overflows in dimension {sample.d}"
    with pytest.raises(ValueError, match=message):
        sample_covariance(sample)
    with pytest.raises(ValueError, match=message):
        gof_statistic(sample, eps=1.0)


# ---------------------------------------------------------------------------
# the statistic
# ---------------------------------------------------------------------------

def test_statistic_fields_consistent():
    g = generate(pearson2_process([0.0], [[1.0]]), 800, RngStream(51, 0))
    r = gof_statistic(g.sample, eps=0.05, delta=0.2)
    assert isinstance(r, GofResult)
    assert r.ratio == pytest.approx(r.statistic / r.k_d, rel=1e-15)
    assert r.statistic == pytest.approx(math.exp(r.h2_hat) / math.sqrt(r.det_sigma), rel=1e-12)
    assert r.k_d == k_d(1)
    assert r.reject == (r.ratio < 0.8)
    assert not r.h2_clamped
    assert set(r.to_dict()) == {
        "n", "d", "eps", "statistic", "k_d", "ratio", "h2_hat", "det_sigma",
        "delta", "reject", "h2_clamped",
    }


def test_statistic_scale_invariance_exact():
    # c a power of two: coordinates and eps rescale without rounding, so the
    # ratio must agree to within log/exp arithmetic noise
    g = generate(pearson2_process([0.0, 0.0], [[1.0, 0.2], [0.2, 1.0]]), 600, RngStream(52, 0))
    c = 4.0
    base = gof_statistic(g.sample, eps=0.25)
    scaled = gof_statistic(SeriesSample(g.sample.points * c), eps=0.25 * c)
    assert scaled.ratio == pytest.approx(base.ratio, rel=1e-12)
    assert scaled.h2_hat != base.h2_hat  # entropy itself is not scale free


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(d=st.integers(1, 3), k=st.integers(-20, 20), seed=st.integers(0, 2**16))
def test_ratio_is_invariant_under_power_of_two_rescaling(d, k, seed):
    x = generate(pearson2_process([0.0] * d, np.eye(d).tolist()), 200, RngStream(seed, d)).sample.points
    base = gof_statistic(SeriesSample(x), eps=0.3)
    scaled = gof_statistic(SeriesSample(np.ldexp(x, k)), eps=np.ldexp(0.3, k))
    assume(not base.h2_clamped and not scaled.h2_clamped)
    # the count, the ball volume and the covariance factor rescale exactly; h2
    # shifts by k d log 2 and is rounded to an ulp of its own size, which exp
    # turns into a relative error of that size on top of a few ulps of its own
    h2_rounding = np.spacing(abs(base.h2_hat)) + np.spacing(abs(scaled.h2_hat))
    assert abs(scaled.ratio - base.ratio) <= base.ratio * h2_rounding + 4 * np.spacing(base.ratio)
    assert scaled.det_sigma == np.ldexp(base.det_sigma, 2 * k * d)


def test_null_ratio_near_one():
    g = generate(pearson2_process([0.0], [[1.0]]), 3000, RngStream(90, 0))
    r = gof_statistic(g.sample, eps=0.05)
    assert 0.95 < r.ratio < 1.05
    assert not r.reject


def test_null_ratio_near_one_d2():
    spec = pearson2_process([0.0, 0.0], [[1.0, 0.3], [0.3, 1.0]])
    g = generate(spec, 4000, RngStream(96, 0))
    r = gof_statistic(g.sample, eps=0.12)
    assert 0.95 < r.ratio < 1.05


def test_gaussian_alternative_ratio():
    # limit ratio for a normal sample derived by quadrature: 1/(q2 * K_1)
    q2 = quad_power_integral(gaussian_pdf(1.0), -12, 12, 2)
    target = 1.0 / (q2 * k_d(1))
    assert target == pytest.approx(0.9512, abs=5e-5)
    x = generate(gaussian_ma_process([1.0]), 8000, RngStream(92, 0)).sample
    r = gof_statistic(x, eps=0.05)
    assert r.ratio == pytest.approx(target, abs=0.02)
    assert r.ratio < 1.0
    assert not r.reject  # 0.95 sits above the default 0.9 cut


def test_heavy_alternative_rejected():
    # Exp(1) data: limit ratio 1/(q2 * K_1) = 2/K_1, far below the cut
    gen = RngStream(94, 0).generator()
    x = SeriesSample(-np.log(gen.random(6000)))
    r = gof_statistic(x, eps=0.03)
    assert r.ratio == pytest.approx(2.0 / k_d(1), abs=0.05)
    assert r.reject


def test_uniform_alternative_direction():
    gen = RngStream(95, 0).generator()
    x = SeriesSample(gen.random(6000))
    r = gof_statistic(x, eps=0.02)
    # sqrt(12)/K_1: below one but above the default cut, so no rejection
    assert r.ratio == pytest.approx(math.sqrt(12.0) / k_d(1), abs=0.03)
    assert r.ratio < 1.0 and not r.reject


def test_clamped_entropy_is_flagged():
    s = SeriesSample(np.arange(20.0) * 10.0)
    r = gof_statistic(s, eps=0.001)
    assert r.h2_clamped
    assert r.h2_hat == pytest.approx(math.log(20), rel=1e-15)


def test_singular_covariance_rejected():
    pts = np.column_stack([np.arange(30.0), np.full(30, 2.0)])
    with pytest.raises(ValueError, match="singular"):
        gof_statistic(SeriesSample(pts), eps=0.5)


def test_radius_whose_ball_volume_underflows_is_rejected():
    s = SeriesSample(RngStream(38, 0).generator().normal(size=(6, 2)))
    with pytest.raises(ValueError, match="underflows to 0 at radius 1e-170 in dimension 2"):
        gof_statistic(s, 1e-170)


def test_radius_whose_ball_volume_overflows_is_rejected():
    s = SeriesSample(RngStream(38, 0).generator().normal(size=(6, 2)))
    with pytest.raises(ValueError, match=r"overflows at radius 1e\+200 in dimension 2"):
        gof_statistic(s, 1e200)


def test_delta_validation():
    s = SeriesSample(RngStream(53, 0).generator().random(50))
    for delta in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            gof_statistic(s, eps=0.1, delta=delta)
