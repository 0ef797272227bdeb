import math
import re

import numpy as np
import pytest
import scipy.stats as st

from epsentropy.asymptotics import (
    ConfidenceInterval,
    PoissonApprox,
    exp_pivot_ci,
    normal_ci,
    poisson_p_key,
)
from epsentropy.core import RngStream, SeriesSample, ball_volume, normal_quantile
from epsentropy.estimators import EstimateConfig, estimate_report
from epsentropy.paircount import min_interpoint_distance


def _pivot(sample, level=0.95):
    return exp_pivot_ci(sample.n, sample.d, min_interpoint_distance(sample), level=level)


# ---------------------------------------------------------------------------
# Poisson approximation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mu", [0.0, 0.1, 2.0, 17.5])
def test_pmf_matches_scipy(mu):
    law = PoissonApprox(mu)
    ks = np.arange(0, 41)
    ours = np.array([law.pmf(int(k)) for k in ks])
    assert np.allclose(ours, st.poisson.pmf(ks, mu), rtol=1e-12, atol=1e-300)
    assert law.pmf_upto(40).tolist() == ours.tolist()
    assert law.p_zero == math.exp(-mu)
    assert law.pmf(-1) == 0.0


@pytest.mark.parametrize("mu", [-0.1, math.inf, math.nan])
def test_pmf_rejects_bad_mean(mu):
    with pytest.raises(ValueError):
        PoissonApprox(mu)


def test_from_plugin_mean():
    law = PoissonApprox.from_plugin(n=100, d=2, eps=0.05, q2=0.7)
    assert law.mu == pytest.approx(100 * 99 / 2 * ball_volume(2, 0.05) * 0.7, rel=1e-15)
    with pytest.raises(ValueError):
        PoissonApprox.from_plugin(1, 1, 0.1, 1.0)
    with pytest.raises(ValueError):
        PoissonApprox.from_plugin(10, 1, 0.1, -0.2)


def test_poisson_p_key_closed_form():
    p = poisson_p_key(50, 1, 0.01, 0.5)
    assert p == pytest.approx(math.exp(-50 * 49 / 2 * 0.02 * 0.5), rel=1e-15)
    assert poisson_p_key(50, 1, 1e-12, 0.5) == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# Exp(1) pivot interval
# ---------------------------------------------------------------------------

def test_exp_pivot_hand_case():
    # Y_n = 1, d = 1: denom = n^2 * 2 * 1
    s = SeriesSample([0.0, 1.0, 3.0])
    ci = _pivot(s, level=0.95)
    denom = 9 * 2.0
    assert ci.lower == pytest.approx(-2.0 * math.log(0.975) / denom, rel=1e-14)
    assert ci.upper == pytest.approx(-2.0 * math.log(0.025) / denom, rel=1e-14)
    assert ci.method == "exp_pivot" and ci.level == 0.95
    assert 0.0 < ci.lower < ci.upper


def test_exp_pivot_dimension_power():
    # d = 2 uses Y^2: points at distance 0.5 on one axis
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [9.0, 9.0]])
    ci = _pivot(SeriesSample(pts), level=0.9)
    denom = 9 * math.pi * 0.25
    assert ci.lower == pytest.approx(-2.0 * math.log(0.95) / denom, rel=1e-13)
    assert ci.upper == pytest.approx(-2.0 * math.log(0.05) / denom, rel=1e-13)


def test_exp_pivot_nests_with_level():
    s = SeriesSample(RngStream(5, 0).generator().random(100))
    lo = _pivot(s, level=0.5)
    hi = _pivot(s, level=0.99)
    assert hi.lower < lo.lower and lo.upper < hi.upper


def test_exp_pivot_validation():
    with pytest.raises(ValueError, match="duplicate"):
        _pivot(SeriesSample([1.0, 1.0, 2.0]))
    # rows 1e-200 apart: the squared gap underflows to 0
    with pytest.raises(ValueError, match=r"zero \(duplicate rows, or a squared distance below"):
        _pivot(SeriesSample([0.0, 1e-200, 1.0, 2.0]))
    with pytest.raises(ValueError):
        exp_pivot_ci(1, 1, 1.0)
    with pytest.raises(ValueError):
        _pivot(SeriesSample([0.0, 1.0]), level=1.0)


@pytest.mark.parametrize("n,d,y,level", [
    (1, 1, 1.0, 0.95),
    (10, 0, 1.0, 0.95),
    (10, 65, 1.0, 0.95),
    (10, 1, -1.0, 0.95),
    (10, 1, math.nan, 0.95),
    (10, 1, math.inf, 0.95),
    (10, 1, 1.0, 0.0),
    (10, 1, 1.0, 1.0),
])
def test_exp_pivot_rejects_bad_inputs(n, d, y, level):
    with pytest.raises(ValueError):
        exp_pivot_ci(n, d, y, level=level)


@pytest.mark.parametrize("n,d,y", [
    (6, 32, 1e10),                  # y**d overflows
    (100, 3, 1e102),                # n^2 b_1(d) y**d overflows
    (6, 3, 1e-150),                 # y**d underflows to 0
    (6, 3, math.sqrt(3) * 1e-105),  # the upper bound overflows
])
def test_exp_pivot_rejects_infinite_bounds(n, d, y):
    with pytest.raises(ValueError, match=re.escape(f"minimum distance {y} in dimension {d}")):
        exp_pivot_ci(n, d, y)


# ---------------------------------------------------------------------------
# normal intervals
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def report():
    s = SeriesSample(RngStream(6, 0).generator().normal(size=400))
    return estimate_report(s, EstimateConfig(eps=0.2, r=2))


@pytest.mark.parametrize(
    "target,regime,method",
    [
        ("q2", "sqrtn", "normal_q2"),
        ("h2", "sqrtn", "normal_h2"),
        ("q2", "neps", "normal_q2_low_eps"),
        ("h2", "neps", "normal_h2_low_eps"),
    ],
)
def test_normal_ci_formulas(report, target, regime, method):
    level = 0.95
    ci = normal_ci(report, target=target, regime=regime, level=level)
    z = normal_quantile(0.975)
    if regime == "sqrtn":
        half = z * report.w_hat / math.sqrt(report.n)
    else:
        half = z * report.u_hat / (report.n * report.eps**0.5)
    if target == "q2":
        center = report.q2_hat
    else:
        center = report.h2_hat
        half /= report.q2_hat
    assert ci.method == method
    assert ci.lower == pytest.approx(center - half, rel=1e-13)
    assert ci.upper == pytest.approx(center + half, rel=1e-13)
    assert ci.contains(center)


def test_normal_ci_width_shrinks_with_level(report):
    a = normal_ci(report, "q2", "sqrtn", level=0.5)
    b = normal_ci(report, "q2", "sqrtn", level=0.99)
    assert (a.upper - a.lower) < (b.upper - b.lower)


def test_normal_ci_validation(report):
    with pytest.raises(ValueError):
        normal_ci(report, "q3", "sqrtn")
    with pytest.raises(ValueError):
        normal_ci(report, "q2", "exact")
    with pytest.raises(ValueError):
        normal_ci(report, "q2", "sqrtn", level=0.0)


def test_normal_ci_entropy_needs_positive_q2():
    s = SeriesSample(np.arange(10.0) * 50.0)
    rep = estimate_report(s, EstimateConfig(eps=0.01))
    assert rep.q2_hat == 0.0
    with pytest.raises(ValueError, match="q2_hat"):
        normal_ci(rep, "h2", "sqrtn")


# ---------------------------------------------------------------------------
# interval container
# ---------------------------------------------------------------------------

def test_interval_contains_is_closed():
    ci = ConfidenceInterval(lower=1.0, upper=2.0, level=0.9, method="m")
    assert ci.contains(1.0) and ci.contains(2.0) and not ci.contains(2.0001)
    assert ci.to_dict() == {"lower": 1.0, "upper": 2.0, "level": 0.9, "method": "m"}


def test_interval_validation():
    with pytest.raises(ValueError):
        ConfidenceInterval(lower=2.0, upper=1.0, level=0.9, method="m")
    with pytest.raises(ValueError):
        ConfidenceInterval(lower=0.0, upper=1.0, level=1.5, method="m")
