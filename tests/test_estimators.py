import math

import numpy as np
import pytest
from helpers import brute_pair_count, brute_uh_count, scalar_estimates

from epsentropy import estimators
from epsentropy.core import RngStream, SeriesSample, ball_volume, unit_ball_volume
from epsentropy.estimators import (
    EstimateConfig,
    EstimateReport,
    ResidualKind,
    estimate_report,
    residual_from_report,
    suggest_eps,
    triple_normalizer,
)
from epsentropy.paircount import count_close_pairs, count_uh_triples, min_interpoint_distance


def _sample(seed, n, d=1):
    return SeriesSample(RngStream(seed, 0).generator().normal(size=(n, d)))


def _report(sample, eps, eps0=None, r=0):
    return estimate_report(sample, EstimateConfig(eps=eps, eps0=eps0, r=r))


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_defaults_and_resolution():
    c = EstimateConfig(eps=0.1)
    assert c.resolved_eps0 == 0.1 and c.r == 0
    assert EstimateConfig(eps=0.1, eps0=0.2).resolved_eps0 == 0.2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eps": 0.0},
        {"eps": -1.0},
        {"eps": math.inf},
        {"eps": 0.1, "eps0": 0.0},
        {"eps": 0.1, "r": -1},
        {"eps": 0.1, "r": 1.5},
        {"eps": 0.1, "r": True},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        EstimateConfig(**kwargs)


def test_triple_normalizer_hand_values():
    assert triple_normalizer(6, 0) == 5 * 5 * 4
    assert triple_normalizer(6, 1) == 4 * 4 * 3
    assert triple_normalizer(6, 2) == 3 * 4 * 3
    assert triple_normalizer(10, 3) == 6 * 8 * 7


# ---------------------------------------------------------------------------
# point estimates, hand checks
# ---------------------------------------------------------------------------

def test_q2_hand_case():
    # one close pair out of six (the isolated 10.0 makes n >= r + 4):
    # qn = 1/6, ball volume 2 * 0.15
    s = SeriesSample([0.0, 0.1, 0.5, 10.0])
    rep = _report(s, 0.15)
    assert rep.qn_raw == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert rep.q2_hat == pytest.approx((1.0 / 6.0) / 0.3, rel=1e-14)


def test_q2_matches_brute_normalization():
    s = _sample(12, 300, 2)
    eps = 0.2
    rep = _report(s, eps)
    pairs = brute_pair_count(s.points, eps)
    assert rep.qn_raw == pairs / (300 * 299 / 2)
    assert rep.q2_hat == pytest.approx(rep.qn_raw / ball_volume(2, eps), rel=1e-15)


def test_h2_is_neg_log_q2():
    rep = _report(_sample(13, 200), 0.2)
    assert rep.h2_hat == pytest.approx(-math.log(rep.q2_hat), rel=1e-15)


def test_h2_clamps_at_log_n():
    rep = _report(SeriesSample(np.arange(10.0) * 100.0), 0.001)
    assert rep.q2_hat == 0.0
    assert rep.h2_hat == pytest.approx(math.log(10), rel=1e-15)


@pytest.mark.parametrize("h", [0, 1, 2])
def test_u3_matches_enumeration(h):
    s = _sample(14, 25)
    eps0 = 0.4
    expected = brute_uh_count(s.points, h, eps0) / (
        triple_normalizer(25, h) * ball_volume(1, eps0) ** 2
    )
    assert _report(s, eps0, r=h).u3_hat[h] == pytest.approx(expected, rel=1e-14)


def test_u3_saturation_value():
    # all indicators fire: u3 = ball_volume^{-2} regardless of lag
    s = SeriesSample(np.linspace(0.0, 1e-4, 9))
    u3 = _report(s, 0.5, r=3).u3_hat
    for h in (0, 1, 3):
        assert u3[h] == pytest.approx(ball_volume(1, 0.5) ** -2, rel=1e-14)


def test_h3_definition():
    rep = _report(_sample(15, 60), 0.3)
    u0 = rep.u3_hat[0]
    assert rep.h3_hat == pytest.approx(-0.5 * math.log(max(u0, 1.0 / 60)), rel=1e-15)


def _q2_from_count(s, eps):
    return count_close_pairs(s, eps).n_pairs_close / (s.n * (s.n - 1) / 2) / ball_volume(s.d, eps)


def _u3_from_count(s, h, eps0):
    return count_uh_triples(s, h, eps0) / (triple_normalizer(s.n, h) * ball_volume(s.d, eps0) ** 2)


def test_zeta_composition():
    s = _sample(16, 80)
    q2 = _q2_from_count(s, 0.3)
    u = [_u3_from_count(s, h, 0.25) for h in range(3)]
    expected = (u[0] - q2**2) + 2 * ((u[1] - q2**2) + (u[2] - q2**2))
    assert _report(s, 0.3, 0.25, r=2).zeta_hat == pytest.approx(expected, rel=1e-12)


def test_zeta_not_clamped_below_zero():
    # one tight pair gives q2 > 0 while every triple count at eps0 is zero,
    # so the plug-in lands strictly negative and must stay there
    s = SeriesSample([0.0, 0.05, 10.0, 20.0, 30.0, 40.0])
    assert _report(s, 0.1, 0.01, r=1).zeta_hat < 0.0


def test_w_and_u_formulas():
    rep = _report(_sample(17, 150), 0.2, r=1)
    q2, z = rep.q2_hat, rep.zeta_hat
    w_expected = math.sqrt(2 * q2 / (150 * ball_volume(1, 0.2)) + 4 * max(z, 1 / 150))
    assert rep.w_hat == pytest.approx(w_expected, rel=1e-13)
    u_expected = math.sqrt(2 * max(q2, 1 / 150) / unit_ball_volume(1))
    assert rep.u_hat == pytest.approx(u_expected, rel=1e-13)


# ---------------------------------------------------------------------------
# report and residuals
# ---------------------------------------------------------------------------

def test_report_agrees_with_parts():
    s = _sample(18, 120, 2)
    cfg = EstimateConfig(eps=0.3, eps0=0.2, r=2)
    rep = estimate_report(s, cfg)
    pairs = count_close_pairs(s, 0.3)
    qn = pairs.n_pairs_close / (120 * 119 / 2)
    q2 = _q2_from_count(s, 0.3)
    u3 = tuple(_u3_from_count(s, h, 0.2) for h in range(3))
    assert (rep.n, rep.d, rep.eps, rep.eps0, rep.r) == (120, 2, 0.3, 0.2, 2)
    assert rep.n_pairs_close == pairs.n_pairs_close and rep.min_distance == pairs.min_distance
    assert rep.qn_raw == qn and rep.q2_hat == q2
    assert rep.h2_hat == -math.log(max(q2, 1 / 120))
    assert rep.u3_hat == u3
    assert rep.h3_hat == -0.5 * math.log(max(u3[0], 1 / 120))
    doc = rep.to_dict()
    assert doc["u3_hat"] == list(rep.u3_hat) and doc["n_pairs_close"] == rep.n_pairs_close


@pytest.mark.parametrize("eps,eps0", [
    (0.25, 0.5),
    (0.25, 0.25),
    (0.5, 0.25),
    (0.25, math.nextafter(0.25, 1.0)),  # one ulp apart, and so are the squares
    (5e-155, math.nextafter(5e-155, 1.0)),  # distinct radii, one subnormal square
])
@pytest.mark.parametrize("duplicates", [False, True])
def test_1d_report_matches_separate_calls(eps, eps0, duplicates):
    # the 1-D report sorts once and reuses the windows; each field must
    # equal the call that computes it alone
    pts = RngStream(19, int(duplicates)).generator().normal(size=(300, 1))
    if duplicates:
        pts = np.round(pts * 4) / 4  # ties, and pairs exactly 0.25 or 0.5 apart
    s = SeriesSample(pts)
    rep = _report(s, eps, eps0, r=6)
    assert rep.n_pairs_close == count_close_pairs(s, eps).n_pairs_close
    assert rep.n_pairs_close == brute_pair_count(pts, eps)
    assert rep.min_distance == min_interpoint_distance(s)
    assert rep.u3_hat == tuple(_u3_from_count(s, h, eps0) for h in range(7))


def _hex(fields):
    return {k: tuple(t.hex() for t in v) if isinstance(v, tuple) else v.hex()
            for k, v in fields.items()}


@pytest.mark.parametrize("eps,eps0,r", [(0.25, None, 0), (0.4, 0.3, 4), (0.3, None, 6),
                                        (0.2, 0.15, 5), (0.5, 0.4, 6)])
def test_report_fields_match_the_scalar_formulas(eps, eps0, r):
    # the estimates are computed as arrays, as a study's are; each must have
    # the bits of the one-sample formulas in Python floats.  Random walks make
    # zeta_hat exceed 1/n, so w_hat reads it.
    gen = RngStream(24, 0).generator()
    samples = [SeriesSample(np.cumsum(gen.normal(size=n)) * 0.1) for n in (30, 30, 45)]
    samples.append(_sample(25, 30, 2))
    cfg = EstimateConfig(eps=eps, eps0=eps0, r=r)
    e0 = cfg.resolved_eps0
    reports = [estimate_report(s, cfg) for s in samples]
    for s, report in zip(samples, reports):
        want = scalar_estimates(s.n, count_close_pairs(s, eps).n_pairs_close,
                                [count_uh_triples(s, h, e0) for h in range(r + 1)],
                                ball_volume(s.d, eps), ball_volume(s.d, e0) ** 2,
                                unit_ball_volume(s.d))
        assert _hex({k: getattr(report, k) for k in want}) == _hex(want)
    assert any(rep.zeta_hat > 1.0 / rep.n for rep in reports)


def test_report_checks_n_before_counting(monkeypatch):
    monkeypatch.setattr(estimators, "_counts", lambda *args: pytest.fail("counted"))
    with pytest.raises(ValueError, match=r"need n >= r \+ 4 \(n=6, r=3\)"):
        estimate_report(_sample(19, 6), EstimateConfig(eps=0.1, r=3))


def test_report_rejects_radii_whose_volumes_underflow():
    # the 1-D ball volume at eps0 = 1e-170 is 2e-170, but its square is 0
    one = _sample(19, 6)
    with pytest.raises(ValueError, match="squared ball volume underflows to 0 at eps0 1e-170"):
        estimate_report(one, EstimateConfig(eps=0.1, eps0=1e-170))
    two = _sample(19, 6, 2)
    with pytest.raises(ValueError, match="underflows to 0 at radius 1e-170 in dimension 2"):
        estimate_report(two, EstimateConfig(eps=1e-170))


def test_report_rejects_radii_whose_volumes_overflow():
    # the 1-D ball volume at eps0 = 1e300 is 2e300, but its square overflows
    one = _sample(19, 6)
    with pytest.raises(ValueError, match=r"squared ball volume overflows at eps0 1e\+300 in dimension 1"):
        estimate_report(one, EstimateConfig(eps=1e300))
    with pytest.raises(ValueError, match=r"squared ball volume overflows at eps0 1e\+300 in dimension 1"):
        estimate_report(one, EstimateConfig(eps=0.1, eps0=1e300))
    two = _sample(19, 6, 2)
    with pytest.raises(ValueError, match=r"ball volume overflows at radius 1e\+200 in dimension 2"):
        estimate_report(two, EstimateConfig(eps=1e200))


def test_report_needs_enough_observations():
    with pytest.raises(ValueError):
        estimate_report(_sample(19, 8), EstimateConfig(eps=0.1, r=5))


def test_residual_formulas():
    s = _sample(20, 140)
    cfg = EstimateConfig(eps=0.25, r=1)
    rep = estimate_report(s, cfg)
    truth_q, truth_h = 0.25, 1.4
    root_n = math.sqrt(140)
    rate = 140 * 0.25**0.5
    assert residual_from_report(rep, truth_q, ResidualKind.Q_SQRTN) == pytest.approx(
        root_n * (rep.q2_hat - truth_q) / rep.w_hat, rel=1e-14
    )
    assert residual_from_report(rep, truth_h, ResidualKind.H_SQRTN) == pytest.approx(
        root_n * rep.q2_hat * (rep.h2_hat - truth_h) / rep.w_hat, rel=1e-14
    )
    assert residual_from_report(rep, truth_q, ResidualKind.Q_NEPS) == pytest.approx(
        rate * (rep.q2_hat - truth_q) / rep.u_hat, rel=1e-14
    )
    assert residual_from_report(rep, truth_h, ResidualKind.H_NEPS) == pytest.approx(
        rate * rep.q2_hat * (rep.h2_hat - truth_h) / rep.u_hat, rel=1e-14
    )
    # string kinds
    assert residual_from_report(rep, truth_q, "q_sqrtn") == residual_from_report(
        rep, truth_q, ResidualKind.Q_SQRTN
    )


def test_residual_rejects_degenerate_scaler():
    rep = EstimateReport(
        n=10, d=1, eps=0.1, eps0=0.1, r=0, n_pairs_close=0, min_distance=1.0,
        qn_raw=0.0, q2_hat=0.0, h2_hat=math.log(10), u3_hat=(0.0,), h3_hat=0.0,
        zeta_hat=0.0, w_hat=0.0, u_hat=0.0,
    )
    with pytest.raises(ValueError, match="degenerate"):
        residual_from_report(rep, 0.0, ResidualKind.Q_SQRTN)


def test_residual_kind_parsing():
    assert ResidualKind("h_neps") is ResidualKind.H_NEPS
    with pytest.raises(ValueError):
        ResidualKind("bogus")


# ---------------------------------------------------------------------------
# radius heuristic
# ---------------------------------------------------------------------------

def test_suggest_eps_formula():
    pts = RngStream(21, 0).generator().normal(size=(500, 2)) * 3.0
    s = SeriesSample(pts)
    c_hat = math.sqrt(np.mean(np.var(pts, axis=0, ddof=1)))
    assert suggest_eps(s, 2.0) == pytest.approx(c_hat * 500 ** (-2.0 / 10.0), rel=1e-13)


def test_suggest_eps_validation():
    s = _sample(22, 50)
    for alpha in (0.0, -1.0, 4.5, math.nan):
        with pytest.raises(ValueError):
            suggest_eps(s, alpha)
    with pytest.raises(ValueError):
        suggest_eps(SeriesSample([1.0]), 2.0)
    with pytest.raises(ValueError):
        suggest_eps(SeriesSample([3.0, 3.0, 3.0]), 2.0)
