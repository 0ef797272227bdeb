"""Entropy and integral-functional estimators built on epsilon-close counts.

Central quantities, all computed from exact pair/triple counts:

* qn_raw     proportion of eps-close pairs among the C(n,2) index pairs
* q2_hat     qn_raw / ball_volume(d, eps); estimates the quadratic integral
             functional q2 = integral of the squared marginal density
* h2_hat     -log(max(q2_hat, 1/n)); quadratic Renyi entropy estimate
* u3_hat[h]  lagged cubic-functional estimates from coincidence triples at
             radius eps0, h = 0..r
* h3_hat     -(1/2) log(max(u3_hat[0], 1/n))
* zeta_hat   plug-in long-run variance of the local density along the series
* w_hat      scaler for the sqrt(n) central limit regime
* u_hat      scaler for the small-eps (n eps^{d/2}) regime

The clamp floor is fixed at 1/n everywhere a logarithm or a variance needs
protection; clamps keep estimates usable on degenerate samples without
touching the raw counts.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import SeriesSample, ball_volume, checked_q2, unit_ball_volume
from .paircount import (
    _adjacency_masks,
    _stacked_counts_1d,
    _uh_count_from_masks,
    close_pairs,
    count_close_pairs,
)

__all__ = [
    "EstimateConfig",
    "EstimateReport",
    "ResidualKind",
    "estimate_report",
    "estimate_reports",
    "residual",
    "residual_from_report",
    "suggest_eps",
    "triple_normalizer",
]


@dataclass(frozen=True)
class EstimateConfig:
    """Estimation parameters: pair radius eps, triple radius eps0, lag bound r.

    eps0 defaults to eps when omitted.  r is the user's upper bound for the
    dependence range of the series; the variance plug-in sums lags 1..r.
    """

    eps: float
    eps0: float | None = None
    r: int = 0

    def __post_init__(self) -> None:
        if not (float(self.eps) > 0.0 and math.isfinite(self.eps)):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if self.eps0 is not None and not (float(self.eps0) > 0.0 and math.isfinite(self.eps0)):
            raise ValueError(f"eps0 must be positive and finite, got {self.eps0}")
        if not isinstance(self.r, (int, np.integer)) or isinstance(self.r, bool) or self.r < 0:
            raise ValueError(f"r must be a nonnegative integer, got {self.r}")

    @property
    def resolved_eps0(self) -> float:
        return float(self.eps if self.eps0 is None else self.eps0)


@dataclass(frozen=True)
class EstimateReport:
    """Full set of point estimates for one sample under one config."""

    n: int
    d: int
    eps: float
    eps0: float
    r: int
    n_pairs_close: int
    min_distance: float
    qn_raw: float
    q2_hat: float
    h2_hat: float
    u3_hat: tuple[float, ...]
    h3_hat: float
    zeta_hat: float
    w_hat: float
    u_hat: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "eps": self.eps,
            "eps0": self.eps0,
            "r": self.r,
            "n_pairs_close": self.n_pairs_close,
            "min_distance": self.min_distance,
            "qn_raw": self.qn_raw,
            "q2_hat": self.q2_hat,
            "h2_hat": self.h2_hat,
            "u3_hat": list(self.u3_hat),
            "h3_hat": self.h3_hat,
            "zeta_hat": self.zeta_hat,
            "w_hat": self.w_hat,
            "u_hat": self.u_hat,
        }


class ResidualKind(str, enum.Enum):
    """Pivotal residual variants; all are asymptotically standard normal."""

    Q_SQRTN = "q_sqrtn"
    H_SQRTN = "h_sqrtn"
    Q_NEPS = "q_neps"
    H_NEPS = "h_neps"


def triple_normalizer(n: int, h: int) -> int:
    """Number of admissible (i, j, k) triples at lag h.

    (n-h-1)(n-2)(n-3) for h >= 1; the lag-0 index set is larger because only
    one anchor index is excluded: (n-1)(n-1)(n-2).
    """
    if h == 0:
        return (n - 1) * (n - 1) * (n - 2)
    return (n - h - 1) * (n - 2) * (n - 3)


def _zeta_from(q2_hat: float, u3: tuple[float, ...]) -> float:
    """(u3[0] - q^2) + 2 sum_{h=1}^{r} (u3[h] - q^2), the long-run variance plug-in.

    Deliberately not clamped: small negative values are informative (they
    flag a weak signal or an r far above the true dependence range).  The
    discrete side uses the same formula for s2.
    """
    q_sq = q2_hat * q2_hat
    z = u3[0] - q_sq
    for uh in u3[1:]:
        z += 2.0 * (uh - q_sq)
    return z


def _checked_volumes(n: int, d: int, config: EstimateConfig) -> tuple[float, float]:
    """ball_volume(d, eps) and ball_volume(d, eps0) ** 2 for a report on n
    points in R^d, raising where the report would fail before counting."""
    if n < config.r + 4:
        raise ValueError(f"need n >= r + 4 (n={n}, r={config.r})")
    eps0 = config.resolved_eps0
    b_eps = ball_volume(d, float(config.eps))
    # u3[h] estimates E[p(X_1) p(X_{1+h})]; it saturates at
    # ball_volume(d, eps0)^-2 when every indicator fires
    try:
        b2 = ball_volume(d, eps0) ** 2
    except OverflowError:
        raise ValueError(f"squared ball volume overflows at eps0 {eps0} in dimension {d}") from None
    if b2 == 0.0:
        raise ValueError(f"squared ball volume underflows to 0 at eps0 {eps0} in dimension {d}")
    return b_eps, b2


def _report_from_counts(n: int, d: int, config: EstimateConfig, volumes: tuple[float, float],
                        n_close: int, min_distance: float, counts: list[int]) -> EstimateReport:
    """The estimates from the exact pair and lagged-triple counts, with
    volumes from _checked_volumes."""
    b_eps, b2 = volumes
    qn = n_close / (n * (n - 1) / 2)
    q2 = checked_q2(qn / b_eps, config.eps, d)
    h2 = -math.log(max(q2, 1.0 / n))
    u3 = tuple(c / (triple_normalizer(n, h) * b2) for h, c in enumerate(counts))
    h3 = -0.5 * math.log(max(u3[0], 1.0 / n))
    z = _zeta_from(q2, u3)
    w = math.sqrt(2.0 * q2 / (n * b_eps) + 4.0 * max(z, 1.0 / n))
    u = math.sqrt(2.0 * max(q2, 1.0 / n) / unit_ball_volume(d))
    if not all(map(math.isfinite, (h2, *u3, h3, z, w, u))):
        # a subnormal ball volume at eps or eps0 (w divides q2 by b_eps once more)
        raise ValueError(f"estimates overflow at radius {config.eps} (eps0 {config.resolved_eps0}) "
                         f"in dimension {d}")
    return EstimateReport(
        n=n,
        d=d,
        eps=float(config.eps),
        eps0=config.resolved_eps0,
        r=config.r,
        n_pairs_close=n_close,
        min_distance=min_distance,
        qn_raw=qn,
        q2_hat=q2,
        h2_hat=h2,
        u3_hat=u3,
        h3_hat=h3,
        zeta_hat=z,
        w_hat=w,
        u_hat=u,
    )


def estimate_reports(samples, config: EstimateConfig) -> list[EstimateReport]:
    """estimate_report of every sample, in order, counting 1-D samples together.

    Every sample is checked before anything is counted.  1-D samples of
    equal n are stacked and counted a bounded number of values at a time
    (paircount._stacked_counts_1d): one sort along the rows, one window pass
    and a few 1-D passes over the flat stack per lag for all of them.  A
    d >= 2 sample keeps its own pass: pairs at eps, then the pair structure
    at eps0 reused per lag.  The counts are exact, so a report does not
    depend on the samples it was counted with.
    """
    samples = list(samples)
    volumes = [_checked_volumes(s.n, s.d, config) for s in samples]
    eps, eps0 = float(config.eps), config.resolved_eps0
    lags = range(config.r + 1)
    counts: list = [None] * len(samples)
    by_n: dict[int, list[int]] = {}
    for i, s in enumerate(samples):
        if s.d == 1:
            by_n.setdefault(s.n, []).append(i)
            continue
        pair_res = count_close_pairs(s, eps)
        adjacency = _adjacency_masks(s.n, *close_pairs(s, eps0))
        counts[i] = (pair_res.n_pairs_close, pair_res.min_distance,
                     [_uh_count_from_masks(adjacency, s.n, h) for h in lags])
    for idx in by_n.values():
        rows = _stacked_counts_1d([samples[i].points[:, 0] for i in idx], eps, eps0, lags)
        for i, (n_close, min_sq, c) in zip(idx, rows):
            counts[i] = (n_close, math.sqrt(min_sq), c)
    return [_report_from_counts(s.n, s.d, config, v, *c)
            for s, v, c in zip(samples, volumes, counts)]


def estimate_report(sample: SeriesSample, config: EstimateConfig) -> EstimateReport:
    """All estimates of one sample: estimate_reports((sample,), config)[0].

    A 1-D sample is sorted once, and the pairs, the minimum distance and
    every lag come from the windows of that sort.
    """
    return estimate_reports((sample,), config)[0]


def residual_from_report(report: EstimateReport, truth: float, kind: ResidualKind) -> float:
    """Pivotal residual from an existing report.

    truth is the population q2 for the Q kinds and the population h2 for the
    H kinds.  Under the matching limit regime the residual is asymptotically
    standard normal.
    """
    kind = ResidualKind(kind)
    truth = float(truth)
    n = report.n
    if kind in (ResidualKind.Q_SQRTN, ResidualKind.H_SQRTN):
        scale = report.w_hat
    else:
        scale = report.u_hat
    if not scale > 0.0:
        raise ValueError(f"degenerate scaler {scale}; residual undefined")
    root = math.sqrt(n) if kind in (ResidualKind.Q_SQRTN, ResidualKind.H_SQRTN) else n * report.eps ** (report.d / 2.0)
    if kind in (ResidualKind.Q_SQRTN, ResidualKind.Q_NEPS):
        return root * (report.q2_hat - truth) / scale
    return root * report.q2_hat * (report.h2_hat - truth) / scale


def residual(sample: SeriesSample, config: EstimateConfig, truth: float, kind: ResidualKind) -> float:
    return residual_from_report(estimate_report(sample, config), truth, kind)


def suggest_eps(sample: SeriesSample, alpha: float) -> float:
    """Heuristic radius c_hat * n^{-2/(4 alpha + d)} for asserted smoothness alpha.

    c_hat is the root-mean-square per-coordinate standard deviation.  Opt-in
    convenience only; estimators never pick a radius silently.
    """
    alpha = float(alpha)
    if not (0.0 < alpha <= 4.0) or not math.isfinite(alpha):
        raise ValueError(f"smoothness alpha must lie in (0, 4], got {alpha}")
    if sample.n < 2:
        raise ValueError("heuristic radius needs at least two observations")
    c_hat = float(np.sqrt(np.mean(np.var(sample.points, axis=0, ddof=1))))
    if c_hat == 0.0:
        raise ValueError("sample is constant; heuristic radius undefined")
    return c_hat * sample.n ** (-2.0 / (4.0 * alpha + sample.d))
