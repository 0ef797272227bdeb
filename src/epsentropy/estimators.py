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
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .core import SeriesSample, ball_volume, checked_int, checked_q2, unit_ball_volume
from .paircount import _counts, _exact_min_sq
# the d >= 2 lag probes and per-lag triple counts, under the names of the steps they replaced
from .paircount import (  # noqa: F401  (unused; perfbench/spans.py wraps them)
    _lag_triples as _uh_count_from_masks,
    _probe_hits as _adjacency_masks,
    close_pairs,
    count_close_pairs,
)

__all__ = [
    "EstimateConfig",
    "EstimateReport",
    "ResidualKind",
    "estimate_report",
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
        if checked_int(self.r, "r") < 0:
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
        return {f.name: getattr(self, f.name) for f in fields(self)} | {"u3_hat": list(self.u3_hat)}


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


def _zeta_from(q2_hat: np.ndarray, u3: np.ndarray) -> np.ndarray:
    """(u3[0] - q^2) + 2 sum_{h=1}^{r} (u3[h] - q^2), the long-run variance plug-in.

    Deliberately not clamped: small negative values are informative (they
    flag a weak signal or an r far above the true dependence range).  The
    discrete side uses the same formula for s2.  Over k samples: q2_hat of
    shape (k,) and u3 of shape (k, r+1).  The terms are added in lag order
    (np.add.accumulate is a left fold), as the sum is written.
    """
    q_sq = q2_hat * q2_hat
    terms = u3 - q_sq[:, None]
    terms[:, 1:] *= 2.0
    return np.add.accumulate(terms, axis=1)[:, -1]


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


class _Estimates(NamedTuple):
    """The estimates of k samples, one entry per sample (a row of u3)."""

    qn: np.ndarray
    q2: np.ndarray
    h2: np.ndarray
    u3: np.ndarray
    h3: np.ndarray
    z: np.ndarray
    w: np.ndarray
    u: np.ndarray
    finite: np.ndarray

    def check(self, config: EstimateConfig, d: int) -> None:
        """Raise the report error of the first sample whose estimates are not all finite."""
        bad = np.flatnonzero(~self.finite)
        if bad.size:
            checked_q2(float(self.q2[bad[0]]), config.eps, d)
            # a subnormal ball volume at eps or eps0 (w divides q2 by b_eps once more)
            raise ValueError(f"estimates overflow at radius {config.eps} "
                             f"(eps0 {config.resolved_eps0}) in dimension {d}")


@np.errstate(over="ignore", invalid="ignore")
def _estimates(n: int, d: int, config: EstimateConfig, volumes: tuple[float, float],
               n_close, triples) -> _Estimates:
    """The estimates of k samples of n points in R^d from their exact counts.

    n_close holds the k pair counts and triples the k lists of r+1
    lagged-triple counts; volumes come from _checked_volumes.  Every step
    is elementwise in the order of the one-sample formula, converting each
    count to float once.  The logs are math.log per value, since numpy's
    log may round differently from libm's; np.sqrt is correctly rounded,
    as math.sqrt is.  So a sample's estimates have the same bits whatever
    samples it is computed with.
    Nothing raises here: finite flags the samples whose estimates are all
    finite, and check() raises for the first other one.
    """
    b_eps, b2 = volumes
    floor = 1.0 / n
    qn = np.asarray(n_close, dtype=np.float64) / (n * (n - 1) / 2)
    q2 = qn / b_eps
    q2_floored = np.maximum(q2, floor)
    h2 = np.array([-math.log(v) for v in q2_floored.tolist()])
    norm = np.array([triple_normalizer(n, h) * b2 for h in range(config.r + 1)])
    u3 = np.asarray(triples, dtype=np.float64).reshape(-1, norm.shape[0]) / norm
    h3 = np.array([-0.5 * math.log(v) for v in np.maximum(u3[:, 0], floor).tolist()])
    z = _zeta_from(q2, u3)
    w = np.sqrt(2.0 * q2 / (n * b_eps) + 4.0 * np.maximum(z, floor))
    u = np.sqrt(2.0 * q2_floored / unit_ball_volume(d))
    finite = np.isfinite(np.column_stack((u3, q2, h2, h3, z, w, u))).all(axis=1)
    return _Estimates(qn, q2, h2, u3, h3, z, w, u, finite)


def estimate_report(sample: SeriesSample, config: EstimateConfig) -> EstimateReport:
    """All estimates of one sample, from one paircount._counts call on it (a view).

    A 1-D sample is sorted once and a d >= 2 sample walks its windows once,
    at the larger radius; the pairs, the minimum distance and every lag
    come from that pass.  The estimates come from the counts by the
    formulas a study uses (_estimates, over one sample).
    """
    n, d = sample.n, sample.d
    volumes = _checked_volumes(n, d, config)
    eps, eps0 = float(config.eps), config.resolved_eps0
    [(count, min_sq, triples)] = _counts(sample.points[None], eps, eps0, range(config.r + 1))
    e = _estimates(n, d, config, volumes, [count], [triples])
    e.check(config, d)
    min_sq = _exact_min_sq(sample.points, min_sq, max(eps * eps, eps0 * eps0))
    return EstimateReport(
        n=n, d=d, eps=eps, eps0=eps0, r=config.r, n_pairs_close=count,
        min_distance=math.sqrt(min_sq), qn_raw=float(e.qn[0]), q2_hat=float(e.q2[0]),
        h2_hat=float(e.h2[0]), u3_hat=tuple(e.u3[0].tolist()), h3_hat=float(e.h3[0]),
        zeta_hat=float(e.z[0]), w_hat=float(e.w[0]), u_hat=float(e.u[0]))


def _scaler(kind: ResidualKind, w_hat, u_hat):
    """The residual's scale: w_hat in the sqrt(n) regime, u_hat in the n eps^{d/2} one."""
    return w_hat if kind in (ResidualKind.Q_SQRTN, ResidualKind.H_SQRTN) else u_hat


def _checked_scale(scale: float) -> None:
    if not scale > 0.0:
        raise ValueError(f"degenerate scaler {scale}; residual undefined")


def _residual(kind: ResidualKind, truth: float, n: int, eps: float, d: int, q2_hat, h2_hat, scale):
    """The pivotal residual from the estimates, elementwise over arrays of them."""
    sqrt_n = kind in (ResidualKind.Q_SQRTN, ResidualKind.H_SQRTN)
    root = math.sqrt(n) if sqrt_n else n * eps ** (d / 2.0)
    if kind in (ResidualKind.Q_SQRTN, ResidualKind.Q_NEPS):
        return root * (q2_hat - truth) / scale
    return root * q2_hat * (h2_hat - truth) / scale


def residual_from_report(report: EstimateReport, truth: float, kind: ResidualKind) -> float:
    """Pivotal residual from an existing report.

    truth is the population q2 for the Q kinds and the population h2 for the
    H kinds.  Under the matching limit regime the residual is asymptotically
    standard normal.
    """
    kind = ResidualKind(kind)
    scale = _scaler(kind, report.w_hat, report.u_hat)
    _checked_scale(scale)
    return _residual(kind, float(truth), report.n, report.eps, report.d, report.q2_hat,
                     report.h2_hat, scale)


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
