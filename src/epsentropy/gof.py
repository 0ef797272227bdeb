"""Maximum-entropy goodness of fit under known first and second moments.

Among densities on the ellipsoidal support {(x-mu)' Sigma^{-1} (x-mu) <= 4+d}
with mean mu and covariance Sigma, the Pearson type-II law maximizes
quadratic Renyi entropy, and its entropy depends on Sigma only through
log sqrt(det Sigma).  The scale-free statistic

    exp(h2_hat) / sqrt(det Sigma_n)

therefore converges to the constant k_d(d) exactly under the maximum-entropy
null, and to something strictly smaller under alternatives.  k_d comes from
core, beside the unit-ball volume whose Gamma recursion it shares.  The test
emits the ratio statistic / k_d plus a directional verdict: reject when the
ratio falls below 1 - delta.  No support check is attempted; under a
misspecified support the ratio is still reported and simply loses its
calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import SeriesSample, ball_volume, checked_q2, k_d
from .paircount import count_subset_pairs

__all__ = ["GofResult", "sample_covariance", "k_d", "gof_statistic"]


@dataclass(frozen=True)
class GofResult:
    n: int
    d: int
    eps: float
    statistic: float
    k_d: float
    ratio: float
    h2_hat: float
    det_sigma: float
    delta: float
    reject: bool
    h2_clamped: bool

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def sample_covariance(sample: SeriesSample) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and covariance with the 1/(n-1) normalization."""
    if sample.n < 2:
        raise ValueError("covariance needs at least two observations")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = sample.points.mean(axis=0)
        centered = sample.points - mean
        cov = centered.T @ centered / (sample.n - 1)
    if not np.all(np.isfinite(cov)):
        raise ValueError(
            f"sample covariance overflows in dimension {sample.d}: the values are too far "
            "apart for float arithmetic"
        )
    return mean, cov


def gof_statistic(sample: SeriesSample, eps: float, delta: float = 0.1) -> GofResult:
    """Scale-free max-entropy statistic and its ratio to the limit constant.

    The ratio is exactly invariant under joint rescaling (x, eps) -> (cx, c
    eps) as long as the entropy clamp stays inactive; h2_clamped flags the
    degenerate case.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    n = sample.n
    # q2_hat alone: the full estimate_report would add a lagged-triple pass
    pairs = count_subset_pairs(sample.points, [range(sample.d)], eps)[0]
    q2 = checked_q2(pairs / (n * (n - 1) / 2) / ball_volume(sample.d, eps), eps, sample.d)
    clamped = q2 < 1.0 / n
    h2 = -math.log(max(q2, 1.0 / n))
    _, cov = sample_covariance(sample)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError("sample covariance is singular; statistic undefined") from None
    diag = np.diagonal(chol)
    if np.any(diag < 1e-150):
        raise ValueError("sample covariance is numerically singular; statistic undefined")
    root_det = float(np.prod(diag))
    constant = k_d(sample.d)
    # each diagonal passed the check above, but their product may underflow
    stat = math.exp(h2) / root_det if root_det else math.inf
    if not math.isfinite(stat):
        raise ValueError(
            f"gof statistic overflows at radius {eps} in dimension {sample.d}: "
            "the covariance determinant underflows"
        )
    ratio = stat / constant
    return GofResult(
        n=n,
        d=sample.d,
        eps=float(eps),
        statistic=stat,
        k_d=constant,
        ratio=ratio,
        h2_hat=h2,
        det_sigma=root_det**2,
        delta=float(delta),
        reject=ratio < 1.0 - delta,
        h2_clamped=bool(clamped),
    )
