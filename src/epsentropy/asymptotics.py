"""Limit-regime tools: Poisson approximation, pivot and normal intervals.

Three regimes of the close-pair count N_n at radius eps:

* n^2 eps^d -> 0: N_n vanishes; the minimum inter-point distance carries the
  remaining information and (b_1(d) q2 / 2) n^2 Y_n^d is asymptotically
  Exp(1), which inverts into a confidence interval for q2.
* n^2 eps^d -> a in (0, inf): N_n is asymptotically Poisson with mean
  C(n,2) ball_volume(d, eps) q2.
* n^2 eps^d -> inf: central limit regime; normal intervals from the w / u
  scalers of the estimate report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ball_volume, normal_quantile, unit_ball_volume
from .estimators import EstimateReport
from .paircount import min_interpoint_distance  # noqa: F401  (unused; perfbench/spans.py wraps it)

__all__ = [
    "PoissonApprox",
    "ConfidenceInterval",
    "poisson_p_key",
    "exp_pivot_ci",
    "normal_ci",
]


@dataclass(frozen=True)
class ConfidenceInterval:
    """Closed interval with its nominal level and construction method."""

    lower: float
    upper: float
    level: float
    method: str

    def __post_init__(self) -> None:
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {self.level}")
        if self.lower > self.upper:
            raise ValueError(f"empty interval [{self.lower}, {self.upper}]")

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    def to_dict(self) -> dict:
        return {"lower": self.lower, "upper": self.upper, "level": self.level, "method": self.method}


@dataclass(frozen=True)
class PoissonApprox:
    """Poisson law for the close-pair count in the intermediate regime."""

    mu: float

    def __post_init__(self) -> None:
        if not (self.mu >= 0.0 and math.isfinite(self.mu)):
            raise ValueError(f"mean must be finite and nonnegative, got {self.mu}")

    @classmethod
    def from_plugin(cls, n: int, d: int, eps: float, q2: float) -> "PoissonApprox":
        if n < 2:
            raise ValueError("need n >= 2")
        if not (q2 >= 0.0 and math.isfinite(q2)):
            raise ValueError(f"q2 must be finite and nonnegative, got {q2}")
        return cls(mu=n * (n - 1) / 2 * ball_volume(d, eps) * q2)

    @property
    def p_zero(self) -> float:
        return math.exp(-self.mu)

    def pmf(self, k: int) -> float:
        return float(self.pmf_upto(k)[k]) if k >= 0 else 0.0

    def pmf_upto(self, k_max: int) -> np.ndarray:
        """P(K = k) for k = 0..k_max, by the stable upward recursion (no factorials)."""
        out = np.empty(k_max + 1)
        p = math.exp(-self.mu)
        out[0] = p
        for i in range(1, k_max + 1):
            p *= self.mu / i
            out[i] = p
        return out


def poisson_p_key(n: int, d: int, eps: float, q2: float) -> float:
    """Probability of zero eps-close pairs under the Poisson approximation.

    exp(-C(n,2) ball_volume(d, eps) q2): the chance that n observations show
    no eps-collision, i.e. that the attribute set behaves as an eps-key.
    """
    return PoissonApprox.from_plugin(n, d, eps, q2).p_zero


def exp_pivot_ci(n: int, d: int, min_distance: float, level: float = 0.95) -> ConfidenceInterval:
    """Confidence interval for q2 from the minimum inter-point distance Y_n
    of n points in R^d: a report's min_distance, or
    paircount.min_interpoint_distance of a sample.

    With Z = (b_1(d) q2 / 2) n^2 Y_n^d asymptotically Exp(1), inverting
    c1 <= Z <= c2 at the equal-tail exponential quantiles gives
    [2 c1 / (n^2 b_1(d) Y_n^d), 2 c2 / (n^2 b_1(d) Y_n^d)].  Raises where
    Y_n^d overflows or underflows so far that a bound is not finite.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if n < 2:
        raise ValueError("need n >= 2")
    vol1 = unit_ball_volume(d)
    y = float(min_distance)  # so that y**d raises OverflowError, as numpy scalars do not
    if not (y >= 0.0 and math.isfinite(y)):
        raise ValueError(f"minimum distance must be finite and nonnegative, got {y}")
    if y == 0.0:
        raise ValueError("minimum distance is zero (duplicate rows, or a squared distance "
                         "below the smallest float); pivot degenerate")
    c1 = -math.log((1.0 + level) / 2.0)
    c2 = -math.log((1.0 - level) / 2.0)
    try:
        denom = n * n * vol1 * y**d
    except OverflowError:
        denom = math.inf
    upper = 2.0 * c2 / denom if 0.0 < denom < math.inf else math.inf
    if not math.isfinite(upper):
        raise ValueError(f"pivot interval is not finite at minimum distance {y} in dimension {d}")
    return ConfidenceInterval(lower=2.0 * c1 / denom, upper=upper, level=level, method="exp_pivot")


_NORMAL_CI_METHODS = {
    ("q2", "sqrtn"): "normal_q2",
    ("h2", "sqrtn"): "normal_h2",
    ("q2", "neps"): "normal_q2_low_eps",
    ("h2", "neps"): "normal_h2_low_eps",
}


def normal_ci(report: EstimateReport, target: str, regime: str, level: float = 0.95) -> ConfidenceInterval:
    """Normal interval for q2 or h2 from an estimate report.

    regime "sqrtn" uses the w scaler with rate sqrt(n); regime "neps" uses
    the u scaler with rate n eps^{d/2}.  h2 intervals divide the half-width
    additionally by q2_hat, following the pivot form, and require
    q2_hat > 0.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    method = _NORMAL_CI_METHODS.get((target, regime))
    if method is None:
        raise ValueError(f"unknown target/regime combination ({target!r}, {regime!r})")
    z = normal_quantile((1.0 + level) / 2.0)
    if regime == "sqrtn":
        half = z * report.w_hat / math.sqrt(report.n)
    else:
        half = z * report.u_hat / (report.n * report.eps ** (report.d / 2.0))
    if target == "q2":
        center = report.q2_hat
    else:
        if report.q2_hat <= 0.0:
            raise ValueError("q2_hat is zero; entropy interval undefined")
        center = report.h2_hat
        half /= report.q2_hat
    return ConfidenceInterval(lower=center - half, upper=center + half, level=level, method=method)
