"""Independent oracles: brute-force enumerations and quadrature truths.

Nothing here shares code with the package: pair and triple counts are
literal loops over index sets, and distribution constants come from scipy
quadrature instead of closed forms.  Tests compare package output against
these routes.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import integrate


# ---------------------------------------------------------------------------
# combinatorial oracles
# ---------------------------------------------------------------------------

def brute_pair_count(points, eps: float) -> int:
    pts = np.asarray(points, dtype=np.float64)
    eps_sq = eps * eps
    n = pts.shape[0]
    total = 0
    for i in range(n - 1):
        sq = np.sum((pts[i + 1 :] - pts[i]) ** 2, axis=1)
        total += int(np.sum(sq <= eps_sq))
    return total


def brute_close_pairs(points, eps: float) -> set[tuple[int, int]]:
    pts = np.asarray(points, dtype=np.float64)
    eps_sq = eps * eps
    out = set()
    for i in range(pts.shape[0] - 1):
        for j in range(i + 1, pts.shape[0]):
            if float(np.sum((pts[i] - pts[j]) ** 2)) <= eps_sq:
                out.add((i, j))
    return out


def brute_min_distance(points) -> float:
    pts = np.asarray(points, dtype=np.float64)
    best = math.inf
    for i in range(pts.shape[0] - 1):
        sq = np.sum((pts[i + 1 :] - pts[i]) ** 2, axis=1)
        best = min(best, float(sq.min()))
    return math.sqrt(best)


def brute_uh_count(points, h: int, eps0: float) -> int:
    """Literal enumeration of lagged triples: anchors (i, i+h), witnesses j, k."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    eps_sq = eps0 * eps0
    close = [
        [float(np.sum((pts[a] - pts[b]) ** 2)) <= eps_sq for b in range(n)] for a in range(n)
    ]
    total = 0
    for i in range(n - h - 1):
        for j in range(n):
            if j == i or j == i + h or not close[i][j]:
                continue
            for k in range(n):
                if k == i or k == i + h or k == j:
                    continue
                if close[i + h][k]:
                    total += 1
    return total


def bisect_rank_windows(values, eps_sq: float) -> tuple[np.ndarray, np.ndarray]:
    """Windows [lo, hi) of sorted values by bisection on the exact squared
    test fl(fl(v[q] - v[p])^2) <= eps_sq, one point at a time, on each side.

    Python floats round like float64, and their products overflow to inf
    rather than raising.
    """
    v = [float(t) for t in values]
    n = len(v)
    lo, hi = [], []
    for p in range(n):
        a, b = 0, p  # the first position within eps is in [a, b]
        while a < b:
            mid = (a + b) // 2
            gap = v[p] - v[mid]
            if gap * gap <= eps_sq:
                b = mid
            else:
                a = mid + 1
        lo.append(a)
        a, b = p, n - 1  # the last position within eps is in [a, b]
        while a < b:
            mid = (a + b + 1) // 2
            gap = v[mid] - v[p]
            if gap * gap <= eps_sq:
                a = mid
            else:
                b = mid - 1
        hi.append(a + 1)
    return np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)


def brute_discrete_q2(symbols) -> float:
    arr = np.asarray(symbols)
    if arr.ndim == 1:
        arr = arr[:, None]
    n = arr.shape[0]
    matches = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            if np.array_equal(arr[i], arr[j]):
                matches += 1
    return matches / (n * (n - 1) / 2)


def brute_discrete_uh_count(symbols, h: int) -> int:
    arr = np.asarray(symbols)
    if arr.ndim == 1:
        arr = arr[:, None]
    n = arr.shape[0]
    same = [[bool(np.array_equal(arr[a], arr[b])) for b in range(n)] for a in range(n)]
    total = 0
    for i in range(n - h - 1):
        for j in range(n):
            if j == i or j == i + h or not same[i][j]:
                continue
            for k in range(n):
                if k == i or k == i + h or k == j:
                    continue
                if same[i + h][k]:
                    total += 1
    return total


# ---------------------------------------------------------------------------
# quadrature truths
# ---------------------------------------------------------------------------

def quad_power_integral(pdf, lo: float, hi: float, power: int) -> float:
    val, err = integrate.quad(lambda x: pdf(x) ** power, lo, hi, limit=300)
    assert err < 1e-8
    return val


def gaussian_pdf(sigma: float):
    c = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    return lambda x: c * math.exp(-0.5 * (x / sigma) ** 2)


def lognormal_pdf(sigma: float):
    c = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    return lambda x: c / x * math.exp(-0.5 * (math.log(x) / sigma) ** 2) if x > 0 else 0.0


def cauchy_pdf(x: float) -> float:
    return 1.0 / (math.pi * (1.0 + x * x))


def pearson2_d1_pdf(x: float) -> float:
    # standard form: support |x| <= sqrt(5), unit variance
    if abs(x) > math.sqrt(5.0):
        return 0.0
    return 3.0 / (4.0 * math.sqrt(5.0)) * (1.0 - x * x / 5.0)


@lru_cache(maxsize=None)
def gauss_pair_product(rho: float, sigma: float = 1.0) -> float:
    """E[p(X) p(Y)] for (X, Y) centered bivariate normal, unit-free oracle.

    Computed by double quadrature of p(x) p(y) times the joint density; no
    closed form is used.
    """
    if rho >= 1.0:
        pdf = gaussian_pdf(sigma)
        return quad_power_integral(pdf, -12.0 * sigma, 12.0 * sigma, 3)
    p = gaussian_pdf(sigma)
    s2 = sigma * sigma
    det = s2 * s2 * (1.0 - rho * rho)
    c = 1.0 / (2.0 * math.pi * math.sqrt(det))

    def joint(y, x):
        q = (x * x - 2.0 * rho * x * y + y * y) / (s2 * (1.0 - rho * rho))
        return p(x) * p(y) * c * math.exp(-0.5 * q)

    lim = 10.0 * sigma
    val, err = integrate.dblquad(joint, -lim, lim, -lim, lim, epsabs=1e-10)
    assert err < 1e-8
    return val


@lru_cache(maxsize=None)
def ma2_zeta_oracle() -> float:
    """Long-run variance of the marginal density along the MA(2) path.

    Var(p(X_1)) + 2 sum_h Cov(p(X_1), p(X_{1+h})) with lag correlations
    2/3 and 1/3 for equal weights 1/sqrt(3), all terms by quadrature.
    """
    q2 = quad_power_integral(gaussian_pdf(1.0), -12.0, 12.0, 2)
    var = gauss_pair_product(1.0) - q2 * q2
    cov1 = gauss_pair_product(2.0 / 3.0) - q2 * q2
    cov2 = gauss_pair_product(1.0 / 3.0) - q2 * q2
    return var + 2.0 * (cov1 + cov2)
