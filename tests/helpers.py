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

# A gap or square past the float range is inf, as in the package, and the
# comparisons on it stay exact, so the oracles run with overflow ignored.

@np.errstate(over="ignore")
def brute_pair_count(points, eps: float) -> int:
    pts = np.asarray(points, dtype=np.float64)
    eps_sq = eps * eps
    n = pts.shape[0]
    total = 0
    for i in range(n - 1):
        sq = np.sum((pts[i + 1 :] - pts[i]) ** 2, axis=1)
        total += int(np.sum(sq <= eps_sq))
    return total


@np.errstate(over="ignore")
def brute_close_pairs(points, eps: float) -> set[tuple[int, int]]:
    pts = np.asarray(points, dtype=np.float64)
    eps_sq = eps * eps
    out = set()
    for i in range(pts.shape[0] - 1):
        for j in range(i + 1, pts.shape[0]):
            if float(np.sum((pts[i] - pts[j]) ** 2)) <= eps_sq:
                out.add((i, j))
    return out


@np.errstate(over="ignore")
def brute_min_distance(points) -> float:
    pts = np.asarray(points, dtype=np.float64)
    best = math.inf
    for i in range(pts.shape[0] - 1):
        sq = np.sum((pts[i + 1 :] - pts[i]) ** 2, axis=1)
        best = min(best, float(sq.min()))
    return math.sqrt(best)


@np.errstate(over="ignore")
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
# report formulas, one sample at a time
# ---------------------------------------------------------------------------

def scalar_estimates(n: int, n_close: int, triples, b_eps: float, b2: float, b1: float) -> dict:
    """The report's estimates of one sample from its exact counts, one Python
    float operation at a time, in the order the formulas are written.

    b_eps = ball_volume(d, eps), b2 = ball_volume(d, eps0) ** 2 and
    b1 = unit_ball_volume(d) come from the caller.
    """
    floor = 1.0 / n
    qn = n_close / (n * (n - 1) / 2)
    q2 = qn / b_eps
    h2 = -math.log(max(q2, floor))
    norms = [(n - 1) * (n - 1) * (n - 2)] + [(n - h - 1) * (n - 2) * (n - 3)
                                             for h in range(1, len(triples))]
    u3 = tuple(t / (norm * b2) for t, norm in zip(triples, norms))
    h3 = -0.5 * math.log(max(u3[0], floor))
    q_sq = q2 * q2
    z = u3[0] - q_sq
    for uh in u3[1:]:
        z += 2.0 * (uh - q_sq)
    w = math.sqrt(2.0 * q2 / (n * b_eps) + 4.0 * max(z, floor))
    u = math.sqrt(2.0 * max(q2, floor) / b1)
    return {"qn_raw": qn, "q2_hat": q2, "h2_hat": h2, "u3_hat": u3, "h3_hat": h3,
            "zeta_hat": z, "w_hat": w, "u_hat": u}


def scalar_residual(kind: str, truth: float, n: int, eps: float, d: int, est: dict) -> float:
    """The pivotal residual of scalar_estimates for a residual kind's name."""
    sqrt_n = kind in ("q_sqrtn", "h_sqrtn")
    scale = est["w_hat"] if sqrt_n else est["u_hat"]
    root = math.sqrt(n) if sqrt_n else n * eps ** (d / 2.0)
    if kind.startswith("q"):
        return root * (est["q2_hat"] - truth) / scale
    return root * est["q2_hat"] * (est["h2_hat"] - truth) / scale


# ---------------------------------------------------------------------------
# reference normal quantile
# ---------------------------------------------------------------------------

# A frozen copy of the package's former AS 241 (PPND16) evaluation: boolean
# masks, q[central] gathered again for each use, and a polynomial helper
# that allocates per step.  The package's one-pass version must agree with
# it bit for bit on every input.
_REF_A = (
    3.3871328727963666080e0,
    1.3314166789178437745e2,
    1.9715909503065514427e3,
    1.3731693765509461125e4,
    4.5921953931549871457e4,
    6.7265770927008700853e4,
    3.3430575583588128105e4,
    2.5090809287301226727e3,
)
_REF_B = (
    1.0,
    4.2313330701600911252e1,
    6.8718700749205790830e2,
    5.3941960214247511077e3,
    2.1213794301586595867e4,
    3.9307895800092710610e4,
    2.8729085735721942674e4,
    5.2264952788528545610e3,
)
_REF_C = (
    1.42343711074968357734e0,
    4.63033784615654529590e0,
    5.76949722146069140550e0,
    3.64784832476320460504e0,
    1.27045825245236838258e0,
    2.41780725177450611770e-1,
    2.27238449892691845833e-2,
    7.74545014278341407640e-4,
)
_REF_D = (
    1.0,
    2.05319162663775882187e0,
    1.67638483018380384940e0,
    6.89767334985100004550e-1,
    1.48103976427480074590e-1,
    1.51986665636164571966e-2,
    5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_REF_E = (
    6.65790464350110377720e0,
    5.46378491116411436990e0,
    1.78482653991729133580e0,
    2.96560571828504891230e-1,
    2.65321895265761230930e-2,
    1.24266094738807843860e-3,
    2.71155556874348757815e-5,
    2.01033439929228813265e-7,
)
_REF_F = (
    1.0,
    5.99832206555887937690e-1,
    1.36929880922735805310e-1,
    1.48753612908506148525e-2,
    7.86869131145613259100e-4,
    1.84631831751005468180e-5,
    1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)



def _ref_polyval(coeffs, x):
    acc = np.zeros_like(x) + coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


def mask_normal_quantile(p):
    """Phi^{-1}(p) for p in (0, 1), evaluated as the package did before its
    one-pass form."""
    arr = np.asarray(p, dtype=np.float64)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    q = arr - 0.5
    out = np.empty_like(arr)

    central = np.abs(q) <= 0.425
    if np.any(central):
        r = 0.180625 - q[central] ** 2
        out[central] = q[central] * _ref_polyval(_REF_A, r) / _ref_polyval(_REF_B, r)

    if np.any(~central):
        qt = q[~central]
        pt = np.where(qt < 0.0, arr[~central], 1.0 - arr[~central])
        r = np.sqrt(-np.log(pt))
        near = r <= 5.0
        val = np.empty_like(r)
        if np.any(near):
            rr = r[near] - 1.6
            val[near] = _ref_polyval(_REF_C, rr) / _ref_polyval(_REF_D, rr)
        if np.any(~near):
            rr = r[~near] - 5.0
            val[~near] = _ref_polyval(_REF_E, rr) / _ref_polyval(_REF_F, rr)
        out[~central] = np.where(qt < 0.0, -val, val)

    if np.isscalar(p) or arr.ndim == 0:
        return float(out)
    return out


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
