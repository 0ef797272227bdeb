"""Stationary m-dependent test-bed processes with known marginal functionals.

Every generator consumes an RngStream and returns a GeneratedSeries whose
ProcessSpec echoes the construction and, where the marginal law is known in
closed form, carries the population values of the estimated functionals
(q2 = integral p^2, h2 = -log q2, q3 = integral p^3, h3 = -(1/2) log q3,
and the long-run density variance zeta when it is known exactly).

Each family is written once, as two layers (a Sampler): a draw of the
series' uniforms from a block of streams seeded in one pass, and a shape
step that turns a (k, width) block of drawn rows into k samples, running
the elementwise work once per block.
One table maps each family name to its params reader (ProcessSpec.from_json)
and its Sampler builder (sampler).  generate is the k = 1 case; a replicate
study draws many streams and shapes them together, with the same bits per
row.  Streams and the pearson2 constant k_d come from core, so generating
imports no statistic module.

Families:

* gaussian_ma      X_t = sum_k theta_k Z_{t-k}, Gaussian innovations
* lognormal_ma     exp of a gaussian_ma series
* cauchy_ratio     X_t = Z_t / Z_{t+1}, standard Cauchy marginal, 1-dependent
* copula_onedep    Y_t = F^{-1}(C^{-1}_{2|1}(U_{t+1} | U_t)), Clayton copula
* pearson2         elliptically contoured Pearson type-II marginal in R^d,
                   m-dependence through overlapping innovation windows
* iid_uniform      independent Uniform[0,1]^d rows (regime probes)
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import RngStream, SeriesSample, checked_int, k_d, normal_quantile, stream_generator, stream_words

__all__ = [
    "ProcessTruth",
    "ProcessSpec",
    "GeneratedSeries",
    "Sampler",
    "generate",
    "sampler",
    "gaussian_ma_process",
    "lognormal_ma_process",
    "cauchy_ratio_process",
    "copula_onedep_process",
    "pearson2_process",
    "iid_uniform_process",
    "ma2_normal_process",
    "lognormal_onedep_process",
    "pearson2_quantile",
    "COPULA_MARGINALS",
]


@dataclass(frozen=True)
class ProcessTruth:
    """Population values of the estimated functionals, where known."""

    q2: float | None = None
    h2: float | None = None
    q3: float | None = None
    h3: float | None = None
    zeta: float | None = None


@dataclass(frozen=True)
class ProcessSpec:
    """Declarative description of a generator: family name + parameters.

    m is the dependence range bound of the generated sequence (lags beyond m
    are independent).  truth carries known population functionals.
    """

    family: str
    params: dict
    m: int
    truth: ProcessTruth = field(default_factory=ProcessTruth)

    def to_json(self) -> dict:
        return {"family": self.family, "params": dict(self.params)}

    @staticmethod
    def from_json(doc: dict) -> "ProcessSpec":
        if not isinstance(doc, dict):
            raise ValueError(f"spec must be an object, got {type(doc).__name__}")
        family = doc.get("family")
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"spec field 'params' must be an object, got {type(params).__name__}")
        read = _family(family)[0]
        return read(partial(_json_field, f"family {family!r} spec param", params))


_REQUIRED = object()


def _is(*types):
    """The check that a JSON value is of one of types; a bool is not a number."""
    return lambda value: isinstance(value, types) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An int or float, not a bool, that is a finite float (a JSON int may
    be too large for one)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


_VECTOR = "a number or a list of numbers"
_MATRIX = "a list of equal-length lists of numbers"


def _is_vector(value) -> bool:
    return _is_number(value) or isinstance(value, list) and all(map(_is_number, value))


def _is_matrix(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(row, list) and len(row) == len(value[0]) and all(map(_is_number, row)) for row in value)


def _json_field(owner: str, doc: dict, name: str, valid, what: str, default=_REQUIRED):
    """doc[name], or default when absent, where valid(doc[name]) holds, so
    no string is parsed as a number and no float is truncated where an
    integer is due.  owner names the field, and what the JSON type it
    must have, in errors."""
    if name not in doc:
        if default is _REQUIRED:
            raise ValueError(f"{owner} {name!r} is missing")
        return default
    value = doc[name]
    if not valid(value):
        raise ValueError(f"{owner} {name!r} must be {what}, got {json.dumps(value)}")
    return value


@dataclass(frozen=True)
class GeneratedSeries:
    """A simulated sample plus the spec and stream that produced it."""

    sample: SeriesSample
    spec: ProcessSpec
    stream: RngStream


# ---------------------------------------------------------------------------
# spec constructors (closed-form truths attached)
# ---------------------------------------------------------------------------


def _ma_spec(family: str, theta, functionals) -> ProcessSpec:
    """A moving average's spec; functionals(sigma) gives (q2, q3) of its
    marginal at sigma, the Euclidean norm of the weights theta."""
    arr = np.asarray(theta, dtype=np.float64).ravel()
    if arr.size < 1 or not np.all(np.isfinite(arr)):
        raise ValueError("theta must be a non-empty finite weight vector")
    if not np.any(arr):
        raise ValueError("moving-average weights must not be all zero")
    with np.errstate(over="ignore", under="ignore"):
        sig = float(np.sqrt(np.sum(arr**2)))
    try:
        q2, q3 = functionals(sig)
        truth = ProcessTruth(q2=q2, h2=-math.log(q2), q3=q3, h3=-0.5 * math.log(q3))
    except (OverflowError, ZeroDivisionError, ValueError):  # e.g. exp(900), 1 / 0, log(0)
        truth = None
    if truth is None or not all(map(math.isfinite, (truth.q2, truth.h2, truth.q3, truth.h3))):
        raise ValueError(f"moving-average weights theta {arr.tolist()} are out of range: "
                         f"their norm {sig!r} or the marginal's q2 or q3 overflows or underflows")
    return ProcessSpec(family=family, params={"theta": arr.tolist()}, m=arr.size - 1, truth=truth)


def gaussian_ma_process(theta) -> ProcessSpec:
    """Gaussian moving average X_t = sum_{k=0}^{m} theta_k Z_{t-k}.

    Marginal N(0, sum theta_k^2); the sequence is len(theta)-1 dependent.
    """
    return _ma_spec("gaussian_ma", theta, lambda sig: (
        1.0 / (2.0 * sig * math.sqrt(math.pi)),
        1.0 / (2.0 * math.pi * math.sqrt(3.0) * sig**2)))


def lognormal_ma_process(theta) -> ProcessSpec:
    """exp of a Gaussian moving average; log-normal marginal."""
    return _ma_spec("lognormal_ma", theta, lambda sig: (
        math.exp(sig**2 / 4.0) / (2.0 * sig * math.sqrt(math.pi)),
        math.exp(2.0 * sig**2 / 3.0) / (2.0 * math.pi * math.sqrt(3.0) * sig**2)))


def cauchy_ratio_process() -> ProcessSpec:
    """Ratio of consecutive Gaussians, X_t = Z_t / Z_{t+1}: standard Cauchy
    marginal, 1-dependent."""
    q2 = 1.0 / (2.0 * math.pi)
    q3 = 3.0 / (8.0 * math.pi**2)
    truth = ProcessTruth(q2=q2, h2=-math.log(q2), q3=q3, h3=-0.5 * math.log(q3))
    return ProcessSpec(family="cauchy_ratio", params={}, m=1, truth=truth)


def ma2_normal_process() -> ProcessSpec:
    """MA(2) with equal weights 1/sqrt(3): standard normal marginal."""
    w = 1.0 / math.sqrt(3.0)
    return gaussian_ma_process([w, w, w])


def lognormal_onedep_process() -> ProcessSpec:
    """1-dependent log-normal series with LogNormal(0, 1) marginal."""
    return lognormal_ma_process([math.sqrt(3.0) / 2.0, -0.5])


def iid_uniform_process(d: int = 1) -> ProcessSpec:
    """Independent Uniform[0,1]^d rows (regime probes)."""
    d = checked_int(d, "dimension")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    truth = ProcessTruth(q2=1.0, h2=0.0, q3=1.0, h3=0.0, zeta=0.0)
    return ProcessSpec(family="iid_uniform", params={"d": d}, m=0, truth=truth)


def pearson2_process(mu, sigma, m: int | None = None) -> ProcessSpec:
    """m-dependent sequence with an elliptical Pearson type-II marginal.

    A window of d+4 iid Gaussians maps to one observation:
    X = mu + sqrt(d+4) L z_head / ||z_window||, with L the Cholesky factor of
    sigma and z_head the first d coordinates.  Consecutive windows advance by
    stride s = d+4-m, so neighbors share exactly m innovations; lags whose
    windows no longer overlap are independent, making the sequence
    floor((d+3)/s)-dependent (<= m, so m is a valid dependence bound).
    Every observation satisfies (x-mu)' sigma^{-1} (x-mu) <= d+4.
    """
    mu_arr = np.asarray(mu, dtype=np.float64).ravel()
    d = mu_arr.size
    sig_arr = np.asarray(sigma, dtype=np.float64)
    if sig_arr.shape != (d, d):
        raise ValueError(f"sigma must be {d}x{d}, got {sig_arr.shape}")
    try:
        chol = np.linalg.cholesky(sig_arr)
    except np.linalg.LinAlgError:
        raise ValueError("sigma must be symmetric positive definite") from None
    if m is None:
        m = d + 3
    m = checked_int(m, "dependence parameter m")
    if not 1 <= m <= d + 3:
        raise ValueError(f"dependence parameter m must be in [1, {d + 3}], got {m}")
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        q2 = float(1.0 / (k_d(d) * np.prod(np.diagonal(chol))))
    if not 0.0 < q2 < math.inf:
        raise ValueError(f"pearson2 sigma {sig_arr.tolist()} is out of range: the marginal's "
                         "q2 = 1 / (k_d(d) det(sigma)^(1/2)) overflows or underflows")
    truth = ProcessTruth(q2=q2, h2=-math.log(q2))
    return ProcessSpec(
        family="pearson2",
        params={"mu": mu_arr.tolist(), "sigma": sig_arr.tolist(), "m": m},
        m=m,
        truth=truth,
    )


def copula_onedep_process(theta: float, marginal: str = "uniform") -> ProcessSpec:
    """1-dependent sequence through a Clayton copula conditional inverse.

    Y_t = F^{-1}(C^{-1}_{2|1}(U_{t+1} | U_t)) with iid uniforms U: each Y_t
    is a function of (U_t, U_{t+1}) only, so the sequence is 1-dependent and
    the marginal is exactly F, one of COPULA_MARGINALS (uniform, normal,
    lognormal, pearson2).  theta = 0 degenerates to iid draws from F.
    """
    theta = float(theta)
    if not 0.0 <= theta <= 100.0:
        raise ValueError(f"Clayton parameter must lie in [0, 100], got {theta}")
    if marginal not in COPULA_MARGINALS:
        raise ValueError(f"unknown marginal {marginal!r}; pick one of {sorted(COPULA_MARGINALS)}")
    truth = _COPULA_TRUTHS[marginal]
    return ProcessSpec(
        family="copula_onedep", params={"theta": theta, "marginal": marginal}, m=1, truth=truth
    )


# ---------------------------------------------------------------------------
# generators: a per-stream draw and a stacked shape
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sampler:
    """One family at one series length, split into two layers.

    draw_block(seed, ids) is the draw step: per stream, the `width`
    uniforms one series consumes, with the grid point 0.0 nudged to 2^-54
    where a normal quantile or a log follows; draw(rng) is its one-stream
    case.  Normals come from the quantile of uniforms,
    with no rejection step, so a stream maps to the same values on every
    platform.  transform(block) is the stack step: a (k, width) block of
    drawn rows becomes the arrays of k samples, with the elementwise work
    (normal_quantile, exp, the Clayton inverse, a named copula marginal) run
    once over the block.  Elementwise ufuncs give each value the same bits
    in a stack as alone, so row j of a block shapes exactly as that row
    would alone; the moving-average filter and the pearson2 window algebra
    still run per row.  shape(block) wraps the
    arrays as validated SeriesSamples, and generate is shape with k = 1;
    the Monte Carlo studies take a block's arrays as one stack and check
    the whole stack at once (montecarlo._shaped).
    """

    spec: ProcessSpec
    d: int
    width: int
    nudge: bool
    transform: Callable[[np.ndarray], Iterable[np.ndarray]]

    def draw_block(self, seed: int, ids) -> np.ndarray:
        """The (k, width) block of the uniforms of streams ids of seed.

        The streams are seeded in one pass (stream_words), and each row is
        filled in place from its own PCG64 stream; the 0.0 nudge then runs
        once over the block.
        """
        block = np.empty((len(ids), self.width))
        for words, row in zip(stream_words(seed, ids), block):
            stream_generator(words).random(out=row)
        if self.nudge:
            block[block == 0.0] = 2.0**-54
        return block

    def draw(self, rng: RngStream) -> np.ndarray:
        return self.draw_block(rng.seed, (rng.stream_id,))[0]

    def shape(self, block: np.ndarray) -> list[SeriesSample]:
        return [SeriesSample(points) for points in self.transform(block)]

    def generate(self, rng: RngStream) -> GeneratedSeries:
        """One series from one stream: shape of a one-row block."""
        return GeneratedSeries(sample=self.shape(self.draw(rng)[None])[0], spec=self.spec, stream=rng)


def _require_n(n: int) -> int:
    n = checked_int(n, "series length")
    if n < 1:
        raise ValueError(f"series length must be a positive integer, got {n}")
    return n


def _ma_sampler(params: dict, n: int, lognormal: bool) -> Sampler:
    spec = (lognormal_ma_process if lognormal else gaussian_ma_process)(params["theta"])
    weights = np.asarray(spec.params["theta"], dtype=np.float64)

    def transform(block):
        # per row: a stacked slice-sum filter does not always round as np.convolve does
        paths = [np.convolve(z, weights, mode="valid") for z in normal_quantile(block)]
        return np.exp(np.stack(paths)) if lognormal else paths

    return Sampler(spec, 1, n + spec.m, True, transform)


def _cauchy_sampler(params: dict, n: int) -> Sampler:
    def transform(block):
        z = normal_quantile(block)
        den = z[:, 1:]
        # an exact-zero innovation is a 2^-53 grid artifact; keep the path finite
        den = np.where(den == 0.0, 2.0**-30, den)
        return z[:, :n] / den

    return Sampler(cauchy_ratio_process(), 1, n + 1, True, transform)


def _clayton_conditional_inverse(u: np.ndarray, v: np.ndarray, theta: float) -> np.ndarray:
    """Solve C_{2|1}(w | u) = v for w under the Clayton copula.

    w = ((v^{-theta/(1+theta)} - 1) u^{-theta} + 1)^{-1/theta}, evaluated in
    log space so extreme uniforms cannot overflow.
    """
    if theta == 0.0:
        return v.copy()
    log_a = np.log(np.expm1(-theta / (1.0 + theta) * np.log(v))) - theta * np.log(u)
    log_arg = np.where(log_a > 700.0, log_a, np.log1p(np.exp(np.minimum(log_a, 700.0))))
    return np.exp(-log_arg / theta)


def pearson2_quantile(p, mu: float = 0.0, scale: float = 1.0):
    """Quantile of the one-dimensional Pearson type-II law by bisection.

    Standard form: density (3 / (4 sqrt(5))) (1 - x^2 / 5) on [-sqrt(5),
    sqrt(5)], unit variance; closed-form CDF
    F(x) = 1/2 + (3 / (4 sqrt(5))) (x - x^3 / 15).
    """
    arr = np.asarray(p, dtype=np.float64)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    root5 = math.sqrt(5.0)
    coef = 3.0 / (4.0 * root5)
    lo = np.full(arr.shape, -root5)
    hi = np.full(arr.shape, root5)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        cdf = 0.5 + coef * (mid - mid**3 / 15.0)
        below = cdf < arr
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = mu + float(scale) * 0.5 * (lo + hi)
    if np.isscalar(p) or arr.ndim == 0:
        return float(out)
    return out


COPULA_MARGINALS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "uniform": lambda u: u,
    "normal": normal_quantile,
    "lognormal": lambda u: np.exp(normal_quantile(u)),
    "pearson2": pearson2_quantile,
}

_COPULA_TRUTHS = {
    "uniform": ProcessTruth(q2=1.0, h2=0.0, zeta=0.0),
    "normal": ProcessTruth(
        q2=1.0 / (2.0 * math.sqrt(math.pi)), h2=math.log(2.0 * math.sqrt(math.pi))
    ),
    "lognormal": ProcessTruth(
        q2=math.exp(0.25) / (2.0 * math.sqrt(math.pi)),
        h2=math.log(2.0 * math.sqrt(math.pi)) - 0.25,
    ),
    "pearson2": ProcessTruth(
        q2=3.0 * math.sqrt(5.0) / 25.0, h2=-math.log(3.0 * math.sqrt(5.0) / 25.0)
    ),
}


def _copula_sampler(params: dict, n: int) -> Sampler:
    spec = copula_onedep_process(params["theta"], params["marginal"])
    theta, quantile = spec.params["theta"], COPULA_MARGINALS[spec.params["marginal"]]

    def transform(block):
        return quantile(_clayton_conditional_inverse(block[:, :-1], block[:, 1:], theta))

    return Sampler(spec, 1, n + 1, True, transform)


def _pearson2_sampler(params: dict, n: int) -> Sampler:
    spec = pearson2_process(params["mu"], params["sigma"], params["m"])
    mu_arr = np.asarray(spec.params["mu"], dtype=np.float64)
    d = mu_arr.size
    window = d + 4
    stride = window - spec.m
    chol = np.linalg.cholesky(np.asarray(spec.params["sigma"], dtype=np.float64))

    def transform(block):
        # per row: the window algebra keeps its one-series order of operations
        out = []
        for z in normal_quantile(block):
            win = np.lib.stride_tricks.sliding_window_view(z, window)[::stride]
            norms = np.sqrt(np.einsum("ij,ij->i", win, win))
            norms = np.where(norms == 0.0, 1.0, norms)
            out.append(mu_arr + math.sqrt(window) * (win[:, :d] @ chol.T) / norms[:, None])
        return out

    return Sampler(spec, d, (n - 1) * stride + window, True, transform)


def _uniform_sampler(params: dict, n: int) -> Sampler:
    spec = iid_uniform_process(params["d"])
    d = spec.params["d"]
    return Sampler(spec, d, n * d, False, lambda block: block.reshape(-1, n, d))


# family name -> (its params reader in ProcessSpec.from_json, its Sampler
# builder at a checked length n)
_FAMILIES = {
    "gaussian_ma": (
        lambda param: gaussian_ma_process(param("theta", _is_vector, _VECTOR)),
        partial(_ma_sampler, lognormal=False)),
    "lognormal_ma": (
        lambda param: lognormal_ma_process(param("theta", _is_vector, _VECTOR)),
        partial(_ma_sampler, lognormal=True)),
    "cauchy_ratio": (lambda param: cauchy_ratio_process(), _cauchy_sampler),
    "copula_onedep": (
        lambda param: copula_onedep_process(param("theta", _is_number, "a number"),
                                            param("marginal", _is(str), "a string", "uniform")),
        _copula_sampler),
    "pearson2": (
        lambda param: pearson2_process(param("mu", _is_vector, _VECTOR),
                                       param("sigma", _is_matrix, _MATRIX),
                                       param("m", _is(int), "an integer", None)),
        _pearson2_sampler),
    "iid_uniform": (
        lambda param: iid_uniform_process(param("d", _is(int), "an integer", 1)),
        _uniform_sampler),
}


def _family(name):
    entry = _FAMILIES.get(name) if isinstance(name, str) else None
    if entry is None:
        raise ValueError(f"unknown process family {name!r}")
    return entry


def sampler(spec: ProcessSpec, n: int) -> Sampler:
    """The draw and shape layers of a declarative spec at length n.

    Looks the family up in one table and rebuilds the spec from its params,
    so the parameters are checked once here, not once per stream.
    """
    build = _family(spec.family)[1]
    return build(spec.params, _require_n(n))


def generate(spec: ProcessSpec, n: int, rng: RngStream) -> GeneratedSeries:
    """Generate one series from a declarative spec and one stream."""
    return sampler(spec, n).generate(rng)
