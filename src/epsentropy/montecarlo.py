"""Replicated simulation studies for the close-pair estimators.

A study is a plan (process, sample size, estimation config, residual kind,
base seed) executed over independent replicates.  Replicate i always draws
from stream i of the base seed, so a single replicate can be re-run in
isolation.  Generation has two layers (processes.Sampler): each
replicate's uniforms are drawn one stream after another, in index order, on
the calling thread; then the drawn rows are shaped into samples a stack at
a time (at most paircount._STACK_VALUES values), so normal_quantile and the
other elementwise work run once per stack.  The 1-D samples are then
counted together, again as stacks of bounded size.

The three probes mirror the three limit regimes of the close-pair count:
residual batches against N(0,1) when n eps^d is moderate-to-large, the
Poisson law of the raw count when n^2 eps^d stays bounded, and first/second
moment ratios against their closed-form asymptotes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import PoissonApprox
from .core import RngStream, SeriesSample, ball_volume, normal_cdf, unit_ball_volume
from .core import worker_count  # noqa: F401  (unused; perfbench/worker.py wraps it)
from .estimators import (
    EstimateConfig,
    ResidualKind,
    _checked_volumes,
    estimate_reports,
    residual_from_report,
)
from .estimators import estimate_report  # noqa: F401  (unused; perfbench/spans.py wraps it)
from .paircount import _STACK_VALUES, _checked_eps, _stacked_counts_1d, count_close_pairs
from .processes import ProcessSpec, Sampler, sampler
from .processes import generate  # noqa: F401  (unused; perfbench/spans.py wraps it)

__all__ = [
    "SimulationPlan",
    "SimulationOutcome",
    "run_residual_study",
    "ks_test",
    "probe_poisson_regime",
    "probe_moments",
    "standardize_batch",
    "write_residuals_csv",
]

DEFAULT_SEED = 20260215


@dataclass(frozen=True)
class SimulationPlan:
    """Everything needed to reproduce one residual study."""

    spec: ProcessSpec
    n: int
    n_sim: int
    config: EstimateConfig
    kind: ResidualKind
    base_seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.n_sim < 1:
            raise ValueError(f"n_sim must be >= 1, got {self.n_sim}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be nonnegative, got {self.base_seed}")
        object.__setattr__(self, "kind", ResidualKind(self.kind))

    def truth(self) -> float:
        """Population value the residual centers on; raises when unknown."""
        t = self.spec.truth
        value = t.q2 if self.kind in (ResidualKind.Q_SQRTN, ResidualKind.Q_NEPS) else t.h2
        if value is None:
            raise ValueError(
                f"process family {self.spec.family!r} carries no truth for kind {self.kind.value!r}"
            )
        return value

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "n": self.n,
            "n_sim": self.n_sim,
            "eps": self.config.eps,
            "eps0": self.config.eps0,
            "r": self.config.r,
            "kind": self.kind.value,
            "base_seed": self.base_seed,
        }

    @staticmethod
    def from_json(doc: dict) -> "SimulationPlan":
        return SimulationPlan(
            spec=ProcessSpec.from_json(doc["spec"]),
            n=int(doc["n"]),
            n_sim=int(doc["n_sim"]),
            config=EstimateConfig(
                eps=float(doc["eps"]),
                eps0=None if doc.get("eps0") is None else float(doc["eps0"]),
                r=int(doc.get("r", 0)),
            ),
            kind=ResidualKind(doc["kind"]),
            base_seed=int(doc.get("base_seed", DEFAULT_SEED)),
        )


@dataclass(frozen=True)
class SimulationOutcome:
    """Merged results of one study; unused probe fields stay None."""

    n: int
    n_sim: int
    residuals: tuple[float, ...] | None = None
    ks_statistic: float | None = None
    ks_p_value: float | None = None
    counts: tuple[int, ...] | None = None
    tv_distance: float | None = None
    mu: float | None = None
    count_mean: float | None = None
    count_var: float | None = None
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        doc: dict = {"n": self.n, "n_sim": self.n_sim}
        if self.residuals is not None:
            doc["residuals"] = list(self.residuals)
        if self.ks_statistic is not None:
            doc["ks_statistic"] = self.ks_statistic
            doc["ks_p_value"] = self.ks_p_value
        if self.counts is not None:
            doc["counts"] = list(self.counts)
            doc["count_mean"] = self.count_mean
            doc["count_var"] = self.count_var
        if self.tv_distance is not None:
            doc["tv_distance"] = self.tv_distance
            doc["mu"] = self.mu
        doc.update(self.extras)
        return doc


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov test
# ---------------------------------------------------------------------------

def _cdf_exp1(x: np.ndarray) -> np.ndarray:
    return np.where(x < 0.0, 0.0, -np.expm1(-np.clip(x, 0.0, None)))


def _cdf_uniform01(x: np.ndarray) -> np.ndarray:
    return np.clip(x, 0.0, 1.0)


_NAMED_CDFS = {
    "std_normal": normal_cdf,
    "exp1": _cdf_exp1,
    "uniform01": _cdf_uniform01,
}


def kolmogorov_p_value(t: float) -> float:
    """Tail of the Kolmogorov distribution at t = sqrt(n) D_n.

    Alternating series 2 sum_{k>=1} (-1)^{k-1} exp(-2 k^2 t^2), truncated
    once terms drop below 1e-12, clipped into [0, 1].
    """
    if t <= 0.0:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 10_000):
        term = math.exp(-2.0 * k * k * t * t)
        if term < 1e-12:
            break
        total += sign * term
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def ks_test(data, cdf="std_normal") -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    cdf is one of the named distributions ("std_normal", "exp1",
    "uniform01") or any vectorized distribution function.  The statistic is
    the exact sup-distance max_i of (i/n - F_(i), F_(i) - (i-1)/n) over the
    order statistics.
    """
    arr = np.asarray(data, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("KS test needs at least one observation")
    if not np.all(np.isfinite(arr)):
        raise ValueError("KS test input contains non-finite values")
    if callable(cdf):
        cdf_fn = cdf
    else:
        try:
            cdf_fn = _NAMED_CDFS[cdf]
        except KeyError:
            raise ValueError(
                f"unknown cdf {cdf!r}; expected one of {sorted(_NAMED_CDFS)} or a callable"
            ) from None
    n = arr.size
    f = np.asarray(cdf_fn(np.sort(arr)), dtype=np.float64)
    if f.shape != (n,) or np.any(f < 0.0) or np.any(f > 1.0):
        raise ValueError("cdf must map the sorted sample to values in [0, 1]")
    i = np.arange(1, n + 1, dtype=np.float64)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1.0) / n)
    stat = float(max(d_plus, d_minus))
    return stat, kolmogorov_p_value(math.sqrt(n) * stat)


# ---------------------------------------------------------------------------
# replicate orchestration
# ---------------------------------------------------------------------------

def _replicate_map(n_sim: int, base_seed: int, task) -> list:
    """[task(i, stream_i) for i in 0..n_sim-1], run in index order."""
    results = []
    for i in range(n_sim):
        try:
            results.append(task(i, RngStream(base_seed, i)))
        except Exception as exc:
            raise RuntimeError(f"replicate {i}: {exc}") from exc
    return results


def _shaped(gen: Sampler, rows: list) -> list[SeriesSample]:
    """The samples of the drawn rows, in order, shaped _STACK_VALUES values at a time.

    Each stack's rows leave the list as it is shaped, so the drawn uniforms
    and the samples together stay near the size of one of them.  When a
    stack fails, its rows are shaped one by one to name the lowest failing
    replicate.
    """
    per_stack = max(1, _STACK_VALUES // gen.width)
    samples: list[SeriesSample] = []
    while rows:
        block = np.stack(rows[:per_stack])
        del rows[:per_stack]
        try:
            samples += gen.shape(block)
        except Exception:
            for i, row in enumerate(block, start=len(samples)):
                try:
                    gen.shape(row[None])
                except Exception as exc:
                    raise RuntimeError(f"replicate {i}: {exc}") from exc
            raise
    return samples


def run_residual_study(plan: SimulationPlan) -> SimulationOutcome:
    """Simulate n_sim residuals under the plan and KS-test them against N(0,1).

    The replicates' uniforms are drawn one stream at a time, in index order,
    and each replicate is checked as its report would check it, so a failure
    names the lowest failing replicate.  Then they are shaped into samples
    and counted a stack at a time (estimate_reports stacks the 1-D ones).
    """
    truth = plan.truth()
    gen = sampler(plan.spec, plan.n)

    def draw(i: int, stream: RngStream) -> np.ndarray:
        u = gen.draw(stream)
        _checked_volumes(plan.n, gen.d, plan.config)
        return u

    samples = _shaped(gen, _replicate_map(plan.n_sim, plan.base_seed, draw))
    residuals = []
    for i, report in enumerate(estimate_reports(samples, plan.config)):
        try:
            residuals.append(residual_from_report(report, truth, plan.kind))
        except Exception as exc:
            raise RuntimeError(f"replicate {i}: {exc}") from exc
    stat, p = ks_test(residuals, "std_normal")
    return SimulationOutcome(
        n=plan.n,
        n_sim=plan.n_sim,
        residuals=tuple(residuals),
        ks_statistic=stat,
        ks_p_value=p,
        extras={"kind": plan.kind.value, "truth": truth, "base_seed": plan.base_seed},
    )


def _count_study(spec: ProcessSpec, n: int, eps: float, n_sim: int, base_seed: int,
                 q2: float | None) -> tuple[tuple[int, ...], float, int]:
    """Close-pair counts of n_sim replicates, their mean b_1(d) q2 n^2 eps^d / 2, and d.

    q2 defaults to the process truth, which must then be available.  1-D
    replicates are counted as one stack (a bounded number of values at a
    time); d >= 2 replicates one by one.
    """
    q2_truth = spec.truth.q2 if q2 is None else float(q2)
    if q2_truth is None:
        raise ValueError(f"process family {spec.family!r} carries no q2 truth; pass q2=")
    if n_sim < 1:
        raise ValueError(f"n_sim must be >= 1, got {n_sim}")
    _checked_eps(eps)
    if n < 2:
        raise ValueError("pair counting needs at least two observations")
    gen = sampler(spec, n)
    d = gen.d
    ball_volume(d, eps)  # raises, naming eps and d, where eps**d under- or overflows

    samples = _shaped(gen, _replicate_map(n_sim, base_seed, lambda i, stream: gen.draw(stream)))
    if d == 1:
        rows = _stacked_counts_1d([s.points[:, 0] for s in samples], eps, eps, ())
        counts = tuple(n_close for n_close, _, _ in rows)
    else:
        counts = tuple(count_close_pairs(s, eps).n_pairs_close for s in samples)
    mean = 0.5 * unit_ball_volume(d) * q2_truth * n * n * eps**d
    return counts, mean, d


def probe_poisson_regime(
    spec: ProcessSpec,
    n: int,
    eps: float,
    n_sim: int,
    base_seed: int = DEFAULT_SEED,
    q2: float | None = None,
) -> SimulationOutcome:
    """Empirical law of the close-pair count against Po(b_1(d) q2 n^2 eps^d / 2).

    Meaningful when n^2 eps^d stays moderate, so the count has a
    nondegenerate discrete limit.  q2 defaults to the process truth.
    """
    counts, mu, _ = _count_study(spec, n, eps, n_sim, base_seed, q2)
    arr = np.asarray(counts, dtype=np.float64)
    law = PoissonApprox(mu)

    k_max = int(arr.max())
    tv = 0.0
    cdf_mass = 0.0
    for k in range(k_max + 1):
        pk = law.pmf(k)
        cdf_mass += pk
        tv += abs(float(np.mean(arr == k)) - pk)
    tv = 0.5 * (tv + max(0.0, 1.0 - cdf_mass))

    return SimulationOutcome(
        n=n,
        n_sim=n_sim,
        counts=counts,
        tv_distance=tv,
        mu=mu,
        count_mean=float(arr.mean()),
        count_var=float(arr.var(ddof=1)) if n_sim > 1 else 0.0,
        extras={"base_seed": base_seed},
    )


def probe_moments(
    spec: ProcessSpec,
    n: int,
    eps: float,
    n_sim: int,
    base_seed: int = DEFAULT_SEED,
    q2: float | None = None,
    zeta: float | None = None,
) -> tuple[float, float]:
    """Empirical close-pair mean and variance over their asymptotes.

    Mean asymptote b_1(d) q2 n^2 eps^d / 2; variance adds the dependence
    term b_1(d)^2 zeta n^3 eps^{2d}.  q2 and zeta default to the process
    truth and must be available (zeta = 0 holds for a uniform marginal).
    """
    zeta_truth = spec.truth.zeta if zeta is None else float(zeta)
    if zeta_truth is None:
        raise ValueError(f"process family {spec.family!r} carries no zeta truth; pass zeta=")
    counts, mean_asym, d = _count_study(spec, n, eps, n_sim, base_seed, q2)
    arr = np.asarray(counts, dtype=np.float64)
    b1 = unit_ball_volume(d)
    var_asym = mean_asym + b1 * b1 * zeta_truth * n**3 * eps ** (2 * d)
    return float(arr.mean() / mean_asym), float(arr.var(ddof=1) / var_asym)


def standardize_batch(values) -> np.ndarray:
    """Center and scale by the batch's own moments (crossover-regime probe).

    The exact standardization constants of the count are not estimable in
    the crossover regime, so the batch is standardized empirically before a
    normality check.
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size < 2:
        raise ValueError("need at least two values to standardize")
    sd = arr.std(ddof=1)
    if sd == 0.0:
        raise ValueError("degenerate batch: zero variance")
    return (arr - arr.mean()) / sd


def write_residuals_csv(residuals, path: str) -> None:
    """One residual per line, full precision, for external plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["residual"])
        for v in residuals:
            writer.writerow([repr(float(v))])
