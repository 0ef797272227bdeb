"""Replicated simulation studies for the close-pair estimators.

A study is a plan (process, sample size, estimation config, residual kind,
base seed) executed over independent replicates.  Replicate i always draws
from stream i of the base seed, so a single replicate can be re-run in
isolation.  A study is one sequence of stacks, in index order, on the
calling thread.  Each stack holds paircount._STACK_VALUES drawn values, or
the last replicates.  Its streams are seeded in one pass and drawn into one
block (processes.Sampler.draw_block); the bits are those of numpy's PCG64
seeded by SeedSequence(base_seed, spawn_key=(i,)).  The block is then shaped
as one stack (Sampler.transform, so normal_quantile and the other
elementwise work run once per stack), checked finite, counted by
paircount._counts (a 1-D stack in one pass, a d >= 2 replicate in one
window pass) and dropped.  A study keeps only the counts, so its memory is
one stack however many replicates it runs; the estimates and residuals
then come from the counts as arrays.

The three probes mirror the three limit regimes of the close-pair count:
residual batches against N(0,1) when n eps^d is moderate-to-large, the
Poisson law of the raw count when n^2 eps^d stays bounded, and first/second
moment ratios against their closed-form asymptotes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import paircount
from .asymptotics import PoissonApprox
from .core import DEFAULT_SEED, ball_volume, normal_cdf, unit_ball_volume
from .core import worker_count  # noqa: F401  (unused; perfbench/worker.py wraps it)
from .estimators import (
    EstimateConfig,
    ResidualKind,
    _checked_scale,
    _checked_volumes,
    _estimates,
    _residual,
    _scaler,
)
from .estimators import estimate_report  # noqa: F401  (unused; perfbench/spans.py wraps it)
from .paircount import _checked_eps, _counts
from .processes import ProcessSpec, Sampler, _is, _is_number, _json_field, sampler
from .processes import generate  # noqa: F401  (unused; perfbench/spans.py wraps it)

__all__ = [
    "SimulationPlan",
    "SimulationOutcome",
    "run_residual_study",
    "ks_test",
    "probe_poisson_regime",
    "probe_moments",
    "write_residuals_csv",
]


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
        """The plan of a JSON document; raises a ValueError naming a field
        that is missing or of the wrong JSON type."""
        if not isinstance(doc, dict):
            raise ValueError(f"plan must be an object, got {type(doc).__name__}")
        get = partial(_json_field, "plan field", doc)
        eps0 = get("eps0", lambda v: v is None or _is_number(v), "a number or null", None)
        return SimulationPlan(
            spec=ProcessSpec.from_json(get("spec", _is(dict), "an object")),
            n=get("n", _is(int), "an integer"),
            n_sim=get("n_sim", _is(int), "an integer"),
            config=EstimateConfig(
                eps=float(get("eps", _is_number, "a number")),
                eps0=None if eps0 is None else float(eps0),
                r=get("r", _is(int), "an integer", 0),
            ),
            kind=ResidualKind(get("kind", _is(str), "a string")),
            base_seed=get("base_seed", _is(int), "an integer", DEFAULT_SEED),
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

class _NamedFailure(RuntimeError):
    """A replicate failure whose message names its replicate already."""


def _replicate_map(n_sim: int, per_stack: int, task) -> None:
    """task(first, stop) for each stack of replicates first..stop-1, at most
    per_stack of them, in index order.  A failure that names no replicate
    is named for the stack's last one."""
    for first in range(0, n_sim, per_stack):
        stop = min(n_sim, first + per_stack)
        try:
            task(first, stop)
        except _NamedFailure:
            raise
        except Exception as exc:
            raise RuntimeError(f"replicate {stop - 1}: {exc}") from exc


def _drawn(gen: Sampler, base_seed: int, first: int, stop: int) -> np.ndarray:
    """The (k, width) block of replicates first..stop-1, drawn from their
    streams in one pass (Sampler.draw_block).

    When that fails, the rows are drawn one by one, which names the lowest
    replicate whose draw fails.
    """
    try:
        return gen.draw_block(base_seed, range(first, stop))
    except Exception:
        rows = []
        for i in range(first, stop):
            try:
                rows.append(gen.draw_block(base_seed, (i,)))
            except Exception as exc:
                raise _NamedFailure(f"replicate {i}: {exc}") from exc
        return np.concatenate(rows)


def _shaped(gen: Sampler, n: int, block: np.ndarray, first: int) -> np.ndarray:
    """The samples of a (k, width) block of drawn rows, replicates first..first+k-1,
    as one (k, n, d) array, the stack paircount._counts takes, checked finite.

    The block is shaped as one stack.  When that fails, its rows are shaped
    one by one, which names the lowest replicate whose transform fails and
    takes samples of different array shapes ((n,) or (n, 1) for d = 1).  A
    non-finite value names the lowest replicate that holds one.
    """
    shape = (block.shape[0], n, gen.d)
    try:
        x = np.asarray(gen.transform(block), dtype=np.float64).reshape(shape)
    except Exception:
        x = np.empty(shape)
        for i, row in enumerate(block):
            try:
                (path,) = gen.transform(row[None])
                x[i] = np.reshape(path, shape[1:])
            except Exception as exc:
                raise _NamedFailure(f"replicate {first + i}: {exc}") from exc
    if not np.isfinite(x).all():
        bad = ~np.isfinite(x.reshape(shape[0], -1)).all(axis=1)
        raise _NamedFailure(f"replicate {first + int(np.argmax(bad))}: sample contains non-finite values")
    return x


def _counted(gen: Sampler, n: int, n_sim: int, base_seed: int, count) -> list:
    """count(x) of every stack x of shaped replicates, concatenated in index order.

    Replicate i's row is drawn from stream i.  A stack holds
    paircount._STACK_VALUES drawn values (at least one row), or the rest of
    the replicates; it is drawn in one pass (_drawn), shaped (_shaped),
    counted and dropped, so only one stack of samples is held at a time and
    count keeps only what it returns.
    """
    counts: list = []

    def task(first: int, stop: int) -> None:
        counts.extend(count(_shaped(gen, n, _drawn(gen, base_seed, first, stop), first)))

    _replicate_map(n_sim, max(1, paircount._STACK_VALUES // gen.width), task)
    return counts


def run_residual_study(plan: SimulationPlan) -> SimulationOutcome:
    """Simulate n_sim residuals under the plan and KS-test them against N(0,1).

    The config is checked once, as replicate 0's report would check it.
    The replicates are then drawn a stack at a time, in index order, and
    each stack is shaped and counted as soon as it is drawn (_counted), so
    a study holds one stack of samples and the counts.  The
    estimates and residuals come from the counts as arrays.

    A failure names its replicate.  Stacks run in index order, so a failure
    in an earlier stack comes before any failure in a later one.  Within a
    stack every row is drawn before any is shaped, so a draw failure there
    comes before a shaping failure (a non-finite sample) of a lower
    replicate of the same stack.  Then the first replicate whose estimates
    are not finite, then the first whose residual scale is not positive.
    """
    truth = plan.truth()
    gen = sampler(plan.spec, plan.n)
    n, d, config, kind = plan.n, gen.d, plan.config, plan.kind
    try:
        volumes = _checked_volumes(n, d, config)
    except ValueError as exc:
        raise RuntimeError(f"replicate 0: {exc}") from exc
    eps, eps0 = float(config.eps), config.resolved_eps0
    lags = range(config.r + 1)

    def count(x: np.ndarray) -> list:
        return [(c, t) for c, _, t in _counts(x, eps, eps0, lags)]

    counts = _counted(gen, n, plan.n_sim, plan.base_seed, count)
    est = _estimates(n, d, config, volumes, [c for c, _ in counts], [t for _, t in counts])
    est.check(config, d)
    scale = _scaler(kind, est.w, est.u)
    bad = np.flatnonzero(~(scale > 0.0))
    if bad.size:
        try:
            _checked_scale(float(scale[bad[0]]))
        except ValueError as exc:
            raise RuntimeError(f"replicate {bad[0]}: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = _residual(kind, truth, n, eps, d, est.q2, est.h2, scale).tolist()
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
                 q2: float | None, zeta: float | None = None
                 ) -> tuple[tuple[int, ...], float, float | None]:
    """Close-pair counts of n_sim replicates, their mean b_1(d) q2 n^2 eps^d / 2,
    and with zeta their variance, the mean plus b_1(d)^2 zeta n^3 eps^{2d}.

    q2 defaults to the process truth, which must then be available.  Both
    asymptotes are checked before any replicate is drawn.  The replicates
    are shaped and counted a stack at a time as they are drawn (_counted),
    each stack by paircount._counts with no lags: a 1-D stack in one pass,
    a d >= 2 replicate in one window pass at eps, with no minimum completed.
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
    b1 = unit_ball_volume(d)
    mean = 0.5 * b1 * q2_truth * n * n * eps**d
    var = None
    if zeta is not None:
        try:
            var = mean + b1 * b1 * zeta * n**3 * eps ** (2 * d)
        except OverflowError:
            var = math.inf
        if not math.isfinite(var):
            raise ValueError(f"count variance asymptote overflows at radius {eps} in dimension {d}")

    def count(x: np.ndarray) -> list[int]:
        return [c for c, _, _ in _counts(x, eps, eps, ())]

    return tuple(_counted(gen, n, n_sim, base_seed, count)), mean, var


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

    freq = (np.bincount(counts) / len(counts)).tolist()
    tv = 0.0
    cdf_mass = 0.0
    # summed in k order, so tv and cdf_mass keep the bits of the written sums
    for fk, pk in zip(freq, law.pmf_upto(len(freq) - 1).tolist()):
        cdf_mass += pk
        tv += abs(fk - pk)
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
    counts, mean_asym, var_asym = _count_study(spec, n, eps, n_sim, base_seed, q2, zeta_truth)
    arr = np.asarray(counts, dtype=np.float64)
    return float(arr.mean() / mean_asym), float(arr.var(ddof=1) / var_asym)


def write_residuals_csv(residuals, path: str) -> None:
    """One residual per line, full precision, for external plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["residual"])
        for v in residuals:
            writer.writerow([repr(float(v))])
