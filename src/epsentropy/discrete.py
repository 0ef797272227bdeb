"""Coincidence-based estimators for finitely many symbols.

The discrete analogue replaces eps-balls by exact ties: Q_n is the
proportion of index pairs with equal symbols, computed from a frequency map
rather than a radius, and no ball-volume rescaling applies.  The pivots need
a strictly positive long-run variance; an iid uniform alphabet drives
s2 to zero and the residual raises rather than returning garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import _zeta_from, triple_normalizer
from .paircount import _lagged_triples

__all__ = [
    "DiscreteSample",
    "DiscreteReport",
    "discrete_residual",
    "discrete_report",
]


@dataclass(frozen=True)
class DiscreteSample:
    """Consecutive symbol observations, shape (n, d), integer-valued.

    Floating-point input is rejected outright: quantization is the caller's
    explicit decision, silent rounding would corrupt tie counts.
    """

    symbols: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.symbols)
        if arr.dtype == object or not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"symbols must be integers, got dtype {arr.dtype}")
        arr = arr.astype(np.int64)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ValueError(f"symbols must be 1-D or 2-D, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("symbol table must be non-empty")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "symbols", arr)

    @property
    def n(self) -> int:
        return self.symbols.shape[0]

    @property
    def d(self) -> int:
        return self.symbols.shape[1]


@dataclass(frozen=True)
class DiscreteReport:
    n: int
    d: int
    r: int
    qn: float
    h2_hat: float
    u3_hat: tuple[float, ...]
    s2_hat: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "r": self.r,
            "qn": self.qn,
            "h2_hat": self.h2_hat,
            "u3_hat": list(self.u3_hat),
            "s2_hat": self.s2_hat,
        }


def _u3_count(codes: np.ndarray, freq: np.ndarray, n: int, h: int) -> int:
    """Triples (i, j, k) with X_j = X_i and X_k = X_{i+h}, j != k, both
    outside {i, i+h}: in the tie graph deg_i = freq_i - 1, and anchors that
    tie share the freq_i - 2 other indices of their symbol.
    """
    m = n - h - 1
    eq = (codes[: n - h] == codes[h:]).astype(np.int64)
    overlap = int(np.sum(eq[:m] * (freq[:m] - 2)))
    return _lagged_triples(freq - 1, h, eq, overlap, np.empty_like(freq))


def discrete_report(sample: DiscreteSample, r: int) -> DiscreteReport:
    """Tie proportion, entropy, lagged coincidences and long-run variance.

    qn = sum_v C(f_v, 2) / C(n, 2) estimates sum_v p_v^2.  u3_hat[h] counts
    triples (i, j, k) where X_j ties the anchor X_i and X_k ties the lagged
    anchor X_{i+h}, with j, k distinct indices outside {i, i+h}, over the
    number of admissible triples: the exact-tie analogue of the small-ball
    construction, estimating E[p(X_1) p(X_{1+h})] and saturating at 1 when
    all symbols coincide.  s2_hat = (u3[0] - qn^2) + 2 sum_{h=1}^r (u3[h] -
    qn^2) is the continuous zeta formula, not clamped; it converges to zero
    for an iid uniform alphabet, where the normal pivots are unavailable.
    """
    r = int(r)
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    if sample.n < r + 4:
        raise ValueError(f"need n >= r + 4 (n={sample.n}, r={r})")
    # one label per distinct row; any labelling consistent across equal rows
    # gives the same counts.  Whole rows compare as raw bytes, and a single
    # column sorts faster as int64.
    sym = sample.symbols
    if sample.d == 1:
        rows = sym[:, 0]
    else:
        rows = sym.view(np.dtype((np.void, sym.itemsize * sample.d)))[:, 0]
    _, codes, counts = np.unique(rows, return_inverse=True, return_counts=True)
    freq = counts[codes]
    matches = int(np.sum(counts * (counts - 1) // 2))
    q = matches / (sample.n * (sample.n - 1) // 2)
    u3 = tuple(
        _u3_count(codes, freq, sample.n, h) / triple_normalizer(sample.n, h) for h in range(r + 1)
    )
    return DiscreteReport(
        n=sample.n,
        d=sample.d,
        r=r,
        qn=q,
        h2_hat=-math.log(max(q, 1.0 / sample.n)),
        u3_hat=u3,
        s2_hat=_zeta_from(q, u3),
    )


def discrete_residual(sample: DiscreteSample, r: int, truth: float, kind: str) -> float:
    """Pivotal residual sqrt(n) (Q_n - q2) / (2 s) or sqrt(n) Q_n (H_n - h2) / (2 s).

    kind is "q" (truth = population tie probability) or "h" (truth =
    population collision entropy).  Raises when s2 <= 0: the pivot requires a
    strictly positive long-run variance, which an iid uniform alphabet fails.
    """
    if kind not in ("q", "h"):
        raise ValueError(f'kind must be "q" or "h", got {kind!r}')
    rep = discrete_report(sample, r)
    if rep.s2_hat <= 0.0:
        raise ValueError(
            f"s2 = {rep.s2_hat:.3e} is not positive (degenerate, e.g. uniform alphabet); "
            "residual undefined"
        )
    s = math.sqrt(rep.s2_hat)
    root_n = math.sqrt(sample.n)
    if kind == "q":
        return root_n * (rep.qn - float(truth)) / (2.0 * s)
    return root_n * rep.qn * (rep.h2_hat - float(truth)) / (2.0 * s)
