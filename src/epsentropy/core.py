"""Shared data model, geometry, special functions, and the RNG contract.

Everything downstream (pair counting, estimators, process generators) works
on a ``SeriesSample``: an immutable (n, d) float64 array of consecutive
observations from a stationary sequence.  This module also carries the small
amount of closed-form special-function machinery the estimators need:

* unit-ball volumes and the maximum-entropy constant k_d, both through the
  half-integer gamma recursion, behind one dimension check,
* the standard normal quantile (rational approximation, so samplers and
  confidence intervals do not depend on an external statistics library),
* reproducible, splittable random streams keyed by (seed, stream_id):
  numpy's SeedSequence mixes the seed, and stream_words runs the spawn-key
  round and the output hash over a whole stack of stream ids at once.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_SEED",
    "MAX_DIM",
    "SeriesSample",
    "RngStream",
    "stream_words",
    "stream_generator",
    "ball_volume",
    "checked_int",
    "checked_q2",
    "checked_columns",
    "unit_ball_volume",
    "k_d",
    "normal_quantile",
    "normal_cdf",
    "read_sample_csv",
    "write_sample_csv",
    "read_symbol_csv",
]

MAX_DIM = 64


@dataclass(frozen=True)
class SeriesSample:
    """Consecutive observations of an R^d-valued series, shape (n, d).

    The array is coerced to contiguous float64, validated (finite entries,
    1 <= d <= MAX_DIM, n >= 1) and frozen.  Row order is meaningful: lagged
    statistics pair row i with row i+h.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError(f"sample must be 1-D or 2-D, got ndim={pts.ndim}")
        n, d = pts.shape
        if n < 1:
            raise ValueError("sample needs at least one observation")
        if not 1 <= d <= MAX_DIM:
            raise ValueError(f"dimension must be in [1, {MAX_DIM}], got {d}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("sample contains non-finite values")
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def checked_int(value, name: str) -> int:
    """value as a Python int, or a ValueError naming it: a bool, a float or
    any other non-integer is never truncated.  numpy integers are accepted."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def checked_columns(columns, d: int) -> list[int]:
    """The column indices as Python ints, checked to be integers, distinct
    and in [0, d)."""
    cols = [checked_int(c, "column") for c in columns]
    if len(cols) == 0:
        raise ValueError("projection needs at least one column")
    if len(set(cols)) != len(cols):
        raise ValueError("projection columns must be distinct")
    for c in cols:
        if not 0 <= c < d:
            raise ValueError(f"column {c} outside [0, {d})")
    return cols


def _gamma_half(two_a: int) -> float:
    """Gamma(two_a / 2) for integer two_a >= 1, by the exact recursion.

    Gamma(1/2) = sqrt(pi), Gamma(1) = 1, Gamma(x + 1) = x * Gamma(x).
    """
    if two_a < 1:
        raise ValueError("gamma argument must be >= 1/2")
    if two_a % 2 == 0:
        x, g = 1.0, 1.0
    else:
        x, g = 0.5, math.sqrt(math.pi)
    target = two_a / 2.0
    while x < target:
        g *= x
        x += 1.0
    return g


def _checked_dim(d) -> int:
    d = checked_int(d, "dimension")
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"dimension must be in [1, {MAX_DIM}], got {d}")
    return d


def unit_ball_volume(d: int) -> float:
    """Volume of the Euclidean unit ball in R^d: 2 pi^{d/2} / (d Gamma(d/2))."""
    d = _checked_dim(d)
    return 2.0 * math.pi ** (d / 2.0) / (d * _gamma_half(d))


def k_d(d: int) -> float:
    """Maximum-entropy constant Gamma(3+d/2) pi^{d/2} / (2 Gamma(2+d/2)^2 beta^{d/2}).

    beta = 1/(4+d): the limit of exp(h2) / sqrt(det Sigma) under the Pearson
    type-II law in R^d (see gof).
    """
    d = _checked_dim(d)
    beta = 1.0 / (4.0 + d)
    num = _gamma_half(6 + d) * math.pi ** (d / 2.0)
    den = 2.0 * _gamma_half(4 + d) ** 2 * beta ** (d / 2.0)
    return num / den


def ball_volume(d: int, eps: float) -> float:
    """Volume of a radius-eps ball in R^d, eps^d * unit_ball_volume(d).

    Raises when the volume underflows to 0, since every estimate divides by
    it, and when it overflows, since no estimate is finite then.
    """
    vol1 = unit_ball_volume(d)
    eps = float(eps)
    if not (eps > 0.0) or not math.isfinite(eps):
        raise ValueError(f"radius must be positive and finite, got {eps}")
    try:
        vol = eps**d * vol1
    except OverflowError:
        vol = math.inf
    if vol == 0.0:
        raise ValueError(f"ball volume underflows to 0 at radius {eps} in dimension {d}")
    if vol == math.inf:
        raise ValueError(f"ball volume overflows at radius {eps} in dimension {d}")
    return vol


def checked_q2(q2: float, eps: float, d: int) -> float:
    """A plug-in q2_hat = count / (C(n,2) ball_volume(d, eps)), checked finite.

    The count is at most C(n,2), so q2_hat overflows only where the ball
    volume is subnormal: ball_volume accepts it, and one collision makes
    q2_hat inf.  Raises a ValueError naming eps and d then.
    """
    if not math.isfinite(q2):
        raise ValueError(f"q2_hat overflows at radius {eps} in dimension {d}: the ball volume is subnormal")
    return q2


# ---------------------------------------------------------------------------
# standard normal quantile / cdf
# ---------------------------------------------------------------------------

# Rational minimax approximation to the standard normal quantile,
# algorithm AS 241 (PPND16).  Relative accuracy ~1e-16, far inside the
# 1e-9 contract; coefficients reproduced verbatim.
_A = (
    3.3871328727963666080e0,
    1.3314166789178437745e2,
    1.9715909503065514427e3,
    1.3731693765509461125e4,
    4.5921953931549871457e4,
    6.7265770927008700853e4,
    3.3430575583588128105e4,
    2.5090809287301226727e3,
)
_B = (
    1.0,
    4.2313330701600911252e1,
    6.8718700749205790830e2,
    5.3941960214247511077e3,
    2.1213794301586595867e4,
    3.9307895800092710610e4,
    2.8729085735721942674e4,
    5.2264952788528545610e3,
)
_C = (
    1.42343711074968357734e0,
    4.63033784615654529590e0,
    5.76949722146069140550e0,
    3.64784832476320460504e0,
    1.27045825245236838258e0,
    2.41780725177450611770e-1,
    2.27238449892691845833e-2,
    7.74545014278341407640e-4,
)
_D = (
    1.0,
    2.05319162663775882187e0,
    1.67638483018380384940e0,
    6.89767334985100004550e-1,
    1.48103976427480074590e-1,
    1.51986665636164571966e-2,
    5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_E = (
    6.65790464350110377720e0,
    5.46378491116411436990e0,
    1.78482653991729133580e0,
    2.96560571828504891230e-1,
    2.65321895265761230930e-2,
    1.24266094738807843860e-3,
    2.71155556874348757815e-5,
    2.01033439929228813265e-7,
)
_F = (
    1.0,
    5.99832206555887937690e-1,
    1.36929880922735805310e-1,
    1.48753612908506148525e-2,
    7.86869131145613259100e-4,
    1.84631831751005468180e-5,
    1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


def _horner(coeffs, x):
    """sum_i coeffs[i] x^i by Horner's rule from the top coefficient, in place."""
    acc = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= x
        acc += c
    return acc


def normal_quantile(p):
    """Standard normal quantile Phi^{-1}(p) for p in (0, 1).

    Accepts scalars or arrays; raises on p outside the open interval, NaN
    included.  Each value takes one of three AS 241 branches, each evaluated
    in one fixed order: q A(r) / B(r) with q = p - 1/2, r = 0.180625 - q^2
    where |q| <= 0.425; otherwise, with s = sqrt(-log(min(p, 1 - p))),
    C(s - 1.6) / D(s - 1.6) where s <= 5 and E(s - 5) / F(s - 5) beyond,
    negated for p < 1/2; every polynomial by Horner's rule from its top
    coefficient.  When any value is central, the central rational runs over
    the whole array in place (B stays positive for every |q| < 1/2), and
    the tail branches, each on its values gathered once, then write over
    the tail values.  So a value's bits do not depend on the shape of p or
    on the other values.
    """
    arr = np.asarray(p, dtype=np.float64)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    flat = arr.ravel()
    # q = p - 1/2, overwritten by the quantiles
    out = flat - 0.5
    tail = np.flatnonzero(np.abs(out) > 0.425)
    lower = out[tail] < 0.0

    if tail.size < out.size:
        r = out * out
        np.subtract(0.180625, r, out=r)
        out *= _horner(_A, r)
        out /= _horner(_B, r)

    if tail.size:
        pt = flat[tail]
        s = np.log(np.where(lower, pt, 1.0 - pt))
        np.negative(s, out=s)
        np.sqrt(s, out=s)
        near = s <= 5.0
        for branch, shift, num, den in ((near, 1.6, _C, _D), (~near, 5.0, _E, _F)):
            at = np.flatnonzero(branch)
            if at.size:
                x = s[at]
                x -= shift
                val = _horner(num, x)
                val /= _horner(den, x)
                s[at] = val
        np.negative(s, out=s, where=lower)
        out[tail] = s

    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def normal_cdf(x):
    """Standard normal CDF via the error function."""
    arr = np.asarray(x, dtype=np.float64)
    root_half = math.sqrt(0.5)
    flat = np.array([0.5 * math.erfc(-v * root_half) for v in arr.ravel()])
    out = flat.reshape(arr.shape)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------

# the seed of `epsentropy generate` and of a simulation plan that names none
DEFAULT_SEED = 20260215

# numpy's SeedSequence constants (pool of four 32-bit words), frozen by its
# stream-compatibility policy (NEP 19)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(h: int, mult: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of `steps` hash steps from the running constant h, as
    uint32 arrays: step t xors in h mult^t, then multiplies by h mult^(t+1).
    They depend on the step count alone, never on the values hashed."""
    xor, mul = [], []
    for _ in range(steps):
        xor.append(h)
        h = h * mult & _M32
        mul.append(h)
    return np.array(xor, dtype=np.uint32), np.array(mul, dtype=np.uint32)


# the eight steps of generate_state(4, np.uint64), one per 32-bit output word
_OUT_XOR, _OUT_MUL = _hash_constants(_INIT_B, _MULT_B, 8)


def _seed_pool(seed: int) -> tuple[np.ndarray, int]:
    """SeedSequence's pool and running hash constant after it has mixed in
    seed, the entropy every spawn key of the seed shares.

    A spawn key pads the seed's 32-bit words to the pool size with zeros,
    and SeedSequence hashes a missing word as it hashes a zero, so the keyed
    pool before its key words is SeedSequence(seed).pool.  Each hash step
    multiplies the constant by _MULT_A: sixteen steps mix the pool's own
    words, and four mix in each seed word past the fourth.
    """
    from numpy.random import SeedSequence

    steps = 16 + 4 * max(0, _n_words(seed) - 4)
    return SeedSequence(seed).pool, _INIT_A * pow(_MULT_A, steps, _M32 + 1) & _M32


def _n_words(i: int) -> int:
    """Length of i's SeedSequence entropy: its 32-bit words, 0 taking one."""
    return max(1, -(-i.bit_length() // 32))


def _by_length(ids: list[int]):
    """(n_words, positions, ids) per length of ids in 32-bit words."""
    if max(ids, default=0) <= _M32:
        return [(1, slice(None), ids)]
    lengths = [_n_words(i) for i in ids]
    groups = []
    for n_words in set(lengths):
        at = [k for k, length in enumerate(lengths) if length == n_words]
        groups.append((n_words, at, [ids[k] for k in at]))
    return groups


def stream_words(seed: int, ids) -> np.ndarray:
    """The PCG64 seed words of streams ids of seed, shape (len(ids), 4) uint64.

    Row k holds SeedSequence(seed, spawn_key=(ids[k],)).generate_state(4,
    np.uint64) bit for bit.  The seed is mixed once, with Python ints; the
    spawn-key round and the output hash run as uint32 arithmetic over all
    ids at once, one group per id length in 32-bit words.
    """
    seed = checked_int(seed, "seed")
    ids = [operator.index(i) for i in ids]
    if seed < 0 or min(ids, default=0) < 0:
        raise ValueError("seed and stream_id must be nonnegative")
    pool, h = _seed_pool(seed)
    # spawn word j is hashed once per pool word d, at step 4j + d of every key
    steps = 4 * _n_words(max(ids, default=0))
    xor, mul = (a.reshape(-1, 4) for a in _hash_constants(h, _MULT_A, steps))
    out = np.empty((len(ids), 4), dtype=np.uint64)
    for n_words, at, group in _by_length(ids):
        mixer = pool
        for j in range(n_words):
            word = np.array([i >> 32 * j & _M32 for i in group], dtype=np.uint32)
            v = word[:, None] ^ xor[j]
            v *= mul[j]
            v ^= v >> 16
            mixer = mixer * np.uint32(_MIX_L) - v * np.uint32(_MIX_R)
            mixer ^= mixer >> 16
        state = np.concatenate((mixer, mixer), axis=1)
        state ^= _OUT_XOR
        state *= _OUT_MUL
        state ^= state >> 16
        # word pairs read as little-endian uint64, as generate_state reads them
        out[at] = state.astype("<u4", copy=False).view("<u8")
    return out


@functools.cache
def _seed_words_class():
    """The seed sequence that hands one row of stream_words to PCG64.

    Defined on first use, so that importing this module does not import
    numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("stream words seed only PCG64")
            return self.words

    return SeedWords


def stream_generator(words: np.ndarray) -> np.random.Generator:
    """A Generator at the start of the PCG64 stream seeded by one row of
    stream_words."""
    return np.random.Generator(np.random.PCG64(_seed_words_class()(words)))


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream addressed by (seed, stream_id).

    Identical (seed, stream_id) pairs reproduce identical draws across runs;
    distinct stream_ids index statistically independent streams.  The bits
    are those of numpy's PCG64 seeded by SeedSequence(seed,
    spawn_key=(stream_id,)); the seed words come from stream_words, which
    seeds a whole stack of streams in one pass.  Streams are single-owner
    values: give each replicate its own ``RngStream(seed, i)`` rather than
    sharing one generator.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        checked_int(self.seed, "seed")
        checked_int(self.stream_id, "stream_id")
        if self.seed < 0 or self.stream_id < 0:
            raise ValueError("seed and stream_id must be nonnegative")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return stream_generator(stream_words(self.seed, (self.stream_id,))[0])


def worker_count(n_tasks: int) -> int:
    """1: every task runs on the calling thread.  Nothing in the package calls
    it; montecarlo and epskeys import it because perfbench/worker.py rebinds it."""
    return 1


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _ascii_number(tok: str, parse):
    """parse(tok) for parse in (float, int), on what numpy's C reader also
    accepts: ASCII text without digit-group underscores."""
    text = tok.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"could not convert string to {parse.__name__}: {tok!r}")
    return parse(text)


def _check_sample_row(path: str, i: int, row: list[str]) -> None:
    for tok in row:
        try:
            _ascii_number(tok, float)
        except ValueError as exc:
            raise ValueError(f"{path}: non-numeric value in row {i}: {exc}") from None


def _check_symbol_row(path: str, i: int, row: list[str]) -> None:
    for j, tok in enumerate(row, start=1):
        where = f"{path}: row {i} column {j}: {tok!r}"
        try:
            value = _ascii_number(tok, int)
        except ValueError:
            raise ValueError(f"{where} is not an integer symbol") from None
        if not -(2**63) <= value < 2**63:
            raise ValueError(f"{where} is outside the int64 range")


def _read_table(path: str, dtype, check_row) -> np.ndarray:
    """Parse a numeric CSV into an (n, d) array of dtype.

    The first non-blank row is a header when any cell fails float().  That
    test is more lenient than the C reader, so a first row like `1_000` is
    reported as a bad row, never dropped as a header.  Blank lines are
    skipped, cells may be "-quoted, and a UTF-8 byte-order mark is
    dropped.  The rows after the header go through numpy's C reader in one
    pass.  Only when it refuses them does a csv pass find the first bad row
    (numbered from 1 after the header, blank lines not counted), which
    check_row(path, i, row) reports.
    """
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        first = next((row for row in reader if row), None)
        if first is None:
            raise ValueError(f"{path}: empty CSV")
        header = not all(_is_number(tok) for tok in first)
        skip = reader.line_num if header else 0
        if header and next((row for row in reader if row), None) is None:
            raise ValueError(f"{path}: header only, no data rows")
    try:
        return np.loadtxt(
            path,
            dtype=dtype,
            delimiter=",",
            comments=None,
            quotechar='"',
            skiprows=skip,
            ndmin=2,
            encoding="utf-8-sig",
        )
    except (ValueError, OverflowError) as exc:
        reason = str(exc)
    with open(path, encoding="utf-8-sig", newline="") as fh:
        rows = (row for row in csv.reader(fh) if row)
        if header:
            next(rows)
        width = None
        for i, row in enumerate(rows, start=1):
            width = len(row) if width is None else width
            if len(row) != width:
                raise ValueError(f"{path}: ragged row {i} (expected {width} columns, got {len(row)})")
            check_row(path, i, row)
    raise ValueError(f"{path}: {reason}")


def read_sample_csv(path: str) -> SeriesSample:
    """Load a sample from CSV: one row per time index, d numeric columns.

    A single leading header row is tolerated (detected by non-numeric cells);
    ragged rows, non-numeric and non-finite cells are rejected.
    """
    pts = _read_table(path, np.float64, _check_sample_row)
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: non-finite value in row {bad[0] + 1}")
    return SeriesSample(pts)


def write_sample_csv(sample: SeriesSample, path: str, header: list[str] | None = None) -> None:
    """Write a sample to CSV with full float64 round-trip precision."""
    if header is not None and len(header) != sample.d:
        raise ValueError("header width must match sample dimension")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in sample.points:
            writer.writerow([repr(float(v)) for v in row])


def read_symbol_csv(path: str) -> np.ndarray:
    """Load an integer symbol table from CSV; any non-integer token is rejected.

    Floating-point observations must be quantized by the caller before they
    enter the discrete path, since silent rounding would corrupt tie counts.
    Same CSV grammar as read_sample_csv.
    """
    return _read_table(path, np.int64, _check_symbol_row)
