"""Output checks that use neither scipy nor the program's own code.

* `count_close_1d`: sort, take a `searchsorted` window, apply the exact
  `(xi - xj)**2 <= eps*eps` test inside it.
* `count_close_blockwise`: blockwise all-pairs count for any dimension.
* `self_check`: both counters against a direct O(n^2) count on small inputs
  with points exactly eps apart, far-from-origin offsets and duplicates.
* `OutputChecker`: one CLI result document against the oracle counts, a few
  identities that hold for every seed, and, at the golden seed, the values
  recorded in golden.json (integers and rankings exactly, floats to
  GOLDEN_RTOL).
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from workloads import ESTIMATE_EPS, GOLDEN_SEED, KEYS_EPS, SIMULATE_PLAN

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
GOLDEN_RTOL = 1e-9
_BLOCK = 256


def count_close_1d(values: np.ndarray, eps: float) -> int:
    """Pairs i < j with (x_i - x_j)**2 <= eps*eps, for 1-D values."""
    v = np.sort(np.asarray(values, dtype=np.float64).ravel())
    eps_sq = eps * eps
    # the window [v_i, v_i + 2 eps] is a superset of every rounding of the
    # exact test; the test itself decides
    hi = np.searchsorted(v, v + 2.0 * eps, side="right")
    idx = np.arange(v.size)
    count = 0
    for k in range(1, int((hi - idx).max(initial=1))):
        i = idx[idx + k < hi]
        d = v[i + k] - v[i]
        count += int(np.count_nonzero(d * d <= eps_sq))
    return count


def min_distance_1d(values: np.ndarray) -> float:
    """Minimum distance of 1-D values: the smallest gap between sorted neighbours."""
    v = np.sort(np.asarray(values, dtype=np.float64).ravel())
    d = np.diff(v)
    return math.sqrt(float((d * d).min()))


def count_close_blockwise(points: np.ndarray, eps: float) -> int:
    """Pairs i < j with sum_k (x_ik - x_jk)**2 <= eps*eps, block of rows at a time."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    eps_sq = eps * eps
    count = 0
    for start in range(0, n - 1, _BLOCK):
        rows = pts[start : start + _BLOCK]
        sq = np.zeros((rows.shape[0], n - start - 1))
        for k in range(pts.shape[1]):
            diff = rows[:, k, None] - pts[None, start + 1 :, k]
            sq += diff * diff
        # row r of the block pairs with columns j > start + r
        upper = np.arange(start + 1, n)[None, :] > np.arange(start, start + rows.shape[0])[:, None]
        count += int(np.count_nonzero(upper & (sq <= eps_sq)))
    return count


def _direct_count(points: np.ndarray, eps: float) -> int:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    diff = pts[:, None, :] - pts[None, :, :]
    sq = (diff * diff).sum(axis=2)
    return int(np.count_nonzero(np.triu(sq <= eps * eps, k=1)))


def self_check() -> list[str]:
    """Compare the oracle counters with a direct count; returns the mismatches."""
    rng = np.random.default_rng(12345)
    eps = 0.25  # a power of two: lattice points k * eps are exactly eps apart
    problems = []
    lattice = np.arange(-40, 40) * eps
    cases_1d = {
        "lattice": lattice,
        "lattice_far": 1e9 + lattice,
        "lattice_ulp": np.concatenate([lattice, np.nextafter(lattice + eps, np.inf)]),
        "duplicates": np.repeat(rng.normal(size=60), 3),
        "random_far": -1e7 + rng.normal(scale=2.0, size=300),
        "mixed": np.concatenate([lattice, lattice, 1e6 + lattice, rng.normal(size=200)]),
    }
    for name, values in cases_1d.items():
        want = _direct_count(values, eps)
        for label, got in (("1d", count_close_1d(values, eps)),
                           ("blockwise", count_close_blockwise(values[:, None], eps))):
            if got != want:
                problems.append(f"{label} counter on {name}: {got} != direct {want}")
    grid = np.stack(np.meshgrid(*[np.arange(-3, 4) * 0.5] * 3, indexing="ij"), -1).reshape(-1, 3)
    cases_3d = {
        "lattice": grid,
        "lattice_far": grid + np.array([1e6, -1e6, 5e5]),
        "duplicates": np.repeat(rng.normal(size=(100, 3)), 2, axis=0),
        "random": rng.normal(size=(600, 3)),
    }
    for name, pts in cases_3d.items():
        want, got = _direct_count(pts, 0.5), count_close_blockwise(pts, 0.5)
        if got != want:
            problems.append(f"blockwise counter on 3-D {name}: {got} != direct {want}")
    return problems


def ks_statistic(values) -> float:
    """Kolmogorov-Smirnov distance of a sample from N(0, 1)."""
    x = sorted(float(v) for v in values)
    n = len(x)
    f = [0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x]
    return max(max((i + 1) / n - fi, fi - i / n) for i, fi in enumerate(f))


def _close(a: float, b: float, rtol: float) -> bool:
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def compare(expected, actual, path="") -> list[str]:
    """Recursive match: ints, strings and list order exactly, floats to GOLDEN_RTOL."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{path}: keys differ"]
        return [p for k in sorted(expected) for p in compare(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{path}: length differs"]
        return [p for i, (e, a) in enumerate(zip(expected, actual))
                for p in compare(e, a, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        return [] if _close(expected, float(actual), GOLDEN_RTOL) else [f"{path}: {actual} != {expected}"]
    return [] if expected == actual and type(expected) is type(actual) else [f"{path}: {actual!r} != {expected!r}"]


def golden_part(workload: str, doc: dict) -> dict:
    """The part of a result document that golden.json pins (no file paths)."""
    if workload == "estimate_1d_large":
        return {"report": doc["report"], "intervals": doc["intervals"]}
    if workload == "simulate_small_reps":
        return {"plan": doc["plan"], "outcome": doc["outcome"]}
    return {"candidates": doc["candidates"]}


class OutputChecker:
    """Expected values for one workload and seed, computed once per run."""

    def __init__(self, workload: str, seed: int, data: np.ndarray | None):
        self.workload = workload
        self.seed = seed
        self.golden = None
        if seed == GOLDEN_SEED:
            with open(GOLDEN_PATH) as fh:
                self.golden = json.load(fh)[workload]
        if workload == "estimate_1d_large":
            self.n_pairs = count_close_1d(data, ESTIMATE_EPS)
            self.min_distance = min_distance_1d(data)
        elif workload == "keys_3d_grid":
            # one subset per seed, rotating through the columns
            self.subset = [(seed + k) % data.shape[1] for k in range(3)]
            self.subset_pairs = count_close_blockwise(data[:, self.subset], KEYS_EPS)

    def check(self, doc: dict) -> list[str]:
        problems = getattr(self, f"_check_{self.workload}")(doc)
        if self.golden is not None:
            problems += compare(self.golden, golden_part(self.workload, doc), "golden")
        return problems

    def _check_estimate_1d_large(self, doc):
        rep = doc["report"]
        n = rep["n"]
        problems = []
        if rep["n_pairs_close"] != self.n_pairs:
            problems.append(f"n_pairs_close {rep['n_pairs_close']} != oracle {self.n_pairs}")
        if rep["min_distance"] != self.min_distance:
            problems.append(f"min_distance {rep['min_distance']} != oracle {self.min_distance}")
        if not _close(rep["qn_raw"], self.n_pairs / (n * (n - 1) / 2), 1e-12):
            problems.append("qn_raw is not n_pairs_close / C(n, 2)")
        if not _close(rep["q2_hat"], rep["qn_raw"] / (2.0 * ESTIMATE_EPS), 1e-12):
            problems.append("q2_hat is not qn_raw / (2 eps)")
        if len(rep["u3_hat"]) != rep["r"] + 1 or [iv["method"] for iv in doc["intervals"]] != [
            "normal_q2", "normal_h2", "exp_pivot"
        ]:
            problems.append("u3_hat or intervals have the wrong shape")
        return problems

    def _check_simulate_small_reps(self, doc):
        out = doc["outcome"]
        res = out["residuals"]
        problems = []
        if len(res) != SIMULATE_PLAN["n_sim"] or not all(math.isfinite(r) for r in res):
            problems.append("residuals are not n_sim finite numbers")
        elif not _close(out["ks_statistic"], ks_statistic(res), 1e-12):
            problems.append(f"ks_statistic {out['ks_statistic']} != oracle {ks_statistic(res)}")
        if out["base_seed"] != self.seed:
            problems.append("outcome ran under another seed")
        return problems

    def _check_keys_3d_grid(self, doc):
        cands = doc["candidates"]
        problems = []
        if len(cands) != 20:
            problems.append(f"{len(cands)} candidates, expected C(6, 3) = 20")
        if [(c["q2_hat"], c["attributes"]) for c in cands] != sorted(
            (c["q2_hat"], c["attributes"]) for c in cands
        ):
            problems.append("candidates are not ranked by (q2_hat, attributes)")
        mine = [c for c in cands if c["attributes"] == sorted(self.subset)]
        if len(mine) != 1 or mine[0]["n_pairs_close"] != self.subset_pairs:
            problems.append(f"subset {sorted(self.subset)}: count != oracle {self.subset_pairs}")
        return problems
