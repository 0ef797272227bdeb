"""Workload definitions: seeded inputs, the CLI call, and why each exists.

Every workload is a closed loop with one caller: one `epsentropy` CLI
invocation at a time, in-process through `epsentropy.cli.main`, the next one
starting when the previous one has returned.  Inputs are a pure function of
the seed.  The estimate and keys tables are drawn here with numpy alone and
written as CSV, so a change to `epsentropy.processes` cannot change them.

This module imports numpy and the standard library only; it never imports
the program.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

GOLDEN_SEED = 1

ESTIMATE_N = 10_000
ESTIMATE_EPS = 0.03
ESTIMATE_R = 6

SIMULATE_PLAN = {
    "spec": {"family": "gaussian_ma", "params": {"theta": [1.0 / math.sqrt(3.0)] * 3}},
    "n": 500,
    "n_sim": 100,
    "eps": 0.1,
    "eps0": 0.1,
    "r": 6,
    "kind": "h_sqrtn",
}

KEYS_N = 2_000
KEYS_D = 6
KEYS_RHO = 0.3
KEYS_EPS = 0.3
KEYS_SIZE = 3


# Why each workload exists, which layer metric should move which end-to-end
# metric on it, and which exact counts a later change may cite as counts.
# The candidate-to-hit ratio of the pair counter is not measured yet: it
# needs the per-count statistics (CountStats) that the program does not
# expose, and the bench times calls from outside without re-implementing them.
NOTES = {
    "estimate_1d_large": {
        "why": "one large 1-D report (MA(2), n=10000, eps=0.03, r=6) whose time is mostly "
        "the lagged-triple path; no thread pool, so it is the control for pool changes",
        "moves": {
            "wall_ref_s": [
                "paircount.adjacency_s",
                "paircount.triples_s",
                "paircount.close_pairs_s",
                "paircount.count_close_pairs_s",
                "paircount.min_interpoint_distance_s",
                "paircount.calls_per_report",
            ],
            # the grid's candidate index arrays set the peak
            "peak_rss_mb": ["paircount.close_pairs_s", "paircount.count_close_pairs_s"],
        },
        "exact_counts": [
            "paircount.count_close_pairs.calls",
            "paircount.count_close_pairs.hits",
            "paircount.close_pairs.calls",
            "paircount.close_pairs.hits",
            "paircount.calls_per_report",
            "estimators.estimate_report.calls",
        ],
    },
    "simulate_small_reps": {
        "why": "100 small reports (MA(2), n=500, eps=eps0=0.1, r=6) where fixed per-call "
        "costs and the replicate thread pool dominate; reads no CSV, so it is the control "
        "for memory and parsing changes",
        "moves": {
            "wall_ref_s": [
                "paircount.count_close_pairs_s",
                "paircount.close_pairs_s",
                "paircount.calls_per_report",
                "montecarlo.replicate_s.p50",
                "montecarlo.wait_s",
                "montecarlo.workers",
                "montecarlo.ks_test_s",
                "processes.generate_s",
            ],
        },
        "exact_counts": [
            "paircount.count_close_pairs.calls",
            "paircount.count_close_pairs.hits",
            "paircount.close_pairs.calls",
            "paircount.close_pairs.hits",
            "paircount.calls_per_report",
            "estimators.estimate_report.calls",
            "processes.generate.calls",
        ],
    },
    "keys_3d_grid": {
        "why": "count-only 3-D grid path on a dense bounded table (6 columns, n=2000, 20 "
        "subsets of 3) under the epskeys pool; no triples and no 1-D data, so it is the "
        "control for triple and 1-D changes",
        "moves": {
            "wall_ref_s": [
                "paircount.count_close_pairs_s",
                "epskeys.evaluate_subset_s.p50",
                "epskeys.evaluate_subset_s.max",
                "epskeys.wait_s",
                "core.read_sample_csv_s",
            ],
        },
        "exact_counts": [
            "paircount.count_close_pairs.calls",
            "paircount.count_close_pairs.hits",
            "epskeys.subsets",
        ],
    },
}

WORKLOADS = tuple(NOTES)


def ma2_series(seed: int, n: int) -> np.ndarray:
    """Equal-weight MA(2) with standard normal marginal, as an (n, 1) array."""
    z = np.random.default_rng(seed).standard_normal(n + 2)
    return ((z[:-2] + z[1:-1] + z[2:]) / math.sqrt(3.0))[:, None]


def pearson2_table(seed: int, n: int, d: int, rho: float) -> np.ndarray:
    """iid rows with a Pearson type-II law: bounded, correlation rho off the diagonal.

    X = sqrt(d+4) L z_head / ||z|| with z a window of d+4 standard normals and
    L the Cholesky factor of the correlation matrix, so every row satisfies
    x' sigma^-1 x <= d+4.
    """
    sigma = np.full((d, d), rho) + (1.0 - rho) * np.eye(d)
    chol = np.linalg.cholesky(sigma)
    window = d + 4
    z = np.random.default_rng(seed).standard_normal((n, window))
    norms = np.sqrt(np.einsum("ij,ij->i", z, z))
    return math.sqrt(window) * (z[:, :d] @ chol.T) / norms[:, None]


def write_csv(path: str, data: np.ndarray) -> None:
    # %.17g round-trips every float64 exactly through float(tok)
    np.savetxt(path, data, fmt="%.17g", delimiter=",")


def input_table(workload: str, seed: int) -> np.ndarray | None:
    """The CSV table a workload reads, or None when it reads no CSV."""
    if workload == "estimate_1d_large":
        return ma2_series(seed, ESTIMATE_N)
    if workload == "keys_3d_grid":
        return pearson2_table(seed, KEYS_N, KEYS_D, KEYS_RHO)
    return None


def build_inputs(workload: str, seed: int, workdir: str) -> dict:
    """Write the workload's input files under workdir; return their paths."""
    if workload == "simulate_small_reps":
        path = os.path.join(workdir, "plan.json")
        with open(path, "w") as fh:
            json.dump(dict(SIMULATE_PLAN, base_seed=seed), fh)
        return {"plan": path}
    path = os.path.join(workdir, "input.csv")
    write_csv(path, input_table(workload, seed))
    return {"input": path}


def cli_argv(workload: str, files: dict, output: str) -> list[str]:
    """Arguments for epsentropy.cli.main, writing the result JSON to output."""
    if workload == "estimate_1d_large":
        return ["estimate", "--input", files["input"], "--eps", str(ESTIMATE_EPS),
                "--r", str(ESTIMATE_R), "--ci", "sqrtn", "--exp-pivot", "--output", output]
    if workload == "simulate_small_reps":
        return ["simulate", "--plan", files["plan"], "--output", output]
    if workload == "keys_3d_grid":
        return ["keys", "--input", files["input"], "--eps", str(KEYS_EPS),
                "--size", str(KEYS_SIZE), "--output", output]
    raise ValueError(f"unknown workload {workload!r}")
