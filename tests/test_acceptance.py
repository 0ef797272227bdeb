"""Acceptance gate: one test per shipped guarantee.

Each test prints a single line with the measured quantity and its band, then
asserts the band.  Everything is seeded, so these numbers are reproducible
bit for bit; the statistical margins were chosen against the frozen seeds.
Full module runtime is about 8 s on a 2-vCPU host.
"""

import json
import math

import numpy as np
import pytest

from epsentropy import cli
from epsentropy.asymptotics import exp_pivot_ci
from epsentropy.core import RngStream, SeriesSample, unit_ball_volume, write_sample_csv
from epsentropy.discrete import DiscreteSample, discrete_report, discrete_residual
from epsentropy.estimators import EstimateConfig, ResidualKind, estimate_report
from epsentropy.gof import gof_statistic, k_d
from epsentropy.montecarlo import (
    SimulationPlan,
    ks_test,
    probe_moments,
    probe_poisson_regime,
    run_residual_study,
)
from epsentropy.paircount import count_close_pairs, count_uh_triples, min_interpoint_distance
from epsentropy.processes import (
    cauchy_ratio_process,
    generate,
    iid_uniform_process,
    lognormal_onedep_process,
    ma2_normal_process,
    pearson2_process,
)

from helpers import (
    brute_discrete_q2,
    brute_pair_count,
    brute_uh_count,
    ma2_zeta_oracle,
)

SEED = 20260215


def _verdict(num, ok, detail):
    print(f"criterion {num:02d}: {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok


# ---------------------------------------------------------------------------

def test_criterion_01_ma2_entropy_residual_normality():
    plan = SimulationPlan(
        spec=ma2_normal_process(),
        n=500,
        n_sim=500,
        config=EstimateConfig(eps=0.1, eps0=0.1, r=6),
        kind=ResidualKind.H_SQRTN,
        base_seed=SEED,
    )
    assert plan.truth() == pytest.approx(math.log(2.0 * math.sqrt(math.pi)), rel=1e-12)
    out = run_residual_study(plan)
    _verdict(1, out.ks_p_value > 0.01,
             f"MA(2) entropy residuals, KS p = {out.ks_p_value:.4f} (need > 0.01)")


def test_criterion_02_lognormal_q2_residual_normality():
    plan = SimulationPlan(
        spec=lognormal_onedep_process(),
        n=500,
        n_sim=500,
        config=EstimateConfig(eps=0.03, eps0=0.03, r=4),
        kind=ResidualKind.Q_SQRTN,
        base_seed=SEED,
    )
    assert plan.truth() == pytest.approx(math.exp(0.25) / (2.0 * math.sqrt(math.pi)), rel=1e-12)
    out = run_residual_study(plan)
    _verdict(2, out.ks_p_value > 0.01,
             f"lognormal q2 residuals, KS p = {out.ks_p_value:.4f} (need > 0.01)")


def test_criterion_03_cauchy_low_eps_residual_normality():
    plan = SimulationPlan(
        spec=cauchy_ratio_process(),
        n=500,
        n_sim=500,
        config=EstimateConfig(eps=0.01),
        kind=ResidualKind.Q_NEPS,
        base_seed=SEED,
    )
    assert plan.truth() == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
    out = run_residual_study(plan)
    _verdict(3, out.ks_p_value > 0.01,
             f"Cauchy small-eps residuals, KS p = {out.ks_p_value:.4f} (need > 0.01)")


def test_criterion_04_poisson_count_regime():
    n = 1000
    out = probe_poisson_regime(iid_uniform_process(1), n=n, eps=2.0 / n**2,
                               n_sim=2000, base_seed=SEED)
    assert out.mu == pytest.approx(2.0, rel=1e-12)
    _verdict(4, out.tv_distance < 0.05,
             f"close-pair counts vs Poisson(2), TV = {out.tv_distance:.4f} (need < 0.05)")


def test_criterion_05_exp_pivot_and_coverage():
    n = 1000
    spec = iid_uniform_process(1)
    scale = 0.5 * unit_ball_volume(1) * 1.0 * n * n
    pivots = []
    covered = 0
    n_sim = 2000
    for i in range(n_sim):
        sample = generate(spec, n, RngStream(SEED, i)).sample
        y = min_interpoint_distance(sample)
        pivots.append(scale * y)
        if exp_pivot_ci(sample.n, sample.d, y, level=0.95).contains(1.0):
            covered += 1
    _, p = ks_test(pivots, "exp1")
    coverage = covered / n_sim
    ok = p > 0.01 and 0.92 <= coverage <= 0.98
    _verdict(5, ok,
             f"min-distance pivot KS p = {p:.4f} (need > 0.01), "
             f"95% CI coverage = {coverage:.4f} (need in [0.92, 0.98])")


def test_criterion_06_count_moment_ratios():
    mr, vr = probe_moments(iid_uniform_process(1), n=2000, eps=1e-4,
                           n_sim=400, base_seed=SEED)
    vr_dep = probe_moments(ma2_normal_process(), n=500, eps=0.05, n_sim=400,
                           base_seed=SEED, zeta=ma2_zeta_oracle())[1]
    ok = 0.9 <= mr <= 1.1 and 0.9 <= vr <= 1.1 and 0.8 <= vr_dep <= 1.2
    _verdict(6, ok,
             f"iid mean/var ratios = {mr:.4f}/{vr:.4f} (need in [0.9, 1.1]), "
             f"MA(2) var ratio = {vr_dep:.4f} (need in [0.8, 1.2])")


def test_criterion_07_dual_route_exactness():
    checked = 0
    for i in range(200):
        gen = RngStream(700, i).generator()
        d = 1 + i % 3
        n = int(gen.integers(2, 121))
        pts = gen.normal(size=(n, d)) * gen.uniform(0.5, 3.0)
        eps = float(gen.uniform(0.01, 1.5))
        sample = SeriesSample(pts)
        assert count_close_pairs(sample, eps).n_pairs_close == brute_pair_count(pts, eps)
        checked += 1

    triples = 0
    for n in (20, 40, 60):
        gen = RngStream(701, n).generator()
        pts = np.round(gen.uniform(0.0, 3.0, size=(n, 1)) * 4.0) / 4.0
        sample = SeriesSample(pts)
        for h in range(4):
            assert count_uh_triples(sample, h, 0.3) == brute_uh_count(pts, h, 0.3)
            triples += 1

    scans = 0
    for j, n in enumerate((50, 200)):
        gen = RngStream(702, j).generator()
        symbols = gen.integers(0, 5, size=n)
        assert discrete_report(DiscreteSample(symbols), 0).qn == brute_discrete_q2(symbols)
        scans += 1

    _verdict(7, True,
             f"grid == brute on {checked} pair instances, factorized == enumerated "
             f"on {triples} triple counts, frequency map == scan on {scans} symbol sets")


def test_criterion_08_shrinking_eps_consistency():
    spec = ma2_normal_process()
    q2_true = spec.truth.q2
    sizes = (250, 500, 1000, 2000)
    sums = {n: 0.0 for n in sizes}
    reps = 100
    for i in range(reps):
        g = generate(spec, max(sizes), RngStream(20260220, i))
        for n in sizes:
            sums[n] += estimate_report(SeriesSample(g.sample.points[:n]), EstimateConfig(eps=n ** -0.4)).q2_hat
    errors = [abs(sums[n] / reps - q2_true) for n in sizes]
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    ok = decreasing and errors[-1] < 0.02
    _verdict(8, ok,
             "mean q2 error by n = " + "/".join(f"{e:.5f}" for e in errors)
             + f" (need strictly decreasing, final < 0.02)")


def test_criterion_09_variance_plugin_accuracy():
    g = generate(ma2_normal_process(), 2000, RngStream(SEED, 4))
    rep = estimate_report(g.sample, EstimateConfig(eps=0.1, eps0=0.1, r=6))
    zeta_ratio = rep.zeta_hat / ma2_zeta_oracle()
    u0_ratio = rep.u3_hat[0] / (1.0 / (2.0 * math.pi * math.sqrt(3.0)))
    ok = 0.7 <= zeta_ratio <= 1.3 and 0.9 <= u0_ratio <= 1.1
    _verdict(9, ok,
             f"zeta plug-in / oracle = {zeta_ratio:.4f} (need in [0.7, 1.3]), "
             f"lag-0 triple / truth = {u0_ratio:.4f} (need in [0.9, 1.1])")


def test_criterion_10_max_entropy_gof():
    anchors = {1: 3.727, 2: 14.137, 3: 54.304}
    anchor_ok = all(abs(k_d(d) - a) / a < 5e-4 for d, a in anchors.items())

    spec = pearson2_process([0.0], [[1.0]])
    ratios = []
    for i in range(3):
        sample = generate(spec, 5000, RngStream(SEED, i)).sample
        ratios.append(gof_statistic(sample, eps=0.05).ratio)
    ratio_ok = all(0.9 <= r <= 1.1 for r in ratios)
    _verdict(10, anchor_ok and ratio_ok,
             "max-entropy ratios = " + "/".join(f"{r:.4f}" for r in ratios)
             + " (need in [0.9, 1.1]), K_d anchors matched to 4 significant digits")


def test_criterion_11_discrete_residuals_and_s2():
    # non-uniform 1-dependent binary chain: X_t = 1{U_t + U_{t+1} > 1.2}
    q2_true = 0.68**2 + 0.32**2
    h2_true = -math.log(q2_true)

    res_q, res_h = [], []
    for i in range(500):
        u = RngStream(SEED, i).generator().random(501)
        chain = DiscreteSample((u[:-1] + u[1:] > 1.2).astype(np.int64))
        report = discrete_report(chain, 1)
        res_q.append(discrete_residual(report, q2_true, "q"))
        res_h.append(discrete_residual(report, h2_true, "h"))
    _, p_q = ks_test(res_q, "std_normal")
    _, p_h = ks_test(res_h, "std_normal")

    gen = RngStream(SEED, 999).generator()
    bands = {500: 1e-2, 2000: 3e-3, 8000: 1e-3}
    s2_vals = {n: discrete_report(DiscreteSample(gen.integers(0, 4, size=n)), 2).s2_hat
               for n in bands}
    s2_ok = all(abs(s2_vals[n]) < band for n, band in bands.items())

    ok = p_q > 0.01 and p_h > 0.01 and s2_ok
    _verdict(11, ok,
             f"symbol-chain residual KS p = {p_q:.4f}/{p_h:.4f} (need > 0.01), "
             "uniform-alphabet s2 = " + "/".join(f"{s2_vals[n]:+.2e}" for n in bands)
             + " (need shrinking to 0)")


def test_criterion_12_cli_byte_determinism(tmp_path):
    gen = RngStream(SEED, 7).generator()
    table = SeriesSample(gen.integers(0, 5, size=(40, 3)).astype(float))
    table_csv = str(tmp_path / "table.csv")
    write_sample_csv(table, table_csv)
    symbols_csv = str(tmp_path / "symbols.csv")
    with open(symbols_csv, "w") as fh:
        fh.write("\n".join(str(int(s)) for s in gen.choice(4, size=150, p=[0.5, 0.2, 0.2, 0.1])) + "\n")
    # the generate pair runs first and leaves its CSV for the readers below
    sample_csv = str(tmp_path / "generate_a.csv")

    plan = SimulationPlan(spec=iid_uniform_process(1), n=60, n_sim=5,
                          config=EstimateConfig(eps=0.05), kind="q_sqrtn", base_seed=SEED)
    plan_path = str(tmp_path / "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan.to_json(), fh)

    runs = {
        "generate": ["generate", "--family", "iid_uniform", "--params", '{"d": 1}',
                     "--n", "60", "--seed", str(SEED), "--output", None],
        "estimate": ["estimate", "--input", sample_csv, "--eps", "0.1", "--r", "2",
                     "--ci", "sqrtn", "--exp-pivot", "--output", None],
        "gof": ["gof", "--input", sample_csv, "--eps", "0.2", "--output", None],
        "keys": ["keys", "--input", table_csv, "--eps", "0.9", "--size", "2",
                 "--output", None],
        "discrete": ["discrete", "--input", symbols_csv, "--r", "1",
                     "--truth", "0.34", "--kind", "q", "--output", None],
        "simulate": ["simulate", "--plan", plan_path, "--output", None],
    }
    identical = []
    for name, argv in runs.items():
        suffix = ".csv" if name == "generate" else ".json"
        out_a = str(tmp_path / f"{name}_a{suffix}")
        out_b = str(tmp_path / f"{name}_b{suffix}")
        for out in (out_a, out_b):
            argv[-1] = out
            assert cli.main(list(argv)) == 0, name
        with open(out_a, "rb") as fa, open(out_b, "rb") as fb:
            identical.append(fa.read() == fb.read())
    ok = all(identical)
    _verdict(12, ok, f"{len(runs)} subcommands repeated with fixed seeds, "
                     f"{sum(identical)}/{len(runs)} byte-identical outputs")
