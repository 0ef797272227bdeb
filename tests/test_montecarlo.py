import csv
import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest
import scipy.special as sps
import scipy.stats as st

from epsentropy import montecarlo, paircount
from epsentropy.core import RngStream, normal_quantile
from epsentropy.estimators import EstimateConfig, ResidualKind, estimate_report, residual_from_report
from epsentropy.montecarlo import (
    DEFAULT_SEED,
    SimulationPlan,
    kolmogorov_p_value,
    ks_test,
    probe_moments,
    probe_poisson_regime,
    run_residual_study,
    standardize_batch,
    write_residuals_csv,
)
from epsentropy.processes import (
    ProcessSpec,
    ProcessTruth,
    Sampler,
    generate,
    iid_uniform_process,
    lognormal_onedep_process,
    ma2_normal_process,
)


# ---------------------------------------------------------------------------
# Kolmogorov machinery
# ---------------------------------------------------------------------------

def test_kolmogorov_p_matches_scipy():
    for t in (0.3, 0.5, 0.8, 1.0, 1.36, 2.0, 2.5):
        assert kolmogorov_p_value(t) == pytest.approx(float(sps.kolmogorov(t)), abs=1e-9)
    assert kolmogorov_p_value(0.0) == 1.0
    assert kolmogorov_p_value(-1.0) == 1.0
    assert kolmogorov_p_value(50.0) == 0.0


@pytest.mark.parametrize(
    "data,cdf,expected",
    [
        ([0.5], "uniform01", 0.5),
        ([0.25, 0.75], "uniform01", 0.25),
        ([0.1, 0.2], "uniform01", 0.8),
        ([0.9], "uniform01", 0.9),
        ([0.0, 0.0, 0.0, 0.0], "uniform01", 1.0),
        ([math.log(2.0)], "exp1", 0.5),
        ([0.0], "std_normal", 0.5),
    ],
)
def test_ks_statistic_hand_values(data, cdf, expected):
    stat, _ = ks_test(data, cdf)
    assert stat == pytest.approx(expected, rel=1e-12)


def test_ks_statistic_quantile_spread():
    # sample sitting exactly at F^{-1}((i - 1/2)/n) has sup-distance 1/(2n)
    n = 10
    data = (np.arange(1, n + 1) - 0.5) / n
    stat, p = ks_test(data, "uniform01")
    assert stat == pytest.approx(0.5 / n, rel=1e-12)
    assert p == 1.0  # far below any critical value


def test_ks_against_scipy():
    x = normal_quantile(RngStream(200, 0).generator().random(500))
    stat, p = ks_test(x, "std_normal")
    ref = st.kstest(x, "norm", mode="asymp")
    assert stat == pytest.approx(ref.statistic, abs=1e-12)
    assert p == pytest.approx(ref.pvalue, abs=1e-6)


def test_ks_accepts_callable_cdf():
    x = RngStream(201, 0).generator().random(400) * 2.0
    stat, p = ks_test(x, lambda v: np.clip(v / 2.0, 0.0, 1.0))
    assert p > 0.01


def test_ks_p_values_are_uniform_under_null():
    # KS of the KS p-values themselves: 300 independent normal batches
    pvals = []
    for i in range(300):
        z = normal_quantile(RngStream(202, i).generator().random(80))
        pvals.append(ks_test(z, "std_normal")[1])
    _, p = ks_test(pvals, "uniform01")
    assert p > 0.01


def test_ks_validation():
    with pytest.raises(ValueError):
        ks_test([])
    with pytest.raises(ValueError):
        ks_test([1.0, math.nan])
    with pytest.raises(ValueError):
        ks_test([0.5], "weibull")
    with pytest.raises(ValueError):
        ks_test([0.5], lambda v: v + 5.0)  # not a distribution function


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def _plan(**overrides):
    kwargs = dict(
        spec=ma2_normal_process(),
        n=100,
        n_sim=8,
        config=EstimateConfig(eps=0.1, r=2),
        kind=ResidualKind.H_SQRTN,
        base_seed=77,
    )
    kwargs.update(overrides)
    return SimulationPlan(**kwargs)


def test_plan_roundtrip():
    plan = _plan(config=EstimateConfig(eps=0.1, eps0=0.2, r=3), kind="q_neps")
    back = SimulationPlan.from_json(json.loads(json.dumps(plan.to_json())))
    assert back == plan


def test_plan_truth_selection():
    spec = lognormal_onedep_process()
    assert _plan(spec=spec, kind="q_sqrtn").truth() == spec.truth.q2
    assert _plan(spec=spec, kind="h_neps").truth() == spec.truth.h2
    truthless = ProcessSpec(family="copula_onedep", params={"theta": 1.0, "marginal": "custom"}, m=1, truth=ProcessTruth())
    with pytest.raises(ValueError, match="no truth"):
        _plan(spec=truthless).truth()


def test_plan_validation():
    with pytest.raises(ValueError):
        _plan(n=1)
    with pytest.raises(ValueError):
        _plan(n_sim=0)
    with pytest.raises(ValueError):
        _plan(base_seed=-1)
    with pytest.raises(ValueError):
        _plan(kind="median")
    assert _plan(kind="q_sqrtn").kind is ResidualKind.Q_SQRTN


# ---------------------------------------------------------------------------
# residual studies
# ---------------------------------------------------------------------------

def test_residual_study_shape_and_determinism():
    plan = _plan(spec=iid_uniform_process(1), kind="q_sqrtn", n=80, n_sim=12,
                 config=EstimateConfig(eps=0.05))
    a = run_residual_study(plan)
    b = run_residual_study(plan)
    assert a.residuals == b.residuals
    assert len(a.residuals) == 12
    assert a.ks_p_value == b.ks_p_value
    assert a.extras == {"kind": "q_sqrtn", "truth": 1.0, "base_seed": 77}
    doc = a.to_dict()
    assert doc["n"] == 80 and len(doc["residuals"]) == 12 and "ks_p_value" in doc


def test_residual_study_single_replicate_matches_by_hand():
    plan = _plan(spec=iid_uniform_process(1), kind="q_sqrtn", n=60, n_sim=3,
                 config=EstimateConfig(eps=0.05), base_seed=91)
    out = run_residual_study(plan)
    # replicate i draws from stream i, so any one of them can be re-run alone
    series = generate(plan.spec, 60, RngStream(91, 2))
    rep = estimate_report(series.sample, plan.config)
    assert out.residuals[2] == residual_from_report(rep, 1.0, ResidualKind.Q_SQRTN)


def test_residual_study_thread_count_does_not_change_output(monkeypatch):
    plan = _plan(spec=iid_uniform_process(1), kind="q_sqrtn", n=60, n_sim=10,
                 config=EstimateConfig(eps=0.05))
    monkeypatch.setenv("RENYI_THREADS", "1")
    serial = run_residual_study(plan)
    monkeypatch.setenv("RENYI_THREADS", "4")
    threaded = run_residual_study(plan)
    assert serial.residuals == threaded.residuals


def test_replicate_failures_carry_the_replicate_id():
    plan = _plan(n=10, config=EstimateConfig(eps=0.1, r=8))  # needs n >= 12
    with pytest.raises(RuntimeError, match="replicate 0"):
        run_residual_study(plan)


def test_residual_study_over_the_stack_budget_matches_one_by_one():
    # 250 replicates of n = 700 fill more than two stacks
    plan = _plan(n=700, n_sim=250, config=EstimateConfig(eps=0.1, eps0=0.12, r=5), base_seed=11)
    assert plan.n * plan.n_sim > 2 * paircount._STACK_VALUES
    out = run_residual_study(plan)
    one_by_one = tuple(
        residual_from_report(
            estimate_report(generate(plan.spec, plan.n, RngStream(11, i)).sample, plan.config),
            plan.truth(), plan.kind)
        for i in range(plan.n_sim))
    assert [r.hex() for r in out.residuals] == [r.hex() for r in one_by_one]
    # the same residuals as before replicates were stacked
    digest = hashlib.sha256(" ".join(r.hex() for r in out.residuals).encode()).hexdigest()
    assert digest == "c025067cdaa12f60e14723f12d88fa5d9087be1235e9645e65dc57aac3f33e9e"


def test_generation_failure_names_its_replicate(monkeypatch):
    draw = Sampler.draw

    def failing(self, stream):
        if stream.stream_id == 3:
            raise ValueError("generator broke")
        return draw(self, stream)

    monkeypatch.setattr(Sampler, "draw", failing)
    with pytest.raises(RuntimeError, match="^replicate 3: generator broke$"):
        run_residual_study(_plan())
    with pytest.raises(RuntimeError, match="^replicate 3: generator broke$"):
        probe_poisson_regime(iid_uniform_process(1), n=40, eps=0.01, n_sim=5)


def test_shaping_failure_names_its_replicate(monkeypatch):
    # rows whose first uniform is below 0.1 shape to a non-finite sample; a
    # stack that fails is shaped again row by row to name the first of them
    real = montecarlo.sampler

    def poisoned(spec, n):
        gen = real(spec, n)

        def transform(block):
            return [np.full(n, np.inf) if row[0] < 0.1 else path
                    for row, path in zip(block, gen.transform(block))]

        return dataclasses.replace(gen, transform=transform)

    first = next(i for i in range(100) if RngStream(70, i).generator().random() < 0.1)
    assert first > 0
    monkeypatch.setattr(montecarlo, "sampler", poisoned)
    message = f"^replicate {first}: sample contains non-finite values$"
    with pytest.raises(RuntimeError, match=message):
        run_residual_study(_plan(n_sim=100, base_seed=70))
    with pytest.raises(RuntimeError, match=message):
        probe_poisson_regime(iid_uniform_process(1), n=40, eps=0.01, n_sim=100, base_seed=70)


# ---------------------------------------------------------------------------
# regime probes
# ---------------------------------------------------------------------------

def _counts_one_by_one(spec, n, eps, n_sim, base_seed):
    return tuple(
        paircount.count_close_pairs(generate(spec, n, RngStream(base_seed, i)).sample, eps).n_pairs_close
        for i in range(n_sim))


@pytest.mark.parametrize("d,eps", [(1, 0.00125), (2, 0.03)])
def test_probe_counts_match_one_by_one(d, eps):
    spec = iid_uniform_process(d)
    out = probe_poisson_regime(spec, n=40, eps=eps, n_sim=400, base_seed=55)
    assert out.counts == _counts_one_by_one(spec, 40, eps, 400, 55)


def test_probes_match_their_values_before_stacking():
    # the seeds of the probe tests below, as computed one replicate at a time
    out = probe_poisson_regime(iid_uniform_process(1), n=40, eps=0.00125, n_sim=400, base_seed=55)
    assert sum(out.counts) == 808
    assert (out.tv_distance, out.count_mean, out.count_var) == (
        0.04460256867769667, 2.02, 2.109874686716792)
    assert probe_moments(iid_uniform_process(1), n=500, eps=0.001, n_sim=300, base_seed=56) == (
        0.9949066666666666, 1.0717269119286512)


@pytest.mark.parametrize("eps,what", [(1e200, "overflows"), (1e-200, "underflows to 0")])
def test_probes_reject_radii_whose_ball_volume_leaves_the_floats(eps, what):
    message = f"^ball volume {what} at radius {re.escape(str(eps))} in dimension 2$"
    with pytest.raises(ValueError, match=message):
        probe_poisson_regime(iid_uniform_process(2), n=10, eps=eps, n_sim=2)
    with pytest.raises(ValueError, match=message):
        probe_moments(iid_uniform_process(2), n=10, eps=eps, n_sim=2)


@pytest.mark.parametrize("n,eps,zeta", [
    (10, 1e100, None),  # eps**4 overflows, though the volume's eps**2 does not
    (1000, 1e75, 1.0),  # eps**4 is finite; times n**3 it is not
])
def test_moment_probe_rejects_a_variance_asymptote_that_overflows(monkeypatch, n, eps, zeta):
    def no_draw(*args):
        raise AssertionError("drew replicates for a rejected radius")

    monkeypatch.setattr(montecarlo, "_replicate_map", no_draw)
    message = f"^count variance asymptote overflows at radius {re.escape(str(eps))} in dimension 2$"
    with pytest.raises(ValueError, match=message):
        probe_moments(iid_uniform_process(2), n=n, eps=eps, n_sim=2, zeta=zeta)


def test_poisson_probe_mean_and_distance():
    out = probe_poisson_regime(iid_uniform_process(1), n=40, eps=0.00125, n_sim=400, base_seed=55)
    assert out.mu == pytest.approx(0.5 * 2.0 * 1.0 * 40 * 40 * 0.00125, rel=1e-12)
    assert len(out.counts) == 400
    assert 0.0 <= out.tv_distance <= 1.0
    assert out.count_mean == pytest.approx(out.mu, abs=0.3)


def test_poisson_probe_needs_q2():
    truthless = ProcessSpec(family="copula_onedep", params={"theta": 0.5, "marginal": "custom"}, m=1, truth=ProcessTruth())
    with pytest.raises(ValueError, match="q2"):
        probe_poisson_regime(truthless, 10, 0.01, 2)


def test_moment_probe_near_one_for_uniform():
    mr, vr = probe_moments(iid_uniform_process(1), n=500, eps=0.001, n_sim=300, base_seed=56)
    assert mr == pytest.approx(1.0, abs=0.15)
    assert vr == pytest.approx(1.0, abs=0.3)


def test_moment_probe_needs_zeta():
    with pytest.raises(ValueError, match="zeta"):
        probe_moments(ma2_normal_process(), 100, 0.05, 2)


# ---------------------------------------------------------------------------
# batch utilities
# ---------------------------------------------------------------------------

def test_standardize_batch():
    z = standardize_batch([1.0, 2.0, 3.0, 10.0])
    assert abs(z.mean()) < 1e-15
    assert z.std(ddof=1) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        standardize_batch([1.0])
    with pytest.raises(ValueError):
        standardize_batch([2.0, 2.0, 2.0])


def test_residuals_csv_roundtrip(tmp_path):
    path = str(tmp_path / "r.csv")
    values = [0.1, -2.5, 1.0 / 3.0]
    write_residuals_csv(values, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["residual"]
    assert [float(r[0]) for r in rows[1:]] == values


def test_default_seed_value():
    assert DEFAULT_SEED == 20260215
