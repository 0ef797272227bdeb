import hashlib
import math
import re

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hs
from helpers import (
    cauchy_pdf,
    gauss_pair_product,
    gaussian_pdf,
    lognormal_pdf,
    pearson2_d1_pdf,
    quad_power_integral,
)

from epsentropy import montecarlo, processes
from epsentropy.core import RngStream, normal_quantile
from epsentropy.processes import (
    COPULA_MARGINALS,
    ProcessSpec,
    cauchy_ratio_process,
    copula_onedep_process,
    gaussian_ma_process,
    generate,
    iid_uniform_process,
    lognormal_ma_process,
    lognormal_onedep_process,
    ma2_normal_process,
    pearson2_process,
    pearson2_quantile,
    sampler,
)

INF = float("inf")


# ---------------------------------------------------------------------------
# closed-form truths vs quadrature
# ---------------------------------------------------------------------------

def test_gaussian_truths_by_quadrature():
    spec = gaussian_ma_process([2.0, 1.0, 2.0])  # sigma = 3
    pdf = gaussian_pdf(3.0)
    assert spec.truth.q2 == pytest.approx(quad_power_integral(pdf, -40, 40, 2), rel=1e-10)
    assert spec.truth.q3 == pytest.approx(quad_power_integral(pdf, -40, 40, 3), rel=1e-10)
    assert spec.truth.h2 == pytest.approx(-math.log(spec.truth.q2), rel=1e-15)
    assert spec.truth.h3 == pytest.approx(-0.5 * math.log(spec.truth.q3), rel=1e-15)
    assert spec.m == 2


def test_lognormal_truths_by_quadrature():
    spec = lognormal_onedep_process()
    assert spec.m == 1
    pdf = lognormal_pdf(1.0)
    assert spec.truth.q2 == pytest.approx(quad_power_integral(pdf, 0, INF, 2), rel=1e-9)
    assert spec.truth.q3 == pytest.approx(quad_power_integral(pdf, 0, INF, 3), rel=1e-9)


def test_cauchy_truths_by_quadrature():
    spec = cauchy_ratio_process()
    assert spec.truth.q2 == pytest.approx(quad_power_integral(cauchy_pdf, -INF, INF, 2), rel=1e-10)
    assert spec.truth.q3 == pytest.approx(quad_power_integral(cauchy_pdf, -INF, INF, 3), rel=1e-10)
    assert spec.m == 1


def test_pearson2_truth_by_quadrature():
    spec = pearson2_process([0.0], [[1.0]])
    assert spec.truth.q2 == pytest.approx(
        quad_power_integral(pearson2_d1_pdf, -3, 3, 2), rel=1e-9
    )
    # scale: det^{1/2} divides q2
    wide = pearson2_process([0.0], [[4.0]])
    assert wide.truth.q2 == pytest.approx(spec.truth.q2 / 2.0, rel=1e-12)


def test_ma2_q3_equals_triple_density_integral():
    # u3 limit at lag 0 is E[p(X)^2], the same integral the q3 constant holds
    spec = ma2_normal_process()
    assert spec.truth.q3 == pytest.approx(gauss_pair_product(1.0), rel=1e-9)


def test_iid_uniform_truths():
    t = iid_uniform_process(1).truth
    assert (t.q2, t.h2, t.zeta) == (1.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# dependence structure
# ---------------------------------------------------------------------------

def _lag_corr(x, h):
    return float(np.corrcoef(x[:-h], x[h:])[0, 1])


def test_ma2_lag_correlations():
    x = generate(gaussian_ma_process([1, 1, 1]), 120_000, RngStream(70, 0)).sample.points[:, 0]
    assert _lag_corr(x, 1) == pytest.approx(2.0 / 3.0, abs=0.01)
    assert _lag_corr(x, 2) == pytest.approx(1.0 / 3.0, abs=0.01)
    assert abs(_lag_corr(x, 3)) < 0.01  # independent beyond the window


def test_copula_chain_is_one_dependent():
    g = generate(copula_onedep_process(8.0, "uniform"), 120_000, RngStream(71, 0))
    x = g.sample.points[:, 0]
    assert _lag_corr(x, 1) > 0.2
    assert abs(_lag_corr(x, 2)) < 0.01
    assert g.spec.m == 1


def test_copula_theta_zero_gives_independence():
    x = generate(copula_onedep_process(0.0), 120_000, RngStream(72, 0)).sample.points[:, 0]
    assert abs(_lag_corr(x, 1)) < 0.01


# ---------------------------------------------------------------------------
# marginal laws
# ---------------------------------------------------------------------------

def test_gaussian_ma_marginal():
    x = generate(gaussian_ma_process([0.6, 0.8]), 20_000, RngStream(73, 0)).sample.points[:, 0]
    assert st.kstest(x, st.norm(scale=1.0).cdf).pvalue > 0.01


def test_lognormal_marginal():
    g = generate(lognormal_onedep_process(), 20_000, RngStream(74, 0))
    x = g.sample.points[:, 0]
    assert np.all(x > 0)
    assert st.kstest(x, st.lognorm(s=1.0).cdf).pvalue > 0.01


def test_cauchy_marginal():
    x = generate(cauchy_ratio_process(), 20_000, RngStream(75, 0)).sample.points[:, 0]
    assert np.all(np.isfinite(x))
    assert st.kstest(x, st.cauchy.cdf).pvalue > 0.01


@pytest.mark.parametrize("marginal", sorted(COPULA_MARGINALS))
def test_copula_marginal_exact(marginal):
    spec = copula_onedep_process(3.0, marginal)
    x = generate(spec, 20_000, RngStream(76, 0)).sample.points[:, 0]
    cdfs = {
        "uniform": st.uniform.cdf,
        "normal": st.norm.cdf,
        "lognormal": st.lognorm(s=1.0).cdf,
        "pearson2": lambda v: 0.5
        + 3.0 / (4.0 * math.sqrt(5.0)) * (np.clip(v, -math.sqrt(5), math.sqrt(5))
        - np.clip(v, -math.sqrt(5), math.sqrt(5)) ** 3 / 15.0),
    }
    assert st.kstest(x, cdfs[marginal]).pvalue > 0.01


def test_pearson2_support_and_moments():
    mu = np.array([1.0, -2.0])
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    g = generate(pearson2_process(mu, sigma), 40_000, RngStream(77, 0))
    pts = g.sample.points
    centered = pts - mu
    quad = np.einsum("ij,jk,ik->i", centered, np.linalg.inv(sigma), centered)
    assert np.max(quad) <= 6.0 + 1e-9  # support radius d + 4
    assert np.allclose(pts.mean(axis=0), mu, atol=0.03)
    assert np.allclose(np.cov(pts.T), sigma, atol=0.05)


def test_pearson2_marginal_d1():
    x = generate(pearson2_process([0.0], [[1.0]]), 20_000, RngStream(78, 0)).sample.points[:, 0]
    root5 = math.sqrt(5.0)
    cdf = lambda v: 0.5 + 3.0 / (4.0 * root5) * (v - v**3 / 15.0)
    assert np.max(np.abs(x)) <= root5
    assert st.kstest(x, cdf).pvalue > 0.01


def test_iid_uniform_shape_and_law():
    g = generate(iid_uniform_process(3), 5_000, RngStream(79, 0))
    assert g.sample.d == 3 and g.sample.n == 5_000
    assert st.kstest(g.sample.points.ravel(), st.uniform.cdf).pvalue > 0.01


# ---------------------------------------------------------------------------
# quantiles
# ---------------------------------------------------------------------------

def test_pearson2_quantile_roundtrip():
    p = np.linspace(0.01, 0.99, 33)
    x = pearson2_quantile(p)
    root5 = math.sqrt(5.0)
    back = 0.5 + 3.0 / (4.0 * root5) * (x - x**3 / 15.0)
    assert np.allclose(back, p, atol=1e-12)
    assert pearson2_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert pearson2_quantile(0.5, mu=2.0, scale=3.0) == pytest.approx(2.0, abs=1e-11)
    with pytest.raises(ValueError):
        pearson2_quantile(0.0)
    with pytest.raises(ValueError):
        pearson2_quantile(1.0)


# ---------------------------------------------------------------------------
# specs, dispatch, determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "spec",
    [
        gaussian_ma_process([0.3, 0.7, 0.1]),
        lognormal_ma_process([1.0, 0.5]),
        cauchy_ratio_process(),
        copula_onedep_process(2.5, "normal"),
        pearson2_process([0.0, 1.0], [[1.0, 0.2], [0.2, 2.0]], m=3),
        iid_uniform_process(4),
    ],
)
def test_spec_json_roundtrip(spec):
    back = ProcessSpec.from_json(spec.to_json())
    assert back == spec


def test_spec_from_json_unknown_family():
    with pytest.raises(ValueError, match="unknown process family"):
        ProcessSpec.from_json({"family": "white_noise", "params": {}})


def test_spec_from_json_integer_params_default_when_absent():
    pearson2 = {"mu": [0.0], "sigma": [[1.0]]}
    assert ProcessSpec.from_json({"family": "iid_uniform", "params": {}}) == iid_uniform_process(1)
    assert ProcessSpec.from_json({"family": "pearson2", "params": pearson2}).m == 4
    assert ProcessSpec.from_json({"family": "pearson2", "params": dict(pearson2, m=2)}).m == 2


_PEARSON2 = {"mu": [0.0, 1.0], "sigma": [[1.0, 0.2], [0.2, 2.0]]}


@pytest.mark.parametrize("family,params,field,what", [
    ("copula_onedep", {"theta": "2.5"}, "theta", "a number"),
    ("copula_onedep", {"theta": True}, "theta", "a number"),
    ("copula_onedep", {"theta": [2.5]}, "theta", "a number"),
    ("copula_onedep", {"theta": None}, "theta", "a number"),
    ("copula_onedep", {"theta": 10**400}, "theta", "a number"),
    ("copula_onedep", {}, "theta", "missing"),
    ("copula_onedep", {"theta": 2.5, "marginal": ["normal"]}, "marginal", "a string"),
    ("copula_onedep", {"theta": 2.5, "marginal": None}, "marginal", "a string"),
    ("gaussian_ma", {"theta": "1.5"}, "theta", "a number or a list of numbers"),
    ("gaussian_ma", {"theta": [True, 1]}, "theta", "a number or a list of numbers"),
    ("gaussian_ma", {"theta": [[0.5, 0.5]]}, "theta", "a number or a list of numbers"),
    ("gaussian_ma", {"theta": [1.0, -(10**400)]}, "theta", "a number or a list of numbers"),
    ("lognormal_ma", {"theta": ["1.0", 0.5]}, "theta", "a number or a list of numbers"),
    ("lognormal_ma", {}, "theta", "missing"),
    ("pearson2", dict(_PEARSON2, mu="0"), "mu", "a number or a list of numbers"),
    ("pearson2", dict(_PEARSON2, mu=[0.0, False]), "mu", "a number or a list of numbers"),
    ("pearson2", dict(_PEARSON2, sigma=[1.0, 2.0]), "sigma", "a list of equal-length lists"),
    ("pearson2", dict(_PEARSON2, sigma=[[1.0, 0.2], [0.2, "2"]]), "sigma", "a list of equal-length lists"),
    ("pearson2", dict(_PEARSON2, sigma=[[1.0, 0.2], [2.0]]), "sigma", "a list of equal-length lists"),
    ("pearson2", dict(_PEARSON2, sigma=[[1.0, 0.2], [0.2, math.inf]]), "sigma", "a list of equal-length lists"),
])
def test_spec_from_json_rejects_params_of_the_wrong_json_type(family, params, field, what):
    with pytest.raises(ValueError) as info:
        ProcessSpec.from_json({"family": family, "params": params})
    message = str(info.value)
    assert "\n" not in message
    assert message.startswith(f"family {family!r} spec param {field!r}") and what in message


@pytest.mark.parametrize("doc,want", [
    ({"family": "copula_onedep", "params": {"theta": 2}}, copula_onedep_process(2.0)),
    ({"family": "copula_onedep", "params": {"theta": 0, "marginal": "normal"}},
     copula_onedep_process(0.0, "normal")),
    ({"family": "gaussian_ma", "params": {"theta": 2}}, gaussian_ma_process([2.0])),
    ({"family": "lognormal_ma", "params": {"theta": [1, 0.5]}}, lognormal_ma_process([1.0, 0.5])),
    ({"family": "pearson2", "params": {"mu": 0, "sigma": [[2]]}}, pearson2_process([0.0], [[2.0]])),
])
def test_spec_from_json_takes_json_integers_as_numbers(doc, want):
    assert ProcessSpec.from_json(doc) == want


def test_generate_dispatch_and_determinism():
    for spec in (
        ma2_normal_process(),
        lognormal_onedep_process(),
        cauchy_ratio_process(),
        copula_onedep_process(1.5, "pearson2"),
        pearson2_process([0.0], [[1.0]]),
        iid_uniform_process(2),
    ):
        a = generate(spec, 200, RngStream(80, 5))
        b = generate(spec, 200, RngStream(80, 5))
        c = generate(spec, 200, RngStream(80, 6))
        assert a.spec == spec and a.stream == RngStream(80, 5)
        assert np.array_equal(a.sample.points, b.sample.points)
        assert not np.array_equal(a.sample.points, c.sample.points)


@pytest.mark.parametrize("n", [0, -3, 2.5, True])
def test_generate_rejects_bad_length(n):
    with pytest.raises(ValueError):
        generate(iid_uniform_process(1), n, RngStream(81, 0))


def test_process_parameter_validation():
    with pytest.raises(ValueError):
        gaussian_ma_process([])
    with pytest.raises(ValueError):
        gaussian_ma_process([0.0, 0.0])
    with pytest.raises(ValueError):
        copula_onedep_process(-1.0)
    with pytest.raises(ValueError):
        copula_onedep_process(2.0, "triangular")
    with pytest.raises(ValueError):
        pearson2_process([0.0], [[1.0]], m=0)
    with pytest.raises(ValueError):
        pearson2_process([0.0], [[1.0]], m=5)  # cap is d + 3
    with pytest.raises(ValueError):
        pearson2_process([0.0], [[-1.0]])
    with pytest.raises(ValueError):
        iid_uniform_process(0)


@pytest.mark.parametrize("bad", [2.5, 2.0, True])
def test_integer_process_parameters_are_never_truncated(bad):
    with pytest.raises(ValueError, match="dimension must be an integer"):
        iid_uniform_process(bad)
    with pytest.raises(ValueError, match="dependence parameter m must be an integer"):
        pearson2_process([0.0], [[1.0]], m=bad)


def test_numpy_integer_process_parameters_stay_json_safe():
    assert iid_uniform_process(np.int64(2)).to_json() == {"family": "iid_uniform", "params": {"d": 2}}
    spec = pearson2_process([0.0], [[1.0]], m=np.int32(2))
    assert type(spec.params["m"]) is int and spec.m == 2


@pytest.mark.parametrize("make,theta", [
    (gaussian_ma_process, [1e308, 1e308]),  # the norm overflows
    (gaussian_ma_process, [1e-200]),  # the norm underflows to 0
    (gaussian_ma_process, [1e154]),  # q3 underflows to 0
    (gaussian_ma_process, [1e-160]),  # q3 overflows
    (lognormal_ma_process, [60.0]),  # exp(sigma^2 / 4) overflows
    (lognormal_ma_process, [1e-200, 0.0]),
])
def test_ma_functionals_out_of_float_range_name_theta(make, theta):
    message = rf"^moving-average weights theta {re.escape(str(theta))} are out of range: "
    with pytest.raises(ValueError, match=message):
        make(theta)
    family = make([1.0]).family
    with pytest.raises(ValueError, match=message):
        ProcessSpec.from_json({"family": family, "params": {"theta": theta}})


@pytest.mark.parametrize("theta", [[1e150], [1e-150], [3e-155, 4e-155], [0.0, 1e-100]])
def test_ma_functionals_near_the_float_range_are_kept(theta):
    spec = gaussian_ma_process(theta)
    sig = float(np.sqrt(np.sum(np.asarray(theta) ** 2)))
    assert spec.truth.q2 == 1.0 / (2.0 * sig * math.sqrt(math.pi))
    assert all(map(math.isfinite, (spec.truth.q2, spec.truth.h2, spec.truth.q3, spec.truth.h3)))


# ---------------------------------------------------------------------------
# stacked generation: a block of streams shapes to each stream's own bits
# ---------------------------------------------------------------------------

FAMILIES = {
    "gaussian_ma_1": gaussian_ma_process([1.0]),
    "gaussian_ma_2": gaussian_ma_process([0.6, 0.8]),
    "gaussian_ma_3": ma2_normal_process(),
    "lognormal_ma_2": lognormal_onedep_process(),
    "lognormal_ma_3": lognormal_ma_process([0.5, -0.25, 0.125]),
    "cauchy_ratio": cauchy_ratio_process(),
    "copula_uniform": copula_onedep_process(2.0, "uniform"),
    "copula_normal": copula_onedep_process(2.0, "normal"),
    "copula_lognormal": copula_onedep_process(2.0, "lognormal"),
    "copula_pearson2": copula_onedep_process(2.0, "pearson2"),
    "copula_theta0": copula_onedep_process(0.0, "normal"),
    "pearson2_1": pearson2_process([0.0], [[1.0]]),
    "pearson2_2": pearson2_process([0.5, -1.0], [[1.0, 0.3], [0.3, 2.0]], 3),
    "pearson2_3": pearson2_process([0.0, 0.0, 0.0], [[1.0, 0.2, 0.1], [0.2, 1.0, 0.0], [0.1, 0.0, 1.5]]),
    "iid_uniform_1": iid_uniform_process(1),
    "iid_uniform_2": iid_uniform_process(2),
    "iid_uniform_3": iid_uniform_process(3),
}

# sha256 of generate(spec, 257, RngStream(5, 0)).sample.points, recorded when
# every family still generated one stream at a time
PINNED = {
    "gaussian_ma_1": "68d3b4a2fcd75bf90d916a23c6c1e17afce5be55d95390fb4e5fe3762406fffc",
    "gaussian_ma_2": "d8eb165bb5d57c5eb5d08468155c55541d6aca52ac243fc08c7c250fb4afdefd",
    "gaussian_ma_3": "30b7e0a261a6ee787a98a8039e3507bc7b7017091a52cb61533335539e25f4d5",
    "lognormal_ma_2": "ee16f7ab5aac1c6c7a8dc7394bd1a20d0b8cb767b0d80b1e1dc3f34eb042b369",
    "lognormal_ma_3": "eb5ad5bb2dbecad51b10f65ac3f8c28ddcba25f30a760434c6edce9495dda520",
    "cauchy_ratio": "49f3211449c0323d0e5dfb6b0d1bd70cfe17d5d62f24dfc7c974eed0d3366d94",
    "copula_uniform": "773d9c0ba56721d8f4df09c951dc436aedc876795d855d1aae4420046e104ac0",
    "copula_normal": "e3f2005453a35d9eca39fc199692b2e4234d5cb375f247b128e7176462d6dcd8",
    "copula_lognormal": "097b2fad3711fc170612fced45d3b963c5641ba13fe15e156321c01e96045e9c",
    "copula_pearson2": "1bebf387bc5b77cac13574b9c61e66f1a77a6338fa007b76eb9e1b04ce68d3fc",
    "copula_theta0": "5fc6856045266adeab60fedd223384fe054fe666c7b1213405c6b8a4ad347296",
    "pearson2_1": "409bd8c04d8ebf7942914742cddcd12a83b94e72eb53b6d7d4f659fec92f6142",
    "pearson2_2": "b052c25a640b3866c8ef9aa0badb4c9b406d3c4a6a581927128e2f40aface93d",
    "pearson2_3": "c89a9266d33eb8f64217928371dac576e17e814168d5ff14f59ad157826c7cb5",
    "iid_uniform_1": "33edd70f370bdf2f87c10ecd9c563de3155420dc70dfaa7c6a3b5237719e54d1",
    "iid_uniform_2": "ca919db342fd51d68b905cef6d4ad8316f8925b458c7ab4530e76101ef27b696",
    "iid_uniform_3": "1f35ea0305b871444cb2c486352ebca2474dfd790b967505e849ca84be1d25c2",
}


def _bits(sample):
    return sample.points.tobytes()


def test_normal_innovations_are_quantiles_of_the_stream():
    # inverse-CDF of the stream's uniforms: no rejection step, so the same
    # stream gives the same normals
    gen = sampler(gaussian_ma_process([1.0]), 4000)
    a = gen.draw(RngStream(11, 0))
    assert np.array_equal(a, gen.draw(RngStream(11, 0)))
    assert np.array_equal(a, RngStream(11, 0).generator().random(4000))
    z = gen.shape(a[None])[0].points[:, 0]
    assert np.array_equal(z, normal_quantile(a))
    assert abs(z.mean()) < 0.06 and abs(z.std() - 1.0) < 0.05


@pytest.mark.parametrize("name", ["gaussian_ma_2", "iid_uniform_2"])
def test_a_block_of_streams_is_its_streams_drawn_one_by_one(name):
    # one vectorized seeding pass per block gives each row its own stream's
    # bits; ids past 2^32 take a two-word spawn key
    gen = sampler(FAMILIES[name], 300)
    ids = [0, 1, 2, 7, 64, 2**32 - 1, 2**32, 2**40 + 3]
    block = gen.draw_block(21, ids)
    assert block.shape == (len(ids), gen.width)
    for i, row in zip(ids, block):
        alone = gen.draw(RngStream(21, i))
        assert np.array_equal(row, alone)
        want = np.random.Generator(np.random.PCG64(np.random.SeedSequence(21, spawn_key=(i,))))
        assert np.array_equal(row, want.random(gen.width))


def test_the_nudge_runs_over_the_whole_block(monkeypatch):
    # streams whose every other uniform is the grid point 0.0
    class HalfZeros:
        def random(self, out):
            out[0::2], out[1::2] = 0.0, 0.5

    monkeypatch.setattr(processes, "stream_generator", lambda words: HalfZeros())
    # nudged to 2^-54 in every row where a quantile follows; left as drawn otherwise
    for name, low in (("gaussian_ma_2", 2.0**-54), ("iid_uniform_2", 0.0)):
        assert np.unique(sampler(FAMILIES[name], 9).draw_block(5, range(3))).tolist() == [low, 0.5]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_generated_bits_are_pinned(name):
    # the spec as built, and as a plan or the CLI reads it through the family table
    spec = FAMILIES[name]
    for given_spec in (spec, ProcessSpec.from_json(spec.to_json())):
        points = generate(given_spec, 257, RngStream(5, 0)).sample.points
        assert hashlib.sha256(points.tobytes()).hexdigest() == PINNED[name]


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(name=hs.sampled_from(sorted(FAMILIES)), k=hs.sampled_from([1, 2, 7]),
       n=hs.one_of(hs.just(1), hs.integers(1, 80)), seed=hs.integers(0, 2**32))
def test_stacked_shape_matches_one_stream_at_a_time(name, k, n, seed):
    spec = FAMILIES[name]
    gen = sampler(spec, n)
    streams = [RngStream(seed, i) for i in range(k)]
    stacked = gen.shape(np.stack([gen.draw(stream) for stream in streams]))
    assert len(stacked) == k
    for stream, sample in zip(streams, stacked):
        alone = generate(spec, n, stream)
        assert alone.spec == spec
        assert _bits(sample) == _bits(alone.sample)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_stacks_across_the_value_budget_match_one_stream_at_a_time(name):
    # n = 5000: seven rows fill more than one stack; iid_uniform_3 at n = 12000
    # has rows longer than a stack, which are shaped alone
    spec = FAMILIES[name]
    n = 12_000 if name == "iid_uniform_3" else 5_000
    gen = sampler(spec, n)
    assert 7 * gen.width > montecarlo._STACK_VALUES
    shaped = montecarlo._counted(gen, n, 7, 17, list)
    assert [x.tobytes() for x in shaped] == [
        _bits(generate(spec, n, RngStream(17, i)).sample) for i in range(7)]

