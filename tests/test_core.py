import math

import numpy as np
import pytest
import scipy.special as sps

from epsentropy.core import (
    MAX_DIM,
    RngStream,
    SeriesSample,
    ball_volume,
    normal_cdf,
    normal_quantile,
    read_sample_csv,
    read_symbol_csv,
    standard_normals,
    unit_ball_volume,
    worker_count,
    write_sample_csv,
    write_symbol_csv,
)


# ---------------------------------------------------------------------------
# SeriesSample
# ---------------------------------------------------------------------------

def test_sample_coerces_1d_to_column():
    s = SeriesSample([1.0, 2.0, 3.0])
    assert s.points.shape == (3, 1)
    assert s.n == 3 and s.d == 1


def test_sample_is_immutable():
    s = SeriesSample(np.arange(6.0).reshape(3, 2))
    with pytest.raises(ValueError):
        s.points[0, 0] = 99.0


def test_sample_casts_to_float64():
    s = SeriesSample(np.array([[1, 2], [3, 4]], dtype=np.int32))
    assert s.points.dtype == np.float64


@pytest.mark.parametrize(
    "bad",
    [
        np.empty((0, 2)),
        np.zeros((2, 0)),
        np.zeros((2, MAX_DIM + 1)),
        np.zeros((2, 2, 2)),
        [[1.0, np.nan]],
        [[1.0, np.inf]],
    ],
)
def test_sample_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        SeriesSample(bad)


def test_prefix_and_project():
    s = SeriesSample(np.arange(12.0).reshape(4, 3))
    p = s.prefix(2)
    assert np.array_equal(p.points, s.points[:2])
    pr = s.project([2, 0])
    assert np.array_equal(pr.points, s.points[:, [2, 0]])
    with pytest.raises(ValueError):
        s.prefix(0)
    with pytest.raises(ValueError):
        s.prefix(5)
    with pytest.raises(ValueError):
        s.project([])
    with pytest.raises(ValueError):
        s.project([0, 0])
    with pytest.raises(ValueError):
        s.project([3])


# ---------------------------------------------------------------------------
# ball volumes
# ---------------------------------------------------------------------------

def test_unit_ball_volume_low_dims():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-15)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)


@pytest.mark.parametrize("d", list(range(1, MAX_DIM + 1)))
def test_unit_ball_volume_against_gamma(d):
    # independent route: pi^{d/2} / Gamma(d/2 + 1) via scipy's gamma
    expected = math.pi ** (d / 2.0) / sps.gamma(d / 2.0 + 1.0)
    assert unit_ball_volume(d) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("d", [0, MAX_DIM + 1, 2.0, True])
def test_unit_ball_volume_rejects(d):
    with pytest.raises(ValueError):
        unit_ball_volume(d)


@pytest.mark.parametrize("d,eps", [(1, 0.1), (2, 0.25), (3, 1.5), (7, 0.01)])
def test_ball_volume_scales_as_eps_power(d, eps):
    assert ball_volume(d, eps) / unit_ball_volume(d) == pytest.approx(eps**d, rel=1e-14)


@pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan])
def test_ball_volume_rejects_bad_radius(eps):
    with pytest.raises(ValueError):
        ball_volume(2, eps)


# ---------------------------------------------------------------------------
# normal quantile / cdf
# ---------------------------------------------------------------------------

def test_normal_quantile_matches_scipy_everywhere():
    # includes deep tails where the two outer branches of the approximation run
    ps = np.array(
        [1e-300, 1e-100, 1e-30, 1e-12, 1e-6, 0.01, 0.2, 0.425, 0.5, 0.575, 0.9, 0.999, 1.0 - 1e-12]
    )
    ours = normal_quantile(ps)
    ref = sps.ndtri(ps)
    assert np.all(np.abs(ours - ref) <= 1e-9 * np.maximum(1.0, np.abs(ref)))


def test_normal_quantile_known_values():
    assert normal_quantile(0.5) == 0.0
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
    assert normal_quantile(0.84134474606854293) == pytest.approx(1.0, abs=1e-12)


def test_normal_quantile_symmetry():
    p = np.linspace(0.001, 0.499, 40)
    assert np.allclose(normal_quantile(p), -normal_quantile(1.0 - p), atol=1e-13)


def test_normal_quantile_scalar_vs_array():
    assert isinstance(normal_quantile(0.3), float)
    out = normal_quantile(np.array([[0.3, 0.7]]))
    assert out.shape == (1, 2)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
def test_normal_quantile_domain(p):
    with pytest.raises(ValueError):
        normal_quantile(p)
    with pytest.raises(ValueError):
        normal_quantile(np.array([0.5, p]))


def test_normal_cdf_matches_scipy():
    x = np.linspace(-8.0, 8.0, 101)
    assert np.allclose(normal_cdf(x), sps.ndtr(x), atol=1e-14)
    assert normal_cdf(0.0) == 0.5


def test_cdf_quantile_roundtrip():
    p = np.linspace(0.01, 0.99, 25)
    assert np.allclose(normal_cdf(normal_quantile(p)), p, atol=1e-12)


# ---------------------------------------------------------------------------
# rng streams
# ---------------------------------------------------------------------------

def test_rng_stream_reproducible():
    a = RngStream(7, 3).generator().random(16)
    b = RngStream(7, 3).generator().random(16)
    assert np.array_equal(a, b)


def test_rng_streams_distinct():
    a = RngStream(7, 0).generator().random(16)
    b = RngStream(7, 1).generator().random(16)
    c = RngStream(8, 0).generator().random(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_stream_sibling():
    assert RngStream(7, 0).stream(4) == RngStream(7, 4)


@pytest.mark.parametrize("seed,sid", [(-1, 0), (0, -2), (1.5, 0), (True, 0), (0, False)])
def test_rng_stream_validation(seed, sid):
    with pytest.raises(ValueError):
        RngStream(seed, sid)


def test_standard_normals_deterministic_and_standard():
    a = standard_normals(RngStream(11, 0).generator(), 4000)
    b = standard_normals(RngStream(11, 0).generator(), 4000)
    assert np.array_equal(a, b)
    # inverse-CDF of uniforms: quantile transform applied to the same stream
    u = RngStream(11, 0).generator().random(4000)
    assert np.array_equal(a, normal_quantile(u))
    assert abs(a.mean()) < 0.06 and abs(a.std() - 1.0) < 0.05


# ---------------------------------------------------------------------------
# worker count
# ---------------------------------------------------------------------------

def test_worker_count_env_override(monkeypatch):
    monkeypatch.setenv("RENYI_THREADS", "3")
    assert worker_count(10) == 3
    assert worker_count(2) == 2
    assert worker_count(0) == 1


def test_worker_count_env_invalid(monkeypatch):
    monkeypatch.setenv("RENYI_THREADS", "zero")
    with pytest.raises(ValueError):
        worker_count(4)
    monkeypatch.setenv("RENYI_THREADS", "0")
    with pytest.raises(ValueError):
        worker_count(4)


def test_worker_count_default(monkeypatch):
    monkeypatch.delenv("RENYI_THREADS", raising=False)
    assert 1 <= worker_count(4) <= 4
    assert worker_count(1) == 1


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------

def test_sample_csv_roundtrip_exact(tmp_path):
    pts = RngStream(3, 0).generator().normal(size=(40, 3)) * 1e-7
    path = str(tmp_path / "s.csv")
    write_sample_csv(SeriesSample(pts), path)
    back = read_sample_csv(path)
    assert np.array_equal(back.points, pts)


def test_sample_csv_header(tmp_path):
    path = str(tmp_path / "s.csv")
    write_sample_csv(SeriesSample([[1.0, 2.0]]), path, header=["a", "b"])
    with open(path) as fh:
        assert fh.readline().strip() == "a,b"
    back = read_sample_csv(path)
    assert back.n == 1 and back.d == 2
    with pytest.raises(ValueError):
        write_sample_csv(SeriesSample([[1.0, 2.0]]), path, header=["a"])


@pytest.mark.parametrize(
    "text,msg",
    [
        ("", "empty"),
        ("a,b\n", "header only"),
        ("1.0,2.0\n3.0\n", "ragged"),
        ("1.0,2.0\n3.0,x\n", "non-numeric"),
    ],
)
def test_sample_csv_rejects(tmp_path, text, msg):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=msg):
        read_sample_csv(str(path))


def test_symbol_csv_roundtrip(tmp_path):
    sym = RngStream(4, 0).generator().integers(-5, 5, size=(30, 2))
    path = str(tmp_path / "t.csv")
    write_symbol_csv(sym, path)
    back = read_symbol_csv(path)
    assert back.dtype == np.int64
    assert np.array_equal(back, sym)


def test_symbol_csv_rejects_floats(tmp_path):
    # silent rounding would corrupt tie counts, so "3.0" must be refused
    path = tmp_path / "t.csv"
    path.write_text("1,2\n3.0,4\n")
    with pytest.raises(ValueError, match="not an integer"):
        read_symbol_csv(str(path))


def test_symbol_csv_header_tolerated(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("sym\n1\n2\n")
    assert np.array_equal(read_symbol_csv(str(path)), np.array([[1], [2]]))
