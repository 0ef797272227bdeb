import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from helpers import mask_normal_quantile

from epsentropy.core import (
    MAX_DIM,
    DEFAULT_SEED,
    RngStream,
    SeriesSample,
    ball_volume,
    normal_cdf,
    normal_quantile,
    read_sample_csv,
    read_symbol_csv,
    stream_words,
    unit_ball_volume,
    worker_count,
    write_sample_csv,
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


def test_project():
    s = SeriesSample(np.arange(12.0).reshape(4, 3))
    pr = s.project([2, 0])
    assert np.array_equal(pr.points, s.points[:, [2, 0]])
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


@pytest.mark.parametrize("d,eps", [(2, 1e-170), (3, 1e-110), (8, 1e-45)])
def test_ball_volume_rejects_underflow(d, eps):
    with pytest.raises(ValueError, match=rf"underflows to 0 at radius {eps} in dimension {d}"):
        ball_volume(d, eps)


@pytest.mark.parametrize("d,eps", [(2, 1e200), (1, 1e308), (3, 1e110), (8, 1e40)])
def test_ball_volume_rejects_overflow(d, eps):
    # eps**d overflows (raising OverflowError), or eps**d * b_1(d) rounds to inf
    with pytest.raises(ValueError, match=re.escape(f"overflows at radius {eps} in dimension {d}")):
        ball_volume(d, eps)


def test_ball_volume_keeps_subnormal_results():
    assert 0.0 < ball_volume(1, 1e-310) < 2.2250738585072014e-308


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


def test_normal_quantile_of_a_stack_is_each_row_alone():
    # stacked generation relies on this: the stack changes no bit of a row
    tails = [1e-300, 2.0**-54, 1e-16, 0.02425, 0.5, 0.97575, 1.0 - 1e-16, 1.0 - 2.0**-53]
    rows = np.vstack([tails, RngStream(12, 0).generator().random((6, len(tails)))])
    stacked = normal_quantile(rows)
    for row, out in zip(rows, stacked):
        assert out.tobytes() == normal_quantile(row).tobytes()


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, math.nan])
def test_normal_quantile_domain(p):
    with pytest.raises(ValueError, match="strictly inside"):
        normal_quantile(p)
    with pytest.raises(ValueError, match="strictly inside"):
        normal_quantile(np.array([0.5, p]))


# the smallest and largest p, and the values on both sides of the branch
# edges: |p - 1/2| = 0.425 and sqrt(-log p) = 5
_P_EDGES = [
    v
    for edge in (5e-324, 2.0**-54, 1e-300, 0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0))
    for v in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0))
    if 0.0 < v < 1.0
] + [0.5, 1.0 - 2.0**-53]
_P_VALUES = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.0, 1e-11, exclude_min=True),
    st.floats(0.0, 1e-11, exclude_min=True).map(lambda t: 1.0 - t).filter(lambda p: p < 1.0),
    st.sampled_from(_P_EDGES),
)


@st.composite
def _quantile_inputs(draw):
    """A Python float, a 0-d array, or a 1-D, 2-D, strided or transposed array."""
    kind = draw(st.sampled_from(["float", "0-d", "1-d", "2-d", "strided", "transposed"]))
    if kind == "float":
        return draw(_P_VALUES)
    if kind == "0-d":
        return np.array(draw(_P_VALUES))
    if kind == "1-d":
        shape = (draw(st.integers(0, 40)),)
    else:
        shape = (draw(st.integers(1, 6)), draw(st.integers(1, 40)))
    arr = draw(hnp.arrays(np.float64, shape, elements=_P_VALUES))
    if kind == "strided":
        return arr[:, ::2]
    return arr.T if kind == "transposed" else arr


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_quantile_inputs())
@example(np.array(_P_EDGES))
@example(5e-324)
@example(1.0 - 2.0**-53)
def test_normal_quantile_is_bit_identical_to_the_mask_form(p):
    got, want = normal_quantile(p), mask_normal_quantile(p)
    if np.ndim(p) == 0:
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()
    else:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("seed,sid", [(-1, 0), (0, -2), (1.5, 0), (True, 0), (0, False)])
def test_rng_stream_validation(seed, sid):
    with pytest.raises(ValueError):
        RngStream(seed, sid)


# numpy's SeedSequence is the oracle of the seed words: one- and multi-word
# seeds and spawn keys, at the edges of a 32-bit word
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**128 + 3, DEFAULT_SEED]
STREAM_IDS = [0, 1, 63, 64, 2**31, 2**32 - 1, 2**32, 2**40]


def _oracle_words(seed, stream_id):
    return np.random.SeedSequence(seed, spawn_key=(stream_id,)).generate_state(4, np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_words_are_the_seed_sequence_words(seed):
    want = np.array([_oracle_words(seed, i) for i in STREAM_IDS])
    # all ids at once (two word-length groups), and each id alone
    assert np.array_equal(stream_words(seed, STREAM_IDS), want)
    for i, row in zip(STREAM_IDS, want):
        assert np.array_equal(stream_words(seed, [i]), row[None])
    assert stream_words(seed, []).shape == (0, 4)


@pytest.mark.parametrize("seed", SEEDS)
def test_rng_stream_is_the_seed_sequence_stream(seed):
    for i in STREAM_IDS:
        oracle = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,))))
        assert np.array_equal(RngStream(seed, i).generator().random(1000), oracle.random(1000))


@pytest.mark.parametrize("seed,ids,error", [(-1, [0], ValueError), (0, [3, -2], ValueError),
                                           (1.5, [0], ValueError), (True, [0], ValueError),
                                           (0, [0.5], TypeError)])
def test_stream_words_validation(seed, ids, error):
    with pytest.raises(error):
        stream_words(seed, ids)


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
    with pytest.raises(ValueError, match=msg) as info:
        read_sample_csv(str(path))
    if msg in ("ragged", "non-numeric"):
        assert " row 2" in str(info.value)


@pytest.mark.parametrize(
    "text,msg",
    [
        # rows count from 1 after the header; blank lines do not count
        ("x,y\n\n1,2\n\n3,4\n5\n", r"ragged row 3 \(expected 2 columns, got 1\)"),
        ("x,y\n1,2\n\n3,z\n", "non-numeric value in row 2: could not convert string to float: 'z'"),
        ("1,2\n3,4#5\n", "non-numeric value in row 2: .*'4#5'"),
        ("1\n1_000\n", "non-numeric value in row 2: .*'1_000'"),
        # a first row the C reader refuses is a bad row, not a header
        ("1_000\n2\n", "non-numeric value in row 1: .*'1_000'"),
        ("1\n\u0661\n", "non-numeric value in row 2"),
        ("\ufeff\n\n", "empty CSV"),
        ("x,y\n\n", "header only"),
    ],
)
def test_sample_csv_error_names_the_row(tmp_path, text, msg):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=msg):
        read_sample_csv(str(path))


@pytest.mark.parametrize("text", ["", "x,y\n"])
def test_sample_csv_errors_raise_no_warning(tmp_path, text, recwarn):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        read_sample_csv(str(path))
    assert len(recwarn) == 0


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_sample_csv_rejects_non_finite(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"1.0\n{cell}\n")
    with pytest.raises(ValueError, match="non-finite"):
        read_sample_csv(str(path))
    # rows count from 1 after the header, blank lines not counted
    path.write_text(f"x\n1.0\n\n2.0\n{cell}\n")
    with pytest.raises(ValueError) as err:
        read_sample_csv(str(path))
    assert str(err.value) == f"{path}: non-finite value in row 3"


@pytest.mark.parametrize("header", ["", "x\n"])
def test_sample_csv_byte_order_mark(tmp_path, header):
    # a BOM must not turn the first data row into a header
    path = tmp_path / "bom.csv"
    path.write_text(header + "1.5\n2.5\n3.5\n4.5\n5.5\n", encoding="utf-8-sig")
    assert read_sample_csv(str(path)).points[:, 0].tolist() == [1.5, 2.5, 3.5, 4.5, 5.5]


def test_sample_csv_crlf_blank_lines_and_quotes(tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(b'\r\n"1.5",2\r\n3,"-4e-3"\r\n\r\n5,6\r\n\r\n\r\n')
    assert read_sample_csv(str(path)).points.tolist() == [[1.5, 2.0], [3.0, -4e-3], [5.0, 6.0]]


def test_sample_csv_header_with_quoted_comma(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text('"x, metres",y\n1,2\n3,4\n')
    assert read_sample_csv(str(path)).points.tolist() == [[1.0, 2.0], [3.0, 4.0]]


_FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6), elements=_FINITE))
def test_sample_csv_round_trip_is_bit_exact(tmp_path_factory, pts):
    path = tmp_path_factory.mktemp("rt") / "s.csv"
    for fmt in (repr, lambda v: "%.17g" % v):
        path.write_text("".join(",".join(fmt(float(v)) for v in row) + "\n" for row in pts))
        back = read_sample_csv(str(path)).points
        assert back.shape == pts.shape
        assert np.array_equal(back.view(np.uint64), pts.view(np.uint64))


def test_sample_csv_memory_is_bounded(tmp_path):
    # 200k x 3 doubles are 4.6 MiB; the reader must not hold the file as str
    pts = RngStream(9, 0).generator().normal(size=(200_000, 3))
    path = tmp_path / "big.csv"
    np.savetxt(path, pts, fmt="%.17g", delimiter=",")
    tracemalloc.start()
    try:
        back = read_sample_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.points, pts)
    assert peak < 16 * 2**20


def test_symbol_csv_roundtrip(tmp_path):
    sym = RngStream(4, 0).generator().integers(-5, 5, size=(30, 2))
    path = str(tmp_path / "t.csv")
    np.savetxt(path, sym, fmt="%d", delimiter=",")
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


@pytest.mark.parametrize(
    "text,msg",
    [
        ("1,2\n3\n", "ragged row 2"),
        ("s\n1\n2\nx\n", "row 3 column 1: 'x' is not an integer symbol"),
        ("1\n1_0\n", "row 2 column 1: '1_0' is not an integer symbol"),
        ("1\nnan\n", "row 2 column 1: 'nan' is not an integer symbol"),
        ("1,99999999999999999999\n", "row 1 column 2: .* is outside the int64 range"),
        ("-9223372036854775809\n", "outside the int64 range"),
    ],
)
def test_symbol_csv_errors(tmp_path, text, msg):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=msg):
        read_symbol_csv(str(path))


def test_symbol_csv_shares_the_grammar(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes('\ufeffa,"b, c"\r\n1,"-2"\r\n\r\n-9223372036854775808,4\r\n\r\n'.encode())
    back = read_symbol_csv(str(path))
    assert back.dtype == np.int64
    assert back.tolist() == [[1, -2], [-(2**63), 4]]
