import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsentropy.core import RngStream, SeriesSample, ball_volume
from epsentropy.epskeys import KeyCandidate, all_subsets, evaluate_subset, rank_candidates

from helpers import brute_pair_count


def _int_table(seed, n, n_cols, hi=6):
    # integer-valued columns: at eps < 1 two rows collide iff the projections
    # are identical, which makes every count checkable by eye
    gen = RngStream(seed, 0).generator()
    return SeriesSample(gen.integers(0, hi, size=(n, n_cols)).astype(float))


def test_ramp_column_is_an_exact_key():
    table = SeriesSample(np.arange(30.0).reshape(-1, 1))
    cand = evaluate_subset(table, (0,), eps=0.5)
    assert cand.n_pairs_close == 0
    assert cand.q2_hat == 0.0
    assert cand.p_key == 1.0
    assert cand.is_exact_key
    assert cand.d == 1


def test_constant_column_collides_everywhere():
    n = 12
    table = SeriesSample(np.zeros((n, 1)))
    cand = evaluate_subset(table, (0,), eps=0.5)
    pairs = n * (n - 1) // 2
    assert cand.n_pairs_close == pairs
    assert not cand.is_exact_key
    assert cand.p_key == pytest.approx(math.exp(-pairs), rel=1e-12)


def test_p_key_is_exp_of_minus_count():
    table = _int_table(400, 50, 3)
    for attrs in all_subsets(3, 2):
        cand = evaluate_subset(table, attrs, eps=0.9)
        assert cand.p_key == pytest.approx(math.exp(-cand.n_pairs_close), rel=1e-12)
        assert 0.0 < cand.p_key <= 1.0
        assert (cand.p_key == 1.0) == (cand.n_pairs_close == 0)


def test_counts_and_q2_match_brute_force():
    table = _int_table(401, 40, 4)
    pairs = 40 * 39 // 2
    for size in (1, 2, 3):
        for attrs in all_subsets(4, size):
            cand = evaluate_subset(table, attrs, eps=0.9)
            ref = brute_pair_count(table.points[:, list(attrs)], 0.9)
            assert cand.n_pairs_close == ref
            assert cand.q2_hat == pytest.approx(ref / (pairs * ball_volume(size, 0.9)), rel=1e-12)


def test_attributes_come_back_sorted():
    table = _int_table(402, 20, 3)
    cand = evaluate_subset(table, (2, 0), eps=0.9)
    assert cand.attributes == (0, 2)
    assert cand.to_dict() == {
        "attributes": [0, 2],
        "n_pairs_close": cand.n_pairs_close,
        "q2_hat": cand.q2_hat,
        "p_key": cand.p_key,
    }


def test_adding_a_column_never_adds_collisions():
    # projecting onto more coordinates can only grow the distance
    table = _int_table(403, 60, 3, hi=4)
    single = evaluate_subset(table, (0,), eps=0.9)
    for extra in (1, 2):
        wider = evaluate_subset(table, (0, extra), eps=0.9)
        assert wider.n_pairs_close <= single.n_pairs_close


def test_ranking_order_on_engineered_table():
    n = 24
    data = np.zeros((n, 3))
    data[:, 0] = 0.0                   # constant: worst candidate
    data[:, 1] = np.arange(n) * 5.0    # injective and spread out: best
    data[:, 2] = np.repeat(np.arange(n // 2) * 5.0, 2)  # each value twice
    table = SeriesSample(data)
    ranked = rank_candidates(table, [(0,), (1,), (2,)], eps=0.5)
    assert [c.attributes for c in ranked] == [(1,), (2,), (0,)]
    assert ranked[0].is_exact_key
    assert ranked[0].q2_hat < ranked[1].q2_hat < ranked[2].q2_hat


def test_ranking_matches_independent_sort():
    table = _int_table(404, 50, 4, hi=3)
    subsets = all_subsets(4, 2)
    ranked = rank_candidates(table, subsets, eps=0.9)
    scored = [evaluate_subset(table, s, eps=0.9) for s in subsets]
    assert ranked == sorted(scored, key=lambda c: (c.q2_hat, c.attributes))


def test_ranking_ignores_input_order():
    table = _int_table(405, 40, 4, hi=3)
    subsets = all_subsets(4, 2)
    assert rank_candidates(table, subsets, eps=0.9) == rank_candidates(
        table, list(reversed(subsets)), eps=0.9
    )


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_ranking_ignores_input_order_and_attribute_order(data):
    # one call counts every subset in one pass per pivot column; which
    # subsets share a pass must not show in the ranking
    n_cols = data.draw(st.integers(2, 5))
    size = data.draw(st.integers(1, min(3, n_cols)))
    table = _int_table(data.draw(st.integers(0, 10**6)), 30, n_cols, hi=data.draw(st.integers(2, 4)))
    subsets = [data.draw(st.permutations(s)) for s in all_subsets(n_cols, size)]
    ranked = rank_candidates(table, subsets, eps=0.9)
    assert rank_candidates(table, data.draw(st.permutations(subsets)), eps=0.9) == ranked
    by_attrs = {c.attributes: c.n_pairs_close for c in ranked}
    assert by_attrs == {tuple(sorted(s)): brute_pair_count(table.points[:, list(s)], 0.9)
                        for s in subsets}


def test_all_subsets_enumeration_and_caps():
    assert all_subsets(5, 2) == list(combinations(range(5), 2))
    assert all_subsets(3, 3) == [(0, 1, 2)]
    with pytest.raises(ValueError):
        all_subsets(5, 0)
    with pytest.raises(ValueError):
        all_subsets(5, 6)
    with pytest.raises(ValueError, match="cap"):
        all_subsets(50, 10)


def test_rank_candidates_rejections():
    table = _int_table(407, 20, 3)
    with pytest.raises(ValueError, match="at least one"):
        rank_candidates(table, [], eps=0.9)
    with pytest.raises(ValueError, match="cardinality"):
        rank_candidates(table, [(0,), (0, 1)], eps=0.9)
    with pytest.raises(ValueError, match="cap"):
        rank_candidates(table, [(0,)] * 100_001, eps=0.9)


def test_non_integer_columns_are_rejected_and_numpy_ints_stay_json_safe():
    table = _int_table(409, 20, 3)
    for subsets in ([(0, 1.5)], [(0, True)], [(0, 1), (0, 2.0)]):
        with pytest.raises(ValueError, match="column must be an integer"):
            rank_candidates(table, subsets, eps=0.2)
    ranked = rank_candidates(table, [np.array([2, 0]), (np.int32(1), 0)], eps=0.2)
    assert sorted(c.attributes for c in ranked) == [(0, 1), (0, 2)]
    for c in ranked:
        assert all(type(a) is int for a in c.attributes)
        json.dumps(c.to_dict())


def test_bad_columns_and_tiny_tables_are_rejected():
    table = _int_table(408, 20, 2)
    with pytest.raises(ValueError):
        evaluate_subset(table, (0, 5), eps=0.9)
    one_row = SeriesSample([[1.0, 2.0]])
    with pytest.raises(ValueError, match="two rows"):
        evaluate_subset(one_row, (0,), eps=0.9)


def test_radius_whose_ball_volume_underflows_is_rejected():
    table = _int_table(37, 6, 2)
    with pytest.raises(ValueError, match="underflows to 0 at radius 1e-170 in dimension 2"):
        rank_candidates(table, [(0, 1)], 1e-170)


def test_radius_whose_ball_volume_overflows_is_rejected():
    table = _int_table(37, 6, 2)
    with pytest.raises(ValueError, match=r"overflows at radius 1e\+200 in dimension 2"):
        rank_candidates(table, [(0, 1)], 1e200)


def test_candidate_is_hashable_value_object():
    a = KeyCandidate(attributes=(0, 1), n_pairs_close=3, q2_hat=0.2, p_key=0.05)
    b = KeyCandidate(attributes=(0, 1), n_pairs_close=3, q2_hat=0.2, p_key=0.05)
    assert a == b and hash(a) == hash(b)
