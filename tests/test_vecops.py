import numpy as np
import pytest

from qdc.errors import ZeroVectorError
from qdc.vecops import ZERO_NORM_EPS, id_rank, scaled_rows, top_order


@pytest.mark.parametrize("k", [1, 2, 7, 39, 40, 55])
def test_top_order_matches_full_lexsort(k):
    rng = np.random.default_rng(3)
    # few distinct scores force ties, also across the k-th position
    scores = rng.integers(0, 6, size=40).astype(np.float64)
    ids = rng.permutation(1000)[:40]
    expected = np.lexsort((ids, -scores))[:k]
    np.testing.assert_array_equal(top_order(scores, ids, k), expected)


def test_top_order_descending_scores():
    scores = np.array([0.1, 0.9, -0.3, 0.5])
    ids = np.arange(4)
    np.testing.assert_array_equal(top_order(scores, ids, 3), [1, 3, 0])


def test_top_order_ties_break_by_ascending_id():
    scores = np.zeros(4)
    ids = np.array([5, 2, 9, 1])
    np.testing.assert_array_equal(top_order(scores, ids, 2), [3, 1])


def test_top_order_ties_at_cut_keep_lowest_ids():
    scores = np.array([3.0, 1.0, 2.0, 2.0, 2.0])
    ids = np.array([10, 11, 14, 12, 13])
    np.testing.assert_array_equal(top_order(scores, ids, 2), [0, 3])


def test_top_order_k_beyond_n_returns_every_position():
    scores = np.array([0.2, 0.4, 0.3])
    np.testing.assert_array_equal(top_order(scores, np.arange(3), 10), [1, 2, 0])


def test_top_order_empty_scores():
    out = top_order(np.array([]), np.array([], dtype=np.int64), 5)
    assert len(out) == 0


@pytest.mark.parametrize("k", [1, 5, 30, 60, 65])
def test_id_rank_orders_as_the_string_ids(k):
    # repeated ids and scores: the rank keeps lexsort's (id, position) order
    rng = np.random.default_rng(k)
    ids = np.asarray([f"d{int(i):03d}" for i in rng.integers(0, 25, size=60)])
    scores = rng.integers(0, 4, size=60).astype(np.float64)
    rank = id_rank(list(ids))
    assert sorted(rank.tolist()) == list(range(60))
    np.testing.assert_array_equal(
        np.lexsort((rank, -scores)), np.lexsort((ids, -scores))
    )
    np.testing.assert_array_equal(
        top_order(scores, rank, k), top_order(scores, ids, k)
    )


@pytest.mark.parametrize("exp", [-30, 0, 30, 1000])
def test_scaled_rows_are_exact_powers_of_two(exp):
    # at 2^1000 a square overflows float64; the scaled rows' do not
    rows = np.ldexp(np.array([[3.0, -4.0, 0.0], [0.25, 0.5, -1.0]]), exp)
    scaled, norms = scaled_rows(rows, "row")
    # the largest |entry| of each scaled row lies in [0.5, 1)
    top = np.abs(scaled).max(axis=1)
    assert ((top >= 0.5) & (top < 1)).all()
    np.testing.assert_array_equal(scaled / scaled[:, :1], rows / rows[:, :1])
    np.testing.assert_array_equal(
        norms, [np.linalg.norm(row) for row in scaled]
    )


@pytest.mark.parametrize(
    "rows",
    [np.zeros((1, 3)), np.array([[1.0, 0.0], [0.0, ZERO_NORM_EPS / 2]])],
    ids=["zero", "below-eps"],
)
def test_scaled_rows_rejects_a_numerically_zero_row(rows):
    with pytest.raises(ZeroVectorError, match="row is numerically zero"):
        scaled_rows(rows, "row")


def test_scaled_rows_tiny_entries_with_a_norm_above_eps():
    # every |entry| is below ZERO_NORM_EPS, the norm 4e-12 is not
    rows = np.array([[1.0] * 64, [0.5e-12] * 64])
    assert np.abs(rows[1]).max() < ZERO_NORM_EPS < np.linalg.norm(rows[1])
    scaled, norms = scaled_rows(rows, "row")
    np.testing.assert_array_equal(norms, [np.linalg.norm(row) for row in scaled])


@pytest.mark.parametrize("tiny", [1e-14, 0.5e-12 / 8, 5e-324])
def test_scaled_rows_rejects_a_norm_below_eps(tiny):
    rows = np.array([[1.0] * 64, [tiny] * 64])
    assert np.linalg.norm(rows[1]) < ZERO_NORM_EPS
    with pytest.raises(ZeroVectorError, match="^row is numerically zero$"):
        scaled_rows(rows, "row")
