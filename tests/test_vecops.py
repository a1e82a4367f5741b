import numpy as np
import pytest

from qdc.errors import DimMismatchError, EmptyListError
from qdc.vecops import _as_vector, id_rank, mean_embedding, top_order


def test_mean_embedding_two_vectors():
    out = mean_embedding([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    np.testing.assert_array_equal(out, [0.5, 0.5])


def test_mean_embedding_singleton():
    np.testing.assert_array_equal(mean_embedding([np.array([2.0, 2.0])]), [2.0, 2.0])


def test_mean_embedding_matches_reference_loop():
    rng = np.random.default_rng(0)
    vs = [rng.normal(size=16) for _ in range(100)]
    acc = np.zeros(16)
    for v in vs:
        acc = acc + v
    np.testing.assert_allclose(mean_embedding(vs), acc / 100, rtol=0, atol=1e-12)


def test_mean_embedding_reversal_agrees_within_tolerance():
    rng = np.random.default_rng(1)
    vs = [rng.normal(size=8) * 10.0**int(rng.integers(-3, 4)) for _ in range(60)]
    fwd = mean_embedding(vs)
    rev = mean_embedding(vs[::-1])
    np.testing.assert_allclose(rev, fwd, rtol=0, atol=1e-12)


def test_mean_embedding_empty_rejected():
    with pytest.raises(EmptyListError):
        mean_embedding([])


def test_mean_embedding_mixed_dims_rejected():
    with pytest.raises(DimMismatchError):
        mean_embedding([np.zeros(2) + 1, np.ones(3)])


def test_mean_embedding_rejects_matrices():
    with pytest.raises(DimMismatchError):
        mean_embedding([np.ones((2, 2))])


def test_mean_embedding_accepts_lists():
    np.testing.assert_array_equal(mean_embedding([[1, 2], [3, 4]]), [2.0, 3.0])


def test_mean_embedding_leaves_inputs_unchanged():
    vs = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
    mean_embedding(vs)
    np.testing.assert_array_equal(vs[0], [1.0, 2.0])
    np.testing.assert_array_equal(vs[1], [3.0, 4.0])


def test_as_vector_converts_to_float64():
    out = _as_vector([1, 2, 3])
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])


def test_as_vector_rejects_scalar():
    with pytest.raises(DimMismatchError):
        _as_vector(3.0)


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
