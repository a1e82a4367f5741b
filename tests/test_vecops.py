import numpy as np
import pytest

from qdc.errors import ZeroVectorError
from qdc.vecops import (
    ZERO_NORM_EPS,
    above_floor,
    id_rank,
    scaled_rows,
    top_per_row,
)


def _one_row(scores, ids, k):
    """top_per_row's picks for one row of scores."""
    scores = np.asarray(scores, dtype=np.float64)
    picks, slots = top_per_row(
        np.zeros(len(scores), dtype=np.intp), scores, np.asarray(ids), k
    )
    assert slots.tolist() == list(range(len(picks)))
    return picks


@pytest.mark.parametrize("k", [1, 2, 7, 39, 40, 55])
def test_top_per_row_matches_full_lexsort(k):
    rng = np.random.default_rng(3)
    # few distinct scores force ties, also across the k-th position; rows
    # of 40, 0, 25 and 1 entries, given in no particular order
    row = rng.permutation(np.repeat([0, 2, 3, 5], [40, 25, 1, 0]))
    scores = rng.integers(0, 6, size=len(row)).astype(np.float64)
    ids = rng.permutation(1000)[: len(row)]
    picks, slots = top_per_row(row, scores, ids, k)
    want = []
    for r in range(6):
        entries = np.flatnonzero(row == r)
        order = np.lexsort((ids[entries], -scores[entries]))
        want += entries[order][:k].tolist()
    assert picks.tolist() == want
    assert slots.tolist() == [
        slot for r in (0, 2, 3) for slot in range(min(k, (row == r).sum()))
    ]


def test_top_per_row_descending_scores():
    scores = [0.1, 0.9, -0.3, 0.5]
    assert _one_row(scores, np.arange(4), 3).tolist() == [1, 3, 0]


def test_top_per_row_ties_break_by_ascending_id():
    assert _one_row(np.zeros(4), [5, 2, 9, 1], 2).tolist() == [3, 1]


def test_top_per_row_ties_at_cut_keep_lowest_ids():
    scores = [3.0, 1.0, 2.0, 2.0, 2.0]
    assert _one_row(scores, [10, 11, 14, 12, 13], 2).tolist() == [0, 3]


def test_top_per_row_k_beyond_n_returns_every_position():
    assert _one_row([0.2, 0.4, 0.3], np.arange(3), 10).tolist() == [1, 2, 0]


def test_top_per_row_empty_input():
    empty = np.array([], dtype=np.intp)
    picks, slots = top_per_row(empty, np.array([]), empty, 5)
    assert len(picks) == 0 and len(slots) == 0


@pytest.mark.parametrize(
    "n, k", [(1, 1), (5, 2), (64, 2), (97, 3), (300, 3), (641, 20), (641, 1)]
)
@pytest.mark.parametrize("below", [0.0, 1.5])
def test_above_floor_keeps_each_rows_k_best(n, k, below):
    rng = np.random.default_rng(n * k)
    # ties, -inf entries (masked positives) and rows of both
    scores = rng.integers(0, 8, size=(6, n)).astype(np.float64)
    scores[1] = -np.inf
    scores[2, rng.random(n) < 0.9] = -np.inf
    scores[3, : n - k] = -np.inf
    row, col = above_floor(scores, k, below)
    # the k-th best of the m = min(n, 32 k) strided group maxima, less below
    m = min(n, 32 * k)
    groups = scores[:, : n // m * m].reshape(6, n // m, m).max(axis=1)
    floor = -np.sort(-groups, axis=1)[:, k - 1] - below
    assert (floor <= -np.sort(-scores, axis=1)[:, k - 1]).all()
    want = np.nonzero((scores >= floor[:, None]) & (scores > -np.inf))
    np.testing.assert_array_equal(row, want[0])
    np.testing.assert_array_equal(col, want[1])


def test_above_floor_reads_no_tail_column():
    # 70 columns, m = 32 groups of 2: the 6 columns past 64 are in none
    scores = np.zeros((1, 70))
    scores[0, 64:] = 5.0
    scores[0, [3, 40]] = [2.0, 1.0]
    _, col = above_floor(scores, 1)
    assert col.tolist() == [3, 64, 65, 66, 67, 68, 69]
    _, col = above_floor(scores, 2)
    assert col.tolist() == [3, 40, 64, 65, 66, 67, 68, 69]


def test_above_floor_keeps_float32_scans_within_the_margin():
    scans = np.array([[0.5, 0.25, 0.125, 0.0]], dtype=np.float32)
    _, col = above_floor(scans, 1, np.float32(0.25))
    assert col.tolist() == [0, 1]


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
        _one_row(scores, rank, k), _one_row(scores, ids, k)
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
