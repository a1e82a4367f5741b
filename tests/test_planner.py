"""The weight-block planner and the gradient merge against np.unique-based
reference kernels.

The reference kernels below find each block's distinct ids, the union of
a batch's gradient rows and a batch's distinct documents with np.unique,
and gather rows by fancy indexing. The encoder plans with one sort and a
slot map instead. Training must not tell them apart: every block keeps its
columns in ascending id order, so each matrix product sees the same
operands, and every checkpoint, index row and drift vector keeps its bits.
W digests are not pinned here, because they move with the BLAS thread
count; each comparison is between two runs in one process.
"""
import numpy as np
import pytest

import qdc.pipeline
from qdc import encoder
from qdc.config import RunConfig
from qdc.datagen import StreamSpec, generate_task_stream
from qdc.drift import estimate_drift
from qdc.encoder import FeatureRows, RowGrad, feature_rows
from qdc.errors import NonFiniteError
from qdc.index import train_query_rows
from qdc.pipeline import init_state, train_task, train_trajectory


def _reference_weight_blocks(table, sel, vocab_size):
    step = encoder._block_rows(vocab_size)
    starts = table.indptr[sel]
    lengths = table.indptr[sel + 1] - starts
    for lo in range(0, len(sel), step):
        run = lengths[lo : lo + step]
        n = len(run)
        owner = np.repeat(np.arange(n), run)
        shift = np.repeat(starts[lo : lo + step] - (np.cumsum(run) - run), run)
        pos = np.arange(len(shift)) + shift
        rows, cols = np.unique(table.ids[pos], return_inverse=True)
        if int(rows[-1]) >= vocab_size:
            raise ValueError(f"token id {int(rows[-1])} >= vocab {vocab_size}")
        x = np.zeros((n, len(rows)), dtype=np.float64)
        x[owner, cols] = table.weights[pos]
        yield lo, rows, x


def _reference_merge_grads(parts, shape):
    parts = list(parts)
    if not parts:
        return RowGrad(np.empty(0, dtype=np.intp), np.zeros((0, shape[1])))
    rows, slot = np.unique(
        np.concatenate([r for r, _ in parts]), return_inverse=True
    )
    values = np.zeros((len(rows), shape[1]), dtype=np.float64)
    lo = 0
    for block_rows, block in parts:
        values[slot[lo : lo + len(block_rows)]] += block
        lo += len(block_rows)
    return RowGrad(rows, values)


def _reference_first_occurrence(rows):
    distinct, first, inverse = np.unique(
        rows, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return distinct[order], rank[inverse]


def _reference_project(W, blocks, out):
    for lo, rows, x in blocks:
        out[lo : lo + len(x)] = x @ W[rows]
    return out


def _reference_sgd_step(v, scale, grads, lr, wd):
    rows, values = grads
    new_scale = scale * (1.0 - lr * wd)
    v[rows] -= lr * values / (scale * new_scale)
    if not np.isfinite(v[rows]).all():
        raise NonFiniteError("sgd step produced non-finite weights")
    return new_scale


def _random_table(rng, n, vocab, common) -> FeatureRows:
    """n rows of 1-60 ascending ids; most ids come from a pool of `common`
    ids shared by every row, and every seventh row is the reserved id 0."""
    pool = rng.choice(vocab, size=common, replace=False)
    rows = []
    for i in range(n):
        if i % 7 == 3:
            rows.append(encoder._one_row([0], [1.0]))
            continue
        k = int(rng.integers(1, 61))
        ids = np.concatenate([rng.choice(pool, k), rng.integers(0, vocab, k // 4)])
        ids, counts = np.unique(ids, return_counts=True)
        rows.append(encoder._one_row(ids, counts / counts.sum()))
    return feature_rows(rows)


class TestWeightBlocks:
    # 2^20 and 2^19 ids leave 1 and 2 rows a block under the 2^20-entry cap
    @pytest.mark.parametrize(
        "vocab, step", [(1 << 20, 1), (1 << 19, 2), (1 << 15, 32), (64, 32)]
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_equal_to_the_reference(self, vocab, step, seed):
        rng = np.random.default_rng(seed)
        table = _random_table(rng, 150, vocab, common=min(vocab, 300))
        assert encoder._block_rows(vocab) == step
        selections = [
            np.arange(150),
            rng.permutation(150)[:97],  # unsorted
            rng.integers(0, 150, size=140),  # rows repeat
            np.array([3, 3, 10, 3]),  # reserved-id rows, repeated
            np.array([5]),
            np.arange(0),
        ]
        for sel in selections:
            got = list(encoder._weight_blocks(table, sel, vocab))
            expected = list(_reference_weight_blocks(table, sel, vocab))
            assert len(got) == len(expected)
            for (lo, rows, x), (lo_r, rows_r, x_r) in zip(got, expected):
                assert type(lo) is type(lo_r) and lo == lo_r
                assert rows.dtype == rows_r.dtype and rows.shape == rows_r.shape
                assert np.array_equal(rows, rows_r)
                assert x.dtype == x_r.dtype and x.shape == x_r.shape
                assert x.tobytes() == x_r.tobytes()

    @pytest.mark.parametrize("vocab", [64, 1 << 20])
    def test_id_beyond_the_vocabulary_is_named(self, vocab):
        table = feature_rows(
            [
                encoder._one_row([1, 2], [0.5, 0.5]),
                encoder._one_row([3, vocab + 5], [0.5, 0.5]),
            ]
        )
        message = f"token id {vocab + 5} >= vocab {vocab}"
        with pytest.raises(ValueError, match=message):
            list(encoder._weight_blocks(table, np.arange(2), vocab))


class TestFirstOccurrence:
    @pytest.mark.parametrize("seed", range(5))
    def test_equal_to_the_reference(self, seed):
        rng = np.random.default_rng(seed)
        for n, high in [(0, 1), (1, 1), (2, 1), (9, 3), (200, 50), (1100, 2000)]:
            rows = rng.integers(0, high, size=n).astype(np.intp)
            got = encoder._first_occurrence(rows)
            expected = _reference_first_occurrence(rows)
            for a, b in zip(got, expected):
                assert a.dtype == b.dtype and np.array_equal(a, b)


class TestMergeGradsReference:
    @pytest.mark.parametrize("seed", range(5))
    def test_equal_to_the_reference(self, seed):
        rng = np.random.default_rng(seed)
        parts = []
        for _ in range(int(rng.integers(1, 40))):
            rows = rng.choice(500, size=int(rng.integers(0, 80)), replace=False)
            parts.append((rows.astype(np.int32), rng.normal(size=(len(rows), 8))))
        got = encoder.merge_grads(parts, (500, 8))
        expected = _reference_merge_grads(parts, (500, 8))
        assert got.rows.dtype == expected.rows.dtype
        assert np.array_equal(got.rows, expected.rows)
        assert got.values.tobytes() == expected.values.tobytes()


def _trajectory_bits(datasets, config):
    checkpoints = train_trajectory(datasets, True, config)
    return [
        (
            state.params.W.tobytes(),
            [state.indexes[t].rows.tobytes() for t in sorted(state.indexes)],
            [rec.values.tobytes() for rec in state.ledger.records],
        )
        for state in checkpoints
    ], checkpoints


# three tasks whose 300 training pairs fill 128-pair batches of full 32-row
# query blocks, over full 32-row blocks of distinct documents
_FULL_BLOCKS = StreamSpec(
    num_tasks=3,
    docs_per_task=400,
    train_pairs_per_task=300,
    test_queries_per_task=10,
    topic_vocab_size=300,
    seed=5,
)


@pytest.mark.parametrize("spec_name", ["tiny", "full_blocks"])
def test_kd_trajectory_bits_equal_the_reference_kernels(
    spec_name, tiny_spec, monkeypatch
):
    spec = tiny_spec if spec_name == "tiny" else _FULL_BLOCKS
    config = RunConfig(stream=spec)
    shipped, checkpoints = _trajectory_bits(generate_task_stream(spec), config)

    with monkeypatch.context() as patch:
        patch.setattr(encoder, "_weight_blocks", _reference_weight_blocks)
        patch.setattr(encoder, "merge_grads", _reference_merge_grads)
        patch.setattr(encoder, "_first_occurrence", _reference_first_occurrence)
        patch.setattr(encoder, "_project", _reference_project)
        patch.setattr(qdc.pipeline, "sgd_step", _reference_sgd_step)
        reference, _ = _trajectory_bits(generate_task_stream(spec), config)

    assert len(shipped) == spec.num_tasks
    assert shipped == reference
    # each drift record is the one estimate_drift makes from the two
    # checkpoints, though training encodes only the new side
    datasets = generate_task_stream(spec)
    for t in range(2, spec.num_tasks + 1):
        new, old = checkpoints[t - 1].params, checkpoints[t - 2].params
        queries = train_query_rows(datasets[t - 1], new.vocab_size)
        record = estimate_drift(new, old, queries)
        stored = checkpoints[-1].ledger.record_for(t - 1)
        assert (stored.from_task, stored.to_task) == (t - 1, t)
        assert stored.values.tobytes() == record.values.tobytes()


def test_full_blocks_stream_fills_32_row_blocks(monkeypatch):
    # the stream above exercises what it claims: full query and doc blocks
    config = RunConfig(stream=_FULL_BLOCKS)
    heights = []
    real = encoder._weight_blocks

    def spy(table, sel, vocab_size):
        for lo, rows, x in real(table, sel, vocab_size):
            heights.append(len(x))
            yield lo, rows, x

    monkeypatch.setattr(encoder, "_weight_blocks", spy)
    state = init_state(config, generate_task_stream(_FULL_BLOCKS))
    train_task(state, config)
    assert heights.count(encoder._BLOCK_ROWS) > 20
