import hashlib
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from qdc.config import METHODS, RunConfig, derive_rng, parse_method
from qdc.datagen import TaskDataset, generate_task_stream
from qdc.drift import (
    DriftLedger,
    append_record,
    compensate_query_path,
    estimate_drift,
    ledger_to_dict,
)
import qdc.encoder
import qdc.index
import qdc.pipeline
from qdc.encoder import (
    EncoderParams,
    contrastive_loss,
    distill_loss,
    encode,
    encode_batch,
    feature_rows,
    sgd_step,
    tokenize,
    tokenize_rows,
)
from qdc.errors import DataMismatchError, MissingIndexError
from qdc.index import (
    DocRecord,
    build_index,
    doc_encoding_text,
    eval_query_rows,
    search_rows,
    search_topk,
)
from qdc.metrics import compute_metrics
from qdc.pipeline import (
    ContinualState,
    bench,
    comparison_to_csv,
    evaluate_matrix,
    init_state,
    mine_hard_negatives,
    old_task_average,
    render_comparison_table,
    render_matrix_table,
    render_report,
    results_to_csv,
    retrieve,
    retrieve_eval,
    train_task,
    train_trajectory,
    zero_shot_run,
)
from qdc.vecops import above_floor


@pytest.fixture(scope="module")
def tiny_traj(tiny_stream, tiny_config):
    return train_trajectory(tiny_stream, False, tiny_config)


@pytest.fixture(scope="module")
def tiny_matrix(tiny_traj, tiny_config):
    return evaluate_matrix(tiny_traj, "plain", tiny_config.k, "FT")


def _doc(doc_id, text):
    return DocRecord(doc_id=doc_id, title="", text=text)


def _mined_by_full_sort(params, pairs, corpus, h):
    """Hard negatives from one full lexsort of the corpus per query."""
    vocab = params.vocab_size
    doc_units = encode_batch(
        params,
        feature_rows([tokenize(doc_encoding_text(d), vocab) for d in corpus]),
    )
    ids = np.asarray([d.doc_id for d in corpus])
    positives = {}
    for query, doc_id in pairs:
        positives.setdefault(query, set()).add(doc_id)
    out = []
    for query, _ in pairs:
        q_unit = encode_batch(params, feature_rows([tokenize(query, vocab)]))[0]
        order = np.lexsort((ids, -(doc_units @ q_unit)))
        out.append(
            [str(ids[j]) for j in order if str(ids[j]) not in positives[query]][:h]
        )
    return out


def _mined_ids(params, pairs, corpus, h):
    """mine_hard_negatives' rows as doc ids, padding dropped."""
    negs, _, _ = mine_hard_negatives(params, pairs, corpus, h)
    assert negs.shape == (len(pairs), h)
    return [[corpus[j].doc_id for j in row if j >= 0] for row in negs.tolist()]


def _negs_by_string_keys(scores, pairs, ids, h):
    """Each pair's first h non-positives by (-score, doc id), -1 padded,
    from one full lexsort of its row of scores with the string ids."""
    want = np.full((len(pairs), h), -1, dtype=np.intp)
    for i, (query, _) in enumerate(pairs):
        positives = {ids.index(d) for q, d in pairs if q == query}
        order = np.lexsort((np.asarray(ids), -scores[i]))
        found = [j for j in order.tolist() if j not in positives][:h]
        want[i, : len(found)] = found
    return want


def _mine_scored(monkeypatch, config, scores, pairs, ids, h):
    """mine_hard_negatives over documents ids that score scores[i] against
    pair i's query, checked against the string-keyed oracle.

    The scores are small integers and pair i's query embeds as unit vector
    i, so every score and every tie is exact however the product is blocked.
    """
    params = init_state(config).params
    queries = tokenize_rows([q for q, _ in pairs], params.vocab_size)

    def embed(params, table):
        return np.eye(len(pairs)) if table is queries else scores.T * 1.0

    monkeypatch.setattr(qdc.pipeline, "encode_batch", embed)
    corpus = [_doc(doc_id, "alpha") for doc_id in ids]
    negs, _, _ = mine_hard_negatives(params, pairs, corpus, h, queries)
    want = _negs_by_string_keys(scores, pairs, ids, h)
    assert negs.tobytes() == want.tobytes()
    return negs


def _shuffled_ids(n, seed):
    return [f"d{i:04d}" for i in np.random.default_rng(seed).permutation(n)]


class TestMineHardNegatives:
    def test_h_zero_yields_no_negatives(self, tiny_stream, tiny_config):
        ds = tiny_stream[0]
        state = init_state(tiny_config)
        negs, _, _ = mine_hard_negatives(state.params, ds.train_pairs, ds.corpus, 0)
        assert negs.shape == (len(ds.train_pairs), 0)

    def test_no_pairs_yield_no_negatives(self, tiny_stream, tiny_config):
        params = init_state(tiny_config).params
        negs, q_units, _ = mine_hard_negatives(params, [], tiny_stream[0].corpus, 3)
        assert negs.shape == (0, 3) and q_units.shape == (0, tiny_config.dim)

    def test_returns_the_embeddings_it_scored(self, tiny_stream, tiny_config):
        ds = tiny_stream[0]
        params = init_state(tiny_config).params
        vocab = params.vocab_size
        queries = feature_rows([tokenize(q, vocab) for q, _ in ds.train_pairs])
        docs = feature_rows(
            [tokenize(doc_encoding_text(d), vocab) for d in ds.corpus]
        )
        for h in (0, 3):
            _, q_units, doc_units = mine_hard_negatives(
                params, ds.train_pairs, ds.corpus, h
            )
            assert np.array_equal(q_units, encode_batch(params, queries))
            assert np.array_equal(doc_units, encode_batch(params, docs))

    def test_takes_the_callers_table(self, tiny_stream, tiny_config):
        ds = tiny_stream[0]
        params = init_state(tiny_config).params
        vocab = params.vocab_size
        queries = feature_rows([tokenize(q, vocab) for q, _ in ds.train_pairs])
        got = mine_hard_negatives(params, ds.train_pairs, ds.corpus, 3, queries)
        want = mine_hard_negatives(params, ds.train_pairs, ds.corpus, 3)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_small_corpus_capped_and_gold_free(self, tiny_config):
        corpus = [_doc(f"d{i}", f"tok{i} tok{i} other") for i in range(3)]
        pairs = [(f"tok{i}", f"d{i}") for i in range(3)]
        state = init_state(tiny_config)
        negs, _, _ = mine_hard_negatives(state.params, pairs, corpus, 7)
        for i, row in enumerate(negs.tolist()):
            # the two other documents, then padding
            assert row[2:] == [-1] * 5
            assert sorted(row[:2]) == sorted({0, 1, 2} - {i})

    def test_excludes_every_positive_of_the_same_query(self, tiny_config):
        corpus = [_doc(f"d{i}", f"tok{i} shared") for i in range(4)]
        pairs = [("ask shared", "d0"), ("ask shared", "d1")]
        state = init_state(tiny_config)
        for neg in _mined_ids(state.params, pairs, corpus, 4):
            assert set(neg) <= {"d2", "d3"}

    def test_matches_brute_force_oracle(self, tiny_stream, tiny_config):
        ds = tiny_stream[0]
        pairs = ds.train_pairs[:6]
        state = init_state(tiny_config)
        got = _mined_ids(state.params, pairs, ds.corpus, 3)
        assert got == _mined_by_full_sort(state.params, pairs, ds.corpus, 3)

    def test_matches_brute_force_oracle_across_score_chunks(
        self, tiny_stream, tiny_config, monkeypatch
    ):
        ds = tiny_stream[0]
        # four queries a block
        monkeypatch.setattr(qdc.pipeline, "_MINE_SCORES", 4 * len(ds.corpus) + 3)
        assert len(ds.train_pairs) > 3 * 4
        params = init_state(tiny_config).params
        got = _mined_ids(params, ds.train_pairs, ds.corpus, 3)
        assert got == _mined_by_full_sort(params, ds.train_pairs, ds.corpus, 3)

    @pytest.mark.parametrize("h", [1, 4, 29, 30, 31])
    def test_positives_inside_a_tied_top_block(self, tiny_config, h):
        # 30 identical docs top every query below; ids shuffled so the
        # doc_id tie-break, not the corpus order, decides the cut
        rng = np.random.default_rng(h)
        ids = [f"d{i:03d}" for i in rng.permutation(50)]
        corpus = [_doc(ids[i], "alpha beta") for i in range(30)] + [
            _doc(ids[i], f"gamma{i} delta") for i in range(30, 50)
        ]
        tied = sorted(ids[:30])
        pairs = [
            ("alpha beta", tied[0]),
            ("alpha beta", tied[h % 30]),
            ("beta alpha", tied[29]),
            ("alpha", ids[40]),
        ]
        params = init_state(tiny_config).params
        got = _mined_ids(params, pairs, corpus, h)
        assert got == _mined_by_full_sort(params, pairs, corpus, h)
        assert tied[0] not in got[0] and tied[h % 30] not in got[1]

    @pytest.mark.parametrize("h", [1, 3, 12, 40, 59])
    def test_tie_heavy_corpus_matches_string_keyed_oracle(self, tiny_config, h):
        # 60 documents from 4 texts, ids shuffled: most cuts fall inside a
        # tie, which the integer doc-id rank must break as the ids do
        rng = np.random.default_rng(h)
        texts = ["alpha beta", "beta gamma", "alpha", "gamma delta delta"]
        ids = [f"d{i:03d}" for i in rng.permutation(60)]
        corpus = [_doc(ids[i], texts[int(rng.integers(0, 4))]) for i in range(60)]
        pairs = [
            (query, ids[int(j)])
            for query, j in zip(
                ["alpha beta", "alpha", "beta", "alpha beta", "delta"],
                rng.integers(0, 60, size=5),
            )
        ]
        params = init_state(tiny_config).params
        negs, q_units, doc_units = mine_hard_negatives(params, pairs, corpus, h)
        want = _negs_by_string_keys(q_units @ doc_units.T, pairs, ids, h)
        assert negs.tobytes() == want.tobytes()

    def test_h_plus_positives_beyond_corpus_size(self, tiny_config):
        corpus = [_doc(f"d{i}", "shared" if i < 2 else f"tok{i}") for i in range(4)]
        pairs = [("shared", "d0"), ("shared", "d1"), ("tok3", "d3")]
        params = init_state(tiny_config).params
        got = _mined_ids(params, pairs, corpus, 3)
        assert got == _mined_by_full_sort(params, pairs, corpus, 3)
        assert [len(neg) for neg in got] == [2, 2, 3]
        negs, _, _ = mine_hard_negatives(params, pairs, corpus, 3)
        assert (negs[:2, 2] == -1).all() and (negs[2] >= 0).all()

    def test_rejects_a_negative_h(self, tiny_stream, tiny_config):
        ds = tiny_stream[0]
        params = init_state(tiny_config).params
        with pytest.raises(ValueError, match="^h must be >= 0, got -1$"):
            mine_hard_negatives(params, ds.train_pairs, ds.corpus, -1)

    @pytest.mark.parametrize(
        "task, digest",
        [
            (1, "00fa8f7790b2254f4f835ddcbbef779f1a1e40790b346cb3e8b529399ecd5022"),
            (2, "18c41041dafbeafee2e200bb5f651d312d0d455f1479a9cd8cc527fdb94c39fa"),
            (3, "cd40e22ab09ad73bdd3282f16f00c1dcff9e4e4fb11ee555827ea8bb8702658c"),
        ],
    )
    def test_shipped_stream_digest(
        self, shipped_stream, default_config, task, digest
    ):
        # f_0 at seed 42, h = 7 over 2,000 documents: past 32 h, so each
        # floor comes from strided groups
        ds = shipped_stream[task - 1]
        params = init_state(default_config).params
        negs, _, _ = mine_hard_negatives(params, ds.train_pairs, ds.corpus, 7)
        assert hashlib.sha256(negs.tobytes()).hexdigest() == digest


class TestMineStridedFloor:
    """Corpora of n > 32 h documents, whose floors come from m = 32 min(h, n)
    strided groups, with n % m columns past the last whole group."""

    def test_top_h_in_the_tail_columns(self, monkeypatch, tiny_config):
        n, h = 250, 3  # 96 groups of 2; columns 192-249 are in none
        ids = _shuffled_ids(n, 1)
        pairs = [
            ("q0", ids[200]), ("q1", ids[10]), ("q0", ids[240]), ("q2", ids[249])
        ]
        rng = np.random.default_rng(1)
        rows = {q: rng.integers(0, 50, size=n) for q in ("q0", "q1", "q2")}
        scores = np.array([rows[q] for q, _ in pairs], dtype=np.float64)
        scores[:, [195, 200, 220, 240, 249]] = [100, 103, 101, 102, 104]
        negs = _mine_scored(monkeypatch, tiny_config, scores, pairs, ids, h)
        assert (negs >= 192).all()

    @pytest.mark.parametrize("h", [1, 2, 3, 5])
    @pytest.mark.parametrize("top", [4, 1000])
    def test_ties_across_groups_and_at_the_cut(
        self, monkeypatch, tiny_config, h, top
    ):
        # few distinct scores (top 4) tie everywhere; many (top 1000) rarely
        n = 64 * h + 37
        ids = _shuffled_ids(n, h)
        rng = np.random.default_rng(top + h)
        queries = ["q0", "q1", "q0", "q2", "q1", "q0"]
        rows = {q: rng.integers(0, top, size=n) for q in sorted(set(queries))}
        for row in rows.values():
            # the best score on 2 h + 1 columns, so the cut falls in a tie
            row[rng.choice(n, 2 * h + 1, replace=False)] = top
        pairs = [(q, ids[int(j)]) for q, j in zip(queries, rng.integers(0, n, 6))]
        scores = np.array([rows[q] for q in queries], dtype=np.float64)
        _mine_scored(monkeypatch, tiny_config, scores, pairs, ids, h)

    @pytest.mark.parametrize("h", [1, 2, 4])
    def test_positives_fill_the_groups(self, monkeypatch, tiny_config, h):
        # q0's positives fill every group but h - 1 of them, so fewer than h
        # groups hold a non-positive
        n, m = 64 * h + 12, 32 * h
        ids = _shuffled_ids(n, h)
        free = [j for g in range(h - 1) for j in (g, g + m)]
        positives = [j for j in range(2 * m) if j not in free]
        assert len(positives) > h
        pairs = [("q0", ids[j]) for j in positives] + [("q1", ids[7])]
        rng = np.random.default_rng(h)
        rows = {q: rng.integers(0, 1000, size=n) for q in ("q0", "q1")}
        scores = np.array([rows[q] for q, _ in pairs], dtype=np.float64)
        # the floor is -inf: every non-positive is a candidate
        masked = scores[:1].copy()
        masked[0, positives] = -np.inf
        assert len(above_floor(masked, h)[1]) == n - len(positives)
        _mine_scored(monkeypatch, tiny_config, scores, pairs, ids, h)

    @pytest.mark.parametrize("free", [0, 1, 2, 3])
    def test_fewer_non_positives_than_h_pads(
        self, monkeypatch, tiny_config, free
    ):
        n, h = 130, 2  # 64 groups of 2 and 2 tail columns
        ids = _shuffled_ids(n, free)
        rng = np.random.default_rng(free)
        negatives = set(rng.choice(n, free, replace=False).tolist())
        pairs = [("q0", ids[j]) for j in range(n) if j not in negatives]
        pairs.append(("q1", ids[0]))
        rows = {q: rng.integers(0, 1000, size=n) for q in ("q0", "q1")}
        scores = np.array([rows[q] for q, _ in pairs], dtype=np.float64)
        negs = _mine_scored(monkeypatch, tiny_config, scores, pairs, ids, h)
        pads = (negs[:-1] == -1).sum(axis=1)
        assert pads.tolist() == [max(0, h - free)] * (n - free)

    @pytest.mark.parametrize(
        "mine_rows, select_rows", [(5, 2), (4, 3), (6, 6), (3, 1)]
    )
    def test_a_querys_pairs_split_across_blocks(
        self, monkeypatch, tiny_config, mine_rows, select_rows
    ):
        # q2's pairs straddle score blocks and selection sub-blocks
        n, h = 250, 3
        monkeypatch.setattr(qdc.pipeline, "_MINE_SCORES", mine_rows * n + 1)
        monkeypatch.setattr(qdc.pipeline, "_SEARCH_SCORES", select_rows * n + 1)
        queries = "q0 q1 q1 q2 q2 q2 q2 q3 q2 q4 q1".split()
        ids = _shuffled_ids(n, mine_rows)
        rng = np.random.default_rng(select_rows)
        rows = {q: rng.integers(0, 1000, size=n) for q in sorted(set(queries))}
        pairs = [(q, ids[int(j)]) for q, j in zip(queries, rng.integers(0, n, 11))]
        scores = np.array([rows[q] for q in queries], dtype=np.float64)
        _mine_scored(monkeypatch, tiny_config, scores, pairs, ids, h)

    def test_trained_scores_match_brute_force_oracle(
        self, monkeypatch, tiny_spec, tiny_config
    ):
        # 300 documents at h = 3: 96 groups of 3, 12 tail columns; five
        # pairs a score block, two a selection sub-block
        spec = replace(tiny_spec, num_tasks=1, docs_per_task=300)
        ds = generate_task_stream(spec)[0]
        monkeypatch.setattr(qdc.pipeline, "_MINE_SCORES", 5 * 300)
        monkeypatch.setattr(qdc.pipeline, "_SEARCH_SCORES", 2 * 300)
        params = init_state(tiny_config).params
        got = _mined_ids(params, ds.train_pairs, ds.corpus, 3)
        assert got == _mined_by_full_sort(params, ds.train_pairs, ds.corpus, 3)


class TestTrainTask:
    def test_single_batch_matches_manual_steps(self, tiny_stream, tiny_config):
        ds = tiny_stream[0]
        assert len(ds.train_pairs) <= tiny_config.batch_size
        state0 = init_state(tiny_config, tiny_stream)
        state1 = train_task(state0, tiny_config)

        # fresh tables of freshly tokenized features
        vocab = state0.params.vocab_size
        queries = feature_rows([tokenize(q, vocab) for q, _ in ds.train_pairs])
        docs = feature_rows(
            [tokenize(doc_encoding_text(d), vocab) for d in ds.corpus]
        )
        position = {d.doc_id: j for j, d in enumerate(ds.corpus)}
        pos = np.array([position[i] for _, i in ds.train_pairs])
        negs, _, _ = mine_hard_negatives(
            state0.params, ds.train_pairs, ds.corpus, tiny_config.hard_negatives
        )
        v = state0.params.W.copy()
        params = replace(state0.params, W=v, version=1)
        order = derive_rng(tiny_config.seed, "shuffle", 1).permutation(len(pos))
        _, grads = contrastive_loss(
            params, queries, docs, order, pos[order], negs[order]
        )
        scale = sgd_step(v, 1.0, grads, tiny_config.lr, tiny_config.wd)

        assert state1.params.version == 1
        assert np.array_equal(state1.params.W, scale * v)

    def test_lazy_steps_match_dense_recursion(
        self, tiny_stream, tiny_config, monkeypatch
    ):
        # 60 one-batch KD steps that fold the scale into v several times.
        # Each step's gradient at v, over the scale, must be the gradient at
        # W = scale * v, and the dense recursion driven by those gradients
        # must end at the trained W. (A dense run that recomputes its own
        # gradients drifts apart from any other float order within 60
        # steps at this temperature, so it cannot serve as the reference.)
        monkeypatch.setattr(qdc.pipeline, "_SCALE_FLOOR", 0.5)
        config = replace(tiny_config, epochs=60, lr=0.5, wd=0.1)
        ds = tiny_stream[0]
        start = init_state(config).params
        vocab = start.vocab_size
        rows, _ = qdc.pipeline._prepare_rows(ds, start, 2, kd=True)
        steps = []

        def recording_step(v, scale, grads, lr, wd):
            steps.append((scale, scale * v, grads.dense(len(v))))
            return sgd_step(v, scale, grads, lr, wd)

        monkeypatch.setattr(qdc.pipeline, "sgd_step", recording_step)
        lazy = qdc.pipeline._train_params(
            start,
            2,
            rows,
            shuffle_rng=np.random.default_rng(1),
            config=config,
        )
        assert len(steps) == 60
        assert [s for s, _, _ in steps].count(1.0) >= 3

        # the distillation targets are start's embeddings, made afresh here
        q_old = encode_batch(start, rows.queries)
        d_old = encode_batch(start, rows.docs)[rows.pos]
        w = start.W
        rng = np.random.default_rng(1)
        for scale, w_step, g_v in steps:
            order = rng.permutation(len(ds.train_pairs))
            pos, negs = rows.pos[order], rows.negs[order]
            params = replace(start, W=w_step)
            g = contrastive_loss(
                params, rows.queries, rows.docs, order, pos, negs
            )[1].dense(vocab)
            g += distill_loss(
                params, rows.queries, rows.docs, order, pos, q_old[order], d_old[order]
            )[1].dense(vocab)
            assert np.max(np.abs(g_v / scale - g)) <= 1e-12 * np.max(np.abs(g))
            w = w - config.lr * g - (config.lr * config.wd) * w
        assert lazy.version == 2
        assert np.max(np.abs(lazy.W - w)) <= 1e-12 * np.max(np.abs(w))

    def test_step_gradients_hold_exactly_the_batch_rows(
        self, tiny_stream, tiny_config, monkeypatch
    ):
        config = replace(tiny_config, batch_size=8)
        batch_ids, step_rows = [], []
        real_loss = qdc.pipeline.contrastive_loss

        def ids_of(table, rows):
            return {
                int(i)
                for r in rows
                for i in table.ids[table.indptr[r] : table.indptr[r + 1]]
            }

        def recording_loss(
            params, queries, docs, q_rows, pos_rows, neg_rows, targets=None
        ):
            doc_rows = list(pos_rows) + [r for r in neg_rows.ravel() if r >= 0]
            batch_ids.append(sorted(ids_of(queries, q_rows) | ids_of(docs, doc_rows)))
            return real_loss(
                params, queries, docs, q_rows, pos_rows, neg_rows, targets
            )

        def recording_step(v, scale, grads, lr, wd):
            step_rows.append(grads.rows.tolist())
            assert grads.values.shape == (len(grads.rows), v.shape[1])
            return sgd_step(v, scale, grads, lr, wd)

        monkeypatch.setattr(qdc.pipeline, "contrastive_loss", recording_loss)
        monkeypatch.setattr(qdc.pipeline, "sgd_step", recording_step)
        train_trajectory(tiny_stream, True, config)
        steps = sum(-(-len(ds.train_pairs) // 8) for ds in tiny_stream)
        assert len(step_rows) == steps
        assert step_rows == batch_ids
        assert max(map(len, step_rows)) < config.vocab_size

    def test_lr_zero_keeps_weights_and_matches_zero_shot(
        self, tiny_stream, tiny_spec
    ):
        config = RunConfig(stream=tiny_spec, lr=0.0, wd=0.0)
        ds = tiny_stream[0]
        state0 = init_state(config, tiny_stream)
        state1 = train_task(state0, config)
        assert np.array_equal(state1.params.W, state0.params.W)
        assert state1.params.version == 1
        plain = retrieve_eval(state1, 1, "plain", config.k)
        zero = zero_shot_run(state0, ds, config.k)
        assert plain.results == zero.results

    def test_same_seed_is_bit_identical(self, tiny_stream, tiny_config, tiny_traj):
        again = train_trajectory(tiny_stream, False, tiny_config)
        for a, b in zip(tiny_traj, again):
            assert np.array_equal(a.params.W, b.params.W)
            assert len(a.ledger.records) == len(b.ledger.records)
            for ra, rb in zip(a.ledger.records, b.ledger.records):
                assert np.array_equal(ra.values, rb.values)

    def test_out_of_order_task_rejected(self, tiny_stream, tiny_config):
        # the next task is t = trained_through + 1, whose dataset the state
        # must hold
        with pytest.raises(DataMismatchError):
            train_task(init_state(tiny_config), tiny_config)
        first = train_task(init_state(tiny_config, tiny_stream[:1]), tiny_config)
        with pytest.raises(DataMismatchError):
            train_task(first, tiny_config)

    def test_non_contiguous_trajectory_rejected(self, tiny_stream, tiny_config):
        with pytest.raises(DataMismatchError):
            train_trajectory([tiny_stream[1]], False, tiny_config)

    def test_drift_record_is_the_sequential_mean_over_every_training_query(
        self, tiny_stream, tiny_config
    ):
        # bit for bit: the rows of f_2(q) - f_1(q) summed first to last over
        # every training pair's query, then divided by their count
        first, second = train_trajectory(tiny_stream, False, tiny_config)
        pairs = tiny_stream[1].train_pairs
        vocab = tiny_config.vocab_size
        table = feature_rows([tokenize(query, vocab) for query, _ in pairs])
        diff = encode_batch(second.params, table) - encode_batch(first.params, table)
        acc = np.zeros(tiny_config.dim, dtype=np.float64)
        for row in diff:
            acc = acc + row
        (record,) = second.ledger.records
        assert record.values.tobytes() == (acc / len(pairs)).tobytes()

    def test_ledger_records_one_transition_per_later_task(self, tiny_traj):
        final = tiny_traj[-1]
        assert [(r.from_task, r.to_task) for r in final.ledger.records] == [(1, 2)]


class TestRetrieveEval:
    def test_current_task_identical_across_strategies(
        self, tiny_traj, tiny_config
    ):
        state = tiny_traj[-1]
        t = state.trained_through
        plain = retrieve_eval(state, t, "plain", tiny_config.k)
        qdc = retrieve_eval(state, t, "qdc", tiny_config.k)
        reindex = retrieve_eval(state, t, "reindex", tiny_config.k)
        assert plain.results == qdc.results == reindex.results

    def test_reindex_equals_zero_shot_with_current_model(
        self, tiny_traj, tiny_config
    ):
        state = tiny_traj[-1]
        data = state.datasets[1]
        reindex = retrieve_eval(state, 1, "reindex", tiny_config.k)
        zero = zero_shot_run(state, data, tiny_config.k)
        assert reindex.results == zero.results

    def test_reindex_rows_match_fresh_encoding(self, tiny_traj):
        state = tiny_traj[-1]
        data = state.datasets[1]
        rebuilt = build_index(state.params, data.corpus, 1)
        feats = feature_rows(
            [
                tokenize(doc_encoding_text(d), state.params.vocab_size)
                for d in data.corpus
            ]
        )
        fresh = encode_batch(state.params, feats)
        assert np.max(np.abs(rebuilt.rows.astype(np.float64) - fresh)) <= 1e-6

    def test_compensation_changes_old_task_rankings(self, tiny_traj, tiny_config):
        state = tiny_traj[-1]
        plain = retrieve_eval(state, 1, "plain", tiny_config.k)
        qdc = retrieve_eval(state, 1, "qdc", tiny_config.k)
        changed = any(
            [d for d, _ in plain.results[qid]] != [d for d, _ in qdc.results[qid]]
            for qid in plain.results
        )
        assert changed

    def test_reindex_searches_a_future_task_as_zero_shot(
        self, tiny_traj, tiny_config
    ):
        # task 2 has no index at checkpoint 1; reindex builds it with f_1
        state = tiny_traj[0]
        data = state.datasets[2]
        reindex = retrieve_eval(state, 2, "reindex", tiny_config.k)
        zero = zero_shot_run(state, data, tiny_config.k)
        assert reindex.task == zero.task == 2
        assert reindex.results == zero.results
        index = build_index(state.params, data.corpus, 2)
        queries = encode_batch(
            state.params, eval_query_rows(data, state.params.vocab_size)
        )
        rankings = search_rows(index, queries, tiny_config.k)
        assert list(reindex.results.values()) == rankings

    def test_missing_index_rejected(self, tiny_traj, tiny_config):
        with pytest.raises(MissingIndexError):
            retrieve_eval(tiny_traj[0], 2, "plain", tiny_config.k)

    def test_unknown_strategy_rejected(self, tiny_traj, tiny_config):
        with pytest.raises(ValueError):
            retrieve_eval(tiny_traj[-1], 1, "bm25", tiny_config.k)


class TestTranslationDrift:
    """With linear encoders and a pure weight translation, compensation
    recovers the archived model's rankings exactly."""

    def _setup(self):
        rng = np.random.default_rng(13)
        vocab, dim = 16, 4
        w_old = rng.normal(size=(vocab, dim))
        old = EncoderParams(
            W=w_old,
            vocab_size=vocab,
            dim=dim,
            temperature=0.5,
            version=1,
            linear_output=True,
        )
        shift = np.array([0.8, -0.3, 0.5, 0.1])
        new = EncoderParams(
            W=w_old + np.outer(np.ones(vocab), shift),
            vocab_size=vocab,
            dim=dim,
            temperature=0.5,
            version=2,
            linear_output=True,
        )
        corpus = [
            _doc(f"d{i}", " ".join(f"w{int(t)}" for t in rng.integers(0, 50, 8)))
            for i in range(20)
        ]
        queries = [
            (f"q{j}", " ".join(f"w{int(t)}" for t in rng.integers(0, 50, 3)))
            for j in range(8)
        ]
        data = TaskDataset(
            task_id=1,
            corpus=corpus,
            train_pairs=[(text, corpus[j].doc_id) for j, (_, text) in enumerate(queries)],
            queries_test=queries,
            qrels={(qid, corpus[j].doc_id): 1 for j, (qid, _) in enumerate(queries)},
        )
        index = build_index(old, corpus, 1)
        drift_feats = feature_rows([tokenize(text, vocab) for _, text in queries])
        ledger = append_record(
            DriftLedger(dim=dim), estimate_drift(new, old, drift_feats)
        )

        def state(params, ledger):
            return ContinualState(
                params=params,
                indexes={1: index},
                ledger=ledger,
                datasets={1: data},
            )

        return (
            state(old, DriftLedger(dim=dim)),
            state(new, ledger),
            shift,
        )

    def test_estimated_drift_is_the_translation(self):
        _, state_new, shift = self._setup()
        delta = state_new.ledger.records[0].values
        assert np.max(np.abs(delta - shift)) <= 1e-12

    def test_qdc_recovers_archived_rankings_exactly(self):
        state_old, state_new, _ = self._setup()
        archived = retrieve_eval(state_old, 1, "plain", k=5)
        compensated = retrieve_eval(state_new, 1, "qdc", k=5)
        raw = retrieve_eval(state_new, 1, "plain", k=5)
        for qid in archived.results:
            want = [d for d, _ in archived.results[qid]]
            assert [d for d, _ in compensated.results[qid]] == want
            scores_a = np.array([s for _, s in archived.results[qid]])
            scores_c = np.array([s for _, s in compensated.results[qid]])
            assert np.max(np.abs(scores_a - scores_c)) <= 1e-9
        assert any(
            [d for d, _ in raw.results[qid]] != [d for d, _ in archived.results[qid]]
            for qid in archived.results
        )


class TestEvaluateMatrix:
    def test_covers_every_cell(self, tiny_matrix, tiny_config):
        assert tiny_matrix.num_tasks == 2
        assert set(tiny_matrix.cells) == {(1, 1), (1, 2), (2, 1), (2, 2)}
        assert tiny_matrix.k == tiny_config.k

    def test_future_cells_are_zero_shot(self, tiny_traj, tiny_stream, tiny_config):
        matrix = evaluate_matrix(tiny_traj, "plain", tiny_config.k, "FT")
        ds2 = tiny_stream[1]
        run = zero_shot_run(tiny_traj[0], ds2, tiny_config.k)
        want = compute_metrics(run, ds2.qrels, tiny_config.k)
        got = matrix.cells[(1, 2)]
        assert np.array_equal(got.ndcg, want.ndcg)
        assert np.array_equal(got.recall, want.recall)
        assert np.array_equal(got.ap, want.ap)

    def test_training_is_strategy_independent(self, tiny_stream, tiny_config):
        checkpoints = train_trajectory(tiny_stream, False, tiny_config)
        ft = evaluate_matrix(checkpoints, "plain", tiny_config.k, "FT")
        checkpoints = train_trajectory(tiny_stream, False, tiny_config)
        qdc = evaluate_matrix(checkpoints, "qdc", tiny_config.k, "FT+QDC")
        for t in (1, 2):
            assert ft.score(t, t) == qdc.score(t, t)

    def test_old_task_average(self, tiny_matrix):
        want = tiny_matrix.score(2, 1)
        assert old_task_average(tiny_matrix) == pytest.approx(want, abs=1e-12)

    def test_old_task_average_needs_two_tasks(self, tiny_matrix):
        single = replace(
            tiny_matrix, num_tasks=1, cells={(1, 1): tiny_matrix.cells[(1, 1)]}
        )
        with pytest.raises(ValueError):
            old_task_average(single)


class TestTokenizeOnce:
    """Each text population is tabled once, by one tokenize_rows call."""

    @staticmethod
    def _spy(monkeypatch):
        """The texts of every tokenize_rows call, and the count of calls of
        the per-text path (tokenize, feature_rows)."""
        tabled, per_text = [], Counter()
        real_rows = qdc.encoder.tokenize_rows

        def tabling(texts, vocab_size):
            tabled.append(tuple(texts))
            return real_rows(texts, vocab_size)

        _watch(monkeypatch, real_rows, tabling)
        for name in ("tokenize", "feature_rows"):

            def counting(*args, _real=getattr(qdc.encoder, name), _name=name):
                per_text[_name] += 1
                return _real(*args)

            _watch(monkeypatch, getattr(qdc.encoder, name), counting)
        return tabled, per_text

    def test_bench_tables_each_population_once(self, tiny_spec, monkeypatch):
        # a fresh stream: the session fixture's tasks already hold tables
        stream = generate_task_stream(tiny_spec)
        tabled, per_text = self._spy(monkeypatch)
        config = RunConfig(stream=tiny_spec)
        bench(init_state(config, stream), config)
        populations = []
        for ds in stream:
            populations.append(tuple(doc_encoding_text(d) for d in ds.corpus))
            populations.append(tuple(q for q, _ in ds.train_pairs))
            populations.append(tuple(text for _, text in ds.queries_test))
        assert Counter(tabled) == Counter(populations)
        assert not per_text

    def test_second_training_of_a_task_tables_nothing(
        self, tiny_spec, monkeypatch
    ):
        # bench's FT+KD branch trains task 2 again from FT's checkpoint 1
        stream = generate_task_stream(tiny_spec)
        config = RunConfig(stream=tiny_spec)
        first = train_task(init_state(config, stream), config)
        train_task(first, config)
        tabled, per_text = self._spy(monkeypatch)
        train_task(first, config, kd=True)
        assert not tabled and not per_text

    def test_second_index_build_tables_nothing(self, tiny_spec, monkeypatch):
        # as the benchmark's REINDEX calls it: build_index on ds.corpus
        ds = generate_task_stream(tiny_spec)[0]
        params = init_state(RunConfig(stream=tiny_spec)).params
        tabled, per_text = self._spy(monkeypatch)
        first = qdc.index.build_index(params, ds.corpus, 1)
        assert tabled == [tuple(doc_encoding_text(d) for d in ds.corpus)]
        tabled.clear()
        second = qdc.index.build_index(params, ds.corpus, 1)
        assert not tabled and not per_text
        assert np.array_equal(first.rows, second.rows)


def _watch(monkeypatch, real, fake):
    """Replace every binding of real in the loaded qdc modules by fake."""
    for name, module in list(sys.modules.items()):
        if name == "qdc" or name.startswith("qdc."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, fake)


class TestTrainingTables:
    def test_kd_task_builds_each_table_once_and_no_frozen_pass(
        self, tiny_spec, tiny_config, monkeypatch
    ):
        # several steps a task; task 2 distils toward checkpoint 1. A fresh
        # stream: a task keeps its training queries' table once built
        stream = generate_task_stream(tiny_spec)
        config = replace(tiny_config, batch_size=8)
        state = train_task(init_state(config, stream), config, kd=True)
        ds, frozen = stream[1], state.params.W
        events = []
        real_rows = qdc.encoder.tokenize_rows
        real_project = qdc.encoder._project
        real_mine = qdc.pipeline.mine_hard_negatives
        real_train = qdc.pipeline._train_params

        def tabling(texts, vocab_size):
            events.append(("table", len(texts)))
            return real_rows(texts, vocab_size)

        def projecting(W, blocks, out):
            events.append(("frozen" if W is frozen else "forward", len(out)))
            return real_project(W, blocks, out)

        def mining(*args, **kwargs):
            out = real_mine(*args, **kwargs)
            events.append(("mined", 0))
            return out

        def training(*args, **kwargs):
            out = real_train(*args, **kwargs)
            events.append(("trained", 0))
            return out

        _watch(monkeypatch, real_rows, tabling)
        monkeypatch.setattr(qdc.encoder, "_project", projecting)
        _watch(monkeypatch, real_mine, mining)
        monkeypatch.setattr(qdc.pipeline, "_train_params", training)
        train_task(state, config, kd=True)

        mined = events.index(("mined", 0))
        loop = events[mined + 1 : events.index(("trained", 0))]
        # one table per population, the training queries then the corpus,
        # both before mining, which encodes them with the frozen encoder
        tables = [e for e in events[:mined] if e[0] == "table"]
        assert tables == [("table", len(ds.train_pairs)), ("table", len(ds.corpus))]
        assert ("frozen", len(ds.corpus)) in events[:mined]
        # the step loop builds no table and makes no frozen forward pass
        assert {kind for kind, _ in loop} == {"forward"}
        assert len(loop) >= 2 * -(-len(ds.train_pairs) // 8)

    def test_kd_step_is_one_loss_call(self, tiny_stream, tiny_config, monkeypatch):
        # distillation rides in the contrastive pass: a step makes one loss
        # call, with targets on KD tasks, and never calls distill_loss
        config = replace(tiny_config, batch_size=8)
        with_targets, steps = [], []
        real_loss, real_step = qdc.pipeline.contrastive_loss, qdc.pipeline.sgd_step

        def recording_loss(*args, targets=None):
            with_targets.append(targets is not None)
            return real_loss(*args, targets=targets)

        def recording_step(*args):
            steps.append(len(with_targets))
            return real_step(*args)

        def forbidden(*args, **kwargs):
            raise AssertionError("training called distill_loss")

        _watch(monkeypatch, qdc.encoder.distill_loss, forbidden)
        monkeypatch.setattr(qdc.pipeline, "contrastive_loss", recording_loss)
        monkeypatch.setattr(qdc.pipeline, "sgd_step", recording_step)
        train_trajectory(tiny_stream, True, config)
        first, second = (-(-len(ds.train_pairs) // 8) for ds in tiny_stream)
        assert with_targets == [False] * first + [True] * second
        assert steps == list(range(1, first + second + 1))

    def test_distillation_targets_only_on_kd_tasks(
        self, tiny_stream, tiny_config, monkeypatch
    ):
        seen = []
        real = qdc.pipeline._train_params

        def recording(start, version, rows, shuffle_rng, config):
            seen.append((version, rows.targets))
            return real(start, version, rows, shuffle_rng, config)

        monkeypatch.setattr(qdc.pipeline, "_train_params", recording)
        train_trajectory(tiny_stream, True, tiny_config)
        train_trajectory(tiny_stream[:1], False, tiny_config)
        train_trajectory(tiny_stream, False, tiny_config)
        assert [t for t, _ in seen] == [1, 2, 1, 1, 2]
        assert [targets is None for _, targets in seen] == [
            True, False, True, True, True
        ]
        # the pairs' rows only: one query and one positive a pair
        pairs, dim = len(tiny_stream[1].train_pairs), tiny_config.dim
        assert [t.shape for t in seen[1][1]] == [(pairs, dim), (pairs, dim)]


class TestBenchCallCounts:
    @pytest.mark.parametrize("num_tasks", [1, 3])
    def test_bench_does_each_distinct_step_once(
        self, tiny_spec, monkeypatch, num_tasks
    ):
        # FT+KD starts from FT's first checkpoint, the same object, whose
        # cells are evaluated once; the diagonal and future cells of a
        # checkpoint are evaluated once for all strategies; each cell is
        # one block search, and each checkpoint encodes a task's test
        # queries once for all its cells
        spec = replace(tiny_spec, num_tasks=num_tasks)
        stream = generate_task_stream(spec)
        calls = Counter()
        for name in ("train_task", "build_index", "search_rows"):
            real = getattr(qdc.pipeline, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(qdc.pipeline, name, counting)
        encoded = []
        real_encode = qdc.pipeline.encode_batch

        def recording(params, table):
            encoded.append(table)
            return real_encode(params, table)

        monkeypatch.setattr(qdc.pipeline, "encode_batch", recording)
        config = RunConfig(stream=spec)
        _, trajectories = bench(init_state(config, stream), config)
        assert trajectories[True][0] is trajectories[False][0]
        test_tables = [eval_query_rows(ds, config.vocab_size) for ds in stream]
        calls["test query encodes"] = sum(
            any(table is test for test in test_tables) for table in encoded
        )
        T = num_tasks
        assert calls == {
            "train_task": 2 * T - 1,
            "build_index": T + 2 * T * (T - 1),
            "search_rows": T + 4 * T * (T - 1),
            "test query encodes": (2 * T - 1) * T,
        }


class TestBenchDigest:
    """The shipped benchmark's metric matrix and comparison, pinned: a
    faster evaluation must rank every cell the same."""

    def test_metrics_csv(self, bench_outcome):
        results, _, _ = bench_outcome
        assert hashlib.sha256(results_to_csv(results).encode()).hexdigest() == (
            "59e338b16b1c9f877d7dfb266638dd3ceb2d12dbc60910b0c9ad563b3f529503"
        )

    def test_comparison_csv(self, bench_outcome):
        results, _, _ = bench_outcome
        assert hashlib.sha256(comparison_to_csv(results).encode()).hexdigest() == (
            "21191bc71ee437f97901d1f2774502f5f04d29edec3820407d52444734d48ccc"
        )

    def test_retrieve_lines(self, bench_outcome, default_config):
        # `qdc retrieve`'s lines for 20 test queries of each old task at the
        # final FT checkpoint, FT and FT+QDC, each query ranked alone
        _, trajectories, _ = bench_outcome
        final = trajectories[False][-1]
        params = final.params
        lines = []
        for strategy in ("plain", "qdc"):
            for task in range(1, params.version):
                data = final.datasets[task]
                for _, text in data.queries_test[:20]:
                    emb = encode(params, tokenize(text, params.vocab_size))
                    (ranking,) = retrieve(
                        params, final.indexes[task], data.corpus, final.ledger,
                        emb[None], task, strategy, default_config.k,
                    )
                    lines += [
                        f"{rank}\t{doc_id}\t{score:.6f}"
                        for rank, (doc_id, score) in enumerate(ranking, start=1)
                    ]
        assert len(lines) == 2 * 20 * (params.version - 1) * default_config.k
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == (
            "92ec0a9e27ad705efdf0666a8cb01081b238fc92a4d026a566a64e43a6d9156f"
        )

    def test_served_qdc_rankings(self, bench_outcome, default_config):
        # the one-query serve path: every test query of each old task at the
        # final FT checkpoint, encoded alone, compensated and ranked by
        # search_topk
        _, trajectories, _ = bench_outcome
        final = trajectories[False][-1]
        params = final.params
        lines = []
        for task in range(1, params.version):
            for _, text in final.datasets[task].queries_test:
                emb = encode(params, tokenize(text, params.vocab_size))
                emb = compensate_query_path(final.ledger, emb, task, params.version)
                ranking = search_topk(final.indexes[task], emb, default_config.k)
                lines += [f"{doc_id}\t{score:.6f}" for doc_id, score in ranking]
        assert len(lines) == 200 * (params.version - 1) * default_config.k
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == (
            "0bf5d99cee97f02df4ab03b7760440fbebc29c57fb19ce9c99791a24eb059b7f"
        )

    def test_encode_divides_by_the_norm_bit_for_bit(self, bench_outcome):
        _, trajectories, _ = bench_outcome
        final = trajectories[False][-1]
        params = final.params
        count = 0
        for data in final.datasets.values():
            for _, text in data.queries_test:
                feats = tokenize(text, params.vocab_size)
                raw = feats.weights @ params.W[feats.ids]
                want = raw / float(np.linalg.norm(raw))
                assert encode(params, feats).tobytes() == want.tobytes()
                count += 1
        assert count == 600


class TestBenchEquivalence:
    """bench against every method trained and evaluated on its own."""

    @pytest.fixture(scope="class")
    def outcome(self, tiny_spec):
        spec = replace(tiny_spec, num_tasks=3)
        stream = generate_task_stream(spec)
        # several batches a task, so distillation moves FT+KD away from FT
        config = RunConfig(stream=spec, batch_size=8)
        results, trajectories = bench(init_state(config, stream), config)
        independent = {
            kd: train_trajectory(stream, kd, config) for kd in (False, True)
        }
        return results, trajectories, independent, config

    def test_metrics_equal_per_method_evaluation(self, outcome):
        results, _, independent, config = outcome
        per_method = []
        for method in METHODS:
            kd, strategy = parse_method(method)
            per_method.append(
                evaluate_matrix(independent[kd], strategy, config.k, method)
            )
        assert results_to_csv(results) == results_to_csv(per_method)

    def test_branched_kd_trajectory_equals_full_training(self, outcome):
        _, trajectories, independent, _ = outcome
        branched, full = trajectories[True], independent[True]
        ft_final = trajectories[False][-1].params.W
        assert not np.array_equal(branched[-1].params.W, ft_final)
        assert [s.trained_through for s in branched] == [1, 2, 3]
        assert [s.trained_through for s in full] == [1, 2, 3]
        for a, b in zip(branched, full):
            assert a.params.version == b.params.version
            assert np.array_equal(a.params.W, b.params.W)
            assert a.indexes.keys() == b.indexes.keys()
            for t in a.indexes:
                assert a.indexes[t].doc_ids == b.indexes[t].doc_ids
                assert np.array_equal(a.indexes[t].rows, b.indexes[t].rows)
            assert ledger_to_dict(a.ledger) == ledger_to_dict(b.ledger)


class TestSingleTaskStream:
    def test_all_methods_coincide(self, tiny_spec):
        spec = replace(tiny_spec, num_tasks=1)
        config = RunConfig(stream=spec)
        results, _ = bench(
            init_state(config, generate_task_stream(spec)), config
        )
        assert [r.method for r in results] == list(METHODS)
        scores = {r.method: r.score(1, 1) for r in results}
        assert len(set(scores.values())) == 1


class TestReports:
    def test_results_csv_layout(self, tiny_matrix):
        text = results_to_csv([tiny_matrix])
        lines = text.strip().split("\n")
        assert lines[0] == "checkpoint,task,method,metric,value"
        assert len(lines) == 1 + 2 * 2 * 3
        first = lines[1].split(",")
        assert first[:4] == ["1", "1", "FT", "ndcg"]
        assert float(first[4]) == tiny_matrix.score(1, 1)

    def test_comparison_csv_layout(self, tiny_matrix):
        text = comparison_to_csv([tiny_matrix])
        lines = text.strip().split("\n")
        assert lines[0] == "method,task1,task2,avg"
        fields = lines[1].split(",")
        assert fields[0] == "FT"
        tasks = [float(f) for f in fields[1:3]]
        assert tasks == [tiny_matrix.score(2, 1), tiny_matrix.score(2, 2)]
        assert float(fields[3]) == float(np.mean(tasks))

    def test_matrix_table_shape(self, tiny_matrix):
        table = render_matrix_table(tiny_matrix)
        lines = table.strip().split("\n")
        assert len(lines) == 2 + tiny_matrix.num_tasks + 1
        assert lines[0].startswith("FT")
        assert "task1" in lines[1] and "avg" in lines[1]
        assert lines[-1].startswith("PD")
        assert lines[-1].rstrip().endswith("-")

    def test_comparison_table_shape(self, tiny_matrix):
        table = render_comparison_table([tiny_matrix, tiny_matrix])
        lines = table.strip().split("\n")
        assert len(lines) == 2 + 2
        assert lines[2].startswith("FT")

    def test_render_report_concatenates(self, tiny_matrix):
        report = render_report([tiny_matrix])
        assert render_comparison_table([tiny_matrix]) in report
        assert render_matrix_table(tiny_matrix) in report


class TestParseMethodRouting:
    @pytest.mark.parametrize(
        "method,kd,strategy",
        [
            ("FT", False, "plain"),
            ("FT+KD", True, "plain"),
            ("FT+QDC", False, "qdc"),
            ("FT+KD+QDC", True, "qdc"),
            ("FT+REINDEX", False, "reindex"),
            ("FT+KD+REINDEX", True, "reindex"),
        ],
    )
    def test_routing(self, method, kd, strategy):
        assert parse_method(method) == (kd, strategy)
