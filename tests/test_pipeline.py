import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from qdc.config import METHODS, RunConfig, derive_rng, parse_method
from qdc.datagen import TaskDataset, generate_task_stream
from qdc.drift import DriftLedger, append_record, estimate_drift
import qdc.encoder
from qdc.encoder import (
    EncoderParams,
    contrastive_loss,
    encode_batch,
    sgd_step,
    tokenize,
)
from qdc.errors import DataMismatchError, MissingIndexError
from qdc.index import DocRecord, build_index, doc_encoding_text, search_topk
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
    retrieve_eval,
    run_continual,
    train_task,
    train_trajectory,
    zero_shot_run,
)


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
        params, [tokenize(doc_encoding_text(d), vocab) for d in corpus]
    )
    ids = np.asarray([d.doc_id for d in corpus])
    positives = {}
    for query, doc_id in pairs:
        positives.setdefault(query, set()).add(doc_id)
    out = []
    for query, _ in pairs:
        q_unit = encode_batch(params, [tokenize(query, vocab)])[0]
        order = np.lexsort((ids, -(doc_units @ q_unit)))
        out.append(
            [str(ids[j]) for j in order if str(ids[j]) not in positives[query]][:h]
        )
    return out


class TestMineHardNegatives:
    def test_h_zero_yields_empty_lists(self, tiny_stream, tiny_config):
        ds = tiny_stream[0]
        state = init_state(tiny_config, False)
        negs = mine_hard_negatives(state.params, ds.train_pairs, ds.corpus, 0)
        assert negs == [[] for _ in ds.train_pairs]

    def test_small_corpus_capped_and_gold_free(self, tiny_config):
        corpus = [_doc(f"d{i}", f"tok{i} tok{i} other") for i in range(3)]
        pairs = [(f"tok{i}", f"d{i}") for i in range(3)]
        state = init_state(tiny_config, False)
        negs = mine_hard_negatives(state.params, pairs, corpus, 7)
        for (query, gold), neg in zip(pairs, negs):
            assert len(neg) == 2
            assert gold not in neg

    def test_excludes_every_positive_of_the_same_query(self, tiny_config):
        corpus = [_doc(f"d{i}", f"tok{i} shared") for i in range(4)]
        pairs = [("ask shared", "d0"), ("ask shared", "d1")]
        state = init_state(tiny_config, False)
        negs = mine_hard_negatives(state.params, pairs, corpus, 4)
        for neg in negs:
            assert set(neg) <= {"d2", "d3"}

    def test_matches_brute_force_oracle(self, tiny_stream, tiny_config):
        ds = tiny_stream[0]
        pairs = ds.train_pairs[:6]
        state = init_state(tiny_config, False)
        got = mine_hard_negatives(state.params, pairs, ds.corpus, 3)
        assert got == _mined_by_full_sort(state.params, pairs, ds.corpus, 3)

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
        params = init_state(tiny_config, False).params
        got = mine_hard_negatives(params, pairs, corpus, h)
        assert got == _mined_by_full_sort(params, pairs, corpus, h)
        assert tied[0] not in got[0] and tied[h % 30] not in got[1]

    def test_h_plus_positives_beyond_corpus_size(self, tiny_config):
        corpus = [_doc(f"d{i}", "shared" if i < 2 else f"tok{i}") for i in range(4)]
        pairs = [("shared", "d0"), ("shared", "d1"), ("tok3", "d3")]
        params = init_state(tiny_config, False).params
        got = mine_hard_negatives(params, pairs, corpus, 3)
        assert got == _mined_by_full_sort(params, pairs, corpus, 3)
        assert [len(neg) for neg in got] == [2, 2, 3]


class TestTrainTask:
    def test_single_batch_matches_manual_steps(self, tiny_stream, tiny_config):
        ds = tiny_stream[0]
        assert len(ds.train_pairs) <= tiny_config.batch_size
        state0 = init_state(tiny_config, False, tiny_stream)
        state1 = train_task(state0, ds, tiny_config)

        vocab = state0.params.vocab_size
        doc_by_id = {d.doc_id: d for d in ds.corpus}
        qfeats = [tokenize(q, vocab) for q, _ in ds.train_pairs]
        dfeats = [
            tokenize(doc_encoding_text(doc_by_id[i]), vocab)
            for _, i in ds.train_pairs
        ]
        neg_ids = mine_hard_negatives(
            state0.params, ds.train_pairs, ds.corpus, tiny_config.hard_negatives
        )
        neg_feats = [
            [tokenize(doc_encoding_text(doc_by_id[i]), vocab) for i in ids]
            for ids in neg_ids
        ]
        params = replace(state0.params, version=1)
        order = derive_rng(tiny_config.seed, "shuffle", 1).permutation(len(qfeats))
        batch = [(qfeats[int(i)], dfeats[int(i)]) for i in order]
        negs = [neg_feats[int(i)] for i in order]
        _, grads = contrastive_loss(params, batch, negs)
        params = sgd_step(params, grads, tiny_config.lr, tiny_config.wd)

        assert state1.params.version == 1
        assert np.array_equal(state1.params.W, params.W)

    def test_lr_zero_keeps_weights_and_matches_zero_shot(
        self, tiny_stream, tiny_spec
    ):
        config = RunConfig(stream=tiny_spec, lr=0.0, wd=0.0)
        ds = tiny_stream[0]
        state0 = init_state(config, False, tiny_stream)
        state1 = train_task(state0, ds, config)
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
        state = init_state(tiny_config, False, tiny_stream)
        with pytest.raises(DataMismatchError):
            train_task(state, tiny_stream[1], tiny_config)

    def test_non_contiguous_trajectory_rejected(self, tiny_stream, tiny_config):
        with pytest.raises(DataMismatchError):
            train_trajectory([tiny_stream[1]], False, tiny_config)

    def test_ledger_records_one_transition_per_later_task(self, tiny_traj):
        final = tiny_traj[-1]
        assert [r.from_task for r in final.ledger.records] == [1]
        assert sorted(final.ledger.task_centroids) == [1, 2]


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
        feats = [
            tokenize(doc_encoding_text(d), state.params.vocab_size)
            for d in data.corpus
        ]
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
        drift_feats = [tokenize(text, vocab) for _, text in queries]
        ledger = append_record(
            DriftLedger(dim=dim), estimate_drift(new, old, drift_feats)
        )
        config = RunConfig(vocab_size=vocab, dim=dim)

        def state(params, trained_through, ledger):
            return ContinualState(
                config=config,
                kd=False,
                params=params,
                indexes={1: index},
                ledger=ledger,
                datasets={1: data},
                trained_through=trained_through,
            )

        return (
            state(old, 1, DriftLedger(dim=dim)),
            state(new, 2, ledger),
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
        ft = run_continual(tiny_stream, "FT", tiny_config)
        qdc = run_continual(tiny_stream, "FT+QDC", tiny_config)
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
    @staticmethod
    def _bench_tokenize_calls(spec, monkeypatch):
        # a fresh stream: the session fixture's records already hold features
        stream = generate_task_stream(spec)
        calls = Counter()
        real = qdc.encoder.tokenize

        def counting(text, vocab_size):
            calls[text] += 1
            return real(text, vocab_size)

        for name, module in list(sys.modules.items()):
            if name == "qdc" or name.startswith("qdc."):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, counting)
        bench(stream, RunConfig(stream=spec))
        return stream, calls

    def test_bench_tokenizes_each_document_once(self, tiny_spec, monkeypatch):
        stream, calls = self._bench_tokenize_calls(tiny_spec, monkeypatch)
        docs = Counter(
            doc_encoding_text(doc) for ds in stream for doc in ds.corpus
        )
        assert {text: calls[text] for text in docs} == dict(docs)

    def test_bench_tokenizes_each_test_query_once(self, tiny_spec, monkeypatch):
        # every evaluated cell of both trajectories reads the test queries
        stream, calls = self._bench_tokenize_calls(tiny_spec, monkeypatch)
        queries = Counter(text for ds in stream for _, text in ds.queries_test)
        assert {text: calls[text] for text in queries} == dict(queries)


class TestSingleTaskStream:
    def test_all_methods_coincide(self, tiny_spec):
        spec = replace(tiny_spec, num_tasks=1)
        config = RunConfig(stream=spec)
        results, _ = bench(generate_task_stream(spec), config)
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
