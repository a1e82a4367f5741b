import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

import qdc.index

from qdc.datagen import TaskDataset
from qdc.encoder import encode, init_params, tokenize, tokenize_rows
from qdc.errors import (
    CorruptIndexError,
    DimMismatchError,
    DuplicateDocIdError,
    EmptyCorpusError,
    NonFiniteError,
    ZeroVectorError,
)
from qdc.index import (
    Corpus,
    CorpusIndex,
    DocRecord,
    build_index,
    corpus_rows,
    doc_encoding_text,
    load_index,
    save_index,
    search_rows,
    search_topk,
)

VOCAB, DIM = 64, 8


def _params(seed=0):
    return init_params(VOCAB, DIM, 0.5, np.random.default_rng(seed))


def _random_corpus(rng, n, prefix="d"):
    docs = []
    for i in range(n):
        words = " ".join(
            f"w{int(rng.integers(0, 400))}" for _ in range(int(rng.integers(3, 12)))
        )
        docs.append(DocRecord(doc_id=f"{prefix}{i:04d}", title="", text=words))
    return docs


def _brute_force(index, q, k):
    rows = index.rows.astype(np.float64)
    qn = q / np.linalg.norm(q)
    scores = rows @ qn / np.linalg.norm(rows, axis=1)
    ranked = sorted(
        zip(index.doc_ids, scores), key=lambda pair: (-pair[1], pair[0])
    )
    return [(doc_id, float(score)) for doc_id, score in ranked[:k]]


def _exact_scores(index, q):
    """Every row's exact score: one fixed-order float64 dot a row with the
    unit query, over the row's norm."""
    rows = index.rows.astype(np.float64)
    q = np.asarray(q, dtype=np.float64)
    return np.einsum("ij,j->i", rows, q / np.linalg.norm(q)) / np.linalg.norm(
        rows, axis=1
    )


def _full_sort(index, q, k):
    """The search as one full lexsort of every row by (-score, doc_id)."""
    scores = _exact_scores(index, q)
    ids = np.asarray(index.doc_ids)
    order = np.lexsort((ids, -scores))[:k]
    return [(str(ids[i]), float(scores[i])) for i in order]


def _tied_index(rng, better, tied, worse):
    """Rows scoring above, exactly at and below one tied block for e_0."""
    above = np.column_stack(
        [rng.uniform(0.95, 0.99, better), rng.uniform(0.01, 0.2, better)]
    )
    at = np.tile([0.9, 0.3], (tied, 1))
    below = np.column_stack([rng.uniform(0.1, 0.6, worse), np.ones(worse)])
    rows = np.concatenate([above, at, below]).astype(np.float32)
    n = len(rows)
    return CorpusIndex(
        task_id=1, encoder_version=1, dim=2, rows=rows,
        doc_ids=[f"doc{i:04d}" for i in rng.permutation(n)],
    )


def test_doc_encoding_text_joins_title_and_body():
    assert doc_encoding_text(DocRecord("d1", "hello", "world")) == "hello world"


def test_singleton_corpus():
    params = _params()
    doc = DocRecord("only", "t", "alpha beta gamma")
    index = build_index(params, [doc], task_id=1)
    assert index.rows.shape == (1, DIM)
    assert index.doc_ids == ["only"]
    assert index.task_id == 1
    assert index.encoder_version == params.version
    expected = encode(params, tokenize(doc_encoding_text(doc), VOCAB))
    np.testing.assert_allclose(index.rows[0], expected, rtol=0, atol=1e-6)


def test_duplicate_doc_id_rejected():
    docs = [DocRecord("a", "", "x"), DocRecord("a", "", "y")]
    with pytest.raises(DuplicateDocIdError):
        build_index(_params(), docs, task_id=1)


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpusError):
        build_index(_params(), [], task_id=1)


def test_rows_match_per_document_encode():
    rng = np.random.default_rng(0)
    params = _params()
    docs = _random_corpus(rng, 50)
    index = build_index(params, docs, task_id=2)
    for row, doc in zip(index.rows, docs):
        fresh = encode(params, tokenize(doc_encoding_text(doc), VOCAB))
        assert np.max(np.abs(row.astype(np.float64) - fresh)) <= 1e-6


def _same_table(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("indptr", "ids", "weights")
    )


class TestCorpusRows:
    def test_equals_tokenizing_the_encoding_texts(self):
        docs = [DocRecord("d1", "Title", "alpha beta beta"), DocRecord("d2", "", "")]
        want = tokenize_rows(["Title alpha beta beta", " "], VOCAB)
        assert _same_table(corpus_rows(docs, VOCAB), want)
        assert _same_table(corpus_rows(Corpus(docs), VOCAB), want)

    def test_a_corpus_is_tabled_once_per_vocab(self, monkeypatch):
        import qdc.index

        seen = []

        def counting(texts, vocab_size):
            seen.append((list(texts), vocab_size))
            return tokenize_rows(texts, vocab_size)

        monkeypatch.setattr(qdc.index, "tokenize_rows", counting)
        docs = [DocRecord("d1", "", "alpha beta")]
        corpus = Corpus(docs)
        first = corpus_rows(corpus, VOCAB)
        assert corpus_rows(corpus, VOCAB) is first
        corpus_rows(corpus, 2 * VOCAB)
        # an equal corpus keeps its own table; a plain list keeps none
        corpus_rows(Corpus(docs), VOCAB)
        corpus_rows(docs, VOCAB)
        corpus_rows(docs, VOCAB)
        texts = [" alpha beta"]
        assert seen == [
            (texts, VOCAB),
            (texts, 2 * VOCAB),
            (texts, VOCAB),
            (texts, VOCAB),
            (texts, VOCAB),
        ]

    def test_table_changes_neither_equality_nor_repr(self):
        docs = [DocRecord("d1", "t", "alpha beta")]
        corpus = Corpus(docs)
        before = repr(corpus)
        corpus_rows(corpus, VOCAB)
        assert corpus == docs and repr(corpus) == before == repr(docs)
        assert build_index(_params(), corpus, 1).rows.tobytes() == (
            build_index(_params(), docs, 1).rows.tobytes()
        )

    def test_dataset_keeps_one_corpus_table(self):
        docs = [DocRecord("d1", "t", "alpha beta")]
        data = TaskDataset(task_id=1, corpus=docs, train_pairs=[], queries_test=[])
        assert isinstance(data.corpus, Corpus) and data.corpus == docs
        table = corpus_rows(data.corpus, VOCAB)
        assert corpus_rows(replace(data).corpus, VOCAB) is table
        changed = replace(data, corpus=[replace(docs[0], text="gamma")])
        want = tokenize_rows(["t gamma"], VOCAB)
        assert _same_table(corpus_rows(changed.corpus, VOCAB), want)
        assert corpus_rows(data.corpus, VOCAB) is table


def test_rebuild_is_bit_deterministic():
    rng = np.random.default_rng(5)
    docs = _random_corpus(rng, 20)
    a = build_index(_params(3), docs, task_id=1)
    b = build_index(_params(3), docs, task_id=1)
    np.testing.assert_array_equal(a.rows, b.rows)
    assert a.doc_ids == b.doc_ids


class TestSearch:
    def test_self_match_ranks_first(self):
        rng = np.random.default_rng(1)
        index = build_index(_params(1), _random_corpus(rng, 30), task_id=1)
        q = index.rows[7].astype(np.float64)
        top_id, top_score = search_topk(index, q, k=1)[0]
        assert top_id == index.doc_ids[7]
        assert top_score == pytest.approx(1.0, abs=1e-6)

    def test_k_clamped_to_corpus_size(self):
        rng = np.random.default_rng(2)
        index = build_index(_params(2), _random_corpus(rng, 6), task_id=1)
        hits = search_topk(index, np.ones(DIM), k=11)
        assert len(hits) == 6

    def test_k_below_one_rejected(self):
        rng = np.random.default_rng(2)
        index = build_index(_params(2), _random_corpus(rng, 6), task_id=1)
        with pytest.raises(ValueError):
            search_topk(index, np.ones(DIM), k=0)

    def test_zero_query_rejected(self):
        rng = np.random.default_rng(2)
        index = build_index(_params(2), _random_corpus(rng, 6), task_id=1)
        with pytest.raises(ZeroVectorError):
            search_topk(index, np.zeros(DIM), k=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_query_rejected(self, bad):
        index = CorpusIndex(1, 1, 3, np.eye(3, dtype=np.float32), ["a", "b", "c"])
        with pytest.raises(NonFiniteError):
            search_topk(index, [bad, 1, 0], 2)

    def test_query_dim_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        index = build_index(_params(2), _random_corpus(rng, 6), task_id=1)
        with pytest.raises(DimMismatchError):
            search_topk(index, np.ones(DIM + 1), k=3)

    def test_query_whose_squared_norm_overflows(self):
        index = CorpusIndex(1, 1, 3, np.eye(3, dtype=np.float32), ["a", "b", "c"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hits = search_topk(index, [1e200, 1, 0], 2)
        assert [doc_id for doc_id, _ in hits] == ["a", "b"]
        assert hits[0][1] == 1.0
        assert hits[1][1] == pytest.approx(1e-200, rel=1e-15)

    @pytest.mark.parametrize("scale", [2.0**-30, 2.0**-3, 2.0**500, 2.0**1000])
    def test_power_of_two_scale_keeps_rankings_and_bits(self, scale):
        rng = np.random.default_rng(4)
        index = _random_index(rng, 50, duplicates=True)
        for q in rng.normal(size=(5, DIM)):
            assert search_topk(index, scale * q, 7) == search_topk(index, q, 7)

    def test_zero_means_a_true_norm_below_the_threshold(self):
        index = CorpusIndex(1, 1, 3, np.eye(3, dtype=np.float32), ["a", "b", "c"])
        for tiny in ([1e-13, 0, 0], [5e-324, 0, 0], [1e-200, 1e-201, 0]):
            with pytest.raises(ZeroVectorError):
                search_topk(index, tiny, 2)
        assert search_topk(index, [1e-11, 0, 0], 1) == [("a", 1.0)]

    def test_ties_break_by_ascending_doc_id(self):
        rows = np.array(
            [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=np.float32
        )
        index = CorpusIndex(
            task_id=1, encoder_version=1, dim=2, rows=rows,
            doc_ids=["zed", "abc", "mid"],
        )
        hits = search_topk(index, np.array([1.0, 0.0]), k=3)
        assert [h[0] for h in hits] == ["abc", "zed", "mid"]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 120))
            rows = rng.normal(size=(n, DIM)).astype(np.float32)
            if n >= 4:
                rows[1] = rows[0]  # inject an exact tie
            index = CorpusIndex(
                task_id=1, encoder_version=1, dim=DIM, rows=rows,
                doc_ids=[f"doc{i:04d}" for i in rng.permutation(n)],
            )
            q = rng.normal(size=DIM)
            k = int(rng.integers(1, n + 3))
            got = search_topk(index, q, k)
            want = _brute_force(index, q, k)
            assert [g[0] for g in got] == [w[0] for w in want]
            np.testing.assert_allclose(
                [g[1] for g in got], [w[1] for w in want], rtol=0, atol=1e-12
            )


    @pytest.mark.parametrize("k", [3, 10, 11, 27, 59, 60, 61, 100])
    def test_k_cutting_a_tied_block_matches_full_sort(self, k):
        # 10 rows above a block of 50 identical rows, 40 below; ids shuffled
        index = _tied_index(np.random.default_rng(k), 10, 50, 40)
        q = np.array([1.0, 0.0])
        scores = _exact_scores(index, q)
        assert len(set(scores[10:60].tolist())) == 1
        assert search_topk(index, q, k) == _full_sort(index, q, k)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_k_at_or_beyond_corpus_size_matches_full_sort(self, n):
        rng = np.random.default_rng(n)
        index = _tied_index(rng, n // 2, n - n // 2, 0)
        q = rng.normal(size=2)
        for k in (n, n + 1, 5 * n):
            assert search_topk(index, q, k) == _full_sort(index, q, k)
        assert search_topk(index, q, 1) == _full_sort(index, q, 1)

    def test_tie_heavy_property_matches_full_sort(self):
        # few distinct rows, so nearly every cut falls inside a tie
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 80))
            pool = rng.normal(size=(int(rng.integers(1, 5)), DIM))
            rows = pool[rng.integers(0, len(pool), n)].astype(np.float32)
            index = CorpusIndex(
                task_id=1, encoder_version=1, dim=DIM, rows=rows,
                doc_ids=[f"doc{i:04d}" for i in rng.permutation(n)],
            )
            q = rng.normal(size=DIM)
            k = int(rng.integers(1, n + 3))
            assert search_topk(index, q, k) == _full_sort(index, q, k)


def _exact_index(rng, n, distinct):
    """n rows drawn from a few distinct small-integer rows, each possibly
    doubled, ids in shuffled order. Against _exact_queries every product
    and sum is exact, so rows with equal cosines (duplicates and multiples)
    tie bit for bit however the scores are computed."""
    pool = rng.integers(-2, 3, size=(distinct, DIM))
    pool[~pool.any(axis=1), 0] = 1
    rows = pool[rng.integers(0, distinct, n)] * rng.integers(1, 3, size=(n, 1))
    return CorpusIndex(
        task_id=1, encoder_version=1, dim=DIM, rows=rows.astype(np.float32),
        doc_ids=[f"doc{i:05d}" for i in rng.permutation(n)],
    )


def _exact_queries(rng, m):
    """m queries of 1 or 4 entries of +-1: norms 1 and 2, exact halves."""
    queries = np.zeros((m, DIM))
    for q in queries:
        on = rng.choice(DIM, size=int(rng.choice([1, 4])), replace=False)
        q[on] = rng.choice([-1.0, 1.0], size=len(on))
    return queries


def _random_index(rng, n, duplicates=False):
    rows = rng.normal(size=(n, DIM))
    if duplicates:
        rows = rows[rng.integers(0, max(1, n // 4), n)]
    return CorpusIndex(
        task_id=1, encoder_version=1, dim=DIM, rows=rows.astype(np.float32),
        doc_ids=[f"doc{i:05d}" for i in rng.permutation(n)],
    )


def _assert_exact_scores(index, q, ranking):
    exact = _exact_scores(index, q)
    position = {doc_id: i for i, doc_id in enumerate(index.doc_ids)}
    assert [score for _, score in ranking] == [
        exact[position[doc_id]] for doc_id, _ in ranking
    ]


class TestSearchRows:
    """search_rows against search_topk and the exact scores."""

    @staticmethod
    def _assert_equals_search_topk(index, queries, k):
        got = search_rows(index, queries, k)
        assert got == [search_topk(index, q, k) for q in queries]

    def test_exact_ties_match_search_topk(self):
        # duplicate and doubled rows tie exactly, and k often cuts a tie
        rng = np.random.default_rng(21)
        for _ in range(80):
            n = int(rng.integers(1, 90))
            index = _exact_index(rng, n, int(rng.integers(1, 6)))
            k = int(rng.integers(1, n + 3))
            queries = _exact_queries(rng, int(rng.integers(1, 12)))
            self._assert_equals_search_topk(index, queries, k)

    @pytest.mark.parametrize("k", [1, 10, 59, 60, 61, 200])
    def test_k_cutting_a_tied_block_matches_search_topk(self, k):
        # rows 10..59 of _tied_index tie for e_0; axis queries score each
        # row by one of its entries, exactly
        index = _tied_index(np.random.default_rng(k), 10, 50, 40)
        queries = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        self._assert_equals_search_topk(index, queries, k)

    def test_queries_span_several_blocks(self):
        rng = np.random.default_rng(22)
        n = 3000
        index = _exact_index(rng, n, 12)
        queries = _exact_queries(rng, 70)
        assert qdc.index._SEARCH_SCORES // n < len(queries) // 3
        self._assert_equals_search_topk(index, queries, 10)

    @pytest.mark.parametrize("n", [1, 40, 3000])
    def test_random_queries_match_search_topk(self, n):
        rng = np.random.default_rng(n)
        index = _random_index(rng, n)
        queries = rng.normal(size=(70, DIM))
        got = search_rows(index, queries, 10)
        assert got == [search_topk(index, q, 10) for q in queries]
        for q, ranking in zip(queries, got):
            _assert_exact_scores(index, q, ranking)

    def test_built_index_matches_search_topk(self):
        rng = np.random.default_rng(23)
        index = build_index(_params(4), _random_corpus(rng, 120), task_id=1)
        queries = rng.normal(size=(30, DIM))
        got = search_rows(index, queries, 7)
        assert got == [search_topk(index, q, 7) for q in queries]
        for q, ranking in zip(queries, got):
            _assert_exact_scores(index, q, ranking)

    def test_duplicate_rows_tie_by_doc_id(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            n = int(rng.integers(2, 90))
            index = _random_index(rng, n, duplicates=True)
            queries = rng.normal(size=(int(rng.integers(1, 8)), DIM))
            k = int(rng.integers(1, n + 1))
            full = search_rows(index, queries, n)
            for q, ranking, every in zip(queries, search_rows(index, queries, k), full):
                assert every == sorted(every, key=lambda hit: (-hit[1], hit[0]))
                assert ranking == every[:k] == search_topk(index, q, k)
                _assert_exact_scores(index, q, every)

    def test_one_row_equals_search_topk_bit_for_bit(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            n = int(rng.integers(1, 200))
            index = _random_index(rng, n, duplicates=bool(rng.integers(2)))
            k = int(rng.integers(1, n + 3))
            for q in rng.normal(size=(3, DIM)):
                assert search_rows(index, q[None], k) == [search_topk(index, q, k)]

    def test_no_queries_no_rankings(self):
        index = _random_index(np.random.default_rng(25), 5)
        assert search_rows(index, np.empty((0, DIM)), 3) == []

    def test_zero_query_rejected(self):
        index = _random_index(np.random.default_rng(26), 5)
        queries = np.ones((3, DIM))
        queries[1] = 0.0
        with pytest.raises(ZeroVectorError):
            search_rows(index, queries, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        index = _random_index(np.random.default_rng(26), 5)
        queries = np.ones((3, DIM))
        queries[2, 1] = bad
        with pytest.raises(NonFiniteError):
            search_rows(index, queries, 3)

    @pytest.mark.parametrize(
        "shape", [(2, DIM + 1), (2, DIM - 1), (DIM,), (1, 1, DIM)]
    )
    def test_query_dim_mismatch_rejected(self, shape):
        index = _random_index(np.random.default_rng(27), 5)
        with pytest.raises(DimMismatchError):
            search_rows(index, np.ones(shape), 3)

    def test_k_below_one_rejected(self):
        index = _random_index(np.random.default_rng(28), 5)
        with pytest.raises(ValueError):
            search_rows(index, np.ones((2, DIM)), 0)


def _axis_index(rows, rng):
    return CorpusIndex(
        task_id=1, encoder_version=1, dim=DIM, rows=np.asarray(rows, np.float32),
        doc_ids=[f"doc{i:05d}" for i in rng.permutation(len(rows))],
    )


class TestCandidateSelection:
    """Each query's candidates are picked out of its block's flat scan mask;
    every ranking is checked against a full float64 lexsort of all rows."""

    def test_candidates_at_the_ends_of_adjacent_rows(self):
        # e_1 has one candidate, the last row; e_0 has one, the first row;
        # in one block they sit next to each other in the flat mask
        rng = np.random.default_rng(31)
        n = 50
        rows = np.zeros((n, DIM))
        rows[:, 2:] = rng.uniform(0.5, 1.0, size=(n, DIM - 2))
        rows[0, :] = np.eye(DIM)[0]
        rows[-1, :] = np.eye(DIM)[1]
        index = _axis_index(rows, rng)
        eye = np.eye(DIM)
        queries = np.stack([eye[2] + eye[3], eye[1], eye[0], eye[1], eye[4]])
        assert qdc.index._SEARCH_SCORES // n >= len(queries)
        for q, only in ((eye[1], n - 1), (eye[0], 0)):
            scores = _exact_scores(index, q)
            assert scores[only] == 1.0 and np.delete(scores, only).max() == 0.0
        for k in (1, 2, 3):
            got = search_rows(index, queries, k)
            assert got == [_full_sort(index, q, k) for q in queries]
        assert [hits[0][0] for hits in search_rows(index, queries[1:4], 1)] == [
            index.doc_ids[n - 1], index.doc_ids[0], index.doc_ids[n - 1]
        ]

    @pytest.mark.parametrize("k", [1, 5, 39])
    def test_all_tied_pool_next_to_exactly_k_candidates(self, k):
        # every row is e_7 plus one other axis: e_7 scores all of them
        # 1/sqrt(2) bit for bit, and e_0 scores k of them so and the rest 0
        rng = np.random.default_rng(k)
        n = 40
        axes = np.where(np.arange(n) < k, 0, 1 + np.arange(n) % (DIM - 2))
        rows = np.eye(DIM)[axes] + np.eye(DIM)[DIM - 1]
        index = _axis_index(rows, rng)
        eye = np.eye(DIM)
        assert len(set(_exact_scores(index, eye[DIM - 1]).tolist())) == 1
        assert np.count_nonzero(_exact_scores(index, eye[0]) > 0.5) == k
        for queries in (eye[[DIM - 1, 0]], eye[[0, DIM - 1]], eye[[0, DIM - 1, 0]]):
            got = search_rows(index, queries, k)
            assert got == [_full_sort(index, q, k) for q in queries]

    def test_many_three_query_blocks_over_20000_rows(self):
        rng = np.random.default_rng(33)
        n = 20_000
        index = _random_index(rng, n, duplicates=True)
        assert qdc.index._SEARCH_SCORES // n == 3
        queries = rng.normal(size=(22, DIM))
        for k in (1, 10):
            got = search_rows(index, queries, k)
            assert got == [_full_sort(index, q, k) for q in queries]


class TestIdenticalRows:
    """Bit-identical rows score the same bits wherever they lie in the
    matrix, and so tie and order by doc_id."""

    @pytest.mark.parametrize("scores", [1, 64, 1 << 16, 1 << 22])
    @pytest.mark.parametrize("n", [22, 69])
    @pytest.mark.parametrize("dim", [3, DIM, 64])
    def test_identical_rows_tie_at_every_position(
        self, monkeypatch, scores, n, dim
    ):
        monkeypatch.setattr(qdc.index, "_SEARCH_SCORES", scores)
        rng = np.random.default_rng([n, dim])
        rows = rng.normal(size=(n, dim)).astype(np.float32)
        # one copy at each position mod 8, two in the last partial group
        at = [j + 8 * (j % 2) for j in range(8)] + [n - 2, n - 1]
        rows[at] = rows[0]
        index = CorpusIndex(
            task_id=1, encoder_version=1, dim=dim, rows=rows,
            doc_ids=[f"doc{i:05d}" for i in rng.permutation(n)],
        )
        copies = sorted(index.doc_ids[i] for i in at)
        queries = rng.normal(size=(40, dim))
        full = search_rows(index, queries, n + 2)
        for q, every in zip(queries, full):
            for ranking in (every, search_topk(index, q, n + 2)):
                tied = [hit for hit in ranking if hit[0] in copies]
                assert len({score for _, score in tied}) == 1
                first = ranking.index(tied[0])
                assert ranking[first : first + len(at)] == tied
                assert [doc_id for doc_id, _ in tied] == copies
        for q, every in zip(queries, full):
            _assert_exact_scores(index, q, every)
        for k in range(1, n + 3):
            got = search_rows(index, queries[:8], k)
            assert got == [every[:k] for every in full[:8]]
            assert got == [search_topk(index, q, k) for q in queries[:8]]


def _near_tie_index(rng, dim, pool, center, spread=5e-7):
    """A pool of float64 rows whose cosines with the returned query lie
    within spread of center, between rows far above and far below it.

    The rows are not representable in float32 and their norms run from
    1e-3 to 1e3, so the float32 scan cannot order the pool, and the exact
    scores must.
    """
    q = rng.normal(size=dim)
    q /= np.linalg.norm(q)

    def at_cosine(c):
        w = rng.normal(size=dim)
        w -= (w @ q) * q
        return c * q + np.sqrt(1 - c * c) * w / np.linalg.norm(w)

    cosines = np.concatenate(
        [
            rng.uniform(0.9, 0.99, 3),
            center + rng.uniform(-spread, spread, pool),
            rng.uniform(-0.9, -0.5, 4),
        ]
    )
    rows = np.array([at_cosine(c) for c in cosines])
    rows *= 10.0 ** rng.uniform(-3, 3, size=(len(rows), 1))
    assert not np.array_equal(rows, rows.astype(np.float32))
    n = len(rows)
    index = CorpusIndex(
        task_id=1, encoder_version=1, dim=dim, rows=rows,
        doc_ids=[f"doc{i:05d}" for i in rng.permutation(n)],
    )
    return index, q


class TestScanPrefilter:
    """The float32 scan never drops a row of the exact top k."""

    @pytest.mark.parametrize("dim", [2, 8, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_near_ties_match_full_sort_of_exact_scores(self, dim, seed):
        rng = np.random.default_rng([dim, seed])
        index, q = _near_tie_index(rng, dim, 40, rng.uniform(-0.3, 0.8))
        # q, 7.5 q, and q rounded to float32 and nudged: unit queries that
        # differ only in their last bits
        queries = np.stack([q, 7.5 * q, q.astype(np.float32) * (1 + 1e-12)])
        n = len(index.doc_ids)
        for k in range(1, n + 3):
            got = search_rows(index, queries, k)
            assert got == [_full_sort(index, query, k) for query in queries]
            assert got[0] == search_topk(index, q, k)

    @pytest.mark.parametrize("dim", [8, 64])
    def test_pool_wider_than_the_margin(self, dim):
        # cosines spread over several scan margins, so k cuts the candidates
        # out of the pool
        rng = np.random.default_rng(dim)
        index, q = _near_tie_index(rng, dim, 300, 0.25, spread=3e-5)
        for k in (1, 2, 3, 4, 5, 50, 150, 302, 303, 306, 307, 309):
            assert search_topk(index, q, k) == _full_sort(index, q, k)


class TestPersistence:
    def _saved(self, tmp_path, seed=6, n=15):
        rng = np.random.default_rng(seed)
        index = build_index(_params(seed), _random_corpus(rng, n), task_id=3)
        path = tmp_path / "task3.idx"
        save_index(index, path)
        return index, path

    def test_round_trip_bit_exact(self, tmp_path):
        index, path = self._saved(tmp_path)
        loaded = load_index(path)
        np.testing.assert_array_equal(loaded.rows, index.rows)
        assert loaded.doc_ids == index.doc_ids
        assert (loaded.task_id, loaded.encoder_version, loaded.dim) == (
            index.task_id, index.encoder_version, index.dim,
        )
        second = tmp_path / "again.idx"
        save_index(loaded, second)
        assert second.read_bytes() == path.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        _, path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(CorruptIndexError):
            load_index(path)

    def test_bad_magic_rejected(self, tmp_path):
        _, path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptIndexError):
            load_index(path)

    def test_payload_corruption_fails_crc(self, tmp_path):
        _, path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptIndexError):
            load_index(path)

    def test_header_dim_mismatch_rejected(self, tmp_path):
        # inflate the dim field so the declared row block outruns the payload
        _, path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 8 + 12, 10_000)
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptIndexError):
            load_index(path)

    def test_zero_count_header_rejected(self, tmp_path):
        _, path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 8 + 8, 0)
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptIndexError):
            load_index(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        import zlib

        _, path = self._saved(tmp_path)
        blob = path.read_bytes()
        # keep the CRC honest so only the layout check can object
        payload = blob[28:] + b"XY"
        crc = struct.pack("<I", zlib.crc32(payload))
        path.write_bytes(blob[:24] + crc + payload)
        with pytest.raises(CorruptIndexError):
            load_index(path)
