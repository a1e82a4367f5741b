import hashlib
import math
import re
import struct
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from qdc import encoder
from qdc.encoder import (
    _BLOCK_ROWS,
    _MAX_WEIGHTS,
    DEFAULT_VOCAB,
    SNAPSHOT_MAGIC,
    EncoderParams,
    FeatureRows,
    RowGrad,
    contrastive_loss,
    distill_loss,
    encode,
    encode_batch,
    feature_rows,
    fnv1a64,
    grad_check,
    init_params,
    load_snapshot,
    merge_grads,
    save_snapshot,
    sgd_step,
    tokenize,
    tokenize_rows,
)
from qdc.errors import (
    CorruptSnapshotError,
    EmptyBatchError,
    NonFiniteError,
    ShapeMismatchError,
    ZeroVectorError,
)
from qdc.index import corpus_rows, eval_query_rows


def _fnv64_reference(data: bytes) -> int:
    # independent implementation of the published 64-bit FNV-1a parameters
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) % (1 << 64)
    return h


def _feats(*pairs) -> FeatureRows:
    """The one-row table of (id, count) pairs given in ascending id order."""
    ids, counts = zip(*pairs)
    return encoder._one_row(ids, np.array(counts) / sum(counts))


def _rand_feats(rng, vocab):
    m = int(rng.integers(2, 6))
    idx = np.sort(rng.choice(vocab, size=m, replace=False))
    cnt = rng.integers(1, 4, size=m)
    return encoder._one_row(idx, cnt / cnt.sum())


def _value(table):
    """A one-row table's value: its ids and weights as bytes."""
    return table.ids.tobytes(), table.weights.tobytes()


def _tables(batch, hard_negs=None):
    """The batch as contrastive_loss takes it: a queries table with one row
    per pair and a docs table with one row per distinct document value, as
    a corpus holds each document once; hard_negs pad with -1."""
    hard_negs = hard_negs if hard_negs is not None else [[] for _ in batch]
    first = {}

    def slot(f):
        return first.setdefault(_value(f), (len(first), f))[0]

    pos = [slot(d) for _, d in batch]
    negs = np.full((len(hard_negs), max(map(len, hard_negs), default=0)), -1)
    for i, per in enumerate(hard_negs):
        negs[i, : len(per)] = [slot(f) for f in per]
    queries = feature_rows([q for q, _ in batch])
    docs = feature_rows([f for _, f in first.values()])
    return queries, docs, np.arange(len(batch)), pos, negs


def _contrastive(params, batch, hard_negs=None):
    return contrastive_loss(params, *_tables(batch, hard_negs))


def _distill(new, old, batch):
    """distill_loss against old's embeddings of the batch's inputs."""
    queries = feature_rows([q for q, _ in batch])
    docs = feature_rows([d for _, d in batch])
    rows = np.arange(len(batch))
    q_old, d_old = encode_batch(old, queries), encode_batch(old, docs)
    return distill_loss(new, queries, docs, rows, rows, q_old, d_old)


def _fused(new, old, batch, hard_negs=None):
    """contrastive_loss distilling toward old's embeddings of each pair's
    query and positive."""
    tables = _tables(batch, hard_negs)
    queries, docs, q_rows, pos, _ = tables
    targets = (encode_batch(old, queries)[q_rows], encode_batch(old, docs)[pos])
    return contrastive_loss(new, *tables, targets=targets)


def _encoded(params, feats):
    """The forward pass of a list of features, one table row each."""
    return encoder._EncodedBatch(params, feature_rows(feats), np.arange(len(feats)))


def _assert_same_table(got, want):
    """Bit for bit, dtypes included."""
    for name in ("indptr", "ids", "weights"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestTokenize:
    def test_empty_text_reserved_token(self):
        feats = tokenize("")
        assert feats.indptr.tolist() == [0, 1]
        assert feats.ids.tolist() == [0] and feats.weights.tolist() == [1.0]

    def test_repeated_token_counted_once(self):
        # one id per distinct token, weighed by its count over the total
        feats = tokenize("hello hello world")
        assert len(feats) == 1 and len(feats.ids) == 2
        hello = _fnv64_reference(b"hello") % DEFAULT_VOCAB
        assert feats.weights[feats.ids.tolist().index(hello)] == 2 / 3

    def test_ids_match_fnv_reference(self):
        feats = tokenize("Magnesium, beans!", vocab_size=DEFAULT_VOCAB)
        expected = sorted(
            _fnv64_reference(w.encode()) % DEFAULT_VOCAB
            for w in ("magnesium", "beans")
        )
        assert feats.ids.tolist() == expected
        assert feats.weights.tolist() == [1 / 2, 1 / 2]

    def test_fnv_helper_agrees_with_reference(self):
        for word in ("a", "the", "magnesium", "w1x0000", "été"):
            raw = word.encode("utf-8")
            assert fnv1a64(raw) == _fnv64_reference(raw)

    def test_ids_stay_below_vocab(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            text = " ".join(f"tok{int(rng.integers(0, 1_000_000))}" for _ in range(n))
            feats = tokenize(text, vocab_size=97)
            assert all(0 <= i < 97 for i in feats.ids.tolist())
            # the weights are counts over a total of n tokens
            counts = np.rint(feats.weights * n)
            np.testing.assert_allclose(feats.weights, counts / n, rtol=0, atol=1e-15)
            assert counts.min() >= 1 and counts.sum() == n

    def test_punctuation_and_case_folding(self):
        _assert_same_table(tokenize("Foo.BAR foo bar"), tokenize("foo bar foo bar"))


class TestEncode:
    def test_one_hot_passthrough(self):
        params = EncoderParams(
            W=np.eye(4), vocab_size=4, dim=4, temperature=0.5
        )
        out = encode(params, _feats((2, 1)))
        np.testing.assert_array_equal(out, [0.0, 0.0, 1.0, 0.0])

    def test_zero_weights_rejected(self):
        params = EncoderParams(
            W=np.zeros((4, 4)), vocab_size=4, dim=4, temperature=0.5
        )
        with pytest.raises(ZeroVectorError):
            encode(params, _feats((1, 2)))

    def test_matches_matrix_product_oracle(self):
        rng = np.random.default_rng(0)
        params = init_params(32, 8, 0.5, rng)
        text = "drift compensation query embedding drift"
        feats = tokenize(text, 32)
        # dense hashed counts over the whole vocabulary, then one product
        cnt = np.zeros(32)
        for w in text.split():
            cnt[_fnv64_reference(w.encode()) % 32] += 1.0
        raw = (cnt @ params.W) / 5
        expected = raw / np.linalg.norm(raw)
        np.testing.assert_allclose(
            encode(params, feats), expected, rtol=0, atol=1e-12
        )

    def test_output_unit_norm(self):
        rng = np.random.default_rng(9)
        params = init_params(64, 8, 0.5, rng)
        for _ in range(50):
            u = encode(params, _rand_feats(rng, 64))
            assert abs(float(np.linalg.norm(u)) - 1.0) <= 1e-9

    def test_batch_matches_per_item(self):
        # the batch path is one matmul, so agreement is to ulps, not bits
        rng = np.random.default_rng(10)
        params = init_params(64, 8, 0.5, rng)
        feats = [_rand_feats(rng, 64) for _ in range(7)]
        batch = encode_batch(params, feature_rows(feats))
        for i, f in enumerate(feats):
            np.testing.assert_allclose(
                batch[i], encode(params, f), rtol=0, atol=1e-12
            )

    def test_batch_across_blocks_matches_per_item(self):
        # 2,500 rows make many dense blocks, the last one short; each block
        # has its own set of touched rows
        assert 2500 % _BLOCK_ROWS
        rng = np.random.default_rng(14)
        params = init_params(4096, 8, 0.5, rng)
        feats = [_rand_feats(rng, 4096) for _ in range(2500)]
        batch = encode_batch(params, feature_rows(feats))
        expected = np.array([encode(params, f) for f in feats])
        np.testing.assert_allclose(batch, expected, rtol=0, atol=1e-12)

        linear = replace(params, linear_output=True)
        raw = np.array([f.weights @ params.W[f.ids] for f in feats])
        np.testing.assert_allclose(
            encode_batch(linear, feature_rows(feats)), raw, rtol=0, atol=1e-12
        )

    def test_weight_blocks_bounded_and_tile_the_batch(self):
        # a large vocabulary: 1,000 inputs of 40-80 mostly distinct ids;
        # one block over all of them would be 1,000 x ~30,000 entries
        rng = np.random.default_rng(16)
        feats = []
        for _ in range(1000):
            idx = np.sort(rng.choice(DEFAULT_VOCAB, int(rng.integers(40, 81)), False))
            feats.append(_feats(*[(i, 1) for i in idx]))
        lo = 0
        table, sel = feature_rows(feats), np.arange(len(feats))
        for start, rows, x in encoder._weight_blocks(table, sel, DEFAULT_VOCAB):
            nonzeros = sum(len(f.ids) for f in feats[start : start + len(x)])
            assert start == lo and x.shape[1] == len(rows)
            assert x.size <= min(_MAX_WEIGHTS, _BLOCK_ROWS * nonzeros)
            lo += len(x)
        assert lo == len(feats)

    def test_large_vocab_shrinks_blocks(self, monkeypatch):
        # at most _MAX_WEIGHTS // vocab inputs per block, and never zero
        monkeypatch.setattr(encoder, "_MAX_WEIGHTS", 16)
        table = feature_rows(
            [_feats((1, 1), (2, 1), (3, 1)), _feats((4, 2)), _feats((5, 1))]
        )
        sel = np.arange(3)
        assert [len(x) for _, _, x in encoder._weight_blocks(table, sel, 8)] == [2, 1]
        assert [
            len(x) for _, _, x in encoder._weight_blocks(table, sel, 32)
        ] == [1, 1, 1]

    def test_empty_batch_encodes_to_no_rows(self):
        rng = np.random.default_rng(15)
        params = init_params(16, 4, 0.5, rng)
        assert encode_batch(params, feature_rows([])).shape == (0, 4)

    def test_linear_output_skips_normalization(self):
        rng = np.random.default_rng(13)
        base = init_params(16, 4, 0.5, rng)
        # scale far away from unit norm so the check cannot pass by luck
        linear = replace(base, W=base.W * 3.0, linear_output=True)
        feats = _feats((3, 1), (5, 2))
        raw = linear.W[[3, 5]].T @ np.array([1.0, 2.0]) / 3.0
        np.testing.assert_allclose(encode(linear, feats), raw, rtol=0, atol=1e-14)
        assert abs(float(np.linalg.norm(encode(linear, feats))) - 1.0) > 1e-1

    def test_token_id_out_of_vocab_rejected(self):
        params = EncoderParams(
            W=np.eye(4), vocab_size=4, dim=4, temperature=0.5
        )
        with pytest.raises(ValueError):
            encode(params, _feats((7, 1)))

    def test_table_of_several_rows_rejected(self):
        # a second row would add its weights into the first's embedding
        params = EncoderParams(
            W=np.eye(4), vocab_size=4, dim=4, temperature=0.5
        )
        with pytest.raises(ValueError):
            encode(params, feature_rows([_feats((1, 1)), _feats((2, 1))]))
        with pytest.raises(ValueError):
            encode(params, feature_rows([]))

    def test_batch_token_id_out_of_vocab_rejected(self):
        params = EncoderParams(
            W=np.eye(4), vocab_size=4, dim=4, temperature=0.5
        )
        with pytest.raises(ValueError):
            encode_batch(
                params, feature_rows([_feats((1, 1)), _feats((2, 1), (7, 1))])
            )
        with pytest.raises(ValueError):
            encode_batch(
                replace(params, linear_output=True), feature_rows([_feats((4, 1))])
            )

    def test_shape_mismatch_rejected_at_construction(self):
        with pytest.raises(ShapeMismatchError):
            EncoderParams(W=np.eye(3), vocab_size=4, dim=3, temperature=0.5)


class TestFeatureRows:
    def test_layout(self):
        feats = [_feats((1, 2), (4, 1)), _feats((0, 1)), _feats((2, 1), (3, 3))]
        table = feature_rows(feats)
        assert isinstance(table, FeatureRows) and len(table) == 3
        assert table.indptr.tolist() == [0, 2, 3, 5]
        assert table.ids.tolist() == [1, 4, 0, 2, 3]
        # count/total in float64, bit for bit
        assert table.weights.tolist() == [2 / 3, 1 / 3, 1.0, 1 / 4, 3 / 4]

    def test_empty_table(self):
        table = feature_rows([])
        assert len(table) == 0 and table.indptr.tolist() == [0]
        assert len(table.ids) == len(table.weights) == 0

    @pytest.mark.parametrize(
        "sel",
        [
            [4, 4, 1, 4, 1],  # repeated rows
            [6, 0, 5, 2, 3, 1],  # unsorted rows
            [3],  # a single row
            list(range(99, -1, -1)),  # many blocks, the last one short
        ],
    )
    @pytest.mark.parametrize("vocab", [64, 1 << 18])
    def test_gathered_blocks_equal_per_item(self, sel, vocab):
        # 2^18 ids leave 4 rows a block under the 2^20-entry cap
        rng = np.random.default_rng(41)
        params = init_params(vocab, 8, 0.5, rng)
        feats = [_rand_feats(rng, vocab) for _ in range(100)]
        sel = np.asarray(sel)
        blocks = list(encoder._weight_blocks(feature_rows(feats), sel, vocab))
        step = encoder._block_rows(vocab)
        assert [lo for lo, _, _ in blocks] == list(range(0, len(sel), step))
        for lo, rows, x in blocks:
            for i, row in enumerate(x):
                f = feats[int(sel[lo + i])]
                dense = np.zeros(vocab)
                dense[f.ids] = f.weights
                assert np.array_equal(row, dense[rows])
                assert set(f.ids.tolist()) <= set(rows.tolist())
        units = encoder._EncodedBatch(params, feature_rows(feats), sel).units
        expected = np.array([encode(params, feats[int(j)]) for j in sel])
        np.testing.assert_allclose(units, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("chunk", [1, 33, 50, 10_000])
    @pytest.mark.parametrize("vocab", [64, 1 << 18])
    @pytest.mark.parametrize("linear", [False, True])
    def test_chunks_keep_every_bit(self, monkeypatch, chunk, vocab, linear):
        # encode_batch projects and normalizes _ENCODE_ROWS rows at a time,
        # in whole weight blocks: the bits of one pass over the table
        rng = np.random.default_rng(43)
        params = replace(init_params(vocab, 8, 0.5, rng), linear_output=linear)
        table = feature_rows([_rand_feats(rng, vocab) for _ in range(203)])
        whole = encoder._project(
            params.W,
            encoder._weight_blocks(table, np.arange(203), vocab),
            np.empty((203, 8)),
        )
        if not linear:
            encoder._normalize(whole)
        monkeypatch.setattr(encoder, "_ENCODE_ROWS", chunk)
        starts = []
        weight_blocks = encoder._weight_blocks

        def chunk_blocks(table, sel, vocab_size):
            starts.append(int(sel[0]))
            return weight_blocks(table, sel, vocab_size)

        monkeypatch.setattr(encoder, "_weight_blocks", chunk_blocks)
        assert encode_batch(params, table).tobytes() == whole.tobytes()
        step = encoder._block_rows(vocab)
        assert starts[0] == 0 and all(lo % step == 0 for lo in starts)
        assert len(starts) == -(-203 // (step * max(1, chunk // step)))


class TestTokenizeRows:
    """tokenize_rows against per-text tokenize, bit for bit."""

    @staticmethod
    def _assert_equals_per_text(texts, vocab):
        got = tokenize_rows(texts, vocab)
        _assert_same_table(got, feature_rows([tokenize(t, vocab) for t in texts]))
        for text in texts:
            _assert_same_table(tokenize(text, vocab), tokenize_rows([text], vocab))

    @pytest.mark.parametrize("vocab", [7, 97, DEFAULT_VOCAB])
    def test_equals_per_text_tokenize(self, vocab):
        # at vocab 7 the sixteen letters of the last text collide
        texts = [
            "",
            "?!, ... --- __",
            "beans beans beans magnesium beans",
            "snake_case under__score _lead trail_",
            "Été naïve ÉTÉ 東京 tokyo",
            "Foo.BAR foo bar",
            "a b c d e f g h i j k l m n o p",
        ]
        self._assert_equals_per_text(texts, vocab)

    def test_empty_list(self):
        self._assert_equals_per_text([], 97)

    def test_runs_join_into_one_table(self):
        run = encoder._TOKENIZE_RUN
        texts = [f"w{i % 13} x{i % 5} w{i % 13}" for i in range(2 * run + 3)]
        # empty texts at both ends and on both sides of a run boundary
        for i in (0, run - 1, run, len(texts) - 1):
            texts[i] = ""
        self._assert_equals_per_text(texts, 97)


# the tokenizer's definition, kept here as an independent reference:
# maximal runs of the lowercased text that are word characters but not "_"
_REFERENCE_TOKEN = re.compile(r"[^\W_]+")


def _reference_table(text, vocab):
    tokens = _REFERENCE_TOKEN.findall(text.lower())
    counts = Counter()
    for tok, n in Counter(tokens).items():
        counts[fnv1a64(tok.encode("utf-8")) % vocab] += n
    return _feats(*sorted(counts.items())) if tokens else _feats((0, 1))


# separators, alphanumerics and case mappings where a hand-written class
# could part from the regex's
_TRICKY = [
    "snake_case",
    "no\u00a0break",
    "ideographic\u3000space",
    "em\u2014dash",
    "cafe\u0301 acute",
    "İstanbul",  # lowers to i + U+0307
    "ΟΔΟΣ.",  # the last sigma lowers to the final form
    "x² y²",
    "٣ arabic-indic three",
    "ＡＢ fullwidth",
    "zero\u200dwidth joiner",
    "file\x1cseparator",
    "lone\ud800surrogate",
]


class TestTokenizerOracle:
    """tokenize and tokenize_rows against the reference regex."""

    def test_regex_class_is_isalnum_on_every_code_point(self):
        every = "".join(map(chr, range(0x110000)))
        by_regex = {m.start() for m in re.finditer(r"[^\W_]", every)}
        by_isalnum = {i for i, ch in enumerate(every) if ch.isalnum()}
        assert by_regex == by_isalnum
        # so a split on whitespace cannot cut an alphanumeric run
        assert not any(ch.isspace() for ch in map(chr, by_isalnum))

    @pytest.mark.parametrize("text", _TRICKY + ["_", "", " ".join(_TRICKY)])
    @pytest.mark.parametrize("vocab", [97, DEFAULT_VOCAB])
    def test_tricky_texts(self, text, vocab):
        want = _reference_table(text, vocab)
        _assert_same_table(tokenize(text, vocab), want)
        _assert_same_table(tokenize_rows([text], vocab), want)

    def test_every_code_point_between_two_letters(self):
        # a code point joins its two letters into one token or splits them;
        # tokenize and tokenize_rows both split with this helper
        for plane in range(0, 0x110000, 0x10000):
            text = "".join(f"a{chr(c)}b " for c in range(plane, plane + 0x10000))
            want = _REFERENCE_TOKEN.findall(text.lower())
            assert encoder._split_tokens(text) == want, hex(plane)


class TestShippedTables:
    """The shipped stream's task-1 tables at the default vocab, pinned: a
    tokenizer change that moves a table fails here, on the table."""

    @pytest.mark.parametrize(
        "population, digest",
        [
            ("corpus", "7122efd7b25bbbf21bb924d985afbc3f0bb7e26cca99d936c6f9cd02e64c6f0d"),
            ("train", "1b68f58644c605d56ef1792d1bdc04add8113dbd3ee451351f55cc51e2eb3fa2"),
            ("test", "74675f826454c4169fedb80ad9c07bb30eeef5bf2a34faebe2d3db6bc792673a"),
        ],
    )
    def test_digest(self, shipped_stream, population, digest):
        task = shipped_stream[0]
        table = {
            "corpus": corpus_rows(task.corpus, DEFAULT_VOCAB),
            "train": tokenize_rows([q for q, _ in task.train_pairs], DEFAULT_VOCAB),
            "test": eval_query_rows(task, DEFAULT_VOCAB),
        }[population]
        h = hashlib.sha256()
        for a in (table.indptr, table.ids, table.weights):
            h.update(str(a.dtype).encode())
            h.update(a.tobytes())
        assert h.hexdigest() == digest


def _fd_gradient(evaluate, params, touched, dim):
    """Central finite differences over every touched coordinate."""
    eps = 1e-5
    numeric = {}
    for r in sorted(touched):
        for c in range(dim):
            w_plus = params.W.copy()
            w_plus[r, c] += eps
            w_minus = params.W.copy()
            w_minus[r, c] -= eps
            lp, _ = evaluate(replace(params, W=w_plus))
            lm, _ = evaluate(replace(params, W=w_minus))
            numeric[(r, c)] = (lp - lm) / (2 * eps)
    return numeric


def _max_rel_error(analytic, numeric):
    worst = 0.0
    for (r, c), n_val in numeric.items():
        a_val = float(analytic[r, c])
        if abs(a_val) < 1e-7 and abs(n_val) < 1e-7:
            continue
        worst = max(worst, abs(a_val - n_val) / max(1e-8, abs(a_val) + abs(n_val)))
    return worst


class TestContrastiveLoss:
    def test_single_pair_no_negatives_is_zero(self):
        rng = np.random.default_rng(2)
        params = init_params(16, 4, 0.5, rng)
        loss, _ = _contrastive(params, [(_feats((1, 1)), _feats((1, 1)))])
        assert loss == 0.0

    def test_symmetric_two_pair_batch_is_ln_two(self):
        rng = np.random.default_rng(2)
        params = init_params(16, 4, 0.05, rng)
        f = _feats((2, 1), (5, 1))
        loss, _ = _contrastive(params, [(f, f), (f, f)])
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(2)
        params = init_params(16, 4, 0.5, rng)
        with pytest.raises(EmptyBatchError):
            _contrastive(params, [])

    def test_misaligned_hard_negatives_rejected(self):
        rng = np.random.default_rng(2)
        params = init_params(16, 4, 0.5, rng)
        batch = [(_rand_feats(rng, 16), _rand_feats(rng, 16))]
        queries, docs, q_rows, pos, _ = _tables(batch)
        with pytest.raises(ValueError):
            contrastive_loss(params, queries, docs, q_rows, pos, np.full((2, 1), -1))
        with pytest.raises(ValueError):
            contrastive_loss(params, queries, docs, q_rows, [0, 0], np.full((1, 0), -1))
        with pytest.raises(ValueError):
            contrastive_loss(params, queries, docs, q_rows, pos, np.zeros(1, int))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        params = replace(init_params(16, 4, 0.7, rng), version=1)
        batch = [(_rand_feats(rng, 16), _rand_feats(rng, 16)) for _ in range(3)]
        negs = [[_rand_feats(rng, 16)] for _ in range(3)]

        def evaluate(p):
            return _contrastive(p, batch, negs)

        touched = set()
        for q, d in batch:
            touched.update(q.ids.tolist())
            touched.update(d.ids.tolist())
        for per in negs:
            touched.update(per[0].ids.tolist())
        analytic = evaluate(params)[1].dense(16)
        numeric = _fd_gradient(evaluate, params, touched, 4)
        assert _max_rel_error(analytic, numeric) <= 1e-4

    def test_ragged_hard_negatives_match_finite_differences(self):
        # 0, 1 and 3 negatives: every query owns its own slice of the one
        # negative batch, and an empty slice adds nothing
        rng = np.random.default_rng(12)
        params = replace(init_params(16, 4, 0.7, rng), version=1)
        batch = [(_rand_feats(rng, 16), _rand_feats(rng, 16)) for _ in range(3)]
        negs = [[_rand_feats(rng, 16) for _ in range(h)] for h in (0, 1, 3)]

        def evaluate(p):
            return _contrastive(p, batch, negs)

        touched = set()
        for q, d in batch:
            touched.update(q.ids.tolist())
            touched.update(d.ids.tolist())
        for per in negs:
            for f in per:
                touched.update(f.ids.tolist())
        analytic = evaluate(params)[1].dense(16)
        numeric = _fd_gradient(evaluate, params, touched, 4)
        assert _max_rel_error(analytic, numeric) <= 1e-4

    def test_loss_over_many_small_blocks(self, monkeypatch):
        # two inputs per block: every batch spans blocks that share rows, so
        # their gradients must accumulate into the same rows of dW
        rng = np.random.default_rng(17)
        params = replace(init_params(16, 4, 0.7, rng), version=1)
        batch = [(_rand_feats(rng, 16), _rand_feats(rng, 16)) for _ in range(4)]
        negs = [[_rand_feats(rng, 16) for _ in range(h)] for h in (2, 0, 3, 1)]
        whole = _contrastive(params, batch, negs)
        monkeypatch.setattr(encoder, "_BLOCK_ROWS", 2)
        queries = feature_rows([q for q, _ in batch])
        assert len(list(encoder._weight_blocks(queries, np.arange(4), 16))) == 2

        def evaluate(p):
            return _contrastive(p, batch, negs)

        loss, grads = evaluate(params)
        analytic = grads.dense(16)
        assert loss == pytest.approx(whole[0], abs=1e-12)
        np.testing.assert_allclose(
            analytic, whole[1].dense(16), rtol=0, atol=1e-12
        )
        touched = {i for pair in batch for f in pair for i in f.ids.tolist()}
        touched.update(i for per in negs for f in per for i in f.ids.tolist())
        numeric = _fd_gradient(evaluate, params, touched, 4)
        assert _max_rel_error(analytic, numeric) <= 1e-4

    def test_ragged_loss_matches_per_query_softmax(self):
        rng = np.random.default_rng(13)
        params = init_params(32, 8, 0.5, rng)
        batch = [(_rand_feats(rng, 32), _rand_feats(rng, 32)) for _ in range(3)]
        negs = [[_rand_feats(rng, 32) for _ in range(h)] for h in (3, 0, 1)]
        loss, _ = _contrastive(params, batch, negs)
        docs = [encode(params, d) for _, d in batch]
        expected = 0.0
        for i, (q, _) in enumerate(batch):
            u = encode(params, q)
            cands = docs + [encode(params, f) for f in negs[i]]
            logits = np.array([u @ c for c in cands]) / params.temperature
            expected += np.log(np.sum(np.exp(logits))) - logits[i]
        assert loss == pytest.approx(expected / 3, abs=1e-12)

    def test_permutation_covariance(self):
        rng = np.random.default_rng(6)
        params = init_params(32, 8, 0.5, rng)
        batch = [(_rand_feats(rng, 32), _rand_feats(rng, 32)) for _ in range(5)]
        negs = [[_rand_feats(rng, 32)] for _ in range(5)]
        loss_a, grads_a = _contrastive(params, batch, negs)
        order = [3, 1, 4, 0, 2]
        loss_b, grads_b = _contrastive(
            params, [batch[i] for i in order], [negs[i] for i in order]
        )
        assert loss_b == pytest.approx(loss_a, abs=1e-9)
        np.testing.assert_array_equal(grads_b.rows, grads_a.rows)
        np.testing.assert_allclose(
            grads_b.values, grads_a.values, rtol=0, atol=1e-9
        )

    def test_duplicated_pair_raises_loss(self):
        # the duplicate contributes a similarity-1 in-batch negative
        rng = np.random.default_rng(7)
        params = init_params(32, 8, 0.5, rng)
        batch = [(_rand_feats(rng, 32), _rand_feats(rng, 32)) for _ in range(2)]
        base, _ = _contrastive(params, batch)
        dup, _ = _contrastive(params, batch + [batch[0]])
        assert dup > base


def _contrastive_reference(params, batch, hard_negs):
    """The per-occurrence loss: every document occurrence encoded on its own
    and a Python loop over the queries' softmax rows."""
    n = len(batch)
    q_enc = _encoded(params, [q for q, _ in batch])
    d_enc = _encoded(params, [d for _, d in batch])
    offsets = np.cumsum([0] + [len(negs) for negs in hard_negs])
    neg_enc = _encoded(params, [f for negs in hard_negs for f in negs])
    tau = params.temperature
    s_in = q_enc.units @ d_enc.units.T
    loss_sum = 0.0
    gq = np.zeros_like(q_enc.units)
    gd = np.zeros_like(d_enc.units)
    gneg = np.zeros_like(neg_enc.units)
    for i in range(n):
        negs = neg_enc.units[offsets[i] : offsets[i + 1]]
        row = np.concatenate([s_in[i], q_enc.units[i] @ negs.T]) / tau
        m = float(row.max())
        p = np.exp(row - m)
        z = float(p.sum())
        loss_sum += m + np.log(z) - row[i]
        coef = p / z
        coef[i] -= 1.0
        coef /= n * tau
        gq[i] = coef[:n] @ d_enc.units + coef[n:] @ negs
        gd += coef[:n, None] * q_enc.units[i]
        gneg[offsets[i] : offsets[i + 1]] = coef[n:, None] * q_enc.units[i]
    grads = merge_grads(
        [
            *encoder._backprop(neg_enc, gneg),
            *encoder._backprop(q_enc, gq),
            *encoder._backprop(d_enc, gd),
        ],
        params.W.shape,
    )
    return loss_sum / n, grads


def _repeated_docs_instance(rng, vocab, neg_counts, fresh):
    """Pairs whose documents repeat as positives and hard negatives.

    Pairs 0 and 1 share a positive, pair 2's positive is also query 0's
    first negative, and one extra document is a negative of every query
    that has two or more. With fresh=True every repeat is an equal but
    distinct object.
    """
    n = len(neg_counts)

    def again(f):
        if not fresh:
            return f
        return FeatureRows(f.indptr.copy(), f.ids.copy(), f.weights.copy())

    batch = [(_rand_feats(rng, vocab), _rand_feats(rng, vocab)) for _ in range(n)]
    batch[1] = (batch[1][0], again(batch[0][1]))
    shared = _rand_feats(rng, vocab)
    negs = []
    for h in neg_counts:
        per = [_rand_feats(rng, vocab) for _ in range(h)]
        if h >= 2:
            per[1] = again(shared)
        negs.append(per)
    if neg_counts[0]:
        negs[0][0] = again(batch[2][1])
    return batch, negs


def _occurrence_tables(batch, hard_negs):
    """Like _tables, but every document occurrence is a docs row of its own,
    so repeated documents are distinct rows with equal features."""
    n = len(batch)
    counts = [len(per) for per in hard_negs]
    negs = np.full((n, max(counts)), -1)
    live = np.arange(max(counts)) < np.array(counts)[:, None]
    negs[live] = n + np.arange(sum(counts))
    docs = [d for _, d in batch] + [f for per in hard_negs for f in per]
    queries = feature_rows([q for q, _ in batch])
    return queries, feature_rows(docs), np.arange(n), np.arange(n), negs


class TestContrastiveDistinctDocuments:
    @pytest.mark.parametrize("layout", [_tables, _occurrence_tables])
    @pytest.mark.parametrize("tau", [0.05, 0.7])
    @pytest.mark.parametrize(
        "neg_counts", [(0, 1, 3, 2), (0, 0, 0, 0), (1, 1, 1, 1), (3, 3, 0, 2)]
    )
    def test_matches_per_occurrence_reference(self, neg_counts, tau, layout):
        # _tables repeats a docs row wherever a document repeats;
        # _occurrence_tables gives each repeat a row of equal features
        rng = np.random.default_rng(31)
        params = replace(init_params(24, 6, tau, rng), version=1)
        batch, negs = _repeated_docs_instance(rng, 24, neg_counts, fresh=False)
        loss, grads = contrastive_loss(params, *layout(batch, negs))
        ref_loss, ref_grads = _contrastive_reference(params, batch, negs)
        assert loss == pytest.approx(ref_loss, rel=0, abs=1e-12)
        np.testing.assert_array_equal(grads.rows, ref_grads.rows)
        np.testing.assert_allclose(grads.values, ref_grads.values, rtol=0, atol=1e-12)

    def test_equal_objects_give_identical_results(self):
        # the loss depends on its inputs' values, not on which objects hold
        # them: repeats as shared objects and as fresh copies agree bitwise
        params = replace(init_params(24, 6, 0.05, np.random.default_rng(32)), version=1)
        shared = _repeated_docs_instance(
            np.random.default_rng(33), 24, (2, 3, 1, 2), fresh=False
        )
        fresh = _repeated_docs_instance(
            np.random.default_rng(33), 24, (2, 3, 1, 2), fresh=True
        )

        def values(instance):
            batch, negs = instance
            return [[_value(f) for f in pair] for pair in batch], [
                [_value(f) for f in per] for per in negs
            ]

        assert values(fresh) == values(shared)
        assert fresh[0][1][1] is not fresh[0][0][1]
        loss_a, grads_a = _contrastive(params, *shared)
        loss_b, grads_b = _contrastive(params, *fresh)
        assert np.array_equal(loss_a, loss_b)
        np.testing.assert_array_equal(grads_a.rows, grads_b.rows)
        np.testing.assert_array_equal(grads_a.values, grads_b.values)

    @staticmethod
    def _encoded_selections(monkeypatch, params, tables):
        selections = []
        real = encoder._weight_blocks

        def spy(table, sel, vocab_size):
            selections.append(np.array(sel))
            return real(table, sel, vocab_size)

        monkeypatch.setattr(encoder, "_weight_blocks", spy)
        contrastive_loss(params, *tables)
        return selections

    def test_encodes_each_distinct_row_once(self, monkeypatch):
        # rows repeat as positives and negatives; equal features in two
        # rows are two inputs
        params = replace(init_params(24, 6, 0.05, np.random.default_rng(34)), version=1)
        rng = np.random.default_rng(35)
        feats = [_rand_feats(rng, 24) for _ in range(6)]
        feats[5] = replace(feats[0])
        docs = feature_rows(feats)
        queries = feature_rows([_rand_feats(rng, 24) for _ in range(4)])
        pos = [3, 0, 3, 5]
        negs = [[0, 1], [2, -1], [1, 3], [-1, -1]]
        q_sel, doc_sel = self._encoded_selections(
            monkeypatch, params, (queries, docs, [2, 0, 1, 3], pos, negs)
        )
        assert q_sel.tolist() == [2, 0, 1, 3]
        # distinct rows in first-occurrence order: positives, then the live
        # negatives row by row
        assert doc_sel.tolist() == [3, 0, 5, 1, 2]

    def test_first_occurrence_order_on_a_large_batch(self, monkeypatch):
        rng = np.random.default_rng(36)
        params = replace(init_params(64, 6, 0.05, rng), version=1)
        docs = feature_rows([_rand_feats(rng, 64) for _ in range(50)])
        queries = feature_rows([_rand_feats(rng, 64) for _ in range(40)])
        pos = rng.integers(0, 50, size=40)
        negs = rng.integers(-1, 50, size=(40, 3))
        _, doc_sel = self._encoded_selections(
            monkeypatch, params, (queries, docs, np.arange(40), pos, negs)
        )
        seen = []
        for row in np.concatenate([pos, negs[negs >= 0]]).tolist():
            if row not in seen:
                seen.append(row)
        assert doc_sel.tolist() == seen


def _distill_reference(new, old, batch):
    """The distillation loss with every target encoded on its own."""
    n = len(batch)
    texts = [q for q, _ in batch] + [d for _, d in batch]
    enc = _encoded(new, texts)
    targets = np.array([encode(old, f) for f in texts])
    loss = float(np.sum(1.0 - np.einsum("ij,ij->i", enc.units, targets)) / n)
    grads = merge_grads(encoder._backprop(enc, -targets / n), new.W.shape)
    return loss, grads


class TestDistillLoss:
    def test_table_rows_match_per_item_reference(self):
        # the batch is a shuffled selection of table rows, one row twice
        rng = np.random.default_rng(37)
        new = init_params(32, 8, 0.5, rng)
        old = init_params(32, 8, 0.5, rng)
        qfeats = [_rand_feats(rng, 32) for _ in range(6)]
        dfeats = [_rand_feats(rng, 32) for _ in range(9)]
        q_rows, d_rows = np.array([4, 0, 2, 4, 5]), np.array([8, 1, 1, 3, 0])
        batch = [(qfeats[i], dfeats[j]) for i, j in zip(q_rows, d_rows)]
        queries, docs = feature_rows(qfeats), feature_rows(dfeats)
        q_old = encode_batch(old, queries)[q_rows]
        d_old = encode_batch(old, docs)[d_rows]
        loss, grads = distill_loss(new, queries, docs, q_rows, d_rows, q_old, d_old)
        ref_loss, ref_grads = _distill_reference(new, old, batch)
        assert loss == pytest.approx(ref_loss, rel=0, abs=1e-12)
        np.testing.assert_array_equal(grads.rows, ref_grads.rows)
        np.testing.assert_allclose(grads.values, ref_grads.values, rtol=0, atol=1e-12)

    def test_misaligned_rows_rejected(self):
        rng = np.random.default_rng(38)
        params = init_params(16, 4, 0.5, rng)
        table = feature_rows([_rand_feats(rng, 16) for _ in range(3)])
        targets = np.zeros((2, 4))
        with pytest.raises(ValueError):
            distill_loss(params, table, table, [0, 1], [0], targets, targets[:1])

    def test_identical_encoders_zero_loss_zero_gradient(self):
        rng = np.random.default_rng(3)
        params = init_params(16, 4, 0.5, rng)
        batch = [(_rand_feats(rng, 16), _rand_feats(rng, 16)) for _ in range(3)]
        loss, grads = _distill(params, params, batch)
        assert abs(loss) <= 1e-12
        np.testing.assert_allclose(grads.values, 0.0, rtol=0, atol=1e-12)

    def test_orthogonal_encoders_loss_two(self):
        w_new = np.tile(np.array([1.0, 0.0]), (5, 1))
        w_old = np.tile(np.array([0.0, 1.0]), (5, 1))
        new = EncoderParams(W=w_new, vocab_size=5, dim=2, temperature=0.5)
        old = EncoderParams(W=w_old, vocab_size=5, dim=2, temperature=0.5)
        batch = [(_feats((0, 1), (2, 1)), _feats((3, 2),))]
        loss, _ = _distill(new, old, batch)
        assert loss == pytest.approx(2.0, abs=1e-12)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            new = init_params(16, 4, 0.5, rng)
            old = init_params(16, 4, 0.5, rng)
            batch = [
                (_rand_feats(rng, 16), _rand_feats(rng, 16)) for _ in range(3)
            ]
            loss, _ = _distill(new, old, batch)
            assert loss >= -1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        new = init_params(16, 4, 0.5, rng)
        old = init_params(16, 4, 0.5, rng)
        batch = [(_rand_feats(rng, 16), _rand_feats(rng, 16)) for _ in range(3)]

        def evaluate(p):
            return _distill(p, old, batch)

        touched = set()
        for q, d in batch:
            touched.update(q.ids.tolist())
            touched.update(d.ids.tolist())
        analytic = evaluate(new)[1].dense(16)
        numeric = _fd_gradient(evaluate, new, touched, 4)
        assert _max_rel_error(analytic, numeric) <= 1e-4

    def test_degenerate_pair_passes_relative_error_guard(self):
        # both gradients are numerically zero; the guard treats that as
        # agreement instead of dividing noise by noise
        rng = np.random.default_rng(10)
        params = init_params(16, 4, 0.5, rng)
        batch = [(_rand_feats(rng, 16), _rand_feats(rng, 16)) for _ in range(3)]

        def evaluate(p):
            return _distill(p, params, batch)

        touched = set()
        for q, d in batch:
            touched.update(q.ids.tolist())
            touched.update(d.ids.tolist())
        analytic = evaluate(params)[1].dense(16)
        numeric = _fd_gradient(evaluate, params, touched, 4)
        assert _max_rel_error(analytic, numeric) <= 1e-4

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        new = init_params(16, 4, 0.5, rng)
        old = init_params(16, 8, 0.5, rng)
        with pytest.raises(ShapeMismatchError):
            _distill(new, old, [(_feats((1, 1)), _feats((2, 1)))])

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(11)
        params = init_params(16, 4, 0.5, rng)
        with pytest.raises(EmptyBatchError):
            _distill(params, params, [])


class TestFusedDistillation:
    """contrastive_loss with targets, the one pass a KD step makes."""

    @pytest.mark.parametrize("layout", [_tables, _occurrence_tables])
    @pytest.mark.parametrize("tau", [0.05, 0.7])
    @pytest.mark.parametrize("neg_counts", [(0, 1, 3, 2), (3, 3, 0, 2), (0, 0, 0, 0)])
    def test_equals_the_two_losses_merged(self, neg_counts, tau, layout):
        # pairs 0 and 1 share a positive, pair 2's positive is query 0's
        # first negative, and queries with fewer negatives pad with -1
        rng = np.random.default_rng(51)
        new = replace(init_params(24, 6, tau, rng), version=1)
        old = init_params(24, 6, tau, rng)
        batch, negs = _repeated_docs_instance(rng, 24, neg_counts, fresh=False)
        queries, docs, q_rows, pos, neg_rows = layout(batch, negs)
        # a shuffled selection of rows, as training draws its batches
        sel = rng.permutation(len(batch))
        q_rows, pos, neg_rows = q_rows[sel], np.asarray(pos)[sel], neg_rows[sel]
        q_old = encode_batch(old, queries)[q_rows]
        d_old = encode_batch(old, docs)[pos]
        batch_rows = (queries, docs, q_rows, pos, neg_rows)
        loss, grads = contrastive_loss(new, *batch_rows, targets=(q_old, d_old))
        c_loss, c_grads = contrastive_loss(new, *batch_rows)
        d_loss, d_grads = distill_loss(new, queries, docs, q_rows, pos, q_old, d_old)
        merged = merge_grads([c_grads, d_grads], new.W.shape)
        assert loss == pytest.approx(c_loss + d_loss, rel=0, abs=1e-12)
        np.testing.assert_array_equal(grads.rows, merged.rows)
        np.testing.assert_allclose(grads.values, merged.values, rtol=0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(52)
        new = replace(init_params(16, 4, 0.7, rng), version=1)
        old = init_params(16, 4, 0.7, rng)
        batch, negs = _repeated_docs_instance(rng, 16, (2, 0, 1), fresh=False)

        def evaluate(p):
            return _fused(p, old, batch, negs)

        touched = {
            i
            for f in [f for pair in batch for f in pair] + sum(negs, [])
            for i in f.ids.tolist()
        }
        analytic = evaluate(new)[1].dense(16)
        numeric = _fd_gradient(evaluate, new, touched, 4)
        assert _max_rel_error(analytic, numeric) <= 1e-4

    @pytest.mark.parametrize("q_shape, d_shape", [((3, 4), (2, 4)), ((2, 8), (2, 8))])
    def test_target_shape_mismatch_rejected(self, q_shape, d_shape):
        rng = np.random.default_rng(53)
        params = init_params(16, 4, 0.5, rng)
        batch = [(_rand_feats(rng, 16), _rand_feats(rng, 16)) for _ in range(2)]
        targets = (np.zeros(q_shape), np.zeros(d_shape))
        with pytest.raises(ShapeMismatchError):
            contrastive_loss(params, *_tables(batch), targets=targets)


class TestScaleInvariance:
    # training evaluates the losses at v, where W = scale * v
    @pytest.mark.parametrize("c", [0.5, 3.0])
    @pytest.mark.parametrize("kind", ["contrastive", "distill", "fused"])
    def test_loss_unchanged_and_gradient_divided(self, kind, c):
        rng = np.random.default_rng(31)
        params = init_params(32, 8, 0.5, rng)
        old = init_params(32, 8, 0.5, rng)
        batch = [(_rand_feats(rng, 32), _rand_feats(rng, 32)) for _ in range(4)]
        negs = [[_rand_feats(rng, 32) for _ in range(2)] for _ in range(4)]

        def evaluate(p):
            if kind == "contrastive":
                return _contrastive(p, batch, negs)
            if kind == "fused":
                return _fused(p, old, batch, negs)
            return _distill(p, old, batch)

        loss, grads = evaluate(params)
        loss_c, grads_c = evaluate(replace(params, W=c * params.W))
        assert loss_c == pytest.approx(loss, abs=1e-12)
        np.testing.assert_array_equal(grads_c.rows, grads.rows)
        np.testing.assert_allclose(
            grads_c.values, grads.values / c, rtol=0, atol=1e-12
        )


class TestMergeGrads:
    def test_overlapping_blocks_sum_in_order(self):
        rng = np.random.default_rng(4)
        parts = [
            (np.array([5, 2, 9]), rng.normal(size=(3, 4))),
            (np.array([9, 0]), rng.normal(size=(2, 4))),
            (np.array([], dtype=np.intp), np.zeros((0, 4))),
            (np.array([2]), rng.normal(size=(1, 4))),
        ]
        merged = merge_grads(parts, (12, 4))
        np.testing.assert_array_equal(merged.rows, [0, 2, 5, 9])
        expected = np.zeros((12, 4))
        for rows, block in parts:
            expected[rows] += block
        assert np.array_equal(merged.dense(12), expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_the_sequential_sum_bit_for_bit(self, seed):
        # random overlapping parts, as the blocks of a batch are: each row
        # must start at zero and add its parts in the order given
        rng = np.random.default_rng(seed)
        parts = []
        for _ in range(int(rng.integers(1, 30))):
            rows = rng.choice(200, size=int(rng.integers(0, 60)), replace=False)
            parts.append((rows.astype(np.int32), rng.normal(size=(len(rows), 8))))
        merged = merge_grads(parts, (200, 8))
        expected = np.zeros((200, 8))
        for rows, block in parts:
            expected[rows] += block
        touched = np.unique(np.concatenate([r for r, _ in parts]))
        np.testing.assert_array_equal(merged.rows, touched)
        assert merged.values.tobytes() == expected[touched].tobytes()

    def test_no_parts_is_an_empty_gradient(self):
        merged = merge_grads([], (12, 4))
        assert merged.rows.shape == (0,) and merged.values.shape == (0, 4)

    def test_loss_gradient_rows_are_the_batch_ids(self):
        rng = np.random.default_rng(14)
        params = init_params(64, 4, 0.5, rng)
        batch = [(_rand_feats(rng, 64), _rand_feats(rng, 64)) for _ in range(3)]
        negs = [[_rand_feats(rng, 64)] for _ in range(3)]
        ids = {i for pair in batch for f in pair for i in f.ids.tolist()}
        _, grads = _distill(params, init_params(64, 4, 0.5, rng), batch)
        assert grads.rows.tolist() == sorted(ids)
        ids.update(i for per in negs for f in per for i in f.ids.tolist())
        _, grads = _contrastive(params, batch, negs)
        assert grads.rows.tolist() == sorted(ids)
        assert grads.values.shape == (len(ids), 4)


def _row_grad(rows, values) -> RowGrad:
    return RowGrad(np.asarray(rows, dtype=np.intp), np.asarray(values, float))


class TestSgdStep:
    def test_zero_gradient_zero_decay_identity(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(8, 4))
        before = v.copy()
        grads = _row_grad(range(8), np.zeros((8, 4)))
        assert sgd_step(v, 1.0, grads, lr=0.3, wd=0.0) == 1.0
        np.testing.assert_array_equal(v, before)

    def test_scalar_update(self):
        v = np.array([[1.0]])
        assert sgd_step(v, 1.0, _row_grad([0], [[0.5]]), lr=1.0, wd=0.0) == 1.0
        assert v[0, 0] == 0.5

    def test_decoupled_decay(self):
        v = np.array([[1.0], [2.0]])
        scale = sgd_step(v, 1.0, _row_grad([0], [[0.0]]), lr=0.1, wd=0.01)
        assert scale == pytest.approx(0.999, abs=1e-12)
        np.testing.assert_array_equal(v, [[1.0], [2.0]])

    def test_writes_only_the_gradient_rows(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=(10, 3))
        before = v.copy()
        grads = _row_grad([1, 4, 7], rng.normal(size=(3, 3)))
        values = grads.values.copy()
        sgd_step(v, 0.8, grads, lr=0.5, wd=0.01)
        untouched = [0, 2, 3, 5, 6, 8, 9]
        np.testing.assert_array_equal(v[untouched], before[untouched])
        assert not np.any(v[[1, 4, 7]] == before[[1, 4, 7]])
        np.testing.assert_array_equal(grads.values, values)

    def test_lr_zero_is_bitwise_identity(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=(8, 4))
        before = v.copy()
        grads = _row_grad(range(8), rng.normal(size=(8, 4)))
        assert sgd_step(v, 0.7, grads, lr=0.0, wd=0.01) == 0.7
        np.testing.assert_array_equal(v, before)

    def test_shape_mismatch_rejected(self):
        v = np.zeros((8, 4))
        with pytest.raises(ShapeMismatchError):
            sgd_step(v, 1.0, _row_grad([0, 1], np.zeros((2, 3))), lr=0.1, wd=0.0)
        with pytest.raises(ShapeMismatchError):
            sgd_step(v, 1.0, _row_grad([8], np.zeros((1, 4))), lr=0.1, wd=0.0)

    @pytest.mark.parametrize("lr, wd", [(1.0, 1.0), (10.0, 0.5)])
    def test_decay_that_zeroes_or_flips_weights_rejected(self, lr, wd):
        v = np.ones((2, 2))
        with pytest.raises(ValueError):
            sgd_step(v, 1.0, _row_grad([0], np.zeros((1, 2))), lr=lr, wd=wd)

    def test_non_positive_scale_rejected(self):
        v = np.ones((2, 2))
        with pytest.raises(ValueError):
            sgd_step(v, 0.0, _row_grad([0], np.zeros((1, 2))), lr=0.1, wd=0.0)

    def test_non_finite_result_rejected(self):
        v = np.ones((8, 4))
        with pytest.raises(NonFiniteError):
            sgd_step(v, 1.0, _row_grad([3], np.full((1, 4), np.inf)), 0.1, 0.0)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_step_rejected(self):
        v = np.full((3, 2), 1e308)
        grads = _row_grad(range(3), np.full((3, 2), -1e308))
        with pytest.raises(NonFiniteError):
            sgd_step(v, 1.0, grads, lr=1.0, wd=0.0)

    def test_lazy_steps_match_dense_recursion(self):
        # W = scale * v must follow W <- W - lr*g - (lr*wd)*W when each step
        # gets the gradient at v, which is scale * g for these losses
        rng = np.random.default_rng(3)
        vocab, dim, lr, wd = 40, 8, 0.5, 0.2
        w = rng.normal(size=(vocab, dim))
        v, scale = w.copy(), 1.0
        for _ in range(60):
            size = int(rng.integers(1, 12))
            rows = np.sort(rng.choice(vocab, size=size, replace=False))
            g = np.zeros_like(w)
            g[rows] = rng.normal(size=(len(rows), dim))
            scale = sgd_step(v, scale, RowGrad(rows, scale * g[rows]), lr, wd)
            w = w - lr * g - (lr * wd) * w
        assert scale < 0.01
        np.testing.assert_allclose(
            scale * v, w, rtol=0, atol=1e-12 * np.abs(w).max()
        )


class TestGradCheck:
    def test_contrastive_seed_zero(self):
        assert grad_check("contrastive", 0) <= 1e-4

    def test_distill_seed_zero(self):
        assert grad_check("distill", 0) <= 1e-4

    def test_a_few_consecutive_seeds(self):
        for seed in range(3):
            assert grad_check("contrastive", seed) <= 1e-4
            assert grad_check("distill", seed) <= 1e-4

    def test_contrastive_instance_repeats_documents(self, monkeypatch):
        # one docs row twice among the positives, and two rows with equal
        # features, so shared rows must sum their gradients
        seen = []
        real = encoder.contrastive_loss

        def spy(params, queries, docs, q_rows, pos_rows, neg_rows):
            seen.append((docs, np.asarray(pos_rows), np.asarray(neg_rows)))
            return real(params, queries, docs, q_rows, pos_rows, neg_rows)

        monkeypatch.setattr(encoder, "contrastive_loss", spy)
        assert grad_check("contrastive", 0, max_coords=1) <= 1e-4
        docs, pos, negs = seen[0]
        used = np.concatenate([pos, negs[negs >= 0]])
        assert len(np.unique(pos)) < len(pos)
        rows = {
            r: (
                docs.ids[docs.indptr[r] : docs.indptr[r + 1]].tobytes(),
                docs.weights[docs.indptr[r] : docs.indptr[r + 1]].tobytes(),
            )
            for r in np.unique(used).tolist()
        }
        assert len(set(rows.values())) < len(rows)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            grad_check("ranking", 0)


class TestSnapshots:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        params = replace(init_params(32, 8, 0.07, rng), version=3)
        path = tmp_path / "enc.bin"
        save_snapshot(params, path)
        loaded = load_snapshot(path)
        np.testing.assert_array_equal(loaded.W, params.W)
        assert (loaded.vocab_size, loaded.dim) == (32, 8)
        assert loaded.temperature == 0.07
        assert loaded.version == 3
        second = tmp_path / "enc2.bin"
        save_snapshot(loaded, second)
        assert second.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_file_is_magic_header_then_weights(self, tmp_path, order):
        rng = np.random.default_rng(25)
        params = replace(init_params(32, 8, 0.07, rng), version=3)
        params = replace(params, W=np.asarray(params.W, order=order))
        path = tmp_path / "enc.bin"
        save_snapshot(params, path)
        header = struct.pack("<IIdI", 32, 8, 0.07, 3)
        assert path.read_bytes() == (
            SNAPSHOT_MAGIC + header + params.W.astype("<f8").tobytes()
        )
        w = load_snapshot(path).W
        assert w.dtype == np.float64 and w.flags.c_contiguous and w.flags.writeable

    def test_bad_magic_rejected(self, tmp_path):
        rng = np.random.default_rng(22)
        path = tmp_path / "enc.bin"
        save_snapshot(init_params(8, 4, 0.5, rng), path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptSnapshotError):
            load_snapshot(path)

    def test_truncated_payload_rejected(self, tmp_path):
        rng = np.random.default_rng(23)
        path = tmp_path / "enc.bin"
        save_snapshot(init_params(8, 4, 0.5, rng), path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(CorruptSnapshotError):
            load_snapshot(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(24)
        path = tmp_path / "enc.bin"
        save_snapshot(init_params(8, 4, 0.5, rng), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CorruptSnapshotError):
            load_snapshot(path)

    def test_non_finite_weights_rejected(self, tmp_path):
        params = EncoderParams(
            W=np.array([[1.0, np.nan]]), vocab_size=1, dim=2, temperature=0.5
        )
        path = tmp_path / "enc.bin"
        save_snapshot(params, path)
        with pytest.raises(CorruptSnapshotError):
            load_snapshot(path)
