import math
from dataclasses import replace

import numpy as np
import pytest

from qdc import encoder
from qdc.encoder import (
    _BLOCK_ROWS,
    _MAX_WEIGHTS,
    _SGD_ROWS,
    DEFAULT_VOCAB,
    EncoderParams,
    TokenFeatures,
    contrastive_loss,
    distill_loss,
    encode,
    encode_batch,
    fnv1a64,
    grad_check,
    init_params,
    load_snapshot,
    save_snapshot,
    sgd_step,
    tokenize,
)
from qdc.errors import (
    CorruptSnapshotError,
    EmptyBatchError,
    NonFiniteError,
    ShapeMismatchError,
    ZeroVectorError,
)


def _fnv64_reference(data: bytes) -> int:
    # independent implementation of the published 64-bit FNV-1a parameters
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) % (1 << 64)
    return h


def _feats(*pairs) -> TokenFeatures:
    indices = tuple(i for i, _ in pairs)
    counts = tuple(c for _, c in pairs)
    return TokenFeatures(indices=indices, counts=counts, total=sum(counts))


def _rand_feats(rng, vocab):
    m = int(rng.integers(2, 6))
    idx = np.sort(rng.choice(vocab, size=m, replace=False))
    cnt = rng.integers(1, 4, size=m)
    return TokenFeatures(
        indices=tuple(int(i) for i in idx),
        counts=tuple(int(c) for c in cnt),
        total=int(cnt.sum()),
    )


class TestTokenize:
    def test_empty_text_reserved_token(self):
        assert tokenize("") == TokenFeatures(indices=(0,), counts=(1,), total=1)

    def test_repeated_token_counted_once(self):
        feats = tokenize("hello hello")
        assert len(feats.indices) == 1
        assert feats.counts == (2,)
        assert feats.total == 2

    def test_ids_match_fnv_reference(self):
        feats = tokenize("Magnesium, beans!", vocab_size=DEFAULT_VOCAB)
        expected = sorted(
            _fnv64_reference(w.encode()) % DEFAULT_VOCAB
            for w in ("magnesium", "beans")
        )
        assert list(feats.indices) == expected
        assert feats.counts == (1, 1)
        assert feats.total == 2

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
            assert all(0 <= i < 97 for i in feats.indices)
            assert feats.total == n

    def test_punctuation_and_case_folding(self):
        assert tokenize("Foo.BAR foo bar") == tokenize("foo bar foo bar")


class TestTokenFeaturesInvariants:
    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValueError):
            TokenFeatures(indices=(3, 1), counts=(1, 1), total=2)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            TokenFeatures(indices=(1,), counts=(0,), total=0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TokenFeatures(indices=(), counts=(), total=0)

    def test_rejects_total_mismatch(self):
        with pytest.raises(ValueError):
            TokenFeatures(indices=(1, 2), counts=(1, 1), total=3)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            TokenFeatures(indices=(-1,), counts=(1,), total=1)


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
        feats = tokenize("drift compensation query embedding drift", 32)
        idx = np.asarray(feats.indices)
        cnt = np.asarray(feats.counts, dtype=np.float64)
        raw = (cnt @ params.W[idx]) / feats.total
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
        batch = encode_batch(params, feats)
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
        batch = encode_batch(params, feats)
        expected = np.array([encode(params, f) for f in feats])
        np.testing.assert_allclose(batch, expected, rtol=0, atol=1e-12)

        linear = replace(params, linear_output=True)
        raw = np.array(
            [
                np.asarray(f.counts, dtype=np.float64) @ params.W[list(f.indices)]
                / f.total
                for f in feats
            ]
        )
        np.testing.assert_allclose(
            encode_batch(linear, feats), raw, rtol=0, atol=1e-12
        )

    def test_weight_blocks_bounded_and_tile_the_batch(self):
        # a large vocabulary: 1,000 inputs of 40-80 mostly distinct ids;
        # one block over all of them would be 1,000 x ~30,000 entries
        rng = np.random.default_rng(16)
        feats = []
        for _ in range(1000):
            idx = np.sort(rng.choice(DEFAULT_VOCAB, int(rng.integers(40, 81)), False))
            feats.append(
                TokenFeatures(tuple(int(i) for i in idx), (1,) * len(idx), len(idx))
            )
        lo = 0
        for start, rows, x in encoder._weight_blocks(feats, DEFAULT_VOCAB):
            nonzeros = sum(len(f.indices) for f in feats[start : start + len(x)])
            assert start == lo and x.shape[1] == len(rows)
            assert x.size <= min(_MAX_WEIGHTS, _BLOCK_ROWS * nonzeros)
            lo += len(x)
        assert lo == len(feats)

    def test_large_vocab_shrinks_blocks(self, monkeypatch):
        # at most _MAX_WEIGHTS // vocab inputs per block, and never zero
        monkeypatch.setattr(encoder, "_MAX_WEIGHTS", 16)
        feats = [_feats((1, 1), (2, 1), (3, 1)), _feats((4, 2)), _feats((5, 1))]
        assert [len(x) for _, _, x in encoder._weight_blocks(feats, 8)] == [2, 1]
        assert [len(x) for _, _, x in encoder._weight_blocks(feats, 32)] == [1, 1, 1]

    def test_empty_batch_encodes_to_no_rows(self):
        rng = np.random.default_rng(15)
        params = init_params(16, 4, 0.5, rng)
        assert encode_batch(params, []).shape == (0, 4)

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

    def test_batch_token_id_out_of_vocab_rejected(self):
        params = EncoderParams(
            W=np.eye(4), vocab_size=4, dim=4, temperature=0.5
        )
        with pytest.raises(ValueError):
            encode_batch(params, [_feats((1, 1)), _feats((2, 1), (7, 1))])
        with pytest.raises(ValueError):
            encode_batch(replace(params, linear_output=True), [_feats((4, 1))])

    def test_shape_mismatch_rejected_at_construction(self):
        with pytest.raises(ShapeMismatchError):
            EncoderParams(W=np.eye(3), vocab_size=4, dim=3, temperature=0.5)


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
        loss, _ = contrastive_loss(params, [(_feats((1, 1)), _feats((1, 1)))])
        assert loss == 0.0

    def test_symmetric_two_pair_batch_is_ln_two(self):
        rng = np.random.default_rng(2)
        params = init_params(16, 4, 0.05, rng)
        f = _feats((2, 1), (5, 1))
        loss, _ = contrastive_loss(params, [(f, f), (f, f)])
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(2)
        params = init_params(16, 4, 0.5, rng)
        with pytest.raises(EmptyBatchError):
            contrastive_loss(params, [])

    def test_misaligned_hard_negatives_rejected(self):
        rng = np.random.default_rng(2)
        params = init_params(16, 4, 0.5, rng)
        batch = [(_rand_feats(rng, 16), _rand_feats(rng, 16))]
        with pytest.raises(ValueError):
            contrastive_loss(params, batch, hard_negs=[[], []])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        params = replace(init_params(16, 4, 0.7, rng), version=1)
        batch = [(_rand_feats(rng, 16), _rand_feats(rng, 16)) for _ in range(3)]
        negs = [[_rand_feats(rng, 16)] for _ in range(3)]

        def evaluate(p):
            return contrastive_loss(p, batch, negs)

        touched = set()
        for q, d in batch:
            touched.update(q.indices)
            touched.update(d.indices)
        for per in negs:
            touched.update(per[0].indices)
        _, analytic = evaluate(params)
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
            return contrastive_loss(p, batch, negs)

        touched = set()
        for q, d in batch:
            touched.update(q.indices)
            touched.update(d.indices)
        for per in negs:
            for f in per:
                touched.update(f.indices)
        _, analytic = evaluate(params)
        numeric = _fd_gradient(evaluate, params, touched, 4)
        assert _max_rel_error(analytic, numeric) <= 1e-4

    def test_loss_over_many_small_blocks(self, monkeypatch):
        # two inputs per block: every batch spans blocks that share rows, so
        # their gradients must accumulate into the same rows of dW
        rng = np.random.default_rng(17)
        params = replace(init_params(16, 4, 0.7, rng), version=1)
        batch = [(_rand_feats(rng, 16), _rand_feats(rng, 16)) for _ in range(4)]
        negs = [[_rand_feats(rng, 16) for _ in range(h)] for h in (2, 0, 3, 1)]
        whole = contrastive_loss(params, batch, negs)
        monkeypatch.setattr(encoder, "_BLOCK_ROWS", 2)
        queries = [q for q, _ in batch]
        assert len(list(encoder._weight_blocks(queries, 16))) == 2

        def evaluate(p):
            return contrastive_loss(p, batch, negs)

        loss, analytic = evaluate(params)
        assert loss == pytest.approx(whole[0], abs=1e-12)
        np.testing.assert_allclose(analytic, whole[1], rtol=0, atol=1e-12)
        touched = {i for pair in batch for f in pair for i in f.indices}
        touched.update(i for per in negs for f in per for i in f.indices)
        numeric = _fd_gradient(evaluate, params, touched, 4)
        assert _max_rel_error(analytic, numeric) <= 1e-4

    def test_ragged_loss_matches_per_query_softmax(self):
        rng = np.random.default_rng(13)
        params = init_params(32, 8, 0.5, rng)
        batch = [(_rand_feats(rng, 32), _rand_feats(rng, 32)) for _ in range(3)]
        negs = [[_rand_feats(rng, 32) for _ in range(h)] for h in (3, 0, 1)]
        loss, _ = contrastive_loss(params, batch, negs)
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
        loss_a, grads_a = contrastive_loss(params, batch, negs)
        order = [3, 1, 4, 0, 2]
        loss_b, grads_b = contrastive_loss(
            params, [batch[i] for i in order], [negs[i] for i in order]
        )
        assert loss_b == pytest.approx(loss_a, abs=1e-9)
        np.testing.assert_allclose(grads_b, grads_a, rtol=0, atol=1e-9)

    def test_duplicated_pair_raises_loss(self):
        # the duplicate contributes a similarity-1 in-batch negative
        rng = np.random.default_rng(7)
        params = init_params(32, 8, 0.5, rng)
        batch = [(_rand_feats(rng, 32), _rand_feats(rng, 32)) for _ in range(2)]
        base, _ = contrastive_loss(params, batch)
        dup, _ = contrastive_loss(params, batch + [batch[0]])
        assert dup > base


class TestDistillLoss:
    def test_identical_encoders_zero_loss_zero_gradient(self):
        rng = np.random.default_rng(3)
        params = init_params(16, 4, 0.5, rng)
        batch = [(_rand_feats(rng, 16), _rand_feats(rng, 16)) for _ in range(3)]
        loss, grads = distill_loss(params, params, batch)
        assert abs(loss) <= 1e-12
        np.testing.assert_allclose(grads, 0.0, rtol=0, atol=1e-12)

    def test_orthogonal_encoders_loss_two(self):
        w_new = np.tile(np.array([1.0, 0.0]), (5, 1))
        w_old = np.tile(np.array([0.0, 1.0]), (5, 1))
        new = EncoderParams(W=w_new, vocab_size=5, dim=2, temperature=0.5)
        old = EncoderParams(W=w_old, vocab_size=5, dim=2, temperature=0.5)
        batch = [(_feats((0, 1), (2, 1)), _feats((3, 2),))]
        loss, _ = distill_loss(new, old, batch)
        assert loss == pytest.approx(2.0, abs=1e-12)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            new = init_params(16, 4, 0.5, rng)
            old = init_params(16, 4, 0.5, rng)
            batch = [
                (_rand_feats(rng, 16), _rand_feats(rng, 16)) for _ in range(3)
            ]
            loss, _ = distill_loss(new, old, batch)
            assert loss >= -1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        new = init_params(16, 4, 0.5, rng)
        old = init_params(16, 4, 0.5, rng)
        batch = [(_rand_feats(rng, 16), _rand_feats(rng, 16)) for _ in range(3)]

        def evaluate(p):
            return distill_loss(p, old, batch)

        touched = set()
        for q, d in batch:
            touched.update(q.indices)
            touched.update(d.indices)
        _, analytic = evaluate(new)
        numeric = _fd_gradient(evaluate, new, touched, 4)
        assert _max_rel_error(analytic, numeric) <= 1e-4

    def test_degenerate_pair_passes_relative_error_guard(self):
        # both gradients are numerically zero; the guard treats that as
        # agreement instead of dividing noise by noise
        rng = np.random.default_rng(10)
        params = init_params(16, 4, 0.5, rng)
        batch = [(_rand_feats(rng, 16), _rand_feats(rng, 16)) for _ in range(3)]

        def evaluate(p):
            return distill_loss(p, params, batch)

        touched = set()
        for q, d in batch:
            touched.update(q.indices)
            touched.update(d.indices)
        _, analytic = evaluate(params)
        numeric = _fd_gradient(evaluate, params, touched, 4)
        assert _max_rel_error(analytic, numeric) <= 1e-4

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        new = init_params(16, 4, 0.5, rng)
        old = init_params(16, 8, 0.5, rng)
        with pytest.raises(ShapeMismatchError):
            distill_loss(new, old, [(_feats((1, 1)), _feats((2, 1)))])

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(11)
        params = init_params(16, 4, 0.5, rng)
        with pytest.raises(EmptyBatchError):
            distill_loss(params, params, [])


class TestSgdStep:
    def test_zero_gradient_zero_decay_identity(self):
        rng = np.random.default_rng(1)
        params = init_params(8, 4, 0.5, rng)
        out = sgd_step(params, np.zeros((8, 4)), lr=0.3, wd=0.0)
        np.testing.assert_array_equal(out.W, params.W)

    def test_scalar_update(self):
        params = EncoderParams(
            W=np.array([[1.0]]), vocab_size=1, dim=1, temperature=0.5
        )
        out = sgd_step(params, np.array([[0.5]]), lr=1.0, wd=0.0)
        assert out.W[0, 0] == 0.5

    def test_decoupled_decay(self):
        params = EncoderParams(
            W=np.array([[1.0]]), vocab_size=1, dim=1, temperature=0.5
        )
        out = sgd_step(params, np.array([[0.0]]), lr=0.1, wd=0.01)
        assert out.W[0, 0] == pytest.approx(0.999, abs=1e-12)

    def test_lr_zero_is_bitwise_identity(self):
        rng = np.random.default_rng(2)
        params = init_params(8, 4, 0.5, rng)
        grads = rng.normal(size=(8, 4))
        out = sgd_step(params, grads, lr=0.0, wd=0.01)
        np.testing.assert_array_equal(out.W, params.W)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        params = init_params(8, 4, 0.5, rng)
        with pytest.raises(ShapeMismatchError):
            sgd_step(params, np.zeros((4, 4)), lr=0.1, wd=0.0)

    def test_non_finite_result_rejected(self):
        rng = np.random.default_rng(2)
        params = init_params(8, 4, 0.5, rng)
        grads = np.full((8, 4), np.inf)
        with pytest.raises(NonFiniteError):
            sgd_step(params, grads, lr=0.1, wd=0.0)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_step_rejected(self):
        params = EncoderParams(
            W=np.full((3, 2), 1e308), vocab_size=3, dim=2, temperature=0.5
        )
        with pytest.raises(NonFiniteError):
            sgd_step(params, np.full((3, 2), -1e308), lr=1.0, wd=0.0)

    def test_bit_identical_to_formula_and_inputs_untouched(self):
        # row blocks must not change a bit of W - lr*g - (lr*wd)*W, also
        # across block boundaries, and write only into the result
        rng = np.random.default_rng(3)
        params = init_params(2 * _SGD_ROWS + 37, 8, 0.5, rng)
        grads = rng.normal(size=params.W.shape)
        w_before, g_before = params.W.copy(), grads.copy()
        lr, wd = 0.5, 0.01
        out = sgd_step(params, grads, lr=lr, wd=wd)
        assert np.array_equal(
            out.W, params.W - lr * grads - (lr * wd) * params.W
        )
        assert np.array_equal(params.W, w_before)
        assert np.array_equal(grads, g_before)
        assert out.W is not params.W and out.W is not grads


class TestGradCheck:
    def test_contrastive_seed_zero(self):
        assert grad_check("contrastive", 0) <= 1e-4

    def test_distill_seed_zero(self):
        assert grad_check("distill", 0) <= 1e-4

    def test_a_few_consecutive_seeds(self):
        for seed in range(3):
            assert grad_check("contrastive", seed) <= 1e-4
            assert grad_check("distill", seed) <= 1e-4

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
