import json
from dataclasses import replace

import numpy as np
import pytest

from qdc import encoder
from qdc.drift import (
    DriftLedger,
    DriftVector,
    accumulate_drift,
    append_record,
    compensate_query,
    compensate_query_path,
    estimate_drift,
    ledger_from_dict,
    ledger_to_dict,
)
from qdc.encoder import (
    encode,
    encode_batch,
    feature_rows,
    init_params,
    tokenize_rows,
)
from qdc.errors import (
    CorruptLedgerError,
    DimMismatchError,
    EmptyQuerySetError,
    MissingTransitionError,
    NonFiniteError,
    ZeroVectorError,
)


def _feats(*pairs):
    """The one-row table of (id, count) pairs given in ascending id order."""
    ids, counts = zip(*pairs)
    return encoder._one_row(ids, np.array(counts) / sum(counts))


def _rand_feats(rng, vocab):
    m = int(rng.integers(2, 6))
    idx = np.sort(rng.choice(vocab, size=m, replace=False))
    cnt = rng.integers(1, 4, size=m)
    return encoder._one_row(idx, cnt / cnt.sum())


def _vec(values, from_task, to_task):
    return DriftVector(
        values=np.asarray(values, dtype=np.float64),
        from_task=from_task,
        to_task=to_task,
    )


class TestEstimateDrift:
    def test_identical_params_zero_drift(self):
        rng = np.random.default_rng(0)
        params = init_params(32, 8, 0.5, rng)
        queries = feature_rows([_rand_feats(rng, 32) for _ in range(5)])
        delta = estimate_drift(params, params, queries)
        np.testing.assert_array_equal(delta.values, np.zeros(8))

    def test_two_query_mean(self):
        # linear-output encoders with per-query drifts (1,0) and (0,1)
        w_old = np.zeros((2, 2))
        w_new = np.eye(2)
        old = replace(
            init_params(2, 2, 0.5, np.random.default_rng(0)),
            W=w_old, linear_output=True, version=1,
        )
        new = replace(old, W=w_new, version=2)
        delta = estimate_drift(
            new, old, feature_rows([_feats((0, 1)), _feats((1, 1))])
        )
        np.testing.assert_array_equal(delta.values, [0.5, 0.5])
        assert (delta.from_task, delta.to_task) == (1, 2)

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(0)
        old = replace(init_params(64, 8, 0.5, rng), version=1)
        new = replace(init_params(64, 8, 0.5, rng), version=2)
        queries = [_rand_feats(rng, 64) for _ in range(100)]
        delta = estimate_drift(new, old, feature_rows(queries))
        acc = np.zeros(8)
        for q in queries:
            acc = acc + (encode(new, q) - encode(old, q))
        np.testing.assert_allclose(delta.values, acc / 100, rtol=0, atol=1e-12)

    def test_one_column_sums_rows_first_to_last_bit_for_bit(self):
        # numpy's column sum adds a one-column matrix pairwise. Unit-norm
        # 1-d embeddings are +-1 and sum exactly in any order, so the
        # encoders here are linear-output.
        rng = np.random.default_rng(5)
        old = replace(init_params(64, 1, 0.5, rng), linear_output=True, version=1)
        new = replace(old, W=rng.normal(size=(64, 1)), version=2)
        queries = feature_rows([_rand_feats(rng, 64) for _ in range(500)])
        delta = estimate_drift(new, old, queries)
        acc = np.zeros(1)
        for row in encode_batch(new, queries) - encode_batch(old, queries):
            acc = acc + row
        assert delta.values.tobytes() == (acc / 500).tobytes()

    def test_empty_query_set_rejected(self):
        rng = np.random.default_rng(1)
        params = init_params(16, 4, 0.5, rng)
        with pytest.raises(EmptyQuerySetError):
            estimate_drift(params, params, [])

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(1)
        a = init_params(16, 4, 0.5, rng)
        b = init_params(16, 8, 0.5, rng)
        with pytest.raises(DimMismatchError):
            estimate_drift(a, b, _feats((1, 1)))


class TestLedgerRecords:
    def test_append_keeps_ledger_immutable(self):
        ledger = DriftLedger(dim=2)
        extended = append_record(ledger, _vec([1.0, 0.0], 1, 2))
        assert ledger.records == []
        assert len(extended.records) == 1

    def test_first_record_must_start_at_task_one(self):
        with pytest.raises(ValueError):
            append_record(DriftLedger(dim=2), _vec([1.0, 0.0], 2, 3))

    def test_record_must_span_one_transition(self):
        with pytest.raises(ValueError):
            append_record(DriftLedger(dim=2), _vec([1.0, 0.0], 1, 3))

    def test_contiguity_enforced(self):
        ledger = append_record(DriftLedger(dim=2), _vec([1.0, 0.0], 1, 2))
        with pytest.raises(ValueError):
            append_record(ledger, _vec([0.0, 1.0], 3, 4))

    def test_dim_checked(self):
        with pytest.raises(DimMismatchError):
            append_record(DriftLedger(dim=3), _vec([1.0, 0.0], 1, 2))

    def test_record_for_missing_transition(self):
        ledger = append_record(DriftLedger(dim=2), _vec([1.0, 0.0], 1, 2))
        with pytest.raises(MissingTransitionError):
            ledger.record_for(2)


class TestAccumulate:
    def _ledger(self):
        ledger = append_record(DriftLedger(dim=2), _vec([1.0, 0.0], 1, 2))
        return append_record(ledger, _vec([0.0, 1.0], 2, 3))

    def test_two_transition_sum(self):
        total = accumulate_drift(self._ledger(), 1, 3)
        np.testing.assert_array_equal(total.values, [1.0, 1.0])
        assert (total.from_task, total.to_task) == (1, 3)

    def test_additivity_within_tolerance(self):
        rng = np.random.default_rng(7)
        v1, v2 = rng.normal(size=(2, 16)) * 0.05
        ledger = append_record(DriftLedger(dim=16), _vec(v1, 1, 2))
        ledger = append_record(ledger, _vec(v2, 2, 3))
        total = accumulate_drift(ledger, 1, 3)
        assert np.max(np.abs(total.values - (v1 + v2))) <= 1e-15

    def test_empty_span_is_zero(self):
        total = accumulate_drift(self._ledger(), 2, 2)
        np.testing.assert_array_equal(total.values, [0.0, 0.0])

    def test_missing_transition(self):
        ledger = append_record(DriftLedger(dim=2), _vec([1.0, 0.0], 1, 2))
        with pytest.raises(MissingTransitionError):
            accumulate_drift(ledger, 1, 3)

    def test_reversed_span_rejected(self):
        with pytest.raises(ValueError):
            accumulate_drift(self._ledger(), 3, 1)


class TestCompensate:
    def test_zero_delta_is_bitwise_identity(self):
        q = np.array([0.25, -0.75, 0.5])
        out = compensate_query(q, _vec([0.0, 0.0, 0.0], 1, 2))
        np.testing.assert_array_equal(out, q)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            compensate_query(np.ones(3), _vec([1.0, 0.0], 1, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_query_rejected(self, bad):
        with pytest.raises(NonFiniteError):
            compensate_query(np.array([bad, 1.0, 0.0]), _vec([0.0] * 3, 1, 2))

    def test_non_finite_drift_rejected(self):
        with pytest.raises(NonFiniteError):
            compensate_query(np.ones((2, 2)), _vec([0.0, np.nan], 1, 2))

    def test_zero_result_rejected(self):
        q = np.array([0.5, 0.5])
        with pytest.raises(ZeroVectorError):
            compensate_query(q, _vec([0.5, 0.5], 1, 2))

    def test_huge_finite_query_has_no_overflow(self):
        # its squared norm overflows float64; RuntimeWarnings are errors here
        q = np.array([1e200, 1.0, 0.0])
        out = compensate_query(q, _vec([0.0] * 3, 1, 2))
        np.testing.assert_array_equal(out, q)

    def test_huge_query_compensated_to_zero_rejected(self):
        q = np.array([1e200, -1e200, 0.0])
        with pytest.raises(ZeroVectorError):
            compensate_query(q, _vec(q.tolist(), 1, 2))

    @pytest.mark.parametrize("shape", [(64,), (3, 64)])
    def test_tiny_entries_with_a_norm_above_eps_pass(self, shape):
        # every |entry| is 0.5e-12, below ZERO_NORM_EPS; the norm is 4e-12
        q = np.full(shape, 0.5e-12)
        out = compensate_query(q, _vec([0.0] * 64, 1, 2))
        np.testing.assert_array_equal(out, q)

    @pytest.mark.parametrize("shape", [(64,), (3, 64)])
    def test_norm_below_eps_rejected(self, shape):
        # a norm of 8e-14, alone or between two rows of ones
        q = np.full(shape, 1e-14)
        if q.ndim == 2:
            q[[0, 2]] = 1.0
        with pytest.raises(
            ZeroVectorError, match="^compensated query is numerically zero$"
        ):
            compensate_query(q, _vec([0.0] * 64, 1, 2))

    def test_translation_recovered_exactly(self):
        """Raw outputs shifted by a constant are undone by the estimate."""
        rng = np.random.default_rng(3)
        base = init_params(6, 3, 0.5, rng)
        old = replace(base, linear_output=True, version=1)
        c = np.array([0.3, -0.2, 0.5])
        new = replace(old, W=old.W + np.outer(np.ones(6), c), version=2)
        queries = [_rand_feats(rng, 6) for _ in range(20)]
        delta = estimate_drift(new, old, feature_rows(queries))
        assert np.max(np.abs(delta.values - c)) <= 1e-12
        for q in queries[:5]:
            recovered = compensate_query(encode(new, q), delta)
            np.testing.assert_allclose(
                recovered, encode(old, q), rtol=0, atol=1e-12
            )

    def test_compensation_beats_raw_queries_on_shipped_stream(
        self, bench_outcome
    ):
        _, trajectories, _ = bench_outcome
        checkpoints = trajectories[False]
        f1 = checkpoints[0].params
        final = checkpoints[-1]
        data = final.datasets[1]
        feats = tokenize_rows(
            [text for _, text in data.queries_test], f1.vocab_size
        )
        true_units = encode_batch(f1, feats)
        new_units = encode_batch(final.params, feats)
        comp = np.stack(
            [
                compensate_query_path(final.ledger, emb, 1, final.trained_through)
                for emb in new_units
            ]
        )

        def mean_cos(a, b):
            num = np.einsum("ij,ij->i", a, b)
            den = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
            return float(np.mean(num / den))

        assert mean_cos(comp, true_units) > mean_cos(new_units, true_units)


class TestCompensatePath:
    def test_single_records_match_accumulated_subtraction(self):
        rng = np.random.default_rng(8)
        v1, v2 = rng.normal(size=(2, 4)) * 0.1
        ledger = append_record(DriftLedger(dim=4), _vec(v1, 1, 2))
        ledger = append_record(ledger, _vec(v2, 2, 3))
        q = rng.normal(size=4)
        out = compensate_query_path(ledger, q, 1, 3)
        np.testing.assert_array_equal(out, q - (v1 + v2))

    def test_same_task_is_identity(self):
        ledger = append_record(DriftLedger(dim=2), _vec([0.1, 0.2], 1, 2))
        q = np.array([0.3, 0.4])
        np.testing.assert_array_equal(compensate_query_path(ledger, q, 2, 2), q)

    @staticmethod
    def _ledger(rng, transitions):
        """Random records for transitions 1, 2, ..., transitions."""
        ledger = DriftLedger(dim=4)
        for j in range(1, transitions + 1):
            ledger = append_record(ledger, _vec(rng.normal(size=4) * 0.1, j, j + 1))
        return ledger

    @pytest.mark.parametrize("transitions", [1, 3])
    def test_matrix_rows_equal_per_vector_calls(self, transitions):
        rng = np.random.default_rng(transitions)
        ledger = self._ledger(rng, transitions)
        queries = rng.normal(size=(9, 4))
        t = transitions + 1
        for t_prime in range(1, t + 1):
            out = compensate_query_path(ledger, queries, t_prime, t)
            assert out.shape == queries.shape
            for q, row in zip(queries, out):
                want = compensate_query_path(ledger, q, t_prime, t)
                assert row.tobytes() == want.tobytes()

    def test_matrix_leaves_queries_unchanged(self):
        rng = np.random.default_rng(10)
        queries = rng.normal(size=(5, 4))
        before = queries.copy()
        compensate_query_path(self._ledger(rng, 2), queries, 1, 3)
        np.testing.assert_array_equal(queries, before)

    def test_matrix_with_a_row_mapped_to_zero_rejected(self):
        rng = np.random.default_rng(11)
        ledger = self._ledger(rng, 1)
        queries = rng.normal(size=(4, 4))
        queries[2] = ledger.record_for(1).values
        with pytest.raises(ZeroVectorError):
            compensate_query_path(ledger, queries, 1, 2)

    def test_matrix_dim_mismatch_rejected(self):
        ledger = self._ledger(np.random.default_rng(12), 1)
        with pytest.raises(DimMismatchError):
            compensate_query_path(ledger, np.ones((3, 5)), 1, 2)


class TestLedgerPersistence:
    def _ledger(self):
        rng = np.random.default_rng(12)
        ledger = DriftLedger(dim=3)
        ledger = append_record(ledger, _vec(rng.normal(size=3), 1, 2))
        return append_record(ledger, _vec(rng.normal(size=3), 2, 3))

    def test_round_trip_exact(self):
        # through JSON text, as a run directory's ledger.json stores it
        ledger = self._ledger()
        loaded = ledger_from_dict(json.loads(json.dumps(ledger_to_dict(ledger))))
        assert loaded.dim == 3
        pairs = [
            (loaded.records[0].values, ledger.records[0].values),
            (loaded.records[1].values, ledger.records[1].values),
        ]
        for got, want in pairs:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_dict_round_trip(self):
        ledger = self._ledger()
        again = ledger_from_dict(ledger_to_dict(ledger))
        assert ledger_to_dict(again) == ledger_to_dict(ledger)

    def test_dict_holds_dim_and_records_only(self):
        for ledger in (DriftLedger(dim=3), self._ledger()):
            assert sorted(ledger_to_dict(ledger)) == ["dim", "records"]

    @pytest.mark.parametrize(
        "centroids",
        [
            {},
            {"1": [0.1, 0.2, 0.3], "2": [-0.4, 0.5, 0.6]},
            [[0.1, 0.2, 0.3]],
            {"1": [0.1]},
        ],
        ids=["empty", "vectors", "list", "wrong-dim"],
    )
    def test_older_payload_with_task_centroids_loads(self, centroids):
        # ledgers written before the task centroids were retired carry a
        # task_centroids key; it is ignored, whatever it holds
        payload = ledger_to_dict(self._ledger())
        loaded = ledger_from_dict(dict(payload, task_centroids=centroids))
        assert ledger_to_dict(loaded) == ledger_to_dict(ledger_from_dict(payload))

    def test_other_extra_keys_ignored(self):
        payload = ledger_to_dict(self._ledger())
        loaded = ledger_from_dict(dict(payload, note="x", version=[1, 2]))
        assert ledger_to_dict(loaded) == payload

    def test_copy_is_independent(self):
        ledger = DriftLedger(dim=3)
        ledger = append_record(ledger, _vec([0.1, 0.2, 0.3], 1, 2))
        dup = ledger.copy()
        assert dup.dim == 3
        assert [r is s for r, s in zip(dup.records, ledger.records)] == [True]
        dup.records.append(_vec([0.0, 0.0, 1.0], 2, 3))
        assert len(ledger.records) == 1

    def test_non_object_payload_rejected(self):
        with pytest.raises(CorruptLedgerError):
            ledger_from_dict([1, 2, 3])

    def test_unknown_record_kind_rejected(self):
        payload = {
            "dim": 2,
            "records": [{"from": 1, "to": 2, "kind": "spline", "vector": [0, 0]}],
        }
        with pytest.raises(CorruptLedgerError):
            ledger_from_dict(payload)

    def test_record_dim_mismatch_rejected(self):
        payload = {
            "dim": 2,
            "records": [{"from": 1, "to": 2, "kind": "single", "vector": [0.0]}],
        }
        with pytest.raises(CorruptLedgerError):
            ledger_from_dict(payload)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_vector_rejected(self, value):
        # json.loads reads these tokens, though ledger_to_dict never writes them
        payload = json.loads(
            '{"dim": 2, "records": [{"from": 1, "to": 2, "kind": "single", '
            f'"vector": [0.5, {value}]}}]}}'
        )
        with pytest.raises(CorruptLedgerError, match="NaN or infinite"):
            ledger_from_dict(payload)

    def test_non_contiguous_records_rejected(self):
        payload = {
            "dim": 1,
            "records": [
                {"from": 1, "to": 2, "kind": "single", "vector": [0.1]},
                {"from": 3, "to": 4, "kind": "single", "vector": [0.1]},
            ],
        }
        with pytest.raises(CorruptLedgerError):
            ledger_from_dict(payload)

    def test_multi_transition_record_rejected(self):
        payload = {
            "dim": 1,
            "records": [{"from": 1, "to": 3, "kind": "single", "vector": [0.1]}],
        }
        with pytest.raises(CorruptLedgerError):
            ledger_from_dict(payload)

    def test_per_cluster_record_rejected(self):
        # ledgers from before per-cluster drift was removed may hold one
        payload = {
            "dim": 2,
            "records": [
                {
                    "from": 1,
                    "to": 2,
                    "kind": "multi",
                    "centroids": [[1.0, 0.0], [0.0, 1.0]],
                    "vectors": [[0.1, 0.0], [0.0, 0.1]],
                }
            ],
        }
        with pytest.raises(CorruptLedgerError, match="per-cluster drift was removed"):
            ledger_from_dict(payload)
