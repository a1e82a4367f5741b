import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from qdc.encoder import init_params
from qdc.errors import (
    EmptyPopulationError,
    IncompleteMatrixError,
    MissingQrelsError,
)
from qdc.index import Corpus, DocRecord, corpus_rows, doc_encoding_text
from qdc.metrics import (
    MetricReport,
    compute_metrics,
    drift_report,
    drift_report_csv,
    performance_drop,
)


def _run(ranked_ids, qid="q"):
    n = len(ranked_ids)
    return {qid: [(doc_id, float(n - i)) for i, doc_id in enumerate(ranked_ids)]}


def _qrels(grades, qid="q"):
    return {(qid, doc_id): grade for doc_id, grade in grades.items()}


def _reference(ranked_ids, grades, k):
    """Direct transcription of the metric definitions."""
    topk = ranked_ids[:k]
    dcg = sum(
        (2 ** grades.get(d, 0) - 1) / math.log2(i + 2)
        for i, d in enumerate(topk)
    )
    ideal = sorted((g for g in grades.values() if g > 0), reverse=True)[:k]
    idcg = sum((2**g - 1) / math.log2(i + 2) for i, g in enumerate(ideal))
    ndcg = dcg / idcg if idcg > 0 else 0.0
    relevant = {d for d, g in grades.items() if g > 0}
    seen = 0
    ap_sum = 0.0
    for i, d in enumerate(topk):
        if d in relevant:
            seen += 1
            ap_sum += seen / (i + 1)
    recall = seen / len(relevant) if relevant else 0.0
    denom = min(len(relevant), k)
    ap = ap_sum / denom if denom else 0.0
    return ndcg, recall, ap


class TestComputeMetrics:
    def test_perfect_single_hit(self):
        report = compute_metrics(_run(["d1"]), _qrels({"d1": 1}), k=10)
        assert report.mean("ndcg") == 1.0
        assert report.mean("recall") == 1.0
        assert report.mean("map") == 1.0

    def test_single_relevant_at_rank_two(self):
        report = compute_metrics(
            _run(["d0", "d1"]), _qrels({"d1": 1}), k=10
        )
        assert report.mean("ndcg") == pytest.approx(0.63093, abs=1e-5)
        assert report.mean("map") == 0.5
        assert report.mean("recall") == 1.0

    def test_nothing_relevant_in_topk(self):
        report = compute_metrics(
            _run(["d0", "d1"]), _qrels({"d0": 0, "d9": 1}), k=1
        )
        assert report.mean("ndcg") == 0.0
        assert report.mean("recall") == 0.0
        assert report.mean("map") == 0.0

    def test_missing_qrels_rejected(self):
        with pytest.raises(MissingQrelsError):
            compute_metrics(_run(["d1"]), {}, k=10)

    def test_unknown_metric_name_rejected(self):
        report = compute_metrics(_run(["d1"]), _qrels({"d1": 1}), k=10)
        with pytest.raises(ValueError):
            report.mean("precision")

    def test_mean_is_arithmetic_mean_of_per_query_values(self):
        run = {
            "qa": [("d1", 2.0), ("d2", 1.0)],
            "qb": [("d2", 2.0), ("d1", 1.0)],
        }
        qrels = {("qa", "d1"): 1, ("qb", "d1"): 1}
        report = compute_metrics(run, qrels, k=10)
        for metric in ("ndcg", "recall", "map"):
            values = report.values(metric)
            assert report.mean(metric) == pytest.approx(
                float(np.mean(values)), abs=1e-12
            )

    def test_matches_exhaustive_permutation_oracle(self):
        rng = np.random.default_rng(0)
        for n in range(1, 6):
            doc_ids = [f"d{i}" for i in range(n)]
            grade_sets = [
                {d: int(g) for d, g in zip(doc_ids, rng.integers(0, 3, size=n))}
                for _ in range(3)
            ]
            grade_sets.append({d: 0 for d in doc_ids})
            grade_sets.append({d: 2 for d in doc_ids})
            for grades in grade_sets:
                for perm in itertools.permutations(doc_ids):
                    for k in (1, 3, 5, 10):
                        report = compute_metrics(
                            _run(list(perm)), _qrels(grades), k=k
                        )
                        ndcg, recall, ap = _reference(list(perm), grades, k)
                        assert abs(report.mean("ndcg") - ndcg) <= 1e-9
                        assert abs(report.mean("recall") - recall) <= 1e-9
                        assert abs(report.mean("map") - ap) <= 1e-9

    def test_promoting_a_higher_grade_never_hurts_ndcg(self):
        rng = np.random.default_rng(1)
        doc_ids = [f"d{i}" for i in range(6)]
        for _ in range(200):
            grades = {d: int(g) for d, g in zip(doc_ids, rng.integers(0, 3, 6))}
            if not any(g > 0 for g in grades.values()):
                grades[doc_ids[0]] = 1
            order = list(rng.permutation(doc_ids))
            pos = next(
                (
                    i
                    for i in range(1, 6)
                    if grades[order[i]] > grades[order[i - 1]]
                ),
                None,
            )
            if pos is None:
                continue
            promoted = order.copy()
            promoted[pos - 1], promoted[pos] = promoted[pos], promoted[pos - 1]
            before = compute_metrics(_run(order), _qrels(grades), k=10)
            after = compute_metrics(_run(promoted), _qrels(grades), k=10)
            assert after.mean("ndcg") >= before.mean("ndcg") - 1e-12

    def test_invariant_under_doc_id_relabeling(self):
        rng = np.random.default_rng(2)
        doc_ids = [f"d{i}" for i in range(5)]
        relabel = {d: f"x{9 - i}" for i, d in enumerate(doc_ids)}
        for _ in range(50):
            grades = {d: int(g) for d, g in zip(doc_ids, rng.integers(0, 3, 5))}
            grades[doc_ids[0]] = max(grades[doc_ids[0]], 1)
            order = list(rng.permutation(doc_ids))
            a = compute_metrics(_run(order), _qrels(grades), k=5)
            b = compute_metrics(
                _run([relabel[d] for d in order]),
                _qrels({relabel[d]: g for d, g in grades.items()}),
                k=5,
            )
            for metric in ("ndcg", "recall", "map"):
                assert a.mean(metric) == pytest.approx(b.mean(metric), abs=1e-12)

    def test_recall_non_decreasing_in_k(self):
        grades = {"d0": 0, "d1": 1, "d2": 0, "d3": 2, "d4": 1}
        order = ["d0", "d3", "d2", "d1", "d4"]
        values = [
            compute_metrics(_run(order), _qrels(grades), k=k).mean("recall")
            for k in range(1, 8)
        ]
        assert values == sorted(values)

    def test_ndcg_one_exactly_for_ideal_prefix(self):
        grades = {"a": 2, "b": 1, "c": 0}
        ideal = compute_metrics(_run(["a", "b", "c"]), _qrels(grades), k=10)
        assert ideal.mean("ndcg") == pytest.approx(1.0, abs=1e-12)
        swapped = compute_metrics(_run(["b", "a", "c"]), _qrels(grades), k=10)
        assert swapped.mean("ndcg") < 1.0 - 1e-6
        # equal grades: either order is ideal
        even = compute_metrics(
            _run(["b", "a"]), _qrels({"a": 1, "b": 1}), k=10
        )
        assert even.mean("ndcg") == pytest.approx(1.0, abs=1e-12)


def _report(value):
    arr = np.array([value], dtype=np.float64)
    return MetricReport(k=10, query_ids=("q",), ndcg=arr, recall=arr, ap=arr)


@dataclass(frozen=True)
class _Matrix:
    num_tasks: int
    cells: dict


class TestPerformanceDrop:
    def test_constant_scores_zero_drop(self):
        cells = {(t, 1): _report(0.5) for t in (1, 3)}
        matrix = _Matrix(num_tasks=3, cells={**cells, (2, 2): _report(0.5), (3, 2): _report(0.5)})
        report = performance_drop(matrix)
        assert report.per_task == {1: 0.0, 2: 0.0}

    def test_published_history_values(self):
        # task 1 follows the 40.2 -> 34.8 history, task 4 the 72.8 -> 75.0 one
        cells = {
            (1, 1): _report(0.402), (5, 1): _report(0.348),
            (2, 2): _report(0.5), (5, 2): _report(0.5),
            (3, 3): _report(0.5), (5, 3): _report(0.5),
            (4, 4): _report(0.728), (5, 4): _report(0.750),
        }
        display = performance_drop(_Matrix(num_tasks=5, cells=cells)).display()
        assert display[1] == 5.4
        assert display[4] == -2.2

    def test_incomplete_matrix_rejected(self):
        matrix = _Matrix(num_tasks=3, cells={(1, 1): _report(0.5)})
        with pytest.raises(IncompleteMatrixError):
            performance_drop(matrix)


class TestDriftReport:
    def _populations(self, seed=0):
        rng = np.random.default_rng(seed)
        queries = [
            " ".join(f"q{int(rng.integers(0, 50))}" for _ in range(n))
            for n in rng.integers(2, 11, size=24)
        ]
        corpus = [
            DocRecord(
                doc_id=f"d{i}", title="",
                text=" ".join(
                    f"w{int(rng.integers(0, 200))}"
                    for _ in range(int(rng.integers(5, 41)))
                ),
            )
            for i in range(30)
        ]
        return queries, corpus

    def test_identical_params_all_buckets_zero(self):
        rng = np.random.default_rng(3)
        params = init_params(64, 8, 0.5, rng)
        queries, corpus = self._populations()
        report = drift_report(params, params, queries, corpus)
        for drift in (report.query_drift, report.corpus_drift):
            for value in drift.values():
                assert value is not None
                assert abs(value) <= 1e-12
        assert sum(report.query_counts.values()) == len(queries)
        assert sum(report.corpus_counts.values()) == len(corpus)

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(4)
        old = init_params(64, 8, 0.5, rng)
        new = replace(old, W=old.W + rng.normal(size=(64, 8)) * 0.01)
        queries, corpus = self._populations(seed=42)
        report = drift_report(new, old, queries, corpus)

        from qdc.encoder import encode, tokenize

        for texts, bounds, means in (
            (queries, report.query_bounds, report.query_drift),
            (
                [doc_encoding_text(d) for d in corpus],
                report.corpus_bounds,
                report.corpus_drift,
            ),
        ):
            lengths = sorted(len(t.split()) for t in texts)
            n = len(lengths)
            lo = lengths[max(0, math.ceil(n / 3) - 1)]
            hi = lengths[max(0, math.ceil(2 * n / 3) - 1)]
            assert (lo, hi) == bounds
            grouped = {"short": [], "medium": [], "long": []}
            for text in texts:
                length = len(text.split())
                bucket = (
                    "short" if length <= lo
                    else "medium" if length <= hi
                    else "long"
                )
                u_new = encode(new, tokenize(text, 64))
                u_old = encode(old, tokenize(text, 64))
                grouped[bucket].append(1.0 - float(np.dot(u_new, u_old)))
            for bucket, values in grouped.items():
                if values:
                    assert means[bucket] == pytest.approx(
                        float(np.mean(values)), abs=1e-12
                    )
                else:
                    assert means[bucket] is None

    def test_corpus_table_read_from_the_corpus(self, monkeypatch):
        import qdc.index
        import qdc.metrics

        rng = np.random.default_rng(7)
        params = init_params(64, 8, 0.5, rng)
        queries, docs = self._populations()
        corpus = Corpus(docs)
        corpus_rows(corpus, 64)
        tabled = []
        real = qdc.metrics.tokenize_rows

        def counting(texts, vocab_size):
            tabled.append(list(texts))
            return real(texts, vocab_size)

        monkeypatch.setattr(qdc.metrics, "tokenize_rows", counting)
        monkeypatch.setattr(qdc.index, "tokenize_rows", counting)
        drift_report(params, params, queries, corpus)
        assert tabled == [list(queries)]

    def test_empty_population_rejected(self):
        rng = np.random.default_rng(5)
        params = init_params(16, 4, 0.5, rng)
        _, corpus = self._populations()
        with pytest.raises(EmptyPopulationError):
            drift_report(params, params, [], corpus)
        with pytest.raises(EmptyPopulationError):
            drift_report(params, params, ["some query"], [])

    def test_csv_layout(self):
        rng = np.random.default_rng(6)
        params = init_params(64, 8, 0.5, rng)
        queries, corpus = self._populations()
        text = drift_report_csv(drift_report(params, params, queries, corpus))
        lines = text.strip().split("\n")
        assert lines[0] == "population,bucket,len_lower,len_upper,count,mean_drift"
        assert len(lines) == 7
        populations = [line.split(",")[0] for line in lines[1:]]
        assert populations == ["query"] * 3 + ["corpus"] * 3
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[1] in ("short", "medium", "long")
            int(fields[4])
            if fields[5]:
                float(fields[5])
