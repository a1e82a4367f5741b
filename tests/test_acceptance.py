"""Acceptance suite: one test per shipped guarantee, one PASS/FAIL line each.

Numbered criteria, in order: gradient checks, exact retrieval, metric
oracles, drift additivity, translation exactness, published PD values, the
directional benchmark, the stored drift as the mean query drift, re-index
equivalence, run determinism, and persistence round-trips.
"""
import itertools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from qdc.cli import dispatch
from qdc.datagen import TaskDataset
from qdc.drift import (
    DriftLedger,
    append_record,
    accumulate_drift,
    estimate_drift,
)
from qdc.encoder import (
    EncoderParams,
    encode,
    encode_batch,
    feature_rows,
    grad_check,
    load_snapshot,
    save_snapshot,
    tokenize,
)
from qdc.errors import CorruptIndexError, CorruptSnapshotError
from qdc.index import (
    CorpusIndex,
    DocRecord,
    build_index,
    doc_encoding_text,
    load_index,
    save_index,
    search_topk,
)
from qdc.metrics import (
    MetricReport,
    compute_metrics,
    performance_drop,
)
from qdc.pipeline import ContinualState, old_task_average, retrieve_eval


@contextmanager
def _criterion(label):
    try:
        yield
    except AssertionError:
        print(f"criterion {label}: FAIL")
        raise
    print(f"criterion {label}: PASS")


def _method_result(results, method):
    return next(r for r in results if r.method == method)


def test_c01_gradient_suite():
    with _criterion("1 (gradient suite)"):
        start = time.perf_counter()
        worst = 0.0
        for seed in range(10):
            for kind in ("contrastive", "distill"):
                err = grad_check(kind, seed)
                worst = max(worst, err)
                assert err <= 1e-4, f"{kind} seed {seed}: {err:.3e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"gradient suite took {elapsed:.1f}s"
        print(f"worst relative error {worst:.3e} in {elapsed:.1f}s")


def test_c02_retrieval_matches_brute_force():
    with _criterion("2 (retrieval vs full sort)"):
        rng = np.random.default_rng(2024)
        dim = 16
        start = time.perf_counter()
        for _ in range(200):
            n = int(rng.integers(1, 1001))
            rows = rng.normal(size=(n, dim))
            # duplicated rows with distinct ids force score ties
            if n >= 4:
                rows[1] = rows[0]
                rows[3] = rows[2] * 2.0
            rows = rows.astype(np.float32)
            ids = [f"doc-{int(i):05d}" for i in rng.permutation(n)]
            index = CorpusIndex(
                task_id=1, encoder_version=1, dim=dim, rows=rows, doc_ids=ids
            )
            q = rng.normal(size=dim)
            k = int(rng.integers(1, n + 10))

            got = search_topk(index, q, k)

            # one fixed-order dot a row: a row's score does not depend on
            # where it lies in the matrix, so identical rows tie bit for bit
            rows64 = rows.astype(np.float64)
            scores = np.einsum(
                "ij,j->i", rows64, q / np.linalg.norm(q)
            ) / np.linalg.norm(rows64, axis=1)
            if n >= 4:
                assert scores[1] == scores[0]
            order = sorted(range(n), key=lambda i: (-scores[i], ids[i]))
            want = [(ids[i], float(scores[i])) for i in order[: min(k, n)]]
            assert got == want
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"retrieval oracle took {elapsed:.1f}s"


def _metric_reference(ranked, grades, k):
    topk = ranked[:k]
    dcg = sum(
        (2 ** grades.get(d, 0) - 1) / math.log2(i + 2) for i, d in enumerate(topk)
    )
    ideal = sorted((g for g in grades.values() if g > 0), reverse=True)[:k]
    idcg = sum((2**g - 1) / math.log2(i + 2) for i, g in enumerate(ideal))
    relevant = {d for d, g in grades.items() if g > 0}
    seen = 0
    ap_sum = 0.0
    for i, d in enumerate(topk):
        if d in relevant:
            seen += 1
            ap_sum += seen / (i + 1)
    denom = min(len(relevant), k)
    return (
        dcg / idcg if idcg > 0 else 0.0,
        seen / len(relevant) if relevant else 0.0,
        ap_sum / denom if denom else 0.0,
    )


def test_c03_metric_oracle():
    with _criterion("3 (metric oracle)"):
        def run_of(ranked):
            return {"q": [(d, float(len(ranked) - i)) for i, d in enumerate(ranked)]}

        report = compute_metrics(run_of(["d1"]), {("q", "d1"): 1}, k=10)
        assert (report.mean("ndcg"), report.mean("recall"), report.mean("map")) == (
            1.0,
            1.0,
            1.0,
        )
        report = compute_metrics(
            run_of(["d0", "d1"]), {("q", "d1"): 1}, k=10
        )
        assert abs(report.mean("ndcg") - 0.63093) <= 1e-5
        assert report.mean("map") == 0.5
        assert report.mean("recall") == 1.0

        rng = np.random.default_rng(3)
        for n in range(1, 6):
            docs = [f"d{i}" for i in range(n)]
            grade_sets = [
                {d: int(g) for d, g in zip(docs, rng.integers(0, 3, n))}
                for _ in range(3)
            ] + [{d: 1 for d in docs}]
            for grades in grade_sets:
                for perm in itertools.permutations(docs):
                    for k in (1, 3, 5, 10):
                        report = compute_metrics(
                            run_of(list(perm)),
                            {("q", d): g for d, g in grades.items()},
                            k=k,
                        )
                        ndcg, recall, ap = _metric_reference(list(perm), grades, k)
                        assert abs(report.mean("ndcg") - ndcg) <= 1e-9
                        assert abs(report.mean("recall") - recall) <= 1e-9
                        assert abs(report.mean("map") - ap) <= 1e-9


def test_c04_drift_additivity(bench_outcome):
    with _criterion("4 (drift additivity)"):
        _, trajectories, _ = bench_outcome
        ledger = trajectories[False][-1].ledger
        first = ledger.record_for(1).values
        second = ledger.record_for(2).values
        total = accumulate_drift(ledger, 1, 3).values
        assert np.max(np.abs(total - (first + second))) <= 1e-15


def _translation_setup():
    rng = np.random.default_rng(99)
    vocab, dim = 24, 5
    w_old = rng.normal(size=(vocab, dim))
    shift = np.array([0.7, -0.4, 0.3, 0.2, -0.6])
    old = EncoderParams(
        W=w_old, vocab_size=vocab, dim=dim, temperature=0.5,
        version=1, linear_output=True,
    )
    new = EncoderParams(
        W=w_old + np.outer(np.ones(vocab), shift),
        vocab_size=vocab, dim=dim, temperature=0.5,
        version=2, linear_output=True,
    )
    corpus = [
        DocRecord(
            doc_id=f"d{i:02d}", title="",
            text=" ".join(f"w{int(t)}" for t in rng.integers(0, 60, 10)),
        )
        for i in range(40)
    ]
    queries = [
        (f"q{j}", " ".join(f"w{int(t)}" for t in rng.integers(0, 60, 3)))
        for j in range(12)
    ]
    data = TaskDataset(
        task_id=1,
        corpus=corpus,
        train_pairs=[(text, corpus[j].doc_id) for j, (_, text) in enumerate(queries)],
        queries_test=queries,
        qrels={(qid, corpus[j].doc_id): 1 for j, (qid, _) in enumerate(queries)},
    )
    index = build_index(old, corpus, 1)
    feats = feature_rows([tokenize(text, vocab) for _, text in queries])
    ledger = append_record(DriftLedger(dim=dim), estimate_drift(new, old, feats))

    def make_state(params, ldg):
        return ContinualState(
            params=params, indexes={1: index}, ledger=ldg, datasets={1: data},
        )

    return (
        make_state(old, DriftLedger(dim=dim)),
        make_state(new, ledger),
        shift,
    )


def test_c05_translation_exactness():
    with _criterion("5 (translation exactness)"):
        state_old, state_new, shift = _translation_setup()
        delta = state_new.ledger.records[0].values
        assert np.max(np.abs(delta - shift)) <= 1e-12

        archived = retrieve_eval(state_old, 1, "plain", k=10)
        compensated = retrieve_eval(state_new, 1, "qdc", k=10)
        raw = retrieve_eval(state_new, 1, "plain", k=10)
        for qid in archived.results:
            want = [d for d, _ in archived.results[qid]]
            assert [d for d, _ in compensated.results[qid]] == want
        assert any(
            [d for d, _ in raw.results[qid]]
            != [d for d, _ in archived.results[qid]]
            for qid in archived.results
        )


def _single_query_report(value):
    arr = np.array([value], dtype=np.float64)
    return MetricReport(k=10, query_ids=("q",), ndcg=arr, recall=arr, ap=arr)


@dataclass(frozen=True)
class _StubMatrix:
    num_tasks: int
    cells: dict


def test_c06_published_pd_values():
    with _criterion("6 (published PD values)"):
        cells = {
            (1, 1): _single_query_report(0.402),
            (5, 1): _single_query_report(0.348),
            (4, 4): _single_query_report(0.728),
            (5, 4): _single_query_report(0.750),
        }
        for t in (2, 3):
            cells[(t, t)] = _single_query_report(0.5)
            cells[(5, t)] = _single_query_report(0.5)
        display = performance_drop(_StubMatrix(num_tasks=5, cells=cells)).display()
        assert display[1] == 5.4
        assert display[4] == -2.2


def test_c07_directional_benchmark(bench_outcome):
    with _criterion("7 (directional benchmark)"):
        results, _, elapsed = bench_outcome
        ft = _method_result(results, "FT")
        ft_qdc = _method_result(results, "FT+QDC")
        ft_kd = _method_result(results, "FT+KD")

        gap = old_task_average(ft_qdc) - old_task_average(ft)
        print(f"old-task average gap: {gap * 100:.2f} points")
        assert gap >= 0.02, f"gap {gap * 100:.2f} points < 2.0"

        pd_ft = performance_drop(ft).per_task
        pd_kd = performance_drop(ft_kd).per_task
        assert any(
            pd_kd[t] < pd_ft[t] - 1e-12 for t in pd_ft
        ), f"KD never reduces PD: {pd_kd} vs {pd_ft}"

        assert elapsed < 300.0, f"bench took {elapsed:.0f}s"


def test_c08_record_is_mean_query_drift(bench_outcome, default_config, shipped_stream):
    with _criterion("8 (record is the mean query drift)"):
        _, trajectories, _ = bench_outcome
        vocab = default_config.vocab_size
        for kd, checkpoints in trajectories.items():
            ledger = checkpoints[-1].ledger
            for t in (2, 3):
                pairs = shipped_stream[t - 1].train_pairs
                old, new = checkpoints[t - 2].params, checkpoints[t - 1].params
                acc = np.zeros(default_config.dim, dtype=np.float64)
                for query, _ in pairs:
                    feats = tokenize(query, vocab)
                    acc += encode(new, feats) - encode(old, feats)
                record = ledger.record_for(t - 1)
                assert (record.from_task, record.to_task) == (t - 1, t)
                worst = float(np.max(np.abs(record.values - acc / len(pairs))))
                assert worst <= 1e-12, f"kd={kd}, {t - 1}->{t}: {worst:.2e}"


def test_c09_reindex_equivalence(bench_outcome):
    with _criterion("9 (re-index equivalence)"):
        _, trajectories, _ = bench_outcome
        final = trajectories[False][-1]
        for t, data in sorted(final.datasets.items()):
            rebuilt = build_index(final.params, data.corpus, t)
            feats = feature_rows(
                [
                    tokenize(doc_encoding_text(d), final.params.vocab_size)
                    for d in data.corpus
                ]
            )
            fresh = encode_batch(final.params, feats)
            worst = float(np.max(np.abs(rebuilt.rows.astype(np.float64) - fresh)))
            assert worst <= 1e-6, f"task {t}: max row error {worst:.2e}"


def test_c10_bench_determinism(tmp_path):
    with _criterion("10 (bench determinism)"):
        runs = []
        for name in ("a", "b"):
            root = tmp_path / name
            assert dispatch(["bench", "--out", str(root)]) == 0
            run_dir = root / "bench-s42"
            tree = {
                "metrics.csv": (run_dir / "metrics.csv").read_bytes(),
                "ledger.json": (run_dir / "ledger.json").read_bytes(),
            }
            for idx_path in sorted(run_dir.glob("indexes/*/*.idx")):
                tree[str(idx_path.relative_to(run_dir))] = idx_path.read_bytes()
            runs.append(tree)
        assert sorted(runs[0]) == sorted(runs[1])
        for key, blob in runs[0].items():
            assert runs[1][key] == blob, f"{key} differs between runs"


def test_c11_persistence(bench_outcome, tmp_path):
    with _criterion("11 (persistence)"):
        _, trajectories, _ = bench_outcome
        state = trajectories[True][-1]

        idx_path = tmp_path / "task.idx"
        index = state.indexes[1]
        save_index(index, idx_path)
        loaded = load_index(idx_path)
        assert np.array_equal(loaded.rows, index.rows)
        assert loaded.doc_ids == index.doc_ids
        assert (loaded.task_id, loaded.encoder_version, loaded.dim) == (
            index.task_id,
            index.encoder_version,
            index.dim,
        )

        snap_path = tmp_path / "model.enc"
        save_snapshot(state.params, snap_path)
        params = load_snapshot(snap_path)
        assert np.array_equal(params.W, state.params.W)
        assert (params.vocab_size, params.dim, params.version) == (
            state.params.vocab_size,
            state.params.dim,
            state.params.version,
        )
        assert params.temperature == state.params.temperature

        blob = bytearray(idx_path.read_bytes())
        blob[40] ^= 0xFF  # payload byte, CRC must catch it
        corrupt = tmp_path / "corrupt.idx"
        corrupt.write_bytes(bytes(blob))
        with pytest.raises(CorruptIndexError):
            load_index(corrupt)
        bad_magic = tmp_path / "magic.idx"
        bad_magic.write_bytes(b"NOTANIDX" + idx_path.read_bytes()[8:])
        with pytest.raises(CorruptIndexError):
            load_index(bad_magic)

        truncated = tmp_path / "trunc.enc"
        truncated.write_bytes(snap_path.read_bytes()[:-9])
        with pytest.raises(CorruptSnapshotError):
            load_snapshot(truncated)
        bad_snap = tmp_path / "magic.enc"
        bad_snap.write_bytes(b"NOTENC00" + snap_path.read_bytes()[8:])
        with pytest.raises(CorruptSnapshotError):
            load_snapshot(bad_snap)
