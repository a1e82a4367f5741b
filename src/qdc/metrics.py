"""IR metrics, the performance-drop summary, and drift-by-length analysis.

nDCG uses the exponential gain (2^rel - 1) with a log2(rank+1) discount.
Unjudged retrieved documents count as relevance 0. Per-query values are
reduced in sorted query-id order so reports are deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoder import EncoderParams, FeatureRows, encode_batch, tokenize_rows
from .errors import (
    EmptyPopulationError,
    IncompleteMatrixError,
    MissingQrelsError,
)
from .index import DocRecord, corpus_rows, doc_encoding_text

METRIC_NAMES = ("ndcg", "recall", "map")
BUCKET_NAMES = ("short", "medium", "long")


@dataclass(frozen=True)
class MetricReport:
    """Per-query and mean ndcg/recall/map at depth k."""

    k: int
    query_ids: tuple[str, ...]
    ndcg: np.ndarray
    recall: np.ndarray
    ap: np.ndarray

    def values(self, metric: str) -> np.ndarray:
        if metric == "ndcg":
            return self.ndcg
        if metric == "recall":
            return self.recall
        if metric == "map":
            return self.ap
        raise ValueError(f"unknown metric {metric!r}")

    def mean(self, metric: str) -> float:
        return float(np.mean(self.values(metric)))


def compute_metrics(run, qrels: dict, k: int) -> MetricReport:
    """Evaluate one retrieval run against graded qrels.

    run is a RetrievalRun or a plain mapping query_id -> ranked list of
    (doc_id, score). qrels maps (query_id, doc_id) -> grade.
    """
    results = getattr(run, "results", run)
    by_query: dict[str, dict[str, int]] = {}
    for (qid, did), grade in qrels.items():
        by_query.setdefault(qid, {})[did] = int(grade)

    query_ids = tuple(sorted(results))
    ndcg = np.zeros(len(query_ids))
    recall = np.zeros(len(query_ids))
    ap = np.zeros(len(query_ids))
    for pos, qid in enumerate(query_ids):
        rels = by_query.get(qid)
        if not rels:
            raise MissingQrelsError(f"query {qid!r} has no judgments")
        ranked = list(results[qid])[:k]
        relevant = {d for d, g in rels.items() if g > 0}

        dcg = 0.0
        for i, (doc_id, _) in enumerate(ranked):
            gain = (1 << rels.get(doc_id, 0)) - 1
            dcg += gain / math.log2(i + 2)
        ideal = sorted((g for g in rels.values() if g > 0), reverse=True)[:k]
        idcg = sum(((1 << g) - 1) / math.log2(i + 2) for i, g in enumerate(ideal))
        ndcg[pos] = dcg / idcg if idcg > 0 else 0.0

        hits = 0
        ap_sum = 0.0
        for i, (doc_id, _) in enumerate(ranked):
            if doc_id in relevant:
                hits += 1
                ap_sum += hits / (i + 1)
        recall[pos] = hits / len(relevant) if relevant else 0.0
        denom = min(len(relevant), k)
        ap[pos] = ap_sum / denom if denom else 0.0
    return MetricReport(k=k, query_ids=query_ids, ndcg=ndcg, recall=recall, ap=ap)


@dataclass(frozen=True)
class PDReport:
    """Per-task performance drop: own-checkpoint score minus final score."""

    metric: str
    per_task: dict[int, float]

    def display(self) -> dict[int, float]:
        """PD in table points: x100, one decimal, like the rendered tables."""
        return {t: round(v * 100.0, 1) for t, v in self.per_task.items()}


def performance_drop(matrix, metric: str = "ndcg") -> PDReport:
    """PD per task from a checkpoint-by-task result matrix.

    matrix exposes num_tasks and cells keyed (checkpoint, task), each a
    MetricReport. The final task has no PD.
    """
    num_tasks = matrix.num_tasks
    per_task: dict[int, float] = {}
    for task in range(1, num_tasks):
        own = matrix.cells.get((task, task))
        final = matrix.cells.get((num_tasks, task))
        if own is None or final is None:
            raise IncompleteMatrixError(
                f"task {task} needs checkpoints {task} and {num_tasks}"
            )
        per_task[task] = own.mean(metric) - final.mean(metric)
    return PDReport(metric=metric, per_task=per_task)


@dataclass(frozen=True)
class DriftLengthReport:
    """Mean cosine drift per length tercile for queries and corpus docs."""

    query_bounds: tuple[int, int]
    corpus_bounds: tuple[int, int]
    query_drift: dict[str, float | None]
    corpus_drift: dict[str, float | None]
    query_counts: dict[str, int]
    corpus_counts: dict[str, int]


def _tercile_bounds(lengths: list[int]) -> tuple[int, int]:
    ordered = sorted(lengths)
    n = len(ordered)
    lo = ordered[max(0, math.ceil(n / 3) - 1)]
    hi = ordered[max(0, math.ceil(2 * n / 3) - 1)]
    return lo, hi


def _bucket_of(length: int, bounds: tuple[int, int]) -> str:
    if length <= bounds[0]:
        return "short"
    if length <= bounds[1]:
        return "medium"
    return "long"


def _population_drift(
    params_new: EncoderParams,
    params_old: EncoderParams,
    texts: list[str],
    feats: FeatureRows,
) -> tuple[tuple[int, int], dict[str, float | None], dict[str, int]]:
    lengths = [len(text.split()) for text in texts]
    bounds = _tercile_bounds(lengths)
    units_new = encode_batch(params_new, feats)
    units_old = encode_batch(params_old, feats)
    drifts = 1.0 - np.einsum("ij,ij->i", units_new, units_old)
    grouped: dict[str, list[float]] = {name: [] for name in BUCKET_NAMES}
    for length, value in zip(lengths, drifts):
        grouped[_bucket_of(length, bounds)].append(float(value))
    means = {
        name: (float(np.mean(vals)) if vals else None)
        for name, vals in grouped.items()
    }
    counts = {name: len(vals) for name, vals in grouped.items()}
    return bounds, means, counts


def drift_report(
    params_new: EncoderParams,
    params_old: EncoderParams,
    queries: list[str],
    corpus: list[DocRecord],
) -> DriftLengthReport:
    """Length-tercile drift for query texts and corpus documents."""
    if not queries or not corpus:
        raise EmptyPopulationError("drift report needs both populations")
    vocab = params_new.vocab_size
    q_texts = list(queries)
    q_bounds, q_drift, q_counts = _population_drift(
        params_new, params_old, q_texts, tokenize_rows(q_texts, vocab)
    )
    c_bounds, c_drift, c_counts = _population_drift(
        params_new,
        params_old,
        [doc_encoding_text(doc) for doc in corpus],
        corpus_rows(corpus, vocab),
    )
    return DriftLengthReport(
        query_bounds=q_bounds,
        corpus_bounds=c_bounds,
        query_drift=q_drift,
        corpus_drift=c_drift,
        query_counts=q_counts,
        corpus_counts=c_counts,
    )


def drift_report_csv(report: DriftLengthReport) -> str:
    """CSV rows: population, bucket, (lower, upper] bounds, count, mean."""
    lines = ["population,bucket,len_lower,len_upper,count,mean_drift"]
    for population, bounds, drift, counts in (
        ("query", report.query_bounds, report.query_drift, report.query_counts),
        ("corpus", report.corpus_bounds, report.corpus_drift, report.corpus_counts),
    ):
        edges = {
            "short": ("", str(bounds[0])),
            "medium": (str(bounds[0]), str(bounds[1])),
            "long": (str(bounds[1]), ""),
        }
        for bucket in BUCKET_NAMES:
            mean = drift[bucket]
            lines.append(
                ",".join(
                    [
                        population,
                        bucket,
                        edges[bucket][0],
                        edges[bucket][1],
                        str(counts[bucket]),
                        "" if mean is None else repr(mean),
                    ]
                )
            )
    return "\n".join(lines) + "\n"
