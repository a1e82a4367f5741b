"""Output checks that hold whatever the float bits of a run turn out to be.

Nothing here calls qdc's search: the reference scan is the benchmark's own
float64 cosine over the index rows, so a broken `search_topk` cannot vouch
for itself.
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

# scores of two ranking paths may differ in the last bits; anything closer
# than this counts as a tie
SCORE_TOL = 1e-9
QDC_MIN_GAP_PTS = 2.0  # acceptance criterion c07 of the test suite


def ranking_problems(ranking, k: int, num_docs: int) -> list[str]:
    """k entries (or all docs), scores descending, ties by ascending doc_id."""
    want = min(k, num_docs)
    if len(ranking) != want:
        return [f"{len(ranking)} entries, expected {want}"]
    ids = [doc_id for doc_id, _ in ranking]
    if len(set(ids)) != len(ids):
        return ["duplicate doc_id in ranking"]
    for (id_a, s_a), (id_b, s_b) in zip(ranking, ranking[1:]):
        if s_b > s_a:
            return [f"score rises from {s_a!r} to {s_b!r}"]
        if s_b == s_a and id_b < id_a:
            return [f"tie between {id_a!r} and {id_b!r} not broken by doc_id"]
    return []


def cosine_scan(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Reference float64 cosine of q against every row."""
    rows64 = np.asarray(rows, dtype=np.float64)
    q64 = np.asarray(q, dtype=np.float64)
    return (rows64 @ q64) / (np.linalg.norm(rows64, axis=1) * np.linalg.norm(q64))


def scan_problems(ranking, rows, doc_ids, q, k: int) -> list[str]:
    """The ranking is a top-k of the reference scan, up to near-ties."""
    scores = cosine_scan(rows, q)
    position = {doc_id: i for i, doc_id in enumerate(doc_ids)}
    chosen = []
    for doc_id, served in ranking:
        if doc_id not in position:
            return [f"unknown doc_id {doc_id!r}"]
        true = scores[position[doc_id]]
        if abs(true - served) > SCORE_TOL:
            return [f"{doc_id!r} served score {served!r}, scan gives {true!r}"]
        chosen.append(position[doc_id])
    if len(chosen) < min(k, len(doc_ids)):
        return [f"{len(chosen)} entries, expected {min(k, len(doc_ids))}"]
    rest = np.delete(scores, chosen)
    if rest.size and rest.max() > min(scores[chosen]) + SCORE_TOL:
        return ["a better-scoring document was left out of the top k"]
    return []


def final_scores(metrics_csv: Path) -> dict[tuple[str, int], float]:
    """(method, task) -> nDCG at the final checkpoint, from a run's CSV."""
    rows = list(csv.DictReader(metrics_csv.read_text(encoding="utf-8").splitlines()))
    final = max(int(r["checkpoint"]) for r in rows)
    return {
        (r["method"], int(r["task"])): float(r["value"])
        for r in rows
        if r["metric"] == "ndcg" and int(r["checkpoint"]) == final
    }


def old_task_avg_pts(scores, method: str, num_tasks: int) -> float:
    return 100.0 * float(
        np.mean([scores[(method, t)] for t in range(1, num_tasks)])
    )


def bench_problems(scores, num_tasks: int) -> list[str]:
    """QDC's lead over FT on old tasks, and the final-task column agreement.

    On the last task every strategy searches the index built by the final
    model itself, so plain, QDC and REINDEX must give the same score.
    """
    problems = []
    gap = old_task_avg_pts(scores, "FT+QDC", num_tasks) - old_task_avg_pts(
        scores, "FT", num_tasks
    )
    if gap < QDC_MIN_GAP_PTS:
        problems.append(f"QDC gap {gap:.2f} points < {QDC_MIN_GAP_PTS}")
    for kd in ("", "+KD"):
        column = {
            scores[(f"FT{kd}{suffix}", num_tasks)]
            for suffix in ("", "+QDC", "+REINDEX")
        }
        if len(column) != 1:
            problems.append(f"FT{kd} final-task column disagrees: {sorted(column)}")
    return problems
