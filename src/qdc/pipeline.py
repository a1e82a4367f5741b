"""End-to-end continual training and retrieval evaluation.

One trajectory trains f_1..f_T task by task (optionally with distillation),
indexing each corpus with its own model and recording per-transition drift.
Retrieval strategies then read the same frozen state: plain search, drift
compensation, or re-indexing. Training is retrieval-strategy independent,
so FT and FT+QDC share bit-identical snapshots.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import METHODS, RunConfig, derive_rng, derive_seed, parse_method
from .datagen import TaskDataset, validate_dataset
from .drift import (
    DriftLedger,
    append_record,
    compensate_query_path,
    estimate_drift,
    estimate_multi_drift,
    set_task_centroid,
    update_task_centroids,
)
from .encoder import (
    EncoderParams,
    TokenFeatures,
    contrastive_loss,
    distill_loss,
    encode_batch,
    init_params,
    sgd_step,
    tokenize,
)
from .errors import DataMismatchError, MissingIndexError
from .index import (
    CorpusIndex,
    build_index,
    doc_features,
    query_features,
    search_topk,
)
from .metrics import METRIC_NAMES, MetricReport, compute_metrics, performance_drop
from .vecops import top_order

STRATEGIES = ("plain", "qdc", "reindex")


@dataclass(frozen=True)
class RetrievalRun:
    """Ranked lists for one (checkpoint, evaluated task) cell."""

    task: int
    checkpoint: int
    k: int
    results: dict[str, list[tuple[str, float]]]


@dataclass(frozen=True)
class RunResult:
    """Full checkpoint-by-task metric matrix for one method."""

    method: str
    k: int
    num_tasks: int
    cells: dict[tuple[int, int], MetricReport]

    def score(self, checkpoint: int, task: int, metric: str = "ndcg") -> float:
        return self.cells[(checkpoint, task)].mean(metric)


def old_task_average(result: RunResult, metric: str = "ndcg") -> float:
    """Final-checkpoint average over every task except the last one."""
    final = result.num_tasks
    if final < 2:
        raise ValueError("no old tasks in a single-task run")
    values = [result.score(final, task, metric) for task in range(1, final)]
    return float(np.mean(values))


@dataclass(frozen=True)
class ContinualState:
    """Frozen pipeline state after training task trained_through."""

    config: RunConfig
    kd: bool
    params: EncoderParams
    indexes: dict[int, CorpusIndex]
    ledger: DriftLedger
    datasets: dict[int, TaskDataset]
    trained_through: int = 0


def init_state(config: RunConfig, kd: bool, datasets=()) -> ContinualState:
    """Fresh state holding the shared pre-trained stand-in f_0."""
    params = init_params(
        config.vocab_size,
        config.dim,
        config.temperature,
        derive_rng(config.seed, "init"),
    )
    registered = {}
    for ds in datasets:
        validate_dataset(ds)
        registered[ds.task_id] = ds
    return ContinualState(
        config=config,
        kd=kd,
        params=params,
        indexes={},
        ledger=DriftLedger(dim=config.dim),
        datasets=registered,
        trained_through=0,
    )


def mine_hard_negatives(
    params: EncoderParams,
    pairs: list[tuple[str, str]],
    corpus,
    h: int,
) -> list[list[str]]:
    """(q, d+) -> top-h most similar docs excluding every positive of q."""
    if h == 0 or not pairs:
        return [[] for _ in pairs]
    vocab = params.vocab_size
    doc_units = encode_batch(params, [doc_features(d, vocab) for d in corpus])
    ids_arr = np.asarray([d.doc_id for d in corpus])
    positives: dict[str, set[str]] = {}
    for query, doc_id in pairs:
        positives.setdefault(query, set()).add(doc_id)
    q_units = encode_batch(params, [tokenize(q, vocab) for q, _ in pairs])
    scores = q_units @ doc_units.T
    out: list[list[str]] = []
    for i, (query, _) in enumerate(pairs):
        exclude = positives[query]
        # the h best non-positives lie within the h + |positives| best docs
        order = top_order(scores[i], ids_arr, h + len(exclude))
        negs: list[str] = []
        for j in order:
            doc_id = str(ids_arr[j])
            if doc_id in exclude:
                continue
            negs.append(doc_id)
            if len(negs) == h:
                break
        out.append(negs)
    return out


def _drift_query_sample(
    qfeats: list[TokenFeatures], config: RunConfig, task_id: int
) -> list[TokenFeatures]:
    cap = config.drift_query_cap
    if len(qfeats) <= cap:
        return qfeats
    rng = derive_rng(config.seed, "driftcap", task_id)
    chosen = np.sort(rng.choice(len(qfeats), size=cap, replace=False))
    return [qfeats[int(i)] for i in chosen]


def _train_params(
    start: EncoderParams,
    prev: EncoderParams,
    version: int,
    qfeats,
    dfeats,
    neg_feats,
    kd: bool,
    shuffle_rng: np.random.Generator,
    config: RunConfig,
) -> EncoderParams:
    params = replace(start, version=version)
    n = len(qfeats)
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        for lo in range(0, n, config.batch_size):
            sel = order[lo : lo + config.batch_size]
            batch = [(qfeats[int(i)], dfeats[int(i)]) for i in sel]
            negs = [neg_feats[int(i)] for i in sel]
            _, grads = contrastive_loss(params, batch, negs)
            if kd:
                grads += distill_loss(params, prev, batch)[1]
            params = sgd_step(params, grads, config.lr, config.wd)
    return params


def _prepare_features(data: TaskDataset, params: EncoderParams, h: int):
    vocab = params.vocab_size
    doc_by_id = {d.doc_id: d for d in data.corpus}
    qfeats = [tokenize(q, vocab) for q, _ in data.train_pairs]
    dfeats = [
        doc_features(doc_by_id[doc_id], vocab) for _, doc_id in data.train_pairs
    ]
    neg_ids = mine_hard_negatives(params, data.train_pairs, data.corpus, h)
    neg_feats = [
        [doc_features(doc_by_id[i], vocab) for i in ids]
        for ids in neg_ids
    ]
    return qfeats, dfeats, neg_feats


def train_task(
    state: ContinualState, data: TaskDataset, config: RunConfig
) -> ContinualState:
    """Train f_t from f_{t-1}, index C_t, record drift and the task centroid."""
    t = state.trained_through + 1
    if data.task_id != t:
        raise DataMismatchError(
            f"expected task {t}, received task {data.task_id}"
        )
    validate_dataset(data)
    qfeats, dfeats, neg_feats = _prepare_features(
        data, state.params, config.hard_negatives
    )
    prev = state.params
    params = _train_params(
        start=prev,
        prev=prev,
        version=t,
        qfeats=qfeats,
        dfeats=dfeats,
        neg_feats=neg_feats,
        kd=state.kd and t > 1,
        shuffle_rng=derive_rng(config.seed, "shuffle", t),
        config=config,
    )

    drift_queries = _drift_query_sample(qfeats, config, t)
    ledger = state.ledger
    if t > 1:
        single = estimate_drift(params, prev, drift_queries)
        if config.multi_k == 1:
            record = single
        else:
            record = estimate_multi_drift(
                params,
                prev,
                drift_queries,
                config.multi_k,
                derive_seed(config.seed, "kmeans", t),
            )
        ledger = append_record(ledger, record)
        ledger = update_task_centroids(ledger, single)
    centroid = encode_batch(params, drift_queries).mean(axis=0)
    ledger = set_task_centroid(ledger, t, centroid)

    indexes = dict(state.indexes)
    indexes[t] = build_index(params, data.corpus, t)
    datasets = dict(state.datasets)
    datasets[t] = data
    return replace(
        state,
        params=params,
        indexes=indexes,
        ledger=ledger,
        datasets=datasets,
        trained_through=t,
    )


def retrieve(
    params: EncoderParams,
    index: CorpusIndex | None,
    corpus,
    ledger: DriftLedger,
    query_embs,
    t_prime: int,
    strategy: str,
    k: int,
) -> list[list[tuple[str, float]]]:
    """One ranking per query against task t_prime at checkpoint params.version.

    query_embs come from params. Only old tasks (t_prime != t) differ
    between strategies: reindex rebuilds the index from corpus with params,
    qdc maps each query back along the ledger's drift path, and plain
    searches the stored index as it is.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    t = params.version
    if strategy == "reindex" and t_prime != t:
        index = build_index(params, corpus, t_prime)
    elif strategy == "qdc" and t_prime < t:
        query_embs = [
            compensate_query_path(ledger, emb, t_prime, t) for emb in query_embs
        ]
    return [search_topk(index, emb, k) for emb in query_embs]


def _run(
    state: ContinualState, data: TaskDataset, index, strategy: str, k: int
) -> RetrievalRun:
    """Rank data's test queries, encoded by the current model."""
    params = state.params
    embs = encode_batch(params, query_features(data, params.vocab_size))
    rankings = retrieve(
        params, index, data.corpus, state.ledger, embs, data.task_id, strategy, k
    )
    results = dict(zip([query_id for query_id, _ in data.queries_test], rankings))
    return RetrievalRun(
        task=data.task_id, checkpoint=state.trained_through, k=k, results=results
    )


def retrieve_eval(
    state: ContinualState, t_prime: int, strategy: str, k: int
) -> RetrievalRun:
    """Evaluate task t_prime at the current checkpoint with one strategy."""
    if t_prime not in state.indexes:
        raise MissingIndexError(f"no index for task {t_prime}")
    data = state.datasets[t_prime]
    return _run(state, data, state.indexes[t_prime], strategy, k)


def zero_shot_run(state: ContinualState, data: TaskDataset, k: int) -> RetrievalRun:
    """Future-task evaluation: current model on both queries and index."""
    return _run(state, data, state.indexes.get(data.task_id), "reindex", k)


def train_trajectory(
    datasets: list[TaskDataset], kd: bool, config: RunConfig
) -> list[ContinualState]:
    """All checkpoint states, one per task, trained in task order."""
    ordered = sorted(datasets, key=lambda ds: ds.task_id)
    if [ds.task_id for ds in ordered] != list(range(1, len(ordered) + 1)):
        raise DataMismatchError("task ids must be contiguous from 1")
    state = init_state(config, kd, ordered)
    checkpoints = []
    for ds in ordered:
        state = train_task(state, ds, config)
        checkpoints.append(state)
    return checkpoints


def evaluate_matrix(
    checkpoints: list[ContinualState],
    strategy: str,
    k: int,
    method: str,
) -> RunResult:
    """Metric matrix over every (checkpoint, task) cell, future cells
    zero-shot."""
    num_tasks = len(checkpoints)
    cells = {}
    for t, state in enumerate(checkpoints, start=1):
        for t_prime in range(1, num_tasks + 1):
            data = state.datasets[t_prime]
            if t_prime <= t:
                run = retrieve_eval(state, t_prime, strategy, k)
            else:
                run = zero_shot_run(state, data, k)
            cells[(t, t_prime)] = compute_metrics(run, data.qrels, k)
    return RunResult(method=method, k=k, num_tasks=num_tasks, cells=cells)


def run_continual(
    datasets: list[TaskDataset], method: str, config: RunConfig
) -> RunResult:
    """Train one trajectory and evaluate the full matrix for one method."""
    kd, strategy = parse_method(method)
    checkpoints = train_trajectory(datasets, kd, config)
    return evaluate_matrix(checkpoints, strategy, config.k, method)


def bench(
    datasets: list[TaskDataset], config: RunConfig
) -> tuple[list[RunResult], dict[bool, list[ContinualState]]]:
    """All six methods over two shared trajectories (with and without KD)."""
    trajectories = {
        False: train_trajectory(datasets, False, config),
        True: train_trajectory(datasets, True, config),
    }
    results = []
    for method in METHODS:
        kd, strategy = parse_method(method)
        results.append(
            evaluate_matrix(trajectories[kd], strategy, config.k, method)
        )
    return results, trajectories


def results_to_csv(results: list[RunResult]) -> str:
    """Machine-readable matrix: checkpoint, task, method, metric, value."""
    lines = ["checkpoint,task,method,metric,value"]
    for result in results:
        for checkpoint in range(1, result.num_tasks + 1):
            for task in range(1, result.num_tasks + 1):
                report = result.cells[(checkpoint, task)]
                for metric in METRIC_NAMES:
                    lines.append(
                        f"{checkpoint},{task},{result.method},"
                        f"{metric},{report.mean(metric)!r}"
                    )
    return "\n".join(lines) + "\n"


def comparison_to_csv(results: list[RunResult], metric: str = "ndcg") -> str:
    """Final-checkpoint scores per task and their average, one method a row."""
    if not results:
        return "method\n"
    num_tasks = results[0].num_tasks
    header = ["method"] + [f"task{t}" for t in range(1, num_tasks + 1)] + ["avg"]
    lines = [",".join(header)]
    for result in results:
        scores = [
            result.score(num_tasks, task, metric)
            for task in range(1, num_tasks + 1)
        ]
        avg = float(np.mean(scores))
        lines.append(
            ",".join([result.method] + [repr(s) for s in scores] + [repr(avg)])
        )
    return "\n".join(lines) + "\n"


def _fmt_cell(value: float | None) -> str:
    if value is None:
        return f"{'-':>7}"
    return f"{value * 100.0:7.1f}"


def render_matrix_table(result: RunResult, metric: str = "ndcg") -> str:
    """Checkpoint-by-task table with a PD row, scores x100, one decimal."""
    num_tasks = result.num_tasks
    lines = [f"{result.method}  ({metric}@{result.k} x100)"]
    header = f"{'ckpt':<6}" + "".join(
        f"{f'task{t}':>8}" for t in range(1, num_tasks + 1)
    )
    lines.append(header + f"{'avg':>8}")
    for checkpoint in range(1, num_tasks + 1):
        scores = [
            result.score(checkpoint, task, metric)
            for task in range(1, num_tasks + 1)
        ]
        row = f"T{checkpoint:<5}" + "".join(f" {_fmt_cell(s)}" for s in scores)
        lines.append(row + f" {_fmt_cell(float(np.mean(scores)))}")
    pd_report = performance_drop(result, metric)
    pd_cells = [
        pd_report.per_task.get(task) for task in range(1, num_tasks + 1)
    ]
    lines.append(f"{'PD':<6}" + "".join(f" {_fmt_cell(v)}" for v in pd_cells))
    return "\n".join(lines) + "\n"


def render_comparison_table(
    results: list[RunResult], metric: str = "ndcg"
) -> str:
    """Final-checkpoint per-task scores for every method, x100."""
    if not results:
        return ""
    num_tasks = results[0].num_tasks
    width = max(len(r.method) for r in results) + 2
    lines = [f"final checkpoint ({metric}@{results[0].k} x100)"]
    header = f"{'method':<{width}}" + "".join(
        f"{f'task{t}':>8}" for t in range(1, num_tasks + 1)
    )
    lines.append(header + f"{'avg':>8}")
    for result in results:
        scores = [
            result.score(num_tasks, task, metric)
            for task in range(1, num_tasks + 1)
        ]
        row = f"{result.method:<{width}}" + "".join(
            f" {_fmt_cell(s)}" for s in scores
        )
        lines.append(row + f" {_fmt_cell(float(np.mean(scores)))}")
    return "\n".join(lines) + "\n"


def render_report(results: list[RunResult], metric: str = "ndcg") -> str:
    """Comparison table plus one matrix table per method."""
    parts = [render_comparison_table(results, metric)]
    for result in results:
        parts.append(render_matrix_table(result, metric))
    return "\n".join(parts)
