"""End-to-end continual training and retrieval evaluation.

One trajectory trains f_1..f_T task by task (optionally with distillation),
indexing each corpus with its own model and recording per-transition drift.
Retrieval strategies then read the same frozen state: plain search, drift
compensation, or re-indexing. Training is retrieval-strategy independent,
so FT and FT+QDC share bit-identical snapshots.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .config import METHODS, RunConfig, derive_rng, parse_method
from .datagen import TaskDataset, validate_dataset
from .drift import (
    DriftLedger,
    append_record,
    compensate_query_path,
    mean_drift,
)
from .encoder import (
    EncoderParams,
    FeatureRows,
    contrastive_loss,
    encode_batch,
    init_params,
    sgd_step,
    # unused here: perfbench/test_smoke.py checks that its tracer leaves no
    # wrapper on this binding
    tokenize,
    tokenize_rows,
)
from .errors import DataMismatchError, MissingIndexError
from .index import (
    _SEARCH_SCORES,
    CorpusIndex,
    build_index,
    corpus_rows,
    eval_query_rows,
    search_rows,
    train_query_rows,
)
from .metrics import METRIC_NAMES, MetricReport, compute_metrics, performance_drop
from .vecops import above_floor, id_rank, top_per_row

STRATEGIES = ("plain", "qdc", "reindex")

# scores computed at a time while mining: a block of queries against the
# whole corpus, 16 MB at most however large the corpus
_MINE_SCORES = 1 << 21
# training folds a weight scale below this into v, so that v stays within
# 1,000x of the weights it stands for
_SCALE_FLOOR = 1e-3


@dataclass(frozen=True)
class RetrievalRun:
    """Ranked lists for one evaluated task."""

    task: int
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


@dataclass(frozen=True, eq=False)
class ContinualState:
    """One checkpoint: f_t, the indexes of tasks 1..t, the drift recorded
    up to t, and the datasets of every task. States compare by identity, so
    trajectories that share a checkpoint share its evaluation."""

    params: EncoderParams
    indexes: dict[int, CorpusIndex]
    ledger: DriftLedger
    datasets: dict[int, TaskDataset]

    @property
    def trained_through(self) -> int:
        return self.params.version


def init_state(config: RunConfig, datasets=()) -> ContinualState:
    """Fresh state holding the shared pre-trained stand-in f_0 and the
    datasets of tasks 1..T."""
    if sorted(ds.task_id for ds in datasets) != list(range(1, len(datasets) + 1)):
        raise DataMismatchError("task ids must be contiguous from 1")
    params = init_params(
        config.vocab_size,
        config.dim,
        config.temperature,
        derive_rng(config.seed, "init"),
    )
    for ds in datasets:
        validate_dataset(ds)
    return ContinualState(
        params=params,
        indexes={},
        ledger=DriftLedger(dim=config.dim),
        datasets={ds.task_id: ds for ds in datasets},
    )


def mine_hard_negatives(
    params: EncoderParams,
    pairs: list[tuple[str, str]],
    corpus,
    h: int,
    queries: FeatureRows | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, d+) -> the top-h most similar docs excluding every positive of q.

    Returns (negs, q_units, doc_units). Row i of negs holds pair i's
    negatives as corpus positions, best first, padded with -1 when the
    corpus has fewer than h other documents. q_units and doc_units are
    params' embeddings of the pairs' queries and of the corpus. queries is
    the pairs' queries' table (one row per pair) when the caller has it.
    A block's positives are set to -inf; above_floor keeps each row's
    candidates, as in search_rows, and one top_per_row ranks them.
    """
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    vocab = params.vocab_size
    if queries is None:
        queries = tokenize_rows([q for q, _ in pairs], vocab)
    q_units = encode_batch(params, queries)
    doc_units = encode_batch(params, corpus_rows(corpus, vocab))
    negs = np.full((len(pairs), h), -1, dtype=np.intp)
    if h == 0 or not pairs:
        return negs, q_units, doc_units
    rank = id_rank([d.doc_id for d in corpus])
    position = {d.doc_id: j for j, d in enumerate(corpus)}
    positives: dict[str, list[int]] = {}
    for query, doc_id in pairs:
        positives.setdefault(query, []).append(position[doc_id])
    # every (pair, positive of its query), in pair order
    excluded = [(i, j) for i, (q, _) in enumerate(pairs) for j in positives[q]]
    pair_of, excluded = np.array(excluded, dtype=np.intp).T
    step = max(1, _MINE_SCORES // len(corpus))
    # rows selected at a time: bounds the candidates a tie-heavy block hands
    # to top_per_row; selecting a whole block was no faster at 2k or 20k docs
    sub = max(1, _SEARCH_SCORES // len(corpus))
    for lo in range(0, len(pairs), step):
        scores = q_units[lo : lo + step] @ doc_units.T
        a, b = np.searchsorted(pair_of, [lo, lo + step])
        scores[pair_of[a:b] - lo, excluded[a:b]] = -np.inf
        for s in range(0, len(scores), sub):
            block = scores[s : s + sub]
            row, cand = above_floor(block, min(h, len(corpus)))
            picks, slots = top_per_row(row, block[row, cand], rank[cand], h)
            negs[lo + s + row[picks], slots] = cand[picks]
    return negs, q_units, doc_units


class _TaskRows(NamedTuple):
    """A task's training populations as feature tables, and their mining.

    Pair i is queries row i with positive docs row pos[i] and hard
    negatives negs[i] (docs rows, -1 padded). targets are the previous
    encoder's embeddings of every pair's query and positive, on KD tasks
    only.
    """

    queries: FeatureRows
    docs: FeatureRows
    pos: np.ndarray
    negs: np.ndarray
    targets: tuple[np.ndarray, np.ndarray] | None


def _train_params(
    start: EncoderParams,
    version: int,
    rows: _TaskRows,
    shuffle_rng: np.random.Generator,
    config: RunConfig,
) -> EncoderParams:
    # W = scale * v: a step writes only its batch's rows of v and decays
    # scale. Both losses L2-normalize every embedding, so they take the same
    # value at v as at W, and their gradient at v is scale times that at W.
    v = start.W.copy()
    scale = 1.0
    params = replace(start, W=v, version=version)
    queries, docs, pos, negs, targets = rows
    n = len(queries)
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        for lo in range(0, n, config.batch_size):
            sel = order[lo : lo + config.batch_size]
            batch_targets = (
                None if targets is None else (targets[0][sel], targets[1][sel])
            )
            _, grads = contrastive_loss(
                params, queries, docs, sel, pos[sel], negs[sel], targets=batch_targets
            )
            scale = sgd_step(v, scale, grads, config.lr, config.wd)
            if scale < _SCALE_FLOOR:
                v *= scale
                scale = 1.0
    # in place: a second V x d array here would set the task's peak memory
    v *= scale
    return params


def _prepare_rows(
    data: TaskDataset, params: EncoderParams, h: int, kd: bool
) -> tuple[_TaskRows, np.ndarray]:
    """Tables of the task's training queries and of its corpus, the
    negatives and distillation targets mined with params, and params'
    embeddings of the training queries."""
    queries = train_query_rows(data, params.vocab_size)
    docs = corpus_rows(data.corpus, params.vocab_size)
    position = {d.doc_id: j for j, d in enumerate(data.corpus)}
    pos = np.fromiter(
        (position[doc_id] for _, doc_id in data.train_pairs),
        np.intp,
        len(data.train_pairs),
    )
    negs, q_units, doc_units = mine_hard_negatives(
        params, data.train_pairs, data.corpus, h, queries
    )
    targets = (q_units, doc_units[pos]) if kd else None
    return _TaskRows(queries, docs, pos, negs, targets), q_units


def train_task(
    state: ContinualState, config: RunConfig, kd: bool = False
) -> ContinualState:
    """Train f_t from f_{t-1} on state's dataset of task t, distilling
    toward f_{t-1} when kd and t > 1; index C_t and record the drift
    t-1 -> t."""
    t = state.trained_through + 1
    if t not in state.datasets:
        raise DataMismatchError(f"no dataset registered for task {t}")
    data = state.datasets[t]
    prev = state.params
    rows, q_old = _prepare_rows(data, prev, config.hard_negatives, kd=kd and t > 1)
    params = _train_params(
        start=prev,
        version=t,
        rows=rows,
        shuffle_rng=derive_rng(config.seed, "shuffle", t),
        config=config,
    )

    ledger = state.ledger
    if t > 1:
        # mining encoded the same queries with f_{t-1}: only f_t's side is new
        q_new = encode_batch(params, rows.queries)
        ledger = append_record(ledger, mean_drift(q_new, q_old, t - 1, t))

    indexes = dict(state.indexes)
    indexes[t] = build_index(params, data.corpus, t)
    return ContinualState(params, indexes, ledger, state.datasets)


def retrieve(
    params: EncoderParams,
    index: CorpusIndex | None,
    corpus,
    ledger: DriftLedger,
    query_embs: np.ndarray,
    t_prime: int,
    strategy: str,
    k: int,
) -> list[list[tuple[str, float]]]:
    """One ranking per row of the (n, d) query_embs against task t_prime at
    checkpoint params.version.

    query_embs come from params. Only old tasks (t_prime != t) differ
    between strategies: reindex rebuilds the index from corpus with params,
    qdc maps the queries back along the ledger's drift path, and plain
    searches the stored index as it is. The whole matrix is ranked at once
    (index.search_rows).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    t = params.version
    if strategy == "reindex" and t_prime != t:
        index = build_index(params, corpus, t_prime)
    elif strategy == "qdc" and t_prime < t:
        query_embs = compensate_query_path(ledger, query_embs, t_prime, t)
    return search_rows(index, query_embs, k)


def _eval_query_embs(params: EncoderParams, data: TaskDataset) -> np.ndarray:
    """data's test queries encoded by params, one row per query."""
    return encode_batch(params, eval_query_rows(data, params.vocab_size))


def retrieve_eval(
    state: ContinualState,
    t_prime: int,
    strategy: str,
    k: int,
    query_embs: np.ndarray | None = None,
) -> RetrievalRun:
    """Rank task t_prime's test queries at the current checkpoint with one
    strategy.

    A task with a stored index is searched through it. A future task has
    none, and only reindex, which builds it with the current model, can
    search it. query_embs, when given, are the task's test queries as the
    checkpoint's model encodes them; they are encoded here otherwise.
    """
    index = state.indexes.get(t_prime)
    if index is None and strategy != "reindex":
        raise MissingIndexError(f"no index for task {t_prime}")
    data = state.datasets[t_prime]
    params = state.params
    if query_embs is None:
        query_embs = _eval_query_embs(params, data)
    rankings = retrieve(
        params, index, data.corpus, state.ledger, query_embs, t_prime, strategy, k
    )
    results = dict(zip([query_id for query_id, _ in data.queries_test], rankings))
    return RetrievalRun(task=t_prime, results=results)


def zero_shot_run(
    state: ContinualState,
    data: TaskDataset,
    k: int,
    query_embs: np.ndarray | None = None,
) -> RetrievalRun:
    """Future-task evaluation: current model on both queries and index.
    data is one of state's datasets."""
    return retrieve_eval(state, data.task_id, "reindex", k, query_embs)


def train_trajectory(
    datasets: list[TaskDataset], kd: bool, config: RunConfig
) -> list[ContinualState]:
    """All checkpoint states, one per task, trained in task order."""
    return train_from(init_state(config, datasets), config, kd)


def train_from(
    state: ContinualState, config: RunConfig, kd: bool = False
) -> list[ContinualState]:
    """Checkpoint states after each registered task that state has not
    trained yet, in order."""
    checkpoints = []
    while state.trained_through < len(state.datasets):
        state = train_task(state, config, kd)
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
    (result,) = _evaluate([(method, strategy, checkpoints)], k)
    return result


def evaluate_methods(
    trajectories: dict[bool, list[ContinualState]], methods, k: int
) -> list[RunResult]:
    """One metric matrix per method, over the trajectory of its kd flag."""
    jobs = []
    for method in methods:
        kd, strategy = parse_method(method)
        jobs.append((method, strategy, trajectories[kd]))
    return _evaluate(jobs, k)


def _evaluate(
    jobs: list[tuple[str, str, list[ContinualState]]], k: int
) -> list[RunResult]:
    """Matrices for (method, strategy, checkpoints) jobs.

    Strategies differ only on old tasks (t' < t), so each cell is evaluated
    once per key (checkpoint, t', strategy), where the diagonal and future
    (zero-shot) cells leave the strategy out and strategies share them.
    Checkpoints are keyed by identity, so trajectories that share one
    evaluate its cells once, and a checkpoint encodes each task's test
    queries once for all its cells.
    """
    memo: dict[tuple, MetricReport] = {}
    embs: dict[tuple, np.ndarray] = {}
    results = []
    for method, strategy, checkpoints in jobs:
        num_tasks = len(checkpoints)
        cells = {}
        for t, state in enumerate(checkpoints, start=1):
            for t_prime in range(1, num_tasks + 1):
                key = (state, t_prime, strategy if t_prime < t else None)
                if key not in memo:
                    data = state.datasets[t_prime]
                    queries = embs.get((state, t_prime))
                    if queries is None:
                        queries = _eval_query_embs(state.params, data)
                        embs[state, t_prime] = queries
                    cell_strategy = strategy if t_prime <= t else "reindex"
                    run = retrieve_eval(state, t_prime, cell_strategy, k, queries)
                    memo[key] = compute_metrics(run, data.qrels, k)
                cells[(t, t_prime)] = memo[key]
        results.append(
            RunResult(method=method, k=k, num_tasks=num_tasks, cells=cells)
        )
    return results


def bench(
    start: ContinualState, config: RunConfig
) -> tuple[list[RunResult], dict[bool, list[ContinualState]]]:
    """All six methods over two shared trajectories (with and without KD).

    Both trajectories train from start, an untrained state (init_state)
    with every task's dataset. Task 1 trains without distillation, so the
    KD trajectory starts from the FT trajectory's first checkpoint, the
    same object.
    """
    ft = train_from(start, config)
    kd = ft[:1] + train_from(ft[0], config, kd=True)
    trajectories = {False: ft, True: kd}
    return evaluate_methods(trajectories, METHODS, config.k), trajectories


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


def _score_row(
    result: RunResult, checkpoint: int, metric: str
) -> tuple[list[float], float]:
    """A checkpoint's score on every task, and their mean."""
    scores = [
        result.score(checkpoint, task, metric)
        for task in range(1, result.num_tasks + 1)
    ]
    return scores, float(np.mean(scores))


def comparison_to_csv(results: list[RunResult], metric: str = "ndcg") -> str:
    """Final-checkpoint scores per task and their average, one method a row."""
    if not results:
        return "method\n"
    num_tasks = results[0].num_tasks
    header = ["method"] + [f"task{t}" for t in range(1, num_tasks + 1)] + ["avg"]
    lines = [",".join(header)]
    for result in results:
        scores, avg = _score_row(result, num_tasks, metric)
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
        scores, avg = _score_row(result, checkpoint, metric)
        row = f"T{checkpoint:<5}" + "".join(f" {_fmt_cell(s)}" for s in scores)
        lines.append(row + f" {_fmt_cell(avg)}")
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
        scores, avg = _score_row(result, num_tasks, metric)
        row = f"{result.method:<{width}}" + "".join(
            f" {_fmt_cell(s)}" for s in scores
        )
        lines.append(row + f" {_fmt_cell(avg)}")
    return "\n".join(lines) + "\n"


def render_report(results: list[RunResult], metric: str = "ndcg") -> str:
    """Comparison table plus one matrix table per method."""
    parts = [render_comparison_table(results, metric)]
    for result in results:
        parts.append(render_matrix_table(result, metric))
    return "\n".join(parts)
