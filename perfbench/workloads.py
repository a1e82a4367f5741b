"""The three workloads of the qdc benchmark.

Every workload is closed loop with one client: the next operation starts
when the previous one returns. A run repeats whole passes of its workload
until `--seconds` have gone by, and always makes at least one. Passes after
the first run with warm process-level caches (pipeline's tokenizer cache),
as they would in one long-lived process. The workload seed sets both
`StreamSpec.seed` and `RunConfig.seed`.

The qdc functions are always reached through their module
(`index.search_topk`, not a name imported here), so the tracer's wrappers
see every call the benchmark makes.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from qdc import cli, datagen, drift, encoder, index, metrics, pipeline
from qdc.config import RunConfig, save_config

import checks

K = 10
# Set-up steps cheap enough to repeat run this many times; the median counts.
SETUP_REPEATS = 3
# Served queries compared against the reference scan and served a second
# time, per pass.
SCAN_SAMPLE = 200
# Reindexed-index searches compared against the reference scan, per task.
REINDEX_SAMPLE = 20


class Tally:
    """Operations attempted and failed; a failed check or an exception fails."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.append(f"{label}: {problems[0]}")


@contextlib.contextmanager
def guarded(problems: list[str]):
    """Turn an exception in the block into a problem of the operation.

    The run goes on; the caller records the operation as failed.
    """
    try:
        yield
    except Exception as exc:  # the benchmark keeps running and counts it
        problems.append(f"raised {type(exc).__name__}: {exc}")


@dataclass
class Context:
    seed: int
    seconds: float
    tracer: object
    work_dir: Path
    # reference-speed clock (refclock.RefClock): seconds since process start
    clock: object
    # StreamSpec fields applied over the workload's own sizes (smoke test)
    shrink: dict = field(default_factory=dict)


@dataclass
class Reindexed:
    """Documents reindexed and the seconds it took, over all passes."""

    docs: int = 0
    seconds: float = 0.0


@dataclass
class Outcome:
    setup_s: float
    op_ms: list[float]  # on the reference clock
    tally: Tally
    op_wall_ms: list[float] = field(default_factory=list)  # the same, on the wall
    # workload-specific metric names, value and unit, printed for people
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stream: dict  # StreamSpec fields that differ from the shipped stream
    run: Callable[[Context, "Workload"], Outcome]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _spec(ctx: Context, wl: Workload) -> datagen.StreamSpec:
    return replace(datagen.StreamSpec(seed=ctx.seed), **{**wl.stream, **ctx.shrink})


def _config(ctx: Context, spec) -> RunConfig:
    return RunConfig(seed=ctx.seed, stream=spec)


def _closed_loop(ctx: Context, one_pass: Callable[[int], None]) -> None:
    start = ctx.clock.now()
    n = 0
    while True:
        one_pass(n)
        n += 1
        if ctx.clock.now() - start >= ctx.seconds:
            return


class Timed:
    """Times a block on the reference clock and on the wall."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.ref_s = self.wall_s = 0.0

    def __enter__(self):
        self._ref, self._wall = self.clock.now(), time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.ref_s = self.clock.now() - self._ref
        self.wall_s = time.perf_counter() - self._wall


def _repeated_setup(ctx: Context, spec):
    """Generate the stream SETUP_REPEATS times; return it and the median."""
    # one-off set-up before the first generation: interpreter, imports
    once = ctx.clock.now()
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = ctx.clock.now()
        datasets = datagen.generate_task_stream(spec)
        times.append(ctx.clock.now() - t0)
    ctx.tracer.set_phase("check")
    return datasets, once + statistics.median(times)


def _old_tasks(datasets) -> list:
    """Every task but the last, in task order: the ones REINDEX rebuilds."""
    return sorted(datasets, key=lambda d: d.task_id)[:-1]


def _reindex(ctx, tally, reindexed, params, tasks, label, tmp) -> None:
    """REINDEX of the given tasks: build_index, save_index, load_index.

    Each reindexed task is one operation, added to `reindexed`; its checks
    run outside the timed part.
    """
    for ds in tasks:
        op = f"{label}/reindex-t{ds.task_id}"
        problems: list[str] = []
        with guarded(problems):
            path = Path(tmp) / f"reindex-t{ds.task_id}.idx"
            with ctx.tracer.operation(op, "write"):
                t0 = ctx.clock.now()
                built = index.build_index(params, ds.corpus, ds.task_id)
                index.save_index(built, path)
                loaded = index.load_index(path)
                dt = ctx.clock.now() - t0
            reindexed.docs += len(ds.corpus)
            reindexed.seconds += dt
            problems += _reindexed_problems(ctx, params, ds, built, loaded)
        tally.record(op, problems)


def _reindexed_problems(ctx, params, ds, built, loaded) -> list[str]:
    if loaded.encoder_version != params.version:
        return [f"encoder_version {loaded.encoder_version} != {params.version}"]
    if loaded.doc_ids != [d.doc_id for d in ds.corpus]:
        return ["doc ids differ from the corpus"]
    if not np.array_equal(loaded.rows, built.rows):
        return ["rows changed across save_index/load_index"]
    rng = np.random.default_rng([ctx.seed, ds.task_id, 7])
    count = min(REINDEX_SAMPLE, len(ds.queries_test))
    for i in sorted(rng.choice(len(ds.queries_test), size=count, replace=False)):
        _, text = ds.queries_test[int(i)]
        q = encoder.encode(params, encoder.tokenize(text, params.vocab_size))
        ranking = index.search_topk(loaded, q, K)
        problems = checks.ranking_problems(ranking, K, len(loaded.doc_ids))
        problems = problems or checks.scan_problems(
            ranking, loaded.rows, loaded.doc_ids, q, K
        )
        if problems:
            return problems
    return []


# ---------------------------------------------------------------------------
# bench-shipped


def run_bench_shipped(ctx: Context, wl: Workload) -> Outcome:
    tally = Tally()
    spec = _spec(ctx, wl)
    datasets, setup_s = _repeated_setup(ctx, spec)
    num_tasks = spec.num_tasks
    config = _config(ctx, spec)
    # the shipped stream runs with no config file, as the README shows it
    shipped = spec == datagen.StreamSpec(seed=ctx.seed)
    op_ms: list[float] = []
    op_wall_ms: list[float] = []
    scores_by_pass: list[dict] = []

    def one_pass(n: int) -> None:
        op = f"bench-{n}"
        problems: list[str] = []
        with tempfile.TemporaryDirectory(dir=ctx.work_dir) as tmp:
            args = ["bench", "--seed", str(ctx.seed), "--out", tmp]
            if not shipped:
                save_config(config, Path(tmp) / "config.json")
                args += ["--config", str(Path(tmp) / "config.json")]
            with guarded(problems):
                out = io.StringIO()
                with ctx.tracer.operation(op, "bench"), contextlib.redirect_stdout(out):
                    with Timed(ctx.clock) as timed:
                        code = cli.dispatch(args)
                op_ms.append(1000.0 * timed.ref_s)
                op_wall_ms.append(1000.0 * timed.wall_s)
                if code != 0:
                    problems.append(f"qdc bench exited {code}")
                else:
                    csv_path = Path(tmp) / f"bench-s{ctx.seed}" / "metrics.csv"
                    scores = checks.final_scores(csv_path)
                    scores_by_pass.append(scores)
                    problems += checks.bench_problems(scores, num_tasks)
            tally.record(op, problems)

    _closed_loop(ctx, one_pass)
    outcome = Outcome(setup_s, op_ms, tally, op_wall_ms)
    outcome.named["bench_s"] = (statistics.median(op_ms) / 1000.0, "s")
    if scores_by_pass:
        scores = scores_by_pass[0]
        qdc_pts = checks.old_task_avg_pts(scores, "FT+QDC", num_tasks)
        ft_pts = checks.old_task_avg_pts(scores, "FT", num_tasks)
        outcome.named["ndcg10_qdc_old"] = (qdc_pts, "points")
        outcome.named["qdc_gap_pts"] = (qdc_pts - ft_pts, "points")
    return outcome


# ---------------------------------------------------------------------------
# train-kd


def run_train_kd(ctx: Context, wl: Workload) -> Outcome:
    tally = Tally()
    spec = _spec(ctx, wl)
    datasets, setup_s = _repeated_setup(ctx, spec)
    config = _config(ctx, spec)
    pairs = sum(len(ds.train_pairs) for ds in datasets)
    op_ms: list[float] = []
    op_wall_ms: list[float] = []
    trajectories = []

    def one_pass(n: int) -> None:
        op = f"train-{n}"
        problems: list[str] = []
        with guarded(problems):
            with ctx.tracer.operation(op, "train"), Timed(ctx.clock) as timed:
                checkpoints = pipeline.train_trajectory(datasets, True, config)
            op_ms.append(1000.0 * timed.ref_s)
            op_wall_ms.append(1000.0 * timed.wall_s)
            if not trajectories:  # the quality check reads the first one
                trajectories.append(checkpoints)
        # one operation per training task
        for t in range(1, spec.num_tasks + 1):
            task_problems = list(problems)
            if not problems:
                task_problems += _checkpoint_problems(checkpoints[t - 1], t)
            tally.record(f"{op}/task{t}", task_problems)

    _closed_loop(ctx, one_pass)
    outcome = Outcome(setup_s, op_ms, tally, op_wall_ms)
    total_s = sum(op_ms) / 1000.0
    outcome.named["train_pairs_per_s"] = (pairs * len(op_ms) / total_s, "pairs/s")
    if not trajectories:
        return outcome
    # quality at the final checkpoint of the first trajectory, FT+KD and
    # FT+KD+QDC on every task
    state = trajectories[0][-1]
    final = spec.num_tasks
    ndcg = {}
    with ctx.tracer.operation("eval", "check"):
        for strategy in ("plain", "qdc"):
            for t in range(1, final + 1):
                run = pipeline.retrieve_eval(state, t, strategy, K)
                report = metrics.compute_metrics(run, state.datasets[t].qrels, K)
                ndcg[strategy, t] = 100.0 * report.mean("ndcg")
    problems = []
    if ndcg["qdc", final] != ndcg["plain", final]:
        problems.append("FT+KD and FT+KD+QDC disagree on the final task")
    tally.record("eval", problems)
    outcome.named["ndcg10_train_kd"] = (
        float(np.mean([ndcg["qdc", t] for t in range(1, final + 1)])),
        "points",
    )
    outcome.named["kd_qdc_gap_pts"] = (
        float(np.mean([ndcg["qdc", t] - ndcg["plain", t] for t in range(1, final)])),
        "points",
    )
    return outcome


def _checkpoint_problems(state, t: int) -> list[str]:
    if state.trained_through != t or state.params.version != t:
        return [f"checkpoint {t} reports version {state.params.version}"]
    if len(state.ledger.records) != t - 1:
        return [f"{len(state.ledger.records)} drift records after task {t}"]
    if sorted(state.indexes) != list(range(1, t + 1)):
        return [f"indexes {sorted(state.indexes)} after task {t}"]
    return []


# ---------------------------------------------------------------------------
# serve-scaled


def run_serve_scaled(ctx: Context, wl: Workload) -> Outcome:
    tally = Tally()
    spec = _spec(ctx, wl)
    config = _config(ctx, spec)
    datasets = datagen.generate_task_stream(spec)
    final = spec.num_tasks
    checkpoints = pipeline.train_trajectory(datasets, False, config)
    state = checkpoints[-1]
    with tempfile.TemporaryDirectory(dir=ctx.work_dir) as tmp:
        run_dir = Path(tmp)
        encoder.save_snapshot(state.params, run_dir / "final.enc")
        for t, built in state.indexes.items():
            index.save_index(built, run_dir / f"task{t}.idx")
        (run_dir / "ledger.json").write_text(
            json.dumps(drift.ledger_to_dict(state.ledger)), encoding="utf-8"
        )
        params = encoder.load_snapshot(run_dir / "final.enc")
        indexes = {
            t: index.load_index(run_dir / f"task{t}.idx") for t in range(1, final + 1)
        }
        ledger = drift.ledger_from_dict(
            json.loads((run_dir / "ledger.json").read_text(encoding="utf-8"))
        )
        del checkpoints, state
        setup_s = ctx.clock.now()
        ctx.tracer.set_phase("check")

        queries = [
            (ds.task_id, qid, text) for ds in datasets for qid, text in ds.queries_test
        ]
        # every test query is served once, in a seeded order interleaving
        # the tasks
        order = np.random.default_rng([ctx.seed, 1]).permutation(len(queries))
        scan_sample = set(
            np.random.default_rng([ctx.seed, 2])
            .choice(len(order), size=min(SCAN_SAMPLE, len(order)), replace=False)
            .tolist()
        )
        vocab = params.vocab_size
        old = _old_tasks(datasets)
        # the write phase is interleaved with the read phase, one reindexed
        # task between chunks of queries, so each phase samples the whole
        # pass's stretch of time on the host
        chunks = np.array_split(np.arange(len(order)), len(old) + 1)
        op_ms: list[float] = []
        op_wall_ms: list[float] = []
        reindexed = Reindexed()
        served: list[dict] = []

        def serve(task, text):
            """FT+QDC as `qdc retrieve` does it: the embedding and the ranking."""
            emb = encoder.encode(params, encoder.tokenize(text, vocab))
            if task < final:
                emb = drift.compensate_query_path(ledger, emb, task, final)
            return emb, index.search_topk(indexes[task], emb, K)

        def one_pass(n: int) -> None:
            answers = []  # (position in order, task, query id, ranking)
            sampled: dict = {}
            read_s = 0.0
            for c, chunk in enumerate(chunks):
                # the read phase is nearly all search_topk; time it against
                # the kernel shaped like it (see refclock.py)
                ctx.clock.use("search")
                read_start = ctx.clock.now()
                for j in chunk:
                    task, qid, text = queries[order[j]]
                    op = f"query-{n}-{j}"
                    problems: list[str] = []
                    with guarded(problems):
                        with ctx.tracer.operation(op, "read"), Timed(ctx.clock) as timed:
                            emb, ranking = serve(task, text)
                        op_ms.append(1000.0 * timed.ref_s)
                        op_wall_ms.append(1000.0 * timed.wall_s)
                        answers.append((j, task, qid, ranking))
                        if j in scan_sample:
                            sampled[j] = emb
                    if problems:
                        tally.record(op, problems)
                read_s += ctx.clock.now() - read_start
                ctx.clock.use("python")
                if c < len(old):
                    _reindex(ctx, tally, reindexed, params, [old[c]], f"pass-{n}", tmp)
            rankings: dict = {}
            for j, task, qid, ranking in answers:
                rankings[task, qid] = ranking
                idx = indexes[task]
                problems = checks.ranking_problems(ranking, K, len(idx.doc_ids))
                if not problems and j in sampled:
                    problems = checks.scan_problems(
                        ranking, idx.rows, idx.doc_ids, sampled[j], K
                    )
                    if not problems and serve(task, queries[order[j]][2])[1] != ranking:
                        problems = ["the same query got two different rankings"]
                tally.record(f"query-{n}-{j}", problems)
            served.append(
                {"rankings": rankings, "count": len(answers), "read_s": read_s}
            )

        _closed_loop(ctx, one_pass)

    outcome = Outcome(setup_s, op_ms, tally, op_wall_ms)
    outcome.named["query_p50_ms"] = (statistics.median(op_ms), "ms")
    outcome.named["query_p99_ms"] = (percentile(op_ms, 99), "ms")
    outcome.named["queries_per_s"] = (
        sum(p["count"] for p in served) / sum(p["read_s"] for p in served),
        "1/s",
    )
    outcome.named["reindex_docs_per_s"] = (
        reindexed.docs / reindexed.seconds if reindexed.seconds else 0.0,
        "docs/s",
    )
    outcome.notes.append(
        f"query latency samples: {len(op_ms)} (p99 has {len(op_ms) // 100} beyond it)"
    )
    with ctx.tracer.operation("quality", "check"):
        ndcg = []
        for ds in datasets:
            results = {
                qid: ranking
                for (task, qid), ranking in served[0]["rankings"].items()
                if task == ds.task_id
            }
            ndcg.extend(metrics.compute_metrics(results, ds.qrels, K).ndcg)
    outcome.named["ndcg10_serve"] = (100.0 * float(np.mean(ndcg)), "points")
    return outcome


# Sizes and the reason for each workload sit next to its definition.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="bench-shipped",
            why=(
                "the researcher's loop the README makes claims about: `qdc bench` on the "
                "shipped stream mixes every layer; tokenization and top-k search lead"
            ),
            # 3 tasks x 2,000 docs, 500 train pairs and 200 test queries per task
            stream={},
            run=run_bench_shipped,
        ),
        Workload(
            name="train-kd",
            why=(
                "training layers only (losses, mining, SGD); search does no work, so a "
                "search-side change must leave it unchanged"
            ),
            # 3 tasks x 2,000 docs, 4,000 train pairs per task, KD trajectory
            stream={"train_pairs_per_task": 4000},
            run=run_train_kd,
        ),
        Workload(
            name="serve-scaled",
            why=(
                "the paper's trade-off: FT+QDC queries over frozen 20k-doc indexes "
                "(read) against REINDEX of the old tasks (write)"
            ),
            # 3 tasks x 20,000 docs, 1,000 test queries per task: 3,000 served
            # queries and 40,000 reindexed docs per pass
            stream={"docs_per_task": 20000, "test_queries_per_task": 1000},
            run=run_serve_scaled,
        ),
    )
}
