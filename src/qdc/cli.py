"""Command-line entry points for scripts and CI.

Subcommands: gen-data, train, bench, retrieve, eval, drift-report,
grad-check. Exit codes: 0 success, 2 usage error, 1 runtime error.
Artifacts land under out/{run_id}/ with stable names so retrieve and
eval can reload a finished run without retraining.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import cached_property
from pathlib import Path

from .config import (
    METHODS,
    RunConfig,
    apply_overrides,
    load_config,
    parse_method,
    save_config,
)
from .datagen import TaskDataset, generate_task_stream, export_stream, load_beir_dataset
from .drift import DriftLedger, ledger_from_dict, ledger_to_dict
from .encoder import encode, grad_check, load_snapshot, save_snapshot, tokenize
from .errors import (
    ConfigError,
    CorruptIndexError,
    CorruptLedgerError,
    CorruptSnapshotError,
    QdcError,
)
from .fileio import atomic_write_text
from .index import load_index, save_index
from .metrics import drift_report, drift_report_csv
from .pipeline import (
    ContinualState,
    bench,
    comparison_to_csv,
    evaluate_methods,
    init_state,
    render_comparison_table,
    render_report,
    results_to_csv,
    retrieve,
    train_from,
)

GRAD_TOL = 1e-4


def _slug(kd: bool) -> str:
    return "ft_kd" if kd else "ft"


def _load_datasets(config: RunConfig) -> list[TaskDataset]:
    if config.datasets is None:
        return generate_task_stream(config.stream)
    out = []
    for i, entry in enumerate(config.datasets, start=1):
        try:
            out.append(
                load_beir_dataset(
                    corpus_path=entry["corpus"],
                    queries_path=entry["queries"],
                    qrels_path=entry["qrels"],
                    pairs_path=entry.get("pairs"),
                    task_id=int(entry.get("task_id", i)),
                )
            )
        except KeyError as exc:
            raise ConfigError(f"dataset entry {i} missing key {exc}") from exc
    return out


def _resolve_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    config = apply_overrides(
        config,
        seed=args.seed,
        method=getattr(args, "method", None),
        k=getattr(args, "k", None),
        out_dir=args.out,
    )
    if args.seed is not None:
        config = replace(config, stream=replace(config.stream, seed=args.seed))
    return config


def _artifact_path(run_dir: Path, kind: str, slug: str, t: int) -> Path:
    """The one place a run's per-checkpoint files live: kind "enc" is f_t
    of trajectory slug, kind "idx" its frozen index of task t."""
    folder = "snapshots" if kind == "enc" else "indexes"
    return run_dir / folder / slug / f"task{t}.{kind}"


def _write_json(path: Path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_run(
    config: RunConfig,
    f0,
    trajectories: dict[bool, list[ContinualState]],
    results,
) -> None:
    """out_dir/run_id: the config, each trajectory's snapshots (from f0)
    and indexes, their final ledgers, and the metric reports."""
    run_dir = Path(config.out_dir) / config.run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    save_config(config, run_dir / "config.json")
    ledgers = {}
    for kd, checkpoints in trajectories.items():
        slug = _slug(kd)
        for kind in ("enc", "idx"):
            _artifact_path(run_dir, kind, slug, 0).parent.mkdir(
                parents=True, exist_ok=True
            )
        save_snapshot(f0, _artifact_path(run_dir, "enc", slug, 0))
        for state in checkpoints:
            t = state.trained_through
            save_snapshot(state.params, _artifact_path(run_dir, "enc", slug, t))
            save_index(state.indexes[t], _artifact_path(run_dir, "idx", slug, t))
        ledgers[slug] = ledger_to_dict(checkpoints[-1].ledger)
    _write_json(run_dir / "ledger.json", ledgers)
    atomic_write_text(run_dir / "metrics.csv", results_to_csv(results))
    atomic_write_text(run_dir / "comparison.csv", comparison_to_csv(results))
    atomic_write_text(run_dir / "table.txt", render_report(results))
    print(render_comparison_table(results), end="")
    print(f"artifacts in {run_dir}")


class _Run:
    """A finished run directory, read piece by piece.

    Every piece must belong to the run's config.json, or loading it raises:
    task{t}.enc holds encoder version t with the config's vocab size, dim
    and temperature; task{t}.idx holds task t, built by version t, in the
    config's dim; a trajectory's ledger has the config's dim and exactly
    the transitions 1->2 ... T-1->T of the config's T tasks.
    """

    def __init__(self, run_dir) -> None:
        self.dir = Path(run_dir)
        self.config = load_config(self.dir / "config.json")
        datasets = self.config.datasets
        self.num_tasks = (
            self.config.stream.num_tasks if datasets is None else len(datasets)
        )
        path = self.dir / "ledger.json"
        try:
            self._ledgers = json.loads(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptLedgerError(f"ledger map is not UTF-8 JSON: {path}") from exc
        if not isinstance(self._ledgers, dict):
            raise CorruptLedgerError(f"ledger map is not an object: {path}")

    def methods(self) -> list[str]:
        """Every method whose trajectory the run stores."""
        return [m for m in METHODS if _slug(parse_method(m)[0]) in self._ledgers]

    def slug(self, method: str) -> str:
        """The stored trajectory method reads."""
        slug = _slug(parse_method(method)[0])
        if slug not in self._ledgers:
            raise ConfigError(f"run has no {slug} trajectory for {method}")
        return slug

    def snapshot(self, slug: str, t: int):
        path = _artifact_path(self.dir, "enc", slug, t)
        p, c = load_snapshot(path), self.config
        if (p.version, p.vocab_size, p.dim, p.temperature) != (
            t, c.vocab_size, c.dim, c.temperature
        ):
            raise CorruptSnapshotError(
                f"encoder version {p.version}, vocab {p.vocab_size}, dim "
                f"{p.dim}, temperature {p.temperature} in place of version "
                f"{t}, vocab {c.vocab_size}, dim {c.dim}, temperature "
                f"{c.temperature}: {path}"
            )
        return p

    def index(self, slug: str, t: int):
        path = _artifact_path(self.dir, "idx", slug, t)
        index, dim = load_index(path), self.config.dim
        if (index.task_id, index.encoder_version, index.dim) != (t, t, dim):
            raise CorruptIndexError(
                f"task {index.task_id}, encoder version {index.encoder_version}, "
                f"dim {index.dim} in place of task {t}, version {t}, dim {dim}: "
                f"{path}"
            )
        return index

    def ledger(self, slug: str) -> DriftLedger:
        path, dim = self.dir / "ledger.json", self.config.dim
        try:
            ledger = ledger_from_dict(self._ledgers[slug])
        except CorruptLedgerError as exc:
            raise CorruptLedgerError(f"{exc}: {path}") from exc
        found = [f"{rec.from_task}->{rec.to_task}" for rec in ledger.records]
        expected = [f"{t}->{t + 1}" for t in range(1, self.num_tasks)]
        if (found, ledger.dim) != (expected, dim):
            raise CorruptLedgerError(
                f"{slug} ledger holds [{', '.join(found)}] in dim {ledger.dim} "
                f"in place of [{', '.join(expected)}] in dim {dim}: {path}"
            )
        return ledger

    @cached_property
    def _datasets(self) -> dict[int, TaskDataset]:
        return {ds.task_id: ds for ds in _load_datasets(self.config)}

    def dataset(self, task: int) -> TaskDataset:
        if task not in self._datasets:
            raise ConfigError(f"run has no task {task}")
        return self._datasets[task]

    def trajectory(self, slug: str) -> list[ContinualState]:
        """slug's checkpoints 1..T, as training left them."""
        tasks = range(1, self.num_tasks + 1)
        snapshots = [self.snapshot(slug, t) for t in tasks]
        ledger = self.ledger(slug)
        indexes = {t: self.index(slug, t) for t in tasks}
        return [
            ContinualState(
                params=params,
                indexes={tp: indexes[tp] for tp in range(1, t + 1)},
                ledger=ledger,
                datasets=self._datasets,
            )
            for t, params in zip(tasks, snapshots)
        ]


def _cmd_gen_data(args) -> int:
    datasets = generate_task_stream(_resolve_config(args).stream)
    out_dir = Path(args.out or "data")
    export_stream(datasets, out_dir)
    for ds in datasets:
        print(
            f"task{ds.task_id}: {len(ds.corpus)} docs, "
            f"{len(ds.train_pairs)} train pairs, "
            f"{len(ds.queries_test)} test queries"
        )
    print(f"wrote {len(datasets)} tasks under {out_dir}")
    return 0


def _cmd_train(args) -> int:
    config = _resolve_config(args)
    method = config.method
    kd, _ = parse_method(method)
    run_id = config.run_id or (
        f"train-{method.lower().replace('+', '-')}-s{config.seed}"
    )
    config = replace(config, run_id=run_id)
    start = init_state(config, _load_datasets(config))
    trajectories = {kd: train_from(start, config, kd)}
    results = evaluate_methods(trajectories, [method], config.k)
    _write_run(config, start.params, trajectories, results)
    return 0


def _cmd_bench(args) -> int:
    config = _resolve_config(args)
    run_id = config.run_id or f"bench-s{config.seed}"
    config = replace(config, run_id=run_id)
    start = init_state(config, _load_datasets(config))
    results, trajectories = bench(start, config)
    _write_run(config, start.params, trajectories, results)
    return 0


def _checkpoint_bits(state: ContinualState) -> tuple:
    """A loaded checkpoint's f_t and index t, bit for bit."""
    params, index = state.params, state.indexes[state.trained_through]
    weights = (params.version, params.W.shape, params.W.tobytes())
    return weights + (index.rows.tobytes(), index.doc_ids)


def _cmd_eval(args) -> int:
    run = _Run(args.run)
    methods = [args.method] if args.method else run.methods()
    if not methods:
        raise ConfigError(f"no evaluable trajectories in {run.dir}")
    trajectories: dict[bool, list[ContinualState]] = {}
    for method in methods:
        kd, _ = parse_method(method)
        if kd not in trajectories:
            trajectories[kd] = run.trajectory(run.slug(method))
    ft, ft_kd = trajectories.get(False), trajectories.get(True)
    if ft and ft_kd and _checkpoint_bits(ft[0]) == _checkpoint_bits(ft_kd[0]):
        # FT+KD trains task 1 as FT does: one state, so its cells are shared
        ft_kd[0] = ft[0]
    results = evaluate_methods(trajectories, methods, run.config.k)
    print(results_to_csv(results), end="")
    return 0


def _cmd_retrieve(args) -> int:
    run = _Run(args.run)
    method = args.method or run.config.method
    _, strategy = parse_method(method)
    num_tasks = run.num_tasks
    checkpoint = args.checkpoint if args.checkpoint is not None else num_tasks
    task = args.task
    if not 1 <= task <= num_tasks:
        raise ConfigError(f"task must be in 1..{num_tasks}")
    if not task <= checkpoint <= num_tasks:
        raise ConfigError(
            f"checkpoint must be in {task}..{num_tasks} for task {task}"
        )
    k = run.config.k if args.k is None else args.k
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")

    slug = run.slug(method)
    params = run.snapshot(slug, checkpoint)
    index = run.index(slug, task)
    ledger = run.ledger(slug)
    corpus = []
    if strategy == "reindex" and task != checkpoint:
        corpus = run.dataset(task).corpus
    emb = encode(params, tokenize(args.query, params.vocab_size))
    (ranking,) = retrieve(params, index, corpus, ledger, emb[None], task, strategy, k)
    for rank, (doc_id, score) in enumerate(ranking, start=1):
        print(f"{rank}\t{doc_id}\t{score:.6f}")
    return 0


def _cmd_drift_report(args) -> int:
    run = _Run(args.run)
    num_tasks = run.num_tasks
    to_task = args.to_task if args.to_task is not None else num_tasks
    from_task = args.from_task if args.from_task is not None else to_task - 1
    task = args.task
    if not 0 <= from_task < to_task <= num_tasks:
        raise ConfigError(
            f"need 0 <= from-task < to-task <= {num_tasks}, "
            f"got {from_task} and {to_task}"
        )
    if not 1 <= task <= num_tasks:
        raise ConfigError(f"task must be in 1..{num_tasks}")
    slug = run.slug(args.method or "FT")
    params_old = run.snapshot(slug, from_task)
    params_new = run.snapshot(slug, to_task)
    # the report reads no drift, but a foreign ledger still rejects the run
    run.ledger(slug)
    data = run.dataset(task)
    report = drift_report(
        params_new,
        params_old,
        [text for _, text in data.queries_test],
        data.corpus,
    )
    out_path = Path(args.out) if args.out else run.dir / "drift_report.csv"
    atomic_write_text(out_path, drift_report_csv(report))
    print(f"wrote {out_path}")
    return 0


def _cmd_grad_check(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"seeds must be >= 1, got {args.seeds}")
    failures = 0
    for seed in range(args.seeds):
        for kind in ("contrastive", "distill"):
            err = grad_check(kind, seed)
            ok = err <= GRAD_TOL
            failures += not ok
            print(
                f"{kind} seed={seed} max_rel_err={err:.3e} "
                f"{'ok' if ok else 'FAIL'}"
            )
    return 1 if failures else 0


def _add_config_flags(parser, with_method: bool) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument(
        "--seed", type=int, help="root seed; also reseeds the synthetic stream"
    )
    if with_method:
        parser.add_argument("--method", choices=METHODS, help="method to run")
    parser.add_argument("--k", type=int, help="retrieval depth")
    parser.add_argument("--out", help="base output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdc",
        description="continual dense retrieval with query drift compensation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write the synthetic task stream")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="stream seed")
    p.add_argument("--out", help="output directory (default: data)")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train one method and persist artifacts")
    _add_config_flags(p, with_method=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("bench", help="run all methods over shared trajectories")
    _add_config_flags(p, with_method=False)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("retrieve", help="ad-hoc query against a finished run")
    p.add_argument("--run", required=True, help="run directory (out/{run_id})")
    p.add_argument("--method", choices=METHODS, help="retrieval method")
    p.add_argument("--task", type=int, required=True, help="task index to search")
    p.add_argument("--checkpoint", type=int, help="model checkpoint (default last)")
    p.add_argument("--query", required=True, help="query text")
    p.add_argument("--k", type=int, help="retrieval depth")
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("eval", help="recompute metrics from stored artifacts")
    p.add_argument("--run", required=True, help="run directory (out/{run_id})")
    p.add_argument("--method", choices=METHODS, help="single method (default all)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("drift-report", help="length-bucket drift statistics")
    p.add_argument("--run", required=True, help="run directory (out/{run_id})")
    p.add_argument("--method", choices=METHODS, help="trajectory to read")
    p.add_argument("--task", type=int, default=1, help="population task")
    p.add_argument("--from-task", type=int, dest="from_task", help="old checkpoint")
    p.add_argument("--to-task", type=int, dest="to_task", help="new checkpoint")
    p.add_argument("--out", help="CSV destination")
    p.set_defaults(func=_cmd_drift_report)

    p = sub.add_parser("grad-check", help="finite-difference gradient suite")
    p.add_argument("--seeds", type=int, default=10, help="number of seeds")
    p.set_defaults(func=_cmd_grad_check)

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (QdcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a size no allocation can meet, such as a dim of 10^12
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
