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


def _num_tasks(config: RunConfig) -> int:
    if config.datasets is not None:
        return len(config.datasets)
    return config.stream.num_tasks


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


def _write_trajectory(run_dir: Path, slug: str, f0, checkpoints) -> None:
    snap_dir = run_dir / "snapshots" / slug
    idx_dir = run_dir / "indexes" / slug
    snap_dir.mkdir(parents=True, exist_ok=True)
    idx_dir.mkdir(parents=True, exist_ok=True)
    save_snapshot(f0, snap_dir / "task0.enc")
    for state in checkpoints:
        t = state.trained_through
        save_snapshot(state.params, snap_dir / f"task{t}.enc")
        save_index(state.indexes[t], idx_dir / f"task{t}.idx")


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
        _write_trajectory(run_dir, slug, f0, checkpoints)
        ledgers[slug] = ledger_to_dict(checkpoints[-1].ledger)
    _write_json(run_dir / "ledger.json", ledgers)
    atomic_write_text(run_dir / "metrics.csv", results_to_csv(results))
    atomic_write_text(run_dir / "comparison.csv", comparison_to_csv(results))
    atomic_write_text(run_dir / "table.txt", render_report(results))
    print(render_comparison_table(results), end="")
    print(f"artifacts in {run_dir}")


def _load_run_ledgers(run_dir: Path) -> dict:
    path = run_dir / "ledger.json"
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptLedgerError(f"ledger map is not UTF-8 JSON: {path}") from exc
    if not isinstance(payload, dict):
        raise CorruptLedgerError(f"ledger map is not an object: {path}")
    return payload


def _load_run_snapshot(run_dir: Path, slug: str, t: int):
    """f_t of one trajectory; a snapshot of another version is rejected."""
    path = run_dir / "snapshots" / slug / f"task{t}.enc"
    params = load_snapshot(path)
    if params.version != t:
        raise CorruptSnapshotError(
            f"encoder version {params.version} in place of {t}: {path}"
        )
    return params


def _load_run_index(run_dir: Path, slug: str, t: int, dim: int):
    """Task t's index, which f_t must have built in dim dimensions."""
    path = run_dir / "indexes" / slug / f"task{t}.idx"
    index = load_index(path)
    if (index.task_id, index.encoder_version, index.dim) != (t, t, dim):
        raise CorruptIndexError(
            f"task {index.task_id}, encoder version {index.encoder_version}, "
            f"dim {index.dim} in place of task {t}, version {t}, dim {dim}: "
            f"{path}"
        )
    return index


def _load_run_ledger(
    run_dir: Path, stored: dict, slug: str, num_tasks: int, snapshots
) -> DriftLedger:
    """slug's drift ledger, which must match the run it was loaded with.

    Its dim must be every given snapshot's, and its records must be exactly
    the transitions 1->2 ... num_tasks-1->num_tasks.
    """
    path = run_dir / "ledger.json"
    if slug not in stored:
        raise ConfigError(f"run has no {slug} trajectory: {path}")
    ledger = ledger_from_dict(stored[slug])
    for params in snapshots:
        if params.dim != ledger.dim:
            raise CorruptLedgerError(
                f"{slug} ledger of dim {ledger.dim} for encoders of dim "
                f"{params.dim}: {path}"
            )
    found = [f"{rec.from_task}->{rec.to_task}" for rec in ledger.records]
    expected = [f"{t}->{t + 1}" for t in range(1, num_tasks)]
    if found != expected:
        raise CorruptLedgerError(
            f"{slug} ledger holds transitions [{', '.join(found)}] in place "
            f"of [{', '.join(expected)}]: {path}"
        )
    return ledger


def _dataset_for(datasets: list[TaskDataset], task_id: int) -> TaskDataset:
    for ds in datasets:
        if ds.task_id == task_id:
            return ds
    raise ConfigError(f"run has no task {task_id}")


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


def _reconstruct_states(
    run_dir: Path, stored: dict, slug: str, datasets: list[TaskDataset]
) -> list[ContinualState]:
    by_id = {ds.task_id: ds for ds in datasets}
    num_tasks = len(datasets)
    snaps = {
        t: _load_run_snapshot(run_dir, slug, t) for t in range(1, num_tasks + 1)
    }
    ledger = _load_run_ledger(run_dir, stored, slug, num_tasks, snaps.values())
    indexes = {
        t: _load_run_index(run_dir, slug, t, snaps[t].dim)
        for t in range(1, num_tasks + 1)
    }
    return [
        ContinualState(
            params=snaps[t],
            indexes={tp: indexes[tp] for tp in range(1, t + 1)},
            ledger=ledger,
            datasets=by_id,
        )
        for t in range(1, num_tasks + 1)
    ]


def _checkpoint_bits(state: ContinualState) -> tuple:
    """A loaded checkpoint's f_t and index t, bit for bit."""
    params, index = state.params, state.indexes[state.trained_through]
    weights = (params.version, params.W.shape, params.W.tobytes())
    return weights + (index.rows.tobytes(), index.doc_ids)


def _cmd_eval(args) -> int:
    run_dir = Path(args.run)
    config = load_config(run_dir / "config.json")
    datasets = _load_datasets(config)
    stored = _load_run_ledgers(run_dir)
    if args.method:
        methods = [args.method]
    else:
        methods = [m for m in METHODS if _slug(parse_method(m)[0]) in stored]
    if not methods:
        raise ConfigError(f"no evaluable trajectories in {run_dir}")
    trajectories: dict[bool, list[ContinualState]] = {}
    for method in methods:
        kd, _ = parse_method(method)
        slug = _slug(kd)
        if slug not in stored:
            raise ConfigError(f"run has no {slug} trajectory for {method}")
        if kd not in trajectories:
            trajectories[kd] = _reconstruct_states(run_dir, stored, slug, datasets)
    ft, ft_kd = trajectories.get(False), trajectories.get(True)
    if ft and ft_kd and _checkpoint_bits(ft[0]) == _checkpoint_bits(ft_kd[0]):
        # FT+KD trains task 1 as FT does: one state, so its cells are shared
        ft_kd[0] = ft[0]
    results = evaluate_methods(trajectories, methods, config.k)
    print(results_to_csv(results), end="")
    return 0


def _cmd_retrieve(args) -> int:
    run_dir = Path(args.run)
    config = load_config(run_dir / "config.json")
    method = args.method or config.method
    kd, strategy = parse_method(method)
    slug = _slug(kd)
    num_tasks = _num_tasks(config)
    checkpoint = args.checkpoint if args.checkpoint is not None else num_tasks
    task = args.task
    if not 1 <= task <= num_tasks:
        raise ConfigError(f"task must be in 1..{num_tasks}")
    if not task <= checkpoint <= num_tasks:
        raise ConfigError(
            f"checkpoint must be in {task}..{num_tasks} for task {task}"
        )
    k = config.k if args.k is None else args.k
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    stored = _load_run_ledgers(run_dir)
    if slug not in stored:
        raise ConfigError(f"run has no {slug} trajectory for {method}")

    params = _load_run_snapshot(run_dir, slug, checkpoint)
    index = _load_run_index(run_dir, slug, task, params.dim)
    ledger = _load_run_ledger(run_dir, stored, slug, num_tasks, [params])
    corpus = []
    if strategy == "reindex" and task != checkpoint:
        corpus = _dataset_for(_load_datasets(config), task).corpus
    emb = encode(params, tokenize(args.query, params.vocab_size))
    (ranking,) = retrieve(params, index, corpus, ledger, emb[None], task, strategy, k)
    for rank, (doc_id, score) in enumerate(ranking, start=1):
        print(f"{rank}\t{doc_id}\t{score:.6f}")
    return 0


def _cmd_drift_report(args) -> int:
    run_dir = Path(args.run)
    config = load_config(run_dir / "config.json")
    num_tasks = _num_tasks(config)
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
    kd, _ = parse_method(args.method or "FT")
    slug = _slug(kd)
    params_old = _load_run_snapshot(run_dir, slug, from_task)
    params_new = _load_run_snapshot(run_dir, slug, to_task)
    _load_run_ledger(
        run_dir,
        _load_run_ledgers(run_dir),
        slug,
        num_tasks,
        [params_old, params_new],
    )
    data = _dataset_for(_load_datasets(config), task)
    report = drift_report(
        params_new,
        params_old,
        [text for _, text in data.queries_test],
        data.corpus,
    )
    out_path = Path(args.out) if args.out else run_dir / "drift_report.csv"
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
