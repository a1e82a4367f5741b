import json
import shutil
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import qdc.pipeline
from qdc.cli import dispatch
from qdc.config import METHODS, derive_rng, load_config
from qdc.drift import (
    DriftLedger,
    DriftVector,
    compensate_query_path,
    ledger_from_dict,
    ledger_to_dict,
)
from qdc.encoder import encode, init_params, load_snapshot, tokenize
from qdc.index import build_index, load_index, save_index, search_topk
from qdc.pipeline import retrieve_eval, train_trajectory


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory, tiny_spec):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    payload = {"seed": 7, "stream": asdict(tiny_spec)}
    payload["stream"]["doc_len_range"] = list(tiny_spec.doc_len_range)
    payload["stream"]["query_len_range"] = list(tiny_spec.query_len_range)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def bench_run(tmp_path_factory, cfg_path):
    root = tmp_path_factory.mktemp("bench")
    code = dispatch(["bench", "--config", cfg_path, "--out", str(root)])
    assert code == 0
    return root / "bench-s7"


def _tree_bytes(run_dir):
    return {
        str(p.relative_to(run_dir)): p.read_bytes()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file()
    }


class TestParsing:
    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        assert "gen-data" in capsys.readouterr().out

    def test_unknown_subcommand_exits_two(self, capsys):
        assert dispatch(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag_exits_two(self, capsys):
        assert dispatch(["retrieve"]) == 2
        capsys.readouterr()

    def test_bad_config_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert dispatch(["bench", "--config", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"learning_rate": 0.1}', encoding="utf-8")
        assert dispatch(["bench", "--config", str(bad)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_decay_of_one_or_more_per_step_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"lr": 10.0, "wd": 0.1}', encoding="utf-8")
        assert dispatch(["bench", "--config", str(bad)]) == 1
        assert "lr * wd" in capsys.readouterr().err

    def test_unallocatable_size_exits_one_with_one_error_line(
        self, tmp_path, capsys
    ):
        # a 32768 x 10^12 weight matrix: numpy refuses it at once, reserving
        # nothing
        bad = tmp_path / "huge.json"
        payload = {
            "dim": 10**12,
            "stream": {
                "num_tasks": 1,
                "docs_per_task": 20,
                "train_pairs_per_task": 10,
                "test_queries_per_task": 5,
            },
        }
        bad.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        assert dispatch(["bench", "--config", str(bad), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: Unable to allocate")
        assert captured.out == ""


class TestGenData:
    def test_writes_beir_layout(self, cfg_path, tiny_spec, tmp_path, capsys):
        out = tmp_path / "data"
        assert dispatch(["gen-data", "--config", cfg_path, "--out", str(out)]) == 0
        assert f"wrote {tiny_spec.num_tasks} tasks" in capsys.readouterr().out
        for t in range(1, tiny_spec.num_tasks + 1):
            task_dir = out / f"task{t}"
            lines = (task_dir / "corpus.jsonl").read_text().splitlines()
            assert len(lines) == tiny_spec.docs_per_task
            lines = (task_dir / "queries.jsonl").read_text().splitlines()
            assert len(lines) == tiny_spec.test_queries_per_task
            lines = (task_dir / "qrels.tsv").read_text().splitlines()
            assert len(lines) == tiny_spec.test_queries_per_task + 1
            lines = (task_dir / "pairs.jsonl").read_text().splitlines()
            assert len(lines) == tiny_spec.train_pairs_per_task

    def test_seed_flag_reseeds_the_stream(self, cfg_path, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert dispatch(["gen-data", "--config", cfg_path, "--out", str(a)]) == 0
        assert (
            dispatch(
                ["gen-data", "--config", cfg_path, "--seed", "9", "--out", str(b)]
            )
            == 0
        )
        capsys.readouterr()
        assert (a / "task1" / "corpus.jsonl").read_text() != (
            b / "task1" / "corpus.jsonl"
        ).read_text()


class TestTrain:
    def test_artifact_layout(self, cfg_path, tiny_spec, tmp_path, capsys):
        root = tmp_path / "out"
        code = dispatch(
            ["train", "--config", cfg_path, "--out", str(root), "--method", "FT+QDC"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "final checkpoint" in out
        run_dir = root / "train-ft-qdc-s7"
        assert (run_dir / "config.json").is_file()
        for t in range(tiny_spec.num_tasks + 1):
            assert (run_dir / "snapshots" / "ft" / f"task{t}.enc").is_file()
        for t in range(1, tiny_spec.num_tasks + 1):
            assert (run_dir / "indexes" / "ft" / f"task{t}.idx").is_file()
        ledgers = json.loads((run_dir / "ledger.json").read_text())
        assert sorted(ledgers) == ["ft"]
        metrics = (run_dir / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "checkpoint,task,method,metric,value"
        assert len(metrics) == 1 + tiny_spec.num_tasks**2 * 3
        assert (run_dir / "table.txt").read_text().startswith("final checkpoint")

    def test_matches_bench_on_its_trajectory(
        self, cfg_path, bench_run, tmp_path, capsys
    ):
        # train and bench write through one writer; train's one trajectory
        # and its comparison row are bench's, byte for byte
        root = tmp_path / "out"
        args = ["train", "--config", cfg_path, "--out", str(root)]
        assert dispatch(args + ["--method", "FT+KD+QDC"]) == 0
        run_dir = root / "train-ft-kd-qdc-s7"
        trained, benched = _tree_bytes(run_dir), _tree_bytes(bench_run)
        for name in ("snapshots/ft_kd", "indexes/ft_kd"):
            mine = {f: b for f, b in trained.items() if f.startswith(name)}
            assert mine and all(benched[f] == b for f, b in mine.items())
        header, *rows = (run_dir / "comparison.csv").read_text().splitlines()
        bench_lines = (bench_run / "comparison.csv").read_text().splitlines()
        assert header == bench_lines[0]
        assert rows == [r for r in bench_lines if r.startswith("FT+KD+QDC,")]


class TestBench:
    def test_artifact_layout(self, bench_run, tiny_spec):
        assert (bench_run / "config.json").is_file()
        for slug in ("ft", "ft_kd"):
            for t in range(tiny_spec.num_tasks + 1):
                assert (bench_run / "snapshots" / slug / f"task{t}.enc").is_file()
            for t in range(1, tiny_spec.num_tasks + 1):
                assert (bench_run / "indexes" / slug / f"task{t}.idx").is_file()
        ledgers = json.loads((bench_run / "ledger.json").read_text())
        assert sorted(ledgers) == ["ft", "ft_kd"]
        metrics = (bench_run / "metrics.csv").read_text().splitlines()
        assert len(metrics) == 1 + len(METHODS) * tiny_spec.num_tasks**2 * 3

    def test_ledgers_hold_dim_and_records_only(self, bench_run, tiny_spec):
        ledgers = json.loads((bench_run / "ledger.json").read_text())
        for payload in ledgers.values():
            assert sorted(payload) == ["dim", "records"]
            assert len(payload["records"]) == tiny_spec.num_tasks - 1

    def test_no_temp_file_left_behind(self, bench_run):
        # every artifact is written to a temp sibling and renamed into place
        assert sorted(bench_run.rglob(".*")) == []

    def test_comparison_lists_all_methods_in_order(self, bench_run, tiny_spec):
        lines = (bench_run / "comparison.csv").read_text().splitlines()
        header = ["method"]
        header += [f"task{t}" for t in range(1, tiny_spec.num_tasks + 1)]
        assert lines[0] == ",".join(header + ["avg"])
        assert [line.split(",")[0] for line in lines[1:]] == list(METHODS)
        table = (bench_run / "table.txt").read_text()
        for method in METHODS:
            assert method in table

    def test_reruns_are_byte_identical(self, cfg_path, bench_run, tmp_path, capsys):
        root = tmp_path / "again"
        assert dispatch(["bench", "--config", cfg_path, "--out", str(root)]) == 0
        capsys.readouterr()
        again = _tree_bytes(root / "bench-s7")
        first = _tree_bytes(bench_run)
        # config.json differs only in out_dir, which is part of the override
        first.pop("config.json")
        again.pop("config.json")
        assert first == again


class TestInitialEncoder:
    @pytest.mark.parametrize(
        "command, run_id, slugs",
        [
            (["bench"], "bench-s7", ("ft", "ft_kd")),
            (["train", "--method", "FT+KD"], "train-ft-kd-s7", ("ft_kd",)),
        ],
    )
    def test_f0_built_once_and_written(
        self, cfg_path, tmp_path, monkeypatch, capsys, command, run_id, slugs
    ):
        calls = []
        real = qdc.pipeline.init_params

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(qdc.pipeline, "init_params", counting)
        argv = command + ["--config", cfg_path, "--out", str(tmp_path)]
        assert dispatch(argv) == 0
        capsys.readouterr()
        assert len(calls) == 1
        config = load_config(tmp_path / run_id / "config.json")
        f0 = init_params(
            config.vocab_size,
            config.dim,
            config.temperature,
            derive_rng(config.seed, "init"),
        )
        for slug in slugs:
            path = tmp_path / run_id / "snapshots" / slug / "task0.enc"
            assert np.array_equal(load_snapshot(path).W, f0.W)


class TestEval:
    def test_stdout_matches_stored_metrics(self, bench_run, capsys):
        assert dispatch(["eval", "--run", str(bench_run)]) == 0
        out = capsys.readouterr().out
        assert out == (bench_run / "metrics.csv").read_text()

    def test_single_method_subset(self, bench_run, capsys):
        assert dispatch(["eval", "--run", str(bench_run), "--method", "FT+KD"]) == 0
        lines = capsys.readouterr().out.splitlines()
        stored = (bench_run / "metrics.csv").read_text().splitlines()
        assert lines[0] == stored[0]
        assert all(line.split(",")[2] == "FT+KD" for line in lines[1:])
        assert lines[1:] == [
            row for row in stored[1:] if row.split(",")[2] == "FT+KD"
        ]

    def test_missing_run_dir_exits_one(self, tmp_path, capsys):
        assert dispatch(["eval", "--run", str(tmp_path / "nope")]) == 1
        assert capsys.readouterr().err.startswith("error:")


def _mixed_copy(bench_run, tmp_path, kind):
    """A copy of the run whose ft task1 and task2 files trade places."""
    run = tmp_path / "mixed"
    shutil.copytree(bench_run, run)
    if kind == "enc":
        folder = run / "snapshots" / "ft"
    else:
        folder = run / "indexes" / "ft"
    first, second = folder / f"task1.{kind}", folder / f"task2.{kind}"
    first.rename(folder / "swap")
    second.rename(first)
    (folder / "swap").rename(second)
    return run


_RETRIEVE_OLD = ["retrieve", "--task", "1", "--checkpoint", "2", "--query", "x"]
_RETRIEVE_NEW = ["retrieve", "--task", "2", "--query", "x", "--method", "FT"]


class TestMixedRunRejected:
    @pytest.mark.parametrize(
        "kind, args",
        [
            ("enc", ["eval"]),
            ("idx", ["eval"]),
            ("enc", _RETRIEVE_OLD),
            ("idx", _RETRIEVE_OLD),
            ("enc", _RETRIEVE_NEW),
            ("idx", _RETRIEVE_NEW),
            ("enc", ["drift-report"]),
        ],
    )
    def test_swapped_files_exit_one(self, bench_run, tmp_path, kind, args, capsys):
        run = _mixed_copy(bench_run, tmp_path, kind)
        assert dispatch([args[0], "--run", str(run)] + args[1:]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert f"task1.{kind}" in captured.err or f"task2.{kind}" in captured.err

    def test_index_of_another_dim_exits_one(
        self, bench_run, tmp_path, tiny_stream, capsys
    ):
        run = tmp_path / "mixed"
        shutil.copytree(bench_run, run)
        vocab = load_snapshot(run / "snapshots" / "ft" / "task1.enc").vocab_size
        params = init_params(vocab, 4, 0.5, np.random.default_rng(0))
        index = build_index(replace(params, version=1), tiny_stream[0].corpus, 1)
        save_index(index, run / "indexes" / "ft" / "task1.idx")
        assert dispatch(["eval", "--run", str(run), "--method", "FT"]) == 1
        assert "dim 4 in place of" in capsys.readouterr().err


def _ledger_copy(bench_run, tmp_path, kind):
    """A copy of the run whose ft ledger lost its last record or its dim."""
    run = tmp_path / "mixed"
    shutil.copytree(bench_run, run)
    path = run / "ledger.json"
    stored = json.loads(path.read_text(encoding="utf-8"))
    ledger = ledger_from_dict(stored["ft"])
    if kind == "short":
        ledger.records.pop()
    else:
        ledger = DriftLedger(
            dim=4,
            records=[
                DriftVector(np.zeros(4), r.from_task, r.to_task)
                for r in ledger.records
            ],
        )
    stored["ft"] = ledger_to_dict(ledger)
    path.write_text(json.dumps(stored), encoding="utf-8")
    return run


class TestLedgerMismatchRejected:
    @pytest.mark.parametrize("kind", ["short", "dim"])
    @pytest.mark.parametrize("args", [["eval"], _RETRIEVE_OLD, ["drift-report"]])
    def test_exits_one(self, bench_run, tmp_path, kind, args, capsys):
        run = _ledger_copy(bench_run, tmp_path, kind)
        assert dispatch([args[0], "--run", str(run)] + args[1:]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        expected = "in place of [1->2" if kind == "short" else "dim 4"
        assert expected in captured.err and "ledger.json" in captured.err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_ledger_vector_exits_one(bench_run, tmp_path, value, capsys):
    # plain FT compensates nothing, so only loading the ledger can reject it
    run = tmp_path / "non-finite"
    shutil.copytree(bench_run, run)
    path = run / "ledger.json"
    stored = json.loads(path.read_text(encoding="utf-8"))
    stored["ft"]["records"][-1]["vector"][0] = float(value)
    path.write_text(json.dumps(stored), encoding="utf-8")
    assert value in path.read_text(encoding="utf-8")
    args = ["retrieve", "--run", str(run), "--task", "1", "--checkpoint", "2"]
    assert dispatch(args + ["--query", "x", "--method", "FT"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error:") and "NaN or infinite" in line


def _truncated(data: bytes) -> bytes:
    return data[: len(data) // 2]


def _not_utf8(data: bytes) -> bytes:
    return b"\xff" + data


class TestCorruptJsonRejected:
    @pytest.mark.parametrize(
        "name, corrupt",
        [
            ("ledger.json", _truncated),
            ("ledger.json", _not_utf8),
            ("config.json", _truncated),
            ("config.json", _not_utf8),
        ],
        ids=["ledger-truncated", "ledger-not-utf8", "config-truncated", "config-not-utf8"],
    )
    @pytest.mark.parametrize(
        "args",
        [["eval"], _RETRIEVE_OLD, ["drift-report"]],
        ids=["eval", "retrieve", "drift-report"],
    )
    def test_exits_one_with_one_error_line(
        self, bench_run, tmp_path, name, corrupt, args, capsys
    ):
        run = tmp_path / "corrupt"
        shutil.copytree(bench_run, run)
        path = run / name
        path.write_bytes(corrupt(path.read_bytes()))
        assert dispatch([args[0], "--run", str(run)] + args[1:]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1
        assert name in captured.err


# config values of the wrong JSON type or shape, or not finite
_MISTYPED = [
    {"seed": "x"},
    {"lr": None},
    {"lr": float("nan")},
    {"epochs": True},
    {"k": 2.5},
    {"stream": {"num_tasks": "3"}},
    {"stream": {"doc_len_range": 5}},
    {"stream": {"doc_len_range": [1, 2, 3]}},
    {"datasets": []},
    {"datasets": [5]},
    {"datasets": [{"corpus": 5, "queries": "q.jsonl", "qrels": "r.tsv"}]},
    {"datasets": [{"corpus": "c", "queries": "q", "qrels": "r", "task_id": "x"}]},
]


class TestMistypedConfigRejected:
    @pytest.mark.parametrize("payload", _MISTYPED, ids=json.dumps)
    @pytest.mark.parametrize("command", ["gen-data", "bench", "eval"])
    def test_exits_one_with_one_error_line(
        self, bench_run, cfg_path, tmp_path, payload, command, capsys
    ):
        # the field goes into a working config: the run's, or the tiny one;
        # eval reads the run's config before any other file
        if command == "eval":
            run = tmp_path / "mistyped"
            run.mkdir()
            path = Path(shutil.copy(bench_run / "config.json", run))
            args = ["eval", "--run", str(run)]
        else:
            path = Path(shutil.copy(cfg_path, tmp_path / "config.json"))
            args = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        config = json.loads(path.read_text(encoding="utf-8"))
        (key, value), = payload.items()
        if key == "stream":
            config["stream"].update(value)
            (key, _), = value.items()
        else:
            config[key] = value
        path.write_text(json.dumps(config), encoding="utf-8")
        assert dispatch(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
        assert key in captured.err and "must be" in captured.err

    def test_query_longer_than_every_document_exits_one(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        stream = {"doc_len_range": [2, 3], "query_len_range": [4, 6]}
        path.write_text(json.dumps({"stream": stream}), encoding="utf-8")
        args = ["gen-data", "--config", str(path), "--out", str(tmp_path / "out")]
        assert dispatch(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: query_len_range lo must be <= doc_len_range hi"
        ]

    def test_unknown_dataset_key_exits_one(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        entry = {"corpus": "c", "queries": "q", "qrels": "r", "qrel": "r"}
        path.write_text(json.dumps({"datasets": [entry]}), encoding="utf-8")
        assert dispatch(["bench", "--config", str(path)]) == 1
        assert "unknown datasets entry 1 keys: ['qrel']" in capsys.readouterr().err

    def test_an_integer_fills_a_float_field(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"lr": 1, "stream": {"vocab_overlap": 0}}', encoding="utf-8")
        config = load_config(path)
        assert config.lr == 1 and config.stream.vocab_overlap == 0


class TestOlderLedgerAccepted:
    @pytest.mark.parametrize("args", [["eval"], _RETRIEVE_OLD, ["drift-report"]])
    def test_same_output(self, bench_run, tmp_path, args, capsys):
        # run directories written before the task centroids were retired
        # store them in each trajectory's ledger; loading ignores them
        run = tmp_path / "older"
        shutil.copytree(bench_run, run)
        path = run / "ledger.json"
        stored = json.loads(path.read_text(encoding="utf-8"))
        for payload in stored.values():
            payload["task_centroids"] = {
                str(t): [0.5] * payload["dim"]
                for t in range(1, len(payload["records"]) + 2)
            }
        path.write_text(json.dumps(stored), encoding="utf-8")
        assert dispatch([args[0], "--run", str(bench_run)] + args[1:]) == 0
        want = capsys.readouterr()
        assert dispatch([args[0], "--run", str(run)] + args[1:]) == 0
        got = capsys.readouterr()
        assert got.out.replace(str(run), str(bench_run)) == want.out != ""
        assert got.err == want.err
        # drift-report writes its CSV into the run directory
        written, expected = _tree_bytes(run), _tree_bytes(bench_run)
        assert written.pop("ledger.json") != expected.pop("ledger.json")
        assert written == expected


_LEGACY_REASONS = {
    "multi_k": "per-cluster drift was removed",
    "drift_query_cap": "drift now uses every training query",
}


class TestLegacyConfigKeys:
    # config.json files written before per-cluster drift was removed hold
    # "multi_k": 1, and those written before drift used every training
    # query hold "drift_query_cap", 10000 unless set
    @pytest.mark.parametrize(
        "legacy",
        [{"multi_k": 1}, {"drift_query_cap": 10000}, {"drift_query_cap": 300}],
        ids=json.dumps,
    )
    @pytest.mark.parametrize("args", [["eval"], _RETRIEVE_OLD, ["drift-report"]])
    def test_legacy_value_same_output(
        self, bench_run, tmp_path, args, legacy, capsys
    ):
        run = tmp_path / "older"
        shutil.copytree(bench_run, run)
        path = run / "config.json"
        config = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(dict(config, **legacy)), encoding="utf-8")
        assert dispatch([args[0], "--run", str(bench_run)] + args[1:]) == 0
        want = capsys.readouterr()
        assert dispatch([args[0], "--run", str(run)] + args[1:]) == 0
        got = capsys.readouterr()
        assert got.out.replace(str(run), str(bench_run)) == want.out != ""
        assert got.err == want.err

    @pytest.mark.parametrize(
        "key, value",
        [("multi_k", v) for v in (4, 0, 2.0, True, "1")]
        + [("drift_query_cap", v) for v in (0, -3, "x", 2.0, True)],
    )
    @pytest.mark.parametrize("command", ["bench", "eval"])
    def test_other_value_exits_one(
        self, bench_run, cfg_path, tmp_path, key, value, command, capsys
    ):
        if command == "eval":
            run = tmp_path / "older"
            run.mkdir()
            path = Path(shutil.copy(bench_run / "config.json", run))
            args = ["eval", "--run", str(run)]
        else:
            path = Path(shutil.copy(cfg_path, tmp_path / "config.json"))
            args = ["bench", "--config", str(path), "--out", str(tmp_path / "out")]
        config = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(dict(config, **{key: value})), encoding="utf-8")
        assert dispatch(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {key}")
        assert _LEGACY_REASONS[key] in line


class TestPerClusterDriftRemoved:
    def test_per_cluster_ledger_record_exits_one(self, bench_run, tmp_path, capsys):
        run = tmp_path / "older"
        shutil.copytree(bench_run, run)
        path = run / "ledger.json"
        stored = json.loads(path.read_text(encoding="utf-8"))
        record = stored["ft"]["records"][-1]
        vector = record.pop("vector")
        record.update(kind="multi", centroids=[vector], vectors=[vector])
        path.write_text(json.dumps(stored), encoding="utf-8")
        assert dispatch(["eval", "--run", str(run)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error:")
        assert "per-cluster drift was removed" in line

    @pytest.mark.parametrize("command", ["bench", "train"])
    def test_multi_k_flag_is_gone(self, command, capsys):
        assert dispatch([command, "--multi-k", "4"]) == 2
        assert "--multi-k" in capsys.readouterr().err


class TestRetrieve:
    def test_matches_library_retrieval(self, bench_run, tiny_stream, capsys):
        query = tiny_stream[0].queries_test[0][1]
        code = dispatch(
            ["retrieve", "--run", str(bench_run), "--task", "1", "--query", query]
        )
        assert code == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert len(out_lines) == 10

        params = load_snapshot(bench_run / "snapshots" / "ft" / "task2.enc")
        emb = encode(params, tokenize(query, params.vocab_size))
        payload = json.loads((bench_run / "ledger.json").read_text())
        ledger = ledger_from_dict(payload["ft"])
        emb = compensate_query_path(ledger, emb, 1, 2)
        index = load_index(bench_run / "indexes" / "ft" / "task1.idx")
        want = [
            f"{rank}\t{doc_id}\t{score:.6f}"
            for rank, (doc_id, score) in enumerate(
                search_topk(index, emb, 10), start=1
            )
        ]
        assert out_lines == want

    def test_plain_method_skips_compensation(self, bench_run, tiny_stream, capsys):
        query = tiny_stream[0].queries_test[0][1]
        code = dispatch(
            [
                "retrieve",
                "--run",
                str(bench_run),
                "--task",
                "1",
                "--query",
                query,
                "--method",
                "FT",
                "--k",
                "3",
            ]
        )
        assert code == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert len(out_lines) == 3

        params = load_snapshot(bench_run / "snapshots" / "ft" / "task2.enc")
        emb = encode(params, tokenize(query, params.vocab_size))
        index = load_index(bench_run / "indexes" / "ft" / "task1.idx")
        want = [
            f"{rank}\t{doc_id}\t{score:.6f}"
            for rank, (doc_id, score) in enumerate(
                search_topk(index, emb, 3), start=1
            )
        ]
        assert out_lines == want

    def test_reindex_on_old_task_matches_library(
        self, bench_run, tiny_stream, capsys
    ):
        qid, query = tiny_stream[0].queries_test[0]
        code = dispatch(
            [
                "retrieve",
                "--run",
                str(bench_run),
                "--task",
                "1",
                "--query",
                query,
                "--method",
                "FT+REINDEX",
            ]
        )
        assert code == 0
        out_lines = capsys.readouterr().out.splitlines()

        config = load_config(bench_run / "config.json")
        state = train_trajectory(tiny_stream, False, config)[-1]
        run = retrieve_eval(state, 1, "reindex", config.k)
        want = [
            f"{rank}\t{doc_id}\t{score:.6f}"
            for rank, (doc_id, score) in enumerate(run.results[qid], start=1)
        ]
        assert out_lines == want

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_exits_one(self, bench_run, k, capsys):
        code = dispatch(
            [
                "retrieve",
                "--run",
                str(bench_run),
                "--task",
                "1",
                "--query",
                "x",
                "--k",
                k,
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_task_out_of_range_exits_one(self, bench_run, capsys):
        code = dispatch(
            ["retrieve", "--run", str(bench_run), "--task", "9", "--query", "x"]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_checkpoint_before_task_exits_one(self, bench_run, capsys):
        code = dispatch(
            [
                "retrieve",
                "--run",
                str(bench_run),
                "--task",
                "2",
                "--checkpoint",
                "1",
                "--query",
                "x",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestDriftReport:
    def test_writes_csv(self, bench_run, capsys):
        assert dispatch(["drift-report", "--run", str(bench_run)]) == 0
        capsys.readouterr()
        lines = (bench_run / "drift_report.csv").read_text().splitlines()
        assert lines[0] == "population,bucket,len_lower,len_upper,count,mean_drift"
        assert len(lines) == 7

    def test_custom_output_and_span(self, bench_run, tmp_path, capsys):
        out = tmp_path / "drift.csv"
        code = dispatch(
            [
                "drift-report",
                "--run",
                str(bench_run),
                "--from-task",
                "0",
                "--to-task",
                "2",
                "--task",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert out.read_text().startswith("population,bucket")

    def test_invalid_span_exits_one(self, bench_run, capsys):
        code = dispatch(
            ["drift-report", "--run", str(bench_run), "--from-task", "5"]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestGradCheck:
    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_no_seeds_exits_one(self, seeds, capsys):
        assert dispatch(["grad-check", "--seeds", seeds]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_two_seeds_pass(self, capsys):
        assert dispatch(["grad-check", "--seeds", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert all(line.endswith("ok") for line in lines)
        assert lines[0].startswith("contrastive seed=0 max_rel_err=")


class TestBeirQueriesFile:
    """A BEIR queries.jsonl holds every split's queries, judged or not."""

    @pytest.fixture
    def beir_cfg(self, tmp_path):
        rows = {
            "corpus": [
                {"_id": f"d{i}", "title": f"topic {i % 8}", "text": f"word{i} body"}
                for i in range(40)
            ],
            "queries": [{"_id": f"q{i}", "text": f"word{i}"} for i in range(12)],
        }
        for name, file_rows in rows.items():
            (tmp_path / f"{name}.jsonl").write_text(
                "".join(json.dumps(r) + "\n" for r in file_rows), encoding="utf-8"
            )
        (tmp_path / "qrels.tsv").write_text(
            "query-id\tcorpus-id\tscore\n"
            + "".join(f"q{i}\td{i}\t1\n" for i in range(8)),
            encoding="utf-8",
        )
        entry = {n: str(tmp_path / f"{n}.jsonl") for n in rows}
        entry["qrels"] = str(tmp_path / "qrels.tsv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"datasets": [entry]}), encoding="utf-8")
        return cfg

    def _train(self, cfg):
        out = cfg.parent / "out"
        return dispatch(
            ["train", "--config", str(cfg), "--method", "FT", "--out", str(out)]
        )

    def test_unjudged_queries_are_not_evaluated(self, beir_cfg, capsys):
        assert self._train(beir_cfg) == 0
        assert "final checkpoint" in capsys.readouterr().out

    def test_repeated_query_id_exits_one(self, beir_cfg, capsys):
        queries = beir_cfg.parent / "queries.jsonl"
        with queries.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"_id": "q3", "text": "word3 again"}) + "\n")
        assert self._train(beir_cfg) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {queries}:13: repeated _id 'q3'"
        ]
