import errno
import os

import numpy as np
import pytest

import qdc.fileio
from qdc.config import RunConfig, save_config
from qdc.cli import _write_json
from qdc.drift import DriftLedger, ledger_to_dict
from qdc.encoder import init_params, save_snapshot
from qdc.fileio import atomic_write, atomic_write_text
from qdc.index import CorpusIndex, save_index


class _FullDisk:
    """A file that writes half of its first write and then fails."""

    def __init__(self, f) -> None:
        self.f = f

    def write(self, data) -> int:
        self.f.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.f.close()


def _full_disk(monkeypatch):
    real = open

    def opening(*args, **kwargs):
        return _FullDisk(real(*args, **kwargs))

    monkeypatch.setattr(qdc.fileio, "open", opening, raising=False)


def _index(version: int) -> CorpusIndex:
    rows = np.full((2, 3), float(version), dtype=np.float32)
    return CorpusIndex(
        task_id=1, encoder_version=version, dim=3, rows=rows, doc_ids=["a", "b"]
    )


# each writer of a run artifact, called with a version that changes its bytes
WRITERS = {
    "snapshot": lambda path, v: save_snapshot(
        init_params(8, 4, 0.5, np.random.default_rng(v)), path
    ),
    "index": lambda path, v: save_index(_index(v), path),
    "ledger": lambda path, v: _write_json(
        path, {"ft": ledger_to_dict(DriftLedger(dim=v))}
    ),
    "config": lambda path, v: save_config(RunConfig(seed=v), path),
    "csv": lambda path, v: atomic_write_text(path, f"metric,value\nndcg,{v}\n"),
}


class TestAtomicWrite:
    def test_text_is_utf8(self, tmp_path):
        path = tmp_path / "a.txt"
        atomic_write_text(path, "café\n")
        assert path.read_bytes() == "café\n".encode("utf-8")

    def test_a_block_that_raises_midway_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as f:
                f.write(b"partial")
                raise RuntimeError("killed mid-write")
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["a.bin"]

    def test_a_new_file_that_fails_midway_leaves_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            with atomic_write(tmp_path / "a.bin") as f:
                f.write(b"partial")
                raise RuntimeError("killed mid-write")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_writer_failing_midway_keeps_the_previous_file(
        self, kind, tmp_path, monkeypatch
    ):
        write = WRITERS[kind]
        path = tmp_path / "artifact"
        write(path, 1)
        before = path.read_bytes()
        with monkeypatch.context() as patch:
            _full_disk(patch)
            with pytest.raises(OSError):
                write(path, 2)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["artifact"]
        write(path, 2)
        assert path.read_bytes() != before
        assert os.listdir(tmp_path) == ["artifact"]
