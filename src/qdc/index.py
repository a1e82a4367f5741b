"""Per-task corpus indexes: build, persist, load, exact top-k search.

Search is exact brute force over cosine similarity. Rows are stored float32;
scoring runs in float64. Ties break by ascending doc_id for determinism.
"""
from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .encoder import EncoderParams, TokenFeatures, encode_batch, tokenize
from .errors import (
    CorruptIndexError,
    DimMismatchError,
    DuplicateDocIdError,
    EmptyCorpusError,
    ZeroVectorError,
)
from .vecops import ZERO_NORM_EPS, top_order

if TYPE_CHECKING:
    from .datagen import TaskDataset

INDEX_MAGIC = b"QDCIDX01"
_INDEX_HEADER = struct.Struct("<IIII")  # task_id, encoder_version, N, d


@dataclass(frozen=True)
class DocRecord:
    doc_id: str
    title: str
    text: str
    # by vocab_size, filled by doc_features; a cache that dies with the record
    _features: dict[int, TokenFeatures] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


def doc_encoding_text(doc: DocRecord) -> str:
    """Text fed to the encoder: title, a space, then the body."""
    return doc.title + " " + doc.text


def _once_per_vocab(cache: dict, vocab_size: int, make):
    # features kept on the record they come from, one entry per vocab size
    feats = cache.get(vocab_size)
    if feats is None:
        feats = cache[vocab_size] = make()
    return feats


def doc_features(doc: DocRecord, vocab_size: int) -> TokenFeatures:
    """The document's hashed features, tokenized once per record and vocab."""
    return _once_per_vocab(
        doc._features,
        vocab_size,
        lambda: tokenize(doc_encoding_text(doc), vocab_size),
    )


def query_features(data: TaskDataset, vocab_size: int) -> list[TokenFeatures]:
    """The test queries' hashed features, tokenized once per task and vocab."""
    return _once_per_vocab(
        data._query_features,
        vocab_size,
        lambda: [tokenize(text, vocab_size) for _, text in data.queries_test],
    )


@dataclass(eq=False)
class CorpusIndex:
    """Immutable-after-build document embedding matrix for one task."""

    task_id: int
    encoder_version: int
    dim: int
    rows: np.ndarray
    doc_ids: list[str]

    @cached_property
    def _scoring(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # float64 rows, their norms and the ids, built on the first search
        rows64 = self.rows.astype(np.float64)
        return rows64, np.linalg.norm(rows64, axis=1), np.asarray(self.doc_ids)


def build_index(
    params: EncoderParams, corpus: list[DocRecord], task_id: int
) -> CorpusIndex:
    """Encode every document with params and freeze the rows as float32."""
    if not corpus:
        raise EmptyCorpusError(f"no documents for task {task_id}")
    doc_ids = [doc.doc_id for doc in corpus]
    seen: set[str] = set()
    for doc_id in doc_ids:
        if doc_id in seen:
            raise DuplicateDocIdError(f"duplicate doc_id {doc_id!r}")
        seen.add(doc_id)
    feats = [doc_features(d, params.vocab_size) for d in corpus]
    rows = encode_batch(params, feats).astype(np.float32)
    return CorpusIndex(
        task_id=task_id,
        encoder_version=params.version,
        dim=params.dim,
        rows=rows,
        doc_ids=doc_ids,
    )


def _query_scores(index: CorpusIndex, q: np.ndarray) -> np.ndarray:
    rows64, norms, _ = index._scoring
    arr = np.asarray(q, dtype=np.float64)
    if arr.shape != (index.dim,):
        raise DimMismatchError(f"query shape {arr.shape} vs dim {index.dim}")
    qn = float(np.linalg.norm(arr))
    if qn < ZERO_NORM_EPS:
        raise ZeroVectorError("cannot search with a zero query embedding")
    return (rows64 @ (arr / qn)) / norms


def search_topk(
    index: CorpusIndex, q: np.ndarray, k: int
) -> list[tuple[str, float]]:
    """Exact top-k by cosine, ties by ascending doc_id; clamps k to N."""
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = _query_scores(index, q)
    _, _, ids_arr = index._scoring
    order = top_order(scores, ids_arr, k)
    return [(str(ids_arr[i]), float(scores[i])) for i in order]


def save_index(index: CorpusIndex, path) -> None:
    """Binary dump with a CRC32 over the payload; round-trips bit-exactly."""
    n = len(index.doc_ids)
    rows = np.ascontiguousarray(index.rows, dtype="<f4")
    parts = [rows.tobytes()]
    for doc_id in index.doc_ids:
        raw = doc_id.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
    payload = b"".join(parts)
    header = _INDEX_HEADER.pack(index.task_id, index.encoder_version, n, index.dim)
    crc = struct.pack("<I", zlib.crc32(payload))
    Path(path).write_bytes(INDEX_MAGIC + header + crc + payload)


def load_index(path) -> CorpusIndex:
    """Read an index file, rejecting bad magic, bad CRC, or layout drift."""
    data = Path(path).read_bytes()
    base = len(INDEX_MAGIC) + _INDEX_HEADER.size + 4
    if len(data) < base or data[: len(INDEX_MAGIC)] != INDEX_MAGIC:
        raise CorruptIndexError(f"bad magic or truncated header: {path}")
    task_id, encoder_version, n, dim = _INDEX_HEADER.unpack(
        data[len(INDEX_MAGIC) : len(INDEX_MAGIC) + _INDEX_HEADER.size]
    )
    (crc,) = struct.unpack(
        "<I", data[len(INDEX_MAGIC) + _INDEX_HEADER.size : base]
    )
    payload = data[base:]
    if n < 1 or dim < 1:
        raise CorruptIndexError(f"invalid header counts: {path}")
    if zlib.crc32(payload) != crc:
        raise CorruptIndexError(f"payload CRC mismatch: {path}")
    rows_bytes = n * dim * 4
    if len(payload) < rows_bytes:
        raise CorruptIndexError(f"row data truncated: {path}")
    rows = np.frombuffer(payload, dtype="<f4", count=n * dim).reshape(n, dim)
    rows = rows.astype(np.float32)
    offset = rows_bytes
    doc_ids: list[str] = []
    for _ in range(n):
        if offset + 4 > len(payload):
            raise CorruptIndexError(f"doc_id table truncated: {path}")
        (length,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        if offset + length > len(payload):
            raise CorruptIndexError(f"doc_id table truncated: {path}")
        try:
            doc_ids.append(payload[offset : offset + length].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CorruptIndexError(f"doc_id not valid UTF-8: {path}") from exc
        offset += length
    if offset != len(payload):
        raise CorruptIndexError(f"trailing bytes after doc_id table: {path}")
    if len(set(doc_ids)) != n:
        raise CorruptIndexError(f"duplicate doc_ids in file: {path}")
    if not np.all(np.isfinite(rows)) or bool(
        (np.linalg.norm(rows.astype(np.float64), axis=1) < ZERO_NORM_EPS).any()
    ):
        raise CorruptIndexError(f"non-finite or zero rows: {path}")
    return CorpusIndex(
        task_id=task_id,
        encoder_version=encoder_version,
        dim=dim,
        rows=rows,
        doc_ids=doc_ids,
    )
