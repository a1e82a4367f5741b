"""Per-task corpus indexes: build, persist, load, exact top-k search.

Search is exact brute force over cosine similarity. Rows are stored float32;
scoring runs in float64. Ties break by ascending doc_id for determinism.
search_rows ranks a matrix of queries, scoring each block of them with one
matrix product (exact flat search, as FAISS's flat index does); search_topk
ranks one query. Both rank by the same rule. A block's scores may differ
from search_topk's in their last bits, as the product sums in another
order; a one-row matrix gets search_topk's scores to the bit.
"""
from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .encoder import EncoderParams, FeatureRows, encode_batch, tokenize_rows
from .errors import (
    CorruptIndexError,
    DimMismatchError,
    DuplicateDocIdError,
    EmptyCorpusError,
    ZeroVectorError,
)
from .fileio import atomic_write
from .vecops import ZERO_NORM_EPS, top_order

if TYPE_CHECKING:
    from .datagen import TaskDataset

INDEX_MAGIC = b"QDCIDX01"
# scores search_rows computes at a time: a block of queries against every
# row, 512 KB at most unless one query's scores alone take more
_SEARCH_SCORES = 1 << 16
_INDEX_HEADER = struct.Struct("<IIII")  # task_id, encoder_version, N, d


@dataclass(frozen=True)
class DocRecord:
    doc_id: str
    title: str
    text: str


class Corpus(list):
    """A task's documents: a list that keeps their feature tables.

    corpus_rows tables the documents once per vocab size and keeps the
    table here, so every index build and mining pass over the corpus reads
    that one table. Change no document of a corpus once it is tabled.
    """

    def __init__(self, docs=()) -> None:
        super().__init__(docs)
        self._rows: dict[int, FeatureRows] = {}


def doc_encoding_text(doc: DocRecord) -> str:
    """Text fed to the encoder: title, a space, then the body."""
    return doc.title + " " + doc.text


def _once_per_vocab(cache: dict, vocab_size: int, make_texts) -> FeatureRows:
    # one table per population and vocab size, kept by the population
    table = cache.get(vocab_size)
    if table is None:
        table = cache[vocab_size] = tokenize_rows(make_texts(), vocab_size)
    return table


def corpus_rows(corpus, vocab_size: int) -> FeatureRows:
    """The documents' table, one row per document; a Corpus keeps it."""
    return _once_per_vocab(
        corpus._rows if isinstance(corpus, Corpus) else {},
        vocab_size,
        lambda: [doc_encoding_text(doc) for doc in corpus],
    )


def eval_query_rows(data: TaskDataset, vocab_size: int) -> FeatureRows:
    """The test queries' table, one row per query; the task keeps it."""
    return _once_per_vocab(
        data._test_queries,
        vocab_size,
        lambda: [text for _, text in data.queries_test],
    )


def train_query_rows(data: TaskDataset, vocab_size: int) -> FeatureRows:
    """The training queries' table, one row per pair; the task keeps it."""
    return _once_per_vocab(
        data._train_queries,
        vocab_size,
        lambda: [query for query, _ in data.train_pairs],
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
    def _scoring(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        # float64 rows, their norms, the ids and each id's rank in ascending
        # (doc_id, position) order, built on the first search
        rows64 = self.rows.astype(np.float64)
        ids = np.asarray(self.doc_ids)
        rank = np.argsort(np.argsort(ids, kind="stable"))
        return rows64, np.linalg.norm(rows64, axis=1), ids, rank


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
    rows = encode_batch(params, corpus_rows(corpus, params.vocab_size))
    rows = rows.astype(np.float32)
    return CorpusIndex(
        task_id=task_id,
        encoder_version=params.version,
        dim=params.dim,
        rows=rows,
        doc_ids=doc_ids,
    )


def _query_scores(index: CorpusIndex, q: np.ndarray) -> np.ndarray:
    rows64, norms, _, _ = index._scoring
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
    _, _, ids_arr, _ = index._scoring
    order = top_order(scores, ids_arr, k)
    return [(str(ids_arr[i]), float(scores[i])) for i in order]


def search_rows(
    index: CorpusIndex, queries: np.ndarray, k: int
) -> list[list[tuple[str, float]]]:
    """search_topk for each row of an (n, d) query matrix, in row order.

    Each block of queries is scored with one matrix product, its rows
    normalized as search_topk normalizes one query, and each row is ranked
    by top_order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rows64, norms, _, rank = index._scoring
    arr = np.asarray(queries, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != index.dim:
        raise DimMismatchError(f"queries shape {arr.shape} vs dim {index.dim}")
    # one dot a row, as np.linalg.norm computes a single query's norm
    qn = np.sqrt([row @ row for row in arr])
    if (qn < ZERO_NORM_EPS).any():
        raise ZeroVectorError("cannot search with a zero query embedding")
    doc_ids = index.doc_ids
    step = max(1, _SEARCH_SCORES // len(doc_ids))
    rankings = []
    for lo in range(0, len(arr), step):
        scores = (arr[lo : lo + step] / qn[lo : lo + step, None]) @ rows64.T
        scores /= norms
        for row in scores:
            top = top_order(row, rank, k)
            rankings.append(list(zip([doc_ids[i] for i in top], row[top].tolist())))
    return rankings


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
    with atomic_write(path) as f:
        f.write(INDEX_MAGIC + header + crc)
        f.write(payload)


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
