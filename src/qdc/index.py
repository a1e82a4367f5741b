"""Per-task corpus indexes: build, persist, load, exact top-k search.

Search is exact brute force over cosine similarity, ties by ascending
doc_id. Rows are stored float32. A search runs in two stages, as FAISS
refines a compressed scan with exact distances (Johnson et al.,
arXiv:1702.08734): a float32 scan of the unit rows keeps every row that can
be in the top k, and only those candidates are scored exactly, in float64,
with one fixed-order dot product a row. A row's exact score therefore does
not depend on which other rows or queries it is scored with: identical rows
tie bit for bit, and search_rows, which scans a block of queries with one
matrix product, gives search_topk's rankings and scores to the bit. The
scan reads the unit rows laid out for it, as one (d, N) matrix, and takes
each query's candidates, the rows within a margin of a floor at or below its
k-th best scan, out of its block's flat mask.

Beyond the index itself, building, scanning, saving and loading allocate a
chunk of rows at a time, never a float64 or byte copy of all of them: a
build writes each encoded chunk's float32 rows into the index, the scan
rows and norms are computed a chunk at a time, a save writes and checksums
the rows from their own buffer, and a load reads them into their float32
array and checks them a chunk at a time.
"""
from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .encoder import EncoderParams, FeatureRows, _encode_into, tokenize_rows
from .errors import (
    CorruptIndexError,
    DimMismatchError,
    DuplicateDocIdError,
    EmptyCorpusError,
    NonFiniteError,
)
from .fileio import atomic_write
from .vecops import ZERO_NORM_EPS, above_floor, id_rank, scaled_rows

if TYPE_CHECKING:
    from .datagen import TaskDataset

INDEX_MAGIC = b"QDCIDX01"
# float32 scan scores computed at a time: a block of queries against every
# row, 256 KB at most unless one query's scores alone take more. The exact
# stage copies each candidate row and its query in float64, 16 * dim bytes
# a candidate: about k candidates a query, and one per score only when
# every row ties.
_SEARCH_SCORES = 1 << 16
_INDEX_HEADER = struct.Struct("<IIII")  # task_id, encoder_version, N, d
# rows an index casts or checks at a time, so that a float64 or boolean copy
# of its rows is never made whole
_CHUNK_ROWS = 1024


@dataclass(frozen=True, slots=True)
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
    def _scoring(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.float32]:
        # built on the first search: the float32 unit rows the scan reads,
        # the float64 norms the exact scores divide by, each doc id's rank
        # and the scan margin. The unit rows are one C-contiguous (d, N)
        # matrix, cast straight from the transposed float64 rows, so a
        # block's scan is block32 @ scan; against the F-order view of (N, d)
        # rows the product took 1.6 times as long on a 32 x 2,000 block and
        # twice as long on a 3 x 20,000 one (d = 64, one BLAS thread).
        # The norms are per row, so casting a chunk of rows at a time
        # changes none of their bits.
        n = len(self.rows)
        norms = np.empty(n)
        scan = np.empty((self.dim, n), dtype=np.float32)
        for lo in range(0, n, _CHUNK_ROWS):
            rows64 = self.rows[lo : lo + _CHUNK_ROWS].astype(np.float64)
            hi = lo + len(rows64)
            norms[lo:hi] = np.linalg.norm(rows64, axis=1)
            rows64 /= norms[lo:hi, None]
            scan[:, lo:hi] = rows64.T
        return scan, norms, id_rank(self.doc_ids), _scan_margin(self.dim)


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
    # each chunk's float32 rows go straight into the index: no float64
    # matrix of the whole corpus
    rows = _encode_into(
        params,
        corpus_rows(corpus, params.vocab_size),
        np.empty((len(corpus), params.dim), dtype=np.float32),
    )
    return CorpusIndex(
        task_id=task_id,
        encoder_version=params.version,
        dim=params.dim,
        rows=rows,
        doc_ids=doc_ids,
    )


def _scan_margin(dim: int) -> np.float32:
    """How far below the k-th best scan score a row of the exact top k can
    scan, for queries and rows of dim entries.

    With u = 2^-24 and gamma_n = nu / (1 - nu), a row's float32 scan score
    is within eps = gamma_{d+4} of its exact score. Rounding the unit query
    and the unit row to float32 costs at most u each; a d-term float32 dot,
    summed in any order with or without FMA, at most gamma_d (underflow
    adds at most d * 2^-149); and the exact score, a float64 dot over the
    row's norm, lies within (d+2) * 2^-53 of its real value: under
    gamma_{d+3} in all. The k rows scanning at or above the k-th best scan
    score K all score at least K - eps exactly, so the k-th best exact
    score does too, and a row of the exact top k scans at least K - 2 eps.
    Twice the gap gamma_{d+4} - gamma_{d+3} > u covers rounding 2 eps and
    the cut K - 2 eps to float32 while eps <= 1/4; past that every row is
    kept.

    Any float32 floor L <= K, such as the k-th best scan of k distinct rows,
    serves as well: rounding is monotone, so the cut L - margin is at or
    below K - margin and keeps every row that one keeps; the exact scores
    rank the extra rows, which score below the k-th best, after the top k.
    """
    n = (dim + 4) * 2.0**-24
    # eps = n / (1 - n) <= 1/4 while n <= 1/5
    return np.float32(2 * n / (1 - n) if n <= 0.2 else np.inf)


def search_topk(
    index: CorpusIndex, q: np.ndarray, k: int
) -> list[tuple[str, float]]:
    """Exact top-k by cosine, ties by ascending doc_id; clamps k to N."""
    arr = np.asarray(q, dtype=np.float64)
    if arr.shape != (index.dim,):
        raise DimMismatchError(f"query shape {arr.shape} vs dim {index.dim}")
    return search_rows(index, arr[None], k)[0]


def search_rows(
    index: CorpusIndex, queries: np.ndarray, k: int
) -> list[list[tuple[str, float]]]:
    """search_topk for each row of an (n, d) query matrix, in row order.

    Each block of queries is scanned with one float32 matrix product. A
    query's candidates, the rows scanning within _scan_margin of its floor
    (above_floor), are scored exactly, and one lexsort by (query, -score,
    doc_id) ranks the whole block's.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scan, norms, rank, margin = index._scoring
    arr = np.asarray(queries, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != index.dim:
        raise DimMismatchError(f"queries shape {arr.shape} vs dim {index.dim}")
    if not np.isfinite(arr).all():
        raise NonFiniteError("cannot search with a NaN or infinite query")
    arr, qn = scaled_rows(arr, "query embedding")
    arr /= qn[:, None]
    doc_ids = index.doc_ids
    n = len(doc_ids)
    kk = min(k, n)
    step = max(1, _SEARCH_SCORES // n)
    rankings = []
    for lo in range(0, len(arr), step):
        block = arr[lo : lo + step]
        row, cand = above_floor(block.astype(np.float32) @ scan, kk, margin)
        # exact scores of the candidates: one fixed-order float64 dot a row
        scores = np.einsum(
            "ij,ij->i", index.rows[cand].astype(np.float64), block[row]
        ) / norms[cand]
        # each row's run, at least kk candidates, by (-score, doc_id)
        order = np.lexsort((rank[cand], -scores, row))
        starts = np.searchsorted(row, np.arange(len(block)))
        top = order[(starts[:, None] + np.arange(kk)).ravel()]
        hits = list(zip([doc_ids[i] for i in cand[top].tolist()], scores[top].tolist()))
        rankings += [hits[a : a + kk] for a in range(0, len(hits), kk)]
    return rankings


def save_index(index: CorpusIndex, path) -> None:
    """Binary dump with a CRC32 over the payload; round-trips bit-exactly.

    The payload is the rows, little-endian float32, then the doc-id table
    (each id's UTF-8 length and bytes). The rows are written, and checked,
    from the array's own buffer.
    """
    n = len(index.doc_ids)
    rows = memoryview(np.ascontiguousarray(index.rows, dtype="<f4")).cast("B")
    table = bytearray()
    for doc_id in index.doc_ids:
        raw = doc_id.encode("utf-8")
        table += struct.pack("<I", len(raw))
        table += raw
    header = _INDEX_HEADER.pack(index.task_id, index.encoder_version, n, index.dim)
    crc = struct.pack("<I", zlib.crc32(table, zlib.crc32(rows)))
    with atomic_write(path) as f:
        f.write(INDEX_MAGIC + header + crc)
        f.write(rows)
        f.write(table)


def load_index(path) -> CorpusIndex:
    """Read an index file, rejecting bad magic, bad CRC, or layout drift.

    The rows are read into their float32 array and checked a chunk at a
    time: each must be finite, and a row whose largest |entry| is below
    ZERO_NORM_EPS must have an exact norm of at least that.
    """
    base = len(INDEX_MAGIC) + _INDEX_HEADER.size + 4
    with open(path, "rb") as f:
        head = f.read(base)
        if len(head) < base or head[: len(INDEX_MAGIC)] != INDEX_MAGIC:
            raise CorruptIndexError(f"bad magic or truncated header: {path}")
        task_id, encoder_version, n, dim = _INDEX_HEADER.unpack_from(
            head, len(INDEX_MAGIC)
        )
        (crc,) = struct.unpack_from("<I", head, base - 4)
        if n < 1 or dim < 1:
            raise CorruptIndexError(f"invalid header counts: {path}")
        # the size is checked before the rows are allocated
        if os.fstat(f.fileno()).st_size - base < n * dim * 4:
            raise CorruptIndexError(f"row data truncated: {path}")
        rows = np.empty((n, dim), dtype="<f4")
        if f.readinto(memoryview(rows).cast("B")) != rows.nbytes:
            raise CorruptIndexError(f"row data truncated: {path}")
        table = f.read()
    if zlib.crc32(table, zlib.crc32(memoryview(rows).cast("B"))) != crc:
        raise CorruptIndexError(f"payload CRC mismatch: {path}")
    offset = 0
    doc_ids: list[str] = []
    for _ in range(n):
        if offset + 4 > len(table):
            raise CorruptIndexError(f"doc_id table truncated: {path}")
        (length,) = struct.unpack_from("<I", table, offset)
        offset += 4
        if offset + length > len(table):
            raise CorruptIndexError(f"doc_id table truncated: {path}")
        try:
            doc_ids.append(table[offset : offset + length].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CorruptIndexError(f"doc_id not valid UTF-8: {path}") from exc
        offset += length
    if offset != len(table):
        raise CorruptIndexError(f"trailing bytes after doc_id table: {path}")
    if len(set(doc_ids)) != n:
        raise CorruptIndexError(f"duplicate doc_ids in file: {path}")
    # a no-op on little-endian hosts
    rows = rows.astype(np.float32, copy=False)
    for lo in range(0, n, _CHUNK_ROWS):
        chunk = rows[lo : lo + _CHUNK_ROWS]
        if not np.isfinite(chunk).all():
            raise CorruptIndexError(f"non-finite or zero rows: {path}")
        # a row's norm is never below its largest |entry|
        small = chunk[np.abs(chunk).max(axis=1) < ZERO_NORM_EPS]
        if (np.linalg.norm(small.astype(np.float64), axis=1) < ZERO_NORM_EPS).any():
            raise CorruptIndexError(f"non-finite or zero rows: {path}")
    return CorpusIndex(
        task_id=task_id,
        encoder_version=encoder_version,
        dim=dim,
        rows=rows,
        doc_ids=doc_ids,
    )
