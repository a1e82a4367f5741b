"""Hashed bag-of-tokens encoder with exact analytic gradients.

The encoder is a single V x d projection applied to mean-pooled hashed
token counts, with an L2-normalized output. It is the smallest model where
the contrastive and distillation losses have non-trivial gradients that can
be checked against finite differences.
"""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import (
    CorruptSnapshotError,
    EmptyBatchError,
    NonFiniteError,
    ShapeMismatchError,
    ZeroVectorError,
)
from .fileio import atomic_write
from .vecops import ZERO_NORM_EPS

DEFAULT_VOCAB = 32768
DEFAULT_DIM = 64
DEFAULT_TAU = 0.05

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


class _Separators(dict):
    """str.translate table: an alphanumeric code point maps to itself and
    any other to a space, so split() yields the maximal alphanumeric runs.
    Each code point is classified once, on first sight."""

    def __missing__(self, c: int) -> str:
        ch = chr(c)
        self[c] = keep = ch if ch.isalnum() else " "
        return keep


_SEPARATORS = _Separators()


def _split_tokens(text: str) -> list[str]:
    return text.lower().translate(_SEPARATORS).split()


SNAPSHOT_MAGIC = b"QDCENC01"
_SNAPSHOT_HEADER = struct.Struct("<IIdI")  # vocab, dim, temperature, version


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    h = FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) & _MASK64
    return h


@lru_cache(maxsize=1 << 16)
def _token_id(token: str, vocab_size: int) -> int:
    # a text stream reuses a few thousand distinct tokens millions of times
    return fnv1a64(token.encode("utf-8")) % vocab_size


def tokenize(text: str, vocab_size: int = DEFAULT_VOCAB) -> FeatureRows:
    """The text's one-row table: lowercase, split on non-alphanumeric runs,
    hash FNV-1a mod vocab, weigh each id by its count over the token total.

    A token is a maximal run of alphanumeric (str.isalnum) code points;
    "_", punctuation, whitespace and every other code point separate. That
    is the regex [^\\W_]+ on a str, whose \\w is isalnum() or "_". The
    lowercased text has each separator translated to a space and is split
    on whitespace, which no alphanumeric character is.

    Empty text maps to the reserved id 0 with weight 1 so every input stays
    encodable.
    """
    tokens = _split_tokens(text)
    if not tokens:
        return _one_row([0], [1.0])
    counts: dict[int, int] = {}
    for tok in tokens:
        idx = _token_id(tok, vocab_size)
        counts[idx] = counts.get(idx, 0) + 1
    ids = sorted(counts)
    return _one_row(ids, np.array([counts[i] for i in ids]) / len(tokens))


@dataclass(frozen=True)
class EncoderParams:
    """Projection matrix plus hashing/loss configuration.

    version tags the snapshot with the task index t of f_t. linear_output
    skips the final normalization; it exists for drift-algebra tests where
    an exact constant offset between two encoders is needed.
    """

    W: np.ndarray
    vocab_size: int
    dim: int
    temperature: float
    version: int = 0
    linear_output: bool = False

    def __post_init__(self) -> None:
        if self.W.shape != (self.vocab_size, self.dim):
            raise ShapeMismatchError(
                f"W shape {self.W.shape} vs (V={self.vocab_size}, d={self.dim})"
            )
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")


def init_params(
    vocab_size: int,
    dim: int,
    temperature: float,
    rng: np.random.Generator,
) -> EncoderParams:
    """Random pre-trained stand-in f_0: rows scaled to unit-ish norm."""
    w = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(vocab_size, dim))
    return EncoderParams(
        W=w, vocab_size=vocab_size, dim=dim, temperature=temperature, version=0
    )


def encode(params: EncoderParams, feats: FeatureRows) -> np.ndarray:
    """The embedding of a one-row table: its weights times its rows of W,
    L2-normalized."""
    if len(feats) != 1:
        raise ValueError(f"encode takes one row, got a table of {len(feats)}")
    ids = feats.ids
    if int(ids[-1]) >= params.vocab_size:
        raise ValueError(f"token id {int(ids[-1])} >= vocab {params.vocab_size}")
    raw = feats.weights @ params.W[ids]
    if params.linear_output:
        return raw
    norm = np.sqrt(raw @ raw)
    if norm < ZERO_NORM_EPS:
        raise ZeroVectorError("encoder produced a numerically zero embedding")
    return raw / norm


@dataclass(frozen=True, eq=False)
class FeatureRows:
    """A population of inputs as one CSR table.

    Row i holds the token ids ids[indptr[i]:indptr[i + 1]], ascending, with
    weights count/total, so its raw embedding is that slice of weights
    times those rows of W.
    """

    indptr: np.ndarray
    ids: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.indptr) - 1


def _one_row(ids, weights) -> FeatureRows:
    """The table of one input: ascending token ids and their weights."""
    return FeatureRows(
        np.array([0, len(ids)], dtype=np.int64),
        np.asarray(ids, dtype=np.int32),
        np.asarray(weights, dtype=np.float64),
    )


def feature_rows(tables) -> FeatureRows:
    """One table of the given tables' rows, stacked in order."""
    tables = list(tables)
    offsets = np.cumsum([0] + [len(t.ids) for t in tables], dtype=np.int64)
    return FeatureRows(
        np.concatenate(
            [offsets[:1]] + [t.indptr[1:] + o for t, o in zip(tables, offsets)]
        ),
        np.concatenate([np.empty(0, dtype=np.int32)] + [t.ids for t in tables]),
        np.concatenate([np.empty(0)] + [t.weights for t in tables]),
    )


# texts that tokenize_rows counts at a time. A run's token strings and
# arrays hold one entry per token occurrence, about 1 MB for 256 documents
# of the shipped stream; a run bounds them however large the population
_TOKENIZE_RUN = 256


def tokenize_rows(texts, vocab_size: int = DEFAULT_VOCAB) -> FeatureRows:
    """The table of a list of texts, one row per text, in order.

    Row i is tokenize(texts[i], vocab_size), bit for bit. Each
    distinct token is hashed once, and a run of texts counts its (row, id)
    pairs with one np.unique over row * vocab_size + id, so tokens that
    hash to one id sum there.
    """
    # "" is no token; it stands for an empty text's reserved id 0
    id_of = {"": 0}
    sizes = [np.empty(0, dtype=np.int64)]
    ids = [np.empty(0, dtype=np.int32)]
    weights = [np.empty(0, dtype=np.float64)]
    for lo in range(0, len(texts), _TOKENIZE_RUN):
        tokens = [
            _split_tokens(text) or [""]
            for text in texts[lo : lo + _TOKENIZE_RUN]
        ]
        flat = list(chain.from_iterable(tokens))
        for tok in set(flat).difference(id_of):
            id_of[tok] = _token_id(tok, vocab_size)
        n = len(tokens)
        totals = np.fromiter(map(len, tokens), np.int64, n)
        keys = np.repeat(np.arange(n, dtype=np.int64) * vocab_size, totals)
        keys += np.fromiter(map(id_of.__getitem__, flat), np.int64, len(flat))
        keys, counts = np.unique(keys, return_counts=True)
        row = keys // vocab_size
        sizes.append(np.bincount(row, minlength=n))
        ids.append((keys - row * vocab_size).astype(np.int32))
        weights.append(counts / totals[row])
    indptr = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(sizes), out=indptr[1:])
    return FeatureRows(indptr, np.concatenate(ids), np.concatenate(weights))


# inputs per dense weight block. A block has one column per distinct token
# id its inputs touch, so it holds at most _BLOCK_ROWS entries per nonzero:
# its GEMM does at most _BLOCK_ROWS times the work of a sparse product,
# whether the inputs share a few hundred ids or none. Fewer rows when the
# vocabulary is large keep a block under _MAX_WEIGHTS entries (8 MB).
_BLOCK_ROWS = 32
_MAX_WEIGHTS = 1 << 20


def _block_rows(vocab_size: int) -> int:
    return max(1, min(_BLOCK_ROWS, _MAX_WEIGHTS // vocab_size))


def _sorted_distinct(ids: np.ndarray) -> np.ndarray:
    """ids' distinct values, ascending: one sort and an adjacent-difference
    mask."""
    ids = np.sort(ids)
    keep = np.ones(len(ids), dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def _weight_blocks(table: FeatureRows, sel: np.ndarray, vocab_size: int):
    """Yield (lo, rows, x): table rows sel, in runs, with dense weights.

    Entry (i, j) of x is the weight of token rows[j] in table row
    sel[lo + i], so those inputs' raw embeddings are x @ W[rows]. The
    selection's entries are gathered once. A run's rows are its ids sorted
    less repeats, and a vocabulary-length slot map gives each id its column.
    """
    step = _block_rows(vocab_size)
    starts = table.indptr[sel]
    lengths = table.indptr[sel + 1] - starts
    ends = np.cumsum(lengths)
    first = ends - lengths
    # entry e of the selection lies at its row's start plus e less first
    pos = np.repeat(starts - first, lengths)
    pos += np.arange(len(pos))
    ids, weights = table.ids[pos], table.weights[pos]
    owner = np.repeat(np.arange(len(sel)) % step, lengths)
    bounds = np.append(first[::step], ends[-1:]).tolist()
    slot = np.empty(vocab_size, dtype=np.intp)
    for lo, a, b in zip(range(0, len(sel), step), bounds, bounds[1:]):
        rows = _sorted_distinct(ids[a:b])
        if int(rows[-1]) >= vocab_size:
            raise ValueError(f"token id {int(rows[-1])} >= vocab {vocab_size}")
        slot[rows] = np.arange(len(rows))
        x = np.zeros((min(step, len(sel) - lo), len(rows)), dtype=np.float64)
        x[owner[a:b], slot[ids[a:b]]] = weights[a:b]
        yield lo, rows, x


def _project(W: np.ndarray, blocks, out: np.ndarray) -> np.ndarray:
    """Write the raw (unnormalized) embeddings of the inputs the blocks
    cover into out; returns out. W.take is W[rows], faster."""
    for lo, rows, x in blocks:
        out[lo : lo + len(x)] = x @ W.take(rows, axis=0)
    return out


def _normalize(raw: np.ndarray) -> np.ndarray:
    """Scale rows to unit length in place; returns the norms."""
    norms = np.linalg.norm(raw, axis=1)
    if len(raw) and float(norms.min()) < ZERO_NORM_EPS:
        raise ZeroVectorError("encoder produced a numerically zero embedding")
    raw /= norms[:, None]
    return norms


class _EncodedBatch:
    """Forward pass results kept for the manual backward pass."""

    __slots__ = ("blocks", "norms", "units")

    def __init__(self, params: EncoderParams, table: FeatureRows, sel) -> None:
        self.blocks = list(_weight_blocks(table, sel, params.vocab_size))
        self.units = _project(
            params.W, self.blocks, np.empty((len(sel), params.dim))
        )
        self.norms = _normalize(self.units)


# table rows encoded at a time: their gathered entries, dense weight blocks
# and norms are the encoder's temporaries, bounded however large the table
_ENCODE_ROWS = 1024


def _encode_into(params: EncoderParams, table: FeatureRows, out: np.ndarray):
    """Write the embeddings of the table's rows into out, a float array of
    len(table) rows, _ENCODE_ROWS rows at a time; returns out.

    A chunk holds a whole number of weight blocks and starts at a block
    boundary, so every block, and the GEMM that projects it, is the one a
    single pass over the table would make.
    """
    step = _block_rows(params.vocab_size)
    chunk = step * max(1, _ENCODE_ROWS // step)
    n = len(table)
    for lo in range(0, n, chunk):
        sel = np.arange(lo, min(n, lo + chunk))
        units = _project(
            params.W,
            _weight_blocks(table, sel, params.vocab_size),
            np.empty((len(sel), params.dim)),
        )
        if not params.linear_output:
            _normalize(units)
        out[lo : lo + len(units)] = units
    return out


def encode_batch(params: EncoderParams, feats_list: FeatureRows) -> np.ndarray:
    """Encode every row of a FeatureRows table; rows follow the table."""
    return _encode_into(
        params, feats_list, np.empty((len(feats_list), params.dim), dtype=np.float64)
    )


class RowGrad(NamedTuple):
    """A gradient of W that is zero outside some rows.

    rows are the sorted distinct row ids a batch touched; values holds
    their gradient, one row of values per id.
    """

    rows: np.ndarray
    values: np.ndarray

    def dense(self, vocab_size: int) -> np.ndarray:
        """The full vocab_size x d gradient."""
        out = np.zeros((vocab_size, self.values.shape[1]), dtype=np.float64)
        out[self.rows] = self.values
        return out


def merge_grads(parts, shape: tuple[int, int]) -> RowGrad:
    """Sum (rows, values) gradient blocks of a shape-sized W, in order.

    The rows of one block must be distinct. Each touched row starts at zero
    and adds the blocks that hold it in the order given. The touched rows
    come from one sort, and a slot map over W's rows places each block.
    """
    parts = list(parts)
    if not parts:
        return RowGrad(np.empty(0, dtype=np.intp), np.zeros((0, shape[1])))
    rows = _sorted_distinct(np.concatenate([r for r, _ in parts]))
    slot = np.empty(shape[0], dtype=np.intp)
    slot[rows] = np.arange(len(rows))
    values = np.zeros((len(rows), shape[1]), dtype=np.float64)
    for block_rows, block in parts:
        values[slot[block_rows]] += block
    return RowGrad(rows, values)


def _backprop(batch: _EncodedBatch, g_units: np.ndarray):
    """Yield (rows, gradient block) per weight block of the batch."""
    # through normalization: g_raw = (g - (g.u) u) / |raw|, then into the
    # touched rows through the count/total weights
    u = batch.units
    g_dot_u = np.einsum("ij,ij->i", g_units, u)
    g_raw = (g_units - g_dot_u[:, None] * u) / batch.norms[:, None]
    for lo, rows, x in batch.blocks:
        yield rows, x.T @ g_raw[lo : lo + len(x)]


def _first_occurrence(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct, slot): rows' distinct values in first-occurrence order,
    and each entry's position among them. rows are nonnegative; a map over
    0..max(rows) holds each value's first position."""
    n = len(rows)
    first = np.full(int(rows.max()) + 1 if n else 0, n)
    np.minimum.at(first, rows, np.arange(n))
    head = first[rows]
    is_first = head == np.arange(n)
    return rows[is_first], (np.cumsum(is_first) - 1)[head]


def contrastive_loss(
    params: EncoderParams,
    queries: FeatureRows,
    docs: FeatureRows,
    q_rows,
    pos_rows,
    neg_rows,
    targets: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, RowGrad]:
    """Supervised contrastive loss over (query, doc) pairs.

    Pair i is query q_rows[i] of queries with positive pos_rows[i] of docs;
    neg_rows[i] lists its hard negatives as docs rows, padded with -1. Per
    query the denominator sums similarity exponentials over every in-batch
    document (the positive included) plus that query's hard negatives. Each
    distinct docs row is encoded once, however many positives and negatives
    it appears as. targets = (q_old, d_old), the previous encoder's
    embeddings of each pair's query and positive, adds distill_loss's term
    for those pairs, in the same forward and backward pass. Returns (loss,
    dLoss/dW) with the gradient on the rows the batch touched.
    """
    q_rows = np.asarray(q_rows, dtype=np.intp)
    pos_rows = np.asarray(pos_rows, dtype=np.intp)
    n = len(q_rows)
    if n == 0:
        raise EmptyBatchError("contrastive loss over an empty batch")
    neg_rows = np.asarray(neg_rows, dtype=np.intp)
    if len(pos_rows) != n or neg_rows.ndim != 2 or len(neg_rows) != n:
        raise ValueError("positives and hard negatives must align with the batch")

    # query i's negatives fill row i of an n x h x d block; its padding
    # cells hold zero vectors whose logits are -inf. The live cells, in
    # row-major order, follow pos in one list of document occurrences
    live = neg_rows >= 0
    owner = live.nonzero()[0]
    distinct, slot = _first_occurrence(np.concatenate([pos_rows, neg_rows[live]]))
    pos, neg = slot[:n], slot[n:]
    q_enc = _EncodedBatch(params, queries, q_rows)
    doc_enc = _EncodedBatch(params, docs, distinct)
    q = q_enc.units
    docs_u = doc_enc.units[pos]
    negs = np.zeros(live.shape + (q.shape[1],), dtype=np.float64)
    negs[live] = doc_enc.units[neg]

    tau = params.temperature
    s_neg = np.where(live, (negs @ q[:, :, None])[:, :, 0], -np.inf)
    logits = np.concatenate([q @ docs_u.T, s_neg], axis=1) / tau
    top = logits.max(axis=1)
    p = np.exp(logits - top[:, None])
    z = p.sum(axis=1)
    diag = np.arange(n)
    loss = float(np.sum(top + np.log(z) - logits[diag, diag]) / n)

    coef = p / z[:, None]
    coef[diag, diag] -= 1.0
    coef *= 1.0 / (n * tau)
    c_in, c_neg = coef[:, :n], coef[:, n:]
    gq = c_in @ docs_u + (c_neg[:, None, :] @ negs)[:, 0]
    # scatter-add every occurrence's gradient into its document's row, in
    # occurrence order; bincount over flat (row, column) cells is faster
    # than np.add.at over rows
    m, dim = doc_enc.units.shape
    cells = slot[:, None] * dim + np.arange(dim)
    g_occ = np.concatenate([c_in.T @ q, c_neg[live][:, None] * q[owner]])
    if targets is not None:
        # the positive occurrences are g_occ's first n rows
        distill, g_q, g_d = _distill_terms(q, docs_u, *targets)
        loss += distill
        gq += g_q
        g_occ[:n] += g_d
    g_docs = np.bincount(
        cells.ravel(), weights=g_occ.ravel(), minlength=m * dim
    ).reshape(m, dim)
    grads = merge_grads(
        chain(_backprop(doc_enc, g_docs), _backprop(q_enc, gq)),
        params.W.shape,
    )
    return loss, grads


def _distill_terms(
    q: np.ndarray, d: np.ndarray, q_old: np.ndarray, d_old: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """The distillation loss of n pairs' query and document units q and d
    against their targets, and its gradients with respect to q and d."""
    if q_old.shape != q.shape or d_old.shape != d.shape:
        raise ShapeMismatchError(
            f"targets of {q_old.shape} and {d_old.shape} vs {len(q)} pairs of "
            f"dim {q.shape[1]}"
        )
    n = len(q)
    units = np.concatenate([q, d])
    targets = np.concatenate([q_old, d_old])
    loss = float(np.sum(1.0 - np.einsum("ij,ij->i", units, targets)) / n)
    return loss, -q_old / n, -d_old / n


def distill_loss(
    params: EncoderParams,
    queries: FeatureRows,
    docs: FeatureRows,
    q_rows,
    d_rows,
    q_old: np.ndarray,
    d_old: np.ndarray,
) -> tuple[float, RowGrad]:
    """Cosine-distance tie to the frozen previous encoder, queries and docs.

    The batch is queries rows q_rows and docs rows d_rows; q_old and d_old
    are the previous encoder's embeddings of those inputs, row for row.
    Returns (loss, dLoss/dW) with the gradient on the rows the batch
    touched. Training adds this term inside contrastive_loss (its targets);
    this standalone form is its reference.
    """
    n = len(q_rows)
    if n == 0:
        raise EmptyBatchError("distillation loss over an empty batch")
    if len(d_rows) != n:
        raise ValueError("query and document rows must align")
    q_enc = _EncodedBatch(params, queries, np.asarray(q_rows, dtype=np.intp))
    d_enc = _EncodedBatch(params, docs, np.asarray(d_rows, dtype=np.intp))
    loss, g_q, g_d = _distill_terms(q_enc.units, d_enc.units, q_old, d_old)
    grads = merge_grads(
        chain(_backprop(q_enc, g_q), _backprop(d_enc, g_d)), params.W.shape
    )
    return loss, grads


def sgd_step(
    v: np.ndarray,
    scale: float,
    grads: RowGrad,
    lr: float,
    wd: float,
) -> float:
    """One SGD step with decoupled weight decay on W = scale * v.

    grads is the loss gradient with respect to v. In exact arithmetic the
    step is W <- W - lr*dW - lr*wd*W: the decay multiplies scale by
    1 - lr*wd, and only the gradient's rows of v are written, in place.
    Returns the new scale. v is left part-written if the step overflows.
    """
    rows, values = grads
    if values.shape != (len(rows), v.shape[1]) or (
        len(rows) and int(rows[-1]) >= len(v)
    ):
        raise ShapeMismatchError(
            f"gradient of {values.shape} on {len(rows)} rows vs v {v.shape}"
        )
    if not 0.0 <= lr * wd < 1.0:
        raise ValueError(f"lr * wd must be in [0, 1), got {lr * wd}")
    if not scale > 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    # W' = s'v' with s' = s(1 - lr*wd), and dLoss/dW = dLoss/dv / s
    new_scale = scale * (1.0 - lr * wd)
    # the rows are gathered once, for the update and for its check
    stepped = v.take(rows, axis=0)
    stepped -= lr * values / (scale * new_scale)
    v[rows] = stepped
    if not np.isfinite(stepped).all():
        raise NonFiniteError("sgd step produced non-finite weights")
    return new_scale


def _random_feats(rng: np.random.Generator, vocab_size: int) -> FeatureRows:
    m = int(rng.integers(3, 9))
    idx = np.sort(rng.choice(vocab_size, size=m, replace=False))
    cnt = rng.integers(1, 4, size=m)
    return _one_row(idx, cnt / cnt.sum())


def grad_check(loss_kind: str, seed: int, max_coords: int = 256) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Builds a small random instance from the seed (V=64, d=8, n=4, H=2) and
    probes every touched (row, column) coordinate, subsampled to max_coords.
    The contrastive instance repeats documents across positives and hard
    negatives, so their gradients must sum into shared rows.
    The instance runs at temperature 0.5: sharp production temperatures push
    softmax tails to ~1e-8, below what central differences can resolve, while
    0.5 keeps every coordinate live and still exercises the 1/tau scaling.
    Coordinates where analytic and numeric are both under an absolute floor
    count as agreeing at zero; finite differences cannot rank error there.
    """
    if loss_kind not in ("contrastive", "distill"):
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    rng = np.random.default_rng(seed)
    vocab, dim, n, h = 64, 8, 4, 2
    params = EncoderParams(
        W=rng.normal(0.0, 1.0 / np.sqrt(dim), size=(vocab, dim)),
        vocab_size=vocab,
        dim=dim,
        temperature=0.5,
        version=1,
    )
    batch = [
        (_random_feats(rng, vocab), _random_feats(rng, vocab)) for _ in range(n)
    ]
    queries = feature_rows([q for q, _ in batch])
    q_rows = np.arange(n)
    if loss_kind == "contrastive":
        negs = [_random_feats(rng, vocab) for _ in range(n * h)]
        # repeated documents, as mined batches have them: pairs 0 and 1
        # share one positive row, and query 3's first hard negative is a
        # row of its own that holds pair 2's positive features
        feats = [d for _, d in batch] + negs
        feats[n + 3 * h] = feats[2]
        docs = feature_rows(feats)
        pos_rows = np.array([0, 0, 2, 3])
        neg_rows = n + np.arange(n * h).reshape(n, h)

        def evaluate(p: EncoderParams):
            return contrastive_loss(p, queries, docs, q_rows, pos_rows, neg_rows)

        used = [q for q, _ in batch]
        used += [feats[int(i)] for i in np.concatenate([pos_rows, neg_rows.ravel()])]
    else:
        params_old = replace(
            params, W=rng.normal(0.0, 1.0 / np.sqrt(dim), size=(vocab, dim))
        )
        docs = feature_rows([d for _, d in batch])
        q_old = encode_batch(params_old, queries)
        d_old = encode_batch(params_old, docs)

        def evaluate(p: EncoderParams):
            return distill_loss(p, queries, docs, q_rows, q_rows, q_old, d_old)

        used = [f for pair in batch for f in pair]
    touched = {i for f in used for i in f.ids.tolist()}

    analytic = evaluate(params)[1].dense(vocab)
    coords = [(r, c) for r in sorted(touched) for c in range(dim)]
    if len(coords) > max_coords:
        chosen = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[int(i)] for i in sorted(chosen)]

    eps = 1e-5
    zero_floor = 1e-7
    worst = 0.0
    for r, c in coords:
        w_plus = params.W.copy()
        w_plus[r, c] += eps
        w_minus = params.W.copy()
        w_minus[r, c] -= eps
        loss_plus, _ = evaluate(replace(params, W=w_plus))
        loss_minus, _ = evaluate(replace(params, W=w_minus))
        numeric = (loss_plus - loss_minus) / (2.0 * eps)
        a = float(analytic[r, c])
        if abs(a) < zero_floor and abs(numeric) < zero_floor:
            continue
        rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
        worst = max(worst, rel)
    return worst


def save_snapshot(params: EncoderParams, path) -> None:
    """Write the encoder to disk; round-trips are bit-exact."""
    header = _SNAPSHOT_HEADER.pack(
        params.vocab_size, params.dim, params.temperature, params.version
    )
    # the weights' own buffer, unless W is not little-endian C order
    weights = np.ascontiguousarray(params.W, dtype="<f8")
    with atomic_write(path) as f:
        f.write(SNAPSHOT_MAGIC + header)
        f.write(weights.data)


def load_snapshot(path) -> EncoderParams:
    """Read an encoder snapshot, validating magic and layout."""
    base = len(SNAPSHOT_MAGIC) + _SNAPSHOT_HEADER.size
    with open(path, "rb") as f:
        head = f.read(base)
        if len(head) < base or head[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
            raise CorruptSnapshotError(f"bad magic or truncated header: {path}")
        vocab, dim, tau, version = _SNAPSHOT_HEADER.unpack(
            head[len(SNAPSHOT_MAGIC) :]
        )
        if vocab < 1 or dim < 1 or not tau > 0:
            raise CorruptSnapshotError(f"invalid header fields: {path}")
        expected = base + vocab * dim * 8
        size = os.fstat(f.fileno()).st_size
        if size != expected:
            raise CorruptSnapshotError(
                f"expected {expected} bytes, found {size}: {path}"
            )
        w = np.fromfile(f, dtype="<f8", count=vocab * dim)
    if len(w) != vocab * dim:
        raise CorruptSnapshotError(f"weights truncated while read: {path}")
    # a no-op on little-endian hosts
    w = w.reshape(vocab, dim).astype(np.float64, copy=False)
    if not np.all(np.isfinite(w)):
        raise CorruptSnapshotError(f"non-finite weights: {path}")
    return EncoderParams(
        W=w, vocab_size=vocab, dim=dim, temperature=tau, version=version
    )
