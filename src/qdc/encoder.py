"""Hashed bag-of-tokens encoder with exact analytic gradients.

The encoder is a single V x d projection applied to mean-pooled hashed
token counts, with an L2-normalized output. It is the smallest model where
the contrastive and distillation losses have non-trivial gradients that can
be checked against finite differences.
"""
from __future__ import annotations

import re
import struct
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import (
    CorruptSnapshotError,
    EmptyBatchError,
    NonFiniteError,
    ShapeMismatchError,
    ZeroVectorError,
)
from .vecops import ZERO_NORM_EPS

DEFAULT_VOCAB = 32768
DEFAULT_DIM = 64
DEFAULT_TAU = 0.05

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

# alphanumeric runs only; underscore is a separator like any other symbol
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

SNAPSHOT_MAGIC = b"QDCENC01"
_SNAPSHOT_HEADER = struct.Struct("<IIdI")  # vocab, dim, temperature, version


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    h = FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class TokenFeatures:
    """Hashed sparse bag of tokens: unique ascending ids with counts."""

    indices: tuple[int, ...]
    counts: tuple[int, ...]
    total: int

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.counts) or not self.indices:
            raise ValueError("indices and counts must be non-empty and aligned")
        if any(c < 1 for c in self.counts):
            raise ValueError("counts must be >= 1")
        if any(a >= b for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("indices must be strictly increasing")
        if self.indices[0] < 0:
            raise ValueError("indices must be non-negative")
        if self.total != sum(self.counts):
            raise ValueError("total must equal sum of counts")


@lru_cache(maxsize=1 << 16)
def _token_id(token: str, vocab_size: int) -> int:
    # a text stream reuses a few thousand distinct tokens millions of times
    return fnv1a64(token.encode("utf-8")) % vocab_size


def tokenize(text: str, vocab_size: int = DEFAULT_VOCAB) -> TokenFeatures:
    """Lowercase, split on non-alphanumeric runs, hash FNV-1a mod vocab.

    Empty text maps to the reserved id 0 with count 1 so every input stays
    encodable.
    """
    tokens = _TOKEN_RE.findall(text.lower())
    if not tokens:
        return TokenFeatures(indices=(0,), counts=(1,), total=1)
    counts: dict[int, int] = {}
    for tok, n in Counter(tokens).items():
        idx = _token_id(tok, vocab_size)
        counts[idx] = counts.get(idx, 0) + n
    indices = tuple(sorted(counts))
    return TokenFeatures(
        indices=indices,
        counts=tuple(counts[i] for i in indices),
        total=len(tokens),
    )


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


def _raw(params: EncoderParams, feats: TokenFeatures) -> np.ndarray:
    idx = np.asarray(feats.indices, dtype=np.intp)
    cnt = np.asarray(feats.counts, dtype=np.float64)
    if int(idx[-1]) >= params.vocab_size:
        raise ValueError(f"token id {int(idx[-1])} >= vocab {params.vocab_size}")
    return (cnt @ params.W[idx]) / feats.total


def encode(params: EncoderParams, feats: TokenFeatures) -> np.ndarray:
    """Mean-pooled projection of hashed counts, L2-normalized."""
    raw = _raw(params, feats)
    if params.linear_output:
        return raw
    norm = float(np.linalg.norm(raw))
    if norm < ZERO_NORM_EPS:
        raise ZeroVectorError("encoder produced a numerically zero embedding")
    return raw / norm


# inputs per dense weight block. A block has one column per distinct token
# id its inputs touch, so it holds at most _BLOCK_ROWS entries per nonzero:
# its GEMM does at most _BLOCK_ROWS times the work of a sparse product,
# whether the inputs share a few hundred ids or none. Fewer rows when the
# vocabulary is large keep a block under _MAX_WEIGHTS entries (8 MB).
_BLOCK_ROWS = 32
_MAX_WEIGHTS = 1 << 20
# rows per block in sgd_step, which keeps its temporaries under 0.5 MB at d=64
_SGD_ROWS = 1024


def _weight_blocks(feats_list, vocab_size: int):
    """Yield (lo, rows, x): the batch in row ranges with dense weights.

    Entry (i, j) of x is count/total of token rows[j] in input lo + i, so
    those inputs' raw embeddings are x @ W[rows].
    """
    step = max(1, min(_BLOCK_ROWS, _MAX_WEIGHTS // vocab_size))
    for lo in range(0, len(feats_list), step):
        chunk = feats_list[lo : lo + step]
        n = len(chunk)
        lengths = np.fromiter((len(f.indices) for f in chunk), np.intp, n)
        m = int(lengths.sum())
        ids = np.fromiter(
            chain.from_iterable(f.indices for f in chunk), np.intp, m
        )
        counts = np.fromiter(
            chain.from_iterable(f.counts for f in chunk), np.float64, m
        )
        totals = np.fromiter((f.total for f in chunk), np.float64, n)
        if int(ids.max()) >= vocab_size:
            raise ValueError(f"token id {int(ids.max())} >= vocab {vocab_size}")
        owner = np.repeat(np.arange(n), lengths)
        rows, cols = np.unique(ids, return_inverse=True)
        x = np.zeros((n, len(rows)), dtype=np.float64)
        x[owner, cols] = counts / totals[owner]
        yield lo, rows, x


def _project(W: np.ndarray, blocks, n: int) -> np.ndarray:
    """Raw (unnormalized) embeddings of the n inputs the blocks cover."""
    raw = np.empty((n, W.shape[1]), dtype=np.float64)
    for lo, rows, x in blocks:
        raw[lo : lo + len(x)] = x @ W[rows]
    return raw


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

    def __init__(self, params: EncoderParams, feats_list) -> None:
        self.blocks = list(_weight_blocks(feats_list, params.vocab_size))
        self.units = _project(params.W, self.blocks, len(feats_list))
        self.norms = _normalize(self.units)


def encode_batch(params: EncoderParams, feats_list) -> np.ndarray:
    """Encode many inputs at once; rows follow the input order."""
    # one block at a time, so only one dense weight block is ever alive
    blocks = _weight_blocks(feats_list, params.vocab_size)
    out = _project(params.W, blocks, len(feats_list))
    if not params.linear_output:
        _normalize(out)
    return out


def _backprop(batch: _EncodedBatch, g_units: np.ndarray, dW: np.ndarray) -> None:
    # through normalization: g_raw = (g - (g.u) u) / |raw|, then into the
    # touched rows through the count/total weights
    u = batch.units
    g_dot_u = np.einsum("ij,ij->i", g_units, u)
    g_raw = (g_units - g_dot_u[:, None] * u) / batch.norms[:, None]
    for lo, rows, x in batch.blocks:
        dW[rows] += x.T @ g_raw[lo : lo + len(x)]


def contrastive_loss(
    params: EncoderParams,
    batch,
    hard_negs=None,
) -> tuple[float, np.ndarray]:
    """Supervised contrastive loss over (query, doc) pairs.

    Per query the denominator sums similarity exponentials over every
    in-batch document (the positive included) plus that query's hard
    negatives. Returns (loss, dLoss/dW).
    """
    n = len(batch)
    if n == 0:
        raise EmptyBatchError("contrastive loss over an empty batch")
    if hard_negs is None:
        hard_negs = [[] for _ in range(n)]
    if len(hard_negs) != n:
        raise ValueError("hard_negs must align with the batch")

    # allocated before the batch's smaller temporaries, so it reuses the
    # memory of the V x d array the training loop just freed instead of
    # growing the heap (the temporaries would split that free block)
    dW = np.zeros_like(params.W)
    q_enc = _EncodedBatch(params, [q for q, _ in batch])
    d_enc = _EncodedBatch(params, [d for _, d in batch])
    # every query's hard negatives in one batch; query i owns rows
    # offsets[i]:offsets[i + 1]
    offsets = np.cumsum([0] + [len(negs) for negs in hard_negs])
    neg_enc = _EncodedBatch(params, [f for negs in hard_negs for f in negs])

    tau = params.temperature
    s_in = q_enc.units @ d_enc.units.T
    inv = 1.0 / (n * tau)

    loss_sum = 0.0
    gq = np.zeros_like(q_enc.units)
    gd = np.zeros_like(d_enc.units)
    gneg = np.zeros_like(neg_enc.units)
    for i in range(n):
        negs = neg_enc.units[offsets[i] : offsets[i + 1]]
        if len(negs):
            row = np.concatenate([s_in[i], q_enc.units[i] @ negs.T]) / tau
        else:
            row = s_in[i] / tau
        m = float(row.max())
        p = np.exp(row - m)
        z = float(p.sum())
        loss_sum += m + np.log(z) - row[i]
        p /= z
        coef = p
        coef[i] -= 1.0
        coef *= inv
        gq[i] = coef[:n] @ d_enc.units
        gd += coef[:n, None] * q_enc.units[i]
        if len(negs):
            gq[i] += coef[n:] @ negs
            gneg[offsets[i] : offsets[i + 1]] = coef[n:, None] * q_enc.units[i]
    _backprop(neg_enc, gneg, dW)
    _backprop(q_enc, gq, dW)
    _backprop(d_enc, gd, dW)
    return float(loss_sum / n), dW


def distill_loss(
    params_new: EncoderParams,
    params_old: EncoderParams,
    batch,
) -> tuple[float, np.ndarray]:
    """Cosine-distance tie to the frozen previous encoder, queries and docs.

    Gradient flows only through params_new. Returns (loss, dLoss/dW_new).
    """
    n = len(batch)
    if n == 0:
        raise EmptyBatchError("distillation loss over an empty batch")
    if (params_new.vocab_size, params_new.dim) != (
        params_old.vocab_size,
        params_old.dim,
    ):
        raise ShapeMismatchError("old and new encoder shapes differ")

    dW = np.zeros_like(params_new.W)  # first, as in contrastive_loss
    texts = [q for q, _ in batch] + [d for _, d in batch]
    enc_new = _EncodedBatch(params_new, texts)
    enc_old = _EncodedBatch(params_old, texts)
    dots = np.einsum("ij,ij->i", enc_new.units, enc_old.units)
    loss = float(np.sum(1.0 - dots) / n)
    _backprop(enc_new, -enc_old.units / n, dW)
    return loss, dW


def sgd_step(
    params: EncoderParams,
    grads: np.ndarray,
    lr: float,
    wd: float,
) -> EncoderParams:
    """W <- W - lr*dW - lr*wd*W (decoupled weight decay)."""
    if grads.shape != params.W.shape:
        raise ShapeMismatchError(
            f"gradient shape {grads.shape} vs W {params.W.shape}"
        )
    # row block by row block, so the only V x d array made is the result
    w = np.empty_like(params.W)
    for lo in range(0, len(w), _SGD_ROWS):
        block = slice(lo, lo + _SGD_ROWS)
        w[block] = (
            params.W[block] - lr * grads[block] - (lr * wd) * params.W[block]
        )
        if not np.isfinite(w[block]).all():
            raise NonFiniteError("sgd step produced non-finite weights")
    return replace(params, W=w)


def _random_feats(rng: np.random.Generator, vocab_size: int) -> TokenFeatures:
    m = int(rng.integers(3, 9))
    idx = np.sort(rng.choice(vocab_size, size=m, replace=False))
    cnt = rng.integers(1, 4, size=m)
    return TokenFeatures(
        indices=tuple(int(i) for i in idx),
        counts=tuple(int(c) for c in cnt),
        total=int(cnt.sum()),
    )


def grad_check(loss_kind: str, seed: int, max_coords: int = 256) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Builds a small random instance from the seed (V=64, d=8, n=4, H=2) and
    probes every touched (row, column) coordinate, subsampled to max_coords.
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
    if loss_kind == "contrastive":
        negs = [[_random_feats(rng, vocab) for _ in range(h)] for _ in range(n)]

        def evaluate(p: EncoderParams):
            return contrastive_loss(p, batch, negs)

        touched = set()
        for q, d in batch:
            touched.update(q.indices)
            touched.update(d.indices)
        for per_query in negs:
            for f in per_query:
                touched.update(f.indices)
    else:
        params_old = replace(
            params, W=rng.normal(0.0, 1.0 / np.sqrt(dim), size=(vocab, dim))
        )

        def evaluate(p: EncoderParams):
            return distill_loss(p, params_old, batch)

        touched = set()
        for q, d in batch:
            touched.update(q.indices)
            touched.update(d.indices)

    _, analytic = evaluate(params)
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
    payload = np.ascontiguousarray(params.W, dtype="<f8").tobytes()
    Path(path).write_bytes(SNAPSHOT_MAGIC + header + payload)


def load_snapshot(path) -> EncoderParams:
    """Read an encoder snapshot, validating magic and layout."""
    data = Path(path).read_bytes()
    base = len(SNAPSHOT_MAGIC) + _SNAPSHOT_HEADER.size
    if len(data) < base or data[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        raise CorruptSnapshotError(f"bad magic or truncated header: {path}")
    vocab, dim, tau, version = _SNAPSHOT_HEADER.unpack(
        data[len(SNAPSHOT_MAGIC) : base]
    )
    if vocab < 1 or dim < 1 or not tau > 0:
        raise CorruptSnapshotError(f"invalid header fields: {path}")
    expected = base + vocab * dim * 8
    if len(data) != expected:
        raise CorruptSnapshotError(
            f"expected {expected} bytes, found {len(data)}: {path}"
        )
    w = np.frombuffer(data, dtype="<f8", count=vocab * dim, offset=base)
    w = w.reshape(vocab, dim).astype(np.float64)
    if not np.all(np.isfinite(w)):
        raise CorruptSnapshotError(f"non-finite weights: {path}")
    return EncoderParams(
        W=w, vocab_size=vocab, dim=dim, temperature=tau, version=version
    )
