"""Vector primitives shared by every other module.

All internal arithmetic is float64; float32 appears only at index storage
time. Zero vectors are hard errors everywhere: they indicate upstream
tokenization bugs, never data worth normalizing.
"""
from __future__ import annotations

import numpy as np

from .errors import ZeroVectorError

ZERO_NORM_EPS = 1e-12


def scaled_rows(rows: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Each row of a finite (n, d) matrix times the power of two that brings
    its largest |entry| into [0.5, 1), and the norms of the scaled rows.

    The scaling is exact, so a unit row keeps its bits, and no square
    overflows. One dot a row, the bits np.linalg.norm gives one vector.
    Raises ZeroVectorError, naming what, when a row's true norm is below
    ZERO_NORM_EPS.
    """
    big = np.abs(rows).max(axis=1)
    _, exp = np.frexp(big)
    scaled = np.ldexp(rows, -exp[:, None])
    norms = np.sqrt([row @ row for row in scaled])
    # a norm is never below its row's largest |entry|
    if (big < ZERO_NORM_EPS).any():
        with np.errstate(over="ignore"):  # a norm past float64's range
            if (np.ldexp(norms, exp) < ZERO_NORM_EPS).any():
                raise ZeroVectorError(f"{what} is numerically zero")
    return scaled, norms


def id_rank(ids) -> np.ndarray:
    """Each id's position in ascending (id, position) order.

    An integer key that sorts as the ids do, for the doc_id tie-break of
    search and of hard-negative mining.
    """
    return np.argsort(np.argsort(np.asarray(ids), kind="stable"))


def above_floor(scores: np.ndarray, k: int, below=0) -> tuple[np.ndarray, ...]:
    """(row, column) of each row's finite scores at or above its floor less
    below, row-major. For 1 <= k <= n, a row's floor is the k-th best of its
    maxima over the m = min(n, 32 k) strided groups j, j + m, ... (columns
    past the last whole group are in none), so at most its k-th best score."""
    b, n = scores.shape
    m = min(n, 32 * k)
    best = scores[:, : n // m * m].reshape(b, n // m, m).max(axis=1)
    floor = np.partition(best, m - k, axis=1)[:, m - k] - below
    floor = np.maximum(floor, np.finfo(scores.dtype).min)
    return np.divmod(np.flatnonzero(scores >= floor[:, None]), n)


def top_per_row(row, scores, ids, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first k entries by descending score, ties by ascending id
    (entry i is in row row[i]; a shorter row keeps all): their positions,
    rows ascending and best first, and each one's place in its row."""
    order = np.lexsort((ids, -scores, row))
    row = row[order]
    slots = np.arange(len(order)) - np.searchsorted(row, row)
    keep = slots < k
    return order[keep], slots[keep]
