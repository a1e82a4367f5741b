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
    search and of top_order.
    """
    return np.argsort(np.argsort(np.asarray(ids), kind="stable"))


def top_order(scores: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the min(k, N) best scores, descending, ties by ascending id.

    Hard-negative mining ranks each query's scores with it. Equal to the
    first k of a full lexsort by (-score, id): a partition finds
    the k-th best score, every candidate at or above it (all ties at the cut
    included) is kept, and only those are sorted.
    """
    n = len(scores)
    if k < n:
        kth = np.partition(scores, n - k)[n - k]
        cand = np.flatnonzero(scores >= kth)
    else:
        cand = np.arange(n)
    return cand[np.lexsort((ids[cand], -scores[cand]))][:k]
