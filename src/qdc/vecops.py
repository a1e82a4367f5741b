"""Vector primitives shared by every other module.

All internal arithmetic is float64; float32 appears only at index storage
time. Zero vectors are hard errors everywhere: they indicate upstream
tokenization bugs, never data worth normalizing.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimMismatchError, EmptyListError

ZERO_NORM_EPS = 1e-12


def _as_vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise DimMismatchError(f"expected 1-d vector, got shape {arr.shape}")
    return arr


def mean_embedding(vs: Sequence) -> np.ndarray:
    """Component-wise mean, accumulated left to right over the given list.

    The fixed summation order makes downstream drift estimates reproducible
    bit for bit. Output is NOT re-normalized.
    """
    if len(vs) == 0:
        raise EmptyListError("mean of an empty list of vectors")
    first = _as_vector(vs[0])
    acc = first.copy()
    for v in vs[1:]:
        arr = _as_vector(v)
        if arr.shape != first.shape:
            raise DimMismatchError(
                f"dims differ: {arr.shape[0]} vs {first.shape[0]}"
            )
        acc += arr
    return acc / len(vs)


def id_rank(ids) -> np.ndarray:
    """Each id's position in ascending (id, position) order.

    An integer key that sorts as the ids do, for top_order's tie-break.
    """
    return np.argsort(np.argsort(np.asarray(ids), kind="stable"))


def top_order(scores: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the min(k, N) best scores, descending, ties by ascending id.

    Equal to the first k of a full lexsort by (-score, id): a partition finds
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
