"""Drift estimation, accumulation, and query compensation.

A transition t-1 -> t stores either one mean drift vector or k per-cluster
drift vectors with their centroids. Compensation subtracts the appropriate
vector from a new-model query embedding so it can search an old index
without re-indexing.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoder import EncoderParams, encode_batch
from .errors import (
    CorruptLedgerError,
    DimMismatchError,
    EmptyQuerySetError,
    MissingTransitionError,
    MixedRecordKindError,
    TooFewQueriesError,
    ZeroVectorError,
)
from .vecops import ZERO_NORM_EPS, mean_embedding

KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-6


@dataclass(frozen=True)
class DriftVector:
    """Mean embedding drift over one or more transitions; not unit-norm."""

    values: np.ndarray
    from_task: int
    to_task: int


@dataclass(frozen=True)
class MultiDriftRecord:
    """Per-cluster drift for one transition: centroids live in the new space."""

    centroids: np.ndarray
    vectors: np.ndarray
    from_task: int
    to_task: int

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


@dataclass
class DriftLedger:
    """Contiguous per-transition drift records."""

    dim: int
    records: list = field(default_factory=list)

    def record_for(self, from_task: int):
        for rec in self.records:
            if rec.from_task == from_task:
                return rec
        raise MissingTransitionError(
            f"no record for transition {from_task} -> {from_task + 1}"
        )

    def copy(self) -> "DriftLedger":
        return DriftLedger(dim=self.dim, records=list(self.records))


def append_record(ledger: DriftLedger, record) -> DriftLedger:
    """Return a ledger extended by one transition record (append-only)."""
    if record.to_task != record.from_task + 1:
        raise ValueError("stored records must span exactly one transition")
    expected = 1 if not ledger.records else ledger.records[-1].to_task
    if record.from_task != expected:
        raise ValueError(
            f"transition {record.from_task} -> {record.to_task} breaks "
            f"contiguity, expected from_task {expected}"
        )
    vals = record.values if isinstance(record, DriftVector) else record.vectors
    if vals.shape[-1] != ledger.dim:
        raise DimMismatchError("record dim differs from ledger dim")
    out = ledger.copy()
    out.records.append(record)
    return out


def estimate_drift(
    params_new: EncoderParams,
    params_old: EncoderParams,
    queries,
) -> DriftVector:
    """Mean of per-query embedding differences f_new(q) - f_old(q)."""
    if len(queries) == 0:
        raise EmptyQuerySetError("drift estimation needs at least one query")
    if (params_new.vocab_size, params_new.dim) != (
        params_old.vocab_size,
        params_old.dim,
    ):
        raise DimMismatchError("old and new encoder shapes differ")
    new = encode_batch(params_new, queries)
    old = encode_batch(params_old, queries)
    delta = mean_embedding(list(new - old))
    return DriftVector(
        values=delta,
        from_task=params_old.version,
        to_task=params_new.version,
    )


def accumulate_drift(ledger: DriftLedger, t_prime: int, t: int) -> DriftVector:
    """Sum single-vector records over [t_prime, t), ascending order."""
    if t_prime > t:
        raise ValueError(f"t_prime {t_prime} exceeds t {t}")
    acc = np.zeros(ledger.dim, dtype=np.float64)
    for j in range(t_prime, t):
        rec = ledger.record_for(j)
        if not isinstance(rec, DriftVector):
            raise MixedRecordKindError(
                f"transition {j} -> {j + 1} is a multi-vector record; "
                "accumulation is defined for single vectors only"
            )
        acc = acc + rec.values
    return DriftVector(values=acc, from_task=t_prime, to_task=t)


def compensate_query(q_emb: np.ndarray, delta: DriftVector) -> np.ndarray:
    """q - delta for one query or each row of an (n, d) query matrix, not
    re-normalized (cosine search is scale invariant)."""
    q = np.asarray(q_emb, dtype=np.float64)
    if q.ndim > 2 or q.shape[-1:] != delta.values.shape:
        raise DimMismatchError(
            f"query shape {q.shape} vs drift {delta.values.shape}"
        )
    out = q - delta.values
    if (np.linalg.norm(out, axis=-1) < ZERO_NORM_EPS).any():
        raise ZeroVectorError("compensated query is numerically zero")
    return out


def kmeans_pp_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: D^2-weighted draws after a uniform first pick."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(np.argmax(d2))  # all points coincide; any pick works
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # squared euclidean, ties to the lowest cluster index via argmin
    d2 = (
        np.sum(points**2, axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + np.sum(centroids**2, axis=1)[None, :]
    )
    return np.argmin(d2, axis=1)


def _reseed_empty(
    points: np.ndarray, centroids: np.ndarray, assign: np.ndarray
) -> bool:
    changed = False
    for j in range(centroids.shape[0]):
        if not np.any(assign == j):
            dist = np.sum((points - centroids[j]) ** 2, axis=1)
            centroids[j] = points[int(np.argmax(dist))]
            changed = True
    return changed


def lloyd_kmeans(
    points: np.ndarray, k: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic Lloyd iteration; returns (centroids, assignments).

    An empty cluster is reseeded to the point farthest from its previous
    centroid before the mean update. Reseed passes are bounded so fully
    degenerate inputs (all points identical) still terminate.
    """
    rng = np.random.default_rng(seed)
    centroids = kmeans_pp_init(points, k, rng)
    assign = _assign(points, centroids)
    for _ in range(KMEANS_MAX_ITER):
        for _ in range(k):
            if not _reseed_empty(points, centroids, assign):
                break
            assign = _assign(points, centroids)
        new_centroids = centroids.copy()
        for j in range(k):
            members = points[assign == j]
            if members.shape[0]:
                new_centroids[j] = members.mean(axis=0)
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        assign = _assign(points, centroids)
        if shift <= KMEANS_TOL:
            break
    return centroids, assign


def estimate_multi_drift(
    params_new: EncoderParams,
    params_old: EncoderParams,
    queries,
    k: int,
    seed: int,
) -> MultiDriftRecord:
    """Cluster new-space query embeddings, one mean drift per cluster."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(queries) < k:
        raise TooFewQueriesError(f"{len(queries)} queries for k={k} clusters")
    new = encode_batch(params_new, queries)
    old = encode_batch(params_old, queries)
    centroids, assign = lloyd_kmeans(new, k, seed)
    diffs = new - old
    vectors = np.empty_like(centroids)
    for j in range(k):
        members = [diffs[i] for i in range(len(queries)) if assign[i] == j]
        if not members:
            raise TooFewQueriesError(f"cluster {j} ended empty")
        vectors[j] = mean_embedding(members)
    return MultiDriftRecord(
        centroids=centroids,
        vectors=vectors,
        from_task=params_old.version,
        to_task=params_new.version,
    )


def compensate_query_multi(
    q_emb: np.ndarray, record: MultiDriftRecord
) -> np.ndarray:
    """Assign to the max-cosine centroid (ties: lowest index), subtract."""
    q = np.asarray(q_emb, dtype=np.float64)
    if q.shape != (record.centroids.shape[1],):
        raise DimMismatchError(
            f"query shape {q.shape} vs centroids {record.centroids.shape}"
        )
    qn = float(np.linalg.norm(q))
    cnorms = np.linalg.norm(record.centroids, axis=1)
    if qn < ZERO_NORM_EPS or float(cnorms.min()) < ZERO_NORM_EPS:
        raise ZeroVectorError("zero vector in centroid assignment")
    sims = (record.centroids @ q) / (cnorms * qn)
    return q - record.vectors[int(np.argmax(sims))]


def compensate_query_path(
    ledger: DriftLedger, q_emb: np.ndarray, t_prime: int, t: int
) -> np.ndarray:
    """Map a f_t query embedding, or each row of an (n, d) matrix of them,
    back into the f_t_prime space.

    When every transition in range holds a single vector this is the
    accumulated subtraction, made once for all rows; otherwise hops run
    newest to oldest, assigning the partially compensated embedding at each
    hop, one row at a time.
    """
    records = [ledger.record_for(j) for j in range(t_prime, t)]
    if all(isinstance(r, DriftVector) for r in records):
        return compensate_query(q_emb, accumulate_drift(ledger, t_prime, t))
    emb = np.asarray(q_emb, dtype=np.float64)
    if emb.ndim == 2:
        out = [compensate_query_path(ledger, row, t_prime, t) for row in emb]
        return np.array(out).reshape(emb.shape)
    for rec in reversed(records):
        if isinstance(rec, MultiDriftRecord):
            emb = compensate_query_multi(emb, rec)
        else:
            emb = compensate_query(emb, rec)
    return emb


def ledger_to_dict(ledger: DriftLedger) -> dict:
    records = []
    for rec in ledger.records:
        if isinstance(rec, DriftVector):
            records.append(
                {
                    "from": rec.from_task,
                    "to": rec.to_task,
                    "kind": "single",
                    "vector": [float(x) for x in rec.values],
                }
            )
        else:
            records.append(
                {
                    "from": rec.from_task,
                    "to": rec.to_task,
                    "kind": "multi",
                    "centroids": [[float(x) for x in row] for row in rec.centroids],
                    "vectors": [[float(x) for x in row] for row in rec.vectors],
                }
            )
    return {"dim": ledger.dim, "records": records}


def ledger_from_dict(payload: dict) -> DriftLedger:
    """Parse dim and records; any other key, such as the per-task query
    centroids that older ledgers stored, is ignored."""
    try:
        dim = int(payload["dim"])
        records = []
        for raw in payload["records"]:
            if raw["kind"] == "single":
                vec = np.asarray(raw["vector"], dtype=np.float64)
                if vec.shape != (dim,):
                    raise CorruptLedgerError("record dim mismatch")
                records.append(
                    DriftVector(
                        values=vec,
                        from_task=int(raw["from"]),
                        to_task=int(raw["to"]),
                    )
                )
            elif raw["kind"] == "multi":
                cents = np.asarray(raw["centroids"], dtype=np.float64)
                vecs = np.asarray(raw["vectors"], dtype=np.float64)
                if (
                    cents.ndim != 2
                    or cents.shape != vecs.shape
                    or cents.shape[1] != dim
                ):
                    raise CorruptLedgerError("record dim mismatch")
                records.append(
                    MultiDriftRecord(
                        centroids=cents,
                        vectors=vecs,
                        from_task=int(raw["from"]),
                        to_task=int(raw["to"]),
                    )
                )
            else:
                raise CorruptLedgerError(f"unknown record kind {raw['kind']!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptLedgerError(f"malformed ledger payload: {exc}") from exc
    for prev, cur in zip(records, records[1:]):
        if cur.from_task != prev.to_task:
            raise CorruptLedgerError("ledger transitions are not contiguous")
    for rec in records:
        if rec.to_task != rec.from_task + 1:
            raise CorruptLedgerError("stored record spans multiple transitions")
    return DriftLedger(dim=dim, records=records)


__all__ = [
    "DriftVector",
    "MultiDriftRecord",
    "DriftLedger",
    "append_record",
    "estimate_drift",
    "accumulate_drift",
    "compensate_query",
    "compensate_query_multi",
    "compensate_query_path",
    "estimate_multi_drift",
    "kmeans_pp_init",
    "lloyd_kmeans",
    "ledger_to_dict",
    "ledger_from_dict",
]
