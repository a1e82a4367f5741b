"""Drift estimation, accumulation, and query compensation.

A transition t-1 -> t stores one mean drift vector, the mean of
f_t(q) - f_{t-1}(q) over the task's training queries. Compensation
subtracts the sum of the vectors between two tasks from a new-model query
embedding so it can search an old index without re-indexing.
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
    NonFiniteError,
)
from .vecops import ZERO_NORM_EPS, scaled_rows


@dataclass(frozen=True)
class DriftVector:
    """Mean embedding drift over one or more transitions; not unit-norm."""

    values: np.ndarray
    from_task: int
    to_task: int


@dataclass
class DriftLedger:
    """Contiguous per-transition drift vectors."""

    dim: int
    records: list[DriftVector] = field(default_factory=list)

    def record_for(self, from_task: int) -> DriftVector:
        for rec in self.records:
            if rec.from_task == from_task:
                return rec
        raise MissingTransitionError(
            f"no record for transition {from_task} -> {from_task + 1}"
        )

    def copy(self) -> "DriftLedger":
        return DriftLedger(dim=self.dim, records=list(self.records))


def append_record(ledger: DriftLedger, record: DriftVector) -> DriftLedger:
    """Return a ledger extended by one transition record (append-only)."""
    if record.to_task != record.from_task + 1:
        raise ValueError("stored records must span exactly one transition")
    expected = 1 if not ledger.records else ledger.records[-1].to_task
    if record.from_task != expected:
        raise ValueError(
            f"transition {record.from_task} -> {record.to_task} breaks "
            f"contiguity, expected from_task {expected}"
        )
    if record.values.shape[-1] != ledger.dim:
        raise DimMismatchError("record dim differs from ledger dim")
    out = ledger.copy()
    out.records.append(record)
    return out


def estimate_drift(
    params_new: EncoderParams,
    params_old: EncoderParams,
    queries,
) -> DriftVector:
    """Mean of per-query embedding differences f_new(q) - f_old(q), the
    rows summed first to last at every dim."""
    if len(queries) == 0:
        raise EmptyQuerySetError("drift estimation needs at least one query")
    if (params_new.vocab_size, params_new.dim) != (
        params_old.vocab_size,
        params_old.dim,
    ):
        raise DimMismatchError("old and new encoder shapes differ")
    new = encode_batch(params_new, queries)
    old = encode_batch(params_old, queries)
    return mean_drift(new, old, params_old.version, params_new.version)


def mean_drift(new, old, from_task: int, to_task: int) -> DriftVector:
    """Mean of new - old, two encoders' embeddings of the same queries row
    for row, the rows summed first to last at every dim."""
    if len(new) == 0:
        raise EmptyQuerySetError(
            f"drift {from_task} -> {to_task} needs at least one training query"
        )
    mean = np.cumsum(new - old, axis=0)[-1] / len(new)
    return DriftVector(values=mean, from_task=from_task, to_task=to_task)


def accumulate_drift(ledger: DriftLedger, t_prime: int, t: int) -> DriftVector:
    """Sum the records over [t_prime, t), ascending order."""
    if t_prime > t:
        raise ValueError(f"t_prime {t_prime} exceeds t {t}")
    acc = np.zeros(ledger.dim, dtype=np.float64)
    for j in range(t_prime, t):
        acc = acc + ledger.record_for(j).values
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
    if not np.isfinite(out).all():
        raise NonFiniteError("compensated query has NaN or infinite entries")
    if (np.abs(out).max(axis=-1) < ZERO_NORM_EPS).any():
        scaled_rows(np.atleast_2d(out), "compensated query")
    return out


def compensate_query_path(
    ledger: DriftLedger, q_emb: np.ndarray, t_prime: int, t: int
) -> np.ndarray:
    """Map a f_t query embedding, or each row of an (n, d) matrix of them,
    back into the f_t_prime space: subtract the drift accumulated over
    [t_prime, t)."""
    return compensate_query(q_emb, accumulate_drift(ledger, t_prime, t))


def ledger_to_dict(ledger: DriftLedger) -> dict:
    records = [
        {
            "from": rec.from_task,
            "to": rec.to_task,
            "kind": "single",
            "vector": [float(x) for x in rec.values],
        }
        for rec in ledger.records
    ]
    return {"dim": ledger.dim, "records": records}


def ledger_from_dict(payload: dict) -> DriftLedger:
    """Parse dim and records as strictly as a config is parsed: dim, from
    and to are JSON integers, vector entries JSON numbers, and the records
    run 1->2, 2->3, ... without a gap, as append_record builds them. Any
    other key, such as the per-task query centroids that older ledgers
    stored, is ignored."""
    try:
        dim = payload["dim"]
        if type(dim) is not int or dim < 1:
            raise CorruptLedgerError(f"ledger dim {dim!r} is not a positive integer")
        records = []
        for raw in payload["records"]:
            if raw["kind"] == "multi":
                raise CorruptLedgerError(
                    "per-cluster drift was removed; a record of kind 'multi' "
                    "is no longer read"
                )
            if raw["kind"] != "single":
                raise CorruptLedgerError(f"unknown record kind {raw['kind']!r}")
            # a bool or float equals an int, so the types are checked first
            start, end, n = raw["from"], raw["to"], len(records)
            if (type(start), type(end), start, end) != (int, int, n + 1, n + 2):
                raise CorruptLedgerError(
                    f"record {start!r} -> {end!r} in place of {n + 1} -> "
                    f"{n + 2}: records run 1 -> 2, 2 -> 3, ... without a gap"
                )
            vector = raw["vector"]
            if not isinstance(vector, list) or not all(
                type(x) in (int, float) for x in vector
            ):
                raise CorruptLedgerError("record vector entries must be numbers")
            vec = np.asarray(vector, dtype=np.float64)
            if vec.shape != (dim,):
                raise CorruptLedgerError("record dim mismatch")
            if not np.isfinite(vec).all():
                raise CorruptLedgerError("record vector has NaN or infinite entries")
            records.append(DriftVector(values=vec, from_task=n + 1, to_task=n + 2))
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptLedgerError(f"malformed ledger payload: {exc}") from exc
    return DriftLedger(dim=dim, records=records)
