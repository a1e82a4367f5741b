"""Exception taxonomy shared across the package."""
from __future__ import annotations


class QdcError(Exception):
    """Base class for every error raised by this package."""


class ZeroVectorError(QdcError):
    """A vector with (numerically) zero norm reached a normalization point."""


class DimMismatchError(QdcError):
    """Two objects disagree on embedding dimensionality."""


class EmptyBatchError(QdcError):
    """A loss was asked to evaluate an empty batch."""


class ShapeMismatchError(QdcError):
    """Parameter and gradient (or two parameter sets) shapes disagree."""


class NonFiniteError(QdcError):
    """An update or loss produced NaN or infinite entries."""


class CorruptSnapshotError(QdcError):
    """Encoder snapshot file failed structural validation."""


class EmptyCorpusError(QdcError):
    """An index build received no documents."""


class DuplicateDocIdError(QdcError):
    """A corpus contains the same doc_id twice."""


class CorruptIndexError(QdcError):
    """Index file failed magic/CRC/layout validation."""


class EmptyQuerySetError(QdcError):
    """Drift estimation received no queries."""


class MissingTransitionError(QdcError):
    """The drift ledger lacks a transition needed for accumulation."""


class CorruptLedgerError(QdcError):
    """Drift ledger file failed structural validation."""


class DataMismatchError(QdcError):
    """A dataset arrived out of order or inconsistent with pipeline state."""


class MissingIndexError(QdcError):
    """Retrieval referenced a task whose index is not available."""


class MissingQrelsError(QdcError):
    """A run query has no relevance judgments at all."""


class IncompleteMatrixError(QdcError):
    """Performance-drop needs checkpoint cells that the matrix lacks."""


class EmptyPopulationError(QdcError):
    """Drift report received an empty query or corpus population."""


class InvalidSpecError(QdcError):
    """Stream spec fields out of range."""


class ParseError(QdcError):
    """Malformed dataset file contents."""


class DanglingReferenceError(QdcError):
    """Qrels or train pairs reference a doc_id absent from the corpus."""


class ConfigError(QdcError):
    """Run config file is malformed or holds unknown keys."""
