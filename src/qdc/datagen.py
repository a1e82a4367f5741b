"""Synthetic continual task streams and BEIR-format ingestion.

Drift pressure comes from a shared stopword-like pool (sized by
vocab_overlap) that every task reuses while topic tokens stay fresh per
task. Documents mix the two vocabularies at a per-document rate, so some
documents are stopword-heavy hubs and others are nearly pure topic.
Queries combine the rarest topic tokens of their source document with the
most frequent shared tokens, the same few carrier words in almost every
query. Training a new task keeps rewriting those carrier rows, which
shifts every old query embedding in nearly the same direction relative to
its frozen index: exactly the translation that drift compensation can
estimate on new-task queries and subtract from old-task ones.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DanglingReferenceError,
    DuplicateDocIdError,
    InvalidSpecError,
    ParseError,
)
from .index import DocRecord

if TYPE_CHECKING:
    from .encoder import TokenFeatures

ZIPF_EXPONENT = 1.0
# per-document share of stopword-pool tokens; the spread creates hub
# documents whose rankings are sensitive to drift along the carrier rows
DOC_SHARED_RATE = (0.15, 0.75)
# concentration of query stopword picks onto the pool head; higher means
# more queries carry the very same carrier words
QUERY_STOPWORD_EXPONENT = 2.0


@dataclass(frozen=True)
class StreamSpec:
    """Knobs for one synthetic stream; identical specs generate identical
    streams bit for bit."""

    num_tasks: int = 3
    docs_per_task: int = 2000
    train_pairs_per_task: int = 500
    test_queries_per_task: int = 200
    topic_vocab_size: int = 1000
    vocab_overlap: float = 0.2
    doc_len_range: tuple[int, int] = (30, 80)
    query_len_range: tuple[int, int] = (3, 6)
    seed: int = 42


@dataclass(frozen=True)
class TaskDataset:
    """One task: corpus, train pairs, held-out queries, judgments."""

    task_id: int
    corpus: list[DocRecord]
    train_pairs: list[tuple[str, str]]
    queries_test: list[tuple[str, str]]
    qrels: dict[tuple[str, str], int] = field(default_factory=dict)
    # by vocab_size, filled by index.query_features; dies with the task
    _query_features: dict[int, list[TokenFeatures]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


def validate_dataset(dataset: TaskDataset) -> None:
    """Reject duplicate doc ids and references to unknown documents."""
    doc_ids = set()
    for doc in dataset.corpus:
        if doc.doc_id in doc_ids:
            raise DuplicateDocIdError(f"duplicate doc_id {doc.doc_id!r}")
        doc_ids.add(doc.doc_id)
    for _, doc_id in dataset.train_pairs:
        if doc_id not in doc_ids:
            raise DanglingReferenceError(
                f"train pair references unknown doc {doc_id!r}"
            )
    for (_, doc_id), _ in dataset.qrels.items():
        if doc_id not in doc_ids:
            raise DanglingReferenceError(
                f"qrels reference unknown doc {doc_id!r}"
            )


def _validate_spec(spec: StreamSpec) -> None:
    counts = (
        spec.num_tasks,
        spec.docs_per_task,
        spec.train_pairs_per_task,
        spec.test_queries_per_task,
        spec.topic_vocab_size,
    )
    if any(c < 1 for c in counts):
        raise InvalidSpecError("all stream counts must be >= 1")
    if not 0.0 <= spec.vocab_overlap <= 1.0:
        raise InvalidSpecError("vocab_overlap must lie in [0, 1]")
    for lo, hi in (spec.doc_len_range, spec.query_len_range):
        if lo < 1 or hi < lo:
            raise InvalidSpecError("length ranges must satisfy 1 <= lo <= hi")
    if spec.seed < 0:
        raise InvalidSpecError("seed must be non-negative")


def _task_vocab(spec: StreamSpec, task_id: int) -> list[str]:
    n_shared = round(spec.vocab_overlap * spec.topic_vocab_size)
    shared = [f"c{i:04d}" for i in range(n_shared)]
    fresh = [
        f"w{task_id}x{i:04d}"
        for i in range(spec.topic_vocab_size - n_shared)
    ]
    return shared + fresh


def _zipf_probs(n: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** ZIPF_EXPONENT
    return weights / weights.sum()


def _query_token_ids(
    doc_token_ids: np.ndarray,
    n_shared: int,
    qlen: int,
    rng: np.random.Generator,
) -> list[int]:
    # rarest unique tokens first; vocab position doubles as frequency rank
    ordered = list(np.unique(doc_token_ids)[::-1])
    fresh = [ix for ix in ordered if ix >= n_shared]
    shared = [ix for ix in ordered if ix < n_shared]
    want_common = 2 if qlen >= 5 or n_shared == 0 else 1
    want_shared = min(want_common, len(shared))
    picked = [int(ix) for ix in fresh[: qlen - want_common]]
    if want_shared:
        # weight by global frequency so queries carry the same few
        # stopwords; those rows are what later training keeps moving
        ranks = np.asarray(shared, dtype=np.float64) + 1.0
        weights = 1.0 / ranks**QUERY_STOPWORD_EXPONENT
        chosen = rng.choice(
            len(shared),
            size=want_shared,
            replace=False,
            p=weights / weights.sum(),
        )
        picked.extend(int(shared[int(i)]) for i in sorted(chosen))
    # no shared pool (or a stopword-free document): fill the common-word
    # slots with the document's most frequent topic tokens instead, so
    # same-task queries still share a few high-traffic rows
    for ix in reversed(fresh):
        if len(picked) >= qlen:
            break
        if int(ix) not in picked:
            picked.append(int(ix))
    for ix in ordered:
        if len(picked) >= qlen:
            break
        if int(ix) not in picked:
            picked.append(int(ix))
    order = rng.permutation(len(picked))
    return [picked[int(i)] for i in order]


def _doc_token_ids(
    length: int,
    n_shared: int,
    n_fresh: int,
    shared_probs: np.ndarray | None,
    fresh_probs: np.ndarray | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one document: a per-document stopword rate, then Zipf draws
    within the shared and fresh pools."""
    if n_shared == 0:
        return rng.choice(n_fresh, size=length, p=fresh_probs)
    if n_fresh == 0:
        return rng.choice(n_shared, size=length, p=shared_probs)
    lo, hi = DOC_SHARED_RATE
    rate = float(rng.uniform(lo, hi))
    from_shared = rng.random(length) < rate
    n_sh = int(from_shared.sum())
    ids = np.empty(length, dtype=np.int64)
    ids[from_shared] = rng.choice(n_shared, size=n_sh, p=shared_probs)
    ids[~from_shared] = n_shared + rng.choice(
        n_fresh, size=length - n_sh, p=fresh_probs
    )
    return ids


def _sample_doc_indices(
    count: int, population: int, rng: np.random.Generator
) -> np.ndarray:
    if count <= population:
        return rng.choice(population, size=count, replace=False)
    return rng.integers(0, population, size=count)


def generate_task_stream(spec: StreamSpec) -> list[TaskDataset]:
    """Deterministically generate the full task sequence from the spec."""
    _validate_spec(spec)
    n_shared = round(spec.vocab_overlap * spec.topic_vocab_size)
    datasets = []
    for task_id in range(1, spec.num_tasks + 1):
        vocab = _task_vocab(spec, task_id)
        n_fresh = len(vocab) - n_shared
        shared_probs = _zipf_probs(n_shared) if n_shared else None
        fresh_probs = _zipf_probs(n_fresh) if n_fresh else None
        rng_docs = np.random.default_rng([spec.seed, task_id, 1])
        rng_train = np.random.default_rng([spec.seed, task_id, 2])
        rng_test = np.random.default_rng([spec.seed, task_id, 3])

        doc_lo, doc_hi = spec.doc_len_range
        doc_tokens: list[np.ndarray] = []
        corpus: list[DocRecord] = []
        for i in range(spec.docs_per_task):
            length = int(rng_docs.integers(doc_lo, doc_hi + 1))
            ids = _doc_token_ids(
                length, n_shared, n_fresh, shared_probs, fresh_probs, rng_docs
            )
            doc_tokens.append(ids)
            corpus.append(
                DocRecord(
                    doc_id=f"t{task_id}-d{i:04d}",
                    title="",
                    text=" ".join(vocab[int(j)] for j in ids),
                )
            )

        q_lo, q_hi = spec.query_len_range

        def make_query(doc_pos: int, rng: np.random.Generator) -> str:
            qlen = int(rng.integers(q_lo, q_hi + 1))
            ids = _query_token_ids(doc_tokens[doc_pos], n_shared, qlen, rng)
            return " ".join(vocab[int(j)] for j in ids)

        train_pairs = []
        for doc_pos in _sample_doc_indices(
            spec.train_pairs_per_task, spec.docs_per_task, rng_train
        ):
            train_pairs.append(
                (make_query(int(doc_pos), rng_train), corpus[int(doc_pos)].doc_id)
            )

        queries_test = []
        qrels: dict[tuple[str, str], int] = {}
        for j, doc_pos in enumerate(
            _sample_doc_indices(
                spec.test_queries_per_task, spec.docs_per_task, rng_test
            )
        ):
            query_id = f"t{task_id}-q{j:04d}"
            queries_test.append((query_id, make_query(int(doc_pos), rng_test)))
            qrels[(query_id, corpus[int(doc_pos)].doc_id)] = 1

        dataset = TaskDataset(
            task_id=task_id,
            corpus=corpus,
            train_pairs=train_pairs,
            queries_test=queries_test,
            qrels=qrels,
        )
        validate_dataset(dataset)
        datasets.append(dataset)
    return datasets


def export_stream(datasets: list[TaskDataset], out_dir) -> None:
    """Write each task in the BEIR file layout under task{t}/ folders."""
    root = Path(out_dir)
    for ds in datasets:
        task_dir = root / f"task{ds.task_id}"
        task_dir.mkdir(parents=True, exist_ok=True)
        with open(task_dir / "corpus.jsonl", "w", encoding="utf-8") as fh:
            for doc in ds.corpus:
                fh.write(
                    json.dumps(
                        {"_id": doc.doc_id, "title": doc.title, "text": doc.text},
                        sort_keys=True,
                        ensure_ascii=False,
                    )
                    + "\n"
                )
        with open(task_dir / "queries.jsonl", "w", encoding="utf-8") as fh:
            for query_id, text in ds.queries_test:
                fh.write(
                    json.dumps(
                        {"_id": query_id, "text": text},
                        sort_keys=True,
                        ensure_ascii=False,
                    )
                    + "\n"
                )
        with open(task_dir / "qrels.tsv", "w", encoding="utf-8") as fh:
            fh.write("query-id\tcorpus-id\tscore\n")
            for (query_id, doc_id), grade in sorted(ds.qrels.items()):
                fh.write(f"{query_id}\t{doc_id}\t{grade}\n")
        with open(task_dir / "pairs.jsonl", "w", encoding="utf-8") as fh:
            for query, doc_id in ds.train_pairs:
                fh.write(
                    json.dumps(
                        {"query": query, "doc_id": doc_id},
                        sort_keys=True,
                        ensure_ascii=False,
                    )
                    + "\n"
                )


def _read_jsonl(path, required: tuple[str, ...]) -> list[dict]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON") from exc
            if not isinstance(row, dict) or any(k not in row for k in required):
                raise ParseError(f"{path}:{lineno}: missing fields {required}")
            rows.append(row)
    return rows


def _read_qrels(path) -> dict[tuple[str, str], int]:
    qrels: dict[tuple[str, str], int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 tab fields")
            if lineno == 1 and parts[0] == "query-id":
                continue  # BEIR header row
            try:
                grade = int(parts[2])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad grade {parts[2]!r}") from exc
            if grade < 0:
                raise ParseError(f"{path}:{lineno}: negative grade")
            qrels[(parts[0], parts[1])] = grade
    return qrels


def load_beir_dataset(
    corpus_path,
    queries_path,
    qrels_path,
    pairs_path=None,
    task_id: int = 1,
) -> TaskDataset:
    """BEIR-layout loader: JSONL corpus/queries, TSV qrels, optional pairs.

    Without a pairs file, train pairs are derived from the positive qrels
    entries of the given file in sorted order.
    """
    corpus = [
        DocRecord(
            doc_id=str(row["_id"]),
            title=str(row.get("title", "")),
            text=str(row["text"]),
        )
        for row in _read_jsonl(corpus_path, required=("_id", "text"))
    ]
    queries = [
        (str(row["_id"]), str(row["text"]))
        for row in _read_jsonl(queries_path, required=("_id", "text"))
    ]
    qrels = _read_qrels(qrels_path)

    if pairs_path is not None:
        train_pairs = [
            (str(row["query"]), str(row["doc_id"]))
            for row in _read_jsonl(pairs_path, required=("query", "doc_id"))
        ]
    else:
        text_by_qid = dict(queries)
        train_pairs = []
        for (query_id, doc_id), grade in sorted(qrels.items()):
            if grade > 0 and query_id in text_by_qid:
                train_pairs.append((text_by_qid[query_id], doc_id))

    dataset = TaskDataset(
        task_id=task_id,
        corpus=corpus,
        train_pairs=train_pairs,
        queries_test=queries,
        qrels=qrels,
    )
    validate_dataset(dataset)
    return dataset
