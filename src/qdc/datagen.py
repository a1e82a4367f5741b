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
    MissingQrelsError,
    ParseError,
)
from .fileio import atomic_write
from .index import Corpus, DocRecord

if TYPE_CHECKING:
    from .encoder import FeatureRows

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
    streams bit for bit. A query holds at most its document's distinct
    tokens, so it can come out shorter than `query_len_range` asks; a
    range that starts above the longest document's length is rejected."""

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
    # query tables by vocab_size, filled by index.eval_query_rows and
    # index.train_query_rows; they die with the task
    _test_queries: dict[int, FeatureRows] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _train_queries: dict[int, FeatureRows] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # the corpus keeps its own table (index.corpus_rows)
        if not isinstance(self.corpus, Corpus):
            object.__setattr__(self, "corpus", Corpus(self.corpus))


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
    if spec.query_len_range[0] > spec.doc_len_range[1]:
        raise InvalidSpecError("query_len_range lo must be <= doc_len_range hi")
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


def _zipf_cdf(n: int) -> np.ndarray:
    """The Zipf pool's CDF, normalized as Generator.choice normalizes it."""
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** ZIPF_EXPONENT
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def _zipf_draw(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    # from u = rng.random(size), rng.choice(len(cdf), size, p=...) draws
    # exactly this, but rebuilds the CDF on every call
    return cdf.searchsorted(u, side="right")


def _query_pool(
    doc_token_ids: np.ndarray, n_shared: int
) -> tuple[list[int], list[int], np.ndarray | None]:
    """A document's query material: its distinct fresh and shared ids,
    rarest first, and the stopword pick probabilities (None without
    stopwords). Built once per document and task, however many queries
    the document feeds."""
    # vocab position doubles as frequency rank
    ids = np.unique(doc_token_ids)
    cut = int(ids.searchsorted(n_shared))
    fresh = ids[cut:][::-1].tolist()
    shared = ids[:cut][::-1].tolist()
    if not shared:
        return fresh, shared, None
    # weight by global frequency so queries carry the same few stopwords;
    # those rows are what later training keeps moving
    ranks = np.asarray(shared, dtype=np.float64) + 1.0
    weights = 1.0 / ranks**QUERY_STOPWORD_EXPONENT
    return fresh, shared, weights / weights.sum()


def _query_token_ids(
    pool: tuple[list[int], list[int], np.ndarray | None],
    n_shared: int,
    qlen: int,
    rng: np.random.Generator,
) -> list[int]:
    fresh, shared, p = pool
    want_common = 2 if qlen >= 5 or n_shared == 0 else 1
    want_shared = min(want_common, len(shared))
    n_topic = max(qlen - want_common, 0)
    picked = fresh[:n_topic]
    chosen = []
    if want_shared:
        chosen = sorted(
            rng.choice(len(shared), size=want_shared, replace=False, p=p).tolist()
        )
        picked.extend(shared[i] for i in chosen)
    if len(picked) < qlen:
        # no shared pool (or a stopword-free document): fill the common-word
        # slots with the document's most frequent topic tokens instead, so
        # same-task queries still share a few high-traffic rows; then with
        # the stopwords not chosen, rarest first
        fill = fresh[n_topic:][::-1] + [
            ix for i, ix in enumerate(shared) if i not in chosen
        ]
        picked.extend(fill[: qlen - len(picked)])
    return list(map(picked.__getitem__, rng.permutation(len(picked)).tolist()))


def _doc_token_ids(
    length: int,
    n_shared: int,
    shared_cdf: np.ndarray | None,
    fresh_cdf: np.ndarray | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one document: a per-document stopword rate, then Zipf draws
    within the shared and fresh pools."""
    if fresh_cdf is None:
        return _zipf_draw(shared_cdf, rng.random(length))
    if shared_cdf is None:
        return _zipf_draw(fresh_cdf, rng.random(length))
    lo, hi = DOC_SHARED_RATE
    rate = float(rng.uniform(lo, hi))
    # one draw of the mask's and both pools' uniforms, in the order three
    # draws of length, n_sh and length - n_sh would take them
    u = rng.random(2 * length)
    from_shared = u[:length] < rate
    n_sh = int(np.count_nonzero(from_shared))
    ids = np.empty(length, dtype=np.int64)
    ids[from_shared] = _zipf_draw(shared_cdf, u[length : length + n_sh])
    ids[~from_shared] = n_shared + _zipf_draw(fresh_cdf, u[length + n_sh :])
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
        shared_cdf = _zipf_cdf(n_shared) if n_shared else None
        fresh_cdf = _zipf_cdf(n_fresh) if n_fresh else None
        rng_docs = np.random.default_rng([spec.seed, task_id, 1])
        rng_train = np.random.default_rng([spec.seed, task_id, 2])
        rng_test = np.random.default_rng([spec.seed, task_id, 3])

        doc_lo, doc_hi = spec.doc_len_range
        doc_tokens: list[np.ndarray] = []
        corpus: list[DocRecord] = []
        for i in range(spec.docs_per_task):
            length = int(rng_docs.integers(doc_lo, doc_hi + 1))
            ids = _doc_token_ids(length, n_shared, shared_cdf, fresh_cdf, rng_docs)
            doc_tokens.append(ids)
            corpus.append(
                DocRecord(
                    doc_id=f"t{task_id}-d{i:04d}",
                    title="",
                    text=" ".join(map(vocab.__getitem__, ids.tolist())),
                )
            )

        q_lo, q_hi = spec.query_len_range
        pools: dict[int, tuple] = {}

        def make_query(doc_pos: int, rng: np.random.Generator) -> str:
            qlen = int(rng.integers(q_lo, q_hi + 1))
            pool = pools.get(doc_pos)
            if pool is None:
                pool = pools[doc_pos] = _query_pool(doc_tokens[doc_pos], n_shared)
            ids = _query_token_ids(pool, n_shared, qlen, rng)
            return " ".join(map(vocab.__getitem__, ids))

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
        _write_jsonl(
            task_dir / "corpus.jsonl",
            ({"_id": d.doc_id, "title": d.title, "text": d.text} for d in ds.corpus),
        )
        _write_jsonl(
            task_dir / "queries.jsonl",
            ({"_id": qid, "text": text} for qid, text in ds.queries_test),
        )
        with atomic_write(task_dir / "qrels.tsv", "w") as fh:
            fh.write("query-id\tcorpus-id\tscore\n")
            for (query_id, doc_id), grade in sorted(ds.qrels.items()):
                fh.write(f"{query_id}\t{doc_id}\t{grade}\n")
        _write_jsonl(
            task_dir / "pairs.jsonl",
            ({"query": q, "doc_id": doc_id} for q, doc_id in ds.train_pairs),
        )


def _write_jsonl(path, rows) -> None:
    """One sorted-key JSON object per line, non-ASCII kept as UTF-8."""
    with atomic_write(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")


def _read_jsonl(path, required: tuple[str, ...], unique=None) -> list[dict]:
    """Rows of a JSONL file; `unique` names a field no two rows may share."""
    rows = []
    seen = set()
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
            for key in required:
                # a JSON null would load as the string "None"
                if row[key] is None:
                    named = "" if row.get("_id") is None else f" (_id {row['_id']!r})"
                    raise ParseError(f"{path}:{lineno}: null {key}{named}")
            if unique is not None:
                value = str(row[unique])
                if value in seen:
                    raise ParseError(f"{path}:{lineno}: repeated {unique} {value!r}")
                seen.add(value)
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

    The test queries are those with at least one row in the given qrels
    file, in queries-file order: a BEIR queries file holds every split's
    queries. Without a pairs file, train pairs are derived from the
    positive qrels entries of the given file in sorted order.
    """
    corpus = [
        DocRecord(
            doc_id=str(row["_id"]),
            # a JSON null title is no title, not the text "None"
            title="" if row.get("title") is None else str(row["title"]),
            text=str(row["text"]),
        )
        for row in _read_jsonl(corpus_path, required=("_id", "text"))
    ]
    queries = [
        (str(row["_id"]), str(row["text"]))
        for row in _read_jsonl(queries_path, ("_id", "text"), unique="_id")
    ]
    qrels = _read_qrels(qrels_path)
    judged = {query_id for query_id, _ in qrels}
    queries = [(query_id, text) for query_id, text in queries if query_id in judged]
    if not queries:
        raise MissingQrelsError(f"{qrels_path} judges no query of {queries_path}")

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
