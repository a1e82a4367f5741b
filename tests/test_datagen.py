import hashlib
import json
from dataclasses import replace

import pytest

from qdc.datagen import (
    StreamSpec,
    TaskDataset,
    export_stream,
    generate_task_stream,
    load_beir_dataset,
    validate_dataset,
)
from qdc.errors import (
    DanglingReferenceError,
    DuplicateDocIdError,
    InvalidSpecError,
    MissingQrelsError,
    ParseError,
)
from qdc.index import DocRecord, doc_encoding_text


def _task_tokens(dataset):
    tokens = set()
    for doc in dataset.corpus:
        tokens.update(doc.text.split())
    for query, _ in dataset.train_pairs:
        tokens.update(query.split())
    for _, text in dataset.queries_test:
        tokens.update(text.split())
    return tokens


def _stream_digest(datasets) -> str:
    """SHA-256 over every document, training pair, test query and judgment."""
    h = hashlib.sha256()
    for ds in datasets:
        for doc in ds.corpus:
            h.update(f"{doc.doc_id}\t{doc.title}\t{doc.text}\n".encode())
        for query, doc_id in ds.train_pairs:
            h.update(f"{query}\t{doc_id}\n".encode())
        for query_id, text in ds.queries_test:
            h.update(f"{query_id}\t{text}\n".encode())
        for (query_id, doc_id), grade in sorted(ds.qrels.items()):
            h.update(f"{query_id}\t{doc_id}\t{grade}\n".encode())
    return h.hexdigest()


# vocab_overlap 0 and 1 take the one-pool branches of the document draw
_SMALL = dict(
    docs_per_task=300,
    train_pairs_per_task=80,
    test_queries_per_task=40,
    topic_vocab_size=300,
    seed=7,
)


class TestStreamDigest:
    """The generated text and its exported files, pinned: a faster
    generator must draw the same, and a simpler writer write the same."""

    def test_shipped_stream(self, shipped_stream):
        assert _stream_digest(shipped_stream) == (
            "d0058a3b2484a97156085536e523c7bce04ba5e5a97caf8ab877ef2740d16857"
        )

    def test_exported_files(self, shipped_stream, tmp_path):
        # the bytes `qdc gen-data --seed 42` writes, file by file in order
        export_stream(shipped_stream, tmp_path)
        h = hashlib.sha256()
        for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
            h.update(f"{path.relative_to(tmp_path).as_posix()}\n".encode())
            h.update(path.read_bytes())
        assert h.hexdigest() == (
            "58178172c89b3eaac5bc26dec818f41be2c80a0a44c5969227f33b9517b0c3da"
        )

    @pytest.mark.parametrize(
        "overlap, digest",
        [
            (0.0, "7f3b5e60e14f1145297be482e208fdb5b2635d1d3521496f43489e4e41482b39"),
            (1.0, "1d33e81871306348f5d35060f8911513306f0f7a97ba4ec959135bf0a02425e7"),
        ],
    )
    def test_one_pool_streams(self, overlap, digest):
        spec = StreamSpec(vocab_overlap=overlap, **_SMALL)
        assert _stream_digest(generate_task_stream(spec)) == digest

    @pytest.mark.parametrize(
        "changes, digest",
        [
            # more pairs than documents: drawn with replacement, so one
            # document feeds several queries
            (
                {"train_pairs_per_task": 800},
                "93dc4c7281fda2d047394d2b3be0555021e97ee59c2594f2870e84c3cbe96918",
            ),
            # long queries reach the fill list, short ones a lone stopword,
            # and from 5 tokens up a query picks two stopwords
            (
                {"query_len_range": (1, 12)},
                "db15a87e236ce2ab3c71add619cfa2c5172ace37f4153472bdcea00d05954cac",
            ),
        ],
    )
    def test_repeat_and_long_query_streams(self, changes, digest):
        spec = StreamSpec(**{**_SMALL, **changes})
        assert _stream_digest(generate_task_stream(spec)) == digest


class TestGeneration:
    def test_same_spec_is_bit_identical(self, tiny_spec):
        assert generate_task_stream(tiny_spec) == generate_task_stream(tiny_spec)

    def test_different_seed_differs(self, tiny_spec):
        other = replace(tiny_spec, seed=tiny_spec.seed + 1)
        assert generate_task_stream(tiny_spec) != generate_task_stream(other)

    def test_counts_match_spec(self, tiny_spec, tiny_stream):
        assert len(tiny_stream) == tiny_spec.num_tasks
        for task_id, ds in enumerate(tiny_stream, start=1):
            assert ds.task_id == task_id
            assert len(ds.corpus) == tiny_spec.docs_per_task
            assert len(ds.train_pairs) == tiny_spec.train_pairs_per_task
            assert len(ds.queries_test) == tiny_spec.test_queries_per_task
            assert len(ds.qrels) == tiny_spec.test_queries_per_task

    def test_id_formats(self, tiny_stream):
        ds = tiny_stream[1]
        assert ds.corpus[0].doc_id == "t2-d0000"
        assert ds.corpus[-1].doc_id == f"t2-d{len(ds.corpus) - 1:04d}"
        assert ds.queries_test[0][0] == "t2-q0000"

    def test_every_query_has_one_positive_judgment(self, tiny_stream):
        for ds in tiny_stream:
            doc_ids = {doc.doc_id for doc in ds.corpus}
            judged = [qid for (qid, _) in ds.qrels]
            assert sorted(judged) == sorted(qid for qid, _ in ds.queries_test)
            for (_, doc_id), grade in ds.qrels.items():
                assert grade == 1
                assert doc_id in doc_ids

    def test_query_tokens_come_from_gold_document(self, tiny_stream):
        for ds in tiny_stream:
            text_by_id = {doc.doc_id: doc.text for doc in ds.corpus}
            gold = {qid: doc_id for (qid, doc_id) in ds.qrels}
            for qid, text in ds.queries_test:
                doc_tokens = set(text_by_id[gold[qid]].split())
                assert set(text.split()) <= doc_tokens

    def test_lengths_within_spec_ranges(self, tiny_spec, tiny_stream):
        doc_lo, doc_hi = tiny_spec.doc_len_range
        q_lo, q_hi = tiny_spec.query_len_range
        for ds in tiny_stream:
            for doc in ds.corpus:
                assert doc_lo <= len(doc.text.split()) <= doc_hi
            for _, text in ds.queries_test:
                assert q_lo <= len(text.split()) <= q_hi

    @pytest.mark.parametrize("qlens", [(1, 1), (1, 2), (2, 4), (1, 8)])
    @pytest.mark.parametrize("overlap", [0.0, 0.2])
    def test_short_queries_within_spec_range(self, overlap, qlens):
        # with no shared pool a query keeps two common-word slots, more
        # than a one-token query has
        spec = StreamSpec(
            num_tasks=1,
            docs_per_task=50,
            train_pairs_per_task=5,
            test_queries_per_task=5,
            vocab_overlap=overlap,
            query_len_range=qlens,
        )
        (ds,) = generate_task_stream(spec)
        texts = [q for q, _ in ds.train_pairs] + [q for _, q in ds.queries_test]
        for text in texts:
            assert qlens[0] <= len(text.split()) <= qlens[1]

    def test_zero_overlap_tasks_are_token_disjoint(self):
        spec = StreamSpec(
            num_tasks=3,
            docs_per_task=40,
            train_pairs_per_task=20,
            test_queries_per_task=10,
            topic_vocab_size=90,
            vocab_overlap=0.0,
            seed=11,
        )
        streams = [_task_tokens(ds) for ds in generate_task_stream(spec)]
        for i in range(len(streams)):
            for j in range(i + 1, len(streams)):
                assert not streams[i] & streams[j]

    def test_full_overlap_uses_only_the_shared_pool(self):
        spec = StreamSpec(
            num_tasks=2,
            docs_per_task=40,
            train_pairs_per_task=20,
            test_queries_per_task=10,
            topic_vocab_size=90,
            vocab_overlap=1.0,
            seed=11,
        )
        streams = [_task_tokens(ds) for ds in generate_task_stream(spec)]
        for tokens in streams:
            assert all(tok.startswith("c") for tok in tokens)
        assert streams[0] & streams[1]


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_tasks": 0},
            {"docs_per_task": 0},
            {"train_pairs_per_task": 0},
            {"test_queries_per_task": 0},
            {"topic_vocab_size": 0},
            {"vocab_overlap": -0.1},
            {"vocab_overlap": 1.5},
            {"doc_len_range": (10, 5)},
            {"doc_len_range": (0, 5)},
            {"query_len_range": (4, 2)},
            # no 2-3-token document can supply a 4-token query
            {"doc_len_range": (2, 3), "query_len_range": (4, 6)},
            {"seed": -1},
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(InvalidSpecError):
            generate_task_stream(replace(StreamSpec(), **kwargs))

    def test_query_may_start_at_the_longest_document(self):
        spec = StreamSpec(
            num_tasks=1,
            docs_per_task=50,
            train_pairs_per_task=20,
            test_queries_per_task=20,
            doc_len_range=(2, 3),
            query_len_range=(3, 6),
            seed=1,
        )
        (ds,) = generate_task_stream(spec)
        text_by_id = {doc.doc_id: doc.text for doc in ds.corpus}
        # a query holds at most its document's distinct tokens
        for query, doc_id in ds.train_pairs:
            assert len(query.split()) <= len(set(text_by_id[doc_id].split()))


class TestDatasetValidation:
    def _doc(self, doc_id, text="alpha beta"):
        return DocRecord(doc_id=doc_id, title="", text=text)

    def test_duplicate_doc_id(self):
        ds = TaskDataset(
            task_id=1,
            corpus=[self._doc("d1"), self._doc("d1")],
            train_pairs=[],
            queries_test=[],
        )
        with pytest.raises(DuplicateDocIdError):
            validate_dataset(ds)

    def test_dangling_train_pair(self):
        ds = TaskDataset(
            task_id=1,
            corpus=[self._doc("d1")],
            train_pairs=[("alpha", "d9")],
            queries_test=[],
        )
        with pytest.raises(DanglingReferenceError):
            validate_dataset(ds)

    def test_dangling_qrel(self):
        ds = TaskDataset(
            task_id=1,
            corpus=[self._doc("d1")],
            train_pairs=[],
            queries_test=[("q1", "alpha")],
            qrels={("q1", "d9"): 1},
        )
        with pytest.raises(DanglingReferenceError):
            validate_dataset(ds)


class TestExportAndLoad:
    def test_round_trip(self, tiny_stream, tmp_path):
        export_stream(tiny_stream, tmp_path)
        for ds in tiny_stream:
            task_dir = tmp_path / f"task{ds.task_id}"
            loaded = load_beir_dataset(
                task_dir / "corpus.jsonl",
                task_dir / "queries.jsonl",
                task_dir / "qrels.tsv",
                pairs_path=task_dir / "pairs.jsonl",
                task_id=ds.task_id,
            )
            assert loaded.corpus == ds.corpus
            assert loaded.train_pairs == ds.train_pairs
            assert loaded.queries_test == ds.queries_test
            assert loaded.qrels == ds.qrels

    def test_file_layout(self, tiny_spec, tiny_stream, tmp_path):
        export_stream(tiny_stream, tmp_path)
        task_dir = tmp_path / "task1"
        corpus_lines = (task_dir / "corpus.jsonl").read_text().splitlines()
        assert len(corpus_lines) == tiny_spec.docs_per_task
        row = json.loads(corpus_lines[0])
        assert set(row) == {"_id", "title", "text"}
        query_lines = (task_dir / "queries.jsonl").read_text().splitlines()
        assert len(query_lines) == tiny_spec.test_queries_per_task
        assert set(json.loads(query_lines[0])) == {"_id", "text"}
        qrel_lines = (task_dir / "qrels.tsv").read_text().splitlines()
        assert qrel_lines[0] == "query-id\tcorpus-id\tscore"
        assert len(qrel_lines) == tiny_spec.test_queries_per_task + 1
        pair_lines = (task_dir / "pairs.jsonl").read_text().splitlines()
        assert len(pair_lines) == tiny_spec.train_pairs_per_task
        assert set(json.loads(pair_lines[0])) == {"query", "doc_id"}


def _write_fixture(
    root,
    corpus_rows,
    query_rows,
    qrels_text,
    pairs_rows=None,
):
    corpus = root / "corpus.jsonl"
    corpus.write_text(
        "".join(json.dumps(r) + "\n" for r in corpus_rows), encoding="utf-8"
    )
    queries = root / "queries.jsonl"
    queries.write_text(
        "".join(json.dumps(r) + "\n" for r in query_rows), encoding="utf-8"
    )
    qrels = root / "qrels.tsv"
    qrels.write_text(qrels_text, encoding="utf-8")
    pairs = None
    if pairs_rows is not None:
        pairs = root / "pairs.jsonl"
        pairs.write_text(
            "".join(json.dumps(r) + "\n" for r in pairs_rows), encoding="utf-8"
        )
    return corpus, queries, qrels, pairs


class TestBeirLoader:
    def test_hand_written_fixture(self, tmp_path):
        corpus_rows = [
            {"_id": f"d{i}", "title": f"title {i}", "text": f"body {i} words"}
            for i in range(10)
        ]
        del corpus_rows[3]["title"]  # title is optional
        query_rows = [{"_id": f"q{i}", "text": f"ask {i}"} for i in range(5)]
        qrels = "query-id\tcorpus-id\tscore\n" + "".join(
            f"q{i}\td{2 * i}\t1\n" for i in range(5)
        )
        paths = _write_fixture(tmp_path, corpus_rows, query_rows, qrels)
        ds = load_beir_dataset(*paths[:3], task_id=4)
        assert ds.task_id == 4
        assert len(ds.corpus) == 10
        assert ds.corpus[3].title == ""
        assert ds.corpus[0] == DocRecord("d0", "title 0", "body 0 words")
        assert ds.queries_test == [(f"q{i}", f"ask {i}") for i in range(5)]
        assert ds.qrels == {(f"q{i}", f"d{2 * i}"): 1 for i in range(5)}
        # no pairs file: derived from positive qrels in sorted order
        assert ds.train_pairs == [(f"ask {i}", f"d{2 * i}") for i in range(5)]

    def test_qrels_without_header(self, tmp_path):
        paths = _write_fixture(
            tmp_path,
            [{"_id": "d7", "text": "x"}],
            [{"_id": "q1", "text": "x"}],
            "q1\td7\t1\n",
        )
        ds = load_beir_dataset(*paths[:3])
        assert ds.qrels == {("q1", "d7"): 1}

    def test_explicit_pairs_file(self, tmp_path):
        paths = _write_fixture(
            tmp_path,
            [{"_id": "d1", "text": "alpha"}, {"_id": "d2", "text": "beta"}],
            [{"_id": "q1", "text": "alpha"}],
            "q1\td1\t1\n",
            pairs_rows=[{"query": "beta beta", "doc_id": "d2"}],
        )
        ds = load_beir_dataset(*paths[:3], pairs_path=paths[3])
        assert ds.train_pairs == [("beta beta", "d2")]

    def test_derivation_skips_zero_grades_and_unknown_queries(self, tmp_path):
        paths = _write_fixture(
            tmp_path,
            [{"_id": f"d{i}", "text": "x"} for i in range(3)],
            [{"_id": "q1", "text": "one"}, {"_id": "q2", "text": "two"}],
            "q1\td0\t1\nq2\td1\t0\nq9\td2\t1\n",
        )
        ds = load_beir_dataset(*paths[:3])
        assert ds.train_pairs == [("one", "d0")]

    def test_invalid_json_line(self, tmp_path):
        paths = _write_fixture(
            tmp_path,
            [{"_id": "d1", "text": "x"}],
            [{"_id": "q1", "text": "x"}],
            "q1\td1\t1\n",
        )
        paths[0].write_text('{"_id": "d1", "text": "x"\n', encoding="utf-8")
        with pytest.raises(ParseError):
            load_beir_dataset(*paths[:3])

    def test_missing_required_field(self, tmp_path):
        paths = _write_fixture(
            tmp_path,
            [{"_id": "d1"}],
            [{"_id": "q1", "text": "x"}],
            "q1\td1\t1\n",
        )
        with pytest.raises(ParseError):
            load_beir_dataset(*paths[:3])

    def test_qrels_wrong_column_count(self, tmp_path):
        paths = _write_fixture(
            tmp_path,
            [{"_id": "d1", "text": "x"}],
            [{"_id": "q1", "text": "x"}],
            "q1\td1\n",
        )
        with pytest.raises(ParseError):
            load_beir_dataset(*paths[:3])

    @pytest.mark.parametrize("grade", ["high", "-1", "1.5"])
    def test_qrels_bad_grade(self, tmp_path, grade):
        paths = _write_fixture(
            tmp_path,
            [{"_id": "d1", "text": "x"}],
            [{"_id": "q1", "text": "x"}],
            f"q1\td1\t{grade}\n",
        )
        with pytest.raises(ParseError):
            load_beir_dataset(*paths[:3])

    def test_qrels_referencing_unknown_doc(self, tmp_path):
        paths = _write_fixture(
            tmp_path,
            [{"_id": "d1", "text": "x"}],
            [{"_id": "q1", "text": "x"}],
            "q1\tmissing\t1\n",
        )
        with pytest.raises(DanglingReferenceError):
            load_beir_dataset(*paths[:3])

    def test_null_title_is_no_title(self, tmp_path):
        paths = _write_fixture(
            tmp_path,
            [{"_id": "d1", "title": None, "text": "magnesium beans"}],
            [{"_id": "q1", "text": "beans"}],
            "q1\td1\t1\n",
        )
        (doc,) = load_beir_dataset(*paths[:3]).corpus
        assert doc == DocRecord("d1", "", "magnesium beans")
        assert doc_encoding_text(doc) == " magnesium beans"

    @pytest.mark.parametrize("null_in", ["corpus", "queries"])
    def test_null_text_names_file_and_id(self, tmp_path, null_in):
        corpus = [{"_id": "d1", "text": "x"}, {"_id": "d2", "text": "y"}]
        queries = [{"_id": "q1", "text": "x"}, {"_id": "q2", "text": "y"}]
        rows, bad_id = (corpus, "d2") if null_in == "corpus" else (queries, "q2")
        rows[1]["text"] = None
        paths = _write_fixture(tmp_path, corpus, queries, "q1\td1\t1\n")
        with pytest.raises(ParseError) as err:
            load_beir_dataset(*paths[:3])
        assert f"{null_in}.jsonl" in str(err.value)
        assert repr(bad_id) in str(err.value)

    @pytest.mark.parametrize(
        "null_in, field",
        [
            ("corpus", "_id"),
            ("queries", "_id"),
            ("pairs", "query"),
            ("pairs", "doc_id"),
        ],
    )
    def test_null_field_names_file_and_field(self, tmp_path, null_in, field):
        # a null _id or query used to load as the string "None": doc id
        # "None", query id "None", the training pair ("None", "d1")
        files = {
            "corpus": [{"_id": "d1", "text": "x"}, {"_id": "d2", "text": "y"}],
            "queries": [{"_id": "q1", "text": "x"}, {"_id": "q2", "text": "y"}],
            "pairs": [{"query": "x", "doc_id": "d1"}, {"query": "y", "doc_id": "d1"}],
        }
        files[null_in][1][field] = None
        paths = _write_fixture(
            tmp_path, files["corpus"], files["queries"], "q1\td1\t1\n", files["pairs"]
        )
        with pytest.raises(ParseError) as err:
            load_beir_dataset(*paths)
        assert f"{null_in}.jsonl:2" in str(err.value)
        assert f"null {field}" in str(err.value)

    def test_test_queries_are_the_judged_ones(self, tmp_path):
        # a BEIR queries file holds every split's queries; a query with any
        # qrels row, grade 0 included, is a test query, in queries-file order
        paths = _write_fixture(
            tmp_path,
            [{"_id": f"d{i}", "text": f"body {i}"} for i in range(40)],
            [{"_id": f"q{i}", "text": f"ask {i}"} for i in range(12)],
            "".join(f"q{i}\td{i}\t{i % 2}\n" for i in (7, 0, 5, 2, 3, 6, 1, 4)),
        )
        ds = load_beir_dataset(*paths[:3])
        assert ds.queries_test == [(f"q{i}", f"ask {i}") for i in range(8)]
        assert ds.train_pairs == [(f"ask {i}", f"d{i}") for i in (1, 3, 5, 7)]

    def test_no_judged_query_is_rejected(self, tmp_path):
        queries = [{"_id": "q1", "text": "x"}]
        paths = _write_fixture(
            tmp_path, [{"_id": "d1", "text": "x"}], queries, "q2\td1\t1\n"
        )
        with pytest.raises(MissingQrelsError, match="judges no query"):
            load_beir_dataset(*paths[:3])

    def test_repeated_query_id_names_file_line_and_id(self, tmp_path):
        queries = [
            {"_id": "q1", "text": "first"},
            {"_id": "q2", "text": "other"},
            {"_id": "q1", "text": "second"},
        ]
        paths = _write_fixture(
            tmp_path, [{"_id": "d1", "text": "x"}], queries, "q1\td1\t1\n"
        )
        with pytest.raises(ParseError) as err:
            load_beir_dataset(*paths[:3])
        assert str(err.value) == f"{paths[1]}:3: repeated _id 'q1'"
