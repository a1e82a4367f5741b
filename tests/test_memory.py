"""Allocation bounds: what an operation allocates beyond what it returns
does not grow with the population.

Each operation runs under tracemalloc on a corpus of 2,000 and of 8,000
documents (d = 64). Its extra bytes are the traced peak less the arrays it
returns. A temporary the size of the population, such as a float64 or even
a float32 copy of the rows, would add at least 1.5 MiB between the two
sizes; per-document bookkeeping (lists, sets and dicts of doc ids) adds
well under that.
"""
import gc
import sys
import tracemalloc

import numpy as np
import pytest

import qdc.pipeline
from qdc.encoder import encode_batch, init_params, tokenize_rows
from qdc.index import (
    Corpus,
    DocRecord,
    build_index,
    corpus_rows,
    load_index,
    save_index,
)
from qdc.pipeline import mine_hard_negatives

VOCAB, DIM = 4096, 64
SIZES = (2000, 8000)
# the growth allowed between the two sizes: less than the 1.5 MiB that one
# float32 copy of the 6,000 added rows would take
GROWTH = 1 << 20


def _traced(fn):
    """(peak bytes traced while fn runs, what fn returns)."""
    gc.collect()
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, out


def _str_bytes(strings) -> int:
    return sys.getsizeof(strings) + sum(map(sys.getsizeof, strings))


@pytest.fixture(scope="module")
def params():
    return init_params(VOCAB, DIM, 0.05, np.random.default_rng(0))


@pytest.fixture(scope="module")
def corpora():
    """A tabled corpus of each size, and 300 training pairs over it."""
    out = {}
    for n in SIZES:
        rng = np.random.default_rng(n)
        corpus = Corpus(
            DocRecord(
                f"d{i:05d}",
                "",
                " ".join(f"w{int(t)}" for t in rng.integers(0, 3000, 30)),
            )
            for i in range(n)
        )
        corpus_rows(corpus, VOCAB)
        pairs = [(f"w{i} w{i + 1}", corpus[i * 7 % n].doc_id) for i in range(300)]
        queries = tokenize_rows([q for q, _ in pairs], VOCAB)
        out[n] = corpus, pairs, queries
    return out


def _assert_flat(extra: dict) -> None:
    small, large = (extra[n] for n in SIZES)
    assert large - small < GROWTH, (small, large)


def test_encode_batch(params, corpora):
    extra = {}
    for n, (corpus, _, _) in corpora.items():
        table = corpus_rows(corpus, VOCAB)
        peak, units = _traced(lambda: encode_batch(params, table))
        extra[n] = peak - units.nbytes
    _assert_flat(extra)


def test_build_index(params, corpora):
    extra = {}
    for n, (corpus, _, _) in corpora.items():
        peak, index = _traced(lambda: build_index(params, corpus, 1))
        extra[n] = peak - index.rows.nbytes - sys.getsizeof(index.doc_ids)
    _assert_flat(extra)


def test_scoring(params, corpora):
    extra = {}
    for n, (corpus, _, _) in corpora.items():
        index = build_index(params, corpus, 1)
        peak, (scan, norms, rank, _) = _traced(lambda: index._scoring)
        extra[n] = peak - scan.nbytes - norms.nbytes - rank.nbytes
    _assert_flat(extra)


def test_save_and_load_index(params, corpora, tmp_path):
    saved, loaded = {}, {}
    for n, (corpus, _, _) in corpora.items():
        index = build_index(params, corpus, 1)
        path = tmp_path / f"{n}.idx"
        saved[n], _ = _traced(lambda: save_index(index, path))
        peak, back = _traced(lambda: load_index(path))
        loaded[n] = peak - back.rows.nbytes - _str_bytes(back.doc_ids)
        assert np.array_equal(back.rows, index.rows)
    _assert_flat(saved)
    _assert_flat(loaded)


def test_mine_hard_negatives(params, corpora, monkeypatch):
    # blocks of 2^16 scores at both sizes, so the block is the same size;
    # mining keeps the float32 (d, N) copy of the document units it scans
    monkeypatch.setattr(qdc.pipeline, "_MINE_SCORES", 1 << 16)
    extra = {}
    for n, (corpus, pairs, queries) in corpora.items():
        peak, (negs, q_units, doc_units) = _traced(
            lambda: mine_hard_negatives(params, pairs, corpus, 7, queries)
        )
        scan = doc_units.size * 4
        extra[n] = peak - negs.nbytes - q_units.nbytes - doc_units.nbytes - scan
    _assert_flat(extra)
