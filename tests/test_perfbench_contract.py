"""The benchmark's hold on the package.

perfbench/tracer.py wraps qdc functions by module and name, and
perfbench/workloads.py reads fields of the pipeline's checkpoint states and
serves single queries through the encoder, the ledger and an index.
Neither is part of this suite, so these tests load the tracer by path,
change nothing under perfbench/, and fail here when the package drops or
renames something the benchmark reaches for.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import qdc.pipeline
from qdc import drift, encoder, index
from qdc.pipeline import retrieve_eval, train_trajectory

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(tracer):
    for module_name, fn_name in tracer.TRACED:
        module = importlib.import_module(f"qdc.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"
    # the smoke test checks that the tracer leaves no wrapper on this binding
    assert qdc.pipeline.tokenize is qdc.encoder.tokenize


def test_install_wraps_and_uninstall_restores(tracer):
    originals = {
        name: getattr(qdc.pipeline, name) for name in ("train_task", "retrieve_eval")
    }
    t = tracer.Tracer()
    try:
        t.install()
        assert "qdc.pipeline.train_task" in t.bindings()
        assert qdc.pipeline.train_task is not originals["train_task"]
    finally:
        t.uninstall()
    for name, fn in originals.items():
        assert getattr(qdc.pipeline, name) is fn


@pytest.fixture(scope="module")
def checkpoints(tiny_stream, tiny_config):
    return train_trajectory(tiny_stream, True, tiny_config)


def test_checkpoints_hold_what_the_workloads_read(
    checkpoints, tiny_stream, tiny_config
):
    assert len(checkpoints) == len(tiny_stream)
    for t, state in enumerate(checkpoints, start=1):
        assert state.trained_through == state.params.version == t
        assert len(state.ledger.records) == t - 1
        assert sorted(state.indexes) == list(range(1, t + 1))
        assert state.datasets[t].qrels
    final = checkpoints[-1]
    run = retrieve_eval(final, 1, "qdc", tiny_config.k)
    assert run.task == 1 and run.results


def test_a_served_query_is_a_unit_vector_and_k_results(checkpoints, tiny_stream):
    # a served FT+QDC query, called as perfbench/workloads.py calls it
    final = checkpoints[-1]
    params, k = final.params, 10
    for task, ds in enumerate(tiny_stream, start=1):
        _, text = ds.queries_test[0]
        q = encoder.encode(params, encoder.tokenize(text, params.vocab_size))
        assert q.shape == (params.dim,)
        assert abs(float(np.linalg.norm(q)) - 1.0) <= 1e-12
        emb = drift.compensate_query_path(final.ledger, q, task, final.trained_through)
        ranking = index.search_topk(final.indexes[task], emb, k)
        assert len(ranking) == k
        assert all(isinstance(d, str) and isinstance(s, float) for d, s in ranking)
