"""Shared fixtures.

The shipped benchmark (default config, stream seed 42) is expensive enough
that training and evaluation run once per session and every module reads
from the same results.
"""
import time

import pytest

from qdc.config import RunConfig
from qdc.datagen import StreamSpec, generate_task_stream
from qdc.pipeline import bench, init_state


@pytest.fixture(scope="session")
def default_config():
    return RunConfig()


@pytest.fixture(scope="session")
def shipped_stream(default_config):
    return generate_task_stream(default_config.stream)


@pytest.fixture(scope="session")
def bench_outcome(default_config, shipped_stream):
    """(results, trajectories, wall seconds) for the shipped benchmark."""
    began = time.perf_counter()
    start = init_state(default_config, shipped_stream)
    results, trajectories = bench(start, default_config)
    elapsed = time.perf_counter() - began
    return results, trajectories, elapsed


@pytest.fixture(scope="session")
def tiny_spec():
    # small enough that a full trajectory trains in well under a second
    return StreamSpec(
        num_tasks=2,
        docs_per_task=60,
        train_pairs_per_task=30,
        test_queries_per_task=12,
        topic_vocab_size=120,
        seed=7,
    )


@pytest.fixture(scope="session")
def tiny_config(tiny_spec):
    return RunConfig(stream=tiny_spec)


@pytest.fixture(scope="session")
def tiny_stream(tiny_spec):
    return generate_task_stream(tiny_spec)
