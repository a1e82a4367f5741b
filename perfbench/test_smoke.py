"""Smoke test of the benchmark itself, on tiny streams.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs one pass on a stream shaped like the test suite's
`tiny_spec` (2 tasks, 60 docs); the assertions are about what the benchmark
prints and counts, not about speed.
"""
import json
import signal
import time
from pathlib import Path

import pytest

import refclock
import run

run.import_qdc()
import workloads  # noqa: E402  (needs qdc on the path)

TINY = dict(
    num_tasks=2,
    docs_per_task=60,
    train_pairs_per_task=30,
    test_queries_per_task=12,
    topic_vocab_size=120,
)

# the metric names each workload prints for people, with their units
NAMED = {
    "bench-shipped": {"bench_s": "s", "ndcg10_qdc_old": "points", "qdc_gap_pts": "points"},
    "train-kd": {"train_pairs_per_s": "pairs/s", "ndcg10_train_kd": "points"},
    "serve-scaled": {
        "query_p50_ms": "ms",
        "query_p99_ms": "ms",
        "queries_per_s": "1/s",
        "reindex_docs_per_s": "docs/s",
        "ndcg10_serve": "points",
    },
}


def _run(capsys, workload, trace=0):
    code = run.main(
        ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        shrink=TINY,
    )
    lines = capsys.readouterr().out.splitlines()
    assert code == 0, "\n".join(lines)
    return lines, json.loads(lines[-1])


def _printed(lines, name, unit):
    return any(
        line.split()[:1] == [name] and line.split()[-1] == unit for line in lines
    )


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_every_end_to_end_metric_is_printed_with_its_unit(capsys, workload):
    lines, result = _run(capsys, workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, unit, _, _ in run.END_TO_END
    }
    for name, unit, _, _ in run.END_TO_END:
        assert _printed(lines, name, unit), name
        assert result["metrics"][name]["value"] > 0, name
    for name, unit in NAMED[workload].items():
        assert _printed(lines, name, unit), name
    assert any(line.startswith("environment: ") for line in lines)


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_traced_run_reports_every_layer_metric(capsys, workload):
    lines, result = _run(capsys, workload, trace=1)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, unit, _ in run.PER_LAYER
    }
    assert result["metrics"]["encoder.tokenize.calls"]["value"] > 0
    assert (run.OUT / f"trace-{workload}.json.gz").is_file()
    # the wrappers are gone once the run ends
    from qdc import index, pipeline

    assert not hasattr(index.search_topk, "__wrapped__")
    assert not hasattr(pipeline.tokenize, "__wrapped__")


def test_corrupted_ranking_counts_as_failed(capsys, monkeypatch):
    from qdc import index

    real = index.search_topk
    served = []

    def corrupting(idx, q, k):
        ranking = real(idx, q, k)
        served.append(1)
        return ranking[::-1] if len(served) == 1 else ranking

    _, clean = _run(capsys, "serve-scaled")
    monkeypatch.setattr(index, "search_topk", corrupting)
    _, result = _run(capsys, "serve-scaled")
    assert result["attempted"] == clean["attempted"]
    assert result["failed"] == clean["failed"] + 1
    assert result["correct"] is False


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _ref_per_busy_second(clock, seconds):
    """Reference seconds per wall second of work (probes left out)."""
    ref0, wall0, probe0 = clock.now(), time.perf_counter(), clock.probe_s
    readings = []
    while time.perf_counter() - wall0 < seconds:
        readings.append(clock.now())
    assert readings == sorted(readings)
    busy = time.perf_counter() - wall0 - (clock.probe_s - probe0)
    return (clock.now() - ref0) / busy


def test_reference_clock_runs_at_the_kernel_speed(monkeypatch):
    # a host where the kernel takes twice (four times) its nominal time runs
    # the clock at half (a quarter of) the wall's speed, probes left out
    for name, slowdown in (("python", 2), ("search", 4)):
        nominal = refclock.KERNELS[name][1]
        monkeypatch.setitem(
            refclock.KERNELS, name,
            (lambda s=slowdown * nominal: _spin(s), nominal),
        )
    before = signal.getsignal(signal.SIGALRM)
    clock = refclock.RefClock(time.perf_counter())
    clock.start()
    try:
        python_rate = _ref_per_busy_second(clock, 1.0)
        clock.use("search")
        search_rate = _ref_per_busy_second(clock, 1.0)
    finally:
        clock.stop()
    assert len(clock.probes["python"]) >= 4 and len(clock.probes["search"]) >= 4
    assert python_rate == pytest.approx(1 / 2, rel=0.05)
    assert search_rate == pytest.approx(1 / 4, rel=0.05)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER
    ]
