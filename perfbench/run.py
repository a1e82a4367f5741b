"""The qdc benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload bench-shipped --seed 42 --seconds 10 --trace 0

Run it from the root of a checkout; it imports qdc from `src/` there and
writes only under `perfbench/out/`. Every time is read off the reference
clock of `refclock.py`, which runs at the speed of a fixed kernel probed
every 0.2 s and so cancels the host's own drift; wall times are printed
next to them. With `--trace 0` the last line of standard output is a JSON
object holding every end-to-end metric; with `--trace 1` the qdc layers
are wrapped, every call is recorded as a span, the spans are written to
`perfbench/out/trace-<workload>.json.gz`, and the JSON holds the per-layer
metrics. Lines above the JSON are for people: the environment, the clock's
probes, the metrics under their workload-specific names, failures, and in
a traced run the per-layer table. See perfbench/README.md.
"""
import time

PROCESS_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

BLAS_THREADS = 1  # single process, single client; at most nproc

# name, unit, better, bound (share of the parent's median). Both timings
# are read off the reference clock; set-up, the shorter and less repeated
# of the two, gets the widest bound allowed (see README.md).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Layer metrics reported in the JSON line of a traced run: the ones later
# changes are most likely to move, restricted to layers every workload calls
# so that none reads a constant zero. The trace file holds all of them.
PER_LAYER = (
    ("encoder.tokenize.calls", "count", "lower"),
    ("encoder.tokenize.self_s", "s", "lower"),
    ("encoder.tokenize.us_per_call", "us", "lower"),
    ("encoder.tokenize.repeat_ratio", "ratio", "lower"),
    ("encoder.encode_batch.self_s", "s", "lower"),
    ("encoder.encode_batch.rows_per_s", "rows/s", "higher"),
    ("encoder.contrastive_loss.self_s", "s", "lower"),
    ("encoder.contrastive_loss.us_per_call", "us", "lower"),
    ("encoder.sgd_step.self_s", "s", "lower"),
    ("encoder.sgd_step.us_per_call", "us", "lower"),
    ("index.build_index.calls", "count", "lower"),
    ("index.build_index.self_s", "s", "lower"),
    ("index.build_index.docs_per_s", "docs/s", "higher"),
    ("index.build_index.repeat_ratio", "ratio", "lower"),
    ("index.search_topk.calls", "count", "lower"),
    ("index.search_topk.self_s", "s", "lower"),
    ("index.search_topk.us_per_call", "us", "lower"),
    ("drift.estimate_drift.us_per_call", "us", "lower"),
    ("drift.compensate_query_path.us_per_call", "us", "lower"),
    ("metrics.compute_metrics.self_s", "s", "lower"),
    ("pipeline.mine_hard_negatives.self_s", "s", "lower"),
    ("pipeline.train_trajectory.self_s", "s", "lower"),
    ("pipeline.train_trajectory.s", "s", "lower"),
    ("datagen.generate_task_stream.docs_per_s", "docs/s", "higher"),
    ("tracing.op_p50_ms", "ms", "lower"),
    ("tracing.spans", "count", "lower"),
)


def _pin_environment() -> str | None:
    """Pin BLAS threads before numpy loads; unset QDC_THREADS.

    QDC_THREADS stays unset so matrix evaluation runs on one thread; the
    inherited value is returned so that it can be recorded.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return os.environ.pop("QDC_THREADS", None)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="qdc benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_qdc() -> None:
    """Import qdc from this checkout's src/, never from anywhere else."""
    if not (SRC / "qdc" / "__init__.py").is_file():
        raise SystemExit(f"error: no qdc sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qdc

    if Path(qdc.__file__).resolve().parent != (SRC / "qdc").resolve():
        raise SystemExit(f"error: imported qdc from {qdc.__file__}, not {SRC}")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(np, args, inherited_qdc_threads) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_version = "unknown"
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "QDC_THREADS": inherited_qdc_threads or "unset",
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_lines,
    }


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _end_to_end(outcome) -> dict:
    values = {
        "setup_s": outcome.setup_s,
        "op_p50_ms": statistics.median(outcome.op_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: _metric(values[name], unit) for name, unit, _, _ in END_TO_END}


def _per_layer(summary, outcome) -> dict:
    layers = summary["layers"]
    out = {}
    for name, unit, _ in PER_LAYER:
        if name == "tracing.op_p50_ms":
            value = statistics.median(outcome.op_ms)
        elif name == "tracing.spans":
            value = summary["spans"]
        else:
            layer, stat = name.rsplit(".", 1)
            value = layers[layer][stat]
        out[name] = _metric(value, unit)
    return out


def _print_layer_report(summary) -> None:
    layers = summary["layers"]
    run_s = summary["run_s"]
    print(f"per-layer (traced run, {run_s:.3f} reference s, {summary['spans']} spans, "
          f"{summary['requests']} request ids)")
    print(f"  {'layer':34s} {'calls':>8s} {'incl s':>9s} {'self s':>9s} {'self %':>7s}")
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        share = 100.0 * row["self_s"] / run_s if run_s else 0.0
        print(f"  {name:34s} {row['calls']:8d} {row['s']:9.3f} "
              f"{row['self_s']:9.3f} {share:6.1f}%")
    untraced = summary["untraced_s"]
    print(f"  {'(benchmark code and untraced)':34s} {'':8s} {'':9s} {untraced:9.3f} "
          f"{100.0 * untraced / run_s if run_s else 0.0:6.1f}%")
    for phase, total in sorted(summary["phase_self_s"].items()):
        ranked = sorted(
            (
                (row["self_s_by_phase"].get(phase, 0.0), name)
                for name, row in layers.items()
            ),
            reverse=True,
        )[:4]
        tops = ", ".join(
            f"{name} {100.0 * s / total:.0f}%" for s, name in ranked if s > 0
        )
        print(f"  phase {phase:6s} traced self {total:8.3f} s: {tops}")
    print("  extras:")
    for name, row in layers.items():
        extra = {
            k: v for k, v in row.items()
            if k not in ("calls", "s", "self_s", "self_s_by_phase")
        }
        if extra:
            text = ", ".join(
                f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in extra.items()
            )
            print(f"    {name}: {text}")
    cells = summary["cells"]
    print(f"    pipeline.cells: evaluated={cells['evaluated']}, "
          f"distinct_digests={cells['distinct_digests']}, "
          f"repeat_ratio={cells['repeat_ratio']:.4g}")
    print("  encoder.tokenize.calls counts only calls that reach tokenize: "
          "pipeline's tokenizer cache answers repeats before they do")


def main(argv=None, shrink=None, inherited_qdc_threads=None) -> int:
    """Run one workload; shrink overrides StreamSpec sizes (smoke test)."""
    args = _parse_args(argv)
    import_qdc()
    import numpy as np

    import refclock
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    clock = refclock.RefClock(PROCESS_START)
    clock.start()
    try:
        tr = tracing.Tracer(clock.now) if args.trace else tracing.NullTracer()
        ctx = workloads.Context(
            seed=args.seed,
            seconds=args.seconds,
            tracer=tr,
            work_dir=OUT,
            clock=clock,
            shrink=dict(shrink or {}),
        )
        tr.install()
        try:
            outcome = wl.run(ctx, wl)
        finally:
            bindings = tr.bindings()
            tr.uninstall()
        run_s = clock.now()
    finally:
        clock.stop()
    wall_s = time.perf_counter() - PROCESS_START
    if not outcome.op_ms:
        print("error: no operation completed; failures:", file=sys.stderr)
        for reason in outcome.tally.reasons[:20]:
            print(f"  {reason}", file=sys.stderr)
        return 1

    env = _environment(np, args, inherited_qdc_threads)
    print(f"qdc benchmark  workload={wl.name}  why: {wl.why}")
    print("environment: " + json.dumps(env, sort_keys=True))
    probes = clock.summary()
    print(f"reference clock: run {run_s:.3f} s, wall {wall_s:.3f} s, "
          f"{probes.pop('probe_s'):.3f} s of it probing")
    for kernel, row in probes.items():
        print(f"  {kernel} kernel: {row['probes']} probes, median {row['ms_median']:.2f} ms "
              f"(min {row['ms_min']:.2f}, max {row['ms_max']:.2f}, "
              f"nominal {row['ms_nominal']:.2f})")
    end_to_end = _end_to_end(outcome)
    for name, metric in end_to_end.items():
        print(f"  {name:24s} {metric['value']:14.4f} {metric['unit']}")
    print(f"  {'op_p50_wall_ms':24s} {statistics.median(outcome.op_wall_ms):14.4f} ms")
    for name, (value, unit) in outcome.named.items():
        print(f"  {name:24s} {value:14.4f} {unit}")
    print(f"  timed operations: {len(outcome.op_ms)}")
    for note in outcome.notes:
        print(f"  {note}")
    tally = outcome.tally
    print(f"  attempted {tally.attempted}, failed {tally.failed}")
    for reason in tally.reasons[:20]:
        print(f"  FAILED {reason}")

    if args.trace:
        summary = tr.summarize(run_s)
        _print_layer_report(summary)
        print(f"  wrapped {len(bindings)} bindings: {', '.join(bindings)}")
        path = OUT / f"trace-{wl.name}.json.gz"
        tr.write(path, {"environment": env, "end_to_end": end_to_end}, summary)
        print(f"  trace written to {path.relative_to(ROOT)}")
        metrics = _per_layer(summary, outcome)
    else:
        metrics = end_to_end
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(inherited_qdc_threads=_pin_environment()))
