"""Run one workload under several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve-scaled --runs 10

Each run is a fresh process of perfbench/run.py (so peak RSS is per run).
For every metric it prints the median and the quartile spread, the distance
between the first and third quartile as a share of the median, next to the
metric's bound from BENCHMARK.json. The raw results are appended as JSON
lines to perfbench/out/spread-<workload>.jsonl.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    log = HERE / "out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        with log.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
        print(f"seed {seed}: {wall:.1f} s, failed {result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:40s} median {med:12.4f}  spread {spread:6.3f}  bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
