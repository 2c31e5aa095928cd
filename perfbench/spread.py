"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload ugv_loop --seeds 1-10 --seconds 15

Runs ``perfbench/run.py`` once per seed, one run at a time, appends each
result line to ``perfbench/results/<workload>.jsonl`` and prints, per metric,
the median, the first and third quartiles and the quartile distance as a
share of the median (``statistics.quantiles(values, n=4)``), as a Markdown
table.  Bounds are read from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '1,4,9'")
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    values: dict = {}
    failed_shares = set()
    with open(out_dir / f"{args.workload}.jsonl", "a") as log:
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, *spec["command"][1:], "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            started = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - started
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            diagnostics = json.loads(proc.stderr.strip().splitlines()[-1])
            log.write(json.dumps({"seed": seed, "seconds": seconds, "trace": args.trace,
                                  "wall_s": wall, **result, "stderr": diagnostics}) + "\n")
            print(f"seed {seed}: {wall:.1f} s, correct={result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
            failed_shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])

    print(f"| {args.workload} | median | q1 | q3 | (q3-q1)/median | bound |")
    print("| --- | --- | --- | --- | --- | --- |")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        share = (q3 - q1) / med if med else float("nan")
        print(f"| {name} | {med:.5g} | {q1:.5g} | {q3:.5g} | {share:.3f} | {bounds.get(name)} |")
    print(f"failed shares seen: {sorted(failed_shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
