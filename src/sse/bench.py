"""Iteration-count experiments: random instances swept over the attack
budget, solved with each strategy, reported per trial and per sweep.

``run_bench`` takes a spec of the form ``{"sweeps": [{"n", "p", "s",
"s_bar", "trials", "strategies", ...}]}`` and returns the CSV rows that
``write_bench_csv`` prints; ``sse bench`` is a shell over the two.
"""

from __future__ import annotations

import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import attacksim
from .estimator import EstimatorConfig, IterationLimitError, estimate
from .theory import Strategy

BENCH_FIELDS = [
    "record", "sweep", "trial", "n", "p", "s", "s_bar", "strategy", "seed",
    "status", "iterations", "wall_time", "estimation_error", "theoretical_bound",
]


def iteration_bound(strategy: Strategy, p: int, s_bar: int) -> int:
    """Worst-case iteration count: every support within budget for the trivial
    certificate, every maximal conflicting set otherwise."""
    if strategy is Strategy.TRIVIAL:
        return sum(math.comb(p, s) for s in range(s_bar + 1))
    width = max(p - 2 * s_bar + 1, 1)
    return math.comb(p, min(width, p))


def _run_bench_trial(task: dict) -> list[dict]:
    sweep_idx, trial, spec = task["sweep"], task["trial"], task["spec"]
    n, p, s, s_bar = spec["n"], spec["p"], spec["s"], spec["s_bar"]
    seed = spec.get("seed", 0) + task.get("seed_offset", 0) + trial
    attack_norm = spec.get("attack_norm", (1.0, 10.0))
    if isinstance(attack_norm, (list, tuple)):
        attack_norm = tuple(attack_norm)
    rows = []
    instance = attacksim.generate_instance(
        n, p, s, s_bar,
        observability_level=spec.get("observability", "2s"),
        noise_bounds=spec.get("noise", 0.0),
        seed=seed,
        attack_norm=attack_norm,
    )
    for strategy_name in spec.get("strategies", ["conflict"]):
        strategy = Strategy(strategy_name)
        config = EstimatorConfig(
            strategy=strategy,
            epsilon=spec.get("epsilon", 1e-6),
            max_iterations=spec.get("max_iterations"),
        )
        row = {
            "record": "trial", "sweep": sweep_idx, "trial": trial, "n": n, "p": p,
            "s": s, "s_bar": s_bar, "strategy": strategy.value, "seed": seed,
            "theoretical_bound": iteration_bound(strategy, p, s_bar),
        }
        start = time.perf_counter()
        try:
            result = estimate(instance.model, instance.stack, instance.window, config)
            row["wall_time"] = time.perf_counter() - start
            row["iterations"] = result.iterations
            if result.feasible:
                err = np.linalg.norm(result.x - instance.x_true)
                row["status"] = "feasible"
                row["estimation_error"] = err / max(np.linalg.norm(instance.x_true), 1e-12)
            else:
                row["status"] = "infeasible"
                row["estimation_error"] = ""
        except IterationLimitError as exc:
            row["wall_time"] = time.perf_counter() - start
            row["iterations"] = exc.iterations
            row["status"] = "capped"
            row["estimation_error"] = ""
        except Exception as exc:  # record per-trial failures, keep running
            row["wall_time"] = time.perf_counter() - start
            row["iterations"] = ""
            row["status"] = f"error:{type(exc).__name__}"
            row["estimation_error"] = ""
        rows.append(row)
    return rows


def run_bench(spec_doc: dict, jobs: int = 1, seed_offset: int = 0) -> list[dict]:
    """Run every sweep trial and append per-(sweep, strategy) aggregate rows."""
    sweeps = spec_doc.get("sweeps", [])
    tasks = []
    for sweep_idx, spec in enumerate(sweeps):
        for trial in range(int(spec.get("trials", 1))):
            tasks.append({"sweep": sweep_idx, "trial": trial, "spec": spec,
                          "seed_offset": seed_offset})
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_run_bench_trial, tasks))
    else:
        chunks = [_run_bench_trial(t) for t in tasks]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r["sweep"], r["trial"], r["strategy"]))

    aggregates = []
    keys = sorted({(r["sweep"], r["strategy"]) for r in rows})
    for sweep_idx, strategy in keys:
        group = [r for r in rows if r["sweep"] == sweep_idx and r["strategy"] == strategy]
        iters = [r["iterations"] for r in group if isinstance(r["iterations"], int)]
        errors = [r["estimation_error"] for r in group
                  if isinstance(r["estimation_error"], float)]
        spec = sweeps[sweep_idx]
        agg = {
            "record": "aggregate", "sweep": sweep_idx, "trial": "",
            "n": spec["n"], "p": spec["p"], "s": spec["s"], "s_bar": spec["s_bar"],
            "strategy": strategy, "seed": spec.get("seed", 0), "status": "",
            "iterations": math.exp(np.mean([math.log(v) for v in iters])) if iters else "",
            "wall_time": sum(r["wall_time"] for r in group if isinstance(r["wall_time"], float)),
            "estimation_error": max(errors) if errors else "",
            "theoretical_bound": group[0]["theoretical_bound"],
        }
        aggregates.append(agg)
    return rows + aggregates


def write_bench_csv(rows: list[dict], path) -> None:
    """CSV with one line per row in ``BENCH_FIELDS`` order; stdout when
    ``path`` is empty."""
    def render(value):
        if isinstance(value, float):
            return attacksim.format_exact(value)
        return str(value)

    out = open(path, "w", newline="") if path else sys.stdout
    try:
        out.write(",".join(BENCH_FIELDS) + "\n")
        for row in rows:
            out.write(",".join(render(row.get(fieldname, "")) for fieldname in BENCH_FIELDS) + "\n")
    finally:
        if path:
            out.close()
