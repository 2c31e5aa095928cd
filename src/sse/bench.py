"""Iteration-count experiments: random instances swept over the attack
budget, solved with each strategy, reported per trial and per sweep.

``run_bench`` takes a spec of the form ``{"sweeps": [{"n", "p", "s",
"s_bar", "trials", "strategies", ...}]}`` and returns the CSV rows that
``write_bench_csv`` prints; ``sse bench`` is a shell over the two.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import attacksim
from .estimator import EstimatorConfig, IterationLimitError, estimate, iteration_bound
from .linmodel import check_keys, whole_number
from .theory import DEFAULT_EPSILON, Strategy

BENCH_FIELDS = [
    "record", "sweep", "trial", "n", "p", "s", "s_bar", "strategy", "seed",
    "status", "iterations", "theory_checks", "conflict_fallbacks", "solve_calls",
    "decisions", "conflicts", "wall_time", "estimation_error", "theoretical_bound",
]
# SolveStats counts that every trial row carries, a capped trial's included
STATS_FIELDS = ("theory_checks", "conflict_fallbacks", "solve_calls", "decisions", "conflicts")
SWEEP_KEYS = ("n", "p", "s", "s_bar", "trials", "seed", "strategies", "observability",
              "noise", "attack_norm", "epsilon", "max_iterations")


def _run_bench_trial(task: dict) -> list[dict]:
    sweep_idx, trial, spec = task["sweep"], task["trial"], task["spec"]
    n, p, s, s_bar = spec["n"], spec["p"], spec["s"], spec["s_bar"]
    seed = spec.get("seed", 0) + task.get("seed_offset", 0) + trial
    rows = []
    instance = attacksim.generate_instance(
        n, p, s, s_bar,
        observability_level=spec.get("observability", "2s"),
        noise_bounds=spec.get("noise", 0.0),
        seed=seed,
        attack_norm=spec.get("attack_norm", attacksim.ATTACK_NORM_RANGE),
    )
    for strategy in spec["strategies"]:
        config = EstimatorConfig(
            strategy=strategy,
            epsilon=spec.get("epsilon", DEFAULT_EPSILON),
            max_iterations=spec.get("max_iterations"),
        )
        row = {
            "record": "trial", "sweep": sweep_idx, "trial": trial, "n": n, "p": p,
            "s": s, "s_bar": s_bar, "strategy": strategy.value, "seed": seed,
            "theoretical_bound": iteration_bound(strategy, p, s_bar),
            "iterations": "", "estimation_error": "", **dict.fromkeys(STATS_FIELDS, ""),
        }
        start = time.perf_counter()
        solved = None  # the Estimate, or a capped solve's IterationLimitError
        try:
            solved = estimate(instance.model, instance.stack, instance.window, config)
            if solved.feasible:
                err = np.linalg.norm(solved.x - instance.x_true)
                row["status"] = "feasible"
                row["estimation_error"] = err / max(np.linalg.norm(instance.x_true), 1e-12)
            else:
                row["status"] = "infeasible"
        except IterationLimitError as exc:
            solved = exc
            row["status"] = "capped"
        except Exception as exc:  # record per-trial failures, keep running
            row["status"] = f"error:{type(exc).__name__}"
        row["wall_time"] = time.perf_counter() - start
        if solved is not None:
            row["iterations"] = solved.iterations
            row.update((name, getattr(solved.stats, name)) for name in STATS_FIELDS)
        rows.append(row)
    return rows


def run_bench(spec_doc: dict, jobs: int = 1, seed_offset: int = 0) -> list[dict]:
    """Run every sweep trial and append per-(sweep, strategy) aggregate rows.
    The spec's one top-level key is ``sweeps``, a list (it may be empty)."""
    sweeps = None
    if isinstance(spec_doc, dict):
        check_keys(spec_doc, "bench spec", (), ("sweeps",))
        sweeps = spec_doc.get("sweeps")
    if not isinstance(sweeps, list):
        raise ValueError("a bench spec is a JSON object with a 'sweeps' list")
    jobs = whole_number(jobs, "jobs", 1)
    seed_offset = whole_number(seed_offset, "seed_offset", 0)
    tasks, checked = [], []
    for sweep_idx, spec in enumerate(sweeps):
        if not isinstance(spec, dict):
            raise ValueError(f"sweep {sweep_idx} must be a JSON object, got {spec!r}")
        check_keys(spec, f"sweep {sweep_idx}", ("n", "p", "s", "s_bar"), SWEEP_KEYS)
        spec = {**spec, **{k: whole_number(spec[k], f"sweep {sweep_idx} {k}",
                                           0 if k in ("trials", "seed") else None)
                           for k in ("n", "p", "s", "s_bar", "trials", "seed") if k in spec}}
        names = [v.value for v in Strategy]
        strategies = spec.get("strategies", ["conflict"])
        if not (isinstance(strategies, list) and all(v in names for v in strategies)):
            raise ValueError(f"sweep {sweep_idx} strategies must be a list of "
                             f"{', '.join(map(repr, names))}, got {strategies!r}")
        spec["strategies"] = [Strategy(v) for v in strategies]
        checked.append(spec)
        for trial in range(spec.get("trials", 1)):
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
        spec = checked[sweep_idx]
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
    attacksim.write_csv(path, BENCH_FIELDS,
                        ([row.get(name, "") for name in BENCH_FIELDS] for row in rows))
