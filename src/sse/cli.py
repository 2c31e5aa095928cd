"""Command-line front end.

Subcommands: observability (model analysis and robustness constants),
estimate (solve one window from a trace file), oracle (brute-force supports),
simulate (closed-loop vehicle run to CSV), bench (iteration-count experiments
to CSV).  Exit codes: 0 success, 2 infeasible estimate, 3 input error,
4 enumeration, iteration or search-node cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import attacksim, bench, oracle
from .attacksim import format_exact
from .estimator import (
    EstimatorConfig,
    IterationLimitError,
    delta_bound,
    estimate,
    minimal_support_estimate,
)
from .linmodel import (
    DEFAULT_SUBSET_CAP,
    GramSingularError,
    RobustnessConstants,
    SubsetCapError,
    SystemModel,
    build_observability,
    check_sparse_observability,
    compute_delta_s,
    compute_o_bar,
    roll_forward,
    stack_window,
)
from .satcore import SearchBudgetError
from .theory import DEFAULT_EPSILON, Strategy

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INPUT = 3
EXIT_CAP = 4


def _read_json(path: str, what: str, parse):
    """``parse`` applied to the JSON object in file ``path``; every failure,
    the content's own included, is a ``ValueError`` that names the file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ValueError(f"{what} not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a {what} must be a JSON object")
    try:
        return parse(doc)
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_trace(path: str, p: int, m: int):
    """Read y*/u* columns from a CSV trace; returns (outputs, inputs) arrays."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ValueError(f"{path}: empty trace file")
            y_cols = [f"y{i + 1}" for i in range(p)]
            u_cols = [f"u{i + 1}" for i in range(m)]
            if m == 1 and "u1" not in reader.fieldnames and "u" in reader.fieldnames:
                u_cols = ["u"]
            missing = [c for c in y_cols + u_cols if c not in reader.fieldnames]
            if missing:
                raise ValueError(f"{path}: missing columns {', '.join(missing)}")
            outputs, inputs = [], []
            for lineno, row in enumerate(reader, start=2):
                try:
                    outputs.append([float(row[c]) for c in y_cols])
                    inputs.append([float(row[c]) for c in u_cols])
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{path}: bad number on line {lineno}") from exc
    except FileNotFoundError as exc:
        raise ValueError(f"trace file not found: {path}") from exc
    return np.array(outputs), np.array(inputs)


def _estimator_config(args) -> EstimatorConfig:
    return EstimatorConfig(
        strategy=args.strategy,
        epsilon=args.epsilon,
        max_iterations=args.max_iterations,
    )


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------


def cmd_observability(args) -> int:
    model = _read_json(args.model, "model file", SystemModel.from_json_dict)
    stack = build_observability(model)
    p = model.p
    out = sys.stdout
    out.write(f"n={model.n} m={model.m} p={p} tau={model.tau} s_bar={model.s_bar}\n")
    if model.s_bar >= math.ceil(p / 2):
        out.write(
            f"warning: s_bar={model.s_bar} >= p/2; the state cannot be uniquely "
            f"reconstructed if that many sensors are attacked\n"
        )
    out.write("kernel_dims=" + ",".join(str(int(k)) for k in stack.block_kernel_dims) + "\n")
    max_s = args.max_s if args.max_s is not None else min(2 * model.s_bar, p)
    for s in range(max_s + 1):
        ok = check_sparse_observability(model, s, stack=stack, subset_cap=args.subset_cap)
        out.write(f"sparse_observable s={s}: {'yes' if ok else 'no'}\n")
    min_card = max(p - model.s_bar, 1) if args.min_card is None else args.min_card
    o_bar = compute_o_bar(stack, min_card, subset_cap=args.subset_cap,
                          full_rank_only=args.full_rank_only)
    out.write(f"o_bar (|I| >= {min_card}) = {format_exact(o_bar)}\n")
    try:
        delta = compute_delta_s(stack, model.s_bar, subset_cap=args.subset_cap)
    except GramSingularError as exc:
        out.write(f"delta_s = undefined ({exc})\n")
        return EXIT_OK
    out.write(f"delta_s = {format_exact(delta)}\n")
    # the bounds need p > 2 s_bar, 2 s_bar-sparse observability and delta_s < 1;
    # rounding can put delta_s just below 1 where the exact check refutes the
    # model.  The check examines at most C(p, 2 s_bar) <= C(p, s_bar)
    # C(p - s_bar, s_bar) sets, within the cap that delta_s passed.
    two_s = 2 * model.s_bar
    if delta >= 1.0:
        out.write("detection_threshold_sq = inf (delta_s >= 1)\n")
    elif p <= two_s:
        out.write("detection_threshold_sq = inf (p <= 2 s_bar)\n")
    elif not check_sparse_observability(model, two_s, stack=stack, subset_cap=args.subset_cap):
        out.write(f"detection_threshold_sq = inf (not {two_s}-sparse observable)\n")
    else:
        bounds = delta_bound(model, RobustnessConstants(o_bar, delta), args.epsilon)
        out.write(f"detection_threshold_sq = {format_exact(bounds.detection_threshold_sq)}\n")
        out.write(f"detected_delta = {format_exact(bounds.detected_delta)}\n")
        out.write(f"undetected_bound = {format_exact(bounds.undetected_bound)}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate / oracle
# ---------------------------------------------------------------------------


def _load_window(args):
    """Model, observability stack, stacked last window of the trace, its inputs."""
    model = _read_json(args.model, "model file", SystemModel.from_json_dict)
    outputs, inputs = _read_trace(args.trace, model.p, model.m)
    if outputs.shape[0] < model.tau:
        raise ValueError(
            f"trace has {outputs.shape[0]} rows, need at least tau={model.tau}"
        )
    outputs, inputs = outputs[-model.tau :], inputs[-model.tau :]
    return model, build_observability(model), stack_window(model, outputs, inputs), inputs


def cmd_estimate(args) -> int:
    model, stack, window, inputs = _load_window(args)
    config = _estimator_config(args)
    if args.minimal_support:
        result = minimal_support_estimate(model, stack, window, config)
    else:
        result = estimate(model, stack, window, config)
    doc = result.to_json_dict()
    if result.feasible:
        # the window-start estimate plus the inputs applied inside the window
        # (the final row's input acts after the last sample)
        doc["x_current"] = list(roll_forward(model, result.x, inputs[:-1]))
    text = json.dumps(doc, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def cmd_oracle(args) -> int:
    model, stack, window, _ = _load_window(args)
    result = oracle.brute_force(model, stack, window, s_bar=args.s_bar, epsilon=args.epsilon)
    doc = {
        "supports": [list(s) for s in result.supports],
        "minimal": [list(s) for s in result.minimal],
        "unique_minimal": result.unique_minimal,
        "x_per_support": {
            ",".join(map(str, k)): list(v) for k, v in result.x_per_support.items()
        },
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _load_scenario(name: str) -> attacksim.AttackScenario:
    """The scenario in file ``name``, or else the bundled scenario of that name."""
    if name in attacksim.SCENARIOS and not os.path.exists(name):
        return attacksim.SCENARIOS[name]()
    return _read_json(name, "scenario", attacksim.AttackScenario.from_json_dict)


def cmd_simulate(args) -> int:
    scenario = _load_scenario(args.scenario)
    ugv = attacksim.discretize_ugv()
    config = _estimator_config(args)
    started = time.perf_counter()
    trace = attacksim.run_closed_loop(
        ugv, scenario, steps=args.steps, config=config, seed=args.seed
    )
    wall = time.perf_counter() - started
    trace.to_csv(args.output)
    infeasible = int(np.sum(trace.estimated & ~trace.feasible))
    sys.stdout.write(
        f"wrote {trace.steps} steps to {args.output} "
        f"({infeasible} infeasible estimation steps; "
        f"closed loop {wall:.3f} s, {trace.steps / wall:.0f} steps/s)\n"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def cmd_bench(args) -> int:
    # flags are checked before the spec is read: the error is the flag's
    if args.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {args.jobs}")
    if args.seed < 0:
        raise ValueError(f"seed must be non-negative, got {args.seed}")
    rows = _read_json(args.spec, "bench spec",
                      lambda doc: bench.run_bench(doc, jobs=args.jobs, seed_offset=args.seed))
    bench.write_bench_csv(rows, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_estimator_flags(parser):
    parser.add_argument("--strategy", choices=[s.value for s in Strategy],
                        default=Strategy.CONFLICT_AGREE.value)
    parser.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    parser.add_argument("--max-iterations", type=int, default=None, dest="max_iterations")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sse", description="Secure state estimation under sparse sensor attacks"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_obs = sub.add_parser("observability", help="model rank analysis and robustness constants")
    p_obs.add_argument("model")
    p_obs.add_argument("--max-s", type=int, default=None)
    p_obs.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p_obs.add_argument("--subset-cap", type=int, default=DEFAULT_SUBSET_CAP)
    p_obs.add_argument("--min-card", type=int, default=None, dest="min_card",
                       help="smallest subset size in the pseudo-inverse sweep "
                            "(default p - s_bar; 1 scans everything)")
    p_obs.add_argument("--full-rank-only", action="store_true",
                       help="restrict o_bar to full-rank sensor subsets")
    p_obs.set_defaults(func=cmd_observability)

    p_est = sub.add_parser("estimate", help="estimate state and attack support from a trace")
    p_est.add_argument("model")
    p_est.add_argument("trace")
    p_est.add_argument("--minimal-support", action="store_true")
    p_est.add_argument("--output", default=None)
    _add_estimator_flags(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_orc = sub.add_parser("oracle", help="brute-force all feasible attack supports")
    p_orc.add_argument("model")
    p_orc.add_argument("trace")
    p_orc.add_argument("--s-bar", type=int, default=None, dest="s_bar")
    p_orc.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p_orc.set_defaults(func=cmd_oracle)

    p_sim = sub.add_parser("simulate", help="closed-loop vehicle run under attack")
    p_sim.add_argument("scenario", help="scenario JSON path or bundled name (e.g. ugv_alternating)")
    p_sim.add_argument("--steps", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--output", default="trace.csv")
    _add_estimator_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("bench", help="iteration-count experiments to CSV")
    p_bench.add_argument("spec")
    p_bench.add_argument("--output", default=None)
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=0,
                         help="offset added to every sweep seed")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SubsetCapError, IterationLimitError, SearchBudgetError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
