"""Run one benchmark workload and print its result as the last line of output.

    python3 perfbench/run.py --workload desk_sweep --seed 0 --seconds 15 --trace 0

Run it from the repository root; it imports sse from ``src/`` there and
nowhere else.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` a
traced pass's per-layer metrics.  ``--seconds`` sizes the fixed work: the
number of rounds is ``seconds`` over the workload's nominal round time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_sse() -> None:
    """Put this checkout's ``src`` and root first on the path.  Everything
    that loads numpy, sse or the other perfbench modules is imported after
    this, in the functions below."""
    src = ROOT / "src"
    if not (src / "sse" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sse package in {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT))
    import sse

    if Path(sse.__file__).resolve().parent != (src / "sse").resolve():
        raise SystemExit(f"perfbench: imported sse from {sse.__file__}, not from {src}")


def _pass(workload, state, rounds: int, meter, before_round=None):
    """Run and check ``rounds`` rounds; one RoundResult per round.
    ``before_round(r)`` runs before round r, outside the timed phase."""
    results = []
    with workload.session(state, meter):
        for r in range(rounds):
            if before_round is not None:
                before_round(r)
            outputs = workload.run_round(state, r, meter)
            results.append(workload.check_round(state, r, outputs))
    meter.finish()
    return results


def _summary(results) -> tuple:
    return (sum(r.windows for r in results), sum(r.failed for r in results),
            all(r.ok for r in results))


def run_plain(workload, seed: int, seconds: float) -> dict:
    """Set up ``setup_reps`` times, the first before the timed phase and the
    rest spread between rounds, so that the median set-up time samples the
    machine over the whole run; then run the rounds."""
    from perfbench.timing import Meter, quantile

    setups, prints = [], set()

    def set_up():
        setup_meter = Meter()
        built = workload.setup(seed, setup_meter)
        setup_meter.finish()
        setups.append((setup_meter.seconds, setup_meter.raw_seconds))
        prints.add(workload.fingerprint(built))
        return built

    rounds = workload.rounds(seconds)
    reps = workload.setup_reps
    later = [k * rounds // reps for k in range(1, reps)]
    state = set_up()
    meter = Meter(workload.chunk_s)
    results = _pass(workload, state, rounds, meter,
                    before_round=lambda r: [set_up() for _ in range(later.count(r))])
    setup_s = statistics.median(t for t, _ in setups)
    setup_raw = statistics.median(t for _, t in setups)
    windows, failed, rounds_ok = _summary(results)
    latencies = meter.latencies()
    metrics = {
        "windows_per_s": (windows / meter.seconds, "1/s"),
        "window_p50_ms": (1000.0 * quantile(latencies, 0.5), "ms"),
        "window_p90_ms": (1000.0 * quantile(latencies, 0.9), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = meter.raw_latencies()
    diagnostics = {
        "rounds": len(results), "iterations": sum(r.iterations for r in results),
        "speed": meter.speed, "raw_windows_per_s": windows / meter.raw_seconds,
        "raw_window_p50_ms": 1000.0 * quantile(raw, 0.5),
        "raw_window_p90_ms": 1000.0 * quantile(raw, 0.9), "raw_setup_s": setup_raw,
    }
    print(json.dumps({workload.name: diagnostics}), file=sys.stderr)
    return {
        "correct": len(prints) == 1 and rounds_ok and workload.run_ok(),
        "attempted": windows,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_traced(workload, seed: int, seconds: float) -> dict:
    """An untraced pass, then the same set-up and rounds traced; the counts of
    the two passes must agree."""
    from perfbench.layers import Tracer
    from perfbench.timing import Meter

    rounds = workload.rounds(seconds)
    state = workload.setup(seed, Meter())
    plain_meter = Meter(workload.chunk_s)
    plain = _pass(workload, state, rounds, plain_meter)

    tracer = Tracer()
    tracer.install()
    try:
        setup_meter = Meter()
        traced_state = workload.setup(seed, setup_meter)
        setup_meter.finish()
        traced_meter = Meter(workload.chunk_s)
        traced = _pass(workload, traced_state, rounds, traced_meter)
    finally:
        tracer.uninstall()

    def counts(results):
        return [(r.windows, r.iterations, r.failed) for r in results]

    windows, failed, plain_ok = _summary(plain)
    t_windows, t_failed, traced_ok = _summary(traced)
    correct = (plain_ok and traced_ok and workload.run_ok()
               and counts(plain) == counts(traced)
               and tracer.counts["windows"] == windows
               and tracer.counts["estimator.iterations"] == sum(r.iterations for r in plain)
               and workload.fingerprint(state) == workload.fingerprint(traced_state))
    overhead = 100.0 * (traced_meter.seconds / plain_meter.seconds - 1.0)
    work_raw = setup_meter.raw_seconds + traced_meter.raw_seconds
    scale = (setup_meter.seconds + traced_meter.seconds) / work_raw
    metrics = tracer.metrics(work_raw, scale, overhead)
    print(json.dumps({workload.name: {
        "rounds": rounds, "windows": windows, "iterations": tracer.counts["estimator.iterations"],
        "plain_s": plain_meter.seconds, "traced_s": traced_meter.seconds}}), file=sys.stderr)
    return {"correct": correct, "attempted": windows + t_windows,
            "failed": failed + t_failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # One process per workload, BLAS on one thread: set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _import_sse()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    run = run_traced if args.trace else run_plain
    print(json.dumps(run(workload, args.seed, args.seconds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
