"""One SHA-256 over every output of the benchmark's seed-0 workloads.

    python3 tools/fingerprint.py

Run it from the repository root.  It sets up ``desk_sweep`` (1 round),
``ugv_loop`` (75 rounds) and ``plant_stream`` (5 rounds) from
``perfbench.workloads`` with seed 0, runs their rounds untimed, and hashes
every estimate in call order: ``feasible``, ``support``, ``iterations``, the
certificates (kind, sorted sensors, suspect), the ``stats`` counts (all but
``solve_time``) and the bytes of ``x``; a capped solve contributes its
iteration count and its counts.  A change meant to leave every output alone
must print the same digest as its parent.  The combined digest comes first,
with the estimates hashed per workload; then one line per workload gives the
digest of that workload's estimates alone, so a changed combined digest
names the workload that moved, then its answers digest, over ``feasible``,
``support``, ``iterations`` and the bytes of ``x`` alone (a capped solve's
iteration count), so a change that moves only certificates or counts can
show that its answers held, and last the workload's total ``iterations``
and ``stats.theory_checks`` over the same estimates (capped solves
included), so a change that moves them can report by how much.  A last line
per workload gives its iteration tail: how many of those estimates took more
than 2 iterations, and the most any took.

The next line is the analysis digest, over the model analysis of the seed-0
set-ups: the answer of each 3 s_bar-sparse observability check that the
``plant_stream`` plant draws make, the bytes of each plant's ``o_bar`` and
``delta_s``, and the bytes of the vehicle's ``ugv_guarantees`` constants.  A
change to ``linmodel``'s analysis that keeps its answers prints the same one.

Last comes one trace digest per workload, over every iteration record of
its estimates (the ``trace`` that ``sse estimate`` prints): the record's
``support``, ``sat`` and the bytes of ``residual_sq``.  It moves when a
check's verdict or residual does, a rejected check's included, even where
the estimates' answers and certificates hold.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import astuple, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

import sse  # noqa: E402
import sse.attacksim  # noqa: E402
from perfbench.workloads import WORKLOADS, PlantStream, UgvLoop  # noqa: E402

ROUNDS = {"desk_sweep": 1, "ugv_loop": 75, "plant_stream": 5}
SEED = 0


class _Untimed:
    """The part of ``timing.Meter`` a workload calls, doing nothing."""

    def start(self): pass
    def stop(self): pass
    def record(self, latency): pass
    def boundary(self): pass
    def finish(self): pass


def _counts(stats) -> tuple:
    return astuple(replace(stats, solve_time=0.0))


def _digest_estimate(hashes, answers, out) -> None:
    """Feed one estimate, or a capped solve's error, to every hash in
    ``hashes``, and its answers alone to ``answers``."""
    if isinstance(out, sse.IterationLimitError):
        data = repr(("capped", out.iterations, _counts(out.stats))).encode()
        answer = repr(("capped", out.iterations)).encode()
    else:
        certs = [(c.kind.value, sorted(c.sensors), c.suspect) for c in out.certificates]
        data = repr((out.feasible, out.support, out.iterations, certs,
                     _counts(out.stats))).encode()
        answer = repr((out.feasible, out.support, out.iterations)).encode()
        if out.x is not None:
            x = np.ascontiguousarray(out.x, dtype=float).tobytes()
            data += x
            answer += x
    for h in hashes:
        h.update(data)
    answers.update(answer)


def fingerprint() -> tuple:
    """(combined digest, digest per workload, answers digest per workload,
    trace digest per workload, estimates hashed per workload, [total
    iterations, total theory checks, estimates over 2 iterations, most
    iterations] per workload)."""
    h = hashlib.sha256()
    per_workload = {name: hashlib.sha256() for name in ROUNDS}
    answers = {name: hashlib.sha256() for name in ROUNDS}
    traces = {name: hashlib.sha256() for name in ROUNDS}
    hashed = dict.fromkeys(ROUNDS, 0)
    totals = {name: [0, 0, 0, 0] for name in ROUNDS}
    real = sse.estimate

    def record(out):
        _digest_estimate((h, per_workload[name]), answers[name], out)
        for r in getattr(out, "records", ()):
            traces[name].update(repr((r.support, r.sat)).encode()
                                + np.float64(r.residual_sq).tobytes())
        totals[name][0] += out.iterations
        totals[name][1] += out.stats.theory_checks
        totals[name][2] += out.iterations > 2
        totals[name][3] = max(totals[name][3], out.iterations)

    def recording(*args, **kwargs):
        hashed[name] += 1
        try:
            out = real(*args, **kwargs)
        except sse.IterationLimitError as exc:
            record(exc)
            raise
        record(out)
        return out

    sse.estimate = sse.attacksim.estimate = recording
    try:
        for name, rounds in ROUNDS.items():
            workload, meter = WORKLOADS[name](), _Untimed()
            state = workload.setup(SEED, meter)
            with workload.session(state, meter):
                for r in range(rounds):
                    workload.run_round(state, r, meter)
    finally:
        sse.estimate = sse.attacksim.estimate = real
    return (h.hexdigest(), {k: v.hexdigest() for k, v in per_workload.items()},
            {k: v.hexdigest() for k, v in answers.items()},
            {k: v.hexdigest() for k, v in traces.items()}, hashed, totals)


def analysis_digest() -> str:
    """SHA-256 over the seed-0 model analysis (see the module docstring)."""
    h = hashlib.sha256()
    real = sse.check_sparse_observability

    def recording(*args, **kwargs):
        holds = real(*args, **kwargs)
        h.update(repr(holds).encode())
        return holds

    sse.check_sparse_observability = recording
    try:
        plants = PlantStream().setup(SEED, _Untimed())
    finally:
        sse.check_sparse_observability = real
    constants, _ = sse.attacksim.ugv_guarantees(sse.attacksim.discretize_ugv(),
                                                UgvLoop.config.epsilon)
    for o_bar, delta_s in [(pl.o_bar, pl.delta_s) for pl in plants] + [astuple(constants)]:
        h.update(np.array([o_bar, delta_s], dtype=float).tobytes())
    return h.hexdigest()


if __name__ == "__main__":
    digest, per_workload, answers, traces, hashed, totals = fingerprint()
    if not all(hashed.values()):
        raise SystemExit(f"fingerprint: a workload made no estimate: {hashed}")
    print(digest, " ".join(f"{k}={v}" for k, v in hashed.items()))
    for name, workload_digest in per_workload.items():
        iterations, theory_checks, _, _ = totals[name]
        print(name, workload_digest, f"answers={answers[name]}", f"iterations={iterations}",
              f"theory_checks={theory_checks}")
    for name, (_, _, over_two, most) in totals.items():
        print(name, f"over_2_iterations={over_two}", f"max_iterations={most}")
    print("analysis", analysis_digest())
    for name, trace in traces.items():
        print(name, f"trace={trace}")
