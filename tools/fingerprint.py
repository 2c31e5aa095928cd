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
``delta_s``, the bytes of the vehicle's ``ugv_guarantees`` constants, and
the bytes of ``delta_s`` at s_bar = 3 on the stack of
``generate_instance(4, 14, 1, 3, "3s", seed=3)``, where ``compute_delta_s``'s
trace bound skips most pairs.  A change to ``linmodel``'s analysis that keeps
its answers prints the same one.

Then comes one trace digest per workload, over every iteration record of
its estimates (the ``trace`` that ``sse estimate`` prints): the record's
``support``, ``sat`` and the bytes of ``residual_sq``.  It moves when a
check's verdict or residual does, a rejected check's included, even where
the estimates' answers and certificates hold.

The closed-loop line follows: a digest over the ``Trace`` of each seed-0
``ugv_loop`` round, in round order, hashing the bytes of its ``x_true``,
``x_est``, ``y``, ``attack``, ``b``, ``u``, ``feasible``, ``estimated`` and
``degenerate`` arrays, and the number of rounds.  It moves when the closed
loop's random draws, attacks, plant or controller do, even where no estimate
moves.

The next line is the minimal-support digest, which no workload covers: it
runs ``minimal_support_estimate`` with the default configuration on the
exact desk instances ``generate_instance(25, 60, s, 20, "2s", 0.0,
seed=9000 + 97 * s + k)`` for s in {3, 4} and k = 0-3, and hashes each
search's ``support``, ``iterations``, ``stats`` counts (all but
``solve_time``) and the bytes of ``x``, followed by the searches' total
iterations.

The generator line comes last: a digest over the instances of the seed-0
``desk_sweep`` set-up, in set-up order, hashing the bytes of each one's
``A``, ``B``, ``C``, ``x_true`` and ``outputs`` and its ``attacked``
sensors, then their count.  It moves whenever ``generate_instance``'s random
stream does.
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
MINIMAL_SEARCHES = [(s, 9000 + 97 * s + k) for s in (3, 4) for k in range(4)]
TRACE_ARRAYS = ("x_true", "x_est", "y", "attack", "b", "u", "feasible", "estimated",
                "degenerate")


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
    iterations] per workload, closed-loop digest)."""
    h = hashlib.sha256()
    per_workload = {name: hashlib.sha256() for name in ROUNDS}
    answers = {name: hashlib.sha256() for name in ROUNDS}
    traces = {name: hashlib.sha256() for name in ROUNDS}
    hashed = dict.fromkeys(ROUNDS, 0)
    totals = {name: [0, 0, 0, 0] for name in ROUNDS}
    closed_loop = hashlib.sha256()
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
                    outputs = workload.run_round(state, r, meter)
                    if name == "ugv_loop":
                        for array in TRACE_ARRAYS:
                            closed_loop.update(getattr(outputs[0], array).tobytes())
    finally:
        sse.estimate = sse.attacksim.estimate = real
    return (h.hexdigest(), {k: v.hexdigest() for k, v in per_workload.items()},
            {k: v.hexdigest() for k, v in answers.items()},
            {k: v.hexdigest() for k, v in traces.items()}, hashed, totals,
            closed_loop.hexdigest())


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
    wide = sse.attacksim.generate_instance(4, 14, 1, 3, "3s", seed=3).stack
    h.update(np.float64(sse.compute_delta_s(wide, 3)).tobytes())
    return h.hexdigest()


def minimal_digest() -> tuple:
    """(SHA-256 over the minimal-support searches, their total iterations);
    see the module docstring."""
    h, iterations = hashlib.sha256(), 0
    for s, seed in MINIMAL_SEARCHES:
        inst = sse.attacksim.generate_instance(25, 60, s, 20, "2s", 0.0, seed=seed)
        out = sse.minimal_support_estimate(inst.model, inst.stack, inst.window)
        h.update(repr((out.support, out.iterations, _counts(out.stats))).encode()
                 + np.ascontiguousarray(out.x, dtype=float).tobytes())
        iterations += out.iterations
    return h.hexdigest(), iterations


def generator_digest() -> tuple:
    """(SHA-256 over the seed-0 ``desk_sweep`` instances, their count); see
    the module docstring."""
    h = hashlib.sha256()
    cases = WORKLOADS["desk_sweep"]().setup(SEED, _Untimed())
    for case in cases:
        inst = case.instance
        for a in (inst.model.A, inst.model.B, inst.model.C, inst.x_true, inst.outputs):
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
        h.update(repr(inst.attacked).encode())
    return h.hexdigest(), len(cases)


if __name__ == "__main__":
    digest, per_workload, answers, traces, hashed, totals, closed_loop = fingerprint()
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
    print("closed_loop", closed_loop, f"rounds={ROUNDS['ugv_loop']}")
    minimal, iterations = minimal_digest()
    print("minimal", minimal, f"searches={len(MINIMAL_SEARCHES)}", f"iterations={iterations}")
    generator, instances = generator_digest()
    print("generator", generator, f"instances={instances}")
