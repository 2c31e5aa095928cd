"""The benchmark's per-layer tracer, and the runner that drives it, still fit
the library they wrap."""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sse
from perfbench.layers import Tracer
from sse.attacksim import discretize_ugv, generate_instance
from sse.satcore import CertificateKind
from sse.theory import Strategy


def test_tracer_counts_match_estimates(four_lines):
    model, stack, window = four_lines
    inst = generate_instance(3, 9, 3, 3, "2s", 0.0, seed=1)
    # four_lines searches without a decision; the generated instance makes
    # decisions at its budget and conflicts at one below it (infeasible)
    cases = [(model, stack, window)] + [
        (replace(inst.model, s_bar=s_bar), inst.stack, inst.window) for s_bar in (3, 2)
    ]
    tracer = Tracer()
    tracer.install()
    results, walks = [], []  # walks: the tracer's walk counts during each solve
    try:
        for m, st, w in cases:
            for strategy in Strategy:
                before = tracer.counts["conflict_certs"], tracer.counts["conflict_cert_sensors"]
                results.append(sse.estimate(m, st, w, sse.EstimatorConfig(strategy=strategy)))
                walks.append((tracer.counts["conflict_certs"] - before[0],
                              tracer.counts["conflict_cert_sensors"] - before[1]))
    finally:
        tracer.uninstall()
    iterations = sum(r.iterations for r in results)
    assert iterations > 0
    assert tracer.calls["theory.main_check"] == tracer.counts["estimator.iterations"] == iterations
    assert tracer.calls["satcore.solve"] == sum(r.stats.solve_calls for r in results)
    decisions = sum(r.stats.decisions for r in results)
    conflicts = sum(r.stats.conflicts for r in results)
    assert decisions > 0 and conflicts > 0
    assert tracer.counts["satcore.decisions"] == decisions
    assert tracer.counts["satcore.conflicts"] == conflicts
    # the theory.cert span sees every certificate `certificates` returns, the
    # agree certificates of the gate-open solve included
    assert any(r.strategy is Strategy.CONFLICT_AGREE for r in results)
    assert tracer.counts["certificates"] == sum(
        len(rec.certificates) for r in results for rec in r.records if not rec.sat)
    # and every conflict certificate the walk returns: in a solve that runs
    # as conflict or conflict_agree, it is the first certificate of each
    # rejected check; the conflicts a consistent seed fit adds after it come
    # from `certificates` alone, so the walk's span does not see them
    ran_walks = [(r, seen) for r, seen in zip(results, walks)
                 if r.strategy is not Strategy.TRIVIAL]
    assert any(r.strategy is Strategy.CONFLICT_AGREE for r, _ in ran_walks)
    walk_certs = [rec.certificates[0] for r, _ in ran_walks for rec in r.records
                  if not rec.sat]
    assert walk_certs
    assert all(c.kind is CertificateKind.AT_LEAST_ONE_ATTACKED for c in walk_certs)
    assert sum(seen[0] for _, seen in ran_walks) == len(walk_certs)
    assert sum(seen[1] for _, seen in ran_walks) == sum(len(c.sensors) for c in walk_certs)


def test_tracer_counts_agree_certificates_when_the_gate_is_open():
    # p = 9 > 3 * s_bar on exact data: the agree gate is open
    inst = generate_instance(3, 9, 2, 2, "3s", 0.0, seed=11, attack_norm={"lo": 3.0, "hi": 7.0})
    config = sse.EstimatorConfig(strategy=Strategy.CONFLICT_AGREE)
    tracer = Tracer()
    tracer.install()
    try:
        result = sse.estimate(inst.model, inst.stack, inst.window, config)
    finally:
        tracer.uninstall()
    assert result.strategy is Strategy.CONFLICT_AGREE
    agree = sum(c.kind is CertificateKind.ALL_UNATTACKED for c in result.certificates)
    assert agree > 0
    assert tracer.counts["theory.agree_certs"] == agree


def test_tracer_sees_the_walk_checks():
    # the two encoders disagree, so the check on all three sensors fails; the
    # walk has two candidates, and each trial pairs one with the seed, a
    # first prefix of two sensors (n // tau + 1 = 2) that the walk checks
    model = discretize_ugv().model
    window = sse.stack_window(model, np.array([[0.3, 1.0, 5.0], [0.4, 1.0, 5.0]]),
                              np.zeros((2, 1)))
    check = sse.t_check(model, window, (0, 1, 2), 1e-6)
    assert not check.sat
    tracer = Tracer()
    tracer.install()
    try:
        _, counts = sse.certificates(model, window, check, model.s_bar, 1e-6, Strategy.CONFLICT)
    finally:
        tracer.uninstall()
    assert tracer.calls["theory.cert_check"] == counts.theory_checks == 2


@pytest.mark.parametrize("workload", ["ugv_loop", "plant_stream"])
def test_benchmark_runner_smoke(workload):
    # one short traced run: every window passes the runner's own checks, and
    # the traced pass counts what the untraced pass did
    root = Path(__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0.2",
         "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=300, check=False)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0
