"""The benchmark's per-layer tracer still fits the library it wraps."""

from dataclasses import replace

import sse
from perfbench.layers import Tracer
from sse.attacksim import generate_instance
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
    try:
        results = [
            sse.estimate(m, st, w, sse.EstimatorConfig(strategy=strategy))
            for m, st, w in cases
            for strategy in Strategy
        ]
    finally:
        tracer.uninstall()
    iterations = sum(r.iterations for r in results)
    assert iterations > 0
    assert tracer.calls["theory.main_check"] == tracer.counts["estimator.iterations"] == iterations
    assert tracer.calls["satcore.solve"] == sum(r.sat.solve_calls for r in results)
    decisions = sum(r.sat.decisions for r in results)
    conflicts = sum(r.sat.conflicts for r in results)
    assert decisions > 0 and conflicts > 0
    assert tracer.counts["satcore.decisions"] == decisions
    assert tracer.counts["satcore.conflicts"] == conflicts


def test_tracer_counts_agree_certificates_when_the_gate_is_open():
    # p = 9 > 3 * s_bar on exact data: the agree gate is open
    inst = generate_instance(3, 9, 2, 2, "3s", 0.0, seed=11, attack_norm=(3.0, 7.0))
    config = sse.EstimatorConfig(strategy=Strategy.CONFLICT_AGREE)
    tracer = Tracer()
    tracer.install()
    try:
        result = sse.estimate(inst.model, inst.stack, inst.window, config)
    finally:
        tracer.uninstall()
    assert result.agree_active
    agree = sum(c.kind is CertificateKind.ALL_UNATTACKED for c in result.certificates)
    assert agree > 0
    assert tracer.counts["theory.agree_certs"] == agree
