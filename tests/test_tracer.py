"""The benchmark's per-layer tracer still fits the library it wraps."""

import sse
from perfbench.layers import Tracer
from sse.theory import Strategy


def test_tracer_counts_match_estimates(four_lines):
    model, stack, window = four_lines
    tracer = Tracer()
    tracer.install()
    try:
        iterations = sum(
            sse.estimate(model, stack, window, sse.EstimatorConfig(strategy=strategy)).iterations
            for strategy in Strategy
        )
    finally:
        tracer.uninstall()
    assert iterations > 0
    assert tracer.calls["theory.main_check"] == tracer.counts["estimator.iterations"] == iterations
