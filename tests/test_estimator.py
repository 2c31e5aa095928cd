import math
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sse import (
    RobustnessConstants,
    SubsetCapError,
    SystemModel,
    build_observability,
    check_sparse_observability,
    linmodel,
)
from sse.attacksim import generate_instance
from sse.estimator import (
    EstimatorConfig,
    IterationLimitError,
    delta_bound,
    estimate,
    minimal_support_estimate,
)
from sse.oracle import brute_force
from sse.theory import CertificateKind, Strategy

from conftest import four_lines, line_model, line_window


def cfg(strategy=Strategy.CONFLICT, epsilon=1e-9, **kw):
    return EstimatorConfig(strategy=strategy, epsilon=epsilon, **kw)


# ---------------------------------------------------------------------------
# core loop
# ---------------------------------------------------------------------------


def test_attack_free_instance_accepted_first_try():
    inst = generate_instance(3, 6, 0, 2, "2s", 0.0, seed=0)
    result = estimate(inst.model, inst.stack, inst.window, cfg(epsilon=1e-6))
    assert result.feasible
    assert result.iterations == 1
    assert result.support == ()
    assert np.linalg.norm(result.x - inst.x_true) <= 1e-6 * (1 + np.linalg.norm(inst.x_true))


def test_four_lines_all_strategies_find_the_attacked_line(four_lines):
    model, stack, window = four_lines
    expectations = {
        Strategy.TRIVIAL: 4,
        Strategy.CONFLICT: 2,
        Strategy.CONFLICT_AGREE: 2,
    }
    for strategy, expected_iters in expectations.items():
        result = estimate(model, stack, window, cfg(strategy))
        assert result.feasible
        assert result.support == (2,)
        assert np.allclose(result.x, [2.0, 6.0], atol=1e-9)
        assert result.iterations == expected_iters
        assert result.conflict_fallbacks == 0


def test_four_lines_iterations_within_bounds(four_lines):
    model, stack, window = four_lines
    trivial = estimate(model, stack, window, cfg(Strategy.TRIVIAL))
    conflict = estimate(model, stack, window, cfg(Strategy.CONFLICT))
    assert trivial.iterations <= sum(math.comb(4, s) for s in range(2))  # 5
    assert conflict.iterations <= math.comb(4, 4 - 2 * 1 + 1)  # 4


def test_supports_never_repeat_across_iterations(four_lines):
    model, stack, window = four_lines
    result = estimate(model, stack, window, cfg(Strategy.TRIVIAL))
    supports = [r.support for r in result.records]
    assert len(supports) == len(set(supports))


def test_infeasible_when_attacks_exceed_budget():
    model = line_model([[1.0, 1.0], [-1.0, 1.0], [0.0, 1.0], [-2.0, 1.0]], s_bar=1)
    stack = build_observability(model)
    # two lines pulled off the common point: no single-sensor excuse exists
    window = line_window(model, [8.0 + 3.0, 4.0, 8.0 + 2.0, 2.0])
    result = estimate(model, stack, window, cfg())
    assert not result.feasible
    assert result.x is None and result.support == ()
    assert result.iterations >= 1


def test_iteration_cap_raises(four_lines):
    model, stack, window = four_lines
    with pytest.raises(IterationLimitError):
        estimate(model, stack, window, cfg(Strategy.TRIVIAL, max_iterations=1))


# (generator seed, s) of the desk-scale instances in criterion 4's conflict
# grid that stalled at the 1000-iteration cap while the walk was seeded from
# the failed fit
FORMERLY_CAPPED = [(10746, 18), (10843, 19), (10940, 20), (10844, 19), (10166, 12),
                   (10943, 20), (10847, 19)]


@pytest.mark.parametrize("seed, s", FORMERLY_CAPPED)
def test_aimed_conflict_walk_solves_formerly_capped_desk_instances(seed, s):
    inst = generate_instance(25, 60, s, 20, "2s", 0.0, seed=seed)
    result = estimate(inst.model, inst.stack, inst.window,
                      cfg(Strategy.CONFLICT, epsilon=1e-6, max_iterations=1000))
    assert result.feasible
    assert set(inst.attacked) <= set(result.support)
    assert result.iterations <= 100


def test_default_iteration_cap_formula():
    config = EstimatorConfig()
    assert config.iteration_cap(10, 2) == 10 * math.comb(10, 7)
    assert config.iteration_cap(60, 20) == 10**7


def test_agree_gate_downgrades_without_verification(four_lines):
    model, stack, window = four_lines  # not 3-sparse observable (single lines in R^2)
    result = estimate(model, stack, window, cfg(Strategy.CONFLICT_AGREE))
    assert result.agree_downgraded and not result.agree_active
    assert all(c.kind is CertificateKind.AT_LEAST_ONE_ATTACKED for c in result.certificates)


def test_agree_gate_allows_generated_3s_model():
    inst = generate_instance(3, 8, 1, 2, "3s", 0.0, seed=5, attack_norm=4.0)
    result = estimate(inst.model, inst.stack, inst.window, cfg(Strategy.CONFLICT_AGREE, 1e-6))
    assert result.agree_active and not result.agree_downgraded


def test_agree_gate_ignores_sampled_audit():
    # C(40, 30) is too many subsets to enumerate: the generator only samples
    # the 3s level, and the gate's exact check refuses at the subset cap
    inst = generate_instance(3, 40, 2, 10, "3s", 0.0, seed=1)
    result = estimate(inst.model, inst.stack, inst.window, cfg(Strategy.CONFLICT_AGREE))
    assert result.agree_downgraded and not result.agree_active
    assert result.feasible
    assert set(inst.attacked) <= set(result.support)


def _count_rank_calls(monkeypatch):
    calls = []
    real = linmodel.numerical_rank
    monkeypatch.setattr(linmodel, "numerical_rank", lambda m: calls.append(1) or real(m))
    return calls


def test_agree_gate_checked_once_per_stack(monkeypatch):
    inst = generate_instance(3, 8, 1, 2, "3s", 0.0, seed=5, attack_norm=4.0)
    model = inst.model
    stack = build_observability(model)
    calls = _count_rank_calls(monkeypatch)
    first = estimate(model, stack, inst.window, cfg(Strategy.CONFLICT_AGREE, 1e-6))
    assert calls
    calls.clear()
    again = estimate(model, stack, inst.window, cfg(Strategy.CONFLICT_AGREE, 1e-6))
    assert not calls
    assert first.agree_active == again.agree_active == check_sparse_observability(model, 6)
    assert again.agree_active and not again.agree_downgraded
    assert again.iterations == first.iterations and again.support == first.support
    # the generator's exact level check already sits on the stack it returns
    calls.clear()
    estimate(model, inst.stack, inst.window, cfg(Strategy.CONFLICT_AGREE, 1e-6))
    assert not calls


def test_agree_gate_remembers_a_failed_check(monkeypatch, four_lines):
    model, stack, window = four_lines  # not 3-sparse observable
    calls = _count_rank_calls(monkeypatch)
    estimate(model, stack, window, cfg(Strategy.CONFLICT_AGREE))
    assert calls
    calls.clear()
    again = estimate(model, stack, window, cfg(Strategy.CONFLICT_AGREE))
    assert not calls
    assert again.agree_downgraded and not again.agree_active
    assert not check_sparse_observability(model, 3)


def test_remembered_check_still_honours_subset_cap(four_lines):
    model, stack, _ = four_lines
    assert not check_sparse_observability(model, 3, stack=stack)
    with pytest.raises(SubsetCapError):
        check_sparse_observability(model, 3, stack=stack, subset_cap=3)


def test_agree_gate_arithmetic_blocks_p_equal_3s():
    inst = generate_instance(2, 6, 1, 2, "2s", 0.0, seed=6, attack_norm=4.0)
    result = estimate(inst.model, inst.stack, inst.window, cfg(Strategy.CONFLICT_AGREE, 1e-6))
    # p = 6 = 3 * s_bar: the gate requires strictly more sensors
    assert result.agree_downgraded


def test_agree_certificates_fire_and_pin_sensors():
    inst = generate_instance(3, 9, 2, 2, "3s", 0.0, seed=11, attack_norm=(3.0, 7.0))
    result = estimate(inst.model, inst.stack, inst.window, cfg(Strategy.CONFLICT_AGREE, 1e-6))
    assert result.feasible
    agree = [c for c in result.certificates if c.kind is CertificateKind.ALL_UNATTACKED]
    assert agree
    for c in agree:
        assert not (c.sensors & set(inst.attacked))


def test_noiseless_runs_never_fall_back():
    for seed in range(10):
        inst = generate_instance(3, 7, 2, 2, "2s", 0.0, seed=seed)
        result = estimate(inst.model, inst.stack, inst.window, cfg(epsilon=1e-6))
        assert result.feasible
        assert result.conflict_fallbacks == 0


def test_estimate_to_json_dict(four_lines):
    model, stack, window = four_lines
    result = estimate(model, stack, window, cfg())
    doc = result.to_json_dict()
    assert doc["status"] == "feasible"
    assert doc["support"] == [2]
    assert doc["iterations"] == result.iterations
    assert len(doc["trace"]) == result.iterations
    assert doc["sat"] == asdict(result.sat)
    assert doc["sat"]["solve_calls"] == result.iterations


# ---------------------------------------------------------------------------
# minimal support
# ---------------------------------------------------------------------------


def test_minimal_support_attack_free():
    inst = generate_instance(3, 6, 0, 2, "2s", 0.0, seed=1)
    result = minimal_support_estimate(inst.model, inst.stack, inst.window, cfg(epsilon=1e-6))
    assert result.feasible and result.support == ()
    assert result.budget == 0


def test_minimal_support_single_attack_under_large_budget():
    inst = generate_instance(3, 8, 1, 3, "2s", 0.0, seed=2, attack_norm=5.0)
    result = minimal_support_estimate(inst.model, inst.stack, inst.window, cfg(epsilon=1e-6))
    oracle = brute_force(inst.model, inst.stack, inst.window, epsilon=1e-6)
    assert result.support == oracle.minimal[0] == inst.attacked


def test_minimal_support_two_colluding_attacks():
    inst = generate_instance(3, 9, 2, 3, "2s", 0.0, seed=3, attack_norm=(2.0, 6.0))
    result = minimal_support_estimate(inst.model, inst.stack, inst.window, cfg(epsilon=1e-6))
    oracle = brute_force(inst.model, inst.stack, inst.window, epsilon=1e-6)
    assert len(result.support) == 2
    assert result.support == oracle.minimal[0] == inst.attacked
    assert np.allclose(result.x, oracle.x_per_support[oracle.minimal[0]], atol=1e-9)


def test_minimal_support_infeasible_at_budget_propagates():
    model = line_model([[1.0, 1.0], [-1.0, 1.0], [0.0, 1.0], [-2.0, 1.0]], s_bar=1)
    stack = build_observability(model)
    window = line_window(model, [11.0, 4.0, 10.0, 2.0])
    result = minimal_support_estimate(model, stack, window, cfg())
    assert not result.feasible


def test_minimal_support_sums_counts_over_budgets():
    inst = generate_instance(3, 9, 3, 3, "2s", 0.0, seed=1)
    config = cfg(Strategy.TRIVIAL, epsilon=1e-6)
    result = minimal_support_estimate(inst.model, inst.stack, inst.window, config)
    # budget 3 is feasible with a 3-sensor support, budget 2 is not
    per_budget = [
        estimate(replace(inst.model, s_bar=b), inst.stack, inst.window, config) for b in (3, 2)
    ]
    assert [r.feasible for r in per_budget] == [True, False]
    assert result.support == per_budget[0].support and len(result.support) == 3
    assert result.iterations == sum(r.iterations for r in per_budget)
    assert result.sat == per_budget[0].sat + per_budget[1].sat
    assert result.sat.decisions > per_budget[0].sat.decisions > 0


# ---------------------------------------------------------------------------
# guarantee bounds
# ---------------------------------------------------------------------------


def toy_model(psi_sq):
    p = 3
    return SystemModel(A=np.eye(1), B=np.zeros((1, 1)), C=np.ones((p, 1)), tau=1,
                       s_bar=1, noise_bounds=np.full(p, math.sqrt(psi_sq / p)))


def test_delta_bound_toy_numbers():
    # o_bar = 1/2, delta_s = 1/2, |Psi|^2 = 0.2, eps = 0.01
    bounds = delta_bound(toy_model(0.2), RobustnessConstants(0.5, 0.5), 0.01)
    assert bounds.detection_threshold_sq == pytest.approx(0.82, abs=1e-12)
    assert bounds.detected_delta == pytest.approx(0.1, abs=1e-12)
    assert bounds.undetected_bound == pytest.approx(1.02, abs=1e-12)


def test_delta_bound_noiseless_is_zero():
    bounds = delta_bound(toy_model(0.0), RobustnessConstants(0.5, 0.5), 0.0)
    assert bounds.detected_delta == 0.0
    assert bounds.detection_threshold_sq == 0.0
    assert bounds.undetected_bound == 0.0


def test_delta_bound_linear_in_noise_power():
    one = delta_bound(toy_model(0.2), RobustnessConstants(0.5, 0.5), 0.0)
    two = delta_bound(toy_model(0.4), RobustnessConstants(0.5, 0.5), 0.0)
    assert two.detected_delta == pytest.approx(2 * one.detected_delta, rel=1e-12)


def test_delta_bound_rejects_degenerate_leakage():
    with pytest.raises(ValueError, match="delta_s"):
        delta_bound(toy_model(0.1), RobustnessConstants(0.5, 1.0), 0.0)


# ---------------------------------------------------------------------------
# noiseless delta-completeness (randomized, small scale)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", [Strategy.TRIVIAL, Strategy.CONFLICT,
                                      Strategy.CONFLICT_AGREE])
def test_noiseless_completeness_small_instances(strategy):
    rng = np.random.default_rng(13)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(5, 9))
        s_bar = 1 if p <= 6 else int(rng.integers(1, 3))
        s = int(rng.integers(0, s_bar + 1))
        inst = generate_instance(n, p, s, s_bar, "2s", 0.0,
                                 seed=int(rng.integers(0, 10**6)))
        result = estimate(inst.model, inst.stack, inst.window,
                          cfg(strategy, epsilon=1e-6))
        assert result.feasible
        assert set(inst.attacked) <= set(result.support)
        rel = np.linalg.norm(result.x - inst.x_true) / (1 + np.linalg.norm(inst.x_true))
        assert rel <= 1e-6
        assert result.iterations <= sum(math.comb(p, k) for k in range(s_bar + 1))


def test_agree_certificate_termination_bound():
    # once a clean-set certificate fires, the remaining search is confined to
    # the other 2*s_bar sensors
    for seed in (11, 17, 23, 31):
        inst = generate_instance(3, 9, 2, 2, "3s", 0.0, seed=seed,
                                 attack_norm=(3.0, 7.0))
        result = estimate(inst.model, inst.stack, inst.window,
                          cfg(Strategy.CONFLICT_AGREE, 1e-6))
        assert result.feasible
        fired = [k for k, rec in enumerate(result.records)
                 if any(c.kind is CertificateKind.ALL_UNATTACKED for c in rec.certificates)]
        if fired:
            remaining = result.iterations - (fired[0] + 1)
            s_bar = inst.model.s_bar
            bound = sum(math.comb(2 * s_bar, k) for k in range(s_bar + 1))
            assert remaining <= bound


def test_conflict_agree_iterations_with_the_gate_open():
    # criterion 4's per-point comparison where the agree gate is open: at its
    # p = 3 * s_bar the gate always downgrades, so conflict_agree repeats
    # conflict there; here p = 14 > 3 * s_bar = 9 on exact "3s" instances
    per_point = {}
    agree_certs = 0
    for s in (1, 2, 3):
        for trial in range(10):
            inst = generate_instance(4, 14, s, 3, "3s", 0.0, seed=7000 + 97 * s + trial)
            for strategy in (Strategy.CONFLICT, Strategy.CONFLICT_AGREE):
                result = estimate(inst.model, inst.stack, inst.window, cfg(strategy, 1e-6))
                assert result.feasible
                assert set(inst.attacked) <= set(result.support)
                if strategy is Strategy.CONFLICT_AGREE:
                    assert result.agree_active
                    agree_certs += sum(c.kind is CertificateKind.ALL_UNATTACKED
                                       for c in result.certificates)
                per_point.setdefault((strategy, s), []).append(result.iterations)
    assert agree_certs > 0
    for s in (1, 2, 3):
        agree = np.mean(per_point[Strategy.CONFLICT_AGREE, s])
        assert agree <= np.mean(per_point[Strategy.CONFLICT, s]) + 1e-9


# ---------------------------------------------------------------------------
# differential: every strategy against the brute-force oracle
# ---------------------------------------------------------------------------


@st.composite
def small_instances(draw):
    """(n, p, s, s_bar, level, seed) accepted by ``generate_instance``."""
    level = draw(st.sampled_from(["2s", "3s"]))
    s_bar = draw(st.integers(1, 2))
    p = draw(st.integers((2 if level == "2s" else 3) * s_bar + 1, 8))
    n = draw(st.integers(2, 4))
    s = draw(st.integers(0, s_bar))
    return n, p, s, s_bar, level, draw(st.integers(0, 2**31 - 1))


def _small_instance(spec, noise):
    n, p, s, s_bar, level, seed = spec
    return generate_instance(n, p, s, s_bar, level, noise, seed=seed,
                             attack_norm=(0.05, 2.0))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(spec=small_instances(), noise=st.sampled_from([0.0, 0.05]))
@example(spec=(2, 7, 2, 2, "3s", 1517215338), noise=0.05)
@example(spec=(4, 5, 1, 1, "3s", 1473099080), noise=0.05)
@example(spec=(3, 7, 2, 2, "3s", 1896709351), noise=0.05)
def test_strategies_match_oracle_feasibility(spec, noise):
    inst = _small_instance(spec, noise)
    oracle = brute_force(inst.model, inst.stack, inst.window, epsilon=1e-6)
    for strategy in Strategy:
        result = estimate(inst.model, inst.stack, inst.window, cfg(strategy, 1e-6))
        assert result.feasible == bool(oracle.supports), strategy
        if result.feasible:
            assert result.support in oracle.supports


@settings(derandomize=True, deadline=None, max_examples=100)
@given(spec=small_instances())
def test_minimal_support_matches_unique_oracle_minimum(spec):
    inst = _small_instance(spec, 0.0)
    oracle = brute_force(inst.model, inst.stack, inst.window, epsilon=1e-6)
    assume(oracle.unique_minimal)
    for strategy in Strategy:
        result = minimal_support_estimate(inst.model, inst.stack, inst.window,
                                          cfg(strategy, 1e-6))
        assert result.feasible
        assert result.support == oracle.minimal[0], strategy


def test_agree_certificates_gated_off_under_noise():
    # the sub-threshold attack on sensor 5 passes an agreement check under
    # noise; emitting that certificate made this instance infeasible
    inst = generate_instance(2, 7, 2, 2, "3s", 0.05, seed=1517215338,
                             attack_norm=(0.05, 2.0))
    result = estimate(inst.model, inst.stack, inst.window,
                      cfg(Strategy.CONFLICT_AGREE, 1e-6))
    assert result.agree_downgraded and not result.agree_active
    assert result.feasible and result.support == (3, 5)


# ---------------------------------------------------------------------------
# non-finite readings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_sensor_is_attacked_up_front(four_lines, bad):
    model, stack, _ = four_lines
    window = line_window(model, [8.0, 4.0, bad, 2.0])
    for strategy in Strategy:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = estimate(model, stack, window, cfg(strategy))
        assert result.feasible
        assert result.support == (2,)
        assert result.iterations == 1
        assert np.allclose(result.x, [2.0, 6.0], atol=1e-9)
        assert result.certificates[0].kind is CertificateKind.AT_LEAST_ONE_ATTACKED
        assert result.certificates[0].sensors == {2}


@pytest.mark.parametrize("spike", [1e300, 1e160])
def test_overflowing_reading_is_attacked_without_warnings(four_lines, spike):
    # the reading is finite but its square overflows, so it counts as non-finite
    model, stack, _ = four_lines
    window = line_window(model, [8.0, 4.0, spike, 2.0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = [estimate(model, stack, window, cfg(strategy)) for strategy in Strategy]
        minimal = minimal_support_estimate(model, stack, window, cfg())
    assert caught == []
    for result in results:
        assert result.support == (2,)
        assert result.iterations == 1
        assert result.certificates[0].sensors == {2}
    assert minimal.support == (2,)


def test_non_finite_sensors_beyond_budget_are_infeasible(four_lines):
    model, stack, _ = four_lines  # s_bar = 1
    window = line_window(model, [8.0, math.nan, math.nan, 2.0])
    for strategy in Strategy:
        result = estimate(model, stack, window, cfg(strategy))
        assert not result.feasible
        assert result.iterations == 0
        assert {c.sensors for c in result.certificates} == {frozenset({1}), frozenset({2})}
    assert not brute_force(model, stack, window).supports
    assert not minimal_support_estimate(model, stack, window, cfg()).feasible
