import gc
import math
import re
import sys
import warnings
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

import sse.theory
from sse import (
    RobustnessConstants,
    SubsetCapError,
    SystemModel,
    build_observability,
    check_sparse_observability,
    estimator,
    linmodel,
    satcore,
    stack_window,
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
from sse.satcore import SolveStats
from sse.theory import DEFAULT_EPSILON, CertificateKind, Strategy, certificates, t_check

from conftest import FIVE_LINES, four_lines, line_model, line_window


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
        assert result.stats.conflict_fallbacks == 0


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


def test_capped_solve_carries_its_sat_stats():
    # the trivial strategy needs all 5 supports within budget to prove this
    # window infeasible; a cap of 3 stops it after 3 checked hypotheses
    model = line_model([[1.0, 1.0], [-1.0, 1.0], [0.0, 1.0], [-2.0, 1.0]], s_bar=1)
    stack = build_observability(model)
    window = line_window(model, [8.0 + 3.0, 4.0, 8.0 + 2.0, 2.0])
    with pytest.raises(IterationLimitError) as info:
        estimate(model, stack, window, cfg(Strategy.TRIVIAL, max_iterations=3))
    exc = info.value
    assert exc.iterations == 3
    assert isinstance(exc.stats, SolveStats)
    assert exc.stats.solve_calls == 3  # one proposal per checked hypothesis
    assert exc.stats.solve_time > 0.0
    full = estimate(model, stack, window, cfg(Strategy.TRIVIAL))
    assert not full.feasible and full.iterations == 5
    assert 0 < exc.stats.solve_calls < full.stats.solve_calls
    assert exc.stats.decisions <= full.stats.decisions


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
    assert config.iteration_cap(4, 0) == 10  # the width p + 1 is clipped to p: C(4, 4) = 1


def test_agree_gate_downgrades_without_verification(four_lines):
    model, stack, window = four_lines  # not 3-sparse observable (single lines in R^2)
    result = estimate(model, stack, window, cfg(Strategy.CONFLICT_AGREE))
    assert result.strategy is Strategy.CONFLICT
    assert all(c.kind is CertificateKind.AT_LEAST_ONE_ATTACKED for c in result.certificates)


def test_agree_gate_allows_generated_3s_model():
    inst = generate_instance(3, 8, 1, 2, "3s", 0.0, seed=5, attack_norm=4.0)
    result = estimate(inst.model, inst.stack, inst.window, cfg(Strategy.CONFLICT_AGREE, 1e-6))
    assert result.strategy is Strategy.CONFLICT_AGREE


def test_agree_gate_ignores_sampled_audit():
    # C(32, 24) is too many subsets to enumerate, and with n = 16 and tau = 2
    # only a union of at least 8 sensors can have rank n, which no partition
    # into fewer than 32 parts leaves after removing 24 of them: the generator
    # leaves the 3s level unproven, and the gate's check refuses at the cap
    inst = generate_instance(16, 32, 2, 8, "3s", 0.0, seed=1)
    with pytest.raises(SubsetCapError):
        check_sparse_observability(inst.model, 24)
    result = estimate(inst.model, inst.stack, inst.window, cfg(Strategy.CONFLICT_AGREE))
    assert result.strategy is Strategy.CONFLICT
    assert result.feasible
    assert set(inst.attacked) <= set(result.support)


def test_agree_gate_opens_on_a_partition_proof():
    # C(40, 30) is too many subsets to enumerate, but 32 parts prove the 3s
    # level with C(32, 30) = 496 unions
    inst = generate_instance(3, 40, 2, 10, "3s", 0.0, seed=1)
    result = estimate(inst.model, inst.stack, inst.window, cfg(Strategy.CONFLICT_AGREE))
    assert result.strategy is Strategy.CONFLICT_AGREE
    assert result.feasible
    assert set(inst.attacked) <= set(result.support)


def _count_rank_calls(monkeypatch):
    """Count the exact check's rank work: each chunk of kept sets it screens
    and, where the screen leaves any, ranks by SVD."""
    calls = []
    real = linmodel._all_full_rank
    monkeypatch.setattr(linmodel, "_all_full_rank",
                        lambda stack, idx: calls.append(1) or real(stack, idx))
    return calls


def test_agree_gate_checked_once_per_stack(monkeypatch):
    inst = generate_instance(3, 8, 1, 2, "3s", 0.0, seed=5, attack_norm=4.0)
    model = replace(inst.model)  # a fresh copy: the generator's answer sits on inst.model
    stack = build_observability(model)
    calls = _count_rank_calls(monkeypatch)
    first = estimate(model, stack, inst.window, cfg(Strategy.CONFLICT_AGREE, 1e-6))
    assert calls
    calls.clear()
    again = estimate(model, stack, inst.window, cfg(Strategy.CONFLICT_AGREE, 1e-6))
    assert not calls
    assert first.strategy is again.strategy is Strategy.CONFLICT_AGREE
    assert check_sparse_observability(model, 6)
    assert again.iterations == first.iterations and again.support == first.support
    # the generator's exact level check already sits on the stack it returns
    calls.clear()
    estimate(inst.model, inst.stack, inst.window, cfg(Strategy.CONFLICT_AGREE, 1e-6))
    assert not calls


def _plant_stream_case(seed):
    """A plant shaped like the benchmark's plant_stream (n=4, p=12, s_bar=2,
    tau=3, noiseless, proven 3 s_bar-sparse observable) and its 148
    windows over 150 steps, attacked on two sensors that change every 22
    steps."""
    rng = np.random.default_rng(seed)
    n, p, s_bar, tau, steps = 4, 12, 2, 3, 150
    while True:
        a = rng.normal(size=(n, n))
        a *= 0.95 / max(abs(np.linalg.eigvals(a)))
        model = SystemModel(A=a, B=rng.normal(size=(n, 1)), C=rng.normal(size=(p, n)),
                            tau=tau, s_bar=s_bar, noise_bounds=np.zeros(p))
        if check_sparse_observability(replace(model), 3 * s_bar):
            break
    u = rng.normal(size=(steps, 1))
    x = np.zeros((steps, n))
    x[0] = rng.normal(size=n) * 3.0
    for t in range(steps - 1):
        x[t + 1] = model.A @ x[t] + model.B @ u[t]
    attack = np.zeros((steps, p))
    for start in range(0, steps, 22):
        sensors = rng.choice(p, size=s_bar, replace=False)
        attack[start:start + 20, sensors] = rng.uniform(1.0, 10.0, size=(1, s_bar))
    y = x @ model.C.T + attack
    return model, [stack_window(model, y[t:t + tau], u[t:t + tau])
                   for t in range(steps - tau + 1)]


def test_per_model_solve_facts_keep_every_estimate(monkeypatch):
    # the gate and the cap are worked out once per model and budget; every
    # window's estimate equals the one on a fresh copy that works them out
    model, windows = _plant_stream_case(7)
    assert len(windows) == 148
    gates = []
    real = estimator.check_sparse_observability
    monkeypatch.setattr(estimator, "check_sparse_observability",
                        lambda m, s: gates.append((m, s)) or real(m, s))
    stack = build_observability(model)
    for k, window in enumerate(windows):
        fresh = replace(model)
        for solve in (estimate, minimal_support_estimate) if k % 10 == 0 else (estimate,):
            got = solve(model, stack, window)
            want = solve(fresh, build_observability(fresh), window)
            _same_estimate(got, want)
            assert (got.strategy, got.budget) == (want.strategy, want.budget)
            assert replace(got.stats, solve_time=0.0) == replace(want.stats, solve_time=0.0)
    levels = [s for m, s in gates if m is model]
    assert levels.count(6) == 1 and len(levels) == len(set(levels)) > 1
    # the default configuration's gate is open at the model's budget
    assert stack._solve_facts[Strategy.CONFLICT_AGREE, None, 2][0] is Strategy.CONFLICT_AGREE


def test_agree_gate_remembers_a_failed_check(monkeypatch, four_lines):
    model, stack, window = four_lines  # not 3-sparse observable
    calls = _count_rank_calls(monkeypatch)
    estimate(model, stack, window, cfg(Strategy.CONFLICT_AGREE))
    assert calls
    calls.clear()
    again = estimate(model, stack, window, cfg(Strategy.CONFLICT_AGREE))
    assert not calls
    assert again.strategy is Strategy.CONFLICT
    assert not check_sparse_observability(model, 3)


def test_remembered_check_still_honours_subset_cap(four_lines):
    model, stack, _ = four_lines
    assert not check_sparse_observability(model, 3)
    with pytest.raises(SubsetCapError):
        check_sparse_observability(model, 3, subset_cap=3)


def test_agree_gate_arithmetic_blocks_p_equal_3s():
    inst = generate_instance(2, 6, 1, 2, "2s", 0.0, seed=6, attack_norm=4.0)
    result = estimate(inst.model, inst.stack, inst.window, cfg(Strategy.CONFLICT_AGREE, 1e-6))
    # p = 6 = 3 * s_bar: the gate requires strictly more sensors
    assert result.strategy is Strategy.CONFLICT


def test_agree_certificates_fire_and_pin_sensors():
    inst = generate_instance(3, 9, 2, 2, "3s", 0.0, seed=11, attack_norm={"lo": 3.0, "hi": 7.0})
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
        assert result.stats.conflict_fallbacks == 0


def test_estimate_to_json_dict(four_lines):
    model, stack, window = four_lines
    result = estimate(model, stack, window, cfg())
    doc = result.to_json_dict()
    assert doc["status"] == "feasible"
    assert doc["support"] == [2]
    assert doc["iterations"] == result.iterations
    assert len(doc["trace"]) == result.iterations
    assert doc["stats"] == asdict(result.stats)
    assert doc["stats"]["solve_calls"] == result.iterations
    # four_lines is not 3-sparse observable: conflict_agree says it ran as conflict
    downgraded = estimate(model, stack, window, cfg(Strategy.CONFLICT_AGREE)).to_json_dict()
    assert (doc["strategy"], downgraded["strategy"]) == ("conflict", "conflict")


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
    inst = generate_instance(3, 9, 2, 3, "2s", 0.0, seed=3, attack_norm={"lo": 2.0, "hi": 6.0})
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


def test_minimal_support_sums_counts_over_budgets(monkeypatch):
    inst = generate_instance(3, 9, 3, 3, "2s", 0.0, seed=1)
    config = cfg(Strategy.TRIVIAL, epsilon=1e-6)
    returned = []  # each budget's totals as its solve returns them, in budget order
    real = estimator._solve

    def recording(*args):
        outcome = real(*args)
        returned.append((outcome.iterations, replace(outcome.stats)))
        return outcome

    monkeypatch.setattr(estimator, "_solve", recording)
    result = minimal_support_estimate(inst.model, inst.stack, inst.window, config)
    iterations, stats = zip(*returned)
    assert len(returned) == 2
    assert result.iterations == sum(iterations)
    assert result.stats == sum(stats, SolveStats())
    # budget 3 is feasible with a 3-sensor support, budget 2 is not
    per_budget = [
        estimate(replace(inst.model, s_bar=b), inst.stack, inst.window, config) for b in (3, 2)
    ]
    assert [r.feasible for r in per_budget] == [True, False]
    assert result.support == per_budget[0].support and len(result.support) == 3
    assert result.iterations == sum(r.iterations for r in per_budget)
    # the fresh solves' counts match; their times do not
    untimed = [replace(r.stats, solve_time=0.0) for r in (result, *per_budget)]
    assert untimed[0] == untimed[1] + untimed[2]
    assert result.stats.decisions > per_budget[0].stats.decisions > 0


def test_minimal_support_runs_every_budget_on_the_callers_model(monkeypatch):
    # budgets 20 and 3: every budget solves on the model and stack it is
    # given, so no stack is built and budget 3's level-9 gate proof lands
    # in the caller's memo
    inst = generate_instance(25, 60, 4, 20, "2s", 0.0, seed=9388)
    built = []
    real = linmodel.build_observability

    def counting(model):
        if model._stack is None:
            built.append(model.s_bar)
        return real(model)

    # patched where each module reads it: estimator and theory call the
    # name they imported, not linmodel's
    readers = [module for name, module in sorted(sys.modules.items())
               if (name == "sse" or name.startswith("sse."))
               and getattr(module, "build_observability", None) is real]
    assert {estimator, sse.theory, linmodel} <= set(readers)
    for module in readers:
        monkeypatch.setattr(module, "build_observability", counting)
    result = minimal_support_estimate(inst.model, inst.stack, inst.window)
    assert built == []
    assert result.support == inst.attacked and result.budget == 4
    calls = _count_rank_calls(monkeypatch)
    assert check_sparse_observability(inst.model, 9) and not calls


def test_capped_minimal_support_reports_totals_over_budgets():
    # budget 6 finds a two-sensor support in 2 iterations (the first rejected
    # check condemns both attacked sensors); budget 1 then stops at the
    # per-budget cap of 4
    inst = generate_instance(6, 20, 2, 6, "2s", 0.0, seed=1)
    config = cfg(Strategy.CONFLICT, epsilon=1e-6, max_iterations=4)
    with pytest.raises(IterationLimitError) as info:
        minimal_support_estimate(inst.model, inst.stack, inst.window, config)
    first = estimate(inst.model, inst.stack, inst.window, config)
    assert first.feasible and len(first.support) == 2 and first.iterations == 2
    with pytest.raises(IterationLimitError) as capped:
        estimate(replace(inst.model, s_bar=1), inst.stack, inst.window, config)
    assert capped.value.iterations == 4
    exc = info.value
    assert exc.iterations == 6 and "after 6 iterations" in str(exc)
    untimed = [replace(s, solve_time=0.0) for s in (exc.stats, first.stats, capped.value.stats)]
    assert untimed[0] == untimed[1] + untimed[2]
    assert exc.stats.solve_calls == 6 and exc.stats.solve_time > 0.0


@pytest.mark.parametrize("solver", [estimate, minimal_support_estimate])
def test_capped_solve_error_keeps_no_search_alive(monkeypatch, solver):
    # the error carries counts only: while it is held, no solve's SAT
    # instance, and no budget's estimate with its records and certificates,
    # outlives a collection
    instances, estimates = [], []
    new_instance, solve = satcore.new_instance, estimator._solve

    def keeping(*args):
        inst = new_instance(*args)
        instances.append(weakref.ref(inst))
        return inst

    def keeping_estimates(*args):
        outcome = solve(*args)
        if not isinstance(outcome, IterationLimitError):
            estimates.append(weakref.ref(outcome))
        return outcome

    monkeypatch.setattr(satcore, "new_instance", keeping)
    monkeypatch.setattr(estimator, "_solve", keeping_estimates)
    inst = generate_instance(6, 20, 2, 6, "2s", 0.0, seed=1)
    # budget 1 caps at 4 iterations; minimal support reaches it after budget 6
    model = replace(inst.model, s_bar=1) if solver is estimate else inst.model
    config = cfg(Strategy.CONFLICT, epsilon=1e-6, max_iterations=4)
    with pytest.raises(IterationLimitError) as info:
        solver(model, inst.stack, inst.window, config)
    gc.collect()
    assert len(instances) == (1 if solver is estimate else 2)
    assert [ref() for ref in instances] == [None] * len(instances)
    # minimal support found budget 6 feasible before budget 1 capped
    assert len(estimates) == (0 if solver is estimate else 1)
    assert [ref() for ref in estimates] == [None] * len(estimates)
    assert info.value.iterations == (4 if solver is estimate else 6)
    assert info.value.__context__ is None


def _replayed_counts(model, stack, window, result, epsilon):
    """Summed counts of ``certificates`` replayed on every rejected record of
    ``result``, checking that each replay gives the record's certificates."""
    total = SolveStats()
    for record in result.records:
        if record.sat:
            continue
        trusted = set(range(model.p)).difference(record.support)
        check = t_check(model, window, trusted, epsilon)
        certs, counts = certificates(model, window, check, model.s_bar, epsilon, result.strategy)
        assert tuple(certs) == record.certificates
        total += counts
    return total


@pytest.mark.parametrize("strategy, args, kwargs", [
    (Strategy.CONFLICT, (6, 20, 2, 6, "2s", 0.0), {"seed": 1}),
    (Strategy.CONFLICT, (25, 60, 8, 20, "2s", 0.0), {"seed": 9000 + 97 * 8}),
    # p = 9 > 3 * s_bar on exact data: the agree gate is open
    (Strategy.CONFLICT_AGREE, (3, 9, 2, 2, "3s", 0.0),
     {"seed": 11, "attack_norm": {"lo": 3.0, "hi": 7.0}}),
], ids=["conflict", "conflict_desk", "conflict_agree_gate_open"])
def test_estimate_counts_the_theory_checks_of_its_certificates(strategy, args, kwargs):
    inst = generate_instance(*args, **kwargs)
    result = estimate(inst.model, inst.stack, inst.window, cfg(strategy, epsilon=1e-6))
    assert result.feasible and result.strategy is strategy
    replayed = _replayed_counts(inst.model, inst.stack, inst.window, result, 1e-6)
    assert replayed.theory_checks > 0
    assert result.stats.theory_checks == replayed.theory_checks
    assert result.stats.conflict_fallbacks == replayed.conflict_fallbacks == 0


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


@pytest.mark.parametrize("o_bar, delta_s, message", [
    # negative leakage would shrink the threshold below zero leakage's
    (1.0, -3.0, "delta_s must be in [0, 1) for the guarantees to hold, got -3.0"),
    (1.0, math.nan, "delta_s must be in [0, 1) for the guarantees to hold, got nan"),
    (1.0, math.inf, "delta_s must be in [0, 1) for the guarantees to hold, got inf"),
    (-1.0, 0.5, "o_bar must be non-negative, got -1.0"),
    (math.nan, 0.5, "o_bar must be non-negative, got nan"),
], ids=["delta_s_negative", "delta_s_nan", "delta_s_inf", "o_bar_negative", "o_bar_nan"])
def test_delta_bound_rejects_constants_out_of_range(o_bar, delta_s, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        delta_bound(toy_model(0.1), RobustnessConstants(o_bar, delta_s), 1e-6)


def test_delta_bound_with_no_pseudo_inverse_bound_bounds_no_error():
    bounds = delta_bound(toy_model(0.1), RobustnessConstants(math.inf, 0.5), 1e-6)
    assert bounds.detected_delta == bounds.undetected_bound == math.inf
    assert bounds.detection_threshold_sq == pytest.approx(0.4 + 2e-6, rel=1e-12)


def test_delta_bound_with_no_pseudo_inverse_bound_is_infinite_without_noise():
    # o_bar * |Psi|^2 is inf * 0 here: no bound, not NaN
    bounds = delta_bound(toy_model(0.0), RobustnessConstants(math.inf, 0.5), 0.0)
    assert bounds.detected_delta == bounds.undetected_bound == math.inf
    assert bounds.detection_threshold_sq == 0.0


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
                                 attack_norm={"lo": 3.0, "hi": 7.0})
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


def test_clean_seed_exposes_both_attacked_sensors():
    # the agree gate is open: the first check fails, its seed fit passes, and
    # the walk's conflict and the one more conflict after it name the two
    # attacked sensors, each beside sensors of the clean seed, so one
    # rejected check teaches the core the whole support
    inst = generate_instance(4, 12, 2, 2, "3s", 0.0, seed=3, attack_norm={"lo": 3.0, "hi": 7.0})
    result = estimate(inst.model, inst.stack, inst.window, cfg(Strategy.CONFLICT_AGREE, 1e-6))
    assert result.strategy is Strategy.CONFLICT_AGREE
    assert result.iterations == 2
    first, second = result.records
    assert first.support == () and not first.sat
    *conflicts, agree = first.certificates
    assert agree.kind is CertificateKind.ALL_UNATTACKED and len(agree.sensors) == 12 - 2 * 2
    assert {c.suspect for c in conflicts} == set(inst.attacked)
    for cert in conflicts:
        assert cert.kind is CertificateKind.AT_LEAST_ONE_ATTACKED
        assert cert.sensors - {cert.suspect} <= agree.sensors
        assert not t_check(inst.model, inst.window, cert.sensors, 1e-6).sat
    assert second.sat and second.support == tuple(sorted(inst.attacked)) == result.support


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
                    assert result.strategy is Strategy.CONFLICT_AGREE
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
                             attack_norm={"lo": 0.05, "hi": 2.0})


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


@pytest.mark.parametrize("p, attacked", [(6, (0, 1, 2)), (7, (0, 1, 2)), (7, (0, 1, 2, 3, 4))])
def test_strategies_match_oracle_with_budget_above_half_the_sensors(p, attacked):
    # p / 2 < s_bar = 4 < p, which the generator never draws: the seed size
    # p - 2 s_bar is negative, and the seed is all but the 2 s_bar - p
    # highest-ranked checked sensors; five attacked sensors exceed the budget
    rows = (FIVE_LINES + [[2.0, 1.0], [1.0, -1.0]])[:p]
    model = line_model(rows, s_bar=4)
    stack = build_observability(model)
    offsets = np.array(rows) @ [2.0, 6.0]
    offsets[list(attacked)] += [5.0, -7.0, 9.0, 4.0, -6.0][:len(attacked)]
    window = line_window(model, offsets)
    oracle = brute_force(model, stack, window, epsilon=1e-9)
    for strategy in Strategy:
        result = estimate(model, stack, window, cfg(strategy))
        assert result.feasible == bool(oracle.supports) == (len(attacked) <= 4), strategy
        if result.feasible:
            assert result.support in oracle.supports
        for cert in result.certificates:
            if cert.kind is CertificateKind.AT_LEAST_ONE_ATTACKED:
                assert not t_check(model, window, cert.sensors, 1e-9).sat


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
                             attack_norm={"lo": 0.05, "hi": 2.0})
    result = estimate(inst.model, inst.stack, inst.window,
                      cfg(Strategy.CONFLICT_AGREE, 1e-6))
    assert result.strategy is Strategy.CONFLICT
    assert result.feasible and result.support == (3, 5)


def _same_estimate(a, b):
    assert (a.feasible, a.iterations, a.support) == (b.feasible, b.iterations, b.support)
    assert a.certificates == b.certificates
    assert [asdict(r) for r in a.records] == [asdict(r) for r in b.records]
    assert (None if a.x is None else a.x.tobytes()) == (None if b.x is None else b.x.tobytes())


@pytest.mark.parametrize("spec", [
    (4, 10, 2, 2, "3s", 0.05),  # noisy "3s": the gate closes on noise
    (3, 6, 2, 2, "2s", 0.0),  # p = 3 * s_bar
    (3, 5, 1, 2, "2s", 0.0),  # p < 3 * s_bar
])
def test_closed_gate_conflict_agree_is_the_conflict_estimate(spec):
    for seed in range(8):
        inst = generate_instance(*spec, seed=300 + seed, attack_norm={"lo": 2.0, "hi": 8.0})
        runs = [estimate(inst.model, inst.stack, inst.window, cfg(strategy, 1e-6))
                for strategy in (Strategy.CONFLICT_AGREE, Strategy.CONFLICT)]
        assert runs[0].strategy is runs[1].strategy is Strategy.CONFLICT
        _same_estimate(*runs)
        assert runs[0].feasible and runs[0].iterations > 1  # certificates were learned


@pytest.mark.parametrize("cap", [0, -3])
def test_iteration_cap_below_one_is_rejected(cap):
    with pytest.raises(ValueError, match="max_iterations"):
        EstimatorConfig(max_iterations=cap)
    assert EstimatorConfig(max_iterations=1).iteration_cap(4, 1) == 1


def test_iteration_cap_is_a_whole_number():
    with pytest.raises(ValueError, match="max_iterations must be a whole number, got 2.5"):
        EstimatorConfig(max_iterations=2.5)
    assert type(EstimatorConfig(max_iterations=2.0).iteration_cap(4, 1)) is int


@pytest.mark.parametrize("strategy", list(Strategy))
def test_strategy_name_runs_as_its_enum(strategy):
    # a "2s" instance for the trivial walk, a "3s" one for the open agree gate
    for inst in (generate_instance(3, 7, 2, 2, "2s", 0.0, seed=1),
                 generate_instance(3, 8, 1, 2, "3s", 0.0, seed=5, attack_norm=4.0)):
        named, member = (estimate(inst.model, inst.stack, inst.window, cfg(choice, 1e-6))
                         for choice in (strategy.value, strategy))
        _same_estimate(named, member)
        assert named.strategy is member.strategy
    assert EstimatorConfig(strategy=strategy.value).strategy is strategy


def test_unknown_strategy_name_is_rejected():
    with pytest.raises(ValueError, match="bogus"):
        EstimatorConfig(strategy="bogus")


def test_nan_epsilon_is_rejected():
    with pytest.raises(ValueError, match="epsilon"):
        EstimatorConfig(epsilon=float("nan"))
    with pytest.raises(ValueError, match="epsilon"):
        delta_bound(toy_model(0.1), RobustnessConstants(0.5, 0.5), float("nan"))


@pytest.mark.parametrize("epsilon, message", [
    (float("nan"), "epsilon must be non-negative, got nan"),
    (-1e-9, "epsilon must be non-negative, got -1e-09"),
    (float("inf"), "epsilon must be finite, got inf"),
], ids=["nan", "negative", "inf"])
def test_every_epsilon_reader_rejects_a_bad_tolerance(epsilon, message):
    # an infinite tolerance passes every check: on this instance (attacked
    # (1, 4)) estimate would return feasible with no sensor attacked
    inst = generate_instance(3, 8, 2, 2, "2s", 0.0, seed=1)
    calls = (
        lambda: EstimatorConfig(epsilon=epsilon),
        lambda: t_check(inst.model, inst.window, range(8), epsilon),
        lambda: delta_bound(toy_model(0.1), RobustnessConstants(0.5, 0.5), epsilon),
    )
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


ENTRY_POINTS = {
    "estimate_conflict": lambda m, st, w: estimate(m, st, w, cfg(Strategy.CONFLICT)),
    "estimate_trivial": lambda m, st, w: estimate(m, st, w, cfg(Strategy.TRIVIAL)),
    "brute_force": brute_force,
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("misfit", ["five_sensor_window", "ten_sensor_stack"])
def test_stack_or_window_of_another_shape_is_rejected(entry, misfit):
    inst = generate_instance(3, 8, 1, 1, "2s", 0.0, seed=0)
    stack, window = inst.stack, inst.window
    if misfit == "five_sensor_window":
        window = linmodel.StackedWindow(blocks=window.blocks[:5])
        message = "window blocks (5, 2) do not fit the model's (p, tau) = (8, 2)"
    else:
        # blocks of another shape are not the model's blocks
        stack = generate_instance(3, 10, 1, 1, "2s", 0.0, seed=0).stack
        message = "stack was built from another model: its blocks are not this model's"
    with pytest.raises(ValueError, match=re.escape(message)):
        ENTRY_POINTS[entry](inst.model, stack, window)


def test_a_copy_with_another_budget_accepts_the_original_stack():
    inst = generate_instance(3, 8, 1, 2, "2s", 0.0, seed=1, attack_norm=4.0)
    lower = replace(inst.model, s_bar=1)
    assert build_observability(lower) is not inst.stack
    got = estimate(lower, inst.stack, inst.window, cfg())
    want = estimate(lower, build_observability(lower), inst.window, cfg())
    assert got.support == want.support == inst.attacked
    assert np.array_equal(got.x, want.x)


FOREIGN_ENTRY_POINTS = {
    "estimate": lambda m, st, w: estimate(m, st, w, cfg()),
    "minimal_support_estimate": lambda m, st, w: minimal_support_estimate(m, st, w, cfg()),
    "brute_force": brute_force,
}


@pytest.mark.parametrize("entry", list(FOREIGN_ENTRY_POINTS))
def test_stack_of_another_model_is_rejected(entry):
    # a's stack has b's shape, and on it y = (1, 2, 3) fits x = (1, 2) with
    # no sensor attacked, where b's own stack gives x = (1, 3)
    a, b = (SystemModel(A=np.eye(2), B=np.zeros((2, 1)), C=c, tau=1, s_bar=1,
                        noise_bounds=np.zeros(3))
            for c in ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))
    assert check_sparse_observability(a, 1)  # level 1 proven on a's stack
    assert not check_sparse_observability(b, 1)
    window = stack_window(b, [[1.0, 2.0, 3.0]], [[0.0]])
    message = "stack was built from another model: its blocks are not this model's"
    with pytest.raises(ValueError, match=re.escape(message)):
        FOREIGN_ENTRY_POINTS[entry](b, build_observability(a), window)
    assert not check_sparse_observability(b, 1)
    own = estimate(b, build_observability(b), window, cfg())
    assert own.feasible and own.support == () and np.allclose(own.x, [1.0, 3.0])


# ---------------------------------------------------------------------------
# infeasible verdicts against an independent fit and an independent MILP
# ---------------------------------------------------------------------------


def _independent_fit_passes(inst, sensors):
    """Whether a plain-numpy least-squares fit of ``sensors`` stays within
    their noise budget, built from the model's matrices alone: rows C_i A^j,
    and the raw outputs less the zero-state response to the inputs."""
    model, sensors = inst.model, sorted(sensors)
    rows, outputs = [], []
    power, z = np.eye(model.n), np.zeros(model.n)
    for j in range(model.tau):
        rows.append(model.C[sensors] @ power)
        outputs.append(inst.outputs[j, sensors] - model.C[sensors] @ z)
        power, z = power @ model.A, model.A @ z + model.B @ inst.inputs[j]
    o, y = np.vstack(rows), np.concatenate(outputs)
    x = np.linalg.lstsq(o, y, rcond=None)[0]
    budget = np.linalg.norm(model.noise_bounds[sensors]) + DEFAULT_EPSILON
    return np.linalg.norm(y - o @ x) <= budget


def _learned(result):
    """(at-least-one sets, certified-clean sensors) of an estimate."""
    kinds = CertificateKind.AT_LEAST_ONE_ATTACKED, CertificateKind.ALL_UNATTACKED
    sets, clean = ([c.sensors for c in result.certificates if c.kind is kind] for kind in kinds)
    return sets, frozenset().union(*clean)


@pytest.mark.parametrize("strategy", [Strategy.CONFLICT, Strategy.CONFLICT_AGREE])
@pytest.mark.parametrize("spec", [(3, 8, 2, 2, "3s"), (3, 9, 2, 2, "3s"), (4, 12, 3, 3, "2s"),
                                  (2, 7, 2, 2, "2s"), (3, 10, 3, 3, "3s")])
def test_infeasible_verdicts_hold_under_independent_checks(spec, strategy):
    # s sensors are attacked, so at budget s - 1 every exact instance is
    # infeasible: (a) each learned set is rejected by a fit that shares no
    # code with t_check, (b) a MILP finds no support within the budget that
    # hits every set and avoids every clean sensor, and (c) at budget s the
    # feasible support does both, and its complement fits
    config, s = cfg(strategy, DEFAULT_EPSILON), spec[2]
    for seed in range(6):
        inst = generate_instance(*spec, seed=seed)
        p = inst.model.p
        result = estimate(replace(inst.model, s_bar=s - 1), inst.stack, inst.window, config)
        assert not result.feasible
        sets, clean = _learned(result)
        assert sets
        assert not any(_independent_fit_passes(inst, sensors) for sensors in sets)
        hits = np.zeros((len(sets) + 1, p))
        for row, sensors in zip(hits, sets):
            row[sorted(sensors)] = 1.0
        hits[-1] = 1.0  # the support's size
        solved = milp(np.zeros(p), integrality=np.ones(p),
                      bounds=Bounds(0.0, [0.0 if i in clean else 1.0 for i in range(p)]),
                      constraints=LinearConstraint(hits, [1.0] * len(sets) + [0.0],
                                                   [np.inf] * len(sets) + [s - 1]))
        assert solved.status == 2, solved.message  # infeasible
        result = estimate(inst.model, inst.stack, inst.window, config)
        assert result.feasible
        sets, clean = _learned(result)
        assert all(sensors & set(result.support) for sensors in sets)
        assert not clean & set(result.support)
        assert _independent_fit_passes(inst, set(range(p)) - set(result.support))


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


@pytest.mark.parametrize("lines, s_bar, readings, blamed, support, iterations", [
    # the reading is finite but its square overflows, so it counts as non-finite
    *[pytest.param(FIVE_LINES[:4], 1, [8.0, 4.0, spike, 2.0], [2], (2,), 1, id=str(spike))
      for spike in (1e300, 1e160)],
    # sensor 0 is blamed up front, and the walk ranks every row, its own too
    pytest.param(FIVE_LINES, 2, [1e160, 4.0, 8.0, 2.0, 12.0], [0], (0, 2), 3, id="ranked"),
    # each row's square is finite, but their sum is not
    pytest.param(FIVE_LINES, 2, [1.2e154, 4.0, 1.2e154, 2.0, 12.0], [0, 2], (0, 2), 1,
                 id="summed"),
])
def test_overflowing_reading_is_attacked_without_warnings(lines, s_bar, readings, blamed,
                                                           support, iterations):
    model = line_model(lines, s_bar=s_bar)
    stack, window = build_observability(model), line_window(model, readings)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = [estimate(model, stack, window, cfg(strategy)) for strategy in Strategy]
        minimal = minimal_support_estimate(model, stack, window, cfg())
    assert caught == []
    for result in results:
        assert result.support == support
        assert result.iterations == iterations
        assert [c.sensors for c in result.certificates[:len(blamed)]] == [{i} for i in blamed]
    assert minimal.support == support


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


# ---------------------------------------------------------------------------
# a budget of every sensor
# ---------------------------------------------------------------------------


def first_coordinate_sensors(readings):
    """s_bar = p sensors that each read x_1 of a plant at rest (A = I, tau = 2);
    ``readings[i]`` is sensor i's window, oldest sample first."""
    p = len(readings)
    model = SystemModel(A=np.eye(2), B=np.zeros((2, 1)), C=[[1.0, 0.0]] * p, tau=2,
                        s_bar=p, noise_bounds=np.zeros(p))
    window = stack_window(model, np.array(readings, dtype=float).T, np.zeros((2, 1)))
    return model, build_observability(model), window


@pytest.mark.parametrize("readings", [
    [(1, 1), (1, 5), (1, 7)],
    [(1, 1), (1, 5), (1, 7), (1, 9)],
], ids=["p3", "p4"])
@pytest.mark.parametrize("strategy", list(Strategy))
def test_budget_of_every_sensor_finds_the_feasible_support(readings, strategy):
    # only sensor 0 is self-consistent; a support of all p sensors would leave
    # nothing to check, so the search must not stop at it
    model, stack, window = first_coordinate_sensors(readings)
    p = model.p
    oracle = brute_force(model, stack, window, s_bar=p - 1)
    assert oracle.supports == (tuple(range(1, p)),)
    result = estimate(model, stack, window, cfg(strategy))
    assert result.feasible
    assert result.support in oracle.supports
    assert result.budget == p
    assert all(c.sensors for c in result.certificates)


@pytest.mark.parametrize("readings", [
    [(1, 2), (1, 3)],  # each sensor contradicts itself
    [(math.nan, 1), (1, math.inf)],  # every sensor is non-finite
], ids=["self_inconsistent", "non_finite"])
def test_budget_of_every_sensor_stays_infeasible(readings):
    model, stack, window = first_coordinate_sensors(readings)
    assert not brute_force(model, stack, window, s_bar=model.p - 1).supports
    for strategy in Strategy:
        assert not estimate(model, stack, window, cfg(strategy)).feasible
    assert not minimal_support_estimate(model, stack, window, cfg()).feasible
