"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  The iteration-bound criterion audits every noiseless run executed by
the other criteria, so it is defined after the runs that feed it.
"""

import itertools
import math
import time

import numpy as np
import pytest

from sse import (
    RobustnessConstants,
    build_observability,
    compute_delta_s,
    compute_o_bar,
    spectral_helper_check,
)
from sse.attacksim import (
    discretize_ugv,
    alternating_encoder_scenario,
    generate_instance,
    run_closed_loop,
    ugv_guarantees,
)
from sse.bench import iteration_bound, run_bench
from sse.estimator import EstimatorConfig, delta_bound, estimate, minimal_support_estimate
from sse.oracle import brute_force
from sse.satcore import Certificate, CertificateKind, new_instance
from sse.theory import Strategy

from conftest import line_model, line_window, scalar_sensors

# every noiseless run lands here as (strategy, p, s_bar, iterations)
BOUND_LOG = []


def _log_run(strategy, p, s_bar, iterations):
    BOUND_LOG.append((strategy, p, s_bar, iterations))


def _report(number, description, started):
    print(f"\nACCEPTANCE {number}: PASS ({time.time() - started:.1f}s) - {description}")


# ---------------------------------------------------------------------------
# 1. noiseless delta-completeness
# ---------------------------------------------------------------------------


def _size_schedule(rng, count):
    """Instance sizes spanning the accepted envelope (n<=25, p<=60, s_bar<=20)."""
    sizes = []
    for k in range(count):
        if k % 25 == 24:  # large, poorly observable instances
            n = int(rng.integers(15, 26))
            p = int(rng.integers(40, 61))
            s_bar = int(rng.integers(8, min(20, (p - 2) // 2) + 1))
        elif k % 5 == 4:  # medium
            n = int(rng.integers(4, 11))
            p = int(rng.integers(10, 25))
            s_bar = int(rng.integers(2, min(5, (p - 2) // 2) + 1))
        else:  # small
            n = int(rng.integers(2, 7))
            p = int(rng.integers(4, 13))
            s_bar = int(rng.integers(1, min(2, (p - 1) // 2) + 1))
        s = int(rng.integers(0, s_bar + 1))
        sizes.append((n, p, s, s_bar))
    return sizes


def test_criterion_1_noiseless_delta_completeness():
    started = time.time()
    rng = np.random.default_rng(2024)
    config = EstimatorConfig(strategy=Strategy.CONFLICT, epsilon=1e-6)
    runs = 0
    for n, p, s, s_bar in _size_schedule(rng, 500):
        inst = generate_instance(n, p, s, s_bar, "2s", 0.0,
                                 seed=int(rng.integers(0, 2**31)),
                                 attack_norm=(1.0, 10.0))
        result = estimate(inst.model, inst.stack, inst.window, config)
        assert result.feasible, f"infeasible at n={n} p={p} s={s} s_bar={s_bar}"
        assert set(inst.attacked) <= set(result.support)
        rel = np.linalg.norm(result.x - inst.x_true) / (1 + np.linalg.norm(inst.x_true))
        assert rel <= 1e-6, f"relative error {rel} at n={n} p={p} s={s} s_bar={s_bar}"
        assert result.conflict_fallbacks == 0
        _log_run(Strategy.CONFLICT, p, s_bar, result.iterations)
        runs += 1
    assert runs == 500
    _report(1, "noiseless delta-completeness on 500 random observable instances",
            started)


# ---------------------------------------------------------------------------
# 2. oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_2_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(77)
    config = EstimatorConfig(strategy=Strategy.CONFLICT, epsilon=1e-6)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(5, 11))
        s_bar = int(rng.integers(1, 3))
        s = int(rng.integers(0, s_bar + 1))
        inst = generate_instance(n, p, s, s_bar, "2s", 0.0,
                                 seed=int(rng.integers(0, 2**31)),
                                 attack_norm=(1.0, 8.0))
        result = minimal_support_estimate(inst.model, inst.stack, inst.window, config)
        oracle = brute_force(inst.model, inst.stack, inst.window, epsilon=1e-6)
        assert result.feasible and oracle.minimal
        assert result.support == oracle.minimal[0]
        assert np.allclose(result.x, oracle.x_per_support[oracle.minimal[0]], atol=1e-9)
    _report(2, "minimal-support estimates match the brute-force oracle on 200 instances",
            started)


# ---------------------------------------------------------------------------
# 4. heuristic trend at the benchmark scale (feeds criterion 3's audit)
# ---------------------------------------------------------------------------

BENCH_CAP = 1000


def test_criterion_4_heuristic_trend():
    started = time.time()
    sweeps = [
        {
            "n": 25, "p": 60, "s": s, "s_bar": 20, "trials": 5, "seed": 9000 + 97 * s,
            "strategies": ["trivial", "conflict", "conflict_agree"],
            "max_iterations": BENCH_CAP,
        }
        for s in range(1, 21)
    ]
    rows = [r for r in run_bench({"sweeps": sweeps}, jobs=1) if r["record"] == "trial"]
    assert len(rows) == 20 * 5 * 3
    iters = {name: [] for name in ("trivial", "conflict", "conflict_agree")}
    per_point = {name: {} for name in ("trivial", "conflict", "conflict_agree")}
    for row in rows:
        assert row["status"] in ("feasible", "capped"), row
        count = row["iterations"]
        assert isinstance(count, int)
        strategy = row["strategy"]
        iters[strategy].append(count)
        per_point[strategy].setdefault(row["s"], []).append(count)
        _log_run(Strategy(strategy), row["p"], row["s_bar"], count)
        if row["status"] == "feasible" and strategy != "trivial":
            assert row["estimation_error"] <= 1e-6
    gmean = {k: math.exp(np.mean(np.log(v))) for k, v in iters.items()}
    ratio_conflict = gmean["trivial"] / gmean["conflict"]
    ratio_agree = gmean["trivial"] / gmean["conflict_agree"]
    print(f"\n  benchmark geometric means: {({k: round(v, 1) for k, v in gmean.items()})}")
    print(f"  trivial/conflict = {ratio_conflict:.1f}, trivial/conflict_agree = {ratio_agree:.1f}")
    assert ratio_conflict >= 5.0
    assert ratio_agree >= 8.0
    for s in range(1, 21):
        assert np.mean(per_point["conflict_agree"][s]) <= np.mean(per_point["conflict"][s]) + 1e-9
    _report(4, "benchmark iteration reductions beat the 5x/8x acceptance ratios",
            started)


# ---------------------------------------------------------------------------
# 3. iteration bounds (audits everything recorded above)
# ---------------------------------------------------------------------------


def test_criterion_3_iteration_bounds():
    started = time.time()
    # a dedicated batch so the criterion stands on its own
    rng = np.random.default_rng(5150)
    for strategy in (Strategy.TRIVIAL, Strategy.CONFLICT):
        for _ in range(25):
            n = int(rng.integers(2, 5))
            p = int(rng.integers(4, 9))
            s_bar = 1 if p <= 5 else int(rng.integers(1, 3))
            s = int(rng.integers(0, s_bar + 1))
            inst = generate_instance(n, p, s, s_bar, "2s", 0.0,
                                     seed=int(rng.integers(0, 2**31)))
            result = estimate(inst.model, inst.stack, inst.window,
                              EstimatorConfig(strategy=strategy, epsilon=1e-6))
            assert result.feasible
            _log_run(strategy, p, s_bar, result.iterations)
    assert len(BOUND_LOG) >= 50
    violations = [
        entry for entry in BOUND_LOG
        if entry[3] > iteration_bound(entry[0], entry[1], entry[2])
    ]
    assert violations == []
    _report(3, f"iteration bounds hold on all {len(BOUND_LOG)} recorded noiseless runs",
            started)


# ---------------------------------------------------------------------------
# 5. noisy detection threshold
# ---------------------------------------------------------------------------


def _noisy_instance_with_constants(seed, rng):
    n = int(rng.integers(2, 5))
    p = int(rng.integers(5, 10))
    s_bar = int(rng.integers(1, 3))
    if p - 2 * s_bar < 1:
        s_bar = 1
    s = int(rng.integers(1, s_bar + 1))
    noise = float(rng.uniform(0.05, 0.3))
    probe = generate_instance(n, p, s, s_bar, "2s", noise, seed=seed,
                              attack_norm=[1.0] * s)
    delta = compute_delta_s(probe.stack, s_bar)
    o_bar = compute_o_bar(probe.stack, p - s_bar)
    epsilon = 0.01
    bounds = delta_bound(probe.model, RobustnessConstants(o_bar, delta), epsilon)
    return probe, n, p, s, s_bar, noise, bounds, epsilon


def test_criterion_5_noisy_detection_threshold():
    started = time.time()
    rng = np.random.default_rng(31)
    for trial in range(200):
        seed = int(rng.integers(0, 2**31))
        probe, n, p, s, s_bar, noise, bounds, epsilon = _noisy_instance_with_constants(seed, rng)
        threshold = math.sqrt(bounds.detection_threshold_sq)
        norms = [threshold * float(rng.uniform(1.3, 3.0)) for _ in range(s)]
        inst = generate_instance(n, p, s, s_bar, "2s", noise, seed=seed,
                                 attack_norm=norms)
        assert np.array_equal(inst.model.A, probe.model.A)  # same plant, new attack
        result = estimate(inst.model, inst.stack, inst.window,
                          EstimatorConfig(strategy=Strategy.CONFLICT, epsilon=epsilon))
        assert result.feasible
        assert set(inst.attacked) <= set(result.support), (
            f"missed attack at trial {trial}: {inst.attacked} vs {result.support}"
        )
        err_sq = float(np.sum((result.x - inst.x_true) ** 2))
        assert err_sq <= bounds.detected_delta + 1e-12, (
            f"error {err_sq} above delta {bounds.detected_delta} at trial {trial}"
        )
    _report(5, "above-threshold attacks fully detected with bounded error on 200 runs",
            started)


# ---------------------------------------------------------------------------
# 6. undetected-attack bound
# ---------------------------------------------------------------------------


def test_criterion_6_undetected_attack_bound():
    started = time.time()
    rng = np.random.default_rng(32)
    for trial in range(200):
        seed = int(rng.integers(0, 2**31))
        probe, n, p, s, s_bar, noise, bounds, epsilon = _noisy_instance_with_constants(seed, rng)
        threshold = math.sqrt(bounds.detection_threshold_sq)
        norms = [threshold * float(rng.uniform(0.15, 0.85)) for _ in range(s)]
        inst = generate_instance(n, p, s, s_bar, "2s", noise, seed=seed,
                                 attack_norm=norms)
        result = estimate(inst.model, inst.stack, inst.window,
                          EstimatorConfig(strategy=Strategy.CONFLICT, epsilon=epsilon))
        assert result.feasible
        err_sq = float(np.sum((result.x - inst.x_true) ** 2))
        assert err_sq <= bounds.undetected_bound + 1e-12, (
            f"error {err_sq} above bound {bounds.undetected_bound} at trial {trial}"
        )
    _report(6, "sub-threshold attacks keep the error inside the undetected-attack bound",
            started)


# ---------------------------------------------------------------------------
# 7. appendix spectral lemma
# ---------------------------------------------------------------------------


def test_criterion_7_spectral_lemma():
    started = time.time()
    assert spectral_helper_check(np.zeros((5, 5)), np.eye(5)) == pytest.approx(0.0, abs=1e-12)
    assert spectral_helper_check(np.eye(6), np.eye(6)) == pytest.approx(0.5, abs=1e-12)
    rng = np.random.default_rng(99)
    for _ in range(1000):
        dim = int(rng.integers(1, 9))
        m_a = rng.normal(size=(dim, int(rng.integers(1, dim + 1))))
        a = m_a @ m_a.T
        m_b = rng.normal(size=(dim, dim))
        b = m_b @ m_b.T + np.eye(dim) * float(rng.uniform(0.01, 2.0))
        value = spectral_helper_check(a, b)
        assert 0.0 <= value < 1.0
    _report(7, "spectral ratio stays below one on 1000 random PSD/PD pairs", started)


# ---------------------------------------------------------------------------
# 8. vehicle closed loop
# ---------------------------------------------------------------------------


def test_criterion_8_ugv_closed_loop():
    started = time.time()
    ugv = discretize_ugv()
    scenario = alternating_encoder_scenario()
    config = EstimatorConfig(strategy=Strategy.CONFLICT_AGREE, epsilon=1e-6)
    constants, bounds = ugv_guarantees(ugv, epsilon=config.epsilon)
    threshold = math.sqrt(bounds.detection_threshold_sq)
    error_allowance = math.sqrt(bounds.undetected_bound)

    trace = run_closed_loop(ugv, scenario, config=config, seed=0)
    norms = trace.window_attack_norms(ugv.model.tau)
    eligible = detected = 0
    for t in range(1, trace.steps):
        above = [i for i in range(3) if norms[t, i] > threshold]
        if len(above) == 1:
            eligible += 1
            detected += int(trace.b[t, above[0]] == 1)
    assert eligible >= 200, "scenario should spend most of its attack phases above threshold"
    rate = detected / eligible
    print(f"\n  detection rate {detected}/{eligible} = {rate:.4f}, "
          f"threshold |E| > {threshold:.2f}")
    assert rate >= 0.99
    position_error = np.abs(trace.x_true[:, 0] - trace.x_est[:, 0])
    assert position_error.max() <= error_allowance

    from sse.attacksim import AttackScenario

    quiet = run_closed_loop(ugv, AttackScenario(phases=(), steps=200),
                            config=config, seed=1)
    assert not quiet.b.any()
    _report(8, "closed-loop run flags the attacked encoder and keeps the error bounded",
            started)


# ---------------------------------------------------------------------------
# 9. combinatorial-core completeness
# ---------------------------------------------------------------------------


def _satisfies(b, s_bar, constraints):
    if int(np.sum(b)) > s_bar:
        return False
    for kind, sensors in constraints:
        hits = [b[i] for i in sensors]
        if kind is CertificateKind.AT_LEAST_ONE_ATTACKED and not any(hits):
            return False
        if kind is CertificateKind.ALL_UNATTACKED and any(hits):
            return False
    return True


def test_criterion_9_satcore_completeness():
    started = time.time()
    rng = np.random.default_rng(123)
    for _ in range(1000):
        p = int(rng.integers(1, 11))
        s_bar = int(rng.integers(0, p + 1))
        inst = new_instance(p, s_bar)
        constraints = []
        for _ in range(int(rng.integers(0, 7))):
            kind = (CertificateKind.AT_LEAST_ONE_ATTACKED if rng.uniform() < 0.8
                    else CertificateKind.ALL_UNATTACKED)
            size = int(rng.integers(1, p + 1))
            sensors = tuple(sorted(rng.choice(p, size=size, replace=False).tolist()))
            constraints.append((kind, sensors))
            inst.add_constraint(Certificate(kind, frozenset(sensors)))
        got = inst.solve()
        expected = any(
            _satisfies(np.array(bits), s_bar, constraints)
            for bits in itertools.product([False, True], repeat=p)
        )
        assert (got is not None) == expected
        if got is not None:
            assert _satisfies(got.b, s_bar, constraints)
    _report(9, "solver agrees with exhaustive enumeration on 1000 random constraint sets",
            started)


# ---------------------------------------------------------------------------
# 10. uniqueness boundary
# ---------------------------------------------------------------------------


def test_criterion_10_uniqueness_boundary():
    started = time.time()
    # constructed failures of the observability requirement admit several
    # minimal explanations
    model, stack, window = scalar_sensors(2, [1.0, 4.0], s_bar=1)
    assert len(brute_force(model, stack, window, epsilon=1e-9).minimal) == 2
    dup = line_model([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], s_bar=1)
    dup_window = line_window(dup, [3.5, 2.0, 6.0, 6.0])
    dup_result = brute_force(dup, build_observability(dup), dup_window, epsilon=1e-9)
    assert len(dup_result.minimal) > 1

    # randomized observable instances always have exactly one minimal support
    rng = np.random.default_rng(404)
    for _ in range(500):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(5, 10))
        s_bar = int(rng.integers(1, 3))
        if p - 2 * s_bar < 1:
            s_bar = 1
        s = int(rng.integers(0, s_bar + 1))
        inst = generate_instance(n, p, s, s_bar, "2s", 0.0,
                                 seed=int(rng.integers(0, 2**31)),
                                 attack_norm=(1.0, 6.0))
        result = brute_force(inst.model, inst.stack, inst.window, epsilon=1e-6)
        assert result.minimal == (inst.attacked,)
    _report(10, "minimal support is ambiguous exactly when sparse observability fails",
            started)
