import itertools
import math

import numpy as np
import pytest

import sse.theory
from sse import SystemModel, build_observability, stack_window
from sse.attacksim import discretize_ugv, generate_instance
from sse.estimator import EstimatorConfig, estimate
from sse.theory import (
    Certificate,
    CertificateDiagnostics,
    CertificateKind,
    ConflictSearchError,
    Strategy,
    _prefix_decisions,
    certificate_agree,
    certificate_conflict,
    certificates,
    t_check,
)

from conftest import four_lines, line_model, line_window, scalar_sensors


def _residual_of(check, sensor):
    """The normalized residual of one checked sensor."""
    return check.residuals[check.sensors.index(sensor)].item()


# ---------------------------------------------------------------------------
# satisfiability checking
# ---------------------------------------------------------------------------


def test_four_lines_honest_subset_is_exact(four_lines):
    model, stack, window = four_lines
    check = t_check(stack, window, (0, 1, 3), model.noise_bounds, 1e-9)
    assert check.sat
    assert np.allclose(check.x, [2.0, 6.0], atol=1e-9)
    assert check.residual_sq <= 1e-18


def test_four_lines_full_set_rejected_with_known_minimizer(four_lines):
    model, stack, window = four_lines
    check = t_check(stack, window, (0, 1, 2, 3), model.noise_bounds, 1e-9)
    assert not check.sat
    # normal equations by hand: [[6,-2],[-2,4]] x = [0, 22]
    assert np.allclose(check.x, [2.2, 6.6], atol=1e-12)
    assert check.residual_sq == pytest.approx(2.8, abs=1e-12)
    expected = {0: 0.32, 1: 0.08, 2: 1.96, 3: 0.008}
    assert check.sensors == (0, 1, 2, 3)
    for i, value in expected.items():
        assert check.residuals[i] == pytest.approx(value, abs=1e-12)


def test_single_full_rank_sensor_interpolates():
    model = SystemModel(A=np.array([[0.0, 1.0], [-0.5, 0.3]]), B=np.zeros((2, 1)),
                        C=np.array([[1.0, 0.0]]), tau=2, s_bar=0, noise_bounds=[0.0])
    stack = build_observability(model)
    x0 = np.array([0.7, -1.2])
    outputs = np.array([[x0[0]], [float(model.A[0] @ x0)]])
    window = stack_window(model, outputs, np.zeros((2, 1)))
    check = t_check(stack, window, (0,), model.noise_bounds, 1e-10)
    assert check.sat and not check.rank_deficient
    assert np.allclose(check.x, x0, atol=1e-9)


def test_attacked_sensor_in_set_rejected():
    from sse.attacksim import generate_instance

    for seed in range(5):
        inst = generate_instance(3, 5, 1, 1, "2s", 0.0, seed=seed, attack_norm=5.0)
        check = t_check(inst.stack, inst.window, tuple(range(5)),
                        inst.model.noise_bounds, 1e-9)
        assert not check.sat
        assert check.residual_sq > 0


def test_noise_budget_boundary():
    # two scalar sensors disagreeing by exactly d: the least-squares residual
    # is d/sqrt(2); SAT iff that is within the stacked budget plus epsilon
    model, stack, window = scalar_sensors(2, [0.0, 1.0], s_bar=0, noise=0.5)
    residual = 1.0 / math.sqrt(2.0)
    budget = math.sqrt(2 * 0.25)
    assert residual <= budget  # sanity: this instance sits inside the budget
    assert t_check(stack, window, (0, 1), model.noise_bounds, 0.0).sat
    tight_model, tight_stack, tight_window = scalar_sensors(2, [0.0, 1.0], s_bar=0, noise=0.4)
    tight_budget = math.sqrt(2 * 0.16)
    assert residual > tight_budget
    assert not t_check(tight_stack, tight_window, (0, 1), tight_model.noise_bounds, 0.0).sat
    # a large enough tolerance flips it back
    assert t_check(tight_stack, tight_window, (0, 1), tight_model.noise_bounds,
                   residual - tight_budget + 1e-12).sat


def test_rank_deficient_set_flagged_not_error():
    from sse.attacksim import discretize_ugv

    ugv = discretize_ugv()
    stack = build_observability(ugv.model)
    outputs = np.array([[0.0, 1.0, 1.0], [0.1, 1.0, 1.0]])
    window = stack_window(ugv.model, outputs, np.zeros((2, 1)))
    check = t_check(stack, window, (1, 2), ugv.model.noise_bounds, 1e-9)
    assert check.rank_deficient
    assert check.sat  # both encoders agree; minimum-norm solution returned
    assert np.isfinite(check.x).all()


def test_t_check_input_validation(four_lines):
    model, stack, window = four_lines
    with pytest.raises(ValueError, match="non-empty"):
        t_check(stack, window, (), model.noise_bounds, 0.0)
    with pytest.raises(ValueError, match="epsilon"):
        t_check(stack, window, (0,), model.noise_bounds, -1.0)


def test_least_squares_optimality_property():
    rng = np.random.default_rng(12)
    from sse.attacksim import generate_instance

    for seed in range(10):
        inst = generate_instance(4, 6, 1, 1, "2s", 0.1, seed=seed)
        sensors = tuple(sorted(rng.choice(6, size=4, replace=False).tolist()))
        check = t_check(inst.stack, inst.window, sensors, inst.model.noise_bounds, 0.01)
        o_i = inst.stack.rows(sensors)
        y_i = inst.window.stacked(sensors)
        gradient = np.linalg.norm(o_i.T @ (y_i - o_i @ check.x))
        assert gradient <= 1e-8 * np.linalg.norm(o_i, 2) * max(np.linalg.norm(y_i), 1.0)


def test_projector_idempotence():
    from sse.attacksim import generate_instance

    for seed in range(5):
        inst = generate_instance(3, 5, 0, 1, "2s", 0.0, seed=seed)
        sensors = (0, 1, 2, 3)
        o_i = inst.stack.rows(sensors)
        projector = np.eye(o_i.shape[0]) - o_i @ np.linalg.pinv(o_i)
        assert np.allclose(projector @ projector, projector, atol=1e-10)


def test_dead_sensor_sorts_last():
    model = line_model([[1.0, 1.0], [0.0, 0.0], [-1.0, 1.0]], s_bar=1)
    stack = build_observability(model)
    window = line_window(model, [8.0, 0.0, 4.0])
    check = t_check(stack, window, (0, 1, 2), model.noise_bounds, 1e-9)
    assert _residual_of(check, 1) == math.inf


# ---------------------------------------------------------------------------
# conflict certificates
# ---------------------------------------------------------------------------


def test_four_lines_conflict_found_on_first_candidate(four_lines):
    model, stack, window = four_lines
    check = t_check(stack, window, (0, 1, 2, 3), model.noise_bounds, 1e-9)
    diag = CertificateDiagnostics()
    cert = certificate_conflict(stack, window, check, 1, 1e-9,
                                model.noise_bounds, diagnostics=diag)
    assert cert.kind is CertificateKind.AT_LEAST_ONE_ATTACKED
    # seed = two lowest residuals {3, 1}; first candidate = max residual 2
    assert cert.sensors == frozenset({1, 2, 3})
    assert cert.suspect == 2
    assert len(cert.sensors) <= 4 - 2 * 1 + 1


def test_four_lines_shrink_pass_is_noop(four_lines):
    model, stack, window = four_lines
    check = t_check(stack, window, (0, 1, 2, 3), model.noise_bounds, 1e-9)
    with_shrink = certificate_conflict(stack, window, check, 1, 1e-9,
                                       model.noise_bounds, shrink=True)
    without = certificate_conflict(stack, window, check, 1, 1e-9,
                                   model.noise_bounds, shrink=False)
    assert with_shrink.sensors == without.sensors


def test_conflict_walk_needs_two_candidates():
    # all lines pass through (2, 6) except sensor 2, which carries the attack;
    # the residual ranking puts an honest line first in the candidate walk
    dirs = np.array([[0.018, -1.0], [-0.173, -0.985], [-0.803, -0.597], [-0.609, 0.793]])
    model = line_model(dirs, s_bar=1)
    stack = build_observability(model)
    offsets = dirs @ np.array([2.0, 6.0])
    offsets[2] += 2.0
    window = line_window(model, offsets)
    check = t_check(stack, window, (0, 1, 2, 3), model.noise_bounds, 1e-9)
    assert not check.sat
    ranked = sorted(check.sensors, key=lambda i: (_residual_of(check, i), i))
    seed, candidates = ranked[:2], ranked[2:][::-1]
    first = t_check(stack, window, seed + [candidates[0]], model.noise_bounds, 1e-9)
    assert first.sat  # the max-residual line passes through the seed intersection
    diag = CertificateDiagnostics()
    cert = certificate_conflict(stack, window, check, 1, 1e-9,
                                model.noise_bounds, shrink=False, diagnostics=diag)
    assert diag.theory_checks == 2
    assert 2 in cert.sensors


def test_shrink_drops_high_kernel_members():
    # sensors 0-2 pin the state; sensor 3 duplicates sensor 0 and sensor 4 is
    # nearly dead, so the shrink pass can drop trailing members
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    model = line_model(rows, s_bar=1)
    stack = build_observability(model)
    offsets = rows @ np.array([2.0, 6.0])
    offsets[2] += 3.0  # attack the diagonal line
    window = line_window(model, offsets)
    sensors = (0, 1, 2, 3, 4)
    check = t_check(stack, window, sensors, model.noise_bounds, 1e-9)
    assert not check.sat
    shrunk = certificate_conflict(stack, window, check, 1, 1e-9,
                                  model.noise_bounds, shrink=True)
    loose = certificate_conflict(stack, window, check, 1, 1e-9,
                                 model.noise_bounds, shrink=False)
    assert shrunk.sensors <= loose.sensors
    assert 2 in shrunk.sensors


def test_conflict_requires_unsat_and_enough_sensors(four_lines):
    model, stack, window = four_lines
    good = t_check(stack, window, (0, 1, 3), model.noise_bounds, 1e-9)
    with pytest.raises(ValueError, match="UNSAT"):
        certificate_conflict(stack, window, good, 1, 1e-9, model.noise_bounds)
    # p - 2*s_bar = 3 here, so a 3-sensor conflict is too small to search
    small_model, small_stack, small_window = scalar_sensors(5, [0.0, 0.0, 9.0, 0.0, 0.0])
    bad = t_check(small_stack, small_window, (0, 1, 2), small_model.noise_bounds, 1e-9)
    assert not bad.sat
    with pytest.raises(ValueError, match="more than"):
        certificate_conflict(small_stack, small_window, bad, 1, 1e-9,
                             small_model.noise_bounds)


def test_conflict_walk_can_fail_under_noise():
    # noisy lines that are pairwise consistent with the noise budget but
    # jointly inconsistent: the linear walk exhausts its candidates
    dirs = np.array([[0.9154, -0.4026], [-0.8465, -0.5324], [0.8052, -0.593],
                     [-0.1799, -0.9837]])
    offsets = np.array([-1.6355, -6.0752, -2.9985, -5.1564])
    model = line_model(dirs, s_bar=1, noise=1.0)
    stack = build_observability(model)
    window = line_window(model, offsets)
    check = t_check(stack, window, (0, 1, 2, 3), model.noise_bounds, 0.0)
    assert not check.sat
    with pytest.raises(ConflictSearchError):
        certificate_conflict(stack, window, check, 1, 0.0,
                             model.noise_bounds)
    certs, diag = certificates(stack, window, check, 1, 0.0,
                               model.noise_bounds, Strategy.CONFLICT)
    assert diag.conflict_fallback
    assert certs == [Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED,
                                 frozenset({0, 1, 2, 3}))]


def test_conflict_certificates_intersect_true_support():
    from sse.attacksim import generate_instance

    for seed in range(20):
        inst = generate_instance(3, 7, 2, 2, "2s", 0.0, seed=seed, attack_norm=(2.0, 8.0))
        sensors = tuple(range(7))
        check = t_check(inst.stack, inst.window, sensors, inst.model.noise_bounds, 1e-8)
        assert not check.sat
        cert = certificate_conflict(inst.stack, inst.window, check, 2, 1e-8,
                                    inst.model.noise_bounds)
        assert cert.sensors & set(inst.attacked)
        assert len(cert.sensors) <= 7 - 2 * 2 + 1


# ---------------------------------------------------------------------------
# the aimed walk: one seed fit, the concentration step, its skip rules
# ---------------------------------------------------------------------------


def _unaimed_walk(stack, window, check, s_bar, epsilon, noise_bounds):
    """The walk seeded and aimed from the failed check's own residuals:
    (conflict, suspect, trials checked), or None when no trial fails."""
    ranked = sorted(check.sensors, key=lambda i: (_residual_of(check, i), i))
    seed_size = stack.p - 2 * s_bar
    for checks, cand in enumerate(ranked[seed_size:][::-1], start=1):
        trial = ranked[:seed_size] + [cand]
        if not t_check(stack, window, trial, noise_bounds, epsilon).sat:
            suspect = max(trial, key=lambda i: (_residual_of(check, i), i))
            return frozenset(trial), suspect, checks
    return None


def _counting_checks(monkeypatch):
    """Record every t_check and _check made in theory as (name, sensors)."""
    checked = []
    real_t, real_check = sse.theory.t_check, sse.theory._check
    monkeypatch.setattr(sse.theory, "t_check",
                        lambda st, w, sensors, *a: checked.append(
                            ("t_check", tuple(sorted(sensors)))) or real_t(st, w, sensors, *a))
    monkeypatch.setattr(sse.theory, "_check",
                        lambda st, w, sensors, *a: checked.append(("_check", sensors))
                        or real_check(st, w, sensors, *a))
    return checked


def test_one_candidate_walk_takes_the_checked_set(monkeypatch, four_lines):
    # p - 2*s_bar = 2 and three sensors checked: the only trial is the checked
    # set, which the check already rejected
    model, stack, window = four_lines
    check = t_check(stack, window, (0, 1, 2), model.noise_bounds, 1e-9)
    assert not check.sat
    checked = _counting_checks(monkeypatch)
    diag = CertificateDiagnostics()
    cert = certificate_conflict(stack, window, check, 1, 1e-9, model.noise_bounds,
                                shrink=False, diagnostics=diag)
    assert cert.sensors == frozenset(check.sensors)
    assert diag.theory_checks == 0 and checked == []


def test_exactly_determined_seed_walks_unaimed():
    # n = tau = 2 and one seed sensor: the seed fit interpolates the seed, so
    # the walk keeps the check's ranking and makes no seed fit
    cases = 0
    for seed in range(6):
        inst = generate_instance(2, 5, 2, 2, "2s", 0.0, seed=seed, attack_norm=(2.0, 8.0))
        model, stack, window = inst.model, inst.stack, inst.window
        assert stack.tau * (stack.p - 2 * 2) == stack.n
        for size in (3, 4, 5):  # at least two candidates
            for trusted in itertools.combinations(range(5), size):
                check = t_check(stack, window, trusted, model.noise_bounds, 1e-6)
                if check.sat:
                    continue
                want = _unaimed_walk(stack, window, check, 2, 1e-6, model.noise_bounds)
                if want is None:
                    with pytest.raises(ConflictSearchError):
                        certificate_conflict(stack, window, check, 2, 1e-6,
                                             model.noise_bounds, shrink=False)
                    continue
                diag = CertificateDiagnostics()
                cert = certificate_conflict(stack, window, check, 2, 1e-6,
                                            model.noise_bounds, shrink=False,
                                            diagnostics=diag)
                assert (cert.sensors, cert.suspect, diag.theory_checks) == want
                cases += 1
    assert cases > 0


def test_certificates_share_one_seed_fit_with_agree(monkeypatch):
    found = 0
    for seed in range(20):
        inst = generate_instance(4, 10, 2, 2, "3s", 0.0, seed=seed, attack_norm=(2.0, 6.0))
        model, stack, window = inst.model, inst.stack, inst.window
        check = t_check(stack, window, tuple(range(10)), model.noise_bounds, 1e-8)
        assert not check.sat
        alone = certificate_agree(stack, window, check, 2, 1e-8, model.noise_bounds)
        seed_set = tuple(sorted(sorted(check.sensors,
                                       key=lambda i: (_residual_of(check, i), i))[:6]))
        with monkeypatch.context() as m:
            checked = _counting_checks(m)
            certs, diag = certificates(stack, window, check, 2, 1e-8, model.noise_bounds,
                                       Strategy.CONFLICT_AGREE, agree_allowed=True)
        assert checked.count(("t_check", seed_set)) == 1
        agree = [c for c in certs if c.kind is CertificateKind.ALL_UNATTACKED]
        assert agree == ([] if alone is None else [alone])
        assert bool(agree) == (alone is not None)
        found += alone is not None
    assert found > 0


def test_aimed_suspect_has_the_largest_refit_residual(monkeypatch):
    # desk scale: tau * (p - 2*s_bar) = 40 > n = 25, so the walk re-ranks by
    # the residuals at the seed fit and picks its suspect from them
    inst = generate_instance(25, 60, 18, 20, "2s", 0.0, seed=9000 + 97 * 18)
    model, stack, window = inst.model, inst.stack, inst.window
    rng = np.random.default_rng(5)
    for trusted in _random_trusted(rng, 60, 20, 10):
        check = t_check(stack, window, trusted, model.noise_bounds, 1e-6)
        if check.sat:
            continue
        ranked = sorted(check.sensors, key=lambda i: (_residual_of(check, i), i))
        fit = t_check(stack, window, ranked[:20], model.noise_bounds, 1e-6)
        with monkeypatch.context() as m:
            checked = _counting_checks(m)
            certs, _ = certificates(stack, window, check, 20, 1e-6, model.noise_bounds,
                                    Strategy.CONFLICT)
        # the seed fit is the only t_check: the shrink batch decides the trial
        assert [name for name, _ in checked].count("t_check") == 1
        cert = certs[0]
        assert cert.kind is CertificateKind.AT_LEAST_ONE_ATTACKED
        refit = {i: float(np.sum((window.blocks[i] - stack.blocks[i] @ fit.x) ** 2))
                 / float(stack.block_norms_sq[i]) for i in cert.sensors}
        assert cert.suspect == max(cert.sensors, key=lambda i: (refit[i], i))
        assert not t_check(stack, window, cert.sensors, model.noise_bounds, 1e-6).sat
        assert certificate_conflict(stack, window, check, 20, 1e-6, model.noise_bounds,
                                    seed_fit=fit) == cert


# ---------------------------------------------------------------------------
# agree certificates
# ---------------------------------------------------------------------------


def test_four_lines_agree_certifies_lowest_residual_pair(four_lines):
    model, stack, window = four_lines
    check = t_check(stack, window, (0, 1, 2, 3), model.noise_bounds, 1e-9)
    cert = certificate_agree(stack, window, check, 1, 1e-9,
                             model.noise_bounds)
    assert cert is not None
    assert cert.kind is CertificateKind.ALL_UNATTACKED
    # the two smallest normalized residuals belong to honest lines 3 and 1
    assert cert.sensors == frozenset({1, 3})


def test_agree_absent_when_seed_inconsistent():
    # perturb one honest line beyond the tolerance so the seed pair conflicts
    model = line_model([[1.0, 1.0], [-1.0, 1.0], [0.0, 1.0], [-2.0, 1.0]], s_bar=1)
    stack = build_observability(model)
    window = line_window(model, [8.0, 4.0 + 0.5, 8.0, 2.0 + 0.4])
    check = t_check(stack, window, (0, 1, 2, 3), model.noise_bounds, 1e-9)
    assert not check.sat
    ranked = sorted(check.sensors, key=lambda i: (_residual_of(check, i), i))
    seed_check = t_check(stack, window, ranked[:2], model.noise_bounds, 1e-9)
    if not seed_check.sat:  # construction sanity: the seed itself conflicts
        assert certificate_agree(stack, window, check, 1, 1e-9,
                                 model.noise_bounds) is None


def test_agree_single_sensor_edge():
    # p = 2*s_bar + 1: the seed is one full-rank sensor, always consistent
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    model = SystemModel(A=np.eye(2), B=np.zeros((2, 1)), C=rows, tau=2, s_bar=1,
                        noise_bounds=np.zeros(3))
    stack = build_observability(model)
    outputs = np.vstack([rows @ [1.0, 2.0]] * 2)
    outputs[:, 2] += 5.0
    window = stack_window(model, outputs, np.zeros((2, 1)))
    check = t_check(stack, window, (0, 1, 2), model.noise_bounds, 1e-9)
    assert not check.sat
    cert = certificate_agree(stack, window, check, 1, 1e-9,
                             model.noise_bounds)
    assert cert is not None and len(cert.sensors) == 1


def test_agree_certificates_avoid_true_support():
    from sse.attacksim import generate_instance

    found = 0
    for seed in range(20):
        inst = generate_instance(4, 10, 2, 2, "3s", 0.0, seed=seed, attack_norm=(2.0, 6.0))
        sensors = tuple(range(10))
        check = t_check(inst.stack, inst.window, sensors, inst.model.noise_bounds, 1e-8)
        assert not check.sat
        cert = certificate_agree(inst.stack, inst.window, check, 2, 1e-8,
                                 inst.model.noise_bounds)
        if cert is not None:
            found += 1
            assert not (cert.sensors & set(inst.attacked))
            assert len(cert.sensors) == 10 - 2 * 2
    assert found > 0


# ---------------------------------------------------------------------------
# strategy dispatch
# ---------------------------------------------------------------------------


def test_trivial_strategy_blames_all_checked(four_lines):
    model, stack, window = four_lines
    check = t_check(stack, window, (0, 1, 2, 3), model.noise_bounds, 1e-9)
    certs, _ = certificates(stack, window, check, 1, 1e-9,
                            model.noise_bounds, Strategy.TRIVIAL)
    assert len(certs) == 1
    assert certs[0].sensors == frozenset({0, 1, 2, 3})


def test_conflict_agree_emits_both_when_allowed(four_lines):
    model, stack, window = four_lines
    check = t_check(stack, window, (0, 1, 2, 3), model.noise_bounds, 1e-9)
    certs, diag = certificates(stack, window, check, 1, 1e-9,
                               model.noise_bounds, Strategy.CONFLICT_AGREE,
                               agree_allowed=True)
    kinds = [c.kind for c in certs]
    assert kinds == [CertificateKind.AT_LEAST_ONE_ATTACKED, CertificateKind.ALL_UNATTACKED]


def test_conflict_agree_suppressed_without_gate(four_lines):
    model, stack, window = four_lines
    check = t_check(stack, window, (0, 1, 2, 3), model.noise_bounds, 1e-9)
    certs, _ = certificates(stack, window, check, 1, 1e-9,
                            model.noise_bounds, Strategy.CONFLICT_AGREE,
                            agree_allowed=False)
    assert [c.kind for c in certs] == [CertificateKind.AT_LEAST_ONE_ATTACKED]
    # the closed gate is what suppressed it: the same check with it open emits one
    opened, _ = certificates(stack, window, check, 1, 1e-9,
                             model.noise_bounds, Strategy.CONFLICT_AGREE,
                             agree_allowed=True)
    assert CertificateKind.ALL_UNATTACKED in [c.kind for c in opened]


def test_small_sensor_sets_fall_back_to_trivial():
    model, stack, window = scalar_sensors(3, [0.0, 0.0, 5.0], s_bar=1)
    check = t_check(stack, window, (0, 2), model.noise_bounds, 1e-9)
    assert not check.sat
    certs, _ = certificates(stack, window, check, 1, 1e-9,
                            model.noise_bounds, Strategy.CONFLICT)
    assert certs[0].sensors == frozenset({0, 2})


def test_above_threshold_attacks_rejected_in_every_large_set():
    # completeness: any sensor set of size >= p - s_bar containing an
    # above-threshold attacked sensor must fail the check
    import itertools

    from sse import RobustnessConstants, compute_delta_s, compute_o_bar
    from sse.attacksim import generate_instance
    from sse.estimator import delta_bound

    rng = np.random.default_rng(21)
    for _ in range(10):
        seed = int(rng.integers(0, 2**31))
        n, p, s_bar, noise, eps = 3, 6, 1, 0.2, 0.01
        probe = generate_instance(n, p, 1, s_bar, "2s", noise, seed=seed,
                                  attack_norm=[1.0])
        delta = compute_delta_s(probe.stack, s_bar)
        o_bar = compute_o_bar(probe.stack, p - s_bar)
        bounds = delta_bound(probe.model, RobustnessConstants(o_bar, delta), eps)
        norm = math.sqrt(bounds.detection_threshold_sq) * 1.4
        inst = generate_instance(n, p, 1, s_bar, "2s", noise, seed=seed,
                                 attack_norm=[norm])
        attacked = inst.attacked[0]
        for size in range(p - s_bar, p + 1):
            for subset in itertools.combinations(range(p), size):
                if attacked not in subset:
                    continue
                check = t_check(inst.stack, inst.window, subset,
                                inst.model.noise_bounds, eps)
                assert not check.sat


def test_noiseless_sat_checks_pin_the_true_state():
    # any accepted hypothesis over at least p - s_bar sensors recovers the
    # state exactly on noiseless observable instances
    import itertools

    from sse.attacksim import generate_instance

    for seed in range(6):
        inst = generate_instance(3, 6, 1, 1, "2s", 0.0, seed=seed, attack_norm=4.0)
        for size in range(5, 7):
            for subset in itertools.combinations(range(6), size):
                check = t_check(inst.stack, inst.window, subset,
                                inst.model.noise_bounds, 1e-6)
                if check.sat:
                    err = np.linalg.norm(check.x - inst.x_true)
                    assert err <= 1e-6 * (1 + np.linalg.norm(inst.x_true))


# ---------------------------------------------------------------------------
# the lean check against the earlier implementation
# ---------------------------------------------------------------------------


def _reference_t_check(stack, window, sensors, noise_bounds, epsilon):
    """The check as it was before its per-call overhead was removed."""
    sensors = tuple(sorted(set(int(i) for i in sensors)))
    noise_bounds = np.asarray(noise_bounds, dtype=float)
    idx = list(sensors)
    o_i = stack.rows(idx)
    y_i = window.stacked(idx)
    x = None
    rank_deficient = False
    gram = stack.gram_blocks[idx].sum(axis=0)
    rhs = o_i.T @ y_i
    scale = float(np.linalg.norm(y_i)) * math.sqrt(
        float(np.sum(stack.block_norms_sq[idx]))
    )
    try:
        cand = np.linalg.solve(gram, rhs)
        if np.linalg.norm(rhs - gram @ cand) <= 1e-9 * max(scale, 1e-300):
            x = cand
    except np.linalg.LinAlgError:
        pass
    if x is None:
        x, _, rank, _ = np.linalg.lstsq(o_i, y_i, rcond=None)
        rank_deficient = rank < stack.n
    fit = o_i @ x
    diff = y_i - fit
    tau = stack.tau
    block_res = (diff * diff).reshape(len(idx), tau).sum(axis=1)
    residual_sq = float(block_res.sum())
    psi_sq = float(np.sum(noise_bounds[idx] ** 2))
    sat = math.sqrt(residual_sq) <= math.sqrt(psi_sq) + epsilon
    norms_sq = stack.block_norms_sq[idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = np.where(norms_sq > 0, block_res / norms_sq, math.inf)
    per_sensor = dict(zip(sensors, normalized.tolist()))
    return sat, x, residual_sq, per_sensor, rank_deficient


def _desk_instance(s=8):
    return generate_instance(25, 60, s, 20, "2s", 0.0, seed=9000 + 97 * s)


def _ugv_case():
    ugv = discretize_ugv()
    stack = build_observability(ugv.model)
    outputs = np.array([[0.3, 1.0, 1.2], [0.4, 0.9, 1.1]])
    return ugv.model, stack, stack_window(ugv.model, outputs, np.zeros((2, 1)))


def _dead_block_case():
    model = line_model([[1.0, 1.0], [0.0, 0.0], [-1.0, 1.0], [0.0, 1.0]], s_bar=1)
    return model, build_observability(model), line_window(model, [8.0, 0.0, 4.0, 7.0])


@pytest.mark.parametrize("case", ["ugv", "four_lines", "desk", "dead_block"])
def test_t_check_matches_reference_bit_for_bit(case, four_lines):
    if case == "ugv":
        model, stack, window = _ugv_case()
    elif case == "four_lines":
        model, stack, window = four_lines
    elif case == "desk":
        inst = _desk_instance()
        model, stack, window = inst.model, inst.stack, inst.window
    else:
        model, stack, window = _dead_block_case()
        assert stack.dead_block
    rng = np.random.default_rng(7)
    for _ in range(60):
        size = int(rng.integers(1, stack.p + 1))
        sensors = rng.choice(stack.p, size=size, replace=False).tolist()
        for epsilon in (0.0, 1e-6):
            check = t_check(stack, window, sensors, model.noise_bounds, epsilon)
            sat, x, residual_sq, per_sensor, rank_deficient = _reference_t_check(
                stack, window, sensors, model.noise_bounds, epsilon)
            assert check.x.tobytes() == x.tobytes()
            assert check.residual_sq == residual_sq
            assert dict(zip(check.sensors, check.residuals.tolist())) == per_sensor
            assert list(check.sensors) == list(per_sensor)
            undetermined = stack.tau * len(set(sensors)) < stack.n
            assert (check.sat, check.rank_deficient) == (sat, rank_deficient or undetermined)
    if case == "dead_block":
        check = t_check(stack, window, (0, 1, 2), model.noise_bounds, 1e-9)
        assert _residual_of(check, 1) == math.inf


def test_t_check_flags_undetermined_sets():
    # 12 sensors give 24 equations for 25 states
    inst = _desk_instance(8)
    rng = np.random.default_rng(11)
    for _ in range(200):
        sensors = rng.choice(inst.stack.p, size=12, replace=False).tolist()
        check = t_check(inst.stack, inst.window, sensors, inst.model.noise_bounds, 1e-6)
        assert check.rank_deficient


# ---------------------------------------------------------------------------
# the batched shrink pass
# ---------------------------------------------------------------------------


def _shrink_order(stack, sensors):
    return sorted(sensors, key=lambda i: (int(stack.block_kernel_dims[i]), i))


def _walk_conflicts(model, stack, window, s_bar, trusted_sets, epsilon):
    """Unshrunk conflicts of the walk, in shrink order, over the given sets."""
    out = []
    for trusted in trusted_sets:
        check = t_check(stack, window, trusted, model.noise_bounds, epsilon)
        if check.sat or len(check.sensors) <= stack.p - 2 * s_bar:
            continue
        try:
            cert = certificate_conflict(stack, window, check, s_bar, epsilon,
                                        model.noise_bounds, shrink=False)
        except ConflictSearchError:
            continue
        out.append(_shrink_order(stack, cert.sensors))
    return out


def _random_trusted(rng, p, s_bar, count):
    return [sorted(set(range(p)) - set(rng.choice(p, size=s_bar, replace=False).tolist()))
            for _ in range(count)]


def _plant(seed):
    n, p, s_bar, tau = 4, 12, 2, 3
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a *= 0.95 / max(abs(np.linalg.eigvals(a)))
    model = SystemModel(A=a, B=rng.normal(size=(n, 1)), C=rng.normal(size=(p, n)),
                        tau=tau, s_bar=s_bar, noise_bounds=np.zeros(p))
    x0 = rng.normal(size=n) * 3.0
    outputs = np.array([model.C @ np.linalg.matrix_power(a, k) @ x0 for k in range(tau)])
    attacked = rng.choice(p, size=s_bar, replace=False)
    outputs[:, attacked] += rng.uniform(1.0, 10.0, size=(tau, s_bar))
    return model, build_observability(model), stack_window(model, outputs, np.zeros((tau, 1)))


def _shrink_cases():
    cases = []
    inst = _desk_instance()
    rng = np.random.default_rng(3)
    cases.append((inst.model, inst.stack, inst.window, 20, 1e-6,
                  _random_trusted(rng, 60, 20, 6)))
    for seed in range(3):
        model, stack, window = _plant(seed)
        cases.append((model, stack, window, 2, 1e-6, _random_trusted(rng, 12, 2, 12)))
    for spec in ((2, 7, 2, 2, "3s", 1517215338), (4, 5, 1, 1, "3s", 1473099080),
                 (3, 7, 2, 2, "3s", 1896709351)):
        inst = generate_instance(*spec[:5], 0.05, seed=spec[5], attack_norm=(0.05, 2.0))
        p = inst.model.p
        cases.append((inst.model, inst.stack, inst.window, spec[3], 1e-6,
                      [list(range(p))] + _random_trusted(rng, p, 1, 8)))
    return cases


@pytest.mark.parametrize("case", range(7))
def test_batched_prefix_decisions_match_t_check(monkeypatch, case):
    monkeypatch.setattr(sse.theory, "MIN_BATCH_PREFIXES", 1)
    model, stack, window, s_bar, epsilon, trusted_sets = _shrink_cases()[case]
    conflicts = _walk_conflicts(model, stack, window, s_bar, trusted_sets, epsilon)
    assert conflicts
    decided = 0
    for ordered in conflicts:
        table = _prefix_decisions(stack, window, ordered, model.noise_bounds, epsilon)
        for keep in range(1, len(ordered) + 1):
            if keep in table:
                decided += 1
                assert table[keep] == t_check(stack, window, ordered[:keep],
                                              model.noise_bounds, epsilon).sat
            else:  # only determined prefixes are ever batched
                assert keep * stack.tau < stack.n or not table
    assert decided > 0


def _sequential_shrink(model, stack, window, ordered, epsilon):
    """The shrink pass with one t_check per prefix: (kept sensors, checks)."""
    keep, checks = len(ordered) - 1, 0
    while keep >= 1:
        checks += 1
        if t_check(stack, window, ordered[:keep], model.noise_bounds, epsilon).sat:
            break
        keep -= 1
    return frozenset(ordered[: keep + 1]), checks


@pytest.mark.parametrize("min_batch", [1, 10**6])
def test_shrink_pass_matches_sequential_shrink(monkeypatch, min_batch):
    # both sides of the batching threshold give the sequential pass's answer
    monkeypatch.setattr(sse.theory, "MIN_BATCH_PREFIXES", min_batch)
    for model, stack, window, s_bar, epsilon, trusted_sets in _shrink_cases():
        for trusted in trusted_sets:
            check = t_check(stack, window, trusted, model.noise_bounds, epsilon)
            if check.sat or len(check.sensors) <= stack.p - 2 * s_bar:
                continue
            walk = CertificateDiagnostics()
            try:
                loose = certificate_conflict(stack, window, check, s_bar, epsilon,
                                             model.noise_bounds, shrink=False,
                                             diagnostics=walk)
            except ConflictSearchError:
                continue
            diag = CertificateDiagnostics()
            cert = certificate_conflict(stack, window, check, s_bar, epsilon,
                                        model.noise_bounds, diagnostics=diag)
            kept, checks = _sequential_shrink(model, stack, window,
                                              _shrink_order(stack, loose.sensors), epsilon)
            assert cert.sensors == kept
            assert diag.theory_checks == walk.theory_checks + checks


def test_rank_deficient_prefix_goes_through_the_check(monkeypatch):
    # sensors 0 and 1 are the same line, so the conflict's two-sensor prefix
    # has a singular Gram matrix: the batch decides nothing and every prefix
    # goes through the check
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    model = line_model(rows, s_bar=1)
    stack = build_observability(model)
    offsets = rows @ np.array([2.0, 6.0])
    offsets[4] += 3.0
    window = line_window(model, offsets)
    check = t_check(stack, window, range(5), model.noise_bounds, 1e-6)
    loose = certificate_conflict(stack, window, check, 1, 1e-6,
                                 model.noise_bounds, shrink=False)
    ordered = _shrink_order(stack, loose.sensors)
    assert ordered == [0, 1, 3, 4]
    monkeypatch.setattr(sse.theory, "MIN_BATCH_PREFIXES", 1)
    assert _prefix_decisions(stack, window, ordered, model.noise_bounds, 1e-6) == {}
    # without the pair, the same sensors are all decided in one batch: the
    # prefixes of 2 and 3 sensors and the full set
    assert len(_prefix_decisions(stack, window, [1, 3, 4, 2], model.noise_bounds,
                                 1e-6)) == 3
    checked = []
    real = sse.theory._check
    monkeypatch.setattr(sse.theory, "_check",
                        lambda *args: checked.append(args[2]) or real(*args))
    cert = certificate_conflict(stack, window, check, 1, 1e-6,
                                model.noise_bounds)
    kept, _ = _sequential_shrink(model, stack, window, ordered, 1e-6)
    assert cert.sensors == kept
    assert (0, 1, 3) in checked
    assert not t_check(stack, window, cert.sensors, model.noise_bounds, 1e-6).sat


def test_every_conflict_certificate_is_rejected(monkeypatch):
    # one full desk-scale solve: the batch decides most shrink prefixes, and
    # every conflict it helps build must still fail the check
    batches = []
    real = sse.theory._prefix_decisions

    def counting(*args):
        table = real(*args)
        batches.append(len(table))
        return table

    monkeypatch.setattr(sse.theory, "_prefix_decisions", counting)
    inst = _desk_instance(8)
    config = EstimatorConfig(strategy=Strategy.CONFLICT, epsilon=1e-6)
    result = estimate(inst.model, inst.stack, inst.window, config)
    assert result.feasible and set(inst.attacked) <= set(result.support)
    conflicts = [c for c in result.certificates
                 if c.kind is CertificateKind.AT_LEAST_ONE_ATTACKED]
    assert len(conflicts) == result.iterations - 1
    assert sum(batches) > 0
    for cert in conflicts:
        assert not t_check(inst.stack, inst.window, cert.sensors,
                           inst.model.noise_bounds, 1e-6).sat
