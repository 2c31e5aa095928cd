import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sse.estimator
import sse.theory
from sse import StackedWindow, SystemModel, build_observability, stack_window
from sse.attacksim import (
    alternating_encoder_scenario,
    discretize_ugv,
    generate_instance,
    run_closed_loop,
)
from sse.estimator import EstimatorConfig, estimate, minimal_support_estimate
from sse.oracle import brute_force
from sse.satcore import SolveStats
from sse.theory import (
    Certificate,
    CertificateKind,
    ConflictSearchError,
    DEFAULT_EPSILON,
    Strategy,
    _refit_ranking,
    _walk_order as _theory_walk_order,
    certificate_agree,
    certificate_conflict,
    certificates,
    t_check,
)

from conftest import FIVE_LINES, four_lines, line_model, line_window, scalar_sensors, stack_rows


def _residuals_at(stack, window, x):
    """Every sensor's normalized residual at x: its block's squared residual
    over its squared norm, inf for a dead sensor."""
    diff = window.blocks - stack.blocks @ x
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(stack.block_norms_sq > 0,
                        (diff * diff).sum(axis=1) / stack.block_norms_sq, math.inf)


def _residual_of(stack, window, check, sensor):
    """The normalized residual of one sensor at the check's minimizer."""
    return _residuals_at(stack, window, check.x)[sensor].item()


def _ranked(stack, window, check, x=None):
    """The checked sensors by ascending normalized residual at ``x``, the
    check's minimizer by default, then index."""
    res = _residuals_at(stack, window, check.x if x is None else x)
    return sorted(check.sensors, key=lambda i: (res[i], i))


def _conflict(model, window, check, s_bar, epsilon):
    """The conflict certificate and counts ``certificates`` gives under
    the conflict strategy."""
    certs, counts = certificates(model, window, check, s_bar, epsilon, Strategy.CONFLICT)
    assert len(certs) == 1
    return certs[0], counts


def _agree(model, window, check, s_bar, epsilon):
    """The agree certificate ``certificates`` gives under conflict_agree, or
    None."""
    certs, _ = certificates(model, window, check, s_bar, epsilon, Strategy.CONFLICT_AGREE)
    agree = [c for c in certs if c.kind is CertificateKind.ALL_UNATTACKED]
    assert len(agree) <= 1
    return agree[0] if agree else None


# ---------------------------------------------------------------------------
# satisfiability checking
# ---------------------------------------------------------------------------


def test_four_lines_honest_subset_is_exact(four_lines):
    model, _, window = four_lines
    check = t_check(model, window, (0, 1, 3), 1e-9)
    assert check.sat
    assert np.allclose(check.x, [2.0, 6.0], atol=1e-9)
    assert check.residual_sq <= 1e-18


def test_four_lines_full_set_rejected_with_known_minimizer(four_lines):
    model, stack, window = four_lines
    check = t_check(model, window, (0, 1, 2, 3), 1e-9)
    assert not check.sat
    # normal equations by hand: [[6,-2],[-2,4]] x = [0, 22]
    assert np.allclose(check.x, [2.2, 6.6], atol=1e-12)
    assert check.residual_sq == pytest.approx(2.8, abs=1e-12)
    expected = {0: 0.32, 1: 0.08, 2: 1.96, 3: 0.008}
    assert check.sensors == (0, 1, 2, 3)
    for i, value in expected.items():
        assert _residual_of(stack, window, check, i) == pytest.approx(value, abs=1e-12)


def test_single_full_rank_sensor_interpolates():
    model = SystemModel(A=np.array([[0.0, 1.0], [-0.5, 0.3]]), B=np.zeros((2, 1)),
                        C=np.array([[1.0, 0.0]]), tau=2, s_bar=0, noise_bounds=[0.0])
    x0 = np.array([0.7, -1.2])
    outputs = np.array([[x0[0]], [float(model.A[0] @ x0)]])
    window = stack_window(model, outputs, np.zeros((2, 1)))
    check = t_check(model, window, (0,), 1e-10)
    assert check.sat and not check.rank_deficient
    assert np.allclose(check.x, x0, atol=1e-9)


def test_attacked_sensor_in_set_rejected():
    from sse.attacksim import generate_instance

    for seed in range(5):
        inst = generate_instance(3, 5, 1, 1, "2s", 0.0, seed=seed, attack_norm=5.0)
        check = t_check(inst.model, inst.window, tuple(range(5)), 1e-9)
        assert not check.sat
        assert check.residual_sq > 0


def test_noise_budget_boundary():
    # two scalar sensors disagreeing by exactly d: the least-squares residual
    # is d/sqrt(2); SAT iff that is within the stacked budget plus epsilon
    model, _, window = scalar_sensors(2, [0.0, 1.0], s_bar=0, noise=0.5)
    residual = 1.0 / math.sqrt(2.0)
    budget = math.sqrt(2 * 0.25)
    assert residual <= budget  # sanity: this instance sits inside the budget
    assert t_check(model, window, (0, 1), 0.0).sat
    tight_model, _, tight_window = scalar_sensors(2, [0.0, 1.0], s_bar=0, noise=0.4)
    tight_budget = math.sqrt(2 * 0.16)
    assert residual > tight_budget
    assert not t_check(tight_model, tight_window, (0, 1), 0.0).sat
    # a large enough tolerance flips it back
    assert t_check(tight_model, tight_window, (0, 1), residual - tight_budget + 1e-12).sat


def test_rank_deficient_set_flagged_not_error():
    from sse.attacksim import discretize_ugv

    ugv = discretize_ugv()
    outputs = np.array([[0.0, 1.0, 1.0], [0.1, 1.0, 1.0]])
    window = stack_window(ugv.model, outputs, np.zeros((2, 1)))
    check = t_check(ugv.model, window, (1, 2), 1e-9)
    assert check.rank_deficient
    assert check.sat  # both encoders agree; minimum-norm solution returned
    assert np.isfinite(check.x).all()


def test_t_check_input_validation(four_lines):
    model, _, window = four_lines
    with pytest.raises(ValueError, match="non-empty"):
        t_check(model, window, (), 0.0)
    with pytest.raises(ValueError, match="epsilon"):
        t_check(model, window, (0,), -1.0)
    with pytest.raises(ValueError, match="epsilon"):
        t_check(model, window, (0,), float("nan"))
    # a negative index would wrap around to sensor p - 1, a float would be
    # truncated, and an index >= p would fail inside numpy
    with pytest.raises(ValueError, match="sensor index -1 out of range"):
        t_check(model, window, [-1, 0, 1], 0.0)
    with pytest.raises(ValueError, match="sensor index 0.7 is not an integer"):
        t_check(model, window, [0.7, 1, 2], 0.0)
    with pytest.raises(ValueError, match="sensor index 4 out of range"):
        t_check(model, window, [1, 4], 0.0)
    # ints and numpy integer scalars name the same set
    mixed = t_check(model, window, [np.int64(3), np.int32(0), 1], 0.0)
    plain = t_check(model, window, (0, 1, 3), 0.0)
    assert mixed.sensors == plain.sensors == (0, 1, 3)
    assert all(type(i) is int for i in mixed.sensors)
    assert mixed.x.tobytes() == plain.x.tobytes()


@pytest.mark.parametrize("rows, steps", [(5, 2), (8, 1)])
def test_t_check_rejects_a_window_of_another_length(rows, steps):
    # noise bounds of another length cannot reach the check: SystemModel
    # refuses them
    inst = generate_instance(3, 8, 1, 1, "2s", 0.0, seed=0)
    window = StackedWindow(inst.window.blocks[:rows, :steps])
    shapes = f"window blocks ({rows}, {steps}) do not fit the model's (p, tau) = (8, 2)"
    with pytest.raises(ValueError, match=re.escape(shapes)):
        t_check(inst.model, window, range(5), 1e-6)


def test_least_squares_optimality_property():
    rng = np.random.default_rng(12)
    from sse.attacksim import generate_instance

    for seed in range(10):
        inst = generate_instance(4, 6, 1, 1, "2s", 0.1, seed=seed)
        sensors = tuple(sorted(rng.choice(6, size=4, replace=False).tolist()))
        check = t_check(inst.model, inst.window, sensors, 0.01)
        o_i = stack_rows(inst.stack, sensors)
        y_i = inst.window.blocks[list(sensors)].reshape(-1)
        gradient = np.linalg.norm(o_i.T @ (y_i - o_i @ check.x))
        assert gradient <= 1e-8 * np.linalg.norm(o_i, 2) * max(np.linalg.norm(y_i), 1.0)


def test_projector_idempotence():
    from sse.attacksim import generate_instance

    for seed in range(5):
        inst = generate_instance(3, 5, 0, 1, "2s", 0.0, seed=seed)
        sensors = (0, 1, 2, 3)
        o_i = stack_rows(inst.stack, sensors)
        projector = np.eye(o_i.shape[0]) - o_i @ np.linalg.pinv(o_i)
        assert np.allclose(projector @ projector, projector, atol=1e-10)


def test_dead_sensor_sorts_last():
    model = line_model([[1.0, 1.0], [0.0, 0.0], [-1.0, 1.0]], s_bar=1)
    stack = build_observability(model)
    window = line_window(model, [8.0, 0.0, 4.0])
    check = t_check(model, window, (0, 1, 2), 1e-9)
    assert _residual_of(stack, window, check, 1) == math.inf


# ---------------------------------------------------------------------------
# conflict certificates
# ---------------------------------------------------------------------------


def test_four_lines_conflict_found_on_first_candidate(four_lines):
    model, _, window = four_lines
    check = t_check(model, window, (0, 1, 2, 3), 1e-9)
    cert, counts = _conflict(model, window, check, 1, 1e-9)
    assert counts.conflict_fallbacks == 0
    assert cert.kind is CertificateKind.AT_LEAST_ONE_ATTACKED
    # seed = two lowest residuals {3, 1}; first candidate = max residual 2
    assert cert.sensors == frozenset({1, 2, 3})
    assert cert.suspect == 2
    assert len(cert.sensors) <= 4 - 2 * 1 + 1


def test_four_lines_walk_checks_its_whole_trial(four_lines):
    # n // tau + 1 = 3 sensors over-determine a point in the plane: the first
    # prefix the walk checks is its whole three-sensor trial
    model, _, window = four_lines
    check = t_check(model, window, (0, 1, 2, 3), 1e-9)
    cert, counts = _conflict(model, window, check, 1, 1e-9)
    conflict, suspect, checks = _reference_walk(model, window, check, 1, 1e-9)
    assert (cert.sensors, cert.suspect) == (conflict, suspect)
    assert len(cert.sensors) == 3 and counts.theory_checks == checks


def test_conflict_walk_needs_two_candidates():
    # all lines pass through (2, 6) except sensor 2, which carries the attack;
    # the residual ranking puts an honest line first in the candidate walk
    dirs = np.array([[0.018, -1.0], [-0.173, -0.985], [-0.803, -0.597], [-0.609, 0.793]])
    model = line_model(dirs, s_bar=1)
    stack = build_observability(model)
    offsets = dirs @ np.array([2.0, 6.0])
    offsets[2] += 2.0
    window = line_window(model, offsets)
    check = t_check(model, window, (0, 1, 2, 3), 1e-9)
    assert not check.sat
    ranked = _ranked(stack, window, check)
    seed, candidates = ranked[:2], ranked[2:][::-1]
    first = t_check(model, window, seed + [candidates[0]], 1e-9)
    assert first.sat  # the max-residual line passes through the seed intersection
    conflict, suspect, checks = _reference_walk(model, window, check, 1, 1e-9)
    assert checks == 2
    assert 2 in conflict
    cert, counts = _conflict(model, window, check, 1, 1e-9)
    assert (cert.sensors, cert.suspect) == (conflict, suspect)
    assert counts.theory_checks == checks


def test_first_rejected_prefix_leaves_out_the_dead_sensor():
    # sensors 0-2 pin the state; sensor 3 duplicates sensor 0 and sensor 4 is
    # dead, so its block has the highest kernel dimension and comes last in
    # every trial: the first rejected prefix leaves it out
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    model = line_model(rows, s_bar=1)
    offsets = rows @ np.array([2.0, 6.0])
    offsets[2] += 3.0  # attack the diagonal line
    window = line_window(model, offsets)
    sensors = (0, 1, 2, 3, 4)
    check = t_check(model, window, sensors, 1e-9)
    assert not check.sat
    shrunk, _ = _conflict(model, window, check, 1, 1e-9)
    conflict, suspect, _ = _reference_walk(model, window, check, 1, 1e-9)
    assert (shrunk.sensors, shrunk.suspect) == (conflict, suspect)
    assert 2 in shrunk.sensors and 4 not in shrunk.sensors


def test_conflict_requires_unsat_and_enough_sensors(four_lines):
    model, _, window = four_lines
    good = t_check(model, window, (0, 1, 3), 1e-9)
    with pytest.raises(ValueError, match="UNSAT"):
        certificates(model, window, good, 1, 1e-9, Strategy.CONFLICT)
    # p - 2*s_bar = 3 here, so a 3-sensor set is too small to search: the
    # conflict strategy blames all of it
    small_model, _, small_window = scalar_sensors(5, [0.0, 0.0, 9.0, 0.0, 0.0])
    bad = t_check(small_model, small_window, (0, 1, 2), 1e-9)
    assert not bad.sat
    certs, counts = certificates(small_model, small_window, bad, 1, 1e-9, Strategy.CONFLICT)
    assert certs == [Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED,
                                 frozenset({0, 1, 2}))]
    assert counts.theory_checks == 0 and counts.conflict_fallbacks == 0


@pytest.mark.parametrize("strategy", list(Strategy))
def test_certificates_reject_a_sat_check_under_every_strategy(four_lines, strategy):
    model, _, window = four_lines
    good = t_check(model, window, (0, 1, 3), 1e-9)
    assert good.sat
    with pytest.raises(ValueError, match="UNSAT"):
        certificates(model, window, good, 1, 1e-9, strategy)


def test_conflict_walk_can_fail_under_noise():
    # noisy lines that are pairwise consistent with the noise budget but
    # jointly inconsistent: the linear walk exhausts its candidates
    dirs = np.array([[0.9154, -0.4026], [-0.8465, -0.5324], [0.8052, -0.593],
                     [-0.1799, -0.9837]])
    offsets = np.array([-1.6355, -6.0752, -2.9985, -5.1564])
    model = line_model(dirs, s_bar=1, noise=1.0)
    stack = build_observability(model)
    window = line_window(model, offsets)
    check = t_check(model, window, (0, 1, 2, 3), 0.0)
    assert not check.sat
    # four lines, two in the seed, n = 2 = tau * |seed|: the walk is unaimed
    with pytest.raises(ConflictSearchError):
        certificate_conflict(model, window,
                             _theory_walk_order(stack, _ranked(stack, window, check), 2), 0.0,
                             SolveStats())
    certs, counts = certificates(model, window, check, 1, 0.0, Strategy.CONFLICT)
    assert counts.conflict_fallbacks == 1
    assert certs == [Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED,
                                 frozenset({0, 1, 2, 3}))]
    # estimate's first check is this one, and its counts keep the fallback
    result = estimate(model, stack, window, EstimatorConfig(Strategy.CONFLICT, epsilon=0.0))
    assert result.records[0].certificates == tuple(certs)
    assert result.stats.conflict_fallbacks == 1


def test_conflict_certificates_intersect_true_support():
    from sse.attacksim import generate_instance

    for seed in range(20):
        inst = generate_instance(3, 7, 2, 2, "2s", 0.0, seed=seed,
                                 attack_norm={"lo": 2.0, "hi": 8.0})
        sensors = tuple(range(7))
        check = t_check(inst.model, inst.window, sensors, 1e-8)
        assert not check.sat
        certs, counts = certificates(inst.model, inst.window, check, 2, 1e-8, Strategy.CONFLICT)
        assert counts.conflict_fallbacks == 0
        # the walk's conflict, and at most s_bar - 1 = 1 more from its seed fit
        assert 1 <= len(certs) <= 2
        for cert in certs:
            assert cert.sensors & set(inst.attacked)
            assert len(cert.sensors) <= 7 - 2 * 2 + 1


# ---------------------------------------------------------------------------
# the aimed walk: one seed fit, the concentration step, its skip rules
# ---------------------------------------------------------------------------


def _walk_order(stack, sensors):
    """Sensors by ascending kernel dimension, then index: the order in which
    the walk appends the seed to each candidate."""
    return sorted(sensors, key=lambda i: (int(stack.block_kernel_dims[i]), i))


def _reference_walk(model, window, check, s_bar, epsilon, extend=False):
    """The conflict walk with one t_check per prefix: (conflict, suspect,
    theory checks).  The walk is aimed by the seed fit's residuals when the
    seed over-determines the state and there are at least two candidates.
    Each trial is a candidate, then the seed in walk order; its prefixes from
    n // tau + 1 sensors (or the whole trial, when shorter) up are checked in
    turn, and the first rejected one is the conflict, with the candidate as
    suspect.  A lone candidate's full trial is the checked set, taken without
    a check.  Raises ConflictSearchError when no trial has a rejected prefix.

    With ``extend``, the result is (the conflicts as certificates, theory
    checks): when the seed fit was made and passed, the candidates after the
    suspect follow in turn, each with its trial's first checked prefix alone,
    and each rejected one is one more conflict, until one passes or s_bar
    conflicts are held."""
    stack = build_observability(model)
    seed_size = stack.p - 2 * s_bar
    ranked = _ranked(stack, window, check)
    candidates = ranked[seed_size:][::-1]
    checks = 0
    consistent = False
    if stack.tau * seed_size > stack.n and len(candidates) >= 2:
        fit = t_check(model, window, ranked[:seed_size], epsilon)
        checks += 1
        consistent = fit.sat
        res = _residuals_at(stack, window, fit.x)
        ranked = sorted(ranked, key=lambda i: (res[i], i))
        candidates = ranked[seed_size:][::-1]
    seed = _walk_order(stack, ranked[:seed_size])
    first = min(stack.n // stack.tau + 1, seed_size + 1)

    def walk():
        nonlocal checks
        for cand in candidates:
            trial = [cand] + seed
            for keep in range(first, len(trial) + 1):
                if keep == len(trial) and len(candidates) == 1:
                    return frozenset(trial), cand
                checks += 1
                if not t_check(model, window, trial[:keep], epsilon).sat:
                    return frozenset(trial[:keep]), cand
        raise ConflictSearchError(f"no conflict among {len(candidates)} candidates")

    conflict, suspect = walk()
    if not extend:
        return conflict, suspect, checks
    certs = [Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED, conflict, suspect=suspect)]
    for cand in candidates[candidates.index(suspect) + 1:] if consistent else ():
        if len(certs) == s_bar:
            break
        checks += 1
        prefix = [cand] + seed[:first - 1]
        if t_check(model, window, prefix, epsilon).sat:
            break
        certs.append(Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED, frozenset(prefix),
                                 suspect=cand))
    return certs, checks


def _unaimed_walk(model, window, check, s_bar, epsilon):
    """The walk seeded and aimed from the failed check's own residuals:
    (conflict, suspect, trials checked), or None when no trial fails."""
    stack = build_observability(model)
    ranked = _ranked(stack, window, check)
    seed_size = stack.p - 2 * s_bar
    for checks, cand in enumerate(ranked[seed_size:][::-1], start=1):
        trial = ranked[:seed_size] + [cand]
        if not t_check(model, window, trial, epsilon).sat:
            suspect = max(trial, key=lambda i: (_residual_of(stack, window, check, i), i))
            return frozenset(trial), suspect, checks
    return None


def _counting_checks(monkeypatch):
    """Record every t_check made in theory as ("t_check", sorted sensors)."""
    checked = []
    real_t = sse.theory.t_check
    monkeypatch.setattr(sse.theory, "t_check",
                        lambda m, w, sensors, *a: checked.append(
                            ("t_check", tuple(sorted(sensors)))) or real_t(m, w, sensors, *a))
    return checked


def test_one_candidate_walk_takes_the_checked_set(monkeypatch, four_lines):
    # p - 2*s_bar = 2 and three sensors checked: the only trial is the checked
    # set, which the check already rejected, and its shorter prefixes have no
    # spare equation, so the walk checks nothing
    model, _, window = four_lines
    check = t_check(model, window, (0, 1, 2), 1e-9)
    assert not check.sat
    conflict, suspect, walk_checks = _reference_walk(model, window, check, 1, 1e-9)
    assert conflict == frozenset(check.sensors) and walk_checks == 0
    checked = _counting_checks(monkeypatch)
    cert, counts = _conflict(model, window, check, 1, 1e-9)
    assert (cert.sensors, cert.suspect) == (conflict, suspect)
    assert counts.theory_checks == len(checked) == 0


def test_exactly_determined_seed_walks_unaimed():
    # n = tau = 2 and one seed sensor: the seed fit interpolates the seed, so
    # the walk keeps the check's ranking and makes no seed fit; each trial of
    # two sensors is the first prefix with a spare equation, so the walk
    # checks the trials alone
    cases = 0
    for seed in range(6):
        inst = generate_instance(2, 5, 2, 2, "2s", 0.0, seed=seed,
                                 attack_norm={"lo": 2.0, "hi": 8.0})
        model, stack, window = inst.model, inst.stack, inst.window
        assert stack.tau * (stack.p - 2 * 2) == stack.n
        for size in (3, 4, 5):  # at least two candidates
            for trusted in itertools.combinations(range(5), size):
                check = t_check(model, window, trusted, 1e-6)
                if check.sat:
                    continue
                want = _unaimed_walk(model, window, check, 2, 1e-6)
                if want is None:
                    certs, counts = certificates(model, window, check, 2, 1e-6, Strategy.CONFLICT)
                    assert counts.conflict_fallbacks == 1
                    assert certs == [Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED,
                                                 frozenset(check.sensors))]
                    continue
                conflict, suspect, walk_checks = want
                cert, counts = _conflict(model, window, check, 2, 1e-6)
                assert (cert.sensors, cert.suspect) == (conflict, suspect)
                assert counts.theory_checks == walk_checks
                cases += 1
    assert cases > 0


def test_certificates_share_one_seed_fit_with_agree(monkeypatch):
    found = 0
    for seed in range(20):
        inst = generate_instance(4, 10, 2, 2, "3s", 0.0, seed=seed,
                                 attack_norm={"lo": 2.0, "hi": 6.0})
        model, stack, window = inst.model, inst.stack, inst.window
        check = t_check(model, window, tuple(range(10)), 1e-8)
        assert not check.sat
        seed_set = tuple(sorted(_ranked(stack, window, check)[:6]))
        alone = certificate_agree(t_check(model, window, seed_set, 1e-8))
        with monkeypatch.context() as m:
            checked = _counting_checks(m)
            certs, counts = certificates(model, window, check, 2, 1e-8, Strategy.CONFLICT_AGREE)
        assert checked.count(("t_check", seed_set)) == 1
        agree = [c for c in certs if c.kind is CertificateKind.ALL_UNATTACKED]
        assert agree == ([] if alone is None else [alone])
        assert bool(agree) == (alone is not None)
        found += alone is not None
    assert found > 0


def test_aimed_suspect_has_the_largest_refit_residual(monkeypatch):
    # desk scale: tau * (p - 2*s_bar) = 40 > n = 25, so the walk re-ranks by
    # the residuals at the last seed fit and picks its suspect from them
    inst = generate_instance(25, 60, 18, 20, "2s", 0.0, seed=9000 + 97 * 18)
    model, stack, window = inst.model, inst.stack, inst.window
    rng = np.random.default_rng(5)
    looped = 0
    for trusted in _random_trusted(rng, 60, 20, 10):
        check = t_check(model, window, trusted, 1e-6)
        if check.sat:
            continue
        fits = _seed_fits(model, window, check, 20, 1e-6)
        fit = fits[-1]
        looped += len(fits) > 1
        with monkeypatch.context() as m:
            checked = _counting_checks(m)
            certs, counts = certificates(model, window, check, 20, 1e-6, Strategy.CONFLICT)
        # the seed fits come first, one t_check each, and every one but the
        # last fails; every other check is a walk prefix of at least
        # n // tau + 1 = 13 sensors, and the walk's last is the first
        # certificate.  When the last seed fit passes, the extension's first
        # prefixes of 13 follow: one per further certificate, and at most one
        # more that passed
        assert counts.theory_checks == len(checked)
        assert [sensors for _, sensors in checked[:len(fits)]] == [f.sensors for f in fits]
        assert not any(f.sat for f in fits[:-1])
        cert = certs[0]
        assert cert.kind is CertificateKind.AT_LEAST_ONE_ATTACKED
        prefixes = [sensors for _, sensors in checked[len(fits):]]
        assert all(13 <= len(sensors) <= 21 for sensors in prefixes)
        walked = prefixes.index(tuple(sorted(cert.sensors))) + 1
        extra = prefixes[walked:]
        assert [tuple(sorted(c.sensors)) for c in certs[1:]] == extra[:len(certs) - 1]
        assert len(extra) - (len(certs) - 1) in (0, 1)
        assert all(len(sensors) == 13 for sensors in extra)
        assert extra == [] or fit.sat
        refit = _residuals_at(stack, window, fit.x)
        assert cert.suspect == max(cert.sensors, key=lambda i: (refit[i], i))
        assert not t_check(model, window, cert.sensors, 1e-6).sat
        # the walk on the last seed fit's ranking is the certificate
        refit_ranked = _refit_ranking(stack, window, check.sensors, fit.x)
        assert certificate_conflict(model, window, _theory_walk_order(stack, refit_ranked, 20),
                                    1e-6, SolveStats()) == cert
    assert looped > 0


# ---------------------------------------------------------------------------
# agree certificates
# ---------------------------------------------------------------------------


def test_four_lines_agree_certifies_lowest_residual_pair(four_lines):
    model, _, window = four_lines
    check = t_check(model, window, (0, 1, 2, 3), 1e-9)
    cert = _agree(model, window, check, 1, 1e-9)
    assert cert is not None
    assert cert.kind is CertificateKind.ALL_UNATTACKED
    # the two smallest normalized residuals belong to honest lines 3 and 1
    assert cert.sensors == frozenset({1, 3})


def test_agree_absent_when_seed_inconsistent():
    # perturb one honest line beyond the tolerance so the seed pair conflicts
    model = line_model([[1.0, 1.0], [-1.0, 1.0], [0.0, 1.0], [-2.0, 1.0]], s_bar=1)
    stack = build_observability(model)
    window = line_window(model, [8.0, 4.0 + 0.5, 8.0, 2.0 + 0.4])
    check = t_check(model, window, (0, 1, 2, 3), 1e-9)
    assert not check.sat
    seed = _ranked(stack, window, check)[:2]
    seed_check = t_check(model, window, seed, 1e-9)
    if not seed_check.sat:  # construction sanity: the seed itself conflicts
        assert certificate_agree(seed_check) is None
        assert _agree(model, window, check, 1, 1e-9) is None


def test_agree_single_sensor_edge():
    # p = 2*s_bar + 1: the seed is one full-rank sensor, always consistent
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    model = SystemModel(A=np.eye(2), B=np.zeros((2, 1)), C=rows, tau=2, s_bar=1,
                        noise_bounds=np.zeros(3))
    outputs = np.vstack([rows @ [1.0, 2.0]] * 2)
    outputs[:, 2] += 5.0
    window = stack_window(model, outputs, np.zeros((2, 1)))
    check = t_check(model, window, (0, 1, 2), 1e-9)
    assert not check.sat
    cert = _agree(model, window, check, 1, 1e-9)
    assert cert is not None and len(cert.sensors) == 1


def test_agree_certificates_avoid_true_support():
    from sse.attacksim import generate_instance

    found = 0
    for seed in range(20):
        inst = generate_instance(4, 10, 2, 2, "3s", 0.0, seed=seed,
                                 attack_norm={"lo": 2.0, "hi": 6.0})
        sensors = tuple(range(10))
        check = t_check(inst.model, inst.window, sensors, 1e-8)
        assert not check.sat
        cert = _agree(inst.model, inst.window, check, 2, 1e-8)
        if cert is not None:
            found += 1
            assert not (cert.sensors & set(inst.attacked))
            assert len(cert.sensors) == 10 - 2 * 2
    assert found > 0


# ---------------------------------------------------------------------------
# strategy dispatch
# ---------------------------------------------------------------------------


def test_trivial_strategy_blames_all_checked(four_lines):
    model, _, window = four_lines
    check = t_check(model, window, (0, 1, 2, 3), 1e-9)
    certs, _ = certificates(model, window, check, 1, 1e-9, Strategy.TRIVIAL)
    assert len(certs) == 1
    assert certs[0].sensors == frozenset({0, 1, 2, 3})


def test_conflict_agree_emits_both_when_allowed(four_lines):
    model, _, window = four_lines
    check = t_check(model, window, (0, 1, 2, 3), 1e-9)
    certs, counts = certificates(model, window, check, 1, 1e-9, Strategy.CONFLICT_AGREE)
    kinds = [c.kind for c in certs]
    assert kinds == [CertificateKind.AT_LEAST_ONE_ATTACKED, CertificateKind.ALL_UNATTACKED]


def test_conflict_agree_suppressed_without_gate(four_lines):
    # one line alone does not pin the state, so four_lines is not
    # 3*s_bar-sparse observable and estimate runs conflict_agree as conflict
    model, stack, window = four_lines
    result = estimate(model, stack, window,
                      EstimatorConfig(strategy=Strategy.CONFLICT_AGREE, epsilon=1e-9))
    assert result.strategy is Strategy.CONFLICT
    first = result.records[0]  # no sensor suspected: all four checked
    assert first.support == () and not first.sat
    assert [c.kind for c in first.certificates] == [CertificateKind.AT_LEAST_ONE_ATTACKED]
    # the closed gate is what suppressed it: certificates under conflict_agree
    # emits one for the same check
    check = t_check(model, window, (0, 1, 2, 3), 1e-9)
    opened, _ = certificates(model, window, check, 1, 1e-9, Strategy.CONFLICT_AGREE)
    assert CertificateKind.ALL_UNATTACKED in [c.kind for c in opened]


def test_small_sensor_sets_fall_back_to_trivial():
    model, _, window = scalar_sensors(3, [0.0, 0.0, 5.0], s_bar=1)
    check = t_check(model, window, (0, 2), 1e-9)
    assert not check.sat
    certs, _ = certificates(model, window, check, 1, 1e-9, Strategy.CONFLICT)
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
                check = t_check(inst.model, inst.window, subset, eps)
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
                check = t_check(inst.model, inst.window, subset, 1e-6)
                if check.sat:
                    err = np.linalg.norm(check.x - inst.x_true)
                    assert err <= 1e-6 * (1 + np.linalg.norm(inst.x_true))


# ---------------------------------------------------------------------------
# the lean check against the earlier implementation
# ---------------------------------------------------------------------------


def _reference_t_check(stack, window, sensors, noise_bounds, epsilon):
    """The check as it was before its per-call overhead was removed, with
    the squared residual and noise budget summed as one dot product each,
    the order ``t_check`` sums them in."""
    sensors = tuple(sorted(set(int(i) for i in sensors)))
    noise_bounds = np.asarray(noise_bounds, dtype=float)
    idx = list(sensors)
    o_i = stack_rows(stack, idx)
    y_i = window.blocks[idx].reshape(-1)
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
    residual_sq = float(diff.dot(diff))
    psi = noise_bounds[idx]
    psi_sq = float(psi.dot(psi))
    sat = math.sqrt(residual_sq) <= math.sqrt(psi_sq) + epsilon
    return sat, x, residual_sq, sensors, rank_deficient


def _assert_matches_reference(model, window, sensors, epsilon):
    stack = build_observability(model)
    check = t_check(model, window, sensors, epsilon)
    sat, x, residual_sq, ref_sensors, rank_deficient = _reference_t_check(
        stack, window, sensors, model.noise_bounds, epsilon)
    assert check.x.tobytes() == x.tobytes()
    assert check.residual_sq == residual_sq
    assert check.sensors == ref_sensors
    undetermined = stack.tau * len(set(sensors)) < stack.n
    assert (check.sat, check.rank_deficient) == (sat, rank_deficient or undetermined)


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
        assert not stack.block_norms_sq.all()
    # a second noise budget: a copy of the model with other bounds, whose
    # checks read its own stack and memo
    other = dataclasses.replace(
        model, noise_bounds=model.noise_bounds + np.linspace(0.01, 0.2, stack.p))
    rng = np.random.default_rng(7)
    for _ in range(60):
        size = int(rng.integers(1, stack.p + 1))
        sensors = rng.choice(stack.p, size=size, replace=False).tolist()
        key = tuple(sorted(sensors))
        # the model's stack fills its memo until the budget is spent; a fresh
        # copy of the model (its own stack, an empty memo) serves the second
        # check of every set from it
        fresh = dataclasses.replace(model)
        for on in (model, fresh, other):
            for epsilon in (0.0, 1e-6):
                for _ in range(2):  # the second check reads the memo if it holds the set
                    _assert_matches_reference(on, window, sensors, epsilon)
        assert key in build_observability(fresh)._checks
    if case == "dead_block":
        check = t_check(model, window, (0, 1, 2), 1e-9)
        assert _residual_of(stack, window, check, 1) == math.inf


def _spd_gram(rng, n, cond):
    """A random symmetric positive definite n x n Gram of condition about
    ``cond``: a random orthogonal basis with eigenvalues spaced
    logarithmically from 1 down to 1/cond."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    gram = (q * np.logspace(0.0, -math.log10(cond), n)) @ q.T
    return (gram + gram.T) / 2


def _solve_cases():
    """(gram, rhs) pairs for the normal-equation solve: SPD Grams up to
    condition 1e15, exactly singular Grams, and right-hand sides holding NaN
    or an infinity."""
    rng = np.random.default_rng(44)
    for n in (1, 2, 4, 25):
        for cond in (1.0, 1e3, 1e8, 1e12, 1e15):
            for _ in range(3):
                gram = _spd_gram(rng, n, cond) * 10.0 ** rng.uniform(-3, 3)
                yield gram, rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        gram = _spd_gram(rng, n, 1e3)
        for bad in (math.nan, math.inf, -math.inf):
            rhs = rng.standard_normal(n)
            rhs[rng.integers(n)] = bad
            yield gram, rhs
        yield np.zeros((n, n)), rng.standard_normal(n)
        if n > 1:
            # a repeated row and column: rank n - 1, a zero pivot in exact arithmetic
            cols = rng.integers(-3, 4, (n, n - 1)).astype(float)
            cols = np.column_stack([cols, cols[:, :1]])
            yield cols @ cols.T, rng.standard_normal(n)
            yield np.diag(np.r_[np.ones(n - 1), 0.0]), np.r_[np.ones(n - 1), math.nan]


@pytest.mark.parametrize("caller", [None, "raise", "ignore"])
def test_normal_solve_matches_numpy_bit_for_bit_and_failure_for_failure(caller):
    # the gufunc below np.linalg.solve returns its bytes, and fails (None)
    # exactly where it raises LinAlgError, under any caller errstate
    solved = failed = 0
    for gram, rhs in _solve_cases():
        try:
            expected = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            expected = None
        if caller is None:
            got = sse.theory._normal_solve(gram, rhs)
        else:
            with np.errstate(all=caller):
                got = sse.theory._normal_solve(gram, rhs)
        if expected is None:
            assert got is None
            failed += 1
        else:
            assert got is not None and got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
            solved += 1
    assert solved > 60 and failed >= 7


@pytest.mark.parametrize("caller", ["raise", "ignore"])
def test_callers_errstate_changes_no_check(caller, four_lines):
    # singular Grams (a dead block, undetermined sets) included: every check
    # made under a caller's errstate is the reference check
    rng = np.random.default_rng(45)
    for model, stack, window in (_ugv_case(), four_lines, _dead_block_case()):
        for _ in range(40):
            size = int(rng.integers(1, stack.p + 1))
            sensors = rng.choice(stack.p, size=size, replace=False).tolist()
            with np.errstate(all=caller):
                _assert_matches_reference(model, window, sensors, 1e-6)


def test_check_memo_stays_within_its_float_budget():
    inst = _desk_instance()
    stack, window = inst.stack, inst.window
    rng = np.random.default_rng(21)
    seen = set()
    while len(seen) < 2000:
        size = int(rng.integers(1, stack.p + 1))
        key = tuple(sorted(rng.choice(stack.p, size=size, replace=False).tolist()))
        if key in seen:
            continue
        seen.add(key)
        t_check(inst.model, window, key, 1e-6)
        assert stack._checks.floats <= sse.theory.CHECK_MEMO_FLOATS
    held = sum(const.o_i.size + const.gram.size + len(key)
               for key, const in stack._checks.items())
    assert stack._checks.floats == held
    assert 0 < len(stack._checks) < len(seen)
    # each set's gesv verdict rides along, a bool outside the float budget
    assert {type(const.singular) for const in stack._checks.values()} == {bool}


def test_check_memo_hit_decides_as_a_miss(monkeypatch):
    # the memo keeps each set's ||Psi_I||; with unequal noise bounds a hit
    # must give the verdict, residual and fit that a recomputation gives
    bounds = np.linspace(0.05, 0.8, 8)
    inst = generate_instance(3, 8, 2, 2, "2s", bounds, seed=4)
    sets = [combo for k in range(2, 9) for combo in itertools.combinations(range(8), k)]
    monkeypatch.setattr(sse.theory, "CHECK_MEMO_FLOATS", 10**6)
    model = dataclasses.replace(inst.model)
    for sensors in sets:
        t_check(model, inst.window, sensors, 1e-6)
    assert len(build_observability(model)._checks) == len(sets)
    hits = [t_check(model, inst.window, sensors, 1e-6) for sensors in sets]
    monkeypatch.setattr(sse.theory, "CHECK_MEMO_FLOATS", 0)
    fresh = dataclasses.replace(inst.model)
    misses = [t_check(fresh, inst.window, sensors, 1e-6) for sensors in sets]
    assert not build_observability(fresh)._checks
    for hit, miss in zip(hits, misses):
        assert (hit.sat, hit.sensors, hit.rank_deficient) == (miss.sat, miss.sensors,
                                                               miss.rank_deficient)
        assert np.float64(hit.residual_sq).tobytes() == np.float64(miss.residual_sq).tobytes()
        assert hit.x.tobytes() == miss.x.tobytes()
    assert {hit.sat for hit in hits} == {True, False}
    for sensors, const in build_observability(model)._checks.items():
        psi = bounds[list(sensors)]
        assert const.psi_norm == math.sqrt(float(psi.dot(psi)))


# entries a window or right-hand side may hold that set floating-point flags
EXTREMES = (math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 2.5e-310)


def _extreme_windows(window):
    """``window`` with one entry set to each of ``EXTREMES``, entry by entry."""
    for value in EXTREMES:
        for pos in np.ndindex(window.blocks.shape):
            blocks = window.blocks.copy()
            blocks[pos] = value
            yield StackedWindow(blocks=blocks)


def _raising_check(model, window, sensors):
    """``t_check`` under a caller's ``np.errstate(all="raise")``: its result,
    or the type and message of what it raised."""
    try:
        with np.errstate(all="raise"):
            return t_check(model, window, sensors, 1e-6)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


def _assert_same_check(got, want):
    assert type(got) is type(want)
    if not isinstance(want, sse.theory.CheckResult):
        assert got == want  # the same error
        return
    assert (got.sat, got.sensors, got.rank_deficient) == (want.sat, want.sensors,
                                                          want.rank_deficient)
    assert np.float64(got.residual_sq).tobytes() == np.float64(want.residual_sq).tobytes()
    assert got.x.tobytes() == want.x.tobytes()


def _memoized(model, sets):
    """A copy of ``model`` whose memo holds every set of ``sets``, each
    checked once on a zero window, and the memo."""
    copy = dataclasses.replace(model)
    zero = StackedWindow(blocks=np.zeros((model.p, model.tau)))
    for sensors in sets:
        t_check(copy, zero, sensors, 1e-6)
    memo = build_observability(copy)._checks
    assert set(memo) == set(sets)
    return copy, memo


def _all_sets(p):
    return [combo for k in range(1, p + 1) for combo in itertools.combinations(range(p), k)]


def test_regular_memo_hit_solves_without_the_error_rule(monkeypatch, four_lines):
    # a hit on a set whose Gram gesv solved calls the gufunc bare: under a
    # caller's all="raise" it raises exactly where a miss raises, never in the
    # solve, and where it returns it is the reference check
    normal_solves, finite_rhs = [], []
    normal_solve, solve1 = sse.theory._normal_solve, sse.theory._solve1

    def counting(gram, rhs):
        normal_solves.append(1)
        return normal_solve(gram, rhs)

    def bare(gram, rhs, **kwargs):
        finite_rhs.append(bool(np.isfinite(rhs).all()))
        return solve1(gram, rhs, **kwargs)

    returned = 0
    for model, stack, window in (_ugv_case(), four_lines):
        monkeypatch.setattr(sse.theory, "CHECK_MEMO_FLOATS", 10**6)
        hit_model, memo = _memoized(model, _all_sets(stack.p))
        regular = [sensors for sensors, const in memo.items() if not const.singular]
        assert len(regular) >= 4
        monkeypatch.setattr(sse.theory, "CHECK_MEMO_FLOATS", 0)  # every check of fresh misses
        fresh = dataclasses.replace(model)
        monkeypatch.setattr(sse.theory, "_normal_solve", counting)
        monkeypatch.setattr(sse.theory, "_solve1", bare)
        for extreme in _extreme_windows(window):
            for sensors in regular:
                calls = len(normal_solves)
                hit = _raising_check(hit_model, extreme, sensors)
                assert len(normal_solves) == calls
                _assert_same_check(hit, _raising_check(fresh, extreme, sensors))
                if isinstance(hit, sse.theory.CheckResult):
                    returned += 1
                    with np.errstate(all="ignore"):
                        sat, x, residual_sq, ref_sensors, deficient = _reference_t_check(
                            stack, extreme, sensors, model.noise_bounds, 1e-6)
                    _assert_same_check(hit, sse.theory.CheckResult(
                        sat, x, residual_sq, ref_sensors, deficient))
        monkeypatch.undo()
        assert not build_observability(fresh)._checks
    # hits returned, some of them after solving a right-hand side holding NaN or inf
    assert returned > 50 and finite_rhs.count(False) > 10
    # the gufunc alone, on every memoized regular Gram: no raise and numpy's
    # bytes, for right-hand sides that t_check's own arithmetic refuses under "raise"
    for model, stack, _ in (_ugv_case(), four_lines):
        _, memo = _memoized(model, _all_sets(stack.p))
        for const in memo.values():
            if const.singular:
                continue
            for value in EXTREMES:
                for rhs in (np.array([value, 1.0]), np.array([1.0, value]), np.full(2, value)):
                    with np.errstate(all="raise"):
                        got = sse.theory._solve1(const.gram, rhs, signature="dd->d")
                    assert got.tobytes() == np.linalg.solve(const.gram, rhs).tobytes()


def test_singular_memo_hit_goes_straight_to_the_svd_solve(monkeypatch):
    # the dead block's Gram is zero, and one line has a rank-one Gram
    # (tau * |I| = 1 < n = 2): gesv finds both singular on the set's first
    # check, and a hit skips the gufunc yet decides as a miss does
    model, stack, window = _dead_block_case()
    sets = _all_sets(stack.p)
    monkeypatch.setattr(sse.theory, "CHECK_MEMO_FLOATS", 10**6)
    hit_model, memo = _memoized(model, sets)
    for const in memo.values():
        assert const.singular == (sse.theory._normal_solve(const.gram, np.ones(2)) is None)
    singular = [sensors for sensors in sets if memo[sensors].singular]
    assert {(0,), (1,), (1, 3)} <= set(singular) and len(singular) < len(sets)
    monkeypatch.setattr(sse.theory, "CHECK_MEMO_FLOATS", 0)
    fresh = dataclasses.replace(model)
    solves = []
    solve1 = sse.theory._solve1
    monkeypatch.setattr(sse.theory, "_solve1",
                        lambda *args, **kwargs: solves.append(1) or solve1(*args, **kwargs))
    windows = [window, line_window(model, [2.0, 0.0, 2.0, 1.0]),
               line_window(model, [3.0, 0.5, -1.0, 7.0])]
    for w in windows:
        for sensors in singular:
            calls = len(solves)
            hit = t_check(hit_model, w, sensors, 1e-6)
            assert len(solves) == calls
            miss = t_check(fresh, w, sensors, 1e-6)
            assert len(solves) == calls + 1  # the miss solved under numpy's rule
            _assert_same_check(hit, miss)
    assert not build_observability(fresh)._checks


def test_t_check_flags_undetermined_sets():
    # 12 sensors give 24 equations for 25 states
    inst = _desk_instance(8)
    rng = np.random.default_rng(11)
    for _ in range(200):
        sensors = rng.choice(inst.stack.p, size=12, replace=False).tolist()
        check = t_check(inst.model, inst.window, sensors, 1e-6)
        assert check.rank_deficient


# ---------------------------------------------------------------------------
# the walk's prefixes
# ---------------------------------------------------------------------------


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


def _vehicle_windows(steps=340, every=7):
    """The vehicle and the windows a short seeded ``ugv_alternating`` run
    stacks, every ``every``-th step: the random-noise phase on encoder 1
    (steps 60-180), the step-ramp on encoder 2 (210-330) and the clean steps
    around them."""
    ugv = discretize_ugv()
    model, tau = ugv.model, ugv.model.tau
    trace = run_closed_loop(ugv, alternating_encoder_scenario(), steps=steps, seed=4)
    return model, [stack_window(model, trace.y[t - tau + 1:t + 1],
                                trace.u[t - tau + 1:t + 1, None])
                   for t in range(tau - 1, steps, every)]


def _trusted_set_cases():
    """(model, stack, windows, s_bar, epsilon, trusted sets): every trusted
    set is checked on every window."""
    cases = []
    inst = _desk_instance()
    rng = np.random.default_rng(3)
    cases.append((inst.model, inst.stack, [inst.window], 20, 1e-6,
                  _random_trusted(rng, 60, 20, 6)))
    for seed in range(3):
        model, stack, window = _plant(seed)
        cases.append((model, stack, [window], 2, 1e-6, _random_trusted(rng, 12, 2, 12)))
    for spec in ((2, 7, 2, 2, "3s", 1517215338), (4, 5, 1, 1, "3s", 1473099080),
                 (3, 7, 2, 2, "3s", 1896709351)):
        inst = generate_instance(*spec[:5], 0.05, seed=spec[5],
                                 attack_norm={"lo": 0.05, "hi": 2.0})
        p = inst.model.p
        cases.append((inst.model, inst.stack, [inst.window], spec[3], 1e-6,
                      [list(range(p))] + _random_trusted(rng, p, 1, 8)))
    # the vehicle: n // tau + 1 = 2, so each two-sensor trial is its own
    # first prefix
    model, windows = _vehicle_windows()
    cases.append((model, build_observability(model), windows, model.s_bar,
                  DEFAULT_EPSILON, [[0, 1, 2], [0, 1], [0, 2], [1, 2]]))
    return cases


def _walk_cases(case):
    """(model, stack, window, check, s_bar, epsilon) for every rejected
    check of ``_trusted_set_cases()[case]`` that the walk runs on."""
    model, stack, windows, s_bar, epsilon, trusted_sets = _trusted_set_cases()[case]
    for window, trusted in itertools.product(windows, trusted_sets):
        check = t_check(model, window, trusted, epsilon)
        if not check.sat and len(check.sensors) > stack.p - 2 * s_bar:
            yield model, stack, window, check, s_bar, epsilon


@pytest.mark.parametrize("case", range(8))
def test_walk_prefixes_short_of_the_certificate_pass(case):
    # the walk decides its prefixes by t_check alone, growing from the first
    # that over-determines the state: every such prefix shorter than the
    # certificate passes, and the certificate itself fails
    # (the conflicts the seed fit adds are first prefixes, so the same holds)
    walked = 0
    for model, stack, window, check, s_bar, epsilon in _walk_cases(case):
        certs, counts = certificates(model, window, check, s_bar, epsilon, Strategy.CONFLICT)
        for cert in certs:
            assert not t_check(model, window, cert.sensors, epsilon).sat
        if counts.conflict_fallbacks:
            continue
        walked += 1
        for cert in certs:
            assert cert.suspect in cert.sensors
            trial = [cert.suspect] + _walk_order(stack, cert.sensors - {cert.suspect})
            for keep in range(stack.n // stack.tau + 1, len(trial)):
                assert t_check(model, window, trial[:keep], epsilon).sat
    assert walked > 0


@pytest.mark.parametrize("memo_floats", [1, 10**6])
def test_walk_matches_the_reference_walk(monkeypatch, memo_floats):
    # the walk and its extension give the reference's certificates, suspects
    # and number of checks, whether the stack's check memo holds none of
    # their sets or all
    monkeypatch.setattr(sse.theory, "CHECK_MEMO_FLOATS", memo_floats)
    walked = 0
    for case in range(8):
        for model, _, window, check, s_bar, epsilon in _walk_cases(case):
            certs, counts = certificates(model, window, check, s_bar, epsilon, Strategy.CONFLICT)
            try:
                want, checks = _reference_walk(model, window, check, s_bar, epsilon, extend=True)
            except ConflictSearchError:
                assert counts.conflict_fallbacks == 1
                assert certs == [Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED,
                                             frozenset(check.sensors))]
                continue
            walked += 1
            assert counts.conflict_fallbacks == 0
            assert certs == want
            assert [c.suspect for c in certs] == [c.suspect for c in want]
            assert counts.theory_checks == checks
    assert walked > 0


def test_rank_deficient_prefix_goes_through_the_check(monkeypatch):
    # sensors 0 and 1 are the same line and sensor 4 is attacked.  The seed
    # fit on the clean seed (0, 1, 3) aims the walk at sensor 4, whose first
    # over-determined prefix (4, 0, 1) holds the duplicated pair: three rows
    # of rank 2, with no spare equation, so the check passes it and the walk
    # grows to the next prefix
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    model = line_model(rows, s_bar=1)
    stack = build_observability(model)
    offsets = rows @ np.array([2.0, 6.0])
    offsets[4] += 3.0
    window = line_window(model, offsets)
    check = t_check(model, window, range(5), 1e-6)
    assert _ranked(stack, window, check)[:3] == [3, 0, 1]
    assert np.linalg.matrix_rank(stack_rows(stack, (4, 0, 1))) == 2
    checked = _counting_checks(monkeypatch)
    cert, counts = _conflict(model, window, check, 1, 1e-6)
    monkeypatch.undo()
    assert [sensors for _, sensors in checked] == [(0, 1, 3), (0, 1, 4), (0, 1, 3, 4)]
    assert (cert.sensors, cert.suspect) == (frozenset({0, 1, 3, 4}), 4)
    assert counts.theory_checks == 3
    assert _reference_walk(model, window, check, 1, 1e-6) == (cert.sensors, 4, 3)
    assert t_check(model, window, (0, 1, 4), 1e-6).sat
    assert not t_check(model, window, cert.sensors, 1e-6).sat


# kinds of C row in the rank property test: a fresh random row, a dead one, a
# copy of an earlier row, or an earlier row moved by 1e-6
ROW_KINDS = ("random", "dead", "duplicate", "near")
# blocks worse conditioned than this are left to the tie test below: the
# normal-equation check's rounding residual grows with the square of the
# condition number and passes epsilon from about 3e4 at readings of size 10
COND_LIMIT = 1e3


@st.composite
def _rank_models(draw):
    n = draw(st.sampled_from([4, 3, 2, 1]))
    tau = n - draw(st.integers(0, n - 1))  # the simplest draw is a square block
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=5))
    # A = I + spread * R: at spread 0 every block repeats one row, and at
    # 1e-2 a block's rows are nearly dependent
    spread = draw(st.sampled_from([0.0, 1e-2, 1.0]))
    return n, tau, kinds, spread, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(spec=_rank_models())
def test_full_row_rank_blocks_pass_the_check_alone(spec):
    # a block of full row rank fits any reading by itself
    n, tau, kinds, spread, seed = spec
    rng = np.random.default_rng(seed)
    rows = []
    for kind in kinds:
        if kind == "dead":
            rows.append(np.zeros(n))
        elif kind == "random" or not rows:
            rows.append(rng.normal(size=n))
        else:
            row = rows[int(rng.integers(len(rows)))]
            rows.append(row + 1e-6 * rng.normal(size=n) if kind == "near" else row.copy())
    p = len(rows)
    model = SystemModel(A=np.eye(n) + spread * rng.normal(size=(n, n)), B=np.zeros((n, 1)),
                        C=np.array(rows), tau=tau, s_bar=0, noise_bounds=np.zeros(p))
    stack = build_observability(model)
    window = stack_window(model, rng.uniform(-10.0, 10.0, size=(tau, p)), np.zeros((tau, 1)))
    for i in np.flatnonzero(stack.block_kernel_dims == n - tau).tolist():
        sv = np.linalg.svd(stack.blocks[i], compute_uv=False)
        if sv[0] > COND_LIMIT * sv[-1]:
            continue
        noisy = dataclasses.replace(model, noise_bounds=rng.uniform(0.0, 1.0, size=p))
        for on in (model, noisy):
            assert t_check(on, window, (i,), DEFAULT_EPSILON).sat


def _ill_conditioned_pair():
    """Three sensors of two states, tau = 2: sensor 0's block has condition
    number about 1e7; sensors 1 and 2 read a state that sensor 0 misses."""
    a = np.eye(2) + 1e-6 * np.array([[1.0, 2.0], [3.0, -1.0]])
    c = np.array([[1.0, 0.5], [0.0, 1.0], [1.0, 0.0]])
    model = SystemModel(A=a, B=np.zeros((2, 1)), C=c, tau=2, s_bar=1, noise_bounds=np.zeros(3))
    window = stack_window(model, np.array([[3.0, 1.0, 2.0], [-4.0, 1.0, 2.0]]),
                          np.zeros((2, 1)))
    return model, build_observability(model), window


def test_walk_certifies_the_pair_although_sensor_0_fits_alone(monkeypatch):
    # sensor 0's block is square and of full rank by the stack's rule, but its
    # condition number is about 1e6: the check's normal-equation solve leaves
    # a rounding residual of about 0.03, and the SVD solve that decides such a
    # rejection again accepts the lone sensor, which the block interpolates.
    # The walk checks no lone sensor (n // tau + 1 = 2), so its certificate
    # is the pair it rejected.
    model, stack, window = _ill_conditioned_pair()
    assert stack.block_kernel_dims.tolist() == [0, 0, 0]
    assert t_check(model, window, (0,), DEFAULT_EPSILON).sat
    exact = np.linalg.solve(stack.blocks[0], window.blocks[0])
    assert np.linalg.norm(stack.blocks[0] @ exact - window.blocks[0]) <= DEFAULT_EPSILON
    check = t_check(model, window, range(3), DEFAULT_EPSILON)
    checked = _counting_checks(monkeypatch)
    cert, counts = _conflict(model, window, check, 1, DEFAULT_EPSILON)
    assert cert.sensors == frozenset({0, 1})
    assert checked == [("t_check", (0, 1))]
    assert counts.theory_checks == 1  # the walk's one trial
    monkeypatch.undo()
    assert not t_check(model, window, cert.sensors, DEFAULT_EPSILON).sat


def test_brute_force_lists_the_support_of_an_ill_conditioned_complement():
    # the complement of (1, 2) is sensor 0 alone, which fits its reading: the
    # normal-equation solve rejects it, and the SVD solve that decides such a
    # rejection again accepts it
    model, stack, window = _ill_conditioned_pair()
    oracle = brute_force(dataclasses.replace(model, s_bar=2), stack, window)
    assert oracle.minimal == ((0, 1), (0, 2), (1, 2))


def _svd_residual(stack, window, sensors):
    """The least-squares residual norm of a sensor set by an explicit SVD:
    singular values below the largest times max(shape) * eps are dropped."""
    o_i = stack_rows(stack, sensors)
    y_i = window.blocks[list(sensors)].reshape(-1)
    u, sv, vt = np.linalg.svd(o_i, full_matrices=False)
    keep = sv > sv[0] * max(o_i.shape) * np.finfo(float).eps
    x = vt[keep].T @ ((u[:, keep].T @ y_i) / sv[keep])
    return float(np.linalg.norm(y_i - o_i @ x))


@st.composite
def _conditioned_models(draw):
    n = draw(st.integers(2, 4))
    return (n, n + draw(st.integers(1, 4)), draw(st.integers(2, 10)),
            draw(st.sampled_from([0.0, 1e-3, 1.0])), draw(st.integers(0, 2**32 - 1)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(spec=_conditioned_models())
def test_ill_conditioned_checks_match_an_svd_reference(spec):
    # scalar sensors whose rows have condition number 10**k, k = 2..10, and
    # readings of a random state, one of them moved by ``attack``: t_check
    # decides every set as the SVD reference does, away from the budget
    n, p, k, attack, seed = spec
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(p, n)))[0]
    v = np.linalg.qr(rng.normal(size=(n, n)))[0]
    rows = (u * np.logspace(0, -k, n)) @ v.T
    model = SystemModel(A=np.eye(n), B=np.zeros((n, 1)), C=rows, tau=1, s_bar=0,
                        noise_bounds=np.zeros(p))
    stack = build_observability(model)
    readings = rows @ (rng.normal(size=n) * 10.0 ** rng.uniform(-1.0, 2.0))
    readings[rng.integers(p)] += attack
    window = stack_window(model, readings[None, :], np.zeros((1, 1)))
    for size in range(n + 1, p + 1):
        for sensors in itertools.combinations(range(p), size):
            residual = _svd_residual(stack, window, sensors)
            if abs(residual - DEFAULT_EPSILON) > 0.5 * DEFAULT_EPSILON:
                check = t_check(model, window, sensors, DEFAULT_EPSILON)
                assert check.sat == (residual <= DEFAULT_EPSILON)


def test_overflowing_residual_is_not_solved_again(monkeypatch):
    # the GPS reading's square overflows: the normal-equation solve passes
    # its gradient test, the residual is inf, and the rejection stands
    # without an SVD solve
    model, _, _ = _ugv_case()
    window = stack_window(model, np.array([[1e200, 1.0, 1.2], [0.4, 0.9, 1.1]]),
                          np.zeros((2, 1)))
    solves = []
    real = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: solves.append(a) or real(*a, **k))
    with np.errstate(all="ignore"):
        check = t_check(model, window, range(3), DEFAULT_EPSILON)
    assert not check.sat and check.residual_sq == math.inf
    assert solves == []


def test_vehicle_walk_checks_no_lone_sensor(monkeypatch):
    checked = _counting_checks(monkeypatch)
    run_closed_loop(discretize_ugv(), alternating_encoder_scenario(), steps=340, seed=4)
    # n // tau + 1 = 2, and the one-sensor seed has no spare equation, so
    # there is no seed fit: the walk checks no lone sensor, neither the GPS
    # (full row rank) nor an encoder (rank 1 of 2)
    assert checked
    assert [sensors for _, sensors in checked if len(sensors) == 1] == []


@pytest.mark.parametrize("reading", [math.inf, math.nan, 1e200], ids=["inf", "nan", "overflow"])
def test_nonfinite_reading_in_the_one_sensor_prefix_is_checked(monkeypatch, reading):
    # estimate never gets here: it learns a singleton for a non-finite row
    # before its first check.  Called directly, the GPS reading is not finite
    # (or its square overflows), so the check rejects every set that holds
    # it, and certificates applies estimate's rule: the singleton {0}, with
    # no suspect and no check.
    model, stack, _ = _ugv_case()
    window = stack_window(model, np.array([[reading, 1.0, 1.2], [0.4, 0.9, 1.1]]),
                          np.zeros((2, 1)))
    checked = _counting_checks(monkeypatch)
    with np.errstate(all="ignore"):
        check = t_check(model, window, range(3), DEFAULT_EPSILON)
        assert not check.sat
        cert, _ = _conflict(model, window, check, 1, DEFAULT_EPSILON)
        direct = certificate_conflict(model, window, _theory_walk_order(stack, [1, 0], 1),
                                      DEFAULT_EPSILON, SolveStats())
    assert (cert.sensors, cert.suspect) == (frozenset({0}), None)
    # a lone candidate: the checked set, taken without a check
    assert (direct.sensors, direct.suspect) == (frozenset({0, 1}), 0)
    assert checked == []
    with np.errstate(all="ignore"):
        assert not t_check(model, window, cert.sensors, DEFAULT_EPSILON).sat


def test_every_conflict_certificate_is_rejected():
    # one full desk-scale solve: every conflict the walk and its extension
    # build fails the check
    inst = _desk_instance(8)
    # the solve needs 2 iterations; a stalled conflict walk fails at the cap
    config = EstimatorConfig(strategy=Strategy.CONFLICT, epsilon=1e-6, max_iterations=1000)
    result = estimate(inst.model, inst.stack, inst.window, config)
    assert result.feasible and set(inst.attacked) <= set(result.support)
    conflicts = [c for c in result.certificates
                 if c.kind is CertificateKind.AT_LEAST_ONE_ATTACKED]
    # each rejected check learns between one and s_bar of them
    rejected = [r for r in result.records if not r.sat]
    assert len(rejected) == result.iterations - 1
    assert all(1 <= len(r.certificates) <= 20 for r in rejected)
    assert len(conflicts) == sum(len(r.certificates) for r in rejected)
    for cert in conflicts:
        assert not t_check(inst.model, inst.window, cert.sensors, 1e-6).sat


def test_desk_walk_certificates_have_thirteen_members():
    # n = 25, tau = 2: 13 sensors are the fewest that over-determine the
    # state, and each of this solve's certificates is the first prefix of
    # its trial: 13 sensors, the suspect among them, rejected by the check
    inst = _desk_instance(8)
    config = EstimatorConfig(strategy=Strategy.CONFLICT, epsilon=1e-6, max_iterations=1000)
    result = estimate(inst.model, inst.stack, inst.window, config)
    conflicts = [c for c in result.certificates
                 if c.kind is CertificateKind.AT_LEAST_ONE_ATTACKED]
    assert conflicts
    for cert in conflicts:
        assert len(cert.sensors) == 13 and cert.suspect in cert.sensors
        assert not t_check(inst.model, inst.window, cert.sensors, 1e-6).sat


# ---------------------------------------------------------------------------
# the conflicts a consistent seed fit adds after the walk's
# ---------------------------------------------------------------------------


def _seed_fits(model, window, check, s_bar, epsilon):
    """The seed fits ``certificates`` makes under conflict, in order; none
    when the walk is unaimed.  The first fits the seed_size lowest of the
    check's ranking, and each next one the seed_size lowest of the ranking
    at the fit before it, until a fit passes or that seed was fitted
    already."""
    stack = build_observability(model)
    seed_size = stack.p - 2 * s_bar
    if stack.tau * seed_size <= stack.n or len(check.sensors) - seed_size < 2:
        return []
    fits, x = [], check.x
    while True:
        seed = tuple(sorted(_ranked(stack, window, check, x)[:seed_size]))
        if fits and (fits[-1].sat or seed in [fit.sensors for fit in fits]):
            return fits
        fits.append(t_check(model, window, seed, epsilon))
        x = fits[-1].x


def _seed_fit(model, window, check, s_bar, epsilon):
    """The last seed fit ``certificates`` makes under conflict, the one the
    walk ranks at, or None when the walk is unaimed."""
    fits = _seed_fits(model, window, check, s_bar, epsilon)
    return fits[-1] if fits else None


def _over_budget_cases():
    """(model, stack, window, check, s_bar, epsilon, attacked) for rejected checks of
    all 12 sensors of exact instances with 3 attacked sensors, solved at
    budget 2: the seed of 8 can be clean while 3 candidates are attacked, so
    the budget can end the extension."""
    for seed in range(6):
        inst = generate_instance(3, 12, 3, 3, "2s", 0.0, seed=seed,
                                 attack_norm={"lo": 2.0, "hi": 8.0})
        check = t_check(inst.model, inst.window, range(12), 1e-6)
        yield inst.model, inst.stack, inst.window, check, 2, 1e-6, inst.attacked


def test_seed_fit_conflicts_follow_the_walk_and_are_rejected():
    extended = capped = 0
    cases = [case + (None,) for c in range(8) for case in _walk_cases(c)]
    for model, stack, window, check, s_bar, epsilon, attacked in cases + list(
            _over_budget_cases()):
        certs, counts = certificates(model, window, check, s_bar, epsilon, Strategy.CONFLICT)
        assert 1 <= len(certs) <= s_bar
        if len(certs) == 1:
            continue
        extended += 1
        fit = _seed_fit(model, window, check, s_bar, epsilon)
        assert fit is not None and fit.sat and counts.conflict_fallbacks == 0
        # the walk's candidates, highest refit residual first: each further
        # suspect comes later in that order than the one before it
        seed_size = stack.p - 2 * s_bar
        order = _refit_ranking(stack, window, check.sensors, fit.x)[seed_size:][::-1]
        positions = [order.index(c.suspect) for c in certs]
        assert positions == sorted(set(positions))
        first = min(stack.n // stack.tau + 1, seed_size + 1)
        for cert in certs[1:]:
            assert cert.kind is CertificateKind.AT_LEAST_ONE_ATTACKED
            assert cert.suspect in cert.sensors and len(cert.sensors) == first
            assert not t_check(model, window, cert.sensors, epsilon).sat
        if attacked is not None and len(certs) == s_bar:
            capped += len(set(attacked) & set(check.sensors)) > s_bar
    assert extended > 0 and capped > 0


def test_no_extension_without_a_passing_seed_fit(monkeypatch):
    # the last seed fit is made and fails: the walk's conflict alone
    failed = 0
    for case in range(8):
        for model, _, window, check, s_bar, epsilon in _walk_cases(case):
            fit = _seed_fit(model, window, check, s_bar, epsilon)
            certs, _ = certificates(model, window, check, s_bar, epsilon, Strategy.CONFLICT)
            if fit is None or not fit.sat:
                failed += fit is not None
                assert len(certs) == 1
    assert failed > 0
    # the seed fit passes but the walk falls back: the checked set alone,
    # then (under conflict_agree) the agree certificate
    epsilon = 1e-3
    model, _, window = _lines_off_by((0.9, 0.9, 0.9, 0.9), epsilon, 2)
    check = t_check(model, window, range(10), epsilon)
    assert _seed_fit(model, window, check, 2, epsilon).sat
    trivial = Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED, frozenset(range(10)))
    certs, counts = certificates(model, window, check, 2, epsilon, Strategy.CONFLICT)
    assert certs == [trivial] and counts.conflict_fallbacks == 1
    # s_bar = 1 on the vehicle: on every rejected check of a run, the walk
    # with the extension is the walk alone, and certificates returns its one
    # certificate and its theory checks
    calls = []
    real = sse.estimator.certificates
    monkeypatch.setattr(sse.estimator, "certificates",
                        lambda *a: calls.append((a, real(*a))) or calls[-1][1])
    run_closed_loop(discretize_ugv(), alternating_encoder_scenario(), steps=340, seed=4)
    assert calls
    for (model, window, check, s_bar, epsilon, _), (certs, counts) in calls:
        conflict, suspect, checks = _reference_walk(model, window, check, s_bar, epsilon)
        walked = [Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED, conflict, suspect=suspect)]
        assert (_reference_walk(model, window, check, s_bar, epsilon, extend=True)
                == (walked, checks))
        assert (certs, counts.theory_checks) == (walked, checks)
    # the vehicle's budget is full after the walk's conflict; six lines with
    # two attacked sensors and s_bar = 2 also walk unaimed (no seed fit) but
    # leave room for a second conflict, which the other attacked sensor with
    # the first conflict's seed would be: still the walk's conflict alone
    rows = np.array(FIVE_LINES + [[1.0, -1.0]])
    model = line_model(rows, s_bar=2)
    window = line_window(model, rows @ [2.0, 6.0] + [5.0, -7.0, 0.0, 0.0, 0.0, 0.0])
    check = t_check(model, window, range(6), DEFAULT_EPSILON)
    assert _seed_fit(model, window, check, 2, DEFAULT_EPSILON) is None
    certs, _ = certificates(model, window, check, 2, DEFAULT_EPSILON, Strategy.CONFLICT)
    assert len(certs) == 1 and certs[0].suspect in (0, 1)
    other = ({0, 1} - {certs[0].suspect}) | (certs[0].sensors - {certs[0].suspect})
    assert not t_check(model, window, other, DEFAULT_EPSILON).sat


@pytest.mark.parametrize("strategy", [Strategy.CONFLICT, Strategy.CONFLICT_AGREE])
def test_seed_fit_conflicts_keep_the_oracle_answers(strategy):
    # generated "2s" instances, exact and noisy: feasibility and the minimal
    # support against brute force, with the extension running on some of
    # their rejected checks
    config = EstimatorConfig(strategy=strategy, epsilon=1e-6)
    extended = 0
    for k, (n, p, s_bar) in enumerate(((3, 9, 2), (4, 10, 2), (6, 11, 2), (3, 13, 3),
                                        (5, 14, 3), (4, 13, 3))):
        for s, noise in ((s_bar, 0.0), (s_bar - 1, 0.0), (s_bar, 0.01)):
            inst = generate_instance(n, p, s, s_bar, "2s", noise, seed=100 + 7 * k + s)
            model, stack, window = inst.model, inst.stack, inst.window
            oracle = brute_force(model, stack, window, epsilon=1e-6)
            result = estimate(model, stack, window, config)
            assert result.feasible == bool(oracle.supports)
            if result.feasible:
                assert result.support in oracle.supports
            minimal = minimal_support_estimate(model, stack, window, config)
            assert minimal.feasible == bool(oracle.supports)
            if minimal.feasible:
                assert minimal.support in oracle.minimal
            extended += any(len(r.certificates) > 1 for r in result.records)
    assert extended > 0


@pytest.mark.parametrize("noise", [0.0, 0.05, 1.0])
def test_conflict_matches_the_oracle_on_small_instances(noise):
    # feasibility and the minimal support under conflict, against brute force
    config = EstimatorConfig(strategy=Strategy.CONFLICT, epsilon=1e-6)
    walks = fallbacks = 0
    for spec in ((2, 7, 2, 2, "3s"), (3, 8, 2, 2, "2s"), (4, 10, 3, 3, "2s"),
                 (2, 9, 1, 3, "2s")):
        for seed in range(4):
            inst = generate_instance(*spec, noise, seed=seed,
                                     attack_norm={"lo": 0.05, "hi": 2.0})
            model, stack, window = inst.model, inst.stack, inst.window
            oracle = brute_force(model, stack, window, epsilon=1e-6)
            result = estimate(model, stack, window, config)
            assert result.feasible == bool(oracle.supports)
            if result.feasible:
                assert result.support in oracle.supports
            minimal = minimal_support_estimate(model, stack, window, config)
            assert minimal.feasible == bool(oracle.supports)
            if minimal.feasible:
                assert minimal.support in oracle.minimal
            walks += result.stats.theory_checks
            if spec == (4, 10, 3, 3, "2s"):
                fallbacks += result.stats.conflict_fallbacks
    assert walks > 0
    if noise == 1.0:
        # here the walk runs out of candidates and learns the checked set
        assert fallbacks > 0


# ---------------------------------------------------------------------------
# the concentration loop: seed fits until one passes or a seed repeats
# ---------------------------------------------------------------------------


def _rejected_checks(model, stack, window, result):
    """The rejected check of each record of a solve that failed."""
    for record in result.records:
        if not record.sat:
            sensors = tuple(i for i in range(model.p) if i not in record.support)
            yield t_check(model, window, sensors, 1e-6)


def test_repeated_seed_fits_solve_a_desk_tail_instance_in_two_iterations():
    # the first seed fit of the first rejected check fails, and the fit at
    # its ranking passes: the walk and the extension then name the whole
    # attack, so the solve takes 2 iterations (10 with a single seed fit)
    inst = _desk_instance(19)
    model, stack, window = inst.model, inst.stack, inst.window
    config = EstimatorConfig(strategy=Strategy.CONFLICT, epsilon=1e-6, max_iterations=1000)
    result = estimate(model, stack, window, config)
    assert result.feasible and result.support == inst.attacked
    assert result.iterations == 2
    check = next(_rejected_checks(model, stack, window, result))
    fits = _seed_fits(model, window, check, 20, 1e-6)
    assert len(fits) > 1 and fits[-1].sat
    assert len(result.records[0].certificates) == len(inst.attacked)


def test_seed_fit_loop_stops_on_a_repeated_seed(monkeypatch):
    # a desk solve where the ranking at a failed seed fit names a seed
    # already fitted: the loop stops there, having counted every seed fit as
    # one theory check, and the walk runs on the ranking at the last fit
    inst = generate_instance(25, 60, 14, 20, "2s", 0.0, seed=9000 + 97 * 14 + 2)
    model, stack, window = inst.model, inst.stack, inst.window
    config = EstimatorConfig(strategy=Strategy.CONFLICT, epsilon=1e-6, max_iterations=1000)
    result = estimate(model, stack, window, config)
    assert result.feasible and result.support == inst.attacked
    stopped = 0
    for check in _rejected_checks(model, stack, window, result):
        fits = _seed_fits(model, window, check, 20, 1e-6)
        with monkeypatch.context() as m:
            checked = _counting_checks(m)
            certs, counts = certificates(model, window, check, 20, 1e-6, Strategy.CONFLICT)
        assert [sensors for _, sensors in checked[:len(fits)]] == [f.sensors for f in fits]
        assert counts.theory_checks == len(checked)
        ranked = _refit_ranking(stack, window, check.sensors, fits[-1].x)
        assert certs[0] == certificate_conflict(model, window,
                                                _theory_walk_order(stack, ranked, 20), 1e-6,
                                                SolveStats())
        if not fits[-1].sat:
            stopped += 1
            assert len(fits) > 1 and not any(f.sat for f in fits)
            assert tuple(sorted(ranked[:20])) in [f.sensors for f in fits]
            assert len(certs) == 1
    assert stopped > 0


REPEATED_SEED_FIT_CASES = (
    [((2, 7, 2, 2, "3s"), seed) for seed in (6, 29)]
    + [((3, 9, 2, 2, "3s"), 20), ((2, 9, 2, 2, "3s"), 6)]
    + [((3, 8, 2, 2, "2s"), seed) for seed in (8, 17)]
    + [((4, 10, 3, 3, "2s"), seed) for seed in (3, 16)]
    + [((3, 10, 3, 3, "2s"), 30)]
)


@pytest.mark.parametrize("strategy", [Strategy.CONFLICT, Strategy.CONFLICT_AGREE])
def test_repeated_seed_fits_keep_the_oracle_answers(strategy):
    # small exact instances whose seed over-determines the state, each with a
    # rejected check whose first seed fit fails: feasibility, the support and
    # the minimal support against brute force
    config = EstimatorConfig(strategy=strategy, epsilon=1e-6)
    agreed = 0
    for spec, seed in REPEATED_SEED_FIT_CASES:
        inst = generate_instance(*spec, 0.0, seed=seed, attack_norm={"lo": 0.05, "hi": 2.0})
        model, stack, window = inst.model, inst.stack, inst.window
        assert stack.tau * (model.p - 2 * model.s_bar) > stack.n
        oracle = brute_force(model, stack, window, epsilon=1e-6)
        result = estimate(model, stack, window, config)
        assert result.feasible and result.support in oracle.supports
        minimal = minimal_support_estimate(model, stack, window, config)
        assert minimal.feasible and minimal.support in oracle.minimal
        assert any(len(_seed_fits(model, window, check, model.s_bar, 1e-6)) > 1
                   for check in _rejected_checks(model, stack, window, result))
        agreed += result.strategy is Strategy.CONFLICT_AGREE
    assert agreed == (6 if strategy is Strategy.CONFLICT_AGREE else 0)


# ---------------------------------------------------------------------------
# the gate-open path: conflict's certificates, plus the agree certificate
# ---------------------------------------------------------------------------


GATE_OPEN_CASES = (
    [("plant", seed) for seed in range(4)]
    + [((3, 9, s, 2, "3s"), seed) for s, seed in ((2, 11), (2, 17), (1, 23))]
    + [((4, 14, s, 3, "3s"), 7000 + 97 * s) for s in (2, 3)]
    + [((3, 8, 2, 2, "3s"), 400 + seed) for seed in range(3)]
)


def _gate_open_case(case):
    """(model, stack, window) of an exact window the agree gate is open on:
    a plant-style model (n=4, p=12, s_bar=2, tau=3) or a generated "3s"
    instance, some with attacks small enough to leave the seed fit failing."""
    spec, seed = GATE_OPEN_CASES[case]
    if spec == "plant":
        return _plant(seed)
    inst = generate_instance(*spec, 0.0, seed=seed, attack_norm={"lo": 0.05, "hi": 7.0})
    return inst.model, inst.stack, inst.window


def _agree_seeds(record):
    """The sensor sets of a record's agree certificates."""
    return [c.sensors for c in record.certificates if c.kind is CertificateKind.ALL_UNATTACKED]


AGREE_CONFIG = EstimatorConfig(strategy=Strategy.CONFLICT_AGREE, epsilon=1e-6)


@pytest.mark.parametrize("case", range(len(GATE_OPEN_CASES)))
def test_gate_open_at_least_one_certificates_are_rejected_sets(case):
    model, stack, window = _gate_open_case(case)
    result = estimate(model, stack, window, AGREE_CONFIG)
    assert result.strategy is Strategy.CONFLICT_AGREE
    # some rejected check learns the agree certificate and a conflict whose
    # other sensors fit the clean seed, so that its suspect is attacked; they
    # need not lie in the seed, as the concentration step ranks again at the
    # seed fit, where every clean sensor fits
    assert any(c.kind is CertificateKind.AT_LEAST_ONE_ATTACKED
               and t_check(model, window, seed | c.sensors - {c.suspect}, 1e-6).sat
               for r in result.records for seed in _agree_seeds(r) for c in r.certificates)
    for cert in result.certificates:
        if cert.kind is CertificateKind.AT_LEAST_ONE_ATTACKED:
            assert not t_check(model, window, cert.sensors, 1e-6).sat
    oracle = brute_force(model, stack, window, epsilon=1e-6)
    assert result.feasible and result.support in oracle.supports
    assert minimal_support_estimate(model, stack, window, AGREE_CONFIG).support in oracle.minimal


@pytest.mark.parametrize("case", range(len(GATE_OPEN_CASES)))
def test_gate_open_certificates_are_conflicts_plus_the_agree_certificate(case):
    # on each rejected check of the solve, conflict_agree learns conflict's
    # certificates, then the agree certificate when the last seed fit
    # passes; it makes conflict's checks, plus the seed fit when conflict
    # skips it (one candidate: no concentration step)
    model, stack, window = _gate_open_case(case)
    result = estimate(model, stack, window, AGREE_CONFIG)
    seed_size = model.p - 2 * model.s_bar
    passed = 0
    for record in result.records:
        if record.sat:
            continue
        sensors = tuple(i for i in range(model.p) if i not in record.support)
        check = t_check(model, window, sensors, 1e-6)
        assert not check.sat
        agree, agree_counts = certificates(model, window, check, model.s_bar, 1e-6,
                                           Strategy.CONFLICT_AGREE)
        conflict, conflict_counts = certificates(model, window, check, model.s_bar, 1e-6,
                                                 Strategy.CONFLICT)
        assert list(record.certificates) == agree
        fit = (_seed_fit(model, window, check, model.s_bar, 1e-6)
               or t_check(model, window, _ranked(stack, window, check)[:seed_size], 1e-6))
        if fit.sat:
            passed += 1
            conflict = conflict + [Certificate(CertificateKind.ALL_UNATTACKED,
                                               frozenset(fit.sensors))]
        assert agree == conflict
        one_candidate = len(sensors) - seed_size < 2
        assert agree_counts.theory_checks == conflict_counts.theory_checks + one_candidate
    assert passed > 0


def _lines_off_by(scales, epsilon, s_bar):
    """Unit-norm lines through (2, -1): six exact, then one more per scale,
    each off the point by scale * epsilon (alternating sides)."""
    rows = np.random.default_rng(2).normal(size=(6 + len(scales), 2))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    offsets = rows @ np.array([2.0, -1.0])
    offsets[6:] += epsilon * np.array(scales) * (-1.0) ** np.arange(len(scales))
    model = line_model(rows, s_bar=s_bar)
    return model, build_observability(model), line_window(model, offsets)


def test_conflict_agree_walks_as_conflict_when_sensors_fail_only_together(monkeypatch):
    # sensors 6-9 each miss the point of the six exact lines by 0.9 * epsilon:
    # each fits the six within epsilon, but together they do not, so the
    # check on all ten fails while the seed fit passes
    epsilon = 1e-3
    model, _, window = _lines_off_by((0.9, 0.9, 0.9, 0.9), epsilon, 2)
    check = t_check(model, window, range(10), epsilon)
    assert not check.sat
    seed = frozenset(range(6))
    for i in range(6, 10):
        assert t_check(model, window, seed | {i}, epsilon).sat
    walks = []
    real = sse.theory.certificate_conflict
    monkeypatch.setattr(sse.theory, "certificate_conflict",
                        lambda *a: walks.append(a) or real(*a))
    conflict, conflict_counts = certificates(model, window, check, 2, epsilon, Strategy.CONFLICT)
    walks.clear()
    certs, counts = certificates(model, window, check, 2, epsilon, Strategy.CONFLICT_AGREE)
    assert len(walks) == 1
    # the walk's certificate (its trivial fallback: no trial of it fails
    # either), then the agree certificate
    assert certs == conflict + [Certificate(CertificateKind.ALL_UNATTACKED, seed)]
    assert counts.conflict_fallbacks == conflict_counts.conflict_fallbacks == 1
    assert counts.theory_checks == conflict_counts.theory_checks
