import dataclasses
import json
import math
import re

import numpy as np
import pytest
import scipy.linalg

from sse import attacksim
from sse.attacksim import (
    AttackPhase,
    AttackScenario,
    discretize_ugv,
    alternating_encoder_scenario,
    generate_instance,
    place_feedback_gain,
    run_closed_loop,
    square_path_reference,
    ugv_guarantees,
)
from sse.estimator import EstimatorConfig, estimate
from sse.linmodel import build_observability, stack_window
from sse.theory import Strategy


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


def zero_order_hold(m, b_f, dt):
    """(A, B) of the vehicle at mass m, friction b_f and step dt, from the
    augmented-matrix exponential."""
    aug = np.zeros((3, 3))
    aug[:2, :2] = np.array([[0.0, 1.0], [0.0, -b_f / m]]) * dt
    aug[:2, 2:] = np.array([[0.0], [1.0 / m]]) * dt
    exp_aug = scipy.linalg.expm(aug)
    return exp_aug[:2, :2], exp_aug[:2, 2:]


def test_velocity_decay_matches_scalar_exponential():
    ugv = discretize_ugv()
    assert ugv.model.A[1, 1] == pytest.approx(math.exp(-0.125), abs=1e-15)
    assert ugv.model.A[1, 1] == pytest.approx(0.8825, abs=5e-5)


def test_discretization_matches_matrix_exponential():
    ugv = discretize_ugv()
    a, b = zero_order_hold(attacksim.UGV_MASS, attacksim.UGV_FRICTION, attacksim.UGV_DT)
    assert np.allclose(ugv.model.A, a, atol=1e-12)
    assert np.allclose(ugv.model.B, b, atol=1e-12)


def test_ugv_output_map():
    model = discretize_ugv().model
    assert np.array_equal(model.C, [[1, 0], [0, 1], [0, 1]])
    assert np.allclose(model.noise_bounds**2, 0.2)


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------


def test_generated_window_decomposition():
    inst = generate_instance(3, 6, 2, 2, "2s", 0.3, seed=4, attack_norm={"lo": 1.0, "hi": 3.0})
    stack = inst.stack
    for i in range(6):
        expected = stack.blocks[i] @ inst.x_true
        expected = expected + inst.attack_blocks.get(i, 0.0) + inst.noise_blocks[i]
        assert np.allclose(inst.window.blocks[i], expected, atol=1e-9)


def test_generated_attack_sparsity_and_norms():
    inst = generate_instance(3, 7, 2, 3, "2s", 0.0, seed=5, attack_norm=2.5)
    assert len(inst.attacked) == 2
    assert set(inst.attack_blocks) == set(inst.attacked)
    for block in inst.attack_blocks.values():
        assert np.linalg.norm(block) == pytest.approx(2.5, rel=1e-12)


def test_attack_norm_list_is_per_sensor_and_range_is_a_dict():
    exact = generate_instance(3, 7, 2, 3, "2s", 0.0, seed=5, attack_norm=[3.0, 7.0])
    norms = [np.linalg.norm(exact.attack_blocks[i]) for i in exact.attacked]
    assert norms == pytest.approx([3.0, 7.0], rel=1e-12)
    drawn = generate_instance(3, 7, 2, 3, "2s", 0.0, seed=5, attack_norm={"lo": 3.0, "hi": 7.0})
    for block in drawn.attack_blocks.values():
        assert 3.0 <= np.linalg.norm(block) <= 7.0 + 1e-12
    with pytest.raises(ValueError, match='"lo": lo'):
        generate_instance(3, 7, 3, 3, "2s", 0.0, seed=5, attack_norm=[3.0, 7.0])
    with pytest.raises(ValueError, match="an attack norm range has unknown key 'low'"):
        generate_instance(3, 7, 2, 3, "2s", 0.0, seed=5, attack_norm={"low": 3.0, "hi": 7.0})
    with pytest.raises(ValueError, match="an attack norm range lacks 'hi'"):
        generate_instance(3, 7, 2, 3, "2s", 0.0, seed=5, attack_norm={"lo": 3.0})


def test_generated_noise_respects_bounds():
    inst = generate_instance(3, 6, 0, 1, "2s", 0.4, seed=6)
    for block in inst.noise_blocks.values():
        assert np.linalg.norm(block) <= 0.4 + 1e-12


def test_generation_is_deterministic():
    a = generate_instance(3, 6, 1, 2, "2s", 0.2, seed=7)
    b = generate_instance(3, 6, 1, 2, "2s", 0.2, seed=7)
    assert np.array_equal(a.model.A, b.model.A)
    assert np.array_equal(a.outputs, b.outputs)
    assert a.attacked == b.attacked


def test_same_seed_same_model_across_attack_norms():
    a = generate_instance(3, 6, 1, 1, "2s", 0.2, seed=8, attack_norm=1.0)
    b = generate_instance(3, 6, 1, 1, "2s", 0.2, seed=8, attack_norm=9.0)
    assert np.array_equal(a.model.A, b.model.A)
    assert np.array_equal(a.model.C, b.model.C)
    assert a.attacked == b.attacked
    assert np.array_equal(a.x_true, b.x_true)


def test_generator_verifies_observability_level():
    inst = generate_instance(3, 8, 1, 2, "3s", 0.0, seed=9)
    from sse import check_sparse_observability

    assert check_sparse_observability(inst.model, 6)


def test_generator_rejects_impossible_level():
    with pytest.raises(ValueError, match="observable"):
        generate_instance(3, 6, 1, 2, "3s", 0.0, seed=0)
    with pytest.raises(ValueError, match="budget"):
        generate_instance(3, 6, 3, 2, "2s", 0.0, seed=0)


@pytest.mark.parametrize("args, kwargs, message", [
    ((3, 8.5, 0, 2), {}, "p must be a whole number, got 8.5"),
    ((3, 0, 0, 0), {}, "p must be at least 1, got 0"),
    ((3, 8, 0, 2.5), {}, "s_bar must be a whole number, got 2.5"),
    ((3, 8, 0, -1), {}, "s_bar must be non-negative, got -1"),
    ((3, 8, 0, 2), {"seed": -1}, "seed must be non-negative, got -1"),
    ((3, 8, 0, 2), {"seed": 1.5}, "seed must be a whole number, got 1.5"),
], ids=["p_fraction", "p_zero", "s_bar_fraction", "s_bar_negative", "seed_negative",
        "seed_fraction"])
def test_generator_range_checks_p_s_bar_and_seed(args, kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        generate_instance(*args, **kwargs)


def test_generator_takes_whole_floats_as_their_ints():
    a = generate_instance(3, 8, 1, 2, "2s", 0.0, seed=1)
    b = generate_instance(3, 8.0, 1, 2.0, "2s", 0.0, seed=1.0)
    assert b.model.p == 8 and b.model.s_bar == 2 and b.attacked == a.attacked
    assert np.array_equal(a.outputs, b.outputs)


def test_generator_rejects_an_unknown_level():
    with pytest.raises(ValueError, match="observability_level must be '2s' or '3s', got '4s'"):
        generate_instance(3, 6, 1, 1, "4s", 0.0, seed=0)


def test_generator_gives_up_after_its_resamples(monkeypatch):
    monkeypatch.setattr(attacksim, "MAX_RESAMPLES", 0)
    with pytest.raises(RuntimeError, match="no 2s-sparse observable system found in 0 draws"):
        generate_instance(3, 6, 1, 1, "2s", 0.0, seed=0)


def test_generator_above_the_exact_limit_keeps_its_stream():
    # C(40, 30) removals are too many to check: the first system is kept
    # unproven, after the generator's AUDIT_SAMPLES kept-set draws
    n, p, s_bar, seed = 3, 40, 10, 4
    level = 3 * s_bar
    assert math.comb(p, level) > attacksim.AUDIT_EXACT_LIMIT
    inst = generate_instance(n, p, 2, s_bar, "3s", 0.0, seed=seed)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a *= 0.95 / max(abs(np.linalg.eigvals(a)))
    b = rng.normal(size=(n, 1))
    c = rng.normal(size=(p, n))
    for _ in range(attacksim.AUDIT_SAMPLES):
        rng.choice(p, size=p - level, replace=False)
    assert np.array_equal(inst.model.A, a)
    assert np.array_equal(inst.model.B, b)
    assert np.array_equal(inst.model.C, c)
    assert np.array_equal(inst.x_true, rng.normal(size=n) * attacksim.STATE_SCALE)


@pytest.mark.parametrize("p, k", [
    (60, 40), (60, 20), (14, 8), (12, 1), (5, 5), (10000, 9000),  # Floyd's algorithm
    (10001, 150), (10001, 200),  # Floyd's algorithm: k <= p // 50 above 10,000 items
    (10001, 201), (10001, 300), (20000, 19999), (10001, 10001),  # tail shuffle
])
def test_skipped_choices_leave_the_stream_of_repeated_choices(p, k):
    # both of numpy's regimes for choice without replacement, and their edges
    drawn, skipped = np.random.default_rng(p + k), np.random.default_rng(p + k)
    for rng in (drawn, skipped):
        rng.normal(size=3)
    for _ in range(3):
        drawn.choice(p, size=k, replace=False)
    attacksim._skip_choices(skipped, p, k, 3)
    assert skipped.bit_generator.state == drawn.bit_generator.state


def test_generator_resamples_a_system_that_fails_the_exact_check(monkeypatch):
    real = attacksim.check_sparse_observability
    calls = []

    def first_fails(*args, **kwargs):
        calls.append(args[1])
        return len(calls) > 1 and real(*args, **kwargs)

    monkeypatch.setattr(attacksim, "check_sparse_observability", first_fails)
    inst = generate_instance(3, 8, 1, 2, "3s", 0.0, seed=9)
    assert calls == [6, 6]
    rng = np.random.default_rng(9)
    for _ in range(2):  # the first system is rejected, the second kept
        rng.normal(size=(3, 3))
        rng.normal(size=(3, 1))
        c = rng.normal(size=(8, 3))
    assert np.array_equal(inst.model.C, c)
    assert np.array_equal(inst.x_true, rng.normal(size=3) * attacksim.STATE_SCALE)


def test_poor_observability_kernel_dims_at_scale():
    inst = generate_instance(25, 60, 1, 20, "2s", 0.0, seed=10)
    assert inst.model.tau == 2
    dims = inst.stack.block_kernel_dims
    assert set(dims.tolist()) <= {23, 24}  # n-2 or n-1: each sensor sees little


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def test_scenario_round_trip():
    scenario = alternating_encoder_scenario()
    back = AttackScenario.from_json_dict(json.loads(json.dumps(scenario.to_json_dict())))
    assert back == scenario


def test_scenario_rejects_overlapping_phases():
    with pytest.raises(ValueError, match="overlap"):
        AttackScenario(phases=(
            AttackPhase(sensor=1, kind="random_noise", start=0, end=10, amplitude=1.0),
            AttackPhase(sensor=2, kind="random_noise", start=5, end=15, amplitude=1.0),
        ))


def test_phase_validation():
    with pytest.raises(ValueError, match="kind"):
        AttackPhase(sensor=1, kind="bogus", start=0, end=5)
    with pytest.raises(ValueError, match="empty"):
        AttackPhase(sensor=1, kind="replay", start=5, end=5)
    with pytest.raises(ValueError, match="non-negative"):
        AttackPhase(sensor=-1, kind="replay", start=0, end=5)


def test_random_noise_floor_above_one_is_rejected():
    # its magnitude is drawn from [floor_frac, 1]; other kinds never read it
    with pytest.raises(ValueError, match="floor_frac must be at most 1, got 1.5"):
        AttackPhase(sensor=1, kind="random_noise", start=0, end=5, amplitude=1.0, floor_frac=1.5)
    assert AttackPhase(sensor=1, kind="step_ramp", start=0, end=5, floor_frac=1.5).floor_frac == 1.5
    AttackPhase(sensor=1, kind="random_noise", start=0, end=5, amplitude=1.0, floor_frac=1.0)


@pytest.mark.parametrize("delay", [0, -1])
def test_replay_delay_below_one_is_rejected(delay):
    # -1 would read a row past the end of the run, 0 the row being written
    with pytest.raises(ValueError, match=f"replay delay must be at least 1 step, got {delay}"):
        AttackPhase(sensor=1, kind="replay", start=5, end=20, delay=delay)


@pytest.mark.parametrize("field, value", [
    ("sensor", 1.5), ("start", 0.5), ("end", 9.5), ("delay", 1.5), ("switch_step", 7.5),
    ("sensor", "1"), ("delay", math.inf),
])
def test_phase_step_fields_are_whole_numbers(field, value):
    doc = {"sensor": 1, "kind": "step_ramp", "start": 0, "end": 10, field: value}
    with pytest.raises(ValueError, match=f"{field} must be a whole number"):
        AttackScenario.from_json_dict({"phases": [doc]})


@pytest.mark.parametrize("field, value", [
    ("amplitude", "40"), ("floor_frac", math.nan), ("step", None), ("slope", -math.inf),
])
def test_phase_signal_fields_are_finite_numbers(field, value):
    doc = {"sensor": 1, "kind": "step_ramp", "start": 0, "end": 10, field: value}
    message = f"^phase 0: {field} must be a finite number, got {value!r}$"
    with pytest.raises(ValueError, match=message):
        AttackScenario.from_json_dict({"phases": [doc]})


@pytest.mark.parametrize("field, value, message", [
    ("steps", 20.7, "steps must be a whole number, got 20.7"),
    ("seed", 0.5, "seed must be a whole number, got 0.5"),
    ("seed", -3, "seed must be non-negative, got -3"),
    ("segment_steps", 0, "segment_steps must be at least 1, got 0"),
    ("segment_steps", 2.5, "segment_steps must be a whole number, got 2.5"),
    ("stpes", 5, "scenario has unknown key 'stpes'"),
])
def test_scenario_document_rejects_a_bad_count(field, value, message):
    with pytest.raises(ValueError, match=message):
        AttackScenario.from_json_dict({"phases": [], field: value})


@pytest.mark.parametrize("field", ["sensor", "kind", "start", "end"])
def test_scenario_phase_lacking_a_field_is_named(field):
    doc = {"sensor": 1, "kind": "replay", "start": 5, "end": 20}
    del doc[field]
    with pytest.raises(ValueError, match=f"^phase 0 lacks '{field}'$"):
        AttackScenario.from_json_dict({"phases": [doc]})


def test_scenario_document_loads_whole_floats_as_ints():
    doc = {"steps": 20, "segment_steps": 10, "seed": 3, "phases": [
        {"sensor": 1, "kind": "step_ramp", "start": 5, "end": 20, "switch_step": 8}]}
    scenario = AttackScenario.from_json_dict(json.loads(json.dumps(doc), parse_int=float))
    assert scenario == AttackScenario.from_json_dict(doc)
    phase = scenario.phases[0]
    assert all(type(v) is int for v in (scenario.steps, scenario.segment_steps, scenario.seed,
                                        phase.sensor, phase.start, phase.end, phase.switch_step))


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------


def test_feedback_gain_places_poles():
    model = discretize_ugv().model
    gain = place_feedback_gain(model.A, model.B)
    closed = model.A - model.B @ gain
    assert np.allclose(sorted(np.linalg.eigvals(closed).real), [0.8, 0.85], atol=1e-9)


def test_feedback_gain_rejects_an_uncontrollable_pair():
    a = np.array([[0.9, 0.2], [0.0, 0.5]])
    b = np.array([[1.0], [0.0]])  # an eigenvector of a
    with pytest.raises(ValueError, match="not controllable"):
        place_feedback_gain(a, b)


def test_feedback_gain_is_placed_for_a_heavy_vehicle():
    # controllable, but det(ctrb) is about -1e-13: the rank test ignores scale
    a, b = zero_order_hold(1e5, attacksim.UGV_FRICTION, attacksim.UGV_DT)
    gain = place_feedback_gain(a, b)
    closed = a - b @ gain
    assert np.allclose(sorted(np.linalg.eigvals(closed).real), [0.8, 0.85], atol=1e-9)


def test_closed_loop_rejects_a_phase_on_a_missing_sensor():
    scenario = AttackScenario(phases=(
        AttackPhase(sensor=3, kind="step_ramp", start=5, end=10, step=3.0),), steps=20)
    with pytest.raises(ValueError, match="sensor 3"):
        run_closed_loop(discretize_ugv(), scenario)


def test_closed_loop_needs_a_full_window():
    with pytest.raises(ValueError, match="need at least tau=2 steps, got 1"):
        run_closed_loop(discretize_ugv(), AttackScenario(phases=(), steps=20), steps=1)


@pytest.mark.parametrize("count, value", [("steps", 3.7), ("seed", 1.5)])
def test_closed_loop_counts_are_whole_numbers(count, value):
    scenario = AttackScenario(phases=(), steps=20)
    with pytest.raises(ValueError, match=f"{count} must be a whole number, got {value}"):
        run_closed_loop(discretize_ugv(), scenario, **{count: value})


def test_square_path_reference_alternates():
    assert square_path_reference(0, 150) == 5.0
    assert square_path_reference(149, 150) == 5.0
    assert square_path_reference(150, 150) == 0.0
    assert square_path_reference(300, 150) == 5.0


def test_noise_free_attack_free_loop_tracks_exactly():
    ugv = discretize_ugv()
    clean_model = dataclasses.replace(ugv.model, noise_bounds=np.zeros(3))
    clean = dataclasses.replace(ugv, model=clean_model)
    scenario = AttackScenario(phases=(), steps=200, segment_steps=100)
    trace = run_closed_loop(clean, scenario, config=EstimatorConfig(epsilon=1e-9), seed=0)
    assert not trace.b.any()
    assert trace.feasible[1:].all()
    err = np.linalg.norm(trace.x_true - trace.x_est, axis=1)
    assert err[1:].max() <= 1e-8  # exact once the first window closes
    # the controller actually reaches the 5 m leg before the turn
    assert abs(trace.x_true[99, 0] - 5.0) < 0.25


def test_rank_deficient_estimate_coasts_through_the_model():
    # with the GPS attacked only the two velocity encoders are trusted, and
    # they never see position: a feasible but rank-deficient solve
    ugv = discretize_ugv()
    phase = AttackPhase(sensor=0, kind="step_ramp", start=20, end=40, step=30.0)
    trace = run_closed_loop(ugv, AttackScenario(phases=(phase,), steps=60), seed=0)
    model = ugv.model
    assert np.flatnonzero(trace.degenerate).tolist() == [20, 40]
    for t in (20, 40):
        assert trace.feasible[t] and trace.b[t].tolist() == [1, 0, 0]
        coasted = model.A @ trace.x_est[t - 1] + model.B @ np.array([trace.u[t - 1]])
        assert trace.x_est[t].tobytes() == coasted.tobytes()


def test_noisy_attack_free_loop_flags_nothing():
    ugv = discretize_ugv()
    scenario = AttackScenario(phases=(), steps=150, segment_steps=150)
    trace = run_closed_loop(ugv, scenario, seed=1)
    assert not trace.b.any()
    assert trace.feasible[1:].all()


def test_window_noise_stays_admissible():
    ugv = discretize_ugv()
    scenario = AttackScenario(phases=(), steps=120, segment_steps=60)
    trace = run_closed_loop(ugv, scenario, seed=2)
    noise = trace.y - trace.x_true @ ugv.model.C.T  # attack-free: y = C x + noise
    for t in range(1, trace.steps):
        window = noise[t - 1 : t + 1]
        norms = np.linalg.norm(window, axis=0)
        assert np.all(norms <= ugv.model.noise_bounds + 1e-12)


def test_attack_columns_limited_to_scenario_sensors():
    trace = run_closed_loop(discretize_ugv(), alternating_encoder_scenario(), seed=3)
    assert not trace.attack[:, 0].any()  # the GPS is never corrupted
    assert trace.attack[:, 1].any() and trace.attack[:, 2].any()


def test_replay_waits_for_history():
    scenario = AttackScenario(phases=(
        AttackPhase(sensor=1, kind="replay", start=0, end=40, delay=25),
    ), steps=40, segment_steps=40)
    trace = run_closed_loop(discretize_ugv(), scenario, seed=4)
    assert not trace.attack[:25, 1].any()
    assert trace.attack[25:, 1].any()
    # replayed measurement reproduced exactly
    for t in range(25, 40):
        assert trace.y[t, 1] == pytest.approx(trace.y[t - 25, 1], abs=1e-12)


def test_closed_loop_determinism():
    scenario = alternating_encoder_scenario()
    a = run_closed_loop(discretize_ugv(), scenario, steps=120, seed=5)
    b = run_closed_loop(discretize_ugv(), scenario, steps=120, seed=5)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.b, b.b)
    assert np.array_equal(a.u, b.u)


@pytest.mark.parametrize("high", [
    np.full(3, math.sqrt(attacksim.UGV_NOISE_SQ / 2)),
    np.array([0.3, 0.0, 1e-3]),  # a zero bound draws exactly 0
    np.array([1e300, 5.0, 0.0]),
])
def test_noise_draw_equals_uniform(high):
    # the closed loop draws low + (high - low) * random(), which is how numpy
    # computes uniform(low, high): the same doubles, the same generator state
    low = -high
    width = high - low
    twin_a, twin_b = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(500):
        drawn = low + width * twin_a.random(3)
        assert drawn.tobytes() == twin_b.uniform(low, high).tobytes()
        assert twin_a.bit_generator.state == twin_b.bit_generator.state


def test_attack_free_loop_noise_is_the_uniform_stream():
    # with no attack phase the loop's only draws are its noise samples, and
    # each reading is the loop's clean + attack + noise
    ugv = discretize_ugv()
    trace = run_closed_loop(ugv, AttackScenario(phases=(), steps=50), seed=12)
    bound = ugv.model.noise_bounds / math.sqrt(ugv.model.tau)
    rng = np.random.default_rng(12)
    expected = np.array([ugv.model.C @ trace.x_true[t] + np.zeros(3)
                         + rng.uniform(-bound, bound) for t in range(50)])
    assert trace.y.tobytes() == expected.tobytes()


def _reference_closed_loop(ugv, scenario, steps=None, config=EstimatorConfig(), seed=None):
    """``run_closed_loop`` as it drew its numbers step by step: rng.random(p)
    for the noise, then rng.uniform() and rng.uniform(floor_frac, 1.0) on a
    random_noise step, and ``scenario.phase_at`` each step.  It builds each
    step's arrays afresh and rolls the estimate forward by its own
    ``A @ x + B @ u`` loop."""
    model = ugv.model
    steps = scenario.steps if steps is None else steps
    rng = np.random.default_rng(scenario.seed if seed is None else seed)
    stack = build_observability(model)
    gain = place_feedback_gain(model.A, model.B)
    p, tau = model.p, model.tau
    noise_high = model.noise_bounds / math.sqrt(tau)
    noise_low = -noise_high
    noise_width = noise_high - noise_low
    x, x_est = np.zeros(2), np.zeros(2)
    tr = attacksim.Trace(
        x_true=np.zeros((steps, 2)), x_est=np.zeros((steps, 2)), y=np.zeros((steps, p)),
        attack=np.zeros((steps, p)), b=np.zeros((steps, p), dtype=int), u=np.zeros(steps),
        feasible=np.zeros(steps, dtype=bool), estimated=np.zeros(steps, dtype=bool),
        degenerate=np.zeros(steps, dtype=bool),
    )
    u_rows = tr.u.reshape(steps, 1)
    for t in range(steps):
        noise = noise_low + noise_width * rng.random(p)
        clean = model.C @ x
        attack = np.zeros(p)
        phase = scenario.phase_at(t)
        if phase is not None:
            i = phase.sensor
            if phase.kind == "random_noise":
                sign = 1.0 if rng.uniform() < 0.5 else -1.0
                attack[i] = sign * phase.amplitude * rng.uniform(phase.floor_frac, 1.0)
            elif phase.kind == "step_ramp":
                switch = phase.switch_step if phase.switch_step is not None else phase.end
                attack[i] = phase.step
                if t >= switch:
                    attack[i] += phase.slope * (t - switch) * ugv.dt
            elif phase.kind == "replay" and t >= phase.delay:
                attack[i] = tr.y[t - phase.delay, i] - (clean[i] + noise[i])
        y = clean + attack + noise
        tr.x_true[t], tr.y[t], tr.attack[t] = x, y, attack
        ref = square_path_reference(t, scenario.segment_steps)
        if t >= tau - 1:
            window_inputs = u_rows[t - tau + 1 : t + 1]
            window = stack_window(model, tr.y[t - tau + 1 : t + 1], window_inputs)
            result = estimate(model, stack, window, config)
            tr.estimated[t] = True
            tr.feasible[t] = result.feasible
            if result.feasible:
                tr.b[t, list(result.support)] = 1
            if result.feasible and not result.rank_deficient_final:
                x_est = result.x  # rolled to the current step through tau - 1 inputs
                for u in window_inputs[:-1]:
                    x_est = model.A @ x_est + model.B @ u
            else:
                tr.degenerate[t] = result.feasible
                x_est = model.A @ x_est + model.B @ np.array([tr.u[t - 1]]) if t else x_est
        else:
            x_est = np.array([y[0], 0.5 * (y[1] + y[2])])
        tr.x_est[t] = x_est
        u = float(-(gain @ (x_est - np.array([ref, 0.0])))[0])
        tr.u[t] = u
        x = model.A @ x + model.B @ np.array([u])
    return tr


def _assert_same_trace(trace, want):
    for f in dataclasses.fields(attacksim.Trace):
        got, expected = getattr(trace, f.name), getattr(want, f.name)
        assert got.dtype == expected.dtype and got.shape == expected.shape, f.name
        assert got.tobytes() == expected.tobytes(), f.name


@pytest.mark.parametrize("seed", range(5))
def test_closed_loop_replays_the_per_step_draws(seed):
    # the run's one rng.random call gives the doubles the per-step calls gave
    ugv, scenario = discretize_ugv(), alternating_encoder_scenario()
    _assert_same_trace(run_closed_loop(ugv, scenario, seed=seed),
                       _reference_closed_loop(ugv, scenario, seed=seed))


@pytest.mark.parametrize("phases, steps", [
    # every kind, floors other than 0.75, and a random_noise phase that the
    # run's 130 steps cut off at step 130 of [105, 160)
    ((AttackPhase(sensor=1, kind="random_noise", start=10, end=40, amplitude=25.0,
                  floor_frac=0.3),
      AttackPhase(sensor=2, kind="step_ramp", start=45, end=70, step=12.0, slope=5.0,
                  switch_step=55),
      AttackPhase(sensor=1, kind="replay", start=75, end=100, delay=20),
      AttackPhase(sensor=2, kind="random_noise", start=105, end=160, amplitude=40.0,
                  floor_frac=-0.5)), 130),
    # no random_noise phase: the noise is every draw
    ((AttackPhase(sensor=2, kind="step_ramp", start=5, end=30, step=30.0),
      AttackPhase(sensor=1, kind="replay", start=40, end=90, delay=30)), None),
], ids=["all_kinds_cut_off", "no_random_noise"])
def test_closed_loop_draws_match_the_reference_on_other_scenarios(phases, steps):
    ugv = discretize_ugv()
    scenario = AttackScenario(phases=phases, steps=200, segment_steps=60, seed=11)
    _assert_same_trace(run_closed_loop(ugv, scenario, steps=steps),
                       _reference_closed_loop(ugv, scenario, steps=steps))


def test_alternating_attack_detection_smoke():
    ugv = discretize_ugv()
    scenario = alternating_encoder_scenario()
    constants, bounds = ugv_guarantees(ugv, epsilon=1e-6)
    assert 0.99 < constants.delta_s < 1.0
    trace = run_closed_loop(ugv, scenario, steps=240,
                            config=EstimatorConfig(strategy=Strategy.CONFLICT_AGREE),
                            seed=6)
    threshold = math.sqrt(bounds.detection_threshold_sq)
    norms = trace.window_attack_norms(ugv.model.tau)
    checked = hit = 0
    for t in range(1, trace.steps):
        above = [i for i in range(3) if norms[t, i] > threshold]
        if len(above) == 1:
            checked += 1
            hit += int(trace.b[t, above[0]] == 1)
    assert checked > 50
    assert hit == checked


def test_trace_csv_round_trip(tmp_path):
    trace = run_closed_loop(discretize_ugv(), alternating_encoder_scenario(), steps=30, seed=7)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["t", "x_true", "v_true", "x_est", "v_est",
                      "y1", "y2", "y3", "a1", "a2", "a3", "b1", "b2", "b3", "u"]
    assert len(lines) == 31
    row5 = lines[6].split(",")
    assert int(row5[0]) == 5
    # 17 significant digits reproduce the doubles exactly
    assert float(row5[1]) == trace.x_true[5, 0]
    assert float(row5[14]) == trace.u[5]

