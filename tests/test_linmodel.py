import json

import numpy as np
import pytest

from sse import (
    GramSingularError,
    SubsetCapError,
    SystemModel,
    build_observability,
    check_sparse_observability,
    compute_delta_s,
    compute_o_bar,
    roll_forward,
    spectral_helper_check,
    stack_window,
)
from sse.attacksim import discretize_ugv

from conftest import simulate_outputs


def random_model(rng, n=3, p=5, m=1, tau=None, s_bar=1):
    a = rng.normal(size=(n, n))
    a *= 0.9 / max(abs(np.linalg.eigvals(a)))
    return SystemModel(
        A=a,
        B=rng.normal(size=(n, m)),
        C=rng.normal(size=(p, n)),
        tau=n if tau is None else tau,
        s_bar=s_bar,
        noise_bounds=np.zeros(p),
    )


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_model_validation_errors():
    eye = np.eye(2)
    with pytest.raises(ValueError, match="square"):
        SystemModel(A=np.ones((2, 3)), B=eye, C=eye, tau=1, s_bar=0, noise_bounds=[0, 0])
    with pytest.raises(ValueError, match="tau"):
        SystemModel(A=eye, B=eye, C=eye, tau=3, s_bar=0, noise_bounds=[0, 0])
    with pytest.raises(ValueError, match="s_bar"):
        SystemModel(A=eye, B=eye, C=eye, tau=2, s_bar=5, noise_bounds=[0, 0])
    with pytest.raises(ValueError, match="noise_bounds"):
        SystemModel(A=eye, B=eye, C=eye, tau=2, s_bar=1, noise_bounds=[-1, 0])
    with pytest.raises(ValueError, match="columns"):
        SystemModel(A=eye, B=eye, C=np.ones((3, 3)), tau=2, s_bar=1, noise_bounds=[0, 0, 0])


def test_model_json_round_trip():
    rng = np.random.default_rng(3)
    model = random_model(rng, n=4, p=6, m=2, tau=3, s_bar=2)
    doc = json.loads(json.dumps(model.to_json_dict()))
    back = SystemModel.from_json_dict(doc)
    assert np.array_equal(back.A, model.A)
    assert np.array_equal(back.B, model.B)
    assert np.array_equal(back.C, model.C)
    assert back.tau == model.tau and back.s_bar == model.s_bar
    assert np.array_equal(back.noise_bounds, model.noise_bounds)


def test_model_json_missing_field():
    with pytest.raises(ValueError, match="missing fields"):
        SystemModel.from_json_dict({"A": [[1.0]]})


# ---------------------------------------------------------------------------
# observability stacking
# ---------------------------------------------------------------------------


def test_identity_dynamics_repeats_rows():
    model = SystemModel(A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(2), tau=2,
                        s_bar=0, noise_bounds=[0, 0])
    stack = build_observability(model)
    assert np.array_equal(stack.blocks[0], [[1, 0], [1, 0]])
    assert np.array_equal(stack.blocks[1], [[0, 1], [0, 1]])
    assert list(stack.block_kernel_dims) == [1, 1]


def test_ugv_block_kernels():
    stack = build_observability(discretize_ugv().model)
    # the position sensor sees both states through the position-velocity
    # coupling; each encoder alone pins only the velocity
    assert list(stack.block_kernel_dims) == [0, 1, 1]


def test_zero_row_observes_nothing():
    rng = np.random.default_rng(0)
    model = random_model(rng, n=3, p=4)
    c = model.C.copy()
    c[2] = 0.0
    model = SystemModel(A=model.A, B=model.B, C=c, tau=3, s_bar=1, noise_bounds=np.zeros(4))
    stack = build_observability(model)
    assert stack.block_kernel_dims[2] == 3
    assert stack.block_norms_sq[2] == 0.0


def test_row_structure_matches_naive_powers():
    rng = np.random.default_rng(1)
    for seed in range(5):
        model = random_model(np.random.default_rng(seed), n=4, p=3, tau=4)
        stack = build_observability(model)
        for i in range(model.p):
            for j in range(model.tau):
                expected = model.C[i] @ np.linalg.matrix_power(model.A, j)
                assert np.allclose(stack.blocks[i][j], expected, atol=1e-12)


# ---------------------------------------------------------------------------
# window stacking
# ---------------------------------------------------------------------------


def test_stack_window_zero_inputs():
    rng = np.random.default_rng(2)
    model = random_model(rng, n=3, p=4, tau=3)
    x0 = rng.normal(size=3)
    outputs = simulate_outputs(model, x0, np.zeros((3, 1)))
    window = stack_window(model, outputs, np.zeros((3, 1)))
    stack = build_observability(model)
    for i in range(model.p):
        assert np.allclose(window.blocks[i], stack.blocks[i] @ x0, atol=1e-12)


def explicit_input_matrix(model, i):
    """F_i built row by row from its definition (independent of stack_window)."""
    tau, m = model.tau, model.m
    f = np.zeros((tau, tau * m))
    for j in range(1, tau):
        for k in range(j):
            block = model.C[i] @ np.linalg.matrix_power(model.A, j - 1 - k) @ model.B
            f[j, k * m : (k + 1) * m] = block
    return f


def test_stack_window_matches_explicit_convolution():
    rng = np.random.default_rng(4)
    model = random_model(rng, n=3, p=4, m=2, tau=3)
    x0 = rng.normal(size=3)
    inputs = rng.normal(size=(3, 2))
    outputs = simulate_outputs(model, x0, inputs)
    window = stack_window(model, outputs, inputs)
    stack = build_observability(model)
    u_flat = inputs.reshape(-1)
    for i in range(model.p):
        y_tilde = outputs[:, i]
        expected = y_tilde - explicit_input_matrix(model, i) @ u_flat
        assert np.allclose(window.blocks[i], expected, atol=1e-12)
        # attack-free, noise-free: compensated outputs align with the blocks
        assert np.linalg.norm(window.blocks[i] - stack.blocks[i] @ x0) <= 1e-9


def test_stack_window_attacked_last_sample():
    rng = np.random.default_rng(5)
    model = random_model(rng, n=3, p=4, tau=3)
    x0 = rng.normal(size=3)
    inputs = rng.normal(size=(3, 1))
    attack = np.zeros((3, 4))
    attack[-1, 2] = 7.5
    outputs = simulate_outputs(model, x0, inputs, attack=attack)
    window = stack_window(model, outputs, inputs)
    stack = build_observability(model)
    residual = window.blocks[2] - stack.blocks[2] @ x0
    assert np.allclose(residual, [0.0, 0.0, 7.5], atol=1e-9)


def test_stack_window_shape_errors():
    model = discretize_ugv().model
    with pytest.raises(ValueError, match="output samples"):
        stack_window(model, np.zeros((3, 3)), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="input samples"):
        stack_window(model, np.zeros((2, 3)), np.zeros((1, 1)))


# ---------------------------------------------------------------------------
# sparse observability
# ---------------------------------------------------------------------------


def test_ugv_sparse_observability_levels():
    model = discretize_ugv().model
    assert check_sparse_observability(model, 0)
    # removing the GPS leaves only the two velocity encoders: position is gone
    assert not check_sparse_observability(model, 1)
    assert not check_sparse_observability(model, 2)
    assert not check_sparse_observability(model, 3)


def test_removing_all_sensors_never_observable():
    rng = np.random.default_rng(6)
    model = random_model(rng, n=2, p=3, tau=2)
    assert not check_sparse_observability(model, 3)


def test_sparse_observability_subset_cap():
    rng = np.random.default_rng(7)
    model = random_model(rng, n=3, p=12, tau=3, s_bar=3)
    with pytest.raises(SubsetCapError):
        check_sparse_observability(model, 6, subset_cap=10)


def test_duplicated_sensors_break_observability():
    # two copies of each row: dropping both copies of one row loses a direction
    c = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    model = SystemModel(A=np.eye(2), B=np.zeros((2, 1)), C=c, tau=1, s_bar=1,
                        noise_bounds=np.zeros(4))
    assert check_sparse_observability(model, 1)
    assert not check_sparse_observability(model, 2)


# ---------------------------------------------------------------------------
# robustness constants
# ---------------------------------------------------------------------------


def test_o_bar_scalar_sensors_closed_form():
    model = SystemModel(A=np.eye(1), B=np.zeros((1, 1)), C=np.ones((3, 1)), tau=1,
                        s_bar=1, noise_bounds=np.zeros(3))
    stack = build_observability(model)
    # pinv of a stacked ones-vector has squared norm 1/|I|; the max sits at
    # the smallest admissible subset
    assert compute_o_bar(stack, 2) == pytest.approx(0.5, abs=1e-12)
    assert compute_o_bar(stack, 3) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_o_bar_orthonormal_block():
    model = SystemModel(A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(2), tau=1,
                        s_bar=0, noise_bounds=np.zeros(2))
    stack = build_observability(model)
    assert compute_o_bar(stack, 2) == pytest.approx(1.0, abs=1e-12)


def test_o_bar_matches_direct_svd_enumeration():
    rng = np.random.default_rng(8)
    model = random_model(rng, n=2, p=4, tau=2)
    stack = build_observability(model)
    expected = 0.0
    import itertools

    for size in range(2, 5):
        for subset in itertools.combinations(range(4), size):
            sv = np.linalg.svd(np.concatenate([stack.blocks[i] for i in subset]),
                               compute_uv=False)
            expected = max(expected, 1.0 / sv[-1] ** 2)
    assert compute_o_bar(stack, 2) == pytest.approx(expected, rel=1e-12)


def test_delta_s_scalar_sensors_closed_form():
    model = SystemModel(A=np.eye(1), B=np.zeros((1, 1)), C=np.ones((3, 1)), tau=1,
                        s_bar=1, noise_bounds=np.zeros(3))
    stack = build_observability(model)
    # Gram ratios are 1/|I|, maximized by the smallest admissible set
    assert compute_delta_s(stack, 1) == pytest.approx(0.5, abs=1e-12)


def test_delta_s_below_one_for_observable_instances():
    from sse.attacksim import generate_instance

    for seed in range(8):
        inst = generate_instance(2, 5, 1, 1, "2s", 0.0, seed=seed)
        delta = compute_delta_s(inst.stack, 1)
        assert 0.0 <= delta < 1.0


def test_delta_s_singular_gram_raises():
    stack = build_observability(discretize_ugv().model)
    with pytest.raises(GramSingularError):
        compute_delta_s(stack, 1)
    # restricting to the encoder attack surface and skipping the encoder-only
    # set gives a finite constant below one
    delta = compute_delta_s(stack, 1, attackable=(1, 2), skip_singular_sets=True)
    assert 0.99 < delta < 1.0


def test_delta_s_subset_cap():
    rng = np.random.default_rng(9)
    model = random_model(rng, n=2, p=12, tau=2, s_bar=4)
    stack = build_observability(model)
    with pytest.raises(SubsetCapError):
        compute_delta_s(stack, 4, subset_cap=100)


# ---------------------------------------------------------------------------
# spectral helper
# ---------------------------------------------------------------------------


def test_spectral_helper_closed_forms():
    assert spectral_helper_check(np.zeros((3, 3)), np.eye(3)) == pytest.approx(0.0, abs=1e-12)
    assert spectral_helper_check(np.eye(4), np.eye(4)) == pytest.approx(0.5, abs=1e-12)


def test_spectral_helper_random_pairs_below_one():
    rng = np.random.default_rng(10)
    for _ in range(200):
        dim = int(rng.integers(1, 9))
        m_a = rng.normal(size=(dim, dim))
        a = m_a.T @ m_a  # PSD
        m_b = rng.normal(size=(dim, dim))
        b = m_b.T @ m_b + np.eye(dim) * rng.uniform(0.05, 1.0)  # PD
        value = spectral_helper_check(a, b)
        assert 0.0 <= value < 1.0


def test_spectral_helper_input_validation():
    with pytest.raises(ValueError, match="symmetric"):
        spectral_helper_check(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(ValueError, match="positive definite"):
        spectral_helper_check(np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="semidefinite"):
        spectral_helper_check(-np.eye(2), np.eye(2))


# ---------------------------------------------------------------------------
# roll forward
# ---------------------------------------------------------------------------


def test_roll_forward_identity():
    model = SystemModel(A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(2), tau=2,
                        s_bar=0, noise_bounds=[0, 0])
    x = np.array([1.5, -2.0])
    assert np.array_equal(roll_forward(model, x, np.zeros((1, 1))), x)


def test_roll_forward_tau_one_is_noop():
    model = SystemModel(A=2 * np.eye(1), B=np.ones((1, 1)), C=np.ones((1, 1)), tau=1,
                        s_bar=0, noise_bounds=[0])
    assert roll_forward(model, [3.0], np.zeros((0, 1)))[0] == 3.0


def test_roll_forward_ugv_single_step():
    model = discretize_ugv().model
    x = np.array([0.3, 0.1])
    rolled = roll_forward(model, x, np.array([[1.0]]))
    assert np.allclose(rolled, model.A @ x + model.B @ [1.0], atol=1e-15)


def test_roll_forward_input_count_error():
    model = discretize_ugv().model
    with pytest.raises(ValueError, match="inputs"):
        roll_forward(model, [0.0, 0.0], np.zeros((2, 1)))


def test_roll_forward_recovers_simulated_state():
    rng = np.random.default_rng(11)
    model = random_model(rng, n=3, p=3, tau=3)
    x0 = rng.normal(size=3)
    inputs = rng.normal(size=(3, 1))
    x = x0.copy()
    for k in range(2):
        x = model.A @ x + model.B @ inputs[k]
    assert np.allclose(roll_forward(model, x0, inputs[:2]), x, atol=0)


# ---------------------------------------------------------------------------
# full-rank subsets under sparse observability
# ---------------------------------------------------------------------------


def test_observable_subsets_have_full_rank():
    import itertools

    from sse.attacksim import generate_instance
    from sse.linmodel import numerical_rank

    inst = generate_instance(3, 6, 1, 1, "2s", 0.0, seed=42)
    stack = inst.stack
    for subset in itertools.combinations(range(6), 4):  # |I| >= p - 2*s_bar
        assert numerical_rank(stack.rows(subset)) == 3


def test_o_bar_ugv_enumeration():
    import itertools

    stack = build_observability(discretize_ugv().model)
    expected = 0.0
    for size in (2, 3):
        for subset in itertools.combinations(range(3), size):
            sv = np.linalg.svd(stack.rows(subset), compute_uv=False)
            positive = sv[sv > sv[0] * 1e-12]
            expected = max(expected, 1.0 / positive[-1] ** 2)
    assert compute_o_bar(stack, 2) == pytest.approx(expected, rel=1e-12)


def test_model_loads_legacy_verification_key():
    from sse.attacksim import generate_instance

    model = generate_instance(2, 5, 0, 1, "2s", 0.1, seed=0).model
    doc = model.to_json_dict()
    assert "verified_sparse_obs" not in doc
    back = SystemModel.from_json_dict({**doc, "verified_sparse_obs": 2})
    assert back.to_json_dict() == doc
