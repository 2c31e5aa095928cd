import itertools
import json
import math
import re

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
from sse import linmodel
from sse.attacksim import discretize_ugv, generate_instance
from sse.linmodel import numerical_rank

from conftest import simulate_outputs, stack_rows


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
    with pytest.raises(ValueError, match="at least one row"):
        SystemModel(A=eye, B=eye, C=np.zeros((0, 2)), tau=2, s_bar=0, noise_bounds=[])


@pytest.mark.parametrize("field, value, message", [
    ("A", [1.0, 0.0], "A must be a 2-D matrix, got shape (2,)"),
    ("C", [[1.0, 0.0], [0.0, np.inf]], "C contains non-finite entries"),
    ("B", np.zeros((3, 1)), "B has 3 rows, expected 2"),
    ("noise_bounds", [0.0], "noise_bounds must have length p=2, got (1,)"),
])
def test_model_rejects_a_field_that_does_not_fit(field, value, message):
    fields = dict(A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(2), tau=1, s_bar=0,
                  noise_bounds=[0.0, 0.0])
    with pytest.raises(ValueError, match=re.escape(message)):
        SystemModel(**{**fields, field: value})


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


@pytest.mark.parametrize("field, value", [
    ("s_bar", 0.9),  # truncated, it would trust every sensor
    ("tau", 2.5), ("tau", "2"), ("s_bar", float("nan")), ("s_bar", None),
])
def test_model_document_rejects_a_count_that_is_not_whole(field, value):
    doc = {**discretize_ugv().model.to_json_dict(), field: value}
    with pytest.raises(ValueError, match=f"{field} must be a whole number, got {value!r}"):
        SystemModel.from_json_dict(doc)


def test_model_document_loads_whole_floats_as_ints():
    doc = {**discretize_ugv().model.to_json_dict(), "tau": 2.0, "s_bar": np.float64(1.0)}
    model = SystemModel.from_json_dict(doc)
    assert (model.tau, model.s_bar) == (2, 1)
    assert type(model.tau) is int and type(model.s_bar) is int


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
    # C(12, 6) = 924 kept sets, and the cheapest partition has 7 parts and
    # C(7, 6) = 7 unions: both exceed the cap
    rng = np.random.default_rng(7)
    model = random_model(rng, n=3, p=12, tau=3, s_bar=3)
    with pytest.raises(SubsetCapError):
        check_sparse_observability(model, 6, subset_cap=6)


def test_duplicated_sensors_break_observability():
    # two copies of each row: dropping both copies of one row loses a direction
    c = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    model = SystemModel(A=np.eye(2), B=np.zeros((2, 1)), C=c, tau=1, s_bar=1,
                        noise_bounds=np.zeros(4))
    assert check_sparse_observability(model, 1)
    assert not check_sparse_observability(model, 2)


def reference_partition(p, s, need, cap):
    """(unions, b) of the cheapest partition proof of level s, by the rule
    written out: among the b in (s, p) whose smallest union of b - s parts
    holds ``need`` sensors and whose C(b, b - s) unions fit ``cap``, the fewest
    unions, then the smaller b; None where no b qualifies."""
    best = None
    for b in range(s + 1, p):
        t = b - s
        sizes = sorted(len(part) for part in np.array_split(np.arange(p), b))
        count = math.comb(b, t)
        if sum(sizes[:t]) >= need and count <= cap and (best is None or count < best[0]):
            best = (count, b)
    return best


@pytest.mark.parametrize("shape", [(4, 12, 1, 2, "3s"), (3, 20, 1, 4, "3s"),
                                   (6, 16, 2, 3, "2s"), (25, 60, 5, 20, "2s")],
                         ids=["plant", "wide_3s", "mid_2s", "desk"])
def test_partition_proofs_check_independently(monkeypatch, shape):
    # every level a partition proves alone (the cap is its union count, below
    # C(p, s), so the enumeration cannot run), checked from the model's own
    # matrices: the sets examined are whole unions of t parts of the
    # index-order split, t <= b - s, every t-union is there, the parts are
    # disjoint and cover range(p), and each union's C_i A^j rows have rank n
    seen = []
    real = linmodel._all_full_rank
    monkeypatch.setattr(linmodel, "_all_full_rank", lambda stack, idx: seen.extend(
        map(tuple, idx.tolist())) or real(stack, idx))
    proven = []
    for seed in range(2):
        model = generate_instance(*shape, seed=seed).model
        p, n, tau = model.p, model.n, model.tau
        layers = [model.C @ np.linalg.matrix_power(model.A, j) for j in range(tau)]
        for s in range(1, p):
            plan = reference_partition(p, s, -(-n // tau), 2000)
            if plan is None:
                continue
            count, b = plan
            seen.clear()
            try:
                assert check_sparse_observability(model, s, subset_cap=count)
            except SubsetCapError:
                continue  # a union failed, and C(p, s) exceeds the cap
            parts = np.array_split(np.arange(p), b)
            assert sorted(np.concatenate(parts).tolist()) == list(range(p))
            part_of = {i: k for k, part in enumerate(parts) for i in part.tolist()}
            touched = {tuple(sorted({part_of[i] for i in union})) for union in seen}
            t = len(next(iter(touched)))
            assert {len(combo) for combo in touched} == {t} and b - s >= t
            assert touched == set(itertools.combinations(range(b), t))
            assert len(seen) == count
            for union in seen:
                assert list(union) == np.concatenate([parts[k] for k in
                                                      sorted({part_of[i] for i in union})]).tolist()
                rows = np.vstack([np.stack([layer[i] for layer in layers]) for i in union])
                assert np.linalg.matrix_rank(rows) == n
            proven.append(s)
    assert proven


def enumerated_sparse_observability(stack, s):
    """Every kept set's rank by the SVD rule, in one stacked call per level."""
    p, tau, n = stack.blocks.shape
    if s >= p:
        return False
    kept = np.array(list(itertools.combinations(range(p), p - s)))
    rows = (p - s) * tau
    sv = np.linalg.svd(stack.blocks[kept].reshape(len(kept), rows, n), compute_uv=False)
    return bool(((sv > max(rows, n) * sv[:, :1] * linmodel.RANK_RTOL).sum(axis=1) >= n).all())


def test_partition_never_proves_what_the_enumeration_refutes():
    # small awkward models (a third of C zeroed, duplicated rows, diagonal A):
    # the check answers as the plain enumeration does at every level, and the
    # partition alone proves no level the enumeration refutes
    rng = np.random.default_rng(15)
    by_partition = refuted = 0
    for _ in range(200):
        n, p = int(rng.integers(1, 5)), int(rng.integers(2, 15))
        c = rng.normal(size=(p, n))
        c[rng.random(size=(p, n)) < 0.35] = 0.0
        copies = rng.choice(p, size=int(rng.integers(0, p // 2 + 1)), replace=False)
        c[copies] = c[rng.integers(p, size=len(copies))]
        model = SystemModel(A=np.diag(rng.uniform(-1, 1, size=n)), B=np.zeros((n, 1)), C=c,
                            tau=int(rng.integers(1, n + 1)), s_bar=0, noise_bounds=np.zeros(p))
        stack = build_observability(model)
        for s in range(p + 1):
            expected = enumerated_sparse_observability(stack, s)
            refuted += not expected
            assert check_sparse_observability(model, s) == expected
            plan = reference_partition(p, s, -(-n // model.tau), math.inf) if s else None
            if plan is None:
                continue
            try:
                proven = check_sparse_observability(model, s, subset_cap=plan[0])
            except SubsetCapError:
                continue  # a union failed, and only the enumeration refutes
            assert proven and expected
            by_partition += 1
    assert by_partition and refuted


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


@pytest.mark.parametrize("call, message", [
    (lambda model, stack: check_sparse_observability(model, 3), "s must be in [0, 2], got 3"),
    (lambda model, stack: compute_o_bar(stack, 0), "min_card must be in [1, 2], got 0"),
    (lambda model, stack: compute_delta_s(stack, -1), "s_bar must be in [0, 2], got -1"),
    (lambda model, stack: compute_delta_s(stack, 1, attackable=(1, 2)),
     "attackable entry 2 is not a sensor in range(2)"),
    (lambda model, stack: compute_delta_s(stack, 1, attackable=(0.5,)),
     "attackable entry 0.5 is not a sensor in range(2)"),
    (lambda model, stack: check_sparse_observability(
        model, 1, stack=build_observability(discretize_ugv().model)),
     "stack blocks (3, 2, 2) do not fit the model's (p, tau, n) = (2, 1, 2)"),
    (lambda model, stack: spectral_helper_check(np.eye(2), np.eye(3)),
     "A and B must be square matrices of the same dimension"),
    (lambda model, stack: check_sparse_observability(model, 2.5), "s must be a whole number, got 2.5"),
    (lambda model, stack: compute_o_bar(stack, 1.5), "min_card must be a whole number, got 1.5"),
    (lambda model, stack: compute_delta_s(stack, 0.5), "s_bar must be a whole number, got 0.5"),
    (lambda model, stack: check_sparse_observability(model, 1, subset_cap=-1),
     "subset_cap must be non-negative, got -1"),
    (lambda model, stack: compute_o_bar(stack, 1, subset_cap=2.5),
     "subset_cap must be a whole number, got 2.5"),
    (lambda model, stack: compute_delta_s(stack, 1, subset_cap=-1),
     "subset_cap must be non-negative, got -1"),
], ids=["sparse_observability_s", "o_bar_min_card", "delta_s_s_bar", "delta_s_attackable_range",
        "delta_s_attackable_integer", "sparse_observability_stack", "spectral_shapes",
        "sparse_observability_s_whole", "o_bar_min_card_whole", "delta_s_s_bar_whole",
        "sparse_observability_cap", "o_bar_cap_whole", "delta_s_cap"])
def test_analysis_rejects_an_argument_out_of_range(call, message):
    model = SystemModel(A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(2), tau=1, s_bar=0,
                        noise_bounds=[0.0, 0.0])
    with pytest.raises(ValueError, match=re.escape(message)):
        call(model, build_observability(model))


def test_analysis_takes_a_whole_float():
    model = SystemModel(A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(2), tau=1, s_bar=0,
                        noise_bounds=[0.0, 0.0])
    stack = build_observability(model)
    assert check_sparse_observability(model, 0.0, subset_cap=1.0)
    assert not check_sparse_observability(model, 1.0)
    assert compute_o_bar(stack, 2.0) == compute_o_bar(stack, 2)
    assert compute_delta_s(stack, 1.0, skip_singular_sets=True) == compute_delta_s(
        stack, 1, skip_singular_sets=True)


# ---------------------------------------------------------------------------
# batched enumerations against the per-subset reference
# ---------------------------------------------------------------------------


def reference_rank(m):
    if m.size == 0:
        return 0
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > max(m.shape) * sv[0] * linmodel.RANK_RTOL))


def reference_sparse_observability(stack, s):
    """One rank per kept subset, stopping at the first deficient one; returns
    the answer and how many subsets it looked at."""
    p, n = stack.p, stack.n
    looked = 0
    for kept in itertools.combinations(range(p), p - s):
        looked += 1
        if reference_rank(stack_rows(stack, kept)) < n:
            return False, looked
    return s < p, looked


def reference_o_bar(stack, min_card, full_rank_only=False):
    p, n = stack.p, stack.n
    worst = 0.0
    for size in range(min_card, p + 1):
        for subset in itertools.combinations(range(p), size):
            sv = np.linalg.svd(stack_rows(stack, subset), compute_uv=False)
            tol = max(size * stack.tau, n) * sv[0] * linmodel.RANK_RTOL if sv[0] > 0 else 0.0
            positive = sv[sv > tol]
            if positive.size < n:
                if full_rank_only:
                    continue
                if positive.size == 0:
                    continue
            worst = max(worst, 1.0 / float(positive[-1]) ** 2)
    return worst


def reference_delta_s(stack, s_bar, attackable=None, skip_singular_sets=False):
    p = stack.p
    attack_set = frozenset(range(p)) if attackable is None else frozenset(attackable)
    grams = list(stack.gram_blocks)
    worst = 0.0
    for size in range(max(p - s_bar, 1), p + 1):
        for subset in itertools.combinations(range(p), size):
            g_total = sum(grams[i] for i in subset)
            eigvals, eigvecs = np.linalg.eigh(g_total)
            tol = max(eigvals[-1], 0.0) * stack.n * linmodel.RANK_RTOL
            if eigvals[0] <= tol:
                if skip_singular_sets:
                    continue
                raise GramSingularError(
                    f"Gram matrix of sensor set {subset} is too ill-conditioned to "
                    f"invert: its smallest eigenvalue is at most n * RANK_RTOL "
                    f"times its largest"
                )
            inv_sqrt = eigvecs @ np.diag(1.0 / np.sqrt(eigvals)) @ eigvecs.T
            candidates = [i for i in subset if i in attack_set]
            for g_size in range(1, min(s_bar, len(candidates)) + 1):
                for gamma in itertools.combinations(candidates, g_size):
                    if g_size == size:
                        continue
                    g_gamma = sum(grams[i] for i in gamma)
                    lam = float(np.linalg.eigvalsh(inv_sqrt @ g_gamma @ inv_sqrt)[-1])
                    worst = max(worst, lam)
    return worst


def awkward_model(rng):
    """A small random model, most often with a dead row, a duplicated row, a
    row within 1e-13 of another (numerically dependent) or one 1e-10 from
    another (independent only by the tolerance)."""
    n = int(rng.integers(1, 5))
    p = int(rng.integers(2, 8))
    c = rng.normal(size=(p, n))
    kind = int(rng.integers(0, 5))
    i, j = rng.choice(p, size=2, replace=False)
    if kind == 1:
        c[i] = 0.0
    elif kind == 2:
        c[i] = c[j]
    elif kind == 3:
        c[i] = c[j] * (1.0 + 1e-13)
    elif kind == 4:
        c[i] = c[j] + 1e-10 * rng.normal(size=n)
    a = rng.normal(size=(n, n))
    a *= 0.9 / max(abs(np.linalg.eigvals(a)))
    return SystemModel(A=a, B=np.zeros((n, 1)), C=c, tau=int(rng.integers(1, n + 1)),
                       s_bar=0, noise_bounds=np.zeros(p))


def assert_blocks_match_reference(stack):
    kdims = [stack.n - reference_rank(b) for b in stack.blocks]
    norms_sq = np.array([np.linalg.svd(b, compute_uv=False)[0] for b in stack.blocks]) ** 2
    assert stack.block_kernel_dims.tolist() == kdims
    assert stack.block_norms_sq.tobytes() == norms_sq.tobytes()


def test_block_rank_tolerance_scales_with_the_longer_side():
    # block [[1, 0, 0], [2, eps, 0]] has sigma_2 / sigma_1 about eps / 5, which
    # sits between 2e-12 (tau) and 3e-12 (n): rank 1 with n as the longer side
    eps = 1.25e-11
    a = np.array([[2.0, eps, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    model = SystemModel(A=a, B=np.zeros((3, 1)), C=[[1.0, 0.0, 0.0]], tau=2, s_bar=0,
                        noise_bounds=[0.0])
    stack = build_observability(model)
    assert stack.block_kernel_dims.tolist() == [2]
    assert_blocks_match_reference(stack)


def outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except GramSingularError as exc:
        return str(exc)


@pytest.mark.parametrize("chunk_floats", [1, 300, linmodel.CHUNK_FLOATS],
                         ids=["one_subset", "few_subsets", "default"])
def test_batched_analysis_equals_per_subset_reference(monkeypatch, chunk_floats):
    # one subset per chunk, a few per chunk, and the default bound
    monkeypatch.setattr(linmodel, "CHUNK_FLOATS", chunk_floats)
    rng = np.random.default_rng(chunk_floats)
    errors = 0
    for _ in range(10):
        model = awkward_model(rng)
        stack = build_observability(model)
        assert_blocks_match_reference(stack)
        p = model.p
        for s in range(p + 1):
            expected, _ = reference_sparse_observability(stack, s)
            assert check_sparse_observability(model, s) == expected
        for min_card in range(1, p + 1):
            for full_rank_only in (False, True):
                assert (compute_o_bar(stack, min_card, full_rank_only=full_rank_only)
                        == reference_o_bar(stack, min_card, full_rank_only))
        surface = sorted(rng.choice(p, size=int(rng.integers(0, p + 1)), replace=False))
        for s_bar in range(p + 1):
            for attackable in (None, surface):
                for skip in (False, True):
                    got = outcome(compute_delta_s, stack, s_bar, attackable=attackable,
                                  skip_singular_sets=skip)
                    want = outcome(reference_delta_s, stack, s_bar, attackable, skip)
                    assert got == want
                    errors += isinstance(want, str)
    assert errors  # the first singular subset was named at least once


def test_sparse_observability_stops_at_first_deficient_chunk(monkeypatch):
    # one subset per chunk: the check does rank work (its screen, then the
    # SVD on what the screen leaves) on exactly the subsets the
    # short-circuiting reference looks at
    c = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0], [2.0, 0.0]])
    model = SystemModel(A=np.eye(2), B=np.zeros((2, 1)), C=c, tau=1, s_bar=0,
                        noise_bounds=np.zeros(5))
    stack = build_observability(model)
    _, looked = reference_sparse_observability(stack, 3)
    assert looked == 4  # (0, 4) is the first pair that sees one direction
    monkeypatch.setattr(linmodel, "CHUNK_FLOATS", 1)
    calls = []
    real = linmodel._all_full_rank
    monkeypatch.setattr(linmodel, "_all_full_rank",
                        lambda stack, idx: calls.append(len(idx)) or real(stack, idx))
    assert not check_sparse_observability(model, 3, stack=stack)
    assert calls == [1] * looked


def test_sparse_observability_memo_is_monotone(monkeypatch):
    # a proven level answers every level below it, a refuted level every
    # level above it, with no rank work; the subset cap is still checked first
    calls = []
    real = linmodel._all_full_rank
    monkeypatch.setattr(linmodel, "_all_full_rank",
                        lambda stack, idx: calls.append(len(idx)) or real(stack, idx))
    rows = np.random.default_rng(3).normal(size=(8, 2))
    lines = SystemModel(A=np.eye(2), B=np.zeros((2, 1)), C=rows, tau=1, s_bar=0,
                        noise_bounds=np.zeros(8))
    stack = build_observability(lines)
    assert check_sparse_observability(lines, 6, stack=stack)
    calls.clear()
    assert check_sparse_observability(lines, 3, stack=stack)
    assert not calls
    with pytest.raises(SubsetCapError):  # C(8, 3) = 56 kept sets, 4 parts' 4 unions
        check_sparse_observability(lines, 3, stack=stack, subset_cap=3)
    # four sensors see only x, three only y: removing 3 can blind y, 2 cannot
    c = np.array([[1.0, 0.0]] * 4 + [[0.0, 1.0]] * 3)
    model = SystemModel(A=np.eye(2), B=np.zeros((2, 1)), C=c, tau=1, s_bar=0,
                        noise_bounds=np.zeros(7))
    stack = build_observability(model)
    assert not check_sparse_observability(model, 3, stack=stack)
    calls.clear()
    assert not check_sparse_observability(model, 5, stack=stack)
    assert not calls
    assert check_sparse_observability(model, 2, stack=stack)  # not answered by the memo
    assert calls


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
    from sse.attacksim import generate_instance

    inst = generate_instance(3, 6, 1, 1, "2s", 0.0, seed=42)
    stack = inst.stack
    for subset in itertools.combinations(range(6), 4):  # |I| >= p - 2*s_bar
        assert numerical_rank(stack_rows(stack, subset)) == 3


def test_numerical_rank_counts_singular_values_above_the_tolerance():
    rng = np.random.default_rng(31)
    mats = rng.normal(size=(12, 6, 4))
    mats[0] = 0.0
    mats[1, :, 3] = mats[1, :, 0]
    mats[2, 1:] = mats[2, :1]
    mats[3, :, 2:] = 0.0
    mats[4, :, 1] = mats[4, :, 0] * (1.0 + 1e-14)  # dependent within the tolerance
    mats[5, :, 1] = mats[5, :, 0] + 1e-9 * rng.normal(size=6)  # independent beyond it
    # sigma_min / sigma_max = 9e-12: just above the 6 x 4 tolerance (6e-12)
    u, _ = np.linalg.qr(rng.normal(size=(6, 4)))
    v, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    mats[6] = u @ np.diag([1.0, 1.0, 1.0, 9e-12]) @ v.T
    ranks = [numerical_rank(m) for m in mats]
    assert ranks == [reference_rank(m) for m in mats]
    assert ranks[:7] == [0, 3, 1, 2, 3, 4, 4]
    assert all(type(r) is int for r in ranks)
    assert numerical_rank(np.zeros((0, 3))) == numerical_rank(np.zeros((3, 0))) == 0


def test_o_bar_ugv_enumeration():
    stack = build_observability(discretize_ugv().model)
    expected = 0.0
    for size in (2, 3):
        for subset in itertools.combinations(range(3), size):
            sv = np.linalg.svd(stack_rows(stack, subset), compute_uv=False)
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


# ---------------------------------------------------------------------------
# the lean window helpers against the earlier implementation
# ---------------------------------------------------------------------------


def _reference_stack_window(model, outputs, inputs):
    """``stack_window``'s blocks as computed before its per-call overhead was
    trimmed."""
    outputs = np.atleast_2d(np.asarray(outputs, dtype=float))
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    tau, p, m = model.tau, model.p, model.m
    if outputs.shape != (tau, p):
        raise ValueError(f"expected {tau} output samples of width {p}, got {outputs.shape}")
    if inputs.shape != (tau, m):
        raise ValueError(f"expected {tau} input samples of width {m}, got {inputs.shape}")
    compensated = outputs - linmodel.simulate_window(model, np.zeros(model.n), inputs)
    return np.ascontiguousarray(compensated.T)


def _reference_roll_forward(model, x_delayed, inputs):
    """``roll_forward`` before its per-call overhead was trimmed."""
    x = np.asarray(x_delayed, dtype=float).reshape(model.n)
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float)) if np.size(inputs) else np.zeros((0, model.m))
    if inputs.shape != (model.tau - 1, model.m):
        raise ValueError(
            f"expected {model.tau - 1} inputs of width {model.m}, got {inputs.shape}"
        )
    for u in inputs:
        x = model.A @ x + model.B @ u
    return x


def _window_models():
    rng = np.random.default_rng(17)
    return [
        discretize_ugv().model,                         # tau = 2
        random_model(rng, n=4, p=12, tau=3),            # plant size
        random_model(rng, n=4, p=12, m=2, tau=3),
        random_model(rng, n=25, p=60, tau=2, s_bar=20),  # desk scale
    ]


@pytest.mark.parametrize("k", range(4))
def test_window_helpers_match_reference_bit_for_bit(k):
    model = _window_models()[k]
    rng = np.random.default_rng(100 + k)
    tau, p, m, n = model.tau, model.p, model.m, model.n
    for _ in range(40):
        outputs = rng.normal(size=(tau, p)) * 10.0
        inputs = rng.normal(size=(tau, m))
        window = stack_window(model, outputs, inputs)
        assert window.blocks.flags.c_contiguous and not window.blocks.flags.writeable
        assert window.blocks.tobytes() == _reference_stack_window(model, outputs, inputs).tobytes()
        # lists and column views of a longer array, as the closed loop passes
        column = np.concatenate([rng.normal(size=(3, m)), inputs])[3:]
        assert stack_window(model, outputs.tolist(), column).blocks.tobytes() == \
            window.blocks.tobytes()
        x = rng.normal(size=n)
        rolled = roll_forward(model, x, inputs[:-1])
        assert rolled.tobytes() == _reference_roll_forward(model, x, inputs[:-1]).tobytes()
        assert roll_forward(model, x.tolist(), inputs[:-1].tolist()).tobytes() == rolled.tobytes()
    if tau == 2 and m == 1:  # a scalar or a flat input is one row
        for value in (0.7, [0.7], np.array([0.7])):
            x = np.arange(n, dtype=float)
            assert roll_forward(model, x, value).tobytes() == \
                _reference_roll_forward(model, x, value).tobytes()


def _error(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("k", range(4))
def test_window_helpers_raise_the_reference_errors(k):
    model = _window_models()[k]
    tau, p, m, n = model.tau, model.p, model.m, model.n
    good_out, good_in = np.zeros((tau, p)), np.zeros((tau, m))
    for outputs, inputs in [
        (np.zeros((tau + 1, p)), good_in),
        (np.zeros((tau, p + 1)), good_in),
        (np.zeros(p), good_in),                 # one flat row
        (np.zeros((1, tau, p)), good_in),
        (good_out, np.zeros((tau - 1, m))),
        (good_out, np.zeros(tau)),              # flat: one row of tau inputs
        (good_out, 0.0),
        (good_out, []),
    ]:
        message = _error(stack_window, model, outputs, inputs)
        assert message == _error(_reference_stack_window, model, outputs, inputs)
    for inputs in [np.zeros((tau, m)), np.zeros((tau - 1, m + 1)), np.zeros((2, tau, m)),
                   np.zeros((tau + 3, m)).tolist(), np.zeros((tau - 1) * m + 1)]:
        message = _error(roll_forward, model, np.zeros(n), inputs)
        assert message == _error(_reference_roll_forward, model, np.zeros(n), inputs)
    for inputs in ([], np.zeros((0, 3))):  # no inputs, where tau - 1 >= 1 are needed
        message = _error(roll_forward, model, np.zeros(n), inputs)
        assert message == _error(_reference_roll_forward, model, np.zeros(n), inputs)
