import math
import warnings

import numpy as np
import pytest

from sse import SubsetCapError, build_observability
from sse.attacksim import generate_instance
from sse.oracle import brute_force

from conftest import FIVE_LINES, line_model, line_window, scalar_sensors


def test_attack_free_minimal_support_is_empty():
    inst = generate_instance(3, 6, 0, 2, "2s", 0.0, seed=0)
    result = brute_force(inst.model, inst.stack, inst.window, epsilon=1e-6)
    assert result.minimal == ((),)
    assert result.unique_minimal


def test_true_support_recovered_uniquely():
    for seed in range(10):
        inst = generate_instance(3, 7, 2, 2, "2s", 0.0, seed=seed,
                                 attack_norm={"lo": 2.0, "hi": 8.0})
        result = brute_force(inst.model, inst.stack, inst.window, epsilon=1e-6)
        assert result.minimal == (inst.attacked,)
        # every feasible support contains the attacked sensors
        for support in result.supports:
            assert set(inst.attacked) <= set(support)
        assert np.allclose(
            result.x_per_support[inst.attacked], inst.x_true,
            atol=1e-6 * (1 + np.linalg.norm(inst.x_true)),
        )


def test_two_scalar_sensors_are_ambiguous():
    # one sensor reads the state, the other reads state plus attack: either
    # sensor alone explains the data, so two minimal supports coexist
    model, stack, window = scalar_sensors(2, [1.0, 4.0], s_bar=1)
    result = brute_force(model, stack, window, epsilon=1e-9)
    assert result.minimal == ((0,), (1,))
    assert not result.unique_minimal


def test_duplicated_rows_give_multiple_minimal_supports():
    # two duplicated sensor pairs; an attack on one copy can be blamed on
    # either copy once observability drops below twice the budget
    rows = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
    model = line_model(rows, s_bar=1)
    window = line_window(model, [2.0 + 1.5, 2.0, 6.0, 6.0])
    stack = build_observability(model)
    from sse import check_sparse_observability

    assert not check_sparse_observability(model, 2)
    result = brute_force(model, stack, window, epsilon=1e-9)
    assert result.minimal == ((0,), (1,))
    assert not result.unique_minimal


def test_enumeration_order_is_cardinality_then_lex():
    model, stack, window = scalar_sensors(3, [5.0, 5.0, 5.0], s_bar=2)
    result = brute_force(model, stack, window, epsilon=1e-9)
    assert result.supports == ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2))
    assert result.minimal == ((),)


def test_budget_and_cap_validation():
    model, stack, window = scalar_sensors(3, [0.0, 0.0, 0.0], s_bar=2)
    with pytest.raises(ValueError, match="s_bar"):
        brute_force(model, stack, window, s_bar=3)
    with pytest.raises(ValueError, match="s_bar must be a whole number, got 1.9"):
        brute_force(model, stack, window, s_bar=1.9)
    big = generate_instance(2, 24, 1, 1, "2s", 0.0, seed=1)
    with pytest.raises(SubsetCapError):
        brute_force(big.model, big.stack, big.window, s_bar=12)


@pytest.mark.parametrize("lines, s_bar, readings, support", [
    *[pytest.param(FIVE_LINES[:4], 1, [8.0, 4.0, bad, 2.0], (2,), id=str(bad))
      for bad in (math.inf, math.nan, 1e300, 1e160)],
    pytest.param(FIVE_LINES, 2, [1e160, 4.0, 8.0, 2.0, 12.0], (0, 2), id="ranked"),
    # each row's square is finite, but their sum is not
    pytest.param(FIVE_LINES, 2, [1.2e154, 4.0, 1.2e154, 2.0, 12.0], (0, 2), id="summed"),
])
def test_non_finite_reading_is_attacked_without_warnings(lines, s_bar, readings, support):
    model = line_model(lines, s_bar=s_bar)
    stack, window = build_observability(model), line_window(model, readings)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = brute_force(model, stack, window, epsilon=1e-9)
    assert caught == []
    assert result.supports == result.minimal == (support,)
