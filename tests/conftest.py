import numpy as np
import pytest

from sse import SystemModel, build_observability, stack_window


def line_model(rows, s_bar=1, noise=None):
    """Static instance: each sensor is one line (row) in R^2, window length 1."""
    rows = np.asarray(rows, dtype=float)
    p = rows.shape[0]
    bounds = np.zeros(p) if noise is None else np.broadcast_to(np.asarray(noise, float), (p,))
    return SystemModel(
        A=np.eye(2), B=np.zeros((2, 1)), C=rows, tau=1, s_bar=s_bar, noise_bounds=bounds
    )


def line_window(model, offsets):
    offsets = np.asarray(offsets, dtype=float).reshape(1, model.p)
    return stack_window(model, offsets, np.zeros((1, model.m)))


# lines in the plane meeting at (2, 6); the first four are four_lines's rows
FIVE_LINES = [[1.0, 1.0], [-1.0, 1.0], [0.0, 1.0], [-2.0, 1.0], [3.0, 1.0]]


@pytest.fixture
def four_lines():
    """Four lines in the plane meeting at (2, 6) except sensor 2 (y = 8)."""
    model = line_model([[1.0, 1.0], [-1.0, 1.0], [0.0, 1.0], [-2.0, 1.0]], s_bar=1)
    stack = build_observability(model)
    window = line_window(model, [8.0, 4.0, 8.0, 2.0])
    return model, stack, window


def scalar_sensors(p, values, s_bar=1, noise=None):
    """n = 1, tau = 1, every sensor reads the state directly."""
    bounds = np.zeros(p) if noise is None else np.broadcast_to(np.asarray(noise, float), (p,))
    model = SystemModel(
        A=np.eye(1), B=np.zeros((1, 1)), C=np.ones((p, 1)), tau=1, s_bar=s_bar,
        noise_bounds=bounds,
    )
    window = stack_window(model, np.asarray(values, float).reshape(1, p), np.zeros((1, 1)))
    return model, build_observability(model), window


def stack_rows(stack, sensors):
    """O_I: the observability rows of the given sensors, in the given order."""
    return stack.blocks[list(sensors)].reshape(-1, stack.n)


def simulate_outputs(model, x0, inputs, attack=None, noise=None):
    """Reference forward simulation of the plant over one window (test oracle)."""
    tau, p = model.tau, model.p
    outputs = np.zeros((tau, p))
    x = np.asarray(x0, dtype=float).copy()
    for k in range(tau):
        outputs[k] = model.C @ x
        if k + 1 < tau:
            x = model.A @ x + model.B @ np.asarray(inputs[k], dtype=float)
    if attack is not None:
        outputs += attack
    if noise is not None:
        outputs += noise
    return outputs
