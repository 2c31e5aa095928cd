"""Output checks made apart from the solver, with plain numpy.

Nothing here calls sse: the observability rows, the input compensation and
the least-squares fit are recomputed from the model matrices, so a fault in
``build_observability``, ``stack_window`` or ``t_check`` cannot hide itself.
"""

from __future__ import annotations

import math

import numpy as np

# Relative state error allowed on noiseless data.
STATE_TOL = 1e-6


def window_rows(A, C, tau: int, sensors) -> np.ndarray:
    """Rows C_i A^j, j < tau, for each sensor i in order."""
    powers = [np.eye(A.shape[0])]
    for _ in range(tau - 1):
        powers.append(powers[-1] @ A)
    return np.vstack([np.vstack([C[i] @ pw for pw in powers]) for i in sensors])


def window_outputs(A, B, C, outputs, inputs, sensors) -> np.ndarray:
    """Outputs minus the zero-state input response, stacked per sensor."""
    tau = outputs.shape[0]
    z = np.zeros(A.shape[0])
    clean = np.array(outputs, dtype=float)
    for j in range(tau):
        clean[j] -= C @ z
        z = A @ z + B @ inputs[j]
    return np.concatenate([clean[:, i] for i in sensors])


def check_window(model, outputs, inputs, x, x_true, attacked, support, epsilon) -> bool:
    """The returned support and state explain one noiseless window.

    Checks that the attacked sensors are in the support, that the support is
    within budget, that the state ``x`` is within ``STATE_TOL`` of the truth,
    and that least squares over the other sensors fits the window within
    their noise budget.
    """
    support = set(support)
    if not set(attacked) <= support or len(support) > model.s_bar:
        return False
    if x is None or not state_ok(x, x_true):
        return False
    trusted = [i for i in range(model.p) if i not in support]
    A, B, C = model.A, model.B, model.C
    rows = window_rows(A, C, model.tau, trusted)
    ys = window_outputs(A, B, C, outputs, inputs, trusted)
    x_hat, *_ = np.linalg.lstsq(rows, ys, rcond=None)
    budget = math.sqrt(float(np.sum(model.noise_bounds[trusted] ** 2))) + epsilon
    return float(np.linalg.norm(rows @ x_hat - ys)) <= budget


def state_ok(x, x_true) -> bool:
    scale = max(float(np.linalg.norm(x_true)), 1e-12)
    return float(np.linalg.norm(np.asarray(x) - x_true)) <= STATE_TOL * scale
