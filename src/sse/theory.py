"""Convex side of the lazy solver: least-squares satisfiability checks over a
hypothesized attack-free sensor set, and compact explanations when the check
fails.

A check stacks the selected sensors' windows, solves the unconstrained
least-squares problem, and accepts when the residual fits inside the stacked
noise budget plus the solver tolerance.  On rejection, two heuristics shrink
the explanation: a linear walk that pairs the lowest-residual sensors with
high-residual candidates until they conflict, and an agreement pass that
certifies the lowest-residual sensors as clean when they are mutually
consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linmodel import ObservabilityStack, StackedWindow
from .satcore import Certificate, CertificateKind


class Strategy(str, Enum):
    TRIVIAL = "trivial"
    CONFLICT = "conflict"
    CONFLICT_AGREE = "conflict_agree"


class ConflictSearchError(RuntimeError):
    """The linear conflict walk exhausted its candidates without finding a
    conflicting subset (impossible on exact data, possible under noise)."""


@dataclass(frozen=True, eq=False)
class CheckResult:
    sat: bool
    x: np.ndarray
    residual_sq: float
    per_sensor_residuals: dict
    sensors: tuple
    noise_budget: float      # ||Psi_I|| + epsilon
    rank_deficient: bool


@dataclass
class CertificateDiagnostics:
    """Bookkeeping for one certificate-generation call."""

    theory_checks: int = 0
    conflict_fallback: bool = False
    agree_emitted: bool = False
    agree_suppressed: bool = False


def t_check(
    stack: ObservabilityStack,
    window: StackedWindow,
    sensors,
    noise_bounds,
    epsilon: float,
) -> CheckResult:
    """Least-squares feasibility of the selected sensor set.

    SAT iff ||Y_I - O_I x|| <= ||Psi_I|| + epsilon at the minimizer, with
    ||Psi_I||^2 the sum of the selected sensors' squared noise bounds.  A
    rank-deficient stack is not an error; the minimum-norm solution is
    returned and flagged.
    """
    sensors = tuple(sorted(set(int(i) for i in sensors)))
    if not sensors:
        raise ValueError("sensor set must be non-empty")
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    noise_bounds = np.asarray(noise_bounds, dtype=float)
    idx = list(sensors)
    o_i = stack.rows(idx)
    y_i = window.stacked(idx)
    # Normal-equation fast path; fall back to the SVD solver when the Gram
    # matrix is singular or the gradient check says the solve went bad.
    x = None
    rank_deficient = False
    gram = stack.gram_blocks[idx].sum(axis=0)
    rhs = o_i.T @ y_i
    scale = float(np.linalg.norm(y_i)) * math.sqrt(
        float(np.sum(stack.block_norms[idx] ** 2))
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
    norms_sq = stack.block_norms[idx] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = np.where(norms_sq > 0, block_res / norms_sq, math.inf)
    # a dead sensor carries no state information; it sorts last
    per_sensor = dict(zip(sensors, normalized.tolist()))
    return CheckResult(
        sat=sat,
        x=x,
        residual_sq=residual_sq,
        per_sensor_residuals=per_sensor,
        sensors=sensors,
        noise_budget=math.sqrt(psi_sq) + epsilon,
        rank_deficient=rank_deficient,
    )


def _sorted_by_residual(check: CheckResult):
    """Sensor indices by ascending normalized residual, index as tiebreak."""
    return sorted(check.sensors, key=lambda i: (check.per_sensor_residuals[i], i))


def certificate_conflict(
    stack: ObservabilityStack,
    window: StackedWindow,
    sensors,
    check: CheckResult,
    s_bar: int,
    epsilon: float,
    noise_bounds,
    *,
    shrink: bool = True,
    diagnostics: CertificateDiagnostics | None = None,
) -> Certificate:
    """Small sensor set that cannot all be attack-free.

    Seeds with the p - 2*s_bar lowest-residual sensors (residuals taken at the
    failed check's minimizer), then walks candidates from the highest residual
    down until the seed-plus-candidate check fails.  The optional shrink pass
    orders the conflicting set by ascending kernel dimension and drops trailing
    members while the set stays infeasible.
    """
    if check.sat:
        raise ValueError("conflict certificates require an UNSAT check")
    sensors = tuple(sorted(set(int(i) for i in sensors)))
    p = stack.p
    seed_size = p - 2 * s_bar
    if len(sensors) <= seed_size:
        raise ValueError(
            f"need more than {seed_size} sensors to search for a conflict, got {len(sensors)}"
        )
    diag = diagnostics if diagnostics is not None else CertificateDiagnostics()
    ranked = _sorted_by_residual(check)
    seed = ranked[:seed_size]
    candidates = ranked[seed_size:][::-1]  # highest residual first
    conflict: list | None = None
    for cand in candidates:
        trial = seed + [cand]
        diag.theory_checks += 1
        if not t_check(stack, window, trial, noise_bounds, epsilon).sat:
            conflict = trial
            break
    if conflict is None:
        raise ConflictSearchError(
            f"no conflicting subset found among {len(candidates)} candidates"
        )
    if shrink and len(conflict) > 1:
        ordered = sorted(conflict, key=lambda i: (int(stack.block_kernel_dims[i]), i))
        keep = len(ordered) - 1
        while keep >= 1:
            diag.theory_checks += 1
            if t_check(stack, window, ordered[:keep], noise_bounds, epsilon).sat:
                break
            keep -= 1
        conflict = ordered[: keep + 1]
    suspect = max(conflict, key=lambda i: (check.per_sensor_residuals[i], i))
    return Certificate(
        CertificateKind.AT_LEAST_ONE_ATTACKED, frozenset(conflict), suspect=suspect
    )


def certificate_agree(
    stack: ObservabilityStack,
    window: StackedWindow,
    sensors,
    check: CheckResult,
    s_bar: int,
    epsilon: float,
    noise_bounds,
    *,
    diagnostics: CertificateDiagnostics | None = None,
) -> Certificate | None:
    """Certify the p - 2*s_bar lowest-residual sensors as clean when they are
    mutually consistent; None when they are not (no constraint learned)."""
    if check.sat:
        raise ValueError("agree certificates require an UNSAT check")
    p = stack.p
    seed_size = p - 2 * s_bar
    if seed_size < 1 or len(check.sensors) < seed_size:
        return None
    diag = diagnostics if diagnostics is not None else CertificateDiagnostics()
    seed = _sorted_by_residual(check)[:seed_size]
    diag.theory_checks += 1
    if t_check(stack, window, seed, noise_bounds, epsilon).sat:
        return Certificate(CertificateKind.ALL_UNATTACKED, frozenset(seed))
    return None


def certificates(
    stack: ObservabilityStack,
    window: StackedWindow,
    sensors,
    check: CheckResult,
    s_bar: int,
    epsilon: float,
    noise_bounds,
    strategy: Strategy,
    *,
    agree_allowed: bool = False,
) -> tuple:
    """Certificates to learn from an UNSAT check, per the configured strategy.

    Returns (certificate list, diagnostics).  The conflict walk can fail on
    noisy data; the trivial certificate is emitted instead and the fallback is
    flagged so exact-data callers can assert it never fires.
    """
    sensors = tuple(sorted(set(int(i) for i in sensors)))
    diag = CertificateDiagnostics()
    trivial = Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED, frozenset(sensors))
    if strategy is Strategy.TRIVIAL or len(sensors) <= stack.p - 2 * s_bar:
        return [trivial], diag
    try:
        certs = [
            certificate_conflict(
                stack, window, sensors, check, s_bar, epsilon, noise_bounds,
                diagnostics=diag,
            )
        ]
    except ConflictSearchError:
        diag.conflict_fallback = True
        certs = [trivial]
    if strategy is Strategy.CONFLICT_AGREE:
        if agree_allowed:
            agree = certificate_agree(
                stack, window, sensors, check, s_bar, epsilon, noise_bounds,
                diagnostics=diag,
            )
            if agree is not None:
                diag.agree_emitted = True
                certs.append(agree)
        else:
            diag.agree_suppressed = True
    return certs, diag
