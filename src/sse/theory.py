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

The walk's conflict is then shrunk: in kernel-dimension order, trailing
members are dropped while the rest stays infeasible.  The sets it tries are
nested prefixes, so one batched solve over running sums of the Gram blocks
and of O_i^T Y_i decides them together (nested least-squares updating, Golub
and Van Loan, *Matrix Computations*, sec. 6.5).  A prefix that is
undetermined, whose batched solve fails, or whose batched residual lies in
the tie band ``TIE_RTOL * (||Psi|| + epsilon + ||Y||)`` around the budget
``||Psi|| + epsilon`` is checked on its own instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linmodel import ObservabilityStack, StackedWindow
from .satcore import Certificate, CertificateKind


# The shrink pass batches its prefix decisions only when at least this many
# prefixes are determined; below it, per-prefix checks are cheaper.
MIN_BATCH_PREFIXES = 3
# Relative half-width of the band around the budget in which a batched
# residual is not trusted to decide a prefix (see _prefix_decisions).
TIE_RTOL = 1e-10


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
    rank-deficient stack is not an error.  A set with fewer equations than
    states (tau * |I| < n) is flagged, and so is one whose rank the SVD
    fallback finds short; x is then a least-squares solution, the minimum-norm
    one only when the fallback ran.
    """
    sensors = tuple(sorted(set(int(i) for i in sensors)))
    if not sensors:
        raise ValueError("sensor set must be non-empty")
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    return _check(stack, window, sensors, np.asarray(noise_bounds, dtype=float), epsilon)


def _check(
    stack: ObservabilityStack,
    window: StackedWindow,
    sensors: tuple,
    noise_bounds: np.ndarray,
    epsilon: float,
) -> CheckResult:
    """``t_check`` on a sorted, non-empty tuple and a float array."""
    idx = list(sensors)
    n = stack.n
    o_i = stack.blocks[idx].reshape(-1, n)
    y_i = window.blocks[idx].reshape(-1)
    # Normal-equation fast path; fall back to the SVD solver when the Gram
    # matrix is singular or the gradient check says the solve went bad.
    # math.sqrt(v.dot(v)) is numpy's 2-norm of a vector, without its overhead.
    x = None
    rank_deficient = len(idx) * stack.tau < n
    gram = stack.gram_blocks[idx].sum(axis=0)
    rhs = o_i.T @ y_i
    norms_sq = stack.block_norms_sq[idx]
    scale = math.sqrt(float(y_i.dot(y_i))) * math.sqrt(float(norms_sq.sum()))
    try:
        cand = np.linalg.solve(gram, rhs)
        grad = rhs - gram @ cand
        if math.sqrt(float(grad.dot(grad))) <= 1e-9 * max(scale, 1e-300):
            x = cand
    except np.linalg.LinAlgError:
        pass
    if x is None:
        x, _, rank, _ = np.linalg.lstsq(o_i, y_i, rcond=None)
        rank_deficient = rank < n
    fit = o_i @ x
    diff = y_i - fit
    block_res = (diff * diff).reshape(len(idx), stack.tau).sum(axis=1)
    residual_sq = float(block_res.sum())
    psi_sq = float(np.sum(noise_bounds[idx] ** 2))
    sat = math.sqrt(residual_sq) <= math.sqrt(psi_sq) + epsilon
    if stack.dead_block:
        # a dead sensor carries no state information; it sorts last
        with np.errstate(divide="ignore", invalid="ignore"):
            normalized = np.where(norms_sq > 0, block_res / norms_sq, math.inf)
    else:
        normalized = block_res / norms_sq
    return CheckResult(
        sat=sat,
        x=x,
        residual_sq=residual_sq,
        per_sensor_residuals=dict(zip(sensors, normalized.tolist())),
        sensors=sensors,
        rank_deficient=rank_deficient,
    )


def _sorted_by_residual(check: CheckResult):
    """Sensor indices by ascending normalized residual, index as tiebreak."""
    return sorted(check.sensors, key=lambda i: (check.per_sensor_residuals[i], i))


def _prefix_decisions(
    stack: ObservabilityStack,
    window: StackedWindow,
    ordered: list,
    noise_bounds: np.ndarray,
    epsilon: float,
) -> dict:
    """SAT decisions for the prefixes ``ordered[:keep]``, 1 <= keep < len,
    from one batched solve; ``{keep: sat}``, empty when fewer than
    ``MIN_BATCH_PREFIXES`` prefixes are determined (tau * keep >= n).

    Only determined prefixes are solved, from running sums
    of the Gram blocks, of O_i^T Y_i, of ||Y_i||^2, of the squared block norms
    and of the squared noise bounds.  A prefix is left out of the table, and
    so left to ``_check``, when the batched solve raises, when its solution
    fails ``_check``'s relative gradient test, or when its residual norm lies
    within the tie band ``TIE_RTOL * (||Psi|| + epsilon + ||Y||)`` of the
    budget ``||Psi|| + epsilon``, where a different summation order could
    flip the decision.
    """
    tau, n = stack.tau, stack.n
    first = -(-n // tau)  # smallest determined prefix length
    last = len(ordered) - 1
    if last - first + 1 < MIN_BATCH_PREFIXES:
        return {}
    blocks = stack.blocks[ordered]  # (m, tau, n)
    ys = window.blocks[ordered]  # (m, tau)
    # running sums from prefix `first` on; a loop over rows beats cumsum
    # along the leading axis of a stack of matrices
    grams = stack.gram_blocks[ordered[first - 1:last]]  # (K, n, n), a copy
    grams[0] = stack.gram_blocks[ordered[:first]].sum(axis=0)
    for k in range(1, len(grams)):
        grams[k] += grams[k - 1]
    rhs = np.cumsum((ys[:last, None, :] @ blocks[:last])[:, 0], axis=0)[first - 1:]
    y_sq = np.cumsum((ys * ys).sum(axis=1))[first - 1:last]
    norms_sq = np.cumsum(stack.block_norms_sq[ordered])[first - 1:last]
    psi_sq = np.cumsum(noise_bounds[ordered] ** 2)[first - 1:last]
    try:
        xs = np.linalg.solve(grams, rhs[:, :, None])[:, :, 0]  # (K, n)
    except np.linalg.LinAlgError:
        return {}
    grad = rhs - (grams @ xs[:, :, None])[:, :, 0]
    scale = np.maximum(np.sqrt(y_sq) * np.sqrt(norms_sq), 1e-300)
    solved = np.sqrt((grad * grad).sum(axis=1)) <= 1e-9 * scale
    # one fit of every sensor under every prefix's state: (m * tau, K)
    diff = ys.reshape(-1, 1) - blocks.reshape(-1, n) @ xs.T
    per_sensor = (diff * diff).reshape(len(ordered), tau, -1).sum(axis=1)  # (m, K)
    keeps = np.arange(first, last + 1)
    residual = np.sqrt(np.cumsum(per_sensor, axis=0)[keeps - 1, keeps - first])
    budget = np.sqrt(psi_sq) + epsilon
    clear = np.abs(residual - budget) > TIE_RTOL * (budget + np.sqrt(y_sq))
    sat = (residual <= budget).tolist()
    return {k: s for k, s, ok in zip(keeps.tolist(), sat, (solved & clear).tolist()) if ok}


def certificate_conflict(
    stack: ObservabilityStack,
    window: StackedWindow,
    check: CheckResult,
    s_bar: int,
    epsilon: float,
    noise_bounds,
    *,
    shrink: bool = True,
    diagnostics: CertificateDiagnostics | None = None,
) -> Certificate:
    """Small sensor set that cannot all be attack-free.

    Seeds with the p - 2*s_bar lowest-residual sensors of ``check`` (residuals
    taken at the failed check's minimizer), then walks candidates from the
    highest residual down until the seed-plus-candidate check fails.

    The optional shrink pass orders the conflicting set by ascending kernel
    dimension and drops trailing members while the set stays infeasible,
    reading prefix lengths from the longest down until one passes.  When at
    least ``MIN_BATCH_PREFIXES`` prefixes are determined (tau * keep >= n),
    one batched solve decides them (see ``_prefix_decisions``).  A prefix it
    leaves undecided (undetermined, a failed batched solve, or a residual
    within the tie band ``TIE_RTOL * (||Psi|| + epsilon + ||Y||)`` around the
    budget ``||Psi|| + epsilon``) goes through the ordinary check, so every
    certificate is still a set that ``t_check`` rejects.  Each prefix
    decision counts as one theory check.
    """
    if check.sat:
        raise ValueError("conflict certificates require an UNSAT check")
    seed_size = stack.p - 2 * s_bar
    if len(check.sensors) <= seed_size:
        raise ValueError(
            f"need more than {seed_size} sensors to search for a conflict, "
            f"got {len(check.sensors)}"
        )
    noise_bounds = np.asarray(noise_bounds, dtype=float)
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
        decided = _prefix_decisions(stack, window, ordered, noise_bounds, epsilon)
        keep = len(ordered) - 1
        while keep >= 1:
            diag.theory_checks += 1
            sat = decided.get(keep)
            if sat is None:
                prefix = tuple(sorted(ordered[:keep]))
                sat = _check(stack, window, prefix, noise_bounds, epsilon).sat
            if sat:
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
    diag = CertificateDiagnostics()
    trivial = Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED, frozenset(check.sensors))
    if strategy is Strategy.TRIVIAL or len(check.sensors) <= stack.p - 2 * s_bar:
        return [trivial], diag
    try:
        certs = [
            certificate_conflict(
                stack, window, check, s_bar, epsilon, noise_bounds,
                diagnostics=diag,
            )
        ]
    except ConflictSearchError:
        diag.conflict_fallback = True
        certs = [trivial]
    if strategy is Strategy.CONFLICT_AGREE:
        if agree_allowed:
            agree = certificate_agree(
                stack, window, check, s_bar, epsilon, noise_bounds,
                diagnostics=diag,
            )
            if agree is not None:
                diag.agree_emitted = True
                certs.append(agree)
        else:
            diag.agree_suppressed = True
    return certs, diag
