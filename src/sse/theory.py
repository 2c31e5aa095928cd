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

Both start from the seed, the p - 2*s_bar sensors with the lowest residuals
at the failed check's minimizer, and share one check of it, the seed fit.
The failed fit runs over attacked sensors too, which pull it off the state.
When the seed over-determines the state (tau * |seed| > n) and the walk has
at least two candidates, one concentration step from least trimmed squares
(Rousseeuw and Van Driessen, "Computing LTS regression for large data sets",
DMKD 2006) ranks the checked sensors again by their residuals at the seed
fit, and the walk seeds, walks and picks its suspect from that ranking.  A
seed with no spare equations is interpolated by its own fit, so the step
could not move it and is skipped.

The walk's conflict is then shrunk: in kernel-dimension order, trailing
members are dropped while the rest stays infeasible.  The sets it tries are
nested prefixes, so one batched solve over running sums of the Gram blocks
and of O_i^T Y_i decides them together (nested least-squares updating, Golub
and Van Loan, *Matrix Computations*, sec. 6.5).  The same table decides the
full set, which is the walk's trial, so a trial that fails is decided and
shrunk from one solve.  A prefix that is undetermined, whose batched solve
fails, or whose batched residual lies in the tie band
``TIE_RTOL * (||Psi|| + epsilon + ||Y||)`` around the budget
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
    residuals: np.ndarray  # normalized per-sensor residuals, in the order of sensors
    sensors: tuple
    rank_deficient: bool


@dataclass
class CertificateDiagnostics:
    """Bookkeeping for one certificate-generation call."""

    theory_checks: int = 0
    conflict_fallback: bool = False


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
    return CheckResult(
        sat=sat,
        x=x,
        residual_sq=residual_sq,
        residuals=_normalized(stack, block_res, norms_sq),
        sensors=sensors,
        rank_deficient=rank_deficient,
    )


def _normalized(
    stack: ObservabilityStack, block_res: np.ndarray, norms_sq: np.ndarray
) -> np.ndarray:
    """Block residuals over the blocks' squared norms; a dead sensor carries
    no state information, so it gets inf and sorts last."""
    if not stack.dead_block:
        return block_res / norms_sq
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(norms_sq > 0, block_res / norms_sq, math.inf)


def _sorted_by_residual(check: CheckResult) -> list:
    """Sensor indices by ascending normalized residual; ``check.sensors``
    ascends, so the stable sort breaks ties by index."""
    res = check.residuals.tolist()
    return [check.sensors[k] for k in sorted(range(len(res)), key=res.__getitem__)]


def _seed_fit(
    stack: ObservabilityStack,
    window: StackedWindow,
    check: CheckResult,
    seed_size: int,
    noise_bounds,
    epsilon: float,
    diag: CertificateDiagnostics,
) -> CheckResult:
    """The check of the seed, ``check``'s seed_size lowest-residual sensors;
    one theory check."""
    diag.theory_checks += 1
    return t_check(stack, window, _sorted_by_residual(check)[:seed_size], noise_bounds, epsilon)


def _aimed(stack: ObservabilityStack, seed_size: int, candidates: int) -> bool:
    """Whether the concentration step can change the walk: the seed
    over-determines the state and there is more than one candidate."""
    return stack.tau * seed_size > stack.n and candidates >= 2


def _refit_ranking(
    stack: ObservabilityStack, window: StackedWindow, sensors: tuple, x: np.ndarray
) -> list:
    """``sensors`` (ascending) by ascending normalized residual at ``x``,
    normalized as in ``_check``; the stable sort breaks ties by index."""
    diff = window.blocks - stack.blocks @ x  # (p, tau): every sensor, cheaper than a subset
    res = _normalized(stack, (diff * diff).sum(axis=1), stack.block_norms_sq)
    return sorted(sensors, key=res.tolist().__getitem__)


def _prefix_decisions(
    stack: ObservabilityStack,
    window: StackedWindow,
    ordered: list,
    noise_bounds: np.ndarray,
    epsilon: float,
) -> dict:
    """SAT decisions for the prefixes ``ordered[:keep]``, 1 <= keep <= len
    (the full set included), from one batched solve; ``{keep: sat}``, empty
    when fewer than ``MIN_BATCH_PREFIXES`` prefixes are determined
    (tau * keep >= n).

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
    last = len(ordered)
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
    rhs = np.cumsum((ys[:, None, :] @ blocks)[:, 0], axis=0)[first - 1:]
    y_sq = np.cumsum((ys * ys).sum(axis=1))[first - 1:]
    norms_sq = np.cumsum(stack.block_norms_sq[ordered])[first - 1:]
    psi_sq = np.cumsum(noise_bounds[ordered] ** 2)[first - 1:]
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
    seed_fit: CheckResult | None = None,
    diagnostics: CertificateDiagnostics | None = None,
) -> Certificate:
    """Small sensor set that cannot all be attack-free.

    ``check`` must be a rejected check made with the same noise bounds and
    epsilon.  Its p - 2*s_bar lowest-residual sensors are the seed, and
    ``seed_fit`` their check (made here when not given, one theory check).
    When the seed over-determines the state (tau * |seed| > n) and there are
    at least two candidates, the checked sensors are ranked again by their
    normalized residuals at the seed fit's state (one concentration step);
    otherwise the check's own ranking stands and no seed fit is needed.  The
    walk seeds with the ranking's p - 2*s_bar lowest, then tries candidates
    from the highest residual down until the seed-plus-candidate set fails.
    A lone candidate's trial is the checked set itself, which ``check``
    rejected, so it is taken without a check.  The suspect is the member
    ranked highest.

    With ``shrink`` each trial is put in shrink order, ascending kernel
    dimension, and one batched solve decides its determined prefixes and the
    trial itself (see ``_prefix_decisions``); the walk reads the trial's
    decision there and checks it only when the table leaves it out.  The
    shrink pass then drops trailing members while the set stays infeasible,
    reading prefix lengths from the longest down until one passes.  A prefix
    the table leaves undecided (undetermined, a failed batched solve, or a
    residual within the tie band ``TIE_RTOL * (||Psi|| + epsilon + ||Y||)``
    around the budget ``||Psi|| + epsilon``) goes through the ordinary check,
    so every certificate is still a set that ``t_check`` rejects.  Each
    trial and prefix decision counts as one theory check.  Without
    ``shrink`` every trial goes through ``t_check``.
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
    if _aimed(stack, seed_size, len(check.sensors) - seed_size):
        if seed_fit is None:
            seed_fit = _seed_fit(stack, window, check, seed_size, noise_bounds, epsilon, diag)
        ranked = _refit_ranking(stack, window, check.sensors, seed_fit.x)
    else:
        ranked = _sorted_by_residual(check)
    seed = ranked[:seed_size]
    candidates = ranked[seed_size:][::-1]  # highest residual first
    dims = stack.block_kernel_dims.tolist()
    decided: dict = {}
    for cand in candidates:
        trial = seed + [cand]
        if shrink:  # shrink order: ascending kernel dimension, then index
            trial.sort()
            trial.sort(key=dims.__getitem__)
            decided = _prefix_decisions(stack, window, trial, noise_bounds, epsilon)
        if len(candidates) == 1:
            break  # the checked set, already rejected
        diag.theory_checks += 1
        sat = decided.get(len(trial))
        if sat is None:
            sat = t_check(stack, window, trial, noise_bounds, epsilon).sat
        if not sat:
            break
    else:
        raise ConflictSearchError(
            f"no conflicting subset found among {len(candidates)} candidates"
        )
    conflict = trial
    if shrink and len(conflict) > 1:
        keep = len(conflict) - 1
        while keep >= 1:
            diag.theory_checks += 1
            sat = decided.get(keep)
            if sat is None:
                prefix = tuple(sorted(conflict[:keep]))
                sat = _check(stack, window, prefix, noise_bounds, epsilon).sat
            if sat:
                break
            keep -= 1
        conflict = conflict[: keep + 1]
    sensors = frozenset(conflict)
    suspect = next(i for i in reversed(ranked) if i in sensors)
    return Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED, sensors, suspect=suspect)


def certificate_agree(
    stack: ObservabilityStack,
    window: StackedWindow,
    check: CheckResult,
    s_bar: int,
    epsilon: float,
    noise_bounds,
    *,
    seed_fit: CheckResult | None = None,
    diagnostics: CertificateDiagnostics | None = None,
) -> Certificate | None:
    """Certify the seed, the p - 2*s_bar lowest-residual sensors of
    ``check``, as clean when they are mutually consistent; None when they
    are not (no constraint learned).  ``seed_fit`` is the seed's check, made
    here when not given (one theory check)."""
    if check.sat:
        raise ValueError("agree certificates require an UNSAT check")
    seed_size = stack.p - 2 * s_bar
    if seed_size < 1 or len(check.sensors) < seed_size:
        return None
    diag = diagnostics if diagnostics is not None else CertificateDiagnostics()
    if seed_fit is None:
        seed_fit = _seed_fit(stack, window, check, seed_size, noise_bounds, epsilon, diag)
    if seed_fit.sat:
        return Certificate(CertificateKind.ALL_UNATTACKED, frozenset(seed_fit.sensors))
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

    Returns (certificate list, diagnostics).  The seed fit is made at most
    once, when the conflict walk's concentration step or the agree
    certificate needs it, and both receive it.  The conflict walk can fail on
    noisy data; the trivial certificate is emitted instead and the fallback is
    flagged so exact-data callers can assert it never fires.
    """
    diag = CertificateDiagnostics()
    trivial = Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED, frozenset(check.sensors))
    seed_size = stack.p - 2 * s_bar
    if strategy is Strategy.TRIVIAL or len(check.sensors) <= seed_size:
        return [trivial], diag
    agree = strategy is Strategy.CONFLICT_AGREE and agree_allowed
    seed_fit = None
    if (agree and seed_size >= 1) or _aimed(stack, seed_size, len(check.sensors) - seed_size):
        seed_fit = _seed_fit(stack, window, check, seed_size, noise_bounds, epsilon, diag)
    try:
        certs = [
            certificate_conflict(
                stack, window, check, s_bar, epsilon, noise_bounds,
                seed_fit=seed_fit, diagnostics=diag,
            )
        ]
    except ConflictSearchError:
        diag.conflict_fallback = True
        certs = [trivial]
    if agree:
        cert = certificate_agree(
            stack, window, check, s_bar, epsilon, noise_bounds,
            seed_fit=seed_fit, diagnostics=diag,
        )
        if cert is not None:
            certs.append(cert)
    return certs, diag
