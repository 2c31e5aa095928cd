"""Convex side of the lazy solver: least-squares satisfiability checks over a
hypothesized attack-free sensor set, and compact explanations when the check
fails.

A check stacks the selected sensors' windows, solves the unconstrained
least-squares problem, and accepts when the residual fits inside the stacked
noise budget plus the solver tolerance.

A rejected check is explained in one place, ``certificates``.  It ranks the
checked sensors once by their normalized residuals at the failed check's
minimizer (``_refit_ranking``, the one residual ranking: each block's squared
residual over its squared norm, a dead sensor last); the p - 2*s_bar lowest
are the seed, and the seed's own check, the seed fit, is made at most once.
Two heuristics share them: a linear walk that pairs the seed with
high-residual candidates until they conflict, and an agreement certificate
that certifies the seed as clean when its fit passes.  The failed fit runs
over attacked sensors too, which pull it off the state.  When the seed
over-determines the state (tau * |seed| > n) and the walk has at least two
candidates, one concentration step from least trimmed squares (Rousseeuw
and Van Driessen, "Computing LTS regression for large data sets", DMKD
2006) ranks the checked sensors again, by the same rule at the seed fit, and
the walk seeds, walks and picks its suspect from that ranking.  A seed with
no spare equations is interpolated by its own fit, so the step could not
move it and is skipped.

A clean seed also exposes the attacked sensors among the rest.  Each checked
sensor i outside it gives the set seed + {i}; one batched solve decides them
all, and each rejected one is learned as an at-least-one-attacked
certificate with suspect i (a theory solver returning several explanations
per call: Sebastiani, "Lazy satisfiability modulo theories", JSAT 2007).
Once the agree certificate zeroes the seed, each acts as the singleton {i}.
The walk's conflict would be a subset of seed + {cand} holding cand, which
then acts as {cand}, one of the exposures, so the walk is skipped.  It runs
only when every exposure passes (rounding can do that), so that every
rejected check still learns an at-least-one certificate.

The walk's conflict is then shrunk: in kernel-dimension order, trailing
members are dropped while the rest stays infeasible.  The sets it tries are
nested prefixes, so one batched solve over running sums of the Gram blocks
and of O_i^T Y_i decides them together (nested least-squares updating, Golub
and Van Loan, *Matrix Computations*, sec. 6.5).  The same table decides the
full set, which is the walk's trial, so a trial that fails is decided and
shrunk from one solve.  One decider answers every set the walk and the
shrink ask about.  A lone sensor whose block has full row rank (rank tau, by
the stack's kernel dimensions) and whose reading is finite passes without a
solve: such a block fits any reading exactly.  Otherwise the table answers,
unless the set is undetermined, its batched solve failed, or its batched
residual lies in the tie band ``TIE_RTOL * (||Psi|| + epsilon + ||Y||)``
around the budget ``||Psi|| + epsilon``; then ``t_check``, the one
least-squares check, decides.  The exposure table keeps the same band and
the same fallback to ``t_check``; both tables decide through one helper,
``_batched_decisions``.  Tie policy: the stack's rank rule rules over
the table and the check.  On an ill-conditioned block (from a condition
number of a few times 1e4 at readings of size 10, far inside the rank
tolerance) the check's normal-equation solve can leave a rounding residual
past the budget; the certificate then keeps one more member, the two-sensor
prefix already found infeasible, so it is still a set that ``t_check`` rejects.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from typing import NamedTuple

import numpy as np

from .linmodel import ObservabilityStack, StackedWindow
from .satcore import Certificate, CertificateKind, SolveStats


# The shrink pass batches its prefix decisions only when at least this many
# prefixes are determined; below it, per-prefix checks are cheaper.
MIN_BATCH_PREFIXES = 3
# Relative half-width of the band around the budget in which a batched
# residual is not trusted to decide a prefix (see _prefix_decisions).
TIE_RTOL = 1e-10
# Floats a stack's memo of per-set check constants may hold in all (see
# t_check); a set that does not fit is recomputed on every check.
CHECK_MEMO_FLOATS = 1 << 12
# Solver tolerance epsilon every entry point uses unless told otherwise.
DEFAULT_EPSILON = 1e-6
# The gradient test that accepts a normal-equation solve (t_check, _prefix_decisions).
GRAD_RTOL = 1e-9
GRAD_FLOOR = 1e-300


class Strategy(str, Enum):
    TRIVIAL = "trivial"
    CONFLICT = "conflict"
    CONFLICT_AGREE = "conflict_agree"


class ConflictSearchError(RuntimeError):
    """The linear conflict walk exhausted its candidates without finding a
    conflicting subset (impossible on exact data, possible under noise)."""


class _SetConstants(NamedTuple):
    """What ``t_check`` computes from the stack alone for one sensor set."""

    idx: np.ndarray  # the sorted set as an index array
    o_i: np.ndarray  # the stacked O_I
    gram: np.ndarray  # the summed Gram blocks
    norm: float  # the square root of the summed squared block norms


class CheckResult(NamedTuple):
    """One least-squares check's outcome (a named tuple: cheap to build)."""

    sat: bool
    x: np.ndarray
    residual_sq: float
    sensors: tuple
    rank_deficient: bool


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
    one only when the fallback ran.  Noise bounds of a length other than p,
    or a window whose blocks are not (p, tau), raise ``ValueError``.  The
    stack's memo keeps the set's index array, O_I, Gram matrix and norm while
    they fit ``CHECK_MEMO_FLOATS``.
    """
    p, n, tau = stack.p, stack.n, stack.tau
    try:
        sensors = tuple(sorted(set(map(operator.index, sensors))))
    except TypeError:
        bad = next(i for i in sensors if not hasattr(i, "__index__"))
        raise ValueError(f"sensor index {bad!r} is not an integer") from None
    if not sensors:
        raise ValueError("sensor set must be non-empty")
    if sensors[0] < 0 or sensors[-1] >= p:
        bad = sensors[0] if sensors[0] < 0 else sensors[-1]
        raise ValueError(f"sensor index {bad} out of range for p = {p}")
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    bounds = np.asarray(noise_bounds, dtype=float)
    if bounds.shape + window.blocks.shape != (p, p, tau):
        raise ValueError(
            f"noise bounds {bounds.shape} and window blocks {window.blocks.shape} "
            f"do not fit the stack's (p, tau) = {(p, tau)}")
    memo = stack._checks
    held = memo.get(sensors)
    if held is None:
        idx = np.fromiter(sensors, np.intp, len(sensors))
        o_i = stack.blocks.take(idx, 0).reshape(-1, n)
        gram = stack.gram_blocks.take(idx, 0).sum(axis=0)
        norm = math.sqrt(float(stack.block_norms_sq.take(idx).sum()))
        floats = o_i.size + gram.size + len(sensors)
        if memo.floats + floats <= CHECK_MEMO_FLOATS:
            memo[sensors] = _SetConstants(idx, o_i, gram, norm)
            memo.floats += floats
    else:
        idx, o_i, gram, norm = held
    y_i = window.blocks.take(idx, 0).reshape(-1)
    # Normal-equation fast path; fall back to the SVD solver when the Gram
    # matrix is singular or the gradient check says the solve went bad.
    # math.sqrt(v.dot(v)) is numpy's 2-norm of a vector, without its overhead.
    x = None
    rank_deficient = len(sensors) * tau < n
    rhs = o_i.T @ y_i
    scale = math.sqrt(float(y_i.dot(y_i))) * norm
    try:
        cand = np.linalg.solve(gram, rhs)
        grad = rhs - gram @ cand
        if math.sqrt(float(grad.dot(grad))) <= GRAD_RTOL * max(scale, GRAD_FLOOR):
            x = cand
    except np.linalg.LinAlgError:
        pass
    if x is None:
        x, _, rank, _ = np.linalg.lstsq(o_i, y_i, rcond=None)
        rank_deficient = rank < n
    diff = y_i - o_i @ x
    residual_sq = float((diff * diff).reshape(len(sensors), tau).sum(axis=1).sum())
    psi_sq = float((bounds.take(idx) ** 2).sum())
    sat = math.sqrt(residual_sq) <= math.sqrt(psi_sq) + epsilon
    return CheckResult(sat, x, residual_sq, sensors, rank_deficient)


def _refit_ranking(
    stack: ObservabilityStack, window: StackedWindow, sensors: tuple, x: np.ndarray
) -> list:
    """``sensors`` (ascending) by ascending normalized residual at ``x``: a
    block's squared residual over its squared norm.  A dead sensor carries no
    state information, so it gets inf and sorts last; the stable sort breaks
    ties by index."""
    diff = window.blocks - stack.blocks @ x  # (p, tau): every sensor, cheaper than a subset
    res = (diff * diff).sum(axis=1)
    if stack.dead_block:
        with np.errstate(divide="ignore", invalid="ignore"):
            res = np.where(stack.block_norms_sq > 0, res / stack.block_norms_sq, math.inf)
    else:
        res = res / stack.block_norms_sq
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
    and of the squared noise bounds.  A prefix that ``_batched_decisions``
    leaves undecided is left out of the table, and so left to ``t_check``.
    """
    tau, n = stack.tau, stack.n
    first = -(-n // tau)  # smallest determined prefix length
    last = len(ordered)
    if last - first + 1 < MIN_BATCH_PREFIXES:
        return {}
    idx = np.fromiter(ordered, np.intp, last)
    blocks = stack.blocks.take(idx, 0)  # (m, tau, n)
    ys = window.blocks.take(idx, 0)  # (m, tau)
    # running sums from prefix `first` on; a loop over rows beats cumsum
    # along the leading axis of a stack of matrices
    grams = stack.gram_blocks.take(idx[first - 1:], 0)  # (K, n, n), a copy
    grams[0] = stack.gram_blocks.take(idx[:first], 0).sum(axis=0)
    for k in range(1, len(grams)):
        grams[k] += grams[k - 1]
    rhs = np.cumsum((ys[:, None, :] @ blocks)[:, 0], axis=0)[first - 1:]
    y_sq = np.cumsum((ys * ys).sum(axis=1))[first - 1:]
    norms_sq = np.cumsum(stack.block_norms_sq.take(idx))[first - 1:]
    psi_sq = np.cumsum(noise_bounds.take(idx) ** 2)[first - 1:]
    keeps = np.arange(first, last + 1)

    def residual_sq(xs):
        # one fit of every sensor under every prefix's state: (m * tau, K)
        diff = ys.reshape(-1, 1) - blocks.reshape(-1, n) @ xs.T
        per_sensor = (diff * diff).reshape(last, tau, -1).sum(axis=1)  # (m, K)
        return np.cumsum(per_sensor, axis=0)[keeps - 1, keeps - first]

    sat = _batched_decisions(grams, rhs, y_sq, norms_sq, psi_sq, epsilon, residual_sq)
    return {k: s for k, s in zip(keeps.tolist(), sat) if s is not None}


def _batched_decisions(grams, rhs, y_sq, norms_sq, psi_sq, epsilon, residual_sq) -> list:
    """SAT decisions for K sensor sets from one batched normal-equation
    solve, the one tie policy of both batched tables (``_prefix_decisions``,
    ``_exposures``).  Set k has the summed Gram ``grams[k]``, O^T Y
    ``rhs[k]``, ||Y||^2 ``y_sq[k]``, summed squared block norms
    ``norms_sq[k]`` and ||Psi||^2 ``psi_sq[k]``; ``residual_sq(xs)`` gives
    every set's squared residual at its solution ``xs[k]``.  A decision is
    None, left to ``t_check``, when the batched solve raises, when its
    solution fails ``t_check``'s relative gradient test, or when its residual
    norm lies within the tie band ``TIE_RTOL * (||Psi|| + epsilon + ||Y||)``
    of the budget ``||Psi|| + epsilon``, where a different summation order
    could flip the decision.
    """
    try:
        xs = np.linalg.solve(grams, rhs[:, :, None])[:, :, 0]  # (K, n)
    except np.linalg.LinAlgError:
        return [None] * len(grams)
    grad = rhs - (grams @ xs[:, :, None])[:, :, 0]
    scale = np.maximum(np.sqrt(y_sq) * np.sqrt(norms_sq), GRAD_FLOOR)
    solved = np.sqrt((grad * grad).sum(axis=1)) <= GRAD_RTOL * scale
    residual = np.sqrt(residual_sq(xs))
    budget = np.sqrt(psi_sq) + epsilon
    clear = np.abs(residual - budget) > TIE_RTOL * (budget + np.sqrt(y_sq))
    sat = (residual <= budget).tolist()
    return [s if ok else None for s, ok in zip(sat, (solved & clear).tolist())]


def _exposures(
    stack: ObservabilityStack,
    window: StackedWindow,
    seed: tuple,
    sensors: tuple,
    noise_bounds: np.ndarray,
    epsilon: float,
    stats: SolveStats,
) -> list:
    """At-least-one-attacked certificates ``seed | {i}``, suspect i, for each
    sensor i of ``sensors`` outside the clean ``seed`` (ascending) whose set
    is rejected.  One batched solve decides every set from the seed's sums
    plus sensor i's terms (see ``_batched_decisions``), and ``t_check``
    decides what it leaves out; each decision counts as one theory check in
    ``stats``."""
    n, tau, m = stack.n, stack.tau, len(seed)
    outside = [i for i in sensors if i not in seed]
    idx = np.fromiter(seed + tuple(outside), np.intp, m + len(outside))
    blocks = stack.blocks.take(idx, 0)  # (m + K, tau, n): the seed, then the rest
    ys = window.blocks.take(idx, 0)  # (m + K, tau)
    k = np.arange(len(outside))

    def seed_plus(terms):  # the seed's sum plus each outside sensor's own term
        return terms[m:] + terms[:m].sum(axis=0)

    def residual_sq(xs):
        # every sensor's fit under every set's state: (m + K, K)
        diff = ys.reshape(-1, 1) - blocks.reshape(-1, n) @ xs.T
        per_sensor = (diff * diff).reshape(len(idx), tau, -1).sum(axis=1)
        return per_sensor[:m].sum(axis=0) + per_sensor[m + k, k]

    decided = _batched_decisions(
        seed_plus(stack.gram_blocks.take(idx, 0)), seed_plus((ys[:, None, :] @ blocks)[:, 0]),
        seed_plus((ys * ys).sum(axis=1)), seed_plus(stack.block_norms_sq.take(idx)),
        seed_plus(noise_bounds.take(idx) ** 2), epsilon, residual_sq)
    certs = []
    for i, sat in zip(outside, decided):
        stats.theory_checks += 1
        if sat is None:
            sat = t_check(stack, window, seed + (i,), noise_bounds, epsilon).sat
        if not sat:
            certs.append(Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED,
                                     frozenset(seed + (i,)), suspect=i))
    return certs


def certificate_conflict(
    stack: ObservabilityStack,
    window: StackedWindow,
    ranked: list,
    seed_size: int,
    epsilon: float,
    noise_bounds: np.ndarray,
    stats: SolveStats,
) -> Certificate:
    """Small sensor set that cannot all be attack-free.

    ``ranked`` is a rejected check's sensors by ascending residual, more than
    ``seed_size`` of them.  The walk seeds with the seed_size lowest, then
    tries candidates from the highest residual down until the
    seed-plus-candidate set fails.  A lone candidate's trial is the checked
    set itself, which the check rejected, so it is taken without a check.
    The suspect is the member ranked highest.

    Each trial is put in shrink order, ascending kernel dimension, and one
    batched solve decides its determined prefixes and the trial itself (see
    ``_prefix_decisions``).  The shrink pass then drops trailing members
    while the set stays infeasible, reading prefix lengths from the longest
    down until one passes.  The walk's trials and the shrink's prefixes are
    decided by one local decider, ``passes``: a one-sensor prefix passes when
    its block has full row rank (``n - block_kernel_dims[i] == tau``) and its
    reading's squared norm is finite, even where the table or the check
    would read rounding as a failure (see the module docstring); otherwise
    the table answers, and ``t_check`` decides what the table leaves out, so
    every certificate is still a set that ``t_check`` rejects.  Each
    decision counts as one theory check in ``stats``.
    """
    seed = ranked[:seed_size]
    candidates = ranked[seed_size:][::-1]  # highest residual first
    dims = stack.block_kernel_dims.tolist()

    def passes(keep: int) -> bool:
        stats.theory_checks += 1
        if keep == 1 and dims[trial[0]] == stack.n - stack.tau:
            # full row rank: the block fits any finite reading exactly
            if math.isfinite(sum(v * v for v in window.blocks[trial[0]].tolist())):
                return True
        sat = decided.get(keep)
        if sat is None:
            sat = t_check(stack, window, trial[:keep], noise_bounds, epsilon).sat
        return sat

    for cand in candidates:
        trial = seed + [cand]
        trial.sort()  # shrink order: ascending kernel dimension, then index
        trial.sort(key=dims.__getitem__)
        decided = _prefix_decisions(stack, window, trial, noise_bounds, epsilon)
        if len(candidates) == 1 or not passes(len(trial)):
            break  # a lone candidate's trial is the checked set, already rejected
    else:
        raise ConflictSearchError(
            f"no conflicting subset found among {len(candidates)} candidates"
        )
    keep = len(trial) - 1
    while keep >= 1 and not passes(keep):
        keep -= 1
    sensors = frozenset(trial[: keep + 1])
    suspect = next(i for i in reversed(ranked) if i in sensors)
    return Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED, sensors, suspect=suspect)


def certificate_agree(seed_fit: CheckResult) -> Certificate | None:
    """Certify the seed as clean when its fit passes; None when it does not
    (no constraint learned)."""
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
) -> tuple:
    """Certificates to learn from an UNSAT check, per the strategy, and the
    call's ``theory_checks`` and ``conflict_fallbacks`` as a ``SolveStats``.

    ``trivial`` blames every checked sensor, and so does every strategy when
    no more than p - 2*s_bar sensors were checked.  Otherwise the checked
    sensors are ranked once by residual at ``check.x``, and the p - 2*s_bar
    lowest are the seed.  The seed's check, the seed fit, is made at most
    once (one theory check): when the concentration step aims the walk (see
    the module docstring), and under ``conflict_agree``, whose agree
    certificate is a passing seed fit.  When the walk fails, as it can on
    noisy data, the trivial certificate is emitted instead and the fallback
    is counted.
    Under ``conflict_agree`` with a passing seed fit, the exposures come
    first: one at-least-one certificate ``seed | {i}``, suspect i, for each
    checked sensor i outside the seed whose set is rejected, in ascending i,
    each decision one theory check (see ``_exposures``).  When one is
    rejected the walk is skipped; when every one passes, the walk runs as
    under ``conflict``.  The agree certificate comes last.
    ``conflict_agree`` is sound only where the estimator's agree gate holds;
    ``estimate`` runs it as ``conflict`` elsewhere.
    """
    if check.sat:
        raise ValueError("certificates require an UNSAT check")
    counts = SolveStats()
    trivial = Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED, frozenset(check.sensors))
    seed_size = stack.p - 2 * s_bar
    if strategy is Strategy.TRIVIAL or len(check.sensors) <= seed_size:
        return [trivial], counts
    noise_bounds = np.asarray(noise_bounds, dtype=float)
    ranked = _refit_ranking(stack, window, check.sensors, check.x)
    agree = strategy is Strategy.CONFLICT_AGREE and seed_size >= 1
    aimed = stack.tau * seed_size > stack.n and len(ranked) - seed_size >= 2
    if agree or aimed:
        counts.theory_checks += 1
        seed_fit = t_check(stack, window, ranked[:seed_size], noise_bounds, epsilon)
    certs = []
    if agree and seed_fit.sat:
        certs = _exposures(stack, window, seed_fit.sensors, check.sensors, noise_bounds,
                           epsilon, counts)
    if not certs:
        if aimed:
            ranked = _refit_ranking(stack, window, check.sensors, seed_fit.x)
        try:
            certs = [certificate_conflict(stack, window, ranked, seed_size, epsilon,
                                          noise_bounds, counts)]
        except ConflictSearchError:
            counts.conflict_fallbacks = 1
            certs = [trivial]
    if agree:
        cert = certificate_agree(seed_fit)
        if cert is not None:
            certs.append(cert)
    return certs, counts
