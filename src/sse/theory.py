"""Convex side of the lazy solver: least-squares satisfiability checks over a
hypothesized attack-free sensor set, and compact explanations when the check
fails.

A check stacks the selected sensors' windows, solves the unconstrained
least-squares problem, and accepts when the residual fits inside the stacked
noise budget plus the solver tolerance.

A rejected check is explained in one place, ``certificates``.  It ranks the
checked sensors by their normalized residuals at the failed check's
minimizer (``_refit_ranking``, the one residual ranking: each block's squared
residual over its squared norm, a dead sensor last); the p - 2*s_bar lowest
are the seed, and the seed's own check is the seed fit.  Two heuristics
share them: a linear walk that pairs the seed with high-residual candidates
until they conflict, and an agreement certificate that certifies the seed
as clean when its fit passes.  The failed fit runs over attacked sensors
too, which pull it off the state.  When the seed over-determines the state
(tau * |seed| > n) and the walk has at least two candidates, concentration
steps from least trimmed squares (Rousseeuw and Van Driessen, "Computing LTS
regression for large data sets", DMKD 2006) rank the checked sensors again,
by the same rule at the seed fit; while that fit fails, the p - 2*s_bar
lowest of the new ranking are fitted next, until a fit passes or its
ranking names a seed already fitted in the call, a fixpoint or a cycle, so
the steps always end.  The walk seeds, walks and picks its suspect from the
last ranking.  A seed with no spare equations is interpolated by its own
fit, so a step could not move it and is skipped.

Each walk trial is a candidate followed by the seed in ascending kernel
dimension, and ``t_check`` decides its prefixes from the fewest sensors
that over-determine the state (n // tau + 1, whose stacked blocks have more
rows than states) up; the first rejected prefix is the conflict, and the
candidate, a member of every prefix, is its suspect (insertion-based
conflict extraction with a preference order: Junker, "QuickXplain:
preferred explanations and relaxations for over-constrained problems",
AAAI 2004; Marques-Silva, "Minimal unsatisfiability: models, algorithms and
applications", ISMVL 2010).  A shorter prefix has no spare equation, so it
is not checked.  When the seed is clean and the candidate attacked, the
first prefix already fails: a conflict usually costs one check.  Every
conflict is a set that ``t_check`` rejected, or the checked set.

A seed whose fit passes condemns more than one candidate.  When the last
seed fit was made and passed and the walk found its conflict,
``certificates`` goes on along the same walk order: the candidates after
the walk's suspect follow, each with its trial's first checked prefix
alone, and each rejected prefix is one more conflict, with that candidate
as suspect, until a prefix passes or s_bar conflicts are held.  With the
seed consistent, a rejected prefix names an attacked candidate, so one
rejected check teaches the core most of the attack (a theory solver
returning several explanations per call: Sebastiani, "Lazy satisfiability
modulo theories", JSAT 2007).

``conflict_agree`` makes the seed fit on every rejected check and learns what
``conflict`` learns, plus the agree certificate when the last fit passes:
where the estimator's agree gate is open the seed over-determines the state,
so ``conflict`` makes the same fits whenever the walk has two candidates.  Once
the agree certificate zeroes the seed, a conflict whose other sensors lie in
the seed acts as the singleton {suspect}.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from typing import NamedTuple

import numpy as np

from .linmodel import ObservabilityStack, StackedWindow
from .satcore import Certificate, CertificateKind, SolveStats


# Floats a stack's memo of per-set check constants may hold in all (see
# t_check); a set that does not fit is recomputed on every check.
CHECK_MEMO_FLOATS = 1 << 12
# Solver tolerance epsilon every entry point uses unless told otherwise.
DEFAULT_EPSILON = 1e-6
# The gradient test that accepts t_check's normal-equation solve.
GRAD_RTOL = 1e-9
GRAD_FLOOR = 1e-300
# A rejection by the normal-equation solve whose residual is within this share
# of norm * ||x|| + ||Y_I|| of the budget is decided again by the SVD solver
# (see t_check).
RESOLVE_RTOL = 1e-5


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
    solve finds short when its fit is returned; x is then a least-squares
    solution, the minimum-norm one only when the SVD's fit is returned.
    Noise bounds of a length other than p, or a window whose blocks are not
    (p, tau), raise ``ValueError``.  The stack's memo keeps the set's index
    array, O_I, Gram matrix and norm while they fit ``CHECK_MEMO_FLOATS``.

    One rule decides.  The normal equations decide, unless their solve
    fails (a ``LinAlgError``, or a gradient above ``GRAD_RTOL`` of
    ||Y_I|| * norm, a test of backward stability) or they reject within
    ``RESOLVE_RTOL`` * (norm * ||x|| + ||Y_I||) of the budget; then one SVD
    solve (``lstsq``) decides, and its fit is returned, except that a
    near-budget rejection it confirms keeps the normal equations' result.
    The band is there because their forward error grows with cond(O_I)^2:
    the residual they leave exceeds the least one by up to about u *
    cond(O_I) * (norm * ||x|| + ||Y_I||), u the unit roundoff, so on an
    ill-conditioned set they can reject a set that fits; the band covers
    cond(O_I) up to about 1e10.
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
    # the normal equations' rank bound: the set's rows, short only when < n
    rank = len(sensors) * tau
    # math.sqrt(v.dot(v)) is numpy's 2-norm of a vector, without its overhead.
    rhs = o_i.T @ y_i
    y_norm = math.sqrt(float(y_i.dot(y_i)))
    try:
        x = np.linalg.solve(gram, rhs)
        grad = rhs - gram @ x
        if not math.sqrt(float(grad.dot(grad))) <= GRAD_RTOL * max(y_norm * norm, GRAD_FLOOR):
            x = None
    except np.linalg.LinAlgError:
        x = None
    psi = bounds.take(idx)
    budget = math.sqrt(float(psi.dot(psi))) + epsilon
    if x is not None:
        diff = y_i - o_i @ x
        residual_sq = float(diff.dot(diff))
        sat = math.sqrt(residual_sq) <= budget
    # strictly near, so that a residual whose square overflowed to inf is not
    # solved again
    if x is None or (not sat and math.sqrt(residual_sq) - budget
                     < RESOLVE_RTOL * (norm * math.sqrt(float(x.dot(x))) + y_norm)):
        svd = np.linalg.lstsq(o_i, y_i, rcond=None)
        diff = y_i - o_i @ svd[0]
        if x is None or math.sqrt(float(diff.dot(diff))) <= budget:
            x, _, rank, _ = svd
            residual_sq = float(diff.dot(diff))
            sat = math.sqrt(residual_sq) <= budget
    return CheckResult(sat, x, residual_sq, sensors, rank < n)


def _refit_ranking(
    stack: ObservabilityStack, window: StackedWindow, sensors: tuple, x: np.ndarray
) -> list:
    """``sensors`` (ascending) by ascending normalized residual at ``x``: a
    block's squared residual over its squared norm.  A dead sensor carries no
    state information, so it gets inf and sorts last; the stable sort breaks
    ties by index."""
    diff = window.blocks - stack.blocks @ x  # (p, tau): every sensor, cheaper than a subset
    # a row blamed before the check may overflow to inf; it is never ranked
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        res = (diff * diff).sum(axis=1)
        res = np.where(stack.block_norms_sq > 0, res / stack.block_norms_sq, math.inf)
    return sorted(sensors, key=res.tolist().__getitem__)


def _walk_order(stack: ObservabilityStack, ranked: list, seed_size: int) -> tuple:
    """The conflict walk's trials, ``[cand] + rest`` for each candidate:
    (candidates, highest residual first; rest, the seed_size lowest of
    ``ranked`` in ascending kernel dimension, then index; first, the length
    of each trial's first checked prefix)."""
    rest = sorted(ranked[:seed_size])
    rest.sort(key=stack.block_kernel_dims.tolist().__getitem__)
    first = min(stack.n // stack.tau + 1, len(rest) + 1)
    return ranked[seed_size:][::-1], rest, first


def certificate_conflict(
    stack: ObservabilityStack,
    window: StackedWindow,
    order: tuple,
    epsilon: float,
    noise_bounds: np.ndarray,
    stats: SolveStats,
) -> Certificate:
    """Small sensor set that cannot all be attack-free.

    The walk follows the ``order`` it is given, ``_walk_order``'s
    (candidates, rest, first) for a rejected check's ranking: candidates are
    tried in that order, highest residual first, and each trial is the
    candidate followed by ``rest``, the seed.  ``t_check`` decides the
    trial's prefixes, growing from ``first``, the fewest sensors whose
    stacked blocks have more rows than states (n // tau + 1, or the whole
    trial when it is shorter), and the first rejected prefix is the
    certificate, with the candidate as its suspect.  A candidate with no
    rejected prefix passes the walk to the next.  A lone candidate's full
    trial is the checked set itself, which the check rejected, so it is
    taken without a check.  Each ``t_check`` counts as one theory check in
    ``stats``, and every certificate is a set that ``t_check`` rejected or
    the checked set.
    """
    candidates, rest, first = order
    lone = len(candidates) == 1
    for cand in candidates:
        trial = [cand] + rest
        for keep in range(first, len(trial) + 1):
            if lone and keep == len(trial):
                break  # the checked set, already rejected
            stats.theory_checks += 1
            if not t_check(stack, window, trial[:keep], noise_bounds, epsilon).sat:
                break
        else:
            continue
        return Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED, frozenset(trial[:keep]),
                           suspect=cand)
    raise ConflictSearchError(
        f"no conflicting subset found among {len(candidates)} candidates"
    )


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

    A check whose squared residual is not finite gets one singleton
    certificate, with no suspect, for each checked sensor whose row is not
    finite (``StackedWindow.nonfinite_sensors``), when it has any: the rule
    ``estimate`` applies before its first check.  ``trivial`` blames every
    checked sensor, and so does every strategy when no more than p - 2*s_bar
    sensors were checked.  Otherwise every strategy takes one path.  The
    checked sensors are ranked by residual at ``check.x``, and the
    p - 2*s_bar lowest are the seed.  The seed's check, the seed fit, is made
    when the concentration steps aim the walk (see the module docstring),
    and under ``conflict_agree``, whose agree certificate is a passing seed
    fit.  One loop makes every seed fit, one theory check each: when aimed,
    it ranks the checked sensors again at each fit and stops when the fit
    passes or the new ranking's seed was fitted already in this call; the
    last fit and its ranking are the ones used below.  The walk comes next,
    along the one ``_walk_order`` of that ranking; when it fails, as it can
    on noisy data, the trivial certificate is emitted instead and the
    fallback is counted.  When it finds its conflict and the last seed fit
    passed, the candidates after its suspect follow in the same order, each
    with its first checked prefix alone: up to s_bar - 1 more conflicts, one
    theory check each, plus one for a prefix that passes and ends them.
    Under ``conflict_agree`` the agree certificate comes last, when the last
    seed fit passes.  ``conflict_agree`` is sound only where the estimator's
    agree gate holds; ``estimate`` runs it as ``conflict`` elsewhere.
    """
    if check.sat:
        raise ValueError("certificates require an UNSAT check")
    counts = SolveStats()
    if not math.isfinite(check.residual_sq):
        blamed = [i for i in window.nonfinite_sensors() if i in check.sensors]
        if blamed:
            return [Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED, frozenset({i}))
                    for i in blamed], counts
    seed_size = stack.p - 2 * s_bar
    if strategy is Strategy.TRIVIAL or len(check.sensors) <= seed_size:
        trivial = Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED, frozenset(check.sensors))
        return [trivial], counts
    ranked = _refit_ranking(stack, window, check.sensors, check.x)
    agree = strategy is Strategy.CONFLICT_AGREE and seed_size >= 1
    aimed = stack.tau * seed_size > stack.n and len(ranked) - seed_size >= 2
    seed_fit, fitted = None, set()
    while (agree or aimed) and (seed := tuple(sorted(ranked[:seed_size]))) not in fitted:
        fitted.add(seed)
        counts.theory_checks += 1
        seed_fit = t_check(stack, window, seed, noise_bounds, epsilon)
        if not aimed:
            break
        ranked = _refit_ranking(stack, window, check.sensors, seed_fit.x)
        if seed_fit.sat:
            break
    order = candidates, rest, first = _walk_order(stack, ranked, seed_size)
    try:
        certs = [certificate_conflict(stack, window, order, epsilon, noise_bounds, counts)]
    except ConflictSearchError:
        counts.conflict_fallbacks = 1
        certs = [Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED, frozenset(check.sensors))]
    else:
        if seed_fit is not None and seed_fit.sat:
            for cand in candidates[candidates.index(certs[0].suspect) + 1:]:
                if len(certs) == s_bar:
                    break
                prefix = [cand] + rest[:first - 1]
                counts.theory_checks += 1
                if t_check(stack, window, prefix, noise_bounds, epsilon).sat:
                    break
                certs.append(Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED, frozenset(prefix),
                                         suspect=cand))
    if agree:
        cert = certificate_agree(seed_fit)
        if cert is not None:
            certs.append(cert)
    return certs, counts
