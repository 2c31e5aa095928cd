"""Linear plant model, measurement-window stacking, and observability analysis.

Everything downstream works on a fixed-length window of sensor outputs: each
sensor contributes a stacked vector that, absent attacks and noise, equals its
observability block applied to the window-start state.  This module builds
those blocks, checks how many sensors can be removed before the state becomes
unidentifiable, and computes the two robustness constants (worst-case
pseudo-inverse gain and worst-case attack leakage) that turn noise bounds into
state-error bounds.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import sys
from dataclasses import dataclass, field, fields

import numpy as np

# Subset enumerations refuse beyond this many candidates unless overridden.
DEFAULT_SUBSET_CAP = 10**6

# Singular values below max(dim) * sigma_max * RANK_RTOL count as zero.
RANK_RTOL = 1e-12

# The subset enumerations take subsets in chunks whose stacked matrices hold
# about this many floats, so memory stays bounded whatever p is.  Each chunk
# makes one stacked LAPACK call, which gives every matrix the same bits as a
# call on that matrix alone.
CHUNK_FLOATS = 1 << 15

# The exact sparse-observability check clears a kept set without an SVD when
# the smallest eigenvalue of its summed Gram exceeds this times the sum of its
# blocks' squared norms (derived in ``check_sparse_observability``).
SCREEN_RTOL = 1e-8

# ``compute_delta_s`` hands a batch of fewer pairs than this straight to
# ``eigvalsh``: below it the trace bound costs more than the eigenvalues it
# skips.  Measured break-even: about 20 pairs of n x n matrices for n = 4 to
# 8, about 100 for n = 2, where such a batch costs some 20 us either way.
BOUND_MIN_PAIRS = 24

# ``compute_delta_s`` skips a pair only when its trace bound misses the
# running maximum by more than this times the bound on the pair's spectral
# norm (derived there).
BOUND_SLACK = 1e-8


class SubsetCapError(RuntimeError):
    """A call would examine more sensor sets than its subset cap allows."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"would examine {count} sensor sets, cap is {cap}")


class GramOverflowError(ValueError):
    """A model whose observability Grams or squared block norms may not fit
    in a float64: the squared entries of its blocks O_i do not sum to a
    finite number."""


class GramSingularError(RuntimeError):
    """A sensor-subset Gram matrix to be inverted is too ill-conditioned: its
    smallest eigenvalue is at most n * RANK_RTOL times its largest."""


def _zero_tol(top, dim: int):
    """Spectral values at or below this count as zero: ``dim * top *
    RANK_RTOL``, with ``top`` the largest singular value or eigenvalue and
    ``dim`` the larger side of the matrix."""
    return dim * top * RANK_RTOL


def _nonzero(sv: np.ndarray, dim: int) -> np.ndarray:
    """Which singular values ``sv[..., :]``, largest first, of matrices whose
    larger side is ``dim`` count as nonzero."""
    return sv > _zero_tol(sv[..., :1], dim)


def numerical_rank(m: np.ndarray) -> int:
    """Rank of a matrix: singular values at or below ``_zero_tol`` count as zero."""
    return int(_nonzero(np.linalg.svd(m, compute_uv=False), max(m.shape)).sum())


def whole_number(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as an int: 2 and 2.0 pass, while 2.5, "2" or inf raise
    ``ValueError`` instead of being truncated, as does a value below ``lo``
    or, when ``hi`` is given (with ``lo``), outside [lo, hi]."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value == int(value)):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    v = int(value)
    if hi is not None and not lo <= v <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {v}")
    if lo is not None and v < lo:
        raise ValueError(f"{name} must be {f'at least {lo}' if lo else 'non-negative'}, got {v}")
    return v


def check_epsilon(epsilon) -> None:
    """Raise ``ValueError`` unless the tolerance ``epsilon`` is non-negative
    and finite: NaN fails the first test, inf the second."""
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if epsilon == math.inf:
        raise ValueError(f"epsilon must be finite, got {epsilon}")


def check_keys(doc: dict, what: str, required, known) -> None:
    """Raise ``ValueError`` naming the first key of ``doc`` not in ``known``,
    or else every key of ``required`` that ``doc`` lacks."""
    unknown = [k for k in doc if k not in known]
    if unknown:
        raise ValueError(f"{what} has unknown key {unknown[0]!r}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(map(repr, missing))}")


def _as_matrix(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Discrete-time plant x+ = A x + B u, y = C x, with a window length,
    an attack budget, and per-sensor noise norm bounds over the window.

    ``build_observability`` keeps the model's one stack in ``_stack``; a
    copy made by ``dataclasses.replace`` starts without one."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    tau: int
    s_bar: int
    noise_bounds: np.ndarray
    _stack: ObservabilityStack | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "A", _as_matrix(self.A, "A"))
        object.__setattr__(self, "B", _as_matrix(self.B, "B"))
        object.__setattr__(self, "C", _as_matrix(self.C, "C"))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != n:
            raise ValueError(f"B has {self.B.shape[0]} rows, expected {n}")
        if self.C.shape[1] != n:
            raise ValueError(f"C has {self.C.shape[1]} columns, expected {n}")
        object.__setattr__(self, "tau", whole_number(self.tau, "tau", 1, n))
        p = self.C.shape[0]
        if not p:
            raise ValueError("C must have at least one row (sensor)")
        object.__setattr__(self, "s_bar", whole_number(self.s_bar, "s_bar", 0, p))
        nb = np.array(self.noise_bounds, dtype=float).reshape(-1)
        if nb.shape != (p,):
            raise ValueError(f"noise_bounds must have length p={p}, got {nb.shape}")
        if np.any(nb < 0) or not np.all(np.isfinite(nb)):
            raise ValueError("noise_bounds must be finite and non-negative")
        nb.setflags(write=False)
        object.__setattr__(self, "noise_bounds", nb)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "C": self.C.tolist(),
            "tau": self.tau,
            "s_bar": self.s_bar,
            "noise_bounds": self.noise_bounds.tolist(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SystemModel":
        names = [f.name for f in fields(cls) if f.init]
        # the retired verified_sparse_obs key loads and is ignored
        check_keys(doc, "model document", names, names + ["verified_sparse_obs"])
        return cls(**{k: doc[k] for k in names})


class _CheckMemo(dict):
    """Per-set constants of the least-squares check by sorted sensor tuple
    (see ``theory.t_check``, their one reader and writer); ``floats`` counts
    the floats they hold."""

    floats = 0


@dataclass(frozen=True, eq=False)
class ObservabilityStack:
    """Per-sensor observability blocks O_i (tau x n), their kernel
    dimensions, squared spectral norms, and Gram matrices.

    ``build_observability`` builds it once per model and keeps it on the
    model.  It also remembers the answers of
    ``check_sparse_observability(model, s)`` by ``s`` (a proven level
    answers every lower one, a refuted level every higher one), and the
    per-set constants of ``theory.t_check`` (the stacked O_I, the summed
    Gram, ...) for as many sensor sets as fit a fixed float budget, and the
    strategy and iteration cap of ``estimator._solve`` by (strategy,
    ``max_iterations``, budget).
    """

    blocks: np.ndarray  # p x tau x n, entry i is O_i
    block_kernel_dims: np.ndarray
    gram_blocks: np.ndarray  # p x n x n, entry i is O_i^T O_i
    block_norms_sq: np.ndarray  # squared spectral norm of each O_i
    _sparse_obs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _checks: _CheckMemo = field(default_factory=_CheckMemo, init=False, repr=False, compare=False)
    _solve_facts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def p(self) -> int:
        return self.blocks.shape[0]

    @property
    def n(self) -> int:
        return self.blocks.shape[2]

    @property
    def tau(self) -> int:
        return self.blocks.shape[1]


@dataclass(frozen=True, eq=False)
class StackedWindow:
    """Input-compensated stacked outputs Y_i (one length-tau vector per sensor)."""

    blocks: np.ndarray  # p x tau, row i is Y_i

    def nonfinite_sensors(self) -> list:
        """Sensors whose row's squared norm is not finite (a NaN or +-inf
        reading, or one whose square overflows) or exceeds the largest float
        over 4p: the other rows' squares then sum, with a check's residual,
        to a finite number."""
        limit = sys.float_info.max / (4 * len(self.blocks))
        flat = self.blocks.reshape(-1)
        with np.errstate(over="ignore", invalid="ignore"):
            if flat.dot(flat) <= limit:
                return []
            row_sq = (self.blocks * self.blocks).sum(axis=1)
            return np.flatnonzero(~(row_sq <= limit)).tolist()  # NaN rows too


def require_fit(model: SystemModel, stack: ObservabilityStack, window: StackedWindow) -> None:
    """Raise ``ValueError`` unless the window's blocks are (p, tau), with the
    model's p and tau, and the stack is ``build_observability(model)`` or has
    its blocks (blocks of another shape are not its blocks)."""
    p, tau = model.p, model.tau
    if window.blocks.shape != (p, tau):
        raise ValueError(
            f"window blocks {window.blocks.shape} do not fit the model's (p, tau) = {(p, tau)}")
    own = build_observability(model)
    if stack is not own and not np.array_equal(stack.blocks, own.blocks):
        raise ValueError("stack was built from another model: its blocks are not this model's")


@dataclass(frozen=True)
class RobustnessConstants:
    """o_bar: worst squared pseudo-inverse norm; delta_s: worst attack leakage."""

    o_bar: float
    delta_s: float


def build_observability(model: SystemModel) -> ObservabilityStack:
    """The model's one stack of all O_i = [C_i; C_i A; ...; C_i A^(tau-1)]:
    built on the first call, kept on the model and returned afterwards.
    Raises ``GramOverflowError`` when the O_i's squared entries overflow."""
    if model._stack is not None:
        return model._stack
    p, n, tau = model.p, model.n, model.tau
    # layers[j] = C @ A^j; block i interleaves row i of each layer.
    layers = np.empty((tau, p, n))
    cur = model.C.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(tau):
            layers[j] = cur
            if j + 1 < tau:
                cur = cur @ model.A
        flat = layers.reshape(-1)
        total = flat.dot(flat)
    # The blocks' summed squared Frobenius norms bound every entry and
    # eigenvalue of each Gram and of every sum of Grams, so the analysis and
    # the checks only ever sum finite ones.
    if not math.isfinite(total):
        raise GramOverflowError(
            f"the squared entries of the model's observability blocks sum to {total}: "
            "its Grams overflow a float64; rescale A or C")
    blocks = np.ascontiguousarray(layers.transpose(1, 0, 2))
    blocks.setflags(write=False)
    sv = np.linalg.svd(blocks, compute_uv=False)
    kdims = n - _nonzero(sv, max(tau, n)).sum(axis=1)
    norms_sq = sv[:, 0] ** 2
    grams = blocks.transpose(0, 2, 1) @ blocks
    for arr in (kdims, grams, norms_sq):
        arr.setflags(write=False)
    stack = ObservabilityStack(
        blocks=blocks,
        block_kernel_dims=kdims,
        gram_blocks=grams,
        block_norms_sq=norms_sq,
    )
    object.__setattr__(model, "_stack", stack)
    return stack


def simulate_window(model: SystemModel, x0, inputs) -> np.ndarray:
    """Noise-free outputs ``C x_j`` (tau x p) of a window that starts in state
    ``x0``, with ``x_(j+1) = A x_j + B u_j`` for the rows ``u_j`` of
    ``inputs``; the final input is never used."""
    outputs = np.zeros((model.tau, model.p))
    x = x0
    for j in range(model.tau):
        outputs[j] = model.C @ x
        if j + 1 < model.tau:
            x = model.A @ x + model.B @ inputs[j]
    return outputs


_FLOAT = np.dtype(float)


def _as_rows(value) -> np.ndarray:
    """``np.atleast_2d(np.asarray(value, dtype=float))``, without the second
    call for a value that already has two axes."""
    arr = np.asarray(value, dtype=float)
    return arr if arr.ndim >= 2 else np.atleast_2d(arr)


def stack_window(model: SystemModel, outputs, inputs) -> StackedWindow:
    """Stack a tau-window of raw outputs, subtracting the known-input response.

    ``outputs`` is tau x p, ``inputs`` is tau x m, both oldest sample first.
    The final input only pads the window (the response of sample j depends on
    inputs strictly before j) and never enters the compensation.
    """
    outputs = _as_rows(outputs)
    inputs = _as_rows(inputs)
    tau, p, m = model.tau, model.p, model.m
    if outputs.shape != (tau, p):
        raise ValueError(f"expected {tau} output samples of width {p}, got {outputs.shape}")
    if inputs.shape != (tau, m):
        raise ValueError(f"expected {tau} input samples of width {m}, got {inputs.shape}")
    compensated = outputs - simulate_window(model, np.zeros(model.n), inputs)
    blocks = np.ascontiguousarray(compensated.T)
    blocks.setflags(write=False)
    return StackedWindow(blocks=blocks)


def roll_forward(model: SystemModel, x_delayed, inputs) -> np.ndarray:
    """Propagate a window-start state to the current time through tau-1 inputs,
    oldest first."""
    x = np.asarray(x_delayed, dtype=float).reshape(model.n)
    shape = (model.tau - 1, model.m)
    # a float array of that shape is what _as_rows would return unchanged
    if not (type(inputs) is np.ndarray and inputs.dtype == _FLOAT and inputs.shape == shape):
        inputs = _as_rows(inputs)
        if not inputs.size and inputs.shape != shape:
            inputs = np.zeros((0, model.m))
        if inputs.shape != shape:
            raise ValueError(
                f"expected {model.tau - 1} inputs of width {model.m}, got {inputs.shape}"
            )
    for u in inputs:
        x = model.A @ x + model.B @ u
    return x


def _check_cap(count: int, cap: int) -> None:
    if count > cap:
        raise SubsetCapError(count, cap)


def _subset_chunks(p: int, size: int, floats_each: int):
    """The size-subsets of range(p) in ``itertools.combinations`` order, as
    index rows; at most ``CHUNK_FLOATS // floats_each`` rows per chunk."""
    rows = max(1, CHUNK_FLOATS // floats_each)
    combos = itertools.combinations(range(p), size)
    left = math.comb(p, size)
    while left:
        m = min(rows, left)
        flat = itertools.chain.from_iterable(itertools.islice(combos, m))
        yield np.fromiter(flat, dtype=np.intp, count=m * size).reshape(m, size)
        left -= m


def _cheapest_partition(p: int, s: int, need: int) -> int | None:
    """The number of parts b of the cheapest partition proof of level s (see
    ``check_sparse_observability``), or None where no partition can prove it:
    the smallest b in (s, p) whose smallest union of b - s parts, which leaves
    out the s largest parts, holds at least ``need`` sensors.  It also has
    the fewest unions, since C(b, b - s) = C(b, s) grows with b."""
    for b in range(s + 1, p if s else 0):  # at s = 0 each union is range(p)
        q, r = divmod(p, b)
        if p - s * q - min(s, r) >= need:
            return b
    return None


def _level_plans(model: SystemModel, s: int, subset_cap: int) -> list:
    """The part counts b of the proofs ``check_sparse_observability`` may try
    for level s, each examining C(b, s) sets within ``subset_cap``: the
    cheapest partition's, then the enumeration's (b = p).  Raises
    ``SubsetCapError`` when neither fits, by arithmetic alone."""
    p = model.p
    partition = _cheapest_partition(p, s, -(-model.n // model.tau))
    plans = [b for b in (partition, p) if b is not None and math.comb(b, s) <= subset_cap]
    if not plans:
        raise SubsetCapError(math.comb(p if partition is None else partition, s), subset_cap)
    return plans


def _o_bar_count(p: int, min_card: int) -> int:
    """The sensor sets ``compute_o_bar`` examines: every size from min_card."""
    return sum(math.comb(p, k) for k in range(min_card, p + 1))


def _delta_s_count(p: int, s_bar: int, surface: int) -> int:
    """The (I, Gamma) pairs ``compute_delta_s``'s cap counts, with ``surface``
    attackable sensors: each I of size max(p - s_bar, 1) or more, times the
    non-empty sets of at most s_bar of min(|I|, surface) sensors (at least
    one)."""
    count = 0
    for size in range(max(p - s_bar, 1), p + 1):
        gammas = sum(math.comb(min(size, surface), g) for g in range(1, s_bar + 1))
        count += math.comb(p, size) * max(gammas, 1)
    return count


def _union_chunks(p: int, b: int, t: int, floats_each: int):
    """The unions of t of the b parts that split range(p) in index order
    (``np.array_split``'s sizes, the first p % b parts one sensor longer), as
    sorted index rows, one chunk per union length in each chunk of the parts'
    t-combinations in ``itertools.combinations`` order; ``floats_each``
    floats per sensor.  With b = p they are ``_subset_chunks(p, t, ...)``."""
    width = -(-p // b)
    padded = np.full((b, width), -1, dtype=np.intp)
    for i, part in enumerate(np.array_split(np.arange(p), b)):
        padded[i, :len(part)] = part
    for combos in _subset_chunks(b, t, t * width * floats_each):
        rows = padded[combos].reshape(len(combos), t * width)
        kept = rows >= 0
        lengths = kept.sum(axis=1)
        for length in sorted(set(lengths.tolist())):
            same = lengths == length
            yield rows[same][kept[same]].reshape(-1, length)


def _gram_sums(grams: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``sum(grams[i] for i in row)`` for each row of ``idx``, added left to
    right from zero as that sum does."""
    total = np.zeros(idx.shape[:1] + grams.shape[1:])
    for col in idx.T:
        total += grams[col]
    return total


def _all_full_rank(stack: ObservabilityStack, idx: np.ndarray) -> bool:
    """Whether O_K has rank n for every sensor set K, a row of ``idx``: the
    eigenvalue screen of ``check_sparse_observability`` clears what it can,
    and the SVD rule decides the rest."""
    n = stack.n
    lam_min = np.linalg.eigvalsh(_gram_sums(stack.gram_blocks, idx))[:, 0]
    unclear = ~(lam_min > SCREEN_RTOL * stack.block_norms_sq[idx].sum(axis=1))
    if not unclear.any():
        return True
    rows = idx.shape[1] * stack.tau
    sv = np.linalg.svd(stack.blocks[idx[unclear]].reshape(-1, rows, n), compute_uv=False)
    return bool((_nonzero(sv, max(rows, n)).sum(axis=1) >= n).all())


def check_sparse_observability(
    model: SystemModel,
    s: int,
    *,
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> bool:
    """True iff the system stays observable after removing any s sensors.

    The check first tries to prove the level from a partition of the sensors
    (Chong, Wakaiki and Hespanha, ACC 2015).  Split range(p) into b parts in
    index order, of sizes floor(p/b) and ceil(p/b).  Removing s sensors
    touches at most s parts, so every kept set contains the union of some
    t = b - s untouched parts; if every such union has rank n, so does every
    kept set, and C(b, s) rank decisions prove the level.  The partition
    taken is the cheapest: the smallest b in (s, p) whose smallest t-union
    holds at least ceil(n / tau) sensors (a smaller union has fewer rows than
    states), which also has the fewest unions.  When it does not prove the
    level, the check enumerates all C(p, s) kept sets, the singleton
    partition b = p, in chunks, stopping at the first chunk that holds a
    rank-deficient set; only the enumeration refutes a level.

    ``subset_cap`` bounds the sets one call examines.  ``SubsetCapError`` is
    raised, by arithmetic alone, when neither the cheapest partition's
    unions nor the C(p, s) kept sets fit it; a partition that fits but fails
    falls through to the enumeration if that fits, and raises otherwise.
    ``s`` and ``subset_cap`` must be whole numbers, the cap not negative.

    Each set K, a union or a kept set, is first screened on its summed Gram
    G_K = O_K^T O_K.  With S = sum of ``block_norms_sq[i]`` over K,
    sigma_max(O_K)^2 <= S.  Rounding in forming and summing the blocks' Grams and in ``eigvalsh``
    moves the computed eigenvalues of G_K by at most a small multiple of
    (|K| + tau + n) u S, with u = 2^-53: under 1e-12 S for any set that fits
    in memory.  So a set whose computed smallest eigenvalue exceeds
    ``SCREEN_RTOL`` S has sigma_min(O_K) / sigma_max(O_K) above about
    sqrt(SCREEN_RTOL) = 1e-4.  ``_zero_tol`` counts singular values at or
    below dim * sigma_max * 1e-12 as zero, and the SVD's own error is a small
    multiple of dim u sigma_max; neither comes near 1e-4 sigma_max, so the
    SVD rule gives such a set rank n too, and the screen clears it.  Only
    the sets it does not clear get an SVD, so the answer is the SVD rule's.

    The model's stack (``build_observability``) remembers the answers, and
    reads them monotonically: a proven level k answers every s <= k, since each kept
    set of a lower level contains a kept set of level k and adding rows
    never lowers the rank, and a refuted level k answers every s >= k.  The
    memo, like the partition's "a kept set containing a full-rank union has
    full rank", follows exact arithmetic: a direct enumeration could rule
    otherwise only on a set whose smallest singular value sits within the
    ``_zero_tol`` band, a band that grows with the set.  The subset cap is
    checked before the memo is read.
    """
    p, n = model.p, model.n
    s = whole_number(s, "s", 0, p)
    subset_cap = whole_number(subset_cap, "subset_cap", 0)
    plans = _level_plans(model, s, subset_cap)
    stack = build_observability(model)
    for level, held in stack._sparse_obs.items():
        if s <= level if held else s >= level:
            return held
    floats_each = stack.tau * n
    for b in plans:
        if s < p and all(_all_full_rank(stack, idx)
                         for idx in _union_chunks(p, b, b - s, floats_each)):
            stack._sparse_obs[s] = True
            return True
    if plans[-1] != p:
        raise SubsetCapError(math.comb(p, s), subset_cap)
    stack._sparse_obs[s] = False
    return False


def compute_o_bar(
    stack: ObservabilityStack,
    min_card: int,
    *,
    subset_cap: int = DEFAULT_SUBSET_CAP,
    full_rank_only: bool = False,
) -> float:
    """Max over sensor subsets I with |I| >= min_card of ||pinv(O_I)||^2.

    ``full_rank_only`` skips subsets whose stack is rank-deficient; useful when
    the model is not sparse-observable enough for every subset to pin the state.
    """
    p, n = stack.p, stack.n
    min_card = whole_number(min_card, "min_card", 1, p)
    subset_cap = whole_number(subset_cap, "subset_cap", 0)
    _check_cap(_o_bar_count(p, min_card), subset_cap)
    worst = 0.0
    for size in range(min_card, p + 1):
        rows = size * stack.tau
        for idx in _subset_chunks(p, size, rows * n):
            sv = np.linalg.svd(stack.blocks[idx].reshape(len(idx), rows, n), compute_uv=False)
            nonzero = _nonzero(sv, max(rows, n))
            if full_rank_only:
                nonzero &= (nonzero.sum(axis=1) >= n)[:, None]
            # ||pinv(O_I)|| is 1 / the smallest nonzero singular value; a zero
            # stack has a zero pinv and contributes nothing
            smallest = np.min(sv, where=nonzero, initial=np.inf)
            if smallest < np.inf:
                worst = max(worst, 1.0 / float(smallest) ** 2)
    return worst


def _leakage_max(m: np.ndarray, worst: float) -> float:
    """max(worst, the largest eigenvalue ``eigvalsh`` computes for each matrix
    of ``m``), skipping, in a batch of at least ``BOUND_MIN_PAIRS``, every
    matrix whose trace bound (see ``compute_delta_s``) cannot exceed it."""
    if len(m) >= BOUND_MIN_PAIRS:
        n = m.shape[-1]
        flat = m.reshape(len(m), n * n)
        diag = flat[:, :: n + 1]
        mean = diag.sum(axis=1) / n
        dev = diag - mean[:, None]
        # n times the variance of the eigenvalues of the mirrored lower triangle
        spread_sq = (dev * dev).sum(axis=1) + (flat * flat) @ (2 * np.tri(n, k=-1)).ravel()
        spread = np.sqrt((n - 1) / n * spread_sq)
        slack = BOUND_SLACK * (np.abs(mean) + spread)
        floor = np.fmax(worst, np.fmax.reduce(diag.max(axis=1) - slack))
        m = m[~(mean + spread + slack < floor)]
        if not len(m):
            return worst
    # fmax passes over NaN, as max(worst, nan) does
    return max(worst, float(np.fmax.reduce(np.linalg.eigvalsh(m)[:, -1])))


def compute_delta_s(
    stack: ObservabilityStack,
    s_bar: int,
    *,
    attackable=None,
    subset_cap: int = DEFAULT_SUBSET_CAP,
    skip_singular_sets: bool = False,
) -> float:
    """Worst-case spectral leakage of an attacked subset's Gram matrix.

    Maximizes lambda_max{G_Gamma G_I^{-1}} over Gamma strictly inside I with
    |Gamma| <= s_bar and |I| >= p - s_bar.  ``attackable`` restricts Gamma to a
    known attack surface; an entry that is not an integer in range(p) raises
    ``ValueError``.  A G_I too ill-conditioned to invert raises
    ``GramSingularError`` unless ``skip_singular_sets`` is set; that test is
    stricter than the SVD rank rule of ``check_sparse_observability``, so it
    can refuse a set that the check counts as full rank.

    Only the dominating pairs are evaluated.  The leakage grows with Gamma
    (G_Gamma does), so each I takes only its Gammas of the largest size,
    min(s_bar, |I & surface|, |I| - 1): every smaller one lies inside one of
    them.  It shrinks as I grows (G_I does), so once no Gram of a size k is
    singular, and so none larger either, and every Gamma fits strictly
    inside a set of size k (min(s_bar, |surface|) <= k - 1), each larger I is
    dominated by a set of size k inside it and the enumeration stops after
    size k: on an s_bar-sparse observable model with p > 2 s_bar, after the
    smallest size, max(p - s_bar, 1).  A stacked LAPACK call gives each
    matrix the bits of a lone call, so every value kept has the bits it
    would have in the full enumeration, and so has the maximum wherever no
    pruned pair ties with it in exact arithmetic.  Pairs tie at 1 when
    delta_s is 1 (some I minus Gamma leaves a direction unseen); rounding
    then picks among them, and the last bits can differ from the full
    enumeration's.

    Of the dominating pairs, ``eigvalsh`` sees only those whose leakage can
    beat the running maximum.  It reads the lower triangle of each matrix
    W G_Gamma W, with W = G_I^{-1/2}, so the bounds are taken on the
    symmetric matrix S that triangle makes when mirrored, whatever rounding
    left in the upper one.  With mean = tr(S) / n and spread =
    sqrt((n - 1) / n * (||S||_F^2 - n mean^2)), every eigenvalue of a
    symmetric S lies within mean +- spread (Wolkowicz and Styan, "Bounds for
    eigenvalues using traces", Linear Algebra Appl. 29, 1980), so ||S||_2 <=
    |mean| + spread, and lambda_max(S) >= max_i S_ii.  The spread is summed
    from the diagonal's deviations from the mean and the off-diagonal
    squares, all non-negative, so no cancellation under the square root
    inflates its error.  ``eigvalsh`` and the computed bounds each err by a
    small multiple of n^2 u ||S||_2 at most, with u = 2^-53: far below the
    margin e = ``BOUND_SLACK`` (|mean| + spread).  A pair is skipped when
    mean + spread + e falls below the running maximum or below the largest
    max_i S_ii - e of its batch.  Its computed eigenvalue then lies strictly
    below the running maximum or below that of the pair holding that
    diagonal entry, which is kept unless it too lies below the running
    maximum; so the maximum is a kept pair's ``eigvalsh`` value, with the
    same bits.  A pair whose bounds are NaN is kept, and a batch of fewer
    than ``BOUND_MIN_PAIRS`` pairs goes straight to ``eigvalsh``.
    """
    p, n = stack.p, stack.n
    s_bar = whole_number(s_bar, "s_bar", 0, p)
    subset_cap = whole_number(subset_cap, "subset_cap", 0)
    attack_set = frozenset(range(p) if attackable is None else attackable)
    for i in attack_set:
        if not hasattr(i, "__index__") or not 0 <= operator.index(i) < p:
            raise ValueError(f"attackable entry {i!r} is not a sensor in range({p})")
    min_i = p - s_bar
    _check_cap(_delta_s_count(p, s_bar, len(attack_set)), subset_cap)

    grams = stack.gram_blocks
    surface = [i for i in range(p) if i in attack_set]
    # the Gammas of each size g = 1, 2, ..., as index rows and summed Grams
    gamma_sets = []
    for g in range(1, min(s_bar, len(surface)) + 1):
        rows = np.array(list(itertools.combinations(surface, g)), dtype=np.intp)
        gamma_sets.append((rows, _gram_sums(grams, rows)))
    floats_each = (1 + sum(len(rows) for rows, _ in gamma_sets)) * n * n
    worst = 0.0  # the empty Gamma contributes zero
    for size in range(max(min_i, 1), p + 1):
        any_singular = False
        for idx in _subset_chunks(p, size, floats_each):
            eigvals, eigvecs = np.linalg.eigh(_gram_sums(grams, idx))
            tol = _zero_tol(np.maximum(eigvals[:, -1], 0.0), n)
            singular = eigvals[:, 0] <= tol
            if singular.any():
                if not skip_singular_sets:
                    first = tuple(idx[np.argmax(singular)].tolist())
                    raise GramSingularError(
                        f"Gram matrix of sensor set {first} is too ill-conditioned to "
                        f"invert: its smallest eigenvalue is at most n * RANK_RTOL "
                        f"times its largest"
                    )
                any_singular = True
                regular = ~singular
                idx, eigvals, eigvecs = idx[regular], eigvals[regular], eigvecs[regular]
            member = np.zeros((len(idx), p), dtype=bool)
            member[np.arange(len(idx))[:, None], idx] = True
            # each I's largest Gamma size, strictly inside I
            top = np.minimum(member[:, surface].sum(axis=1), min(s_bar, size - 1))
            inv_sqrt = None
            for g, (rows, sums) in enumerate(gamma_sets[: size - 1], 1):
                owner, gamma = np.nonzero(member[:, rows].all(axis=2) & (top == g)[:, None])
                if not len(owner):
                    continue
                if inv_sqrt is None:
                    scale = np.zeros(eigvecs.shape)  # diagonal matrices of 1/sqrt(eigvals)
                    scale.reshape(len(idx), n * n)[:, :: n + 1] = 1.0 / np.sqrt(eigvals)
                    inv_sqrt = eigvecs @ scale @ eigvecs.transpose(0, 2, 1)
                w = inv_sqrt[owner]
                worst = _leakage_max(w @ sums[gamma] @ w, worst)
        if not any_singular and min(s_bar, len(surface)) < size:
            break
    return worst


def spectral_helper_check(a_psd, b_pd) -> float:
    """lambda_max{A (A+B)^{-1}} for symmetric PSD A and PD B; strictly < 1."""
    a = np.asarray(a_psd, dtype=float)
    b = np.asarray(b_pd, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("A and B must be square matrices of the same dimension")
    if not np.allclose(a, a.T, atol=1e-10) or not np.allclose(b, b.T, atol=1e-10):
        raise ValueError("A and B must be symmetric")
    eig_a = np.linalg.eigvalsh(a)
    eig_b = np.linalg.eigvalsh(b)
    scale_a = max(abs(eig_a[0]), abs(eig_a[-1]), 1.0)
    if eig_a[0] < -1e-10 * scale_a:
        raise ValueError("A must be positive semidefinite")
    if eig_b[0] <= 0:
        raise ValueError("B must be positive definite")
    total = a + b
    eigvals, eigvecs = np.linalg.eigh(total)
    inv_sqrt = eigvecs @ np.diag(1.0 / np.sqrt(eigvals)) @ eigvecs.T
    return float(np.linalg.eigvalsh(inv_sqrt @ a @ inv_sqrt)[-1])
