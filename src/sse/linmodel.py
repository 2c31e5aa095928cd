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
import json
import math
from dataclasses import dataclass, field

import numpy as np

# Subset enumerations refuse beyond this many candidates unless overridden.
DEFAULT_SUBSET_CAP = 10**6

# Singular values below max(dim) * sigma_max * RANK_RTOL count as zero.
RANK_RTOL = 1e-12


class SubsetCapError(RuntimeError):
    """A combinatorial enumeration would exceed the configured subset cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"enumeration needs {count} subsets, cap is {cap}")
        self.count = count
        self.cap = cap


class GramSingularError(RuntimeError):
    """A sensor-subset Gram matrix is singular where observability requires
    it to be positive definite."""


def numerical_rank(m: np.ndarray) -> int:
    """Rank with singular values below max(dim)*sigma_max*1e-12 treated as zero."""
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    tol = max(m.shape) * s[0] * RANK_RTOL
    return int(np.count_nonzero(s > tol))


def _as_matrix(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


class JsonFile:
    """``save``/``load`` for a type with ``to_json_dict``/``from_json_dict``;
    ``json_kind`` names the document in the error for a non-object file."""

    json_kind = "document"

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{cls.json_kind} document must be a JSON object")
        return cls.from_json_dict(doc)


@dataclass(frozen=True, eq=False)
class SystemModel(JsonFile):
    """Discrete-time plant x+ = A x + B u, y = C x, with a window length,
    an attack budget, and per-sensor noise norm bounds over the window."""

    json_kind = "model"

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    tau: int
    s_bar: int
    noise_bounds: np.ndarray

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
        if not 1 <= int(self.tau) <= n:
            raise ValueError(f"tau must satisfy 1 <= tau <= n={n}, got {self.tau}")
        object.__setattr__(self, "tau", int(self.tau))
        p = self.C.shape[0]
        if not 0 <= int(self.s_bar) <= p:
            raise ValueError(f"s_bar must satisfy 0 <= s_bar <= p={p}, got {self.s_bar}")
        object.__setattr__(self, "s_bar", int(self.s_bar))
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

    @property
    def noise_norm_sq(self) -> float:
        """Squared norm bound of the full stacked noise vector."""
        return float(np.dot(self.noise_bounds, self.noise_bounds))

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
        missing = [k for k in ("A", "B", "C", "tau", "s_bar", "noise_bounds") if k not in doc]
        if missing:
            raise ValueError(f"model document missing fields: {', '.join(missing)}")
        return cls(
            A=doc["A"],
            B=doc["B"],
            C=doc["C"],
            tau=doc["tau"],
            s_bar=doc["s_bar"],
            noise_bounds=doc["noise_bounds"],
        )


@dataclass(frozen=True, eq=False)
class ObservabilityStack:
    """Per-sensor observability blocks O_i (tau x n), their kernel
    dimensions, squared spectral norms, and Gram matrices.

    Build it once per model and reuse it: it also remembers the answers of
    ``check_sparse_observability(model, s, stack=stack)`` by ``s``.
    """

    blocks: np.ndarray  # p x tau x n, entry i is O_i
    block_kernel_dims: np.ndarray
    gram_blocks: np.ndarray  # p x n x n, entry i is O_i^T O_i
    block_norms_sq: np.ndarray  # squared spectral norm of each O_i
    dead_block: bool  # some block_norms_sq entry is 0: that sensor sees nothing
    _sparse_obs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def p(self) -> int:
        return self.blocks.shape[0]

    @property
    def n(self) -> int:
        return self.blocks.shape[2]

    @property
    def tau(self) -> int:
        return self.blocks.shape[1]

    def rows(self, sensors) -> np.ndarray:
        """Stacked block rows for the given sensor indices, in the given order."""
        return self.blocks[list(sensors)].reshape(-1, self.n)


@dataclass(frozen=True, eq=False)
class StackedWindow:
    """Input-compensated stacked outputs Y_i (one length-tau vector per sensor)."""

    blocks: np.ndarray  # p x tau, row i is Y_i

    @property
    def p(self) -> int:
        return self.blocks.shape[0]

    def stacked(self, sensors) -> np.ndarray:
        return self.blocks[list(sensors)].reshape(-1)

    def nonfinite_sensors(self) -> list:
        """Sensors whose row has a non-finite squared norm: a NaN or +-inf
        reading, or one so large that its square overflows."""
        flat = self.blocks.reshape(-1)
        with np.errstate(over="ignore", invalid="ignore"):
            if math.isfinite(flat.dot(flat)):
                return []
            row_sq = (self.blocks * self.blocks).sum(axis=1)
        return np.flatnonzero(~np.isfinite(row_sq)).tolist()


@dataclass(frozen=True)
class RobustnessConstants:
    """o_bar: worst squared pseudo-inverse norm; delta_s: worst attack leakage."""

    o_bar: float
    delta_s: float


def build_observability(model: SystemModel) -> ObservabilityStack:
    """Construct all O_i = [C_i; C_i A; ...; C_i A^(tau-1)]."""
    p, n, tau = model.p, model.n, model.tau
    # layers[j] = C @ A^j; block i interleaves row i of each layer.
    layers = np.empty((tau, p, n))
    cur = model.C.copy()
    for j in range(tau):
        layers[j] = cur
        if j + 1 < tau:
            cur = cur @ model.A
    blocks = np.ascontiguousarray(layers.transpose(1, 0, 2))
    blocks.setflags(write=False)
    kdims = np.array([n - numerical_rank(b) for b in blocks], dtype=int)
    norms_sq = np.array(
        [np.linalg.svd(b, compute_uv=False)[0] if b.size else 0.0 for b in blocks]
    ) ** 2
    grams = np.stack([b.T @ b for b in blocks])
    for arr in (kdims, grams, norms_sq):
        arr.setflags(write=False)
    return ObservabilityStack(
        blocks=blocks,
        block_kernel_dims=kdims,
        gram_blocks=grams,
        block_norms_sq=norms_sq,
        dead_block=not bool((norms_sq > 0).all()),
    )


def stack_window(model: SystemModel, outputs, inputs) -> StackedWindow:
    """Stack a tau-window of raw outputs, subtracting the known-input response.

    ``outputs`` is tau x p, ``inputs`` is tau x m, both oldest sample first.
    The final input only pads the window (the response of sample j depends on
    inputs strictly before j) and never enters the compensation.
    """
    outputs = np.atleast_2d(np.asarray(outputs, dtype=float))
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    tau, p, m = model.tau, model.p, model.m
    if outputs.shape != (tau, p):
        raise ValueError(f"expected {tau} output samples of width {p}, got {outputs.shape}")
    if inputs.shape != (tau, m):
        raise ValueError(f"expected {tau} input samples of width {m}, got {inputs.shape}")
    # z_j = sum_{k<j} A^(j-1-k) B u_k, i.e. the zero-state response at step j.
    z = np.zeros(model.n)
    compensation = np.zeros((tau, p))
    for j in range(tau):
        compensation[j] = model.C @ z
        if j + 1 < tau:
            z = model.A @ z + model.B @ inputs[j]
    compensated = outputs - compensation
    blocks = np.ascontiguousarray(compensated.T)
    blocks.setflags(write=False)
    return StackedWindow(blocks=blocks)


def roll_forward(model: SystemModel, x_delayed, inputs) -> np.ndarray:
    """Propagate a window-start state to the current time through tau-1 inputs,
    oldest first."""
    x = np.asarray(x_delayed, dtype=float).reshape(model.n)
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float)) if np.size(inputs) else np.zeros((0, model.m))
    if inputs.shape != (model.tau - 1, model.m):
        raise ValueError(
            f"expected {model.tau - 1} inputs of width {model.m}, got {inputs.shape}"
        )
    for u in inputs:
        x = model.A @ x + model.B @ u
    return x


def _check_cap(count: int, cap: int) -> None:
    if count > cap:
        raise SubsetCapError(count, cap)


def check_sparse_observability(
    model: SystemModel,
    s: int,
    *,
    stack: ObservabilityStack | None = None,
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> bool:
    """True iff the system stays observable after removing any s sensors.

    Exhaustive over all C(p, s) removals; refuses above ``subset_cap``.  A
    given ``stack`` (the model's) remembers the answer, so each s is
    enumerated once per stack.
    """
    p, n = model.p, model.n
    if not 0 <= s <= p:
        raise ValueError(f"s must be in [0, {p}], got {s}")
    _check_cap(math.comb(p, s), subset_cap)
    if stack is None:
        stack = build_observability(model)
    elif s in stack._sparse_obs:
        return stack._sparse_obs[s]
    kept_sets = itertools.combinations(range(p), p - s)
    holds = s < p and all(numerical_rank(stack.rows(kept)) >= n for kept in kept_sets)
    stack._sparse_obs[s] = holds
    return holds


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
    if not 1 <= min_card <= p:
        raise ValueError(f"min_card must be in [1, {p}], got {min_card}")
    count = sum(math.comb(p, k) for k in range(min_card, p + 1))
    _check_cap(count, subset_cap)
    worst = 0.0
    for size in range(min_card, p + 1):
        for subset in itertools.combinations(range(p), size):
            sv = np.linalg.svd(stack.rows(subset), compute_uv=False)
            tol = max(size * stack.tau, n) * sv[0] * RANK_RTOL if sv[0] > 0 else 0.0
            positive = sv[sv > tol]
            if positive.size < n:
                if full_rank_only:
                    continue
                if positive.size == 0:
                    continue  # zero stack: pinv is zero, contributes nothing
            worst = max(worst, 1.0 / float(positive[-1]) ** 2)
    return worst


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
    known attack surface.  A singular G_I signals a violated observability
    precondition unless ``skip_singular_sets`` is set.
    """
    p = stack.p
    if not 0 <= s_bar <= p:
        raise ValueError(f"s_bar must be in [0, {p}], got {s_bar}")
    attack_set = frozenset(range(p)) if attackable is None else frozenset(attackable)
    min_i = p - s_bar
    count = 0
    for size in range(max(min_i, 1), p + 1):
        gammas = sum(
            math.comb(min(size, len(attack_set)), g) for g in range(1, s_bar + 1)
        )
        count += math.comb(p, size) * max(gammas, 1)
    _check_cap(count, subset_cap)

    grams = list(stack.gram_blocks)  # list items index faster than ndarray views
    worst = 0.0  # the empty Gamma contributes zero
    for size in range(max(min_i, 1), p + 1):
        for subset in itertools.combinations(range(p), size):
            g_total = sum(grams[i] for i in subset)
            eigvals, eigvecs = np.linalg.eigh(g_total)
            tol = max(eigvals[-1], 0.0) * stack.n * RANK_RTOL
            if eigvals[0] <= tol:
                if skip_singular_sets:
                    continue
                raise GramSingularError(
                    f"Gram matrix of sensor set {subset} is singular; the system "
                    f"is not sparse-observable enough for this enumeration"
                )
            inv_sqrt = eigvecs @ np.diag(1.0 / np.sqrt(eigvals)) @ eigvecs.T
            candidates = [i for i in subset if i in attack_set]
            for g_size in range(1, min(s_bar, len(candidates)) + 1):
                for gamma in itertools.combinations(candidates, g_size):
                    if g_size == size:
                        continue  # Gamma must be a strict subset of I
                    g_gamma = sum(grams[i] for i in gamma)
                    mid = inv_sqrt @ g_gamma @ inv_sqrt
                    lam = float(np.linalg.eigvalsh(mid)[-1])
                    worst = max(worst, lam)
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
