"""Pseudo-Boolean search over the attack-indicator vector b.

The constraint store holds one global cardinality budget (sum b_i <= s_bar),
learned at-least-one sets, and learned all-zero sets.  Every at-least-one
constraint must be hit by the support of b, so solving is a budget-limited
hitting-set search: greedy descent ordered by suspicion weights, complete via
backtracking.  Weights come from decayed theory-side bumps plus a sticky
preference for the previously returned support (phase saving), so sensors that
keep showing up in conflicts get flagged first and stay flagged; that is what
makes the certificate heuristics pay off.  Found supports are padded up to the
budget with the most-suspected sensors, mirroring how a general-purpose solver
returns non-minimal models.  With no constraints the all-zero assignment is
returned, and everything is deterministic given the constraint store and the
solve history.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

# Multiplier applied to all suspicion weights when a new constraint arrives;
# recent conflicts dominate older ones.
WEIGHT_DECAY = 0.8

# Ordering bonus for members of the previously returned support (phase
# saving): once a sensor is flagged it stays preferred until the constraints
# or the budget force it out.
PHASE_BONUS = 1e6

# Search nodes one solve may visit before raising SearchBudgetError.
MAX_SEARCH_NODES = 20_000_000


class ConstraintKind(str, Enum):
    AT_MOST_K = "at_most_k"
    AT_LEAST_ONE = "at_least_one"
    ALL_ZERO = "all_zero"


@dataclass(frozen=True)
class PBConstraint:
    kind: ConstraintKind
    sensors: frozenset
    k: int | None = None


@dataclass(frozen=True)
class SatAssignment:
    b: np.ndarray
    support: tuple


@dataclass
class SatStats:
    solve_calls: int = 0
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0


class SearchBudgetError(RuntimeError):
    """The hitting-set search exceeded its node budget (diagnostic guard)."""


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SatInstance:
    """Single-owner mutable constraint store plus solver state."""

    def __init__(self, p: int, s_bar: int):
        if not 0 <= s_bar <= p:
            raise ValueError(f"s_bar must be in [0, {p}], got {s_bar}")
        self.p = p
        self.s_bar = s_bar
        self.stats = SatStats()
        self.weights = np.zeros(p)
        self._phase = 0                        # mask of the last support
        self._masks: list[int] = []            # effective (zero-stripped) sets
        self._zero_mask = 0
        self._contradiction = False
        self._table = np.zeros((64, p), dtype=bool)
        self._sizes = np.zeros(64, dtype=np.int64)
        self._count = 0

    # -- constraint store ---------------------------------------------------

    def add_constraint(self, c: PBConstraint) -> None:
        if any(not 0 <= i < self.p for i in c.sensors):
            raise ValueError(f"sensor index out of range in {sorted(c.sensors)}")
        if c.kind is ConstraintKind.AT_MOST_K:
            raise ValueError("the cardinality budget is fixed at construction")
        if c.kind is ConstraintKind.ALL_ZERO:
            new_zero = 0
            for i in c.sensors:
                new_zero |= 1 << i
            self._zero_mask |= new_zero
            self.weights[sorted(c.sensors)] = 0.0
            self._restrip()
        elif c.kind is ConstraintKind.AT_LEAST_ONE:
            mask = 0
            for i in c.sensors:
                mask |= 1 << i
            self.weights *= WEIGHT_DECAY
            self._append(mask & ~self._zero_mask)
        else:
            raise ValueError(f"unknown constraint kind {c.kind}")

    def bump(self, sensor: int, amount: float = 2.0) -> None:
        """Extra suspicion weight for one sensor (theory-guided branching hint)."""
        if not 0 <= sensor < self.p:
            raise ValueError(f"sensor index out of range: {sensor}")
        if not (self._zero_mask >> sensor) & 1:
            self.weights[sensor] += amount

    def _append(self, free_mask: int) -> None:
        if free_mask == 0:
            self._contradiction = True
        if self._count == self._table.shape[0]:
            self._table = np.concatenate([self._table, np.zeros_like(self._table)])
            self._sizes = np.concatenate([self._sizes, np.zeros_like(self._sizes)])
        row = self._count
        for v in _bits(free_mask):
            self._table[row, v] = True
        self._sizes[row] = free_mask.bit_count()
        self._masks.append(free_mask)
        self._count += 1

    def _restrip(self) -> None:
        """Re-apply the zero fixes to every stored set (rare path)."""
        masks = self._masks
        self._masks = []
        self._count = 0
        self._table[:] = False
        self._contradiction = False
        for mask in masks:
            self._append(mask & ~self._zero_mask)

    # -- search -------------------------------------------------------------

    def solve(self) -> SatAssignment | None:
        """Irredundant support hitting every learned set (greedy by suspicion
        weight, complete via backtracking), padded with suspected sensors up
        to the budget; None when no support fits the budget."""
        self.stats.solve_calls += 1
        if self._contradiction:
            return None
        unhit0 = np.arange(self._count, dtype=np.int64)
        self._nodes_left = MAX_SEARCH_NODES
        found = self._dfs((), unhit0, 0, self.s_bar)
        if found is None:
            return None
        support = set(found)
        if len(support) < self.s_bar:
            candidates = sorted(range(self.p), key=lambda v: (-self._rank(v), v))
            for v in candidates:
                if len(support) >= self.s_bar:
                    break
                if self._rank(v) <= 0.0:
                    break  # only sensors implicated by some constraint
                if v in support or (self._zero_mask >> v) & 1:
                    continue
                support.add(v)
        self._phase = 0
        for v in support:
            self._phase |= 1 << v
        b = np.zeros(self.p, dtype=bool)
        b[sorted(support)] = True
        return SatAssignment(b=b, support=tuple(sorted(support)))

    def _rank(self, v: int) -> float:
        bonus = PHASE_BONUS if (self._phase >> v) & 1 else 0.0
        return bonus + self.weights[v]

    def _order(self, mask: int) -> list:
        members = list(_bits(mask))
        members.sort(key=lambda v: (-self._rank(v), v))
        return members

    def _dfs(self, chosen: tuple, unhit: np.ndarray, banned: int, limit: int):
        """Depth-limited hitting-set search; deterministic branching (smallest
        set first, most-suspected member first)."""
        if self._nodes_left <= 0:
            raise SearchBudgetError(f"exceeded {MAX_SEARCH_NODES} search nodes")
        self._nodes_left -= 1
        if unhit.size == 0:
            return chosen
        depth = len(chosen)
        if depth >= limit:
            self.stats.conflicts += 1
            return None
        if depth == limit - 1:
            # exactly one more pick allowed: it must hit every remaining set
            inter = ~banned
            for r in unhit:
                inter &= self._masks[r]
                if inter == 0:
                    self.stats.conflicts += 1
                    return None
            self.stats.propagations += 1
            return chosen + (self._order(inter)[0],)
        r_sel = int(unhit[np.argmin(self._sizes[unhit])])
        free = self._masks[r_sel] & ~banned
        if free == 0:
            self.stats.conflicts += 1
            return None
        col_block = self._table[unhit]
        for v in self._order(free):
            self.stats.decisions += 1
            child_unhit = unhit[~col_block[:, v]]
            found = self._dfs(chosen + (v,), child_unhit, banned, limit)
            if found is not None:
                return found
            banned |= 1 << v  # later branches must use a different member
        return None


def new_instance(p: int, s_bar: int) -> SatInstance:
    """Fresh instance holding only the cardinality budget."""
    return SatInstance(p, s_bar)
