"""Pseudo-Boolean search over the attack-indicator vector b.

The store holds one global cardinality budget (sum b_i <= s_bar) and learns
the theory side's certificates: every at-least-one-attacked set must be hit
by the support of b, and an all-unattacked set fixes its sensors to zero.  A
certificate's suspect is its bump: learning the certificate adds suspicion
weight to that sensor.  Solving is a budget-limited hitting-set search:
greedy descent ordered by suspicion weights, complete via backtracking.
Weights come from decayed bumps plus a sticky preference for the previously
returned support (phase saving), so sensors that keep showing up in conflicts
get flagged first and stay flagged; that is what makes the certificate
heuristics pay off.  Found supports are padded up to the budget with the
most-suspected sensors, mirroring how a general-purpose solver returns
non-minimal models.  With nothing learned the all-zero assignment is
returned, and everything is deterministic given the learned certificates and
the solve history.

The store is one list of int bitmasks: each at-least-one-attacked set with
the unattacked sensors stripped (an empty mask is a contradiction).  Weights
and phase change only between solves, so each solve ranks the sensors once;
every search node tries its set's members in that order, and the padding
pass walks the same order.
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


class CertificateKind(str, Enum):
    AT_LEAST_ONE_ATTACKED = "at_least_one_attacked"
    ALL_UNATTACKED = "all_unattacked"


@dataclass(frozen=True)
class Certificate:
    kind: CertificateKind
    sensors: frozenset
    # member the theory side considers most suspicious (the one whose
    # hyperplane broke the intersection); a branching hint, not a constraint
    suspect: int | None = None

    def __str__(self):
        names = ",".join(str(i) for i in sorted(self.sensors))
        return f"{self.kind.value}({names})"


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
        self._masks: list[int] = []            # at-least-one sets, zero fixes stripped
        self._zero_mask = 0

    # -- constraint store ---------------------------------------------------

    def add_constraint(self, cert: Certificate) -> None:
        """Learn a certificate, then bump its suspect when it names one."""
        if any(not 0 <= i < self.p for i in cert.sensors):
            raise ValueError(f"sensor index out of range in {sorted(cert.sensors)}")
        mask = 0
        for i in cert.sensors:
            mask |= 1 << i
        if cert.kind is CertificateKind.ALL_UNATTACKED:
            self._zero_mask |= mask
            self.weights[sorted(cert.sensors)] = 0.0
            self._masks = [m & ~self._zero_mask for m in self._masks]
        else:
            self.weights *= WEIGHT_DECAY
            self._masks.append(mask & ~self._zero_mask)
        if cert.suspect is not None:
            self.bump(cert.suspect)

    def bump(self, sensor: int, amount: float = 2.0) -> None:
        """Extra suspicion weight for one sensor (theory-guided branching hint)."""
        if not 0 <= sensor < self.p:
            raise ValueError(f"sensor index out of range: {sensor}")
        if not (self._zero_mask >> sensor) & 1:
            self.weights[sensor] += amount

    # -- search -------------------------------------------------------------

    def solve(self) -> SatAssignment | None:
        """Irredundant support hitting every learned set (greedy by suspicion
        weight, complete via backtracking), padded with suspected sensors up
        to the budget; None when no support fits the budget."""
        self.stats.solve_calls += 1
        if 0 in self._masks:
            return None
        rank = [
            w + PHASE_BONUS if (self._phase >> v) & 1 else w
            for v, w in enumerate(self.weights.tolist())
        ]
        # most suspected first, ascending index on ties (sorted is stable);
        # weights and phase only change between solves
        order = sorted(range(self.p), key=rank.__getitem__, reverse=True)
        self._ranked = [(v, 1 << v) for v in order]
        self._nodes_left = MAX_SEARCH_NODES
        found = self._dfs((), self._masks, 0, self.s_bar)
        if found is None:
            return None
        support = set(found)
        for v, bit in self._ranked:
            if len(support) >= self.s_bar or rank[v] <= 0.0:
                break  # pad only with sensors implicated by some constraint
            if v not in support and not self._zero_mask & bit:
                support.add(v)
        self._phase = sum(1 << v for v in support)
        b = np.zeros(self.p, dtype=bool)
        b[sorted(support)] = True
        return SatAssignment(b=b, support=tuple(sorted(support)))

    def _dfs(self, chosen: tuple, unhit: list, banned: int, limit: int):
        """Depth-limited hitting-set search; deterministic branching (smallest
        set first, most-suspected member first)."""
        if self._nodes_left <= 0:
            raise SearchBudgetError(f"exceeded {MAX_SEARCH_NODES} search nodes")
        self._nodes_left -= 1
        if not unhit:
            return chosen
        depth = len(chosen)
        if depth >= limit:
            self.stats.conflicts += 1
            return None
        if depth == limit - 1:
            # exactly one more pick allowed: it must hit every remaining set
            inter = ~banned
            for mask in unhit:
                inter &= mask
                if inter == 0:
                    self.stats.conflicts += 1
                    return None
            self.stats.propagations += 1
            return chosen + (next(v for v, bit in self._ranked if inter & bit),)
        free = min(unhit, key=int.bit_count) & ~banned
        if free == 0:
            self.stats.conflicts += 1
            return None
        for v, bit in self._ranked:
            if not free & bit:
                continue
            self.stats.decisions += 1
            child_unhit = [mask for mask in unhit if not mask & bit]
            found = self._dfs(chosen + (v,), child_unhit, banned, limit)
            if found is not None:
                return found
            banned |= bit  # later branches must use a different member
        return None


def new_instance(p: int, s_bar: int) -> SatInstance:
    """Fresh instance holding only the cardinality budget."""
    return SatInstance(p, s_bar)
