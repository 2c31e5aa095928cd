"""Pseudo-Boolean search over the attack support.

The store holds one global cardinality budget (|support| <= s_bar) and learns
the theory side's certificates: every at-least-one-attacked set must be hit
by the support, and an all-unattacked set fixes its sensors to zero.  A
certificate's suspect is its bump: learning the certificate adds suspicion
weight to that sensor.  Solving is a budget-limited hitting-set search:
greedy descent ordered by suspicion weights, complete via backtracking.
Weights come from decayed bumps plus a sticky preference for the previously
returned support (phase saving), so sensors that keep showing up in conflicts
get flagged first and stay flagged; that is what makes the certificate
heuristics pay off.  Found supports are padded up to the budget with the
most-suspected sensors, mirroring how a general-purpose solver returns
non-minimal models.  With nothing learned the empty support is returned,
and everything is deterministic given the learned certificates and the solve
history.

The store is one list of int bitmasks, the rows: each at-least-one-attacked
set exactly as it was learned, in the order it was learned.  A column index
over the rows serves the search: for each sensor, an int bitset of the
positions of the rows that hold it, and for each row size, an int bitset of
the positions of the rows of that size, where a row's size counts only its
members not fixed clean.  Learning a set appends a row and indexes it; an
all-unattacked set only adds its sensors to the clean mask, zeroes their
weights and rebuilds the size index.  Every search starts with the clean
mask banned, so no branch picks a clean sensor.  A search node carries the
rows still unhit as one bitset of positions: a child is that bitset less its
pick's column, and the set it branches on is the first row of the smallest
size among them.  A stored row of size 0 is a contradiction.
Weights and phase change only between solves, so each solve ranks the
sensors once: the weights as a list, ``PHASE_BONUS`` added to the members of
the last support (kept as an ascending list, the phase), then one stable
sort, most suspected first and ascending index on ties.  One per-instance
table of sensor bits (``1 << v``) pairs each ranked sensor with its bit and
builds the learned masks.  Every search node tries its set's members in rank
order, and the padding pass walks the same order.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from enum import Enum

import numpy as np

# Multiplier applied to all suspicion weights when a new constraint arrives;
# recent conflicts dominate older ones.
WEIGHT_DECAY = 0.8

# Suspicion weight a bump adds to one sensor.
BUMP = 2.0

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


@dataclass
class SolveStats:
    """One solve's counts (SAT search, theory side) and its wall time (s)."""

    solve_calls: int = 0
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    theory_checks: int = 0
    conflict_fallbacks: int = 0
    solve_time: float = 0.0

    def __add__(self, other: SolveStats) -> SolveStats:
        return SolveStats(*(a + b for a, b in zip(astuple(self), astuple(other))))


class SearchBudgetError(RuntimeError):
    """The hitting-set search exceeded its node budget (diagnostic guard)."""


class SatInstance:
    """Single-owner mutable constraint store plus solver state."""

    def __init__(self, p: int, s_bar: int):
        if not 0 <= s_bar <= p:
            raise ValueError(f"s_bar must be in [0, {p}], got {s_bar}")
        self.p = p
        self.s_bar = s_bar
        self.stats = SolveStats()
        self.weights = np.zeros(p)
        self._bits = [1 << v for v in range(p)]
        self._phase: list[int] = []            # the last support, ascending
        self._masks: list[int] = []            # at-least-one sets, as learned
        self._occ = [0] * p                    # sensor -> positions of the rows holding it
        self._by_size = [0] * (p + 1)          # size -> positions of the rows of that size
        self._zero_mask = 0

    # -- constraint store ---------------------------------------------------

    def add_constraint(self, cert: Certificate) -> None:
        """Learn a certificate, then bump its suspect when it names one."""
        sensors = cert.sensors
        if sensors and not (0 <= min(sensors) and max(sensors) < self.p):
            raise ValueError(f"sensor index out of range in {sorted(sensors)}")
        bits = self._bits
        mask = sum(map(bits.__getitem__, sensors))  # distinct bits: the union
        if cert.kind is CertificateKind.ALL_UNATTACKED:
            self._zero_mask = zero = self._zero_mask | mask
            self.weights[sorted(sensors)] = 0.0
            self._by_size = [0] * (self.p + 1)
            for pos, row in enumerate(self._masks):
                self._by_size[(row & ~zero).bit_count()] |= 1 << pos
        else:
            self.weights *= WEIGHT_DECAY
            bit = 1 << len(self._masks)
            self._masks.append(mask)
            self._by_size[(mask & ~self._zero_mask).bit_count()] |= bit
            occ = self._occ
            for i in sensors:
                occ[i] |= bit
        if cert.suspect is not None:
            self.bump(cert.suspect)

    def bump(self, sensor: int) -> None:
        """Extra suspicion weight, ``BUMP``, for one sensor (theory-guided
        branching hint)."""
        if not 0 <= sensor < self.p:
            raise ValueError(f"sensor index out of range: {sensor}")
        if not (self._zero_mask >> sensor) & 1:
            self.weights[sensor] += BUMP

    # -- search -------------------------------------------------------------

    def solve(self) -> tuple | None:
        """Irredundant support hitting every learned set (greedy by suspicion
        weight, complete via backtracking), padded with suspected sensors up
        to the budget, as a sorted tuple; None when no support fits the
        budget."""
        self.stats.solve_calls += 1
        if self._by_size[0]:
            return None
        rank = self.weights.tolist()
        for v in self._phase:
            rank[v] += PHASE_BONUS
        # most suspected first, ascending index on ties (sorted is stable);
        # weights and phase only change between solves
        order = sorted(range(self.p), key=rank.__getitem__, reverse=True)
        self._ranked = list(zip(order, map(self._bits.__getitem__, order)))
        self._size_classes = [rows for rows in self._by_size if rows]
        self._nodes_left = MAX_SEARCH_NODES
        found = self._dfs((), (1 << len(self._masks)) - 1, self._zero_mask, self.s_bar)
        if found is None:
            return None
        support = set(found)
        for v, bit in self._ranked:
            if len(support) >= self.s_bar or rank[v] <= 0.0:
                break  # pad only with sensors implicated by some constraint
            if v not in support and not self._zero_mask & bit:
                support.add(v)
        self._phase = sorted(support)
        return tuple(self._phase)

    def _dfs(self, chosen: tuple, unhit: int, banned: int, limit: int):
        """Depth-limited hitting-set search over the rows at the set positions
        of ``unhit``; deterministic branching (first smallest set first,
        most-suspected member first)."""
        if self._nodes_left <= 0:
            raise SearchBudgetError(f"exceeded {MAX_SEARCH_NODES} search nodes")
        self._nodes_left -= 1
        if not unhit:
            return chosen
        depth = len(chosen)
        if depth >= limit:
            self.stats.conflicts += 1
            return None
        occ = self._occ
        if depth == limit - 1:
            # exactly one more pick allowed: a member of the first remaining
            # set whose column holds every remaining set
            first = self._masks[(unhit & -unhit).bit_length() - 1] & ~banned
            for v, bit in self._ranked:
                if first & bit and occ[v] & unhit == unhit:
                    self.stats.propagations += 1
                    return chosen + (v,)
            self.stats.conflicts += 1
            return None
        for rows in self._size_classes:
            smallest = unhit & rows
            if smallest:
                break
        free = self._masks[(smallest & -smallest).bit_length() - 1] & ~banned
        if free == 0:
            self.stats.conflicts += 1
            return None
        for v, bit in self._ranked:
            if not free & bit:
                continue
            self.stats.decisions += 1
            # unhit less the column: on long ints, an xor of the overlap is
            # cheaper than & ~
            found = self._dfs(chosen + (v,), unhit ^ (unhit & occ[v]), banned, limit)
            if found is not None:
                return found
            banned |= bit  # later branches must use a different member
        return None


def new_instance(p: int, s_bar: int) -> SatInstance:
    """Fresh instance holding only the cardinality budget."""
    return SatInstance(p, s_bar)
