"""Brute-force ground truth for the windowed estimation problem.

Enumerates every candidate attack support up to the budget, runs the
least-squares check on each complement, and reports all feasible supports and
the minimal ones.  Deliberately independent of the lazy solver so the two can
cross-check each other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .linmodel import ObservabilityStack, StackedWindow, SubsetCapError, require_fit, whole_number
from .theory import DEFAULT_EPSILON, t_check

ORACLE_SUBSET_CAP = 10**5


@dataclass(frozen=True)
class OracleResult:
    supports: tuple          # every feasible support, ascending cardinality then lex
    minimal: tuple           # the minimum-cardinality feasible supports
    x_per_support: dict      # support -> state estimate at the window start

    @property
    def unique_minimal(self) -> bool:
        return len(self.minimal) == 1


def brute_force(
    model,
    stack: ObservabilityStack,
    window: StackedWindow,
    s_bar: int | None = None,
    epsilon: float = DEFAULT_EPSILON,
) -> OracleResult:
    """Enumerate all attack supports of size <= s_bar whose complement passes
    the least-squares check.  A sensor ``StackedWindow.nonfinite_sensors``
    names is treated as attacked, as the estimator does: supports that
    leave it out are skipped.  A stack or window that does not fit the model
    raises ``ValueError``."""
    require_fit(model, stack, window)
    p = stack.p
    budget = model.s_bar if s_bar is None else whole_number(s_bar, "s_bar")
    if not 0 <= budget < p:
        raise ValueError(f"s_bar must be in [0, {p - 1}], got {budget}")
    count = sum(math.comb(p, s) for s in range(budget + 1))
    if count > ORACLE_SUBSET_CAP:
        raise SubsetCapError(count, ORACLE_SUBSET_CAP)
    nonfinite = set(window.nonfinite_sensors())
    feasible = []
    x_map = {}
    for size in range(budget + 1):
        for gamma in itertools.combinations(range(p), size):
            if not nonfinite.issubset(gamma):
                continue
            complement = tuple(i for i in range(p) if i not in gamma)
            check = t_check(stack, window, complement, model.noise_bounds, epsilon)
            if check.sat:
                feasible.append(gamma)
                x_map[gamma] = check.x
    if feasible:
        min_size = len(feasible[0])
        minimal = tuple(g for g in feasible if len(g) == min_size)
    else:
        minimal = ()
    return OracleResult(supports=tuple(feasible), minimal=minimal, x_per_support=x_map)
