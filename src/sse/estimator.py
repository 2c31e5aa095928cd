"""Top-level estimation loop and its guarantees.

The solver alternates between the combinatorial core, which proposes a set of
suspected sensors within the attack budget, and the least-squares check over
the remaining sensors.  Failed checks feed certificates back into the core
until a hypothesis passes (feasible) or the core proves no hypothesis can
(infeasible).  The minimal-support variant lowers the budget until the problem
turns infeasible, and ``delta_bound`` evaluates the noise-robustness
guarantees from the model's robustness constants.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import satcore
from .linmodel import (
    ObservabilityStack,
    RobustnessConstants,
    StackedWindow,
    SubsetCapError,
    SystemModel,
    check_sparse_observability,
    require_fit,
    whole_number,
)
from .satcore import Certificate, CertificateKind, SolveStats
from .theory import DEFAULT_EPSILON, Strategy, certificates, t_check


class IterationLimitError(RuntimeError):
    """The estimation loop hit its iteration cap before deciding; ``stats``
    holds the capped solve's counts."""

    def __init__(self, iterations: int, stats: SolveStats):
        super().__init__(f"estimation aborted after {iterations} iterations")
        self.iterations = iterations
        self.stats = stats


def iteration_bound(strategy: Strategy, p: int, s_bar: int) -> int:
    """Worst-case iteration count: every support within budget for the trivial
    certificate, every maximal conflicting set otherwise."""
    if strategy is Strategy.TRIVIAL:
        return sum(math.comb(p, s) for s in range(s_bar + 1))
    width = max(p - 2 * s_bar + 1, 1)
    return math.comb(p, min(width, p))


@dataclass(frozen=True)
class EstimatorConfig:
    strategy: Strategy = Strategy.CONFLICT_AGREE
    epsilon: float = DEFAULT_EPSILON
    max_iterations: int | None = None  # None: 10 * the conflict bound, capped at 1e7

    def __post_init__(self):
        object.__setattr__(self, "strategy", Strategy(self.strategy))
        if not self.epsilon >= 0:
            raise ValueError(f"epsilon must be non-negative, got {self.epsilon}")
        if self.max_iterations is not None:
            cap = whole_number(self.max_iterations, "max_iterations")
            if cap < 1:
                raise ValueError(f"max_iterations must be at least 1, got {cap}")
            object.__setattr__(self, "max_iterations", cap)

    def iteration_cap(self, p: int, s_bar: int) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return min(10 * iteration_bound(Strategy.CONFLICT, p, s_bar), 10**7)


@dataclass
class IterationRecord:
    support: tuple
    sat: bool
    residual_sq: float
    certificates: tuple = ()


@dataclass
class Estimate:
    feasible: bool
    x: np.ndarray | None
    iterations: int
    certificates: list
    residual_sq: float | None
    strategy: Strategy  # the strategy the solve ran: conflict_agree may run as conflict
    records: list = field(default_factory=list)
    support: tuple = ()
    rank_deficient_final: bool = False
    budget: int = 0
    stats: SolveStats = field(default_factory=SolveStats)  # the solve's counts and time

    def to_json_dict(self) -> dict:
        def render(certs):
            return [{"kind": c.kind.value, "sensors": sorted(c.sensors)} for c in certs]

        return {
            "status": "feasible" if self.feasible else "infeasible",
            "x": None if self.x is None else list(self.x),
            "support": list(self.support),
            "iterations": self.iterations,
            "residual_sq": self.residual_sq,
            "budget": self.budget,
            "strategy": self.strategy.value,
            "stats": asdict(self.stats),
            "certificates": render(self.certificates),
            "trace": [
                {
                    "support": list(r.support),
                    "status": "SAT" if r.sat else "UNSAT",
                    "residual_sq": r.residual_sq,
                    "certificates": render(r.certificates),
                }
                for r in self.records
            ],
        }


def _solve_strategy(
    model: SystemModel, stack: ObservabilityStack, config: EstimatorConfig
) -> Strategy:
    """The strategy the solve runs: ``conflict_agree`` runs as ``conflict``
    unless agreement certificates are sound.

    They are only sound on exact data, and only when the state stays
    observable after losing any 3*s_bar sensors: under noise an attack below
    the detection threshold can pass the agreement check.  The only proof is
    ``check_sparse_observability`` (a partition of the sensors, or the
    enumeration where that fails), whose answer the stack remembers, so it
    runs once per stack and budget.
    """
    if config.strategy is not Strategy.CONFLICT_AGREE:
        return config.strategy
    if model.p <= 3 * model.s_bar or np.any(model.noise_bounds > 0):
        return Strategy.CONFLICT
    try:
        if check_sparse_observability(model, 3 * model.s_bar, stack=stack):
            return Strategy.CONFLICT_AGREE
    except SubsetCapError:
        pass
    return Strategy.CONFLICT


def estimate(
    model: SystemModel,
    stack: ObservabilityStack,
    window: StackedWindow,
    config: EstimatorConfig = EstimatorConfig(),
) -> Estimate:
    """Solve the windowed estimation problem under the model's attack budget.

    Returns a feasible estimate (state at the window start plus the attack
    support) or an infeasible outcome when no sensor subset within budget
    explains the data.  A sensor ``StackedWindow.nonfinite_sensors`` names (a
    NaN or +-inf reading, or one whose square overflows or nears it) is
    treated as attacked: a singleton certificate for it is learned up front.
    A stack or window that does not fit the model raises ``ValueError``.
    """
    require_fit(model, stack, window)
    p, s_bar = model.p, model.s_bar
    started = time.perf_counter()
    # a support of every sensor leaves no equation to check: not a hypothesis
    inst = satcore.new_instance(p, min(s_bar, p - 1))
    strategy = _solve_strategy(model, stack, config)
    cap = config.iteration_cap(p, s_bar)
    result = Estimate(
        feasible=False,
        x=None,
        iterations=0,
        certificates=[],
        residual_sq=None,
        strategy=strategy,
        budget=s_bar,
        stats=inst.stats,
    )
    for i in window.nonfinite_sensors():
        cert = Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED, frozenset({i}))
        result.certificates.append(cert)
        inst.add_constraint(cert)
    everyone = set(range(p))
    while result.iterations < cap and (suspected := inst.solve()) is not None:
        result.iterations += 1
        check = t_check(stack, window, everyone.difference(suspected),
                        model.noise_bounds, config.epsilon)
        record = IterationRecord(
            support=suspected, sat=check.sat, residual_sq=check.residual_sq
        )
        result.records.append(record)
        if check.sat:
            result.feasible = True
            result.x = check.x
            result.support = suspected
            result.residual_sq = check.residual_sq
            result.rank_deficient_final = check.rank_deficient
            break
        certs, counts = certificates(
            stack, window, check, s_bar, config.epsilon, model.noise_bounds, strategy
        )
        record.certificates = tuple(certs)
        inst.stats.theory_checks += counts.theory_checks
        inst.stats.conflict_fallbacks += counts.conflict_fallbacks
        for cert in certs:
            result.certificates.append(cert)
            inst.add_constraint(cert)
    inst.stats.solve_time = time.perf_counter() - started
    if not result.feasible and result.iterations >= cap:
        raise IterationLimitError(result.iterations, inst.stats)
    return result


def minimal_support_estimate(
    model: SystemModel,
    stack: ObservabilityStack,
    window: StackedWindow,
    config: EstimatorConfig = EstimatorConfig(),
) -> Estimate:
    """Feasible estimate with the smallest attack budget that still explains
    the data.

    Runs the budgeted problem with the budget descending from the model's
    s_bar; certificates are not carried across budgets (clean-sensor
    certificates are only sound under the budget they were derived for).
    The result's ``iterations`` and ``stats`` are totals over every budget
    tried, the final infeasible one included.  The iteration cap holds per
    budget; an ``IterationLimitError`` carries the same totals, the capped
    budget included.
    """
    budget, iterations, stats, last_feasible = model.s_bar, 0, SolveStats(), None
    while budget >= 0:
        try:
            outcome = estimate(replace(model, s_bar=budget), stack, window, config)
        except IterationLimitError as exc:
            raise IterationLimitError(iterations + exc.iterations, stats + exc.stats) from None
        iterations, stats = iterations + outcome.iterations, stats + outcome.stats
        if not outcome.feasible:
            break
        last_feasible = outcome
        budget = min(budget, len(outcome.support)) - 1
    result = outcome if last_feasible is None else last_feasible
    result.iterations, result.stats = iterations, stats
    if result.feasible:
        # the estimate also solves the problem at the budget matching its support
        result.budget = len(result.support)
    return result


@dataclass(frozen=True)
class GuaranteeBounds:
    """Error guarantees implied by the robustness constants.

    detected_delta: squared state-error bound once every attack is detectable.
    detection_threshold_sq: squared attack norm above which detection is
    guaranteed.  undetected_bound: squared state-error bound against attacks
    hiding below that threshold.
    """

    detected_delta: float
    detection_threshold_sq: float
    undetected_bound: float


def delta_bound(
    model: SystemModel, constants: RobustnessConstants, epsilon: float
) -> GuaranteeBounds:
    """Evaluate the noise-robustness guarantees for this model."""
    if constants.delta_s >= 1.0:
        raise ValueError(
            f"delta_s must be < 1 for the guarantees to hold, got {constants.delta_s}"
        )
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    psi_sq = float(np.dot(model.noise_bounds, model.noise_bounds))
    gap = 1.0 - constants.delta_s
    threshold = (2.0 / gap) * psi_sq + epsilon / gap
    detected = constants.o_bar * psi_sq
    undetected = 2.0 * constants.o_bar * (1.0 + 2.0 / gap) * psi_sq + (
        2.0 * constants.o_bar * epsilon / gap
    )
    return GuaranteeBounds(
        detected_delta=detected,
        detection_threshold_sq=threshold,
        undetected_bound=undetected,
    )
