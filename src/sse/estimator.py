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
)
from .satcore import Certificate, CertificateKind, SatStats
from .theory import Strategy, certificates, t_check


class IterationLimitError(RuntimeError):
    """The estimation loop hit its iteration cap before deciding."""

    def __init__(self, iterations: int):
        super().__init__(f"estimation aborted after {iterations} iterations")
        self.iterations = iterations


@dataclass(frozen=True)
class EstimatorConfig:
    strategy: Strategy = Strategy.CONFLICT_AGREE
    epsilon: float = 1e-6
    max_iterations: int | None = None  # None: 10 * C(p, p - 2*s_bar + 1), capped at 1e7

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {self.epsilon}")

    def iteration_cap(self, p: int, s_bar: int) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        width = max(p - 2 * s_bar + 1, 1)
        return min(10 * math.comb(p, min(width, p)), 10**7)


@dataclass
class IterationRecord:
    support: tuple
    sat: bool
    residual_sq: float
    certificates: tuple = ()
    conflict_fallback: bool = False


@dataclass
class Estimate:
    feasible: bool
    x: np.ndarray | None
    iterations: int
    certificates: list
    residual_sq: float | None
    records: list = field(default_factory=list)
    support: tuple = ()
    agree_active: bool = False
    agree_downgraded: bool = False
    conflict_fallbacks: int = 0
    rank_deficient_final: bool = False
    budget: int = 0
    solve_time: float = 0.0
    sat: SatStats = field(default_factory=SatStats)  # the SAT core's search counts

    def to_json_dict(self) -> dict:
        return {
            "status": "feasible" if self.feasible else "infeasible",
            "x": None if self.x is None else list(self.x),
            "support": list(self.support),
            "iterations": self.iterations,
            "residual_sq": self.residual_sq,
            "budget": self.budget,
            "solve_time": self.solve_time,
            "sat": asdict(self.sat),
            "certificates": [
                {"kind": c.kind.value, "sensors": sorted(c.sensors)} for c in self.certificates
            ],
            "trace": [
                {
                    "support": list(r.support),
                    "status": "SAT" if r.sat else "UNSAT",
                    "residual_sq": r.residual_sq,
                    "certificates": [
                        {"kind": c.kind.value, "sensors": sorted(c.sensors)}
                        for c in r.certificates
                    ],
                }
                for r in self.records
            ],
        }


def _agree_allowed(
    model: SystemModel, stack: ObservabilityStack, config: EstimatorConfig
) -> tuple[bool, bool]:
    """(allowed, downgraded): whether agreement certificates may be emitted.

    They are only sound on exact data, and only when the state stays
    observable after losing any 3*s_bar sensors: under noise an attack below
    the detection threshold can pass the agreement check.  Otherwise the
    strategy silently runs in conflict-only mode and reports the downgrade.
    The only proof is the exact check, whose answer the stack remembers, so
    it runs once per stack and budget.
    """
    if config.strategy is not Strategy.CONFLICT_AGREE:
        return False, False
    if model.p <= 3 * model.s_bar:
        return False, True
    if np.any(model.noise_bounds > 0):
        return False, True
    try:
        if check_sparse_observability(model, 3 * model.s_bar, stack=stack):
            return True, False
    except SubsetCapError:
        pass
    return False, True


def estimate(
    model: SystemModel,
    stack: ObservabilityStack,
    window: StackedWindow,
    config: EstimatorConfig = EstimatorConfig(),
) -> Estimate:
    """Solve the windowed estimation problem under the model's attack budget.

    Returns a feasible estimate (state at the window start plus the attack
    support) or an infeasible outcome when no sensor subset within budget
    explains the data.  A sensor whose window row has a non-finite squared
    norm (a NaN or +-inf reading, or one whose square overflows) is treated as
    attacked: a singleton certificate for it is learned up front.
    """
    p, s_bar = model.p, model.s_bar
    started = time.perf_counter()
    inst = satcore.new_instance(p, s_bar)
    agree_allowed, downgraded = _agree_allowed(model, stack, config)
    cap = config.iteration_cap(p, s_bar)
    result = Estimate(
        feasible=False,
        x=None,
        iterations=0,
        certificates=[],
        residual_sq=None,
        agree_active=agree_allowed,
        agree_downgraded=downgraded,
        budget=s_bar,
        sat=inst.stats,
    )
    for i in window.nonfinite_sensors():
        cert = Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED, frozenset({i}))
        result.certificates.append(cert)
        inst.add_constraint(cert)
    while True:
        suspected = inst.solve()
        if suspected is None:
            result.solve_time = time.perf_counter() - started
            return result
        excluded = set(suspected)
        trusted = tuple([i for i in range(p) if i not in excluded])
        if not trusted:
            # no sensor left to estimate from: reject this hypothesis outright
            inst.add_constraint(
                Certificate(CertificateKind.AT_LEAST_ONE_ATTACKED, frozenset())
            )
            continue
        result.iterations += 1
        check = t_check(stack, window, trusted, model.noise_bounds, config.epsilon)
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
            result.solve_time = time.perf_counter() - started
            return result
        certs, diag = certificates(
            stack,
            window,
            check,
            s_bar,
            config.epsilon,
            model.noise_bounds,
            config.strategy,
            agree_allowed=agree_allowed,
        )
        record.certificates = tuple(certs)
        record.conflict_fallback = diag.conflict_fallback
        if diag.conflict_fallback:
            result.conflict_fallbacks += 1
        for cert in certs:
            result.certificates.append(cert)
            inst.add_constraint(cert)
        if result.iterations >= cap:
            raise IterationLimitError(result.iterations)


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
    """
    best: Estimate | None = None
    budget = model.s_bar
    total_iterations = 0
    total_sat = SatStats()
    while budget >= 0:
        trial_model = replace(model, s_bar=budget)
        outcome = estimate(trial_model, stack, window, config)
        total_iterations += outcome.iterations
        total_sat += outcome.sat
        if not outcome.feasible:
            break
        best = outcome
        budget = min(budget - 1, len(outcome.support) - 1) if outcome.support else -1
    if best is None:
        infeasible = outcome
        infeasible.iterations = total_iterations
        infeasible.sat = total_sat
        return infeasible
    best.iterations = total_iterations
    best.sat = total_sat
    # the estimate also solves the problem at the budget matching its support
    best.budget = len(best.support)
    return best


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
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    psi_sq = model.noise_norm_sq
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
