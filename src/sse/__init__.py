"""Secure state estimation for linear systems under sparse sensor attacks."""

from .estimator import (
    Estimate,
    EstimatorConfig,
    GuaranteeBounds,
    IterationLimitError,
    delta_bound,
    estimate,
    minimal_support_estimate,
)
from .linmodel import (
    GramSingularError,
    ObservabilityStack,
    RobustnessConstants,
    StackedWindow,
    SubsetCapError,
    SystemModel,
    build_observability,
    check_sparse_observability,
    compute_delta_s,
    compute_o_bar,
    roll_forward,
    spectral_helper_check,
    stack_window,
)
from .oracle import OracleResult, brute_force
from .satcore import Certificate, CertificateKind, SatInstance, new_instance
from .theory import (
    CheckResult,
    ConflictSearchError,
    Strategy,
    certificates,
    t_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
