"""Capacity of LQG control systems used as communication channels.

Library surface:

- model: system/cost types, validation, the estimator (innovation-form) model
- constants: steady-state constants and constants_for, decision map, cost floor
- riccati: Riccati equation type, filter/control/policy solvers, PBH tests
- upper_bound: the determinant-maximization upper bound and its Riccati residual
- lower_bound: policy extraction and evaluation, certificates, solve_capacity
- scop: the finite-horizon sequential program and its averaging argument
- simulator: Monte-Carlo closed-loop validation
- cli: the `lqgcap` command-line front end
"""

from .constants import ProblemConstants
from .lower_bound import (
    CapacityReport,
    LBSolution,
    TightnessCertificate,
    evaluate_policy,
    extract_policy,
    solve_capacity,
    tightness_certificate,
)
from .model import (
    BudgetedProblem,
    CostWeights,
    EstimatorModel,
    SystemModel,
    ValidationReport,
    validate_model,
)
from .riccati import (
    ControlConstants,
    FilterConstants,
    PBHResult,
    Policy,
    PolicyRiccatiSolution,
    RiccatiEquation,
    control_equation,
    filter_equation,
    pbh_test,
    policy_equation,
    solve_control_riccati,
    solve_filter_riccati,
    solve_policy_riccati,
)
from .scop import SCOPSolution, average_variables, solve_scop
from .simulator import (
    ComparisonVerdict,
    SimConfig,
    SimReport,
    compare_to_theory,
    simulate,
)
from .upper_bound import (
    SolverOptions,
    UBDecision,
    UBSolution,
    feasibility,
    rate_from_psi,
    solve_ub,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetedProblem",
    "CapacityReport",
    "ComparisonVerdict",
    "ControlConstants",
    "CostWeights",
    "EstimatorModel",
    "FilterConstants",
    "LBSolution",
    "PBHResult",
    "Policy",
    "PolicyRiccatiSolution",
    "ProblemConstants",
    "RiccatiEquation",
    "SCOPSolution",
    "SimConfig",
    "SimReport",
    "SolverOptions",
    "SystemModel",
    "TightnessCertificate",
    "UBDecision",
    "UBSolution",
    "ValidationReport",
    "average_variables",
    "compare_to_theory",
    "control_equation",
    "evaluate_policy",
    "extract_policy",
    "feasibility",
    "filter_equation",
    "pbh_test",
    "policy_equation",
    "rate_from_psi",
    "simulate",
    "solve_control_riccati",
    "solve_filter_riccati",
    "solve_policy_riccati",
    "solve_capacity",
    "solve_scop",
    "solve_ub",
    "tightness_certificate",
    "validate_model",
]
