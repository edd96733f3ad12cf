"""Steady-state constants of a budgeted problem, and the per-step decision
map that every program, residual and budget is built from."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import riccati
from .model import BudgetedProblem, CostWeights, EstimatorModel, SystemModel


def decision_map(sys, Pi: np.ndarray, Gamma: np.ndarray,
                 SigmaHat: np.ndarray):
    """Linear parts (P, C, Y) of the Riccati propagation
    F SigmaHat F^T + F Gamma^T G^T + G Gamma F^T + G Pi G^T, of K_Y Psi_Y and
    of Psi_Y, without their constants K_p Psi K_p^T, K_p Psi and Psi.  `sys`
    is anything with F, G, H, J: a SystemModel or an EstimatorModel.  The
    decisions may be stacks of matrices, mapped slice by slice."""
    F, G, H, J = sys.F, sys.G, sys.H, sys.J
    GammaT = Gamma.swapaxes(-1, -2)
    P = (F @ SigmaHat @ F.T + F @ GammaT @ G.T + G @ Gamma @ F.T
         + G @ Pi @ G.T)
    C = (F @ GammaT @ J.T + F @ SigmaHat @ H.T + G @ Pi @ J.T
         + G @ Gamma @ H.T)
    Y = (J @ Pi @ J.T + H @ SigmaHat @ H.T + H @ GammaT @ J.T
         + J @ Gamma @ H.T)
    return P, C, Y


def trace_cost(K_LQR: np.ndarray, Psi_LQR: np.ndarray, Pi: np.ndarray,
               Gamma: np.ndarray, SigmaHat: np.ndarray):
    """The five-term trace cost of a decision above its floor:
    Tr(SigmaHat K^T Psi_LQR K) + Tr(Pi Psi_LQR) + 2 Tr(Gamma K^T Psi_LQR).
    Stacked decisions, or stacked (K_LQR, Psi_LQR), give a stack of costs."""
    KtPsiL = K_LQR.swapaxes(-1, -2) @ Psi_LQR
    cost = (np.trace(SigmaHat @ KtPsiL @ K_LQR, axis1=-2, axis2=-1)
            + np.trace(Pi @ Psi_LQR, axis1=-2, axis2=-1)
            + 2.0 * np.trace(Gamma @ KtPsiL, axis1=-2, axis2=-1))
    return float(cost) if np.ndim(cost) == 0 else cost


def cost_floor(estimator: EstimatorModel, weights: CostWeights,
               control: riccati.ControlConstants) -> float:
    """Tr(K_p Psi K_p^T E) + Tr(Sigma Q), the zero-rate cost floor."""
    return float(np.trace(estimator.K_p @ estimator.Psi @ estimator.K_p.T
                          @ control.E)
                 + np.trace(estimator.Sigma @ weights.Q))


@dataclass(frozen=True)
class ProblemConstants:
    """Filter and control Riccati constants evaluated once per problem."""

    model: SystemModel
    weights: CostWeights
    filter: riccati.FilterConstants
    control: riccati.ControlConstants

    @classmethod
    def compute(cls, model: SystemModel, weights: CostWeights) -> "ProblemConstants":
        return cls(model=model, weights=weights,
                   filter=riccati.solve_filter_riccati(model),
                   control=riccati.solve_control_riccati(model, weights))

    @property
    def Sigma(self) -> np.ndarray:
        return self.filter.Sigma

    @property
    def K_p(self) -> np.ndarray:
        return self.filter.K_p

    @property
    def Psi(self) -> np.ndarray:
        return self.filter.Psi

    @property
    def E(self) -> np.ndarray:
        return self.control.E

    @property
    def K_LQR(self) -> np.ndarray:
        return self.control.K_LQR

    @property
    def Psi_LQR(self) -> np.ndarray:
        return self.control.Psi_LQR

    @cached_property
    def estimator(self) -> EstimatorModel:
        return EstimatorModel.from_filter(self.model, self.filter)

    @cached_property
    def minimal_cost(self) -> float:
        """The zero-rate cost floor, the feasibility threshold for positive
        capacity."""
        return cost_floor(self.estimator, self.weights, self.control)

    def cost_of(self, Pi: np.ndarray, Gamma: np.ndarray,
                SigmaHat: np.ndarray) -> float:
        """The five-term trace cost of a decision triple (in budget units)."""
        return (trace_cost(self.K_LQR, self.Psi_LQR, Pi, Gamma, SigmaHat)
                + self.minimal_cost)


def constants_for(problem: BudgetedProblem,
                  consts: ProblemConstants | None) -> ProblemConstants:
    """The constants a solve of `problem` runs on: `consts`, or computed when
    None.  ValueError unless `consts` were computed for the problem's model
    and weights, the same objects or ones with equal F, G, H, J, W, V, L, Q
    and R (Sigma1 enters no constant)."""
    model, weights = problem.model, problem.weights
    if consts is None:
        return ProblemConstants.compute(model, weights)
    pairs = [(consts.model, model, "FGHJWVL"), (consts.weights, weights, "QR")]
    if not all(a is b or all(np.array_equal(getattr(a, n), getattr(b, n))
                             for n in names) for a, b, names in pairs):
        raise ValueError("consts were computed for another model or weights")
    return consts
