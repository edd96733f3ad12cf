"""Steady-state constants of a budgeted problem, and the per-step decision
map that every program, residual and budget is built from.

ProblemConstants.compute is the one place a plant's filter and control
solutions are reused: it keeps the last few clean solutions, each keyed on
its own equation's inputs, and calls the stateless riccati solvers only on
a miss.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
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


# Clean plant solutions kept, least recently used first.  A sweep, a
# benchmark pass or a CLI run alternates between at most two plants, of two
# equations each, and a sweep over one plant entry shares the equation that
# entry does not enter.
_SOLVES_KEPT = 8
_SOLVES: OrderedDict = OrderedDict()
_SOLVES_LOCK = threading.Lock()


def _key(kind: str, *arrays: np.ndarray) -> tuple:
    """The equation's kind and the dtypes, shapes and bytes of its inputs."""
    return (kind, *((a.dtype.str, a.shape, a.tobytes()) for a in arrays))


def _copied(solution):
    """The solution dataclass with a copy of each of its array fields."""
    return replace(solution, **{
        f.name: value.copy() for f in fields(solution)
        if isinstance(value := getattr(solution, f.name), np.ndarray)})


def _solved(key: tuple, solve):
    """A copy of the solution kept under key, or solve(), kept when every
    one of its regularity checks passed.  A copy shares no array with any
    other result, and is bit-identical to a fresh solve, with the
    iterations and residual of the solve that produced it."""
    with _SOLVES_LOCK:
        kept = _SOLVES.get(key)
        if kept is not None:
            _SOLVES.move_to_end(key)
    if kept is not None:
        return _copied(kept)
    solution = solve()
    if all(ok for _, ok in solution.regularity):
        kept = _copied(solution)
        with _SOLVES_LOCK:
            _SOLVES[key] = kept
            _SOLVES.move_to_end(key)
            while len(_SOLVES) > _SOLVES_KEPT:
                _SOLVES.popitem(last=False)
    return solution


@dataclass(frozen=True)
class ProblemConstants:
    """Filter and control Riccati constants evaluated once per problem."""

    model: SystemModel
    weights: CostWeights
    filter: riccati.FilterConstants
    control: riccati.ControlConstants

    @classmethod
    def compute(cls, model: SystemModel, weights: CostWeights) -> "ProblemConstants":
        """The constants of model and weights.  The filter solution is
        reused for equal (F, H, W, L, V), the control one for equal
        (F, G, Q, R); a degraded solve, with a failed regularity check, is
        repeated and warns again."""
        filter_key = _key("filter", model.F, model.H, model.W, model.L, model.V)
        control_key = _key("control", model.F, model.G, weights.Q, weights.R)
        return cls(
            model=model, weights=weights,
            filter=_solved(filter_key,
                           lambda: riccati.solve_filter_riccati(model)),
            control=_solved(control_key,
                            lambda: riccati.solve_control_riccati(model, weights)))

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
        """The innovation form of the model at its filter constants."""
        m, f = self.model, self.filter
        return EstimatorModel(F=m.F, G=m.G, H=m.H, J=m.J, K_p=f.K_p,
                              Psi=f.Psi, Sigma=f.Sigma)

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
