"""LQG system data: model types and validation.

The plant is the linear state-space model

    s_{i+1} = F s_i + G x_i + w_i
    y_i     = H s_i + J x_i + v_i

with i.i.d. Gaussian noise (w, v) of covariance [[W, L], [L^T, V]] and a
quadratic running cost s^T Q s + x^T R x.  EstimatorModel replaces the
hidden state by its one-step Kalman prediction, driven by the i.i.d.
innovation of covariance Psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .errors import DimensionMismatch

# Asymmetry above SYM_RTOL * ||A||_F on a nominally symmetric input is an
# error; below it the input is silently symmetrized (text-config round-off).
SYM_RTOL = 1e-8


def _sym_field(a: np.ndarray):
    """Symmetrize an input matrix, returning (symmetric part, asymmetry).

    A matrix holding a NaN or an inf gets asymmetry inf, without the warning
    that inf - inf raises; validate_model reports it as NotFinite.
    """
    m = la.as_matrix(a)
    if np.isfinite(m).all():
        return la.sym(m), la.asymmetry(m)
    with np.errstate(invalid="ignore"):
        return la.sym(m), math.inf


class _Dimensions:
    """k, m and p of a model with F (k x k), G (k x m) and H (p x k)."""

    @property
    def k(self) -> int:
        return self.F.shape[0]

    @property
    def m(self) -> int:
        return self.G.shape[1]

    @property
    def p(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True)
class SystemModel(_Dimensions):
    """State-space matrices and noise covariances of the plant.

    Shapes: F k x k, G k x m, H p x k, J p x m, W k x k, V p x p, L k x p.
    Sigma1 (initial-state covariance) defaults to W; it only matters to the
    simulator, steady-state quantities do not depend on it.
    """

    F: np.ndarray
    G: np.ndarray
    H: np.ndarray
    J: np.ndarray
    W: np.ndarray
    V: np.ndarray
    L: np.ndarray
    Sigma1: np.ndarray | None = None
    sym_deltas: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        F = la.as_matrix(self.F)
        k = F.shape[0]
        if F.shape != (k, k):
            raise DimensionMismatch(f"F must be square, got {F.shape}")
        G = la.as_matrix(self.G)
        if G.shape[0] != k:
            raise DimensionMismatch(f"G must have {k} rows, got {G.shape}")
        m = G.shape[1]
        H = la.as_matrix(self.H)
        if H.shape[1] != k:
            raise DimensionMismatch(f"H must have {k} columns, got {H.shape}")
        p = H.shape[0]
        J = la.as_matrix(self.J, p, m)
        deltas = {}
        W, deltas["W"] = _sym_field(la.as_matrix(self.W, k, k))
        V, deltas["V"] = _sym_field(la.as_matrix(self.V, p, p))
        L = la.as_matrix(self.L, k, p)
        if self.Sigma1 is None:
            Sigma1, deltas["Sigma1"] = W.copy(), 0.0
        else:
            Sigma1, deltas["Sigma1"] = _sym_field(la.as_matrix(self.Sigma1, k, k))
        for name, val in [("F", F), ("G", G), ("H", H), ("J", J), ("W", W),
                          ("V", V), ("L", L), ("Sigma1", Sigma1)]:
            object.__setattr__(self, name, val)
        object.__setattr__(self, "sym_deltas", deltas)

    def joint_noise(self) -> np.ndarray:
        """The (k+p) x (k+p) joint covariance [[W, L], [L^T, V]]."""
        return np.block([[self.W, self.L], [self.L.T, self.V]])

    def is_scalar(self) -> bool:
        return self.k == 1 and self.m == 1 and self.p == 1


@dataclass(frozen=True)
class CostWeights:
    """Quadratic cost weights: Q >= 0 on the state, R > 0 on the input."""

    Q: np.ndarray
    R: np.ndarray
    sym_deltas: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        deltas = {}
        Q, deltas["Q"] = _sym_field(self.Q)
        R, deltas["R"] = _sym_field(self.R)
        if Q.shape[0] != Q.shape[1] or R.shape[0] != R.shape[1]:
            raise DimensionMismatch("Q and R must be square")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "sym_deltas", deltas)


@dataclass(frozen=True)
class EstimatorModel(_Dimensions):
    """Innovation-form state-space model seen by the controller.

    Same (F, G, H, J) as the plant, driven by the i.i.d. innovation of
    covariance Psi through the steady Kalman gain K_p.  Sigma is the
    steady-state estimation-error covariance (kept because the cost baseline
    Tr(Sigma Q) travels with the reduced model).
    """

    F: np.ndarray
    G: np.ndarray
    H: np.ndarray
    J: np.ndarray
    K_p: np.ndarray
    Psi: np.ndarray
    Sigma: np.ndarray


@dataclass(frozen=True)
class BudgetedProblem:
    """A validated model/cost pair with a control budget."""

    model: SystemModel
    weights: CostWeights
    budget: float

    def __post_init__(self):
        b = float(self.budget)
        if not math.isfinite(b):
            raise ValueError("budget must be finite")
        if b < 0.0:
            raise ValueError("budget must be nonnegative")
        object.__setattr__(self, "budget", b)


@dataclass
class ValidationReport:
    """Outcome of validate_model: violation codes and symmetry deltas."""

    violations: list[tuple[str, str]] = field(default_factory=list)
    sym_deltas: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, detail: str):
        self.violations.append((code, detail))

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(f"{c}({d})" for c, d in self.violations)


def validate_model(model: SystemModel, weights: CostWeights) -> ValidationReport:
    """Check every well-posedness invariant of the model and cost weights.

    Returns a report listing violated invariants (empty on success) together
    with the symmetry-enforcement deltas recorded at construction.  A matrix
    holding a NaN or an inf is reported as NotFinite, and then no symmetry
    or definiteness test runs.
    """
    rep = ValidationReport(sym_deltas={**model.sym_deltas, **weights.sym_deltas})
    k, m, p = model.k, model.m, model.p
    if min(k, m, p) < 1:
        rep.add("DimensionMismatch", f"k={k}, m={m}, p={p}")
    if weights.Q.shape != (k, k):
        rep.add("DimensionMismatch", f"Q must be {k}x{k}, got {weights.Q.shape}")
    if weights.R.shape != (m, m):
        rep.add("DimensionMismatch", f"R must be {m}x{m}, got {weights.R.shape}")
    # LAPACK answers the eigenvalue tests below wrongly on a NaN or an inf
    mats = {n: getattr(model, n) for n in ("F", "G", "H", "J", "W", "V", "L",
                                           "Sigma1")}
    mats.update(Q=weights.Q, R=weights.R)
    not_finite = [n for n, a in mats.items() if not np.isfinite(a).all()]
    for name in not_finite:
        rep.add("NotFinite", name)
    if not_finite:
        return rep

    for name, a in [("W", model.W), ("V", model.V), ("Sigma1", model.Sigma1),
                    ("Q", weights.Q), ("R", weights.R)]:
        rel = rep.sym_deltas.get(name, 0.0)
        scale = max(la.fro(a), 1e-300)
        if rel > SYM_RTOL * scale:
            rep.add("AsymmetricInput", f"{name}: ||A - A^T|| = {rel:.3e}")

    if not la.is_pd(model.V):
        rep.add("NotPositiveDefinite", "V")
    if not la.is_psd(model.W):
        rep.add("NotPSD", "W")
    if not la.is_psd(model.Sigma1):
        rep.add("NotPSD", "Sigma1")
    if not la.is_psd(model.joint_noise()):
        rep.add("JointNoiseNotPSD", "[[W, L], [L^T, V]]")
    if weights.Q.shape == (k, k) and not la.is_psd(weights.Q):
        rep.add("NotPSD", "Q")
    if weights.R.shape == (m, m) and not la.is_pd(weights.R):
        rep.add("NotPositiveDefinite", "R")
    return rep

