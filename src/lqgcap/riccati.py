"""Discrete Riccati equations (filter, control, policy-induced) and PBH tests.

All three steady-state equations are limits of a recursion of one filter
form, which `_solve_dare` reaches by structured doubling (the 2^j-th iterate
in j steps) and polishes by Newton steps.  PBH eigenvector tests check the
regularity conditions under which that limit is the stabilizing solution.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import linalg as la
from .errors import (
    DetectabilityFailure,
    DimensionMismatch,
    MaxIterations,
    NonConvergence,
    RegularityViolation,
)
from .model import CostWeights, EstimatorModel, SystemModel

log = logging.getLogger("lqgcap.riccati")

REL_TOL = 1e-11
MAX_DOUBLINGS = 17  # 2^17 recursion steps
NEWTON_STEPS = 3


@dataclass(frozen=True)
class FilterConstants:
    """Steady-state Kalman filter triple (Sigma, K_p, Psi).

    iterations counts the solver's doublings plus Newton steps tried;
    residual is the relative size of its last update kept."""

    Sigma: np.ndarray
    K_p: np.ndarray
    Psi: np.ndarray
    iterations: int = 0
    residual: float = 0.0


@dataclass(frozen=True)
class ControlConstants:
    """Steady-state LQR triple (E, K_LQR, Psi_LQR); iterations and residual
    as in FilterConstants."""

    E: np.ndarray
    K_LQR: np.ndarray
    Psi_LQR: np.ndarray
    iterations: int = 0
    residual: float = 0.0


@dataclass(frozen=True)
class Policy:
    """Time-invariant input law x = -K_LQR * (observer estimate)
    + GammaBar * (estimation error) + dither with covariance M."""

    GammaBar: np.ndarray
    M: np.ndarray
    K_LQR: np.ndarray
    m_clip: float = 0.0


@dataclass(frozen=True)
class PolicyRiccatiSolution:
    """Fixed point of the policy-induced error-covariance recursion.

    iterations counts the doublings plus Newton steps tried by the solve
    that succeeded; residual is the equation residual ||X - step(X)||_F."""

    SigmaHat: np.ndarray
    K_Y: np.ndarray
    Psi_Y: np.ndarray
    iterations: int
    residual: float
    bootstrapped: bool = False


@dataclass(frozen=True)
class PBHResult:
    """Outcome of an eigenvector PBH test with an optional failure witness."""

    ok: bool
    eigenvalue: complex | None = None
    witness: np.ndarray | None = None
    margin: float = float("inf")

    def __bool__(self) -> bool:
        return self.ok


PBH_TOL = 1e-8


def pbh_test(A: np.ndarray, B: np.ndarray, mode: str) -> PBHResult:
    """Eigenvector rank test for a matrix pair.

    mode 'stabilizable': every left eigenvector of A for |lambda| >= 1 must
    not annihilate B.  mode 'unit_circle_controllable': same for |lambda| = 1.
    mode 'detectable': B is an output map; the dual pair (A^T, B^T) is tested,
    i.e. right eigenvectors of A for |lambda| >= 1 must not be in ker(B).

    On failure the offending eigenvalue and (left-)eigenvector witness are
    returned; margin is the smallest ||x^T B|| / ||x|| over tested modes.
    """
    A = la.as_matrix(A)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    if mode == "detectable":
        if B.shape[1] != A.shape[0]:
            raise DimensionMismatch(f"output map needs {A.shape[0]} columns")
        inner = pbh_test(A.T, B.T, "stabilizable")
        return PBHResult(inner.ok, inner.eigenvalue, inner.witness, inner.margin)
    if mode not in ("stabilizable", "unit_circle_controllable"):
        raise ValueError(f"unknown mode {mode!r}")
    if B.shape[0] != A.shape[0]:
        raise DimensionMismatch(f"B needs {A.shape[0]} rows, got {B.shape}")

    eigvals = np.linalg.eigvals(A)
    if mode == "stabilizable":
        tested = [lam for lam in eigvals if abs(lam) >= 1.0 - 1e-9]
    else:
        tested = [lam for lam in eigvals if abs(abs(lam) - 1.0) <= PBH_TOL]
    margin = float("inf")
    seen: list[complex] = []
    for lam in tested:
        if any(abs(lam - s) <= 1e-8 * max(1.0, abs(s)) for s in seen):
            continue
        seen.append(lam)
        # Left eigenvectors for lam span null(A^T - lam I); the pair fails
        # iff some unit x in that span has x^T B = 0.
        u, s, vh = np.linalg.svd(A.T.astype(complex) - lam * np.eye(A.shape[0]))
        tol_null = max(s[0], 1.0) * 1e-10 if s.size else 0.0
        null_cols = [i for i in range(len(s)) if s[i] <= tol_null]
        if not null_cols:
            null_cols = [len(s) - 1]  # eigenvalue from eigvals: take closest
        N = vh.conj().T[:, null_cols]
        q = N.shape[1]
        Msv = B.T.astype(complex) @ N
        u2, s2, vh2 = np.linalg.svd(Msv, full_matrices=True)
        sigma_q = s2[q - 1] if q <= s2.size else 0.0
        margin = min(margin, float(sigma_q))
        if sigma_q <= PBH_TOL:
            c = vh2[q - 1].conj() if q <= vh2.shape[0] else vh2[-1].conj()
            x = N @ c
            x = x / np.linalg.norm(x)
            return PBHResult(False, complex(lam), x, float(sigma_q))
    return PBHResult(True, None, None, margin)


def filter_regularity(model: SystemModel) -> list[tuple[str, PBHResult]]:
    """PBH conditions of the filter equation, as (name, result) pairs: the
    first two give a unique stabilizing solution, the third convergence from
    Sigma_1 = 0."""
    LVinv = np.linalg.solve(model.V.T, model.L.T).T
    Fs = model.F - LVinv @ model.H
    Bs = la.psd_sqrt(la.sym(model.W - LVinv @ model.L.T))
    pair = "(F - L V^-1 H, W - L V^-1 L^T)"
    return [
        ("(F, H) detectable", pbh_test(model.F, model.H, "detectable")),
        (f"{pair} controllable on the unit circle",
         pbh_test(Fs, Bs, "unit_circle_controllable")),
        (f"{pair} stabilizable", pbh_test(Fs, Bs, "stabilizable")),
    ]


def control_regularity(model: SystemModel,
                       weights: CostWeights) -> list[tuple[str, PBHResult]]:
    """PBH conditions of the control equation, as (name, result) pairs."""
    return [
        ("(F, G) stabilizable", pbh_test(model.F, model.G, "stabilizable")),
        ("(F^T, Q) stabilizable",
         pbh_test(model.F.T, weights.Q, "stabilizable")),
    ]


def _solve_dare(Ft: np.ndarray, Ht: np.ndarray, Q: np.ndarray, S: np.ndarray,
                R: np.ndarray, x0: np.ndarray | None = None, accept=None):
    """Limit from x0 (default 0) of the filter-form recursion
    X <- Ft X Ft' + Q - (Ft X Ht' + S)(Ht X Ht' + R)^-1 (Ft X Ht' + S)'.

    Structured doubling (Chu, Fan, Lin & Wang, Int. J. Control 77(8), 2004)
    on A = (Ft - S R^-1 Ht)', G = Ht' R^-1 Ht, H = Q - S R^-1 S': after j
    doublings the 2^j-th iterate is H_j + A_j' x0 (I + G_j x0)^-1 A_j.  Up to
    NEWTON_STEPS Newton (Hewer) steps, each one Stein equation, then polish
    the limit; a step is kept only if it lowers the equation residual.

    Returns (X, steps, res): doublings plus Newton steps tried, and the
    relative size of the last update kept.  Raises NonConvergence on a non-finite
    update or a doubling limit that fails `accept`, MaxIterations after
    MAX_DOUBLINGS doublings.
    """
    eye = np.eye(len(Ft))
    SRinv = np.linalg.solve(R, S.T).T
    A = (Ft - SRinv @ Ht).T
    G = la.sym(Ht.T @ np.linalg.solve(R, Ht))
    H = la.sym(Q - SRinv @ S.T)
    X = np.zeros_like(Q) if x0 is None else x0
    for j in range(MAX_DOUBLINGS + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            if j:
                W = eye + G @ H
                WA = np.linalg.solve(W, A)
                A, G, H = (A @ WA, la.sym(G + A @ np.linalg.solve(W, G) @ A.T),
                           la.sym(H + A.T @ H @ WA))
            X_next = H if x0 is None else la.sym(
                H + A.T @ x0 @ np.linalg.solve(eye + G @ x0, A))
            res = (float(np.linalg.norm(X_next - X))
                   / (1.0 + float(np.linalg.norm(X_next))))
        if not np.isfinite(res):
            raise NonConvergence(f"doubling diverged at step {j}")
        X = X_next
        if res <= REL_TOL:
            break
    else:
        raise MaxIterations(f"no convergence within {MAX_DOUBLINGS} doublings "
                            f"(last residual {res:.3e})")
    if accept is not None and not accept(X):
        raise NonConvergence(f"doubling reached a rejected limit after {j} "
                             f"steps (residual {res:.3e})")

    def newton_data(X):
        # with the gain at X, Acl X Acl' + C is the recursion's image of X
        K = np.linalg.solve(Ht @ X @ Ht.T + R, Ht @ X @ Ft.T + S.T).T
        Acl = Ft - K @ Ht
        C = la.sym(Q - K @ S.T - S @ K.T + K @ R @ K.T)
        return Acl, C, float(np.linalg.norm(Acl @ X @ Acl.T + C - X))

    Acl, C, eq_res = newton_data(X)
    for j in range(j + 1, j + 1 + NEWTON_STEPS):
        try:
            vec = np.linalg.solve(np.eye(C.size) - np.kron(Acl, Acl), C.ravel())
        except np.linalg.LinAlgError:
            break
        X_next = la.sym(vec.reshape(C.shape))
        step = newton_data(X_next)
        if not step[2] < eq_res:
            break
        res = (float(np.linalg.norm(X_next - X))
               / (1.0 + float(np.linalg.norm(X_next))))
        X, (Acl, C, eq_res) = X_next, step
    return X, j, res


def filter_gain(model: SystemModel, Sigma: np.ndarray):
    """(K_p, Psi) evaluated at a given error covariance."""
    Psi = la.sym(model.H @ Sigma @ model.H.T + model.V)
    K = np.linalg.solve(Psi.T, (model.F @ Sigma @ model.H.T + model.L).T).T
    return K, Psi


def _filter_step(model: SystemModel, Sigma: np.ndarray) -> np.ndarray:
    K, Psi = filter_gain(model, Sigma)
    return model.F @ Sigma @ model.F.T + model.W - K @ Psi @ K.T


def solve_filter_riccati(model: SystemModel) -> FilterConstants:
    """Stabilizing solution of the one-step prediction-error equation.

    Regularity is checked by filter_regularity.  Failed PBH checks downgrade
    to a warning if the recursion still reaches a stabilizing fixed point.
    """
    la.require_pd(model.V, "V")
    *unique, (_, stabilizable) = filter_regularity(model)
    failed = [name for name, res in unique if not res]
    if not stabilizable:
        log.warning("filter pair not stabilizable; convergence from Sigma_1 = 0 "
                    "is not guaranteed")

    try:
        Sigma, iters, res = _solve_dare(model.F, model.H, model.W, model.L,
                                        model.V)
    except (NonConvergence, MaxIterations):
        if failed:
            raise RegularityViolation(failed[0]) from None
        raise
    K_p, Psi = filter_gain(model, Sigma)
    if la.spectral_radius(model.F - K_p @ model.H) >= 1.0:
        raise RegularityViolation(
            failed[0] if failed else "stabilizing solution",
            "closed loop F - K_p H is not stable at the fixed point")
    if failed:
        log.warning("filter regularity condition failed (%s) but the recursion "
                    "converged to a stabilizing solution", "; ".join(failed))
    return FilterConstants(Sigma=Sigma, K_p=K_p, Psi=Psi,
                           iterations=iters, residual=res)


def control_gain(model: SystemModel, weights: CostWeights, E: np.ndarray):
    """(K_LQR, Psi_LQR) evaluated at a given cost-to-go matrix."""
    PsiL = la.sym(weights.R + model.G.T @ E @ model.G)
    K = np.linalg.solve(PsiL, model.G.T @ E @ model.F)
    return K, PsiL


def _control_step(model: SystemModel, weights: CostWeights,
                  E: np.ndarray) -> np.ndarray:
    K, PsiL = control_gain(model, weights, E)
    return model.F.T @ E @ model.F + weights.Q - K.T @ PsiL @ K


def solve_control_riccati(model: SystemModel,
                          weights: CostWeights) -> ControlConstants:
    """Stabilizing solution of the backward control equation: the limit of
    its recursion from 0, whose first iterate is Q."""
    la.require_pd(weights.R, "R")
    failed = [name for name, res in control_regularity(model, weights)
              if not res]
    try:
        E, iters, res = _solve_dare(model.F.T, model.G.T, weights.Q,
                                    np.zeros((model.k, model.m)), weights.R)
    except (NonConvergence, MaxIterations):
        if failed:
            raise RegularityViolation(failed[0]) from None
        raise
    K, PsiL = control_gain(model, weights, E)
    if la.spectral_radius(model.F - model.G @ K) >= 1.0:
        raise RegularityViolation(
            failed[0] if failed else "stabilizing solution",
            "closed loop F - G K_LQR is not stable at the fixed point")
    if failed:
        log.warning("control regularity condition failed (%s) but the recursion "
                    "converged to a stabilizing solution", "; ".join(failed))
    return ControlConstants(E=E, K_LQR=K, Psi_LQR=PsiL,
                            iterations=iters, residual=res)


def policy_innovation(estimator: EstimatorModel, policy: Policy,
                      SigmaHat: np.ndarray, M: np.ndarray | None = None):
    """(K_Y, Psi_Y) of the observer filter at a given error covariance."""
    if M is None:
        M = policy.M
    Ft = estimator.F + estimator.G @ policy.GammaBar
    Ht = estimator.H + estimator.J @ policy.GammaBar
    PsiY = la.sym(Ht @ SigmaHat @ Ht.T + estimator.J @ M @ estimator.J.T
                  + estimator.Psi)
    C = (Ft @ SigmaHat @ Ht.T + estimator.G @ M @ estimator.J.T
         + estimator.K_p @ estimator.Psi)
    K_Y = la.solve_pd(PsiY, C.T).T
    return K_Y, PsiY


def _policy_step(estimator: EstimatorModel, policy: Policy,
                 X: np.ndarray, M: np.ndarray) -> np.ndarray:
    Ft = estimator.F + estimator.G @ policy.GammaBar
    K_Y, PsiY = policy_innovation(estimator, policy, X, M)
    return (Ft @ X @ Ft.T + estimator.G @ M @ estimator.G.T
            + estimator.K_p @ estimator.Psi @ estimator.K_p.T
            - K_Y @ PsiY @ K_Y.T)


def solve_policy_riccati(estimator: EstimatorModel,
                         policy: Policy) -> PolicyRiccatiSolution:
    """Limit of the observer error-covariance recursion from SigmaHat_1 = 0.

    With a singular dither covariance M that limit may be a non-maximal,
    non-stabilizing fixed point (the map keeps 0 fixed); it is rejected, and
    a single bootstrap step with M_1 = eps*I followed by the time-invariant
    policy restarts the recursion strictly inside the basin of the maximal
    solution.
    """
    k, m = estimator.k, estimator.m
    if policy.GammaBar.shape != (m, k) or policy.M.shape != (m, m):
        raise DimensionMismatch("policy dimensions do not match the estimator")
    Ft = estimator.F + estimator.G @ policy.GammaBar
    Ht = estimator.H + estimator.J @ policy.GammaBar
    detect = pbh_test(Ft, Ht, "detectable")
    if not detect:
        log.warning("policy pair (F+G GammaBar, H+J GammaBar) not detectable "
                    "(eigenvalue %s); attempting the recursion anyway",
                    detect.eigenvalue)

    def stabilizing(X: np.ndarray) -> bool:
        K_Y, _ = policy_innovation(estimator, policy, X)
        return la.spectral_radius(Ft - K_Y @ Ht) < 1.0 - 1e-9

    G, J, M, K_p, Psi = (estimator.G, estimator.J, policy.M, estimator.K_p,
                         estimator.Psi)
    equation = (Ft, Ht, G @ M @ G.T + K_p @ Psi @ K_p.T,
                G @ M @ J.T + K_p @ Psi, J @ M @ J.T + Psi)
    bootstrapped = False
    try:
        X, iters, _ = _solve_dare(*equation, accept=stabilizing)
    except (NonConvergence, MaxIterations) as first_err:
        eps = 1e-6 * float(np.trace(Psi)) / estimator.p
        x0 = la.sym(_policy_step(estimator, policy, np.zeros((k, k)),
                                 eps * np.eye(m)))
        try:
            X, iters, _ = _solve_dare(*equation, x0, accept=stabilizing)
            bootstrapped = True
        except (NonConvergence, MaxIterations) as e2:
            if not detect:
                raise DetectabilityFailure(str(e2)) from e2
            raise e2 from first_err

    K_Y, PsiY = policy_innovation(estimator, policy, X)
    eq_res = float(np.linalg.norm(X - la.sym(_policy_step(estimator, policy, X,
                                                          policy.M))))
    return PolicyRiccatiSolution(SigmaHat=X, K_Y=K_Y, Psi_Y=PsiY,
                                 iterations=iters, residual=eq_res,
                                 bootstrapped=bootstrapped)


def riccati_recursion(kind: str, steps: int, *, model: SystemModel | None = None,
                      weights: CostWeights | None = None,
                      estimator: EstimatorModel | None = None,
                      policy: Policy | None = None,
                      start: np.ndarray | None = None) -> list[np.ndarray]:
    """Exact finite recursion trace for one of the three Riccati recursions.

    'filter' and 'policy' run forward (default starts: model.Sigma1 and 0);
    'control' runs backward from the terminal weight Q.  The returned list
    holds steps+1 matrices in iteration order, initial value first.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if kind == "filter":
        if model is None:
            raise DimensionMismatch("filter recursion needs a model")
        x0, step = model.Sigma1, partial(_filter_step, model)
    elif kind == "control":
        if model is None or weights is None:
            raise DimensionMismatch("control recursion needs a model and weights")
        x0, step = weights.Q, partial(_control_step, model, weights)
    elif kind == "policy":
        if estimator is None or policy is None:
            raise DimensionMismatch("policy recursion needs an estimator and policy")
        x0 = np.zeros((estimator.k, estimator.k))
        step = partial(_policy_step, estimator, policy, M=policy.M)
    else:
        raise ValueError(f"unknown recursion kind {kind!r}")
    x = la.sym(x0 if start is None else la.as_matrix(start))
    trace = [x]
    for _ in range(steps):
        x = la.sym(step(x))
        trace.append(x)
    return trace
