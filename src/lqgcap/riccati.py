"""Discrete Riccati equations (filter, control, policy-induced) and PBH tests.

All three steady-state equations are solved by their own fixed-point
recursions, which converge geometrically under the standard regularity
conditions; PBH eigenvector tests check those conditions.
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

MAX_ITER = 100_000
REL_TOL = 1e-11
STALL_WINDOW = 500


@dataclass(frozen=True)
class FilterConstants:
    """Steady-state Kalman filter triple (Sigma, K_p, Psi)."""

    Sigma: np.ndarray
    K_p: np.ndarray
    Psi: np.ndarray
    iterations: int = 0
    residual: float = 0.0


@dataclass(frozen=True)
class ControlConstants:
    """Steady-state LQR triple (E, K_LQR, Psi_LQR)."""

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
    """Fixed point of the policy-induced error-covariance recursion."""

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


def _iterate(step, x0: np.ndarray, rel_tol: float = REL_TOL,
             max_iter: int = MAX_ITER, accept=None):
    """Run x <- step(x) until the update is relatively small.

    Returns (x, iterations, last_residual).  When `accept` is given, a point
    meeting the residual criterion is only returned if accept(x) holds;
    repeated rejections at a fixed point raise NonConvergence (the recursion
    is parked somewhere it should not terminate, e.g. a non-stabilizing
    fixed point whose transit is below the residual floor).

    Stagnation is flagged when the residual stops improving over a window
    AND the iterate has barely moved across it (an oscillation or hard
    plateau); slow monotone transits, such as the escape from a near-neutral
    fixed point, keep moving and are left to run.  Raises NonConvergence on
    stagnation, MaxIterations at the cap.
    """
    x = la.sym(x0)
    history: list[float] = []
    x_snap = x.copy()
    res_prev_window = np.inf
    rejected = 0
    for i in range(1, max_iter + 1):
        x_next = la.sym(step(x))
        res = float(np.linalg.norm(x_next - x)) / (1.0 + float(np.linalg.norm(x_next)))
        x = x_next
        if res <= rel_tol:
            if accept is None or accept(x):
                return x, i, res
            rejected += 1
            if rejected >= 100:
                raise NonConvergence(
                    f"parked at a rejected fixed point after {i} iterations "
                    f"(residual {res:.3e})", residuals=history[-20:])
        else:
            rejected = 0
        history.append(res)
        if not np.isfinite(res):
            raise NonConvergence(f"residual diverged at iteration {i}",
                                 residuals=history[-20:])
        if i % STALL_WINDOW == 0:
            # Stagnation needs BOTH signs: the iterate stayed confined (a
            # sustained transit of ratio r drifts by res * r/(r-1) >> res per
            # window, while oscillations cancel), AND the residual stopped
            # shrinking (slowly converging spirals look confined because
            # rotation cancels their drift, but their residual still decays).
            moved = float(np.linalg.norm(x - x_snap))
            scale = 1.0 + float(np.linalg.norm(x))
            if moved < 5.0 * res * scale and res >= 0.98 * res_prev_window:
                if res <= 100.0 * rel_tol and (accept is None or accept(x)):
                    log.warning("recursion stalled at residual %.3e; accepting",
                                res)
                    return x, i, res
                raise NonConvergence(
                    f"residual plateaued at {res:.3e} after {i} iterations",
                    residuals=history[-20:],
                )
            x_snap = x.copy()
            res_prev_window = res
    raise MaxIterations(f"no convergence within {max_iter} iterations "
                        f"(last residual {history[-1]:.3e})")


def _filter_step(model: SystemModel, Sigma: np.ndarray) -> np.ndarray:
    F, H, W, V, L = model.F, model.H, model.W, model.V, model.L
    Psi = H @ Sigma @ H.T + V
    K = np.linalg.solve(Psi.T, (F @ Sigma @ H.T + L).T).T
    return F @ Sigma @ F.T + W - K @ Psi @ K.T


def filter_gain(model: SystemModel, Sigma: np.ndarray):
    """(K_p, Psi) evaluated at a given error covariance."""
    Psi = la.sym(model.H @ Sigma @ model.H.T + model.V)
    K = np.linalg.solve(Psi.T, (model.F @ Sigma @ model.H.T + model.L).T).T
    return K, Psi


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
        Sigma, iters, res = _iterate(lambda S: _filter_step(model, S),
                                     np.zeros((model.k, model.k)))
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


def _control_step(model: SystemModel, weights: CostWeights,
                  E: np.ndarray) -> np.ndarray:
    F, G = model.F, model.G
    PsiL = weights.R + G.T @ E @ G
    K = np.linalg.solve(PsiL, G.T @ E @ F)
    return F.T @ E @ F + weights.Q - K.T @ PsiL @ K


def control_gain(model: SystemModel, weights: CostWeights, E: np.ndarray):
    """(K_LQR, Psi_LQR) evaluated at a given cost-to-go matrix."""
    PsiL = la.sym(weights.R + model.G.T @ E @ model.G)
    K = np.linalg.solve(PsiL, model.G.T @ E @ model.F)
    return K, PsiL


def solve_control_riccati(model: SystemModel,
                          weights: CostWeights) -> ControlConstants:
    """Stabilizing solution of the backward control equation, iterated from Q."""
    la.require_pd(weights.R, "R")
    failed = [name for name, res in control_regularity(model, weights)
              if not res]
    try:
        E, iters, res = _iterate(lambda X: _control_step(model, weights, X),
                                 weights.Q)
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


def _bootstrap_eps(estimator: EstimatorModel) -> float:
    return 1e-6 * float(np.trace(estimator.Psi)) / estimator.p


def solve_policy_riccati(estimator: EstimatorModel,
                         policy: Policy) -> PolicyRiccatiSolution:
    """Limit of the observer error-covariance recursion from SigmaHat_1 = 0.

    With a singular dither covariance M the recursion may stall at a
    non-maximal fixed point (the map keeps 0 fixed); the remedy is a single
    bootstrap step with M_1 = eps*I followed by the time-invariant policy,
    which restarts the recursion strictly inside the basin of the maximal
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

    def run(bootstrap: bool):
        x0 = np.zeros((k, k))
        if bootstrap:
            eps = _bootstrap_eps(estimator)
            x0 = la.sym(_policy_step(estimator, policy, x0,
                                     eps * np.eye(m)))
        return _iterate(lambda X: _policy_step(estimator, policy, X, policy.M),
                        x0, accept=stabilizing)

    # The recursion may park at a non-maximal fixed point (the map keeps the
    # zero matrix fixed when M is singular, and transits near it can fall
    # below the residual floor); the acceptance test rejects those parks and
    # the bootstrap restarts strictly inside the basin of the maximal
    # solution.
    bootstrapped = False
    try:
        X, iters, res = run(bootstrap=False)
    except (NonConvergence, MaxIterations) as first_err:
        try:
            X, iters, res = run(bootstrap=True)
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
