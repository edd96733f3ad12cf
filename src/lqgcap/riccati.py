"""Discrete Riccati equations and PBH tests.

Every Riccati equation of the library is a RiccatiEquation (Ft, Ht, Q, S, R)
built by filter_equation, control_equation, policy_equation or
upper_bound.damped_equation.  `_solve_dare` reaches its steady state by
structured doubling (the 2^j-th iterate in j steps) and polishes it by
Newton steps.  PBH eigenvector tests check the regularity conditions under
which that limit is the stabilizing solution.  The solvers keep no state:
each call solves, and ProblemConstants.compute decides when a plant's
solution is reused.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

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
    residual is the relative size of its last update kept; regularity holds
    the (name, result) pairs of filter_regularity the solver evaluated."""

    Sigma: np.ndarray
    K_p: np.ndarray
    Psi: np.ndarray
    iterations: int = 0
    residual: float = 0.0
    regularity: tuple[tuple[str, PBHResult], ...] = field(
        default=(), compare=False, repr=False)


@dataclass(frozen=True)
class ControlConstants:
    """Steady-state LQR triple (E, K_LQR, Psi_LQR); iterations, residual
    and regularity (of control_regularity) as in FilterConstants."""

    E: np.ndarray
    K_LQR: np.ndarray
    Psi_LQR: np.ndarray
    iterations: int = 0
    residual: float = 0.0
    regularity: tuple[tuple[str, PBHResult], ...] = field(
        default=(), compare=False, repr=False)


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
    that succeeded; residual is the equation residual ||X - step(X)||_F;
    equation is the policy equation solved, and detectability the PBH test
    of its pair (F + G GammaBar, H + J GammaBar) the solve ran."""

    SigmaHat: np.ndarray
    K_Y: np.ndarray
    Psi_Y: np.ndarray
    iterations: int
    residual: float
    equation: RiccatiEquation = field(compare=False, repr=False)
    detectability: PBHResult = field(compare=False, repr=False)
    bootstrapped: bool = False


class RiccatiEquation(NamedTuple):
    """The recursion X <- Ft X Ft' + Q - K Psi K' with (K, Psi) = gain(X);
    R must be positive definite."""

    Ft: np.ndarray
    Ht: np.ndarray
    Q: np.ndarray
    S: np.ndarray
    R: np.ndarray

    def gain(self, X: np.ndarray):
        """(K, Psi) = ((Ft X Ht' + S) Psi^-1, Ht X Ht' + R) at X."""
        Psi = la.sym(self.Ht @ X @ self.Ht.T + self.R)
        K = la.solve(Psi, self.Ht @ X @ self.Ft.T + self.S.T).T
        return K, Psi

    def step(self, X: np.ndarray) -> np.ndarray:
        return self._step_gain(X)[0]

    def _step_gain(self, X: np.ndarray):
        """The next iterate and the gain (K, Psi) at X that forms it."""
        K, Psi = self.gain(X)
        return la.sym(self.Ft @ X @ self.Ft.T + self.Q - K @ Psi @ K.T), K, Psi

    def closed_loop(self, X: np.ndarray) -> np.ndarray:
        """Ft - K Ht with the gain at X."""
        return self.Ft - self.gain(X)[0] @ self.Ht

    def recursion(self, x0: np.ndarray, steps: int, gains: bool = False):
        """x0 and the next `steps` iterates, steps + 1 matrices in all; with
        gains, also the gains (K, Psi) at the first `steps` iterates, as the
        steps formed them."""
        if steps < 0:
            raise ValueError("steps must be nonnegative")
        trace, formed = [la.sym(la.as_matrix(x0))], []
        for _ in range(steps):
            x, K, Psi = self._step_gain(trace[-1])
            trace.append(x)
            formed.append((K, Psi))
        return (trace, formed) if gains else trace

    def reduced(self):
        """(Ft - S R^-1 Ht, Q - S R^-1 S'): the pair with no cross term."""
        SRinv = la.solve(self.R, self.S.T).T
        return self.Ft - SRinv @ self.Ht, la.sym(self.Q - SRinv @ self.S.T)


def filter_equation(model: SystemModel) -> RiccatiEquation:
    """The one-step prediction-error equation; its gain is (K_p, Psi)."""
    return RiccatiEquation(model.F, model.H, model.W, model.L, model.V)


def control_equation(model: SystemModel,
                     weights: CostWeights) -> RiccatiEquation:
    """The backward LQR equation; its gain is (K_LQR', Psi_LQR)."""
    return RiccatiEquation(model.F.T, model.G.T, weights.Q,
                           np.zeros((model.k, model.m)), weights.R)


def policy_equation(estimator: EstimatorModel,
                    policy: Policy) -> RiccatiEquation:
    """The observer error-covariance equation of a policy; its gain is
    (K_Y, Psi_Y)."""
    G, J, M, K_p, Psi = (estimator.G, estimator.J, policy.M, estimator.K_p,
                         estimator.Psi)
    return RiccatiEquation(
        estimator.F + G @ policy.GammaBar, estimator.H + J @ policy.GammaBar,
        G @ M @ G.T + K_p @ Psi @ K_p.T, G @ M @ J.T + K_p @ Psi,
        J @ M @ J.T + Psi)


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
        return pbh_test(A.T, B.T, "stabilizable")
    if mode not in ("stabilizable", "unit_circle_controllable"):
        raise ValueError(f"unknown mode {mode!r}")
    if B.shape[0] != A.shape[0]:
        raise DimensionMismatch(f"B needs {A.shape[0]} rows, got {B.shape}")

    eigvals = la.eigvals(A)
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
    Fs, Ws = filter_equation(model).reduced()
    Bs = la.psd_sqrt(Ws)
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


def _solve_dare(eq: RiccatiEquation, x0: np.ndarray | None = None,
                accept=None):
    """Limit of eq.recursion from x0 (default 0).

    Structured doubling (Chu, Fan, Lin & Wang, Int. J. Control 77(8), 2004)
    on A = Fr', G = Ht' R^-1 Ht, H = Qr with (Fr, Qr) = eq.reduced(): after
    j doublings the 2^j-th iterate is H_j + A_j' x0 (I + G_j x0)^-1 A_j.  Up
    to NEWTON_STEPS Newton (Hewer) steps, each one Stein equation, then
    polish the limit; a step is kept only if it lowers the equation residual.

    Returns (X, steps, res): doublings plus Newton steps tried, and the size
    of the last update kept relative to its result's, which no scaling of
    the equation changes (absolute at a zero result).  Raises NonConvergence
    on a singular or non-finite update or a doubling limit that fails
    `accept`, MaxIterations after MAX_DOUBLINGS doublings.
    """
    Ft, Ht, Q, S, R = eq
    eye = np.eye(len(Ft))
    Fr, H = eq.reduced()
    A = Fr.T
    G = la.sym(Ht.T @ la.solve(R, Ht))
    X = np.zeros_like(Q) if x0 is None else x0
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for j in range(MAX_DOUBLINGS + 1):
            try:
                if j:
                    W = eye + G @ H
                    WA = la.solve(W, A)
                    A, G, H = (A @ WA,
                               la.sym(G + A @ la.solve(W, G) @ A.T),
                               la.sym(H + A.T @ H @ WA))
                X_next = H if x0 is None else la.sym(
                    H + A.T @ x0 @ la.solve(eye + G @ x0, A))
            except np.linalg.LinAlgError:
                raise NonConvergence(f"singular doubling at step {j}") from None
            res = la.fro(X_next - X) / (la.fro(X_next) or 1.0)
            if not math.isfinite(res):
                raise NonConvergence(f"doubling diverged at step {j}")
            X = X_next
            if res <= REL_TOL:
                break
        else:
            raise MaxIterations(f"no convergence within {MAX_DOUBLINGS} "
                                f"doublings (last residual {res:.3e})")
    if accept is not None and not accept(X):
        raise NonConvergence(f"doubling reached a rejected limit after {j} "
                             f"steps (residual {res:.3e})")

    def newton_data(X):
        # with the gain at X, Acl X Acl' + C is the recursion's image of X
        K, _ = eq.gain(X)
        Acl = Ft - K @ Ht
        C = la.sym(Q - K @ S.T - S @ K.T + K @ R @ K.T)
        return Acl, C, la.fro(Acl @ X @ Acl.T + C - X)

    Acl, C, eq_res = newton_data(X)
    n = len(Acl)
    for j in range(j + 1, j + 1 + NEWTON_STEPS):
        # np.kron(Acl, Acl): entry (a*n + b, c*n + d) is Acl[a, c] Acl[b, d]
        kron = (Acl[:, None, :, None]
                * Acl[None, :, None, :]).reshape(n * n, n * n)
        try:
            vec = la.solve(np.eye(n * n) - kron, C.ravel())
        except np.linalg.LinAlgError:
            break
        X_next = la.sym(vec.reshape(C.shape))
        step = newton_data(X_next)
        if not step[2] < eq_res:
            break
        res = la.fro(X_next - X) / (la.fro(X_next) or 1.0)
        X, (Acl, C, eq_res) = X_next, step
    return X, j, res


def _stabilizing_solution(eq: RiccatiEquation,
                          checks: list[tuple[str, PBHResult]], name: str,
                          loop: str):
    """(X, K, Psi, iterations, residual) at the limit of eq.recursion from 0,
    which must be stabilizing.  A failed doubling raises RegularityViolation
    naming the first failed check, if any; a passing limit with failed
    checks only logs them."""
    failed = [cond for cond, res in checks if not res]
    try:
        X, iters, res = _solve_dare(eq)
    except (NonConvergence, MaxIterations):
        if failed:
            raise RegularityViolation(failed[0]) from None
        raise
    K, Psi = eq.gain(X)
    if la.spectral_radius(eq.Ft - K @ eq.Ht) >= 1.0:
        raise RegularityViolation(
            failed[0] if failed else "stabilizing solution",
            f"closed loop {loop} is not stable at the fixed point")
    if failed:
        log.warning("%s regularity condition failed (%s) but the recursion "
                    "converged to a stabilizing solution", name,
                    "; ".join(failed))
    return X, K, Psi, iters, res


def solve_filter_riccati(model: SystemModel) -> FilterConstants:
    """Stabilizing solution of the one-step prediction-error equation.

    Regularity is checked by filter_regularity.  Failed PBH checks downgrade
    to a warning if the recursion still reaches a stabilizing fixed point.
    """
    la.require_pd(model.V, "V")
    checks = filter_regularity(model)
    *unique, (_, stabilizable) = checks
    if not stabilizable:
        log.warning("filter pair not stabilizable; convergence from Sigma_1 = 0 "
                    "is not guaranteed")
    Sigma, K_p, Psi, iters, res = _stabilizing_solution(
        filter_equation(model), unique, "filter", "F - K_p H")
    return FilterConstants(Sigma=Sigma, K_p=K_p, Psi=Psi,
                           iterations=iters, residual=res,
                           regularity=tuple(checks))


def solve_control_riccati(model: SystemModel,
                          weights: CostWeights) -> ControlConstants:
    """Stabilizing solution of the backward control equation: the limit of
    its recursion from 0, whose first iterate is Q; regularity is checked
    by control_regularity."""
    la.require_pd(weights.R, "R")
    checks = control_regularity(model, weights)
    E, K, PsiL, iters, res = _stabilizing_solution(
        control_equation(model, weights), checks, "control", "F - G K_LQR")
    return ControlConstants(E=E, K_LQR=K.T, Psi_LQR=PsiL,
                            iterations=iters, residual=res,
                            regularity=tuple(checks))


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
    eq = policy_equation(estimator, policy)
    detect = pbh_test(eq.Ft, eq.Ht, "detectable")
    if not detect:
        log.warning("policy pair (F+G GammaBar, H+J GammaBar) not detectable "
                    "(eigenvalue %s); attempting the recursion anyway",
                    detect.eigenvalue)

    def stabilizing(X: np.ndarray) -> bool:
        return la.spectral_radius(eq.closed_loop(X)) < 1.0 - 1e-9

    bootstrapped = False
    try:
        X, iters, _ = _solve_dare(eq, accept=stabilizing)
    except (NonConvergence, MaxIterations) as first_err:
        log.warning("policy Riccati recursion from SigmaHat_1 = 0 failed (%s); "
                    "restarting from a bootstrap step with M_1 = eps*I",
                    first_err)
        eps = 1e-6 * float(np.trace(estimator.Psi)) / estimator.p
        bootstrap = policy_equation(estimator,
                                    replace(policy, M=eps * np.eye(m)))
        x0 = bootstrap.step(np.zeros((k, k)))
        try:
            X, iters, _ = _solve_dare(eq, x0, accept=stabilizing)
            bootstrapped = True
        except (NonConvergence, MaxIterations) as e2:
            if not detect:
                raise DetectabilityFailure(str(e2)) from e2
            raise e2 from first_err

    K_Y, PsiY = eq.gain(X)
    return PolicyRiccatiSolution(SigmaHat=X, K_Y=K_Y, Psi_Y=PsiY,
                                 iterations=iters,
                                 residual=la.fro(X - eq.step(X)),
                                 equation=eq, detectability=detect,
                                 bootstrapped=bootstrapped)
