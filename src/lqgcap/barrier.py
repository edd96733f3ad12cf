"""Primal barrier path-following for determinant-maximization programs.

Programs have the form

    minimize    sum_o w_o * (-log det Obj_o(v))
    subject to  B_c(v) >= 0  (PSD)          for each constraint block c

with every matrix an affine function of the decision vector v.  Linear scalar
inequalities enter as 1x1 blocks.  The composite t*f + phi is self-concordant,
so damped Newton steps with backtracking follow the central path; at parameter
t the objective is within nu/t of optimal, nu being the total barrier
parameter (sum of constraint block dimensions).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import SolverNonConvergence

log = logging.getLogger("lqgcap.barrier")

# Path-following schedule: barrier parameter mu = 1/t shrinks by this factor
# per outer step; Newton line search uses Armijo backtracking.
MU_FACTOR = 0.2
ARMIJO_SLOPE = 0.01
BACKTRACK = 0.5
NEWTON_TOL = 1e-7      # stop centering at Newton decrement below this
MAX_INNER = 400
# The composite t*f + phi is self-concordant for t >= 2 (objective weights
# are 1/2); start there so the damped step 1/(1+lambda) is safe.
T_START = 2.0


class AffineBlock:
    """An affine symmetric-matrix function v -> C0 + sum_j v_j C_j."""

    def __init__(self, const: np.ndarray, basis: np.ndarray):
        self.const = np.asarray(const, dtype=float)
        self.basis = np.asarray(basis, dtype=float)  # (D, d, d)
        self.dim = self.const.shape[0]

    def value(self, v: np.ndarray) -> np.ndarray:
        return self.const + np.tensordot(v, self.basis, axes=(0, 0))

    def chol(self, v: np.ndarray) -> np.ndarray | None:
        """Cholesky factor at v, or None outside the PD cone."""
        s = self.value(v)
        try:
            return np.linalg.cholesky(0.5 * (s + s.T))
        except np.linalg.LinAlgError:
            return None

    def logdet(self, c: np.ndarray) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(c))))

    def grad_hess(self, v: np.ndarray):
        """Gradient and Hessian of -log det at v (both over the full v)."""
        s = 0.5 * (self.value(v) + self.value(v).T)
        try:
            y = np.linalg.solve(s, self.basis)  # broadcast solves
        except np.linalg.LinAlgError:
            # near the end of the path an active block can reach the float64
            # rank boundary; a relative ridge keeps the direction usable
            ridge = 1e-14 * max(float(np.trace(s)) / self.dim, 1.0)
            y = np.linalg.solve(s + ridge * np.eye(self.dim), self.basis)
        g = -np.trace(y, axis1=1, axis2=2)
        h = np.einsum("jab,lba->jl", y, y)
        return g, 0.5 * (h + h.T)


@dataclass
class BarrierProgram:
    """Objective blocks (weight, block) and PSD constraint blocks."""

    objective: list[tuple[float, AffineBlock]]
    constraints: list[AffineBlock]

    @property
    def nu(self) -> float:
        return float(sum(b.dim for b in self.constraints))

    def feasible(self, v: np.ndarray) -> bool:
        return all(b.chol(v) is not None for b in self.constraints)

    def merit(self, v: np.ndarray, t: float) -> float:
        """t*f(v) + phi(v); +inf outside the domain."""
        f = 0.0
        for w, b in self.objective:
            c = b.chol(v)
            if c is None:
                return np.inf
            f -= w * b.logdet(c)
        total = t * f
        if not np.isfinite(total):
            return np.inf
        for b in self.constraints:
            c = b.chol(v)
            if c is None:
                return np.inf
            total -= b.logdet(c)
        return total

    def grad_hess(self, v: np.ndarray, t: float):
        d = v.size
        g = np.zeros(d)
        h = np.zeros((d, d))
        for w, b in self.objective:
            gb, hb = b.grad_hess(v)
            g += t * w * gb
            h += t * w * hb
        for b in self.constraints:
            gb, hb = b.grad_hess(v)
            g += gb
            h += hb
        return g, h

    def min_slacks(self, v: np.ndarray) -> list[float]:
        """Smallest eigenvalue of each constraint block at v."""
        return [float(np.linalg.eigvalsh(0.5 * (b.value(v) + b.value(v).T))[0])
                for b in self.constraints]


@dataclass
class BarrierInfo:
    iterations: int = 0
    t_final: float = 0.0
    duality_gap: float = float("inf")
    newton_decrement: float = float("inf")


def _newton_direction(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    ridge = 0.0
    scale = max(float(np.trace(h)) / h.shape[0], 1.0)
    for _ in range(12):
        try:
            c = np.linalg.cholesky(h + ridge * np.eye(h.shape[0]))
            return -np.linalg.solve(c.T, np.linalg.solve(c, g))
        except np.linalg.LinAlgError:
            ridge = max(ridge * 10.0, 1e-14 * scale)
    return -np.linalg.lstsq(h, g, rcond=None)[0]


def solve_barrier(program: BarrierProgram, v0: np.ndarray, tol: float,
                  max_iter: int = 50_000) -> tuple[np.ndarray, BarrierInfo]:
    """Follow the central path until the duality-gap bound nu/t <= tol.

    v0 must be strictly feasible.  Returns the final iterate and diagnostics.
    Raises SolverNonConvergence if the Newton/line-search budget runs out.
    """
    v = np.asarray(v0, dtype=float).copy()
    if not program.feasible(v):
        raise SolverNonConvergence("initial point is not strictly feasible")
    nu = program.nu
    info = BarrierInfo()
    # keep t * w >= 1 for every objective logdet term so the composite
    # merit stays self-concordant from the first round
    w_min = min((w for w, _ in program.objective), default=1.0)
    t = max(T_START, 1.0 / w_min)
    total = 0
    checkpoint = None           # (v, t) after the last completed round
    while True:
        # center at the current t
        try:
            merit = program.merit(v, t)
            last_lam = np.inf
            floor_streak = 0
            for _ in range(MAX_INNER):
                g, h = program.grad_hess(v, t)
                step = _newton_direction(h, g)
                lam2 = float(-g @ step)
                if not np.isfinite(lam2) or lam2 < 0:
                    step = -g
                    lam2 = float(g @ g)
                lam = np.sqrt(max(lam2, 0.0))
                info.newton_decrement = lam
                if lam <= NEWTON_TOL:
                    break
                # At large t the decrement bottoms out on float64
                # cancellation; a small non-improving decrement means
                # numerically centered.
                floor_streak = floor_streak + 1 if lam >= 0.7 * last_lam else 0
                last_lam = min(last_lam, lam)
                if floor_streak >= 5 and lam <= 1e-3:
                    break
                # Damped Newton: 1/(1+lambda) guarantees decrease for a
                # self-concordant merit; verify, fall back to backtracking.
                alpha = 1.0 if lam <= 0.25 else 1.0 / (1.0 + lam)
                new_merit = np.inf
                while alpha > 1e-16:
                    cand = v + alpha * step
                    new_merit = program.merit(cand, t)
                    if new_merit <= merit - ARMIJO_SLOPE * alpha * lam2:
                        break
                    alpha *= BACKTRACK
                if alpha <= 1e-16 or not np.isfinite(new_merit):
                    # line search failed: accept if nearly centered
                    if lam < 1e-2:
                        break
                    raise SolverNonConvergence(
                        f"line search failed at t={t:.3e} (decrement {lam:.3e})")
                v = v + alpha * step
                merit = new_merit
                total += 1
                if total > max_iter:
                    raise SolverNonConvergence(
                        f"Newton budget {max_iter} exhausted at t={t:.3e}")
        except (np.linalg.LinAlgError, SolverNonConvergence):
            # float64 ran out before the requested gap: fall back to the
            # last fully centered round, whose gap bound is still valid
            if checkpoint is None:
                raise SolverNonConvergence(
                    f"numerical breakdown at t={t:.3e} before any "
                    "completed round") from None
            v, t_done = checkpoint
            log.warning("stopping early at duality gap %.3e (requested %.3e): "
                        "float64 exhausted at t=%.3e", nu / t_done, tol, t)
            info.iterations = total
            info.t_final = t_done
            info.duality_gap = nu / t_done
            return v, info
        checkpoint = (v.copy(), t)
        if nu / t <= tol:
            break
        t /= MU_FACTOR
    info.iterations = total
    info.t_final = t
    info.duality_gap = nu / t
    return v, info


class SymPacker:
    """Pack/unpack a symmetric n x n matrix into its n(n+1)/2 upper triangle."""

    def __init__(self, n: int):
        self.n = n
        self.idx = [(i, j) for i in range(n) for j in range(i, n)]
        self.dim = len(self.idx)

    def basis(self) -> np.ndarray:
        out = np.zeros((self.dim, self.n, self.n))
        for t, (i, j) in enumerate(self.idx):
            out[t, i, j] = 1.0
            out[t, j, i] = 1.0
        return out

    def pack(self, a: np.ndarray) -> np.ndarray:
        return np.array([a[i, j] for (i, j) in self.idx])

    def unpack(self, v: np.ndarray) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for t, (i, j) in enumerate(self.idx):
            a[i, j] = v[t]
            a[j, i] = v[t]
        return a
