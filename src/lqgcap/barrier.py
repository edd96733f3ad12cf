"""Primal barrier path-following for determinant-maximization programs.

Programs have the form

    minimize    sum_o w_o * (-log det Obj_o(v))
    subject to  B_c(v) >= 0  (PSD)          for each constraint block c

with every matrix an affine function of the decision vector v.  Linear scalar
inequalities enter as 1x1 blocks.  The composite t*f + phi is self-concordant,
so damped Newton steps follow the central path as t grows.  Each Newton step
also gives a dual point of the maxdet dual (Vandenberghe, Boyd & Wu, SIAM J.
Matrix Anal. Appl. 19(2), 1998; Boyd & Vandenberghe, Convex Optimization,
11.2.2): W_o = w_o (O^-1 - O^-1 dO O^-1) and Z_c = (B^-1 - B^-1 dB B^-1)/t,
where dO and dB are the blocks' changes along the step.  The Newton equation
is the dual equality, so when the point is dual feasible f(v) minus its dual
objective is a certified duality gap; the solver stops on that gap.

BarrierProgram stacks every block, objective or constraint, when it is
built: B blocks become one (B, d, d) constant and one (B*d*d, D) basis, d
the largest block size.  A smaller block is padded with an identity, zero
basis rows and a constant I on the pad's diagonal, which adds log 1 = 0 to
the merit and the gap and zero rows to the Newton system.  The merit takes
one matrix-vector product and one batched Cholesky factorization
S = L L^T; the log-dets are the factors' diagonals, weighted by t*w for
objective blocks and by 1 for constraint blocks.  The Newton system is
formed from the same factors, kept from the merit evaluation at the
accepted point: with Y_j = L^-1 C_j L^-T per block, from one batched
inverse of the factors, the gradient is -sum w tr Y_j and the Hessian is one
product of the flattened, weight-scaled Y with itself.  The gap reuses the
same rows: E = sum_j step_j Y_j per block, and one batched Cholesky
factorization of I - E tests dual feasibility and gives log det(I - E).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverNonConvergence
from .linalg import sym

log = logging.getLogger("lqgcap.barrier")

# Path-following schedule: barrier parameter mu = 1/t shrinks by this factor
# per round; a round ends at Newton decrement CENTRED, and a damped step that
# leaves the domain is shortened by BACKTRACK.
MU_FACTOR = 0.2
CENTRED = 0.25
BACKTRACK = 0.5
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


class BarrierProgram:
    """Objective blocks (weight, block) and PSD constraint blocks, stacked
    into one padded (B, d, d) stack when the program is built."""

    def __init__(self, objective: list[tuple[float, AffineBlock]],
                 constraints: list[AffineBlock]):
        self.objective = list(objective)
        self.constraints = list(constraints)
        self.nu = float(sum(b.dim for b in self.constraints))  # barrier parameter
        # (weight, block, is a constraint), sorted by size and stable within
        # a size, so the Newton rows keep the order of one stack per size
        # with only zero rows inserted
        entries = sorted([(float(w), b, False) for w, b in self.objective]
                         + [(0.0, b, True) for b in self.constraints],
                         key=lambda e: e[1].dim)
        d = max(b.dim for _, b, _ in entries)
        self._shape = (len(entries), d, d)
        const = np.tile(np.eye(d), (len(entries), 1, 1))
        basis = np.zeros(self._shape + (entries[0][1].basis.shape[0],))
        for k, (_, b, _) in enumerate(entries):
            const[k, :b.dim, :b.dim] = sym(b.const)
            # entry (a, c) holds the coefficients of the block's entry (a, c)
            basis[k, :b.dim, :b.dim] = np.moveaxis(sym(b.basis), 0, -1)
        self._const = const.ravel()
        # F order whatever the blocks' layout: the layout picks the BLAS
        # kernels, hence the Newton path
        self._basis = np.asfortranarray(basis.reshape(self._const.size, -1))
        self._con = np.array([con for _, _, con in entries])
        self._w_obj = np.repeat([w for w, _, _ in entries], d * d)
        self._w_con = np.repeat(self._con, d * d).astype(float)
        # the blocks' own diagonal entries, without the pads'
        self._diag_idx = np.concatenate(
            [k * d * d + (d + 1) * np.arange(b.dim)
             for k, (_, b, _) in enumerate(entries)])
        self._is_diag = np.zeros(self._const.size)
        self._is_diag[self._diag_idx] = 1.0
        # objective and constraint weights of each diagonal entry
        self._w_diag = np.stack([self._w_obj[self._diag_idx],
                                 self._w_con[self._diag_idx]])
        self._eye = np.eye(d)
        self._key: bytes | None = None     # the v whose factors _chol holds
        self._chol: np.ndarray | None = None
        self._newton_rows = None            # (z, root_w, t) of grad_hess

    def _values(self, v: np.ndarray) -> np.ndarray:
        """Every block's padded value at v, as one (B, d, d) stack."""
        return (self._const + self._basis @ v).reshape(self._shape)

    def _factors(self, v: np.ndarray) -> np.ndarray:
        """Cholesky factors of every block at v, kept for the next call at
        the same v; raises LinAlgError outside the PD cone."""
        v = np.asarray(v, dtype=float)
        key = v.tobytes()
        if key != self._key:
            self._chol = np.linalg.cholesky(self._values(v))
            self._key = key
        return self._chol

    def feasible(self, v: np.ndarray) -> bool:
        """Whether every constraint block is PD at v."""
        s = self._values(np.asarray(v, dtype=float))
        try:
            np.linalg.cholesky(s[self._con])
        except np.linalg.LinAlgError:
            return False
        return True

    def merit(self, v: np.ndarray, t: float) -> float:
        """t*f(v) + phi(v); +inf outside the domain."""
        try:
            factors = self._factors(v)
        except np.linalg.LinAlgError:
            return np.inf
        log_diag = np.log(factors.ravel()[self._diag_idx])
        obj, con = self._w_diag @ log_diag
        total = -2.0 * float(t * obj + con)
        return total if math.isfinite(total) else np.inf

    def grad_hess(self, v: np.ndarray, t: float):
        """Gradient and Hessian of the merit at v, from the factors at v.

        With S_b = L_b L_b^T and Y_bj = L_b^-1 C_bj L_b^-T, the gradient is
        -sum_b w_b tr Y_bj and the Hessian sum_b w_b <Y_bj, Y_bl>.  The
        weight-scaled rows are kept for duality_gap."""
        self._newton_rows = None     # never hold two sets of rows at once
        factors = self._factors(v)
        (n, d, _), dim = factors.shape, self._basis.shape[1]
        inv = np.linalg.inv(factors)
        # L^-1 C_j for every j at once, then L^-1 (L^-1 C_j)^T = Y_j
        half = inv @ self._basis.reshape(n, d, d * dim)
        half = half.reshape(n, d, d, dim).transpose(0, 2, 1, 3)
        rows = (inv @ half.reshape(n, d, d * dim)).reshape(-1, dim)
        root_w = np.sqrt(t * self._w_obj + self._w_con)
        z = rows * root_w[:, None]
        self._newton_rows = (z, root_w, t)
        return -(root_w * self._is_diag) @ z, z.T @ z

    def duality_gap(self, step: np.ndarray) -> float:
        """f(v) - g(W, Z) at the dual point of a Newton step from the last
        grad_hess call at (v, t); +inf when that point is not dual feasible.

        With E_b = sum_j step_j Y_bj, i.e. L_b^-1 dS_b L_b^-T for the change
        dS_b of block b along the step, the dual point is
        W_o = w_o S_o^-1/2 (I - E_o) S_o^-1/2 for each objective block and
        Z_c = (1/t) S_c^-1/2 (I - E_c) S_c^-1/2 for each constraint block.
        The Newton equation is their dual equality, so when every I - E_b is
        PD the gap sum_c (d_c - tr E_c)/t - sum_o w_o (log det(I - E_o)
        + tr E_o) bounds f(v) minus the optimum from above."""
        z, root_w, t = self._newton_rows
        e = (z @ step) / root_w
        try:
            factors = np.linalg.cholesky(self._eye - e.reshape(self._shape))
        except np.linalg.LinAlgError:
            return np.inf
        log_det, _ = self._w_diag @ np.log(factors.ravel()[self._diag_idx])
        tr_obj, tr_con = self._w_diag @ e[self._diag_idx]
        return float((self.nu - tr_con) / t - 2.0 * log_det - tr_obj)

    def min_slacks(self, v: np.ndarray) -> list[float]:
        """Smallest eigenvalue of each constraint block at v."""
        return [float(np.linalg.eigvalsh(b.value(v))[0])
                for b in self.constraints]


@dataclass
class BarrierInfo:
    iterations: int = 0
    t_final: float = 0.0
    duality_gap: float = float("inf")
    newton_decrement: float = float("inf")


def _newton_direction(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """-h^-1 g by one solve, once a Cholesky factorization has shown h
    positive definite; a failed factorization retries with a ridge that
    starts at 1e-14 of h's mean diagonal and grows tenfold, and least
    squares takes over after 12 tries."""
    scale = max(float(np.trace(h)) / h.shape[0], 1.0)
    a, ridge = h, 0.0
    for _ in range(12):
        try:
            np.linalg.cholesky(a)
            return -np.linalg.solve(a, g)
        except np.linalg.LinAlgError:
            ridge = max(ridge * 10.0, 1e-14 * scale)
            a = h + ridge * np.eye(h.shape[0])
    return -np.linalg.lstsq(h, g, rcond=None)[0]


def solve_barrier(program: BarrierProgram, v0: np.ndarray, tol: float,
                  max_iter: int = 50_000) -> tuple[np.ndarray, BarrierInfo]:
    """Follow the central path until the certified duality gap is <= tol.

    Every Newton step gives a dual point and its gap
    (BarrierProgram.duality_gap); the solve returns the first iterate whose
    gap is at most tol.  A round at parameter t ends once the Newton
    decrement is at most CENTRED, and t then grows by 1/MU_FACTOR.  Steps are
    damped by 1/(1+lambda) and halved only while they leave the merit's
    domain.

    v0 must be strictly feasible.  Float64 can run out before the gap
    reaches tol: a factorization fails, no step stays in the domain, the
    Newton budget max_iter is spent, or a round ends uncertified although
    nu/t <= MU_FACTOR * tol, where an exactly centred point would certify.
    The iterate with the smallest gap so far is then returned with a
    warning, and SolverNonConvergence is raised if no gap was finite.
    """
    v = np.asarray(v0, dtype=float).copy()
    if not program.feasible(v):
        raise SolverNonConvergence("initial point is not strictly feasible")
    nu = program.nu
    # keep t * w >= 1 for every objective logdet term so the composite
    # merit stays self-concordant from the first round
    w_min = min((w for w, _ in program.objective), default=1.0)
    t = max(T_START, 1.0 / w_min)
    best = (np.inf, v, t, np.inf)       # (gap, iterate, t, decrement)
    total = 0
    stop = None
    try:
        while True:
            program.merit(v, t)
            for _ in range(MAX_INNER):
                g, h = program.grad_hess(v, t)
                step = _newton_direction(h, g)
                lam = math.sqrt(max(float(-g @ step), 0.0))
                if not math.isfinite(lam):
                    raise SolverNonConvergence(
                        f"Newton step not finite at t={t:.3e}")
                gap = program.duality_gap(step)
                if gap < best[0]:
                    best = (gap, v, t, lam)
                if gap <= tol or lam <= CENTRED:
                    break
                # damped Newton: 1/(1+lambda) stays in the domain and lowers
                # a self-concordant merit; halve only if float64 leaves it
                alpha = 1.0 / (1.0 + lam)
                while not math.isfinite(program.merit(v + alpha * step, t)):
                    alpha *= BACKTRACK
                    if alpha < 1e-16:
                        raise SolverNonConvergence(
                            f"no step stays in the domain at t={t:.3e}")
                v = v + alpha * step
                total += 1
                if total > max_iter:
                    raise SolverNonConvergence(
                        f"Newton budget {max_iter} exhausted at t={t:.3e}")
            if gap <= tol:
                break
            if nu / t <= MU_FACTOR * tol:
                raise SolverNonConvergence(f"round at nu/t={nu / t:.3e} "
                                           "ended uncertified")
            t /= MU_FACTOR
    except (np.linalg.LinAlgError, SolverNonConvergence) as err:
        stop = err
    gap, v, t_best, lam = best
    if not math.isfinite(gap):
        raise SolverNonConvergence(
            f"numerical breakdown before any certified point: {stop}")
    if stop is not None:
        log.warning("stopping early at duality gap %.3e (requested %.3e): "
                    "float64 exhausted at t=%.3e (%s)", gap, tol, t, stop)
    return v, BarrierInfo(iterations=total, t_final=t_best, duality_gap=gap,
                          newton_decrement=lam)


class SymPacker:
    """Pack/unpack a symmetric n x n matrix, or each in a stack, into its
    n(n+1)/2 upper triangle."""

    def __init__(self, n: int):
        self.rows, self.cols = np.triu_indices(n)
        self.dim = self.rows.size
        # the packed coordinate that holds each entry of the matrix
        idx = np.arange(self.dim)
        self.pos = np.empty((n, n), dtype=int)
        self.pos[self.rows, self.cols] = self.pos[self.cols, self.rows] = idx

    def basis(self) -> np.ndarray:
        return self.unpack(np.eye(self.dim))

    def pack(self, a: np.ndarray) -> np.ndarray:
        return a[..., self.rows, self.cols]

    def unpack(self, v: np.ndarray) -> np.ndarray:
        return np.take(v, self.pos, axis=-1)
