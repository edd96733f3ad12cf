"""Primal barrier path-following for determinant-maximization programs.

Programs have the form

    minimize    sum_o w_o * (-log det Obj_o(v))
    subject to  B_c(v) >= 0  (PSD)          for each constraint block c

with every matrix an affine function of the decision vector v.  Linear scalar
inequalities enter as 1x1 blocks.  The composite t*f + phi is self-concordant,
so damped Newton steps with backtracking follow the central path; at parameter
t the objective is within nu/t of optimal, nu being the total barrier
parameter (sum of constraint block dimensions).

BarrierProgram stacks every block of one size d, objective or constraint,
when it is built: B blocks become one (B, d, d) constant and one (B*d*d, D)
basis.  The merit takes one matrix-vector product for all blocks and one
batched Cholesky factorization S = L L^T per block size; the log-dets are
the factors' diagonals, weighted by t*w for objective blocks and by 1 for
constraint blocks.  The Newton system is formed from the same factors, kept
from the merit evaluation at the accepted point: with Y_j = L^-1 C_j L^-T
per block, the gradient is -sum w tr Y_j and the Hessian is one product of
the flattened, weight-scaled Y with itself.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SolverNonConvergence
from .linalg import sym

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


class _SizeGroup(NamedTuple):
    """The B blocks of one size d: entries sl of the stacked values reshape
    to (B, d, d); con marks the constraint blocks among them and cidx gives
    their positions in BarrierProgram.constraints."""

    d: int
    sl: slice
    con: np.ndarray
    cidx: np.ndarray


class BarrierProgram:
    """Objective blocks (weight, block) and PSD constraint blocks, stacked
    by block size when the program is built."""

    def __init__(self, objective: list[tuple[float, AffineBlock]],
                 constraints: list[AffineBlock]):
        self.objective = list(objective)
        self.constraints = list(constraints)
        n_obj = len(self.objective)
        blocks = [b for _, b in self.objective] + self.constraints
        # objective weight of each block, 0 for a constraint block
        weights = [w for w, _ in self.objective] + [0.0] * len(self.constraints)
        consts, bases, w_obj, self._groups = [], [], [], []
        start = 0
        for d in sorted({b.dim for b in blocks}):
            idx = np.array([i for i, b in enumerate(blocks) if b.dim == d])
            consts += [sym(blocks[i].const).ravel() for i in idx]
            # row (a, c) of a block holds the coefficients of its entry (a, c)
            bases += [sym(blocks[i].basis).reshape(-1, d * d).T for i in idx]
            w_obj += [np.full(d * d, float(weights[i])) for i in idx]
            con = idx >= n_obj
            stop = start + idx.size * d * d
            self._groups.append(_SizeGroup(d, slice(start, stop), con,
                                           idx[con] - n_obj))
            start = stop
        self._const = np.concatenate(consts)
        self._basis = np.concatenate(bases)          # (N, D)
        self._w_obj = np.concatenate(w_obj)
        self._w_con = np.concatenate([np.repeat(g.con, g.d * g.d)
                                      for g in self._groups]).astype(float)
        diag = np.concatenate([np.tile(np.eye(g.d, dtype=bool).ravel(),
                                       g.con.size) for g in self._groups])
        self._is_diag = diag.astype(float)
        self._diag_idx = np.flatnonzero(diag)
        # objective and constraint weights of each diagonal entry
        self._w_diag = np.stack([self._w_obj[diag], self._w_con[diag]])
        self._key: bytes | None = None     # the v whose factors _chol holds
        self._chol: list[np.ndarray] = []

    @property
    def nu(self) -> float:
        return float(sum(b.dim for b in self.constraints))

    def _values(self, v: np.ndarray) -> np.ndarray:
        """Every block's entries at v, stacked in group order."""
        return self._const + self._basis @ v

    def _stack(self, s: np.ndarray, g: _SizeGroup) -> np.ndarray:
        return s[g.sl].reshape(-1, g.d, g.d)

    def _factors(self, v: np.ndarray) -> list[np.ndarray]:
        """Cholesky factors of every group at v, kept for the next call at
        the same v; raises LinAlgError outside the PD cone."""
        v = np.asarray(v, dtype=float)
        key = v.tobytes()
        if key != self._key:
            s = self._values(v)
            self._chol = [np.linalg.cholesky(self._stack(s, g))
                          for g in self._groups]
            self._key = key
        return self._chol

    def feasible(self, v: np.ndarray) -> bool:
        """Whether every constraint block is PD at v."""
        s = self._values(np.asarray(v, dtype=float))
        try:
            for g in self._groups:
                np.linalg.cholesky(self._stack(s, g)[g.con])
        except np.linalg.LinAlgError:
            return False
        return True

    def merit(self, v: np.ndarray, t: float) -> float:
        """t*f(v) + phi(v); +inf outside the domain."""
        try:
            factors = self._factors(v)
        except np.linalg.LinAlgError:
            return np.inf
        entries = np.concatenate([c.ravel() for c in factors])
        log_diag = np.log(entries[self._diag_idx])
        obj, con = self._w_diag @ log_diag
        total = -2.0 * float(t * obj + con)
        return total if math.isfinite(total) else np.inf

    def grad_hess(self, v: np.ndarray, t: float):
        """Gradient and Hessian of the merit at v, from the factors at v.

        With S_b = L_b L_b^T and Y_bj = L_b^-1 C_bj L_b^-T, the gradient is
        -sum_b w_b tr Y_bj and the Hessian sum_b w_b <Y_bj, Y_bl>."""
        factors = self._factors(v)
        dim = self._basis.shape[1]
        rows = []
        for g, c in zip(self._groups, factors):
            n, d = c.shape[0], g.d
            inv = np.linalg.inv(c)
            # L^-1 C_j for every j at once, then L^-1 (L^-1 C_j)^T = Y_j
            half = inv @ self._basis[g.sl].reshape(n, d, d * dim)
            half = half.reshape(n, d, d, dim).transpose(0, 2, 1, 3)
            rows.append((inv @ half.reshape(n, d, d * dim)).reshape(-1, dim))
        root_w = np.sqrt(t * self._w_obj + self._w_con)
        z = np.concatenate(rows) * root_w[:, None]
        return -(root_w * self._is_diag) @ z, z.T @ z

    def min_slacks(self, v: np.ndarray) -> list[float]:
        """Smallest eigenvalue of each constraint block at v."""
        s = self._values(np.asarray(v, dtype=float))
        out = np.empty(len(self.constraints))
        for g in self._groups:
            out[g.cidx] = np.linalg.eigvalsh(self._stack(s, g)[g.con])[:, 0]
        return out.tolist()


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
