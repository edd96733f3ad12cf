"""Primal barrier path-following for determinant-maximization programs.

Programs have the form

    minimize    sum_o w_o * (-log det Obj_o(v))
    subject to  B_c(v) >= 0  (PSD)          for each constraint block c

with every matrix an affine function of the decision vector v.  Linear scalar
inequalities enter as 1x1 blocks.  The composite t*f + phi is self-concordant,
so Newton steps follow the central path as t grows.  Each Newton step also
gives a dual point of the maxdet dual (Vandenberghe, Boyd & Wu, SIAM J.
Matrix Anal. Appl. 19(2), 1998; Boyd & Vandenberghe, Convex Optimization,
11.2.2): W_o = w_o (O^-1 - O^-1 dO O^-1) and Z_c = (B^-1 - B^-1 dB B^-1)/t,
where dO and dB are the blocks' changes along the step.  The Newton equation
is the dual equality, so when the point is dual feasible f(v) minus its dual
objective is a certified duality gap; the solver stops on that gap and
returns the Z_c of the step it stopped on as the constraints' multipliers.

BarrierProgram stacks every block, objective or constraint, when it is
built: B blocks become one (B, d, d) constant and, on dense rows, one
(B*d*d, D) basis, d the largest block size.  A smaller block is padded with
an identity, zero basis rows and a constant I on the pad's diagonal, which
adds log 1 = 0 to the merit and the gap and zero rows to the Newton system.
The merit takes the blocks' values, one matrix-vector product on dense rows,
and one batched Cholesky factorization S = L L^T; the log-dets are the
factors' diagonals, weighted by t*w for objective blocks and by 1 for
constraint blocks.  The Newton system is formed from the same factors,
kept from the merit evaluation at the accepted point: with
Y_j = L^-1 C_j L^-T per block, from one batched inverse of the factors, the
gradient is -sum w tr Y_j and the Hessian is one product of the flattened,
weight-scaled Y with itself.  The unweighted Y are kept with the factors, so
the Newton system at the same point and a new t, which opens each round
after the first, only re-weights them.

The same rows give each block's change along a Newton step,
E = sum_j step_j Y_j = L^-1 dS L^-T, and one batched eigen-decomposition of
the E stack gives its eigenvalues mu (NewtonLine).  Along the step a block's
log-det changes by sum_i log(1 + alpha mu_i), so the merit along the whole
line has a closed form, and solve_barrier takes an exact line search on it
instead of the damped step 1/(1+lambda), as Vandenberghe, Boyd & Wu do.  The
dual point is feasible when every mu < 1, and its gap is
(nu - tr E_con)/t - sum_o w_o sum_i (log(1 - mu_oi) + mu_oi), formed at
every step.

Every block carries its columns (AffineBlock.cols): all D, or, in a
block-sparse program such as the horizon program's chain, the few its matrix
depends on.  The stack is filled block by block, as the dense basis or, when
that saves LOCAL_OVERHEAD multiply-adds per Newton system by the blocks'
sizes and column counts, as each matrix block's rows on its own columns,
(L^-1 (x) L^-1) C_loc, whose local Grams and trace terms are scatter-added
into the Hessian and the gradient; a 1x1 block keeps one dense row, since a
budget row touches nearly every coordinate.  The Newton direction and the
step's eigenvalues are the same on both paths.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .errors import SolverNonConvergence

log = logging.getLogger("lqgcap.barrier")

# Path-following schedule: barrier parameter mu = 1/t shrinks by this factor
# per round; a round ends at Newton decrement CENTRED, and a step that float64
# finds outside the domain is shortened by BACKTRACK.
MU_FACTOR = 0.2
CENTRED = 0.25
BACKTRACK = 0.5
MAX_INNER = 400
# The line search along a Newton direction stops once the merit's slope is
# at most LINE_TOL * lambda^2 in size (it is -lambda^2 at the start of the
# line), or after LINE_ITER safeguarded Newton iterations.
LINE_TOL = 0.01
LINE_ITER = 30
# The search needs a direction that solves the Newton system: the line's
# curvature at 0, step^T H step, is then lambda^2.  Where they differ by more
# than NEWTON_MISMATCH * lambda^2 (at most 1.6e-11 on the bundled sweeps and
# the scop ladder, up to 4 on the relaxed horizon program, whose Hessians have
# condition numbers near 1e19), the direction is not trusted beyond the damped
# step 1/(1+lambda).
NEWTON_MISMATCH = 1e-6
# The composite t*f + phi is self-concordant for t >= 2 (objective weights
# are 1/2); start there so the damped step 1/(1+lambda) is safe.
T_START = 2.0
# A program forms its Newton rows on each block's own coordinates when that
# saves at least this many multiply-adds per Newton system over dense rows:
# the local path makes about two dozen more numpy calls and two scatter-adds,
# some 20 to 40 us on an x86-64 core where dense rows run at 1e4
# multiply-adds/us.
LOCAL_OVERHEAD = 2e5


class AffineBlock:
    """An affine symmetric-matrix function v -> C0 + sum_j v_j C_j of a
    program's dim_total = D coordinates.  basis (w, d, d) holds the C_j of
    the w columns cols, where index D marks a pad whose C_j is zero.  A block
    built without cols has all D columns in order: cols = arange(D), basis
    (D, d, d)."""

    def __init__(self, const: np.ndarray, basis: np.ndarray,
                 cols: np.ndarray | None = None, dim_total: int | None = None):
        self.const = np.asarray(const, dtype=float)
        self.basis = np.asarray(basis, dtype=float)
        self.dim = self.const.shape[0]
        if dim_total is None:
            if cols is not None:
                raise ValueError("a block with its own columns needs dim_total")
            dim_total, cols = len(self.basis), np.arange(len(self.basis))
        self.cols, self.dim_total = np.asarray(cols), int(dim_total)

    def value(self, v: np.ndarray) -> np.ndarray:
        return self.const + np.tensordot(np.append(v, 0.0)[self.cols],
                                         self.basis, axes=(0, 0))

    def dense_basis(self) -> np.ndarray:
        """The (D, d, d) basis over all of the program's D columns."""
        out = np.zeros((self.dim_total + 1,) + self.basis.shape[1:])
        out[self.cols] = self.basis
        return out[:-1]


class BarrierProgram:
    """Objective blocks (weight, block) and PSD constraint blocks, stacked
    into one padded (B, d, d) stack when the program is built."""

    def __init__(self, objective: list[tuple[float, AffineBlock]],
                 constraints: list[AffineBlock]):
        self.objective = list(objective)
        self.constraints = list(constraints)
        self.nu = float(sum(b.dim for b in self.constraints))  # barrier parameter
        # (weight, block, constraint index or -1), sorted by size and stable
        # within a size, so the Newton rows keep the order of one stack per
        # size with only zero rows inserted
        entries = sorted([(float(w), b, -1) for w, b in self.objective]
                         + [(0.0, b, c) for c, b in enumerate(self.constraints)],
                         key=lambda e: e[1].dim)
        # each constraint block's place in the stack
        self._con_at = np.argsort([c for *_, c in entries])[len(self.objective):]
        blocks = [b for _, b, _ in entries]
        dim = blocks[0].dim_total
        if any(b.dim_total != dim for b in blocks):
            raise ValueError("blocks over different numbers of coordinates")
        d = max(b.dim for b in blocks)
        self._shape = (len(entries), d, d)
        const = np.tile(np.eye(d), (len(entries), 1, 1))
        for k, b in enumerate(blocks):
            const[k, :b.dim, :b.dim] = la.sym(b.const)
        self._const = const.ravel()
        self._local = _LocalRows.build(blocks, d, dim)
        self._basis = None
        if self._local is None:
            # the basis rows (B*d*d, D), in F order whatever the blocks'
            # layout, as the layout picks the BLAS kernels, hence the Newton
            # path: the coefficient of column j in block k's entry (a, c)
            # lies at row k*d*d + a*d + c of column j; column D takes pads
            basis = np.zeros((dim + 1,) + self._shape).transpose(1, 2, 3, 0)
            for k, b in enumerate(blocks):
                basis[k, :b.dim, :b.dim][..., b.cols] = np.moveaxis(
                    la.sym(b.basis), 0, -1)
            self._basis = basis.reshape(-1, dim + 1)[:, :dim]
        self._con = np.array([c >= 0 for _, _, c in entries])
        self._w_obj = np.repeat([w for w, _, _ in entries], d * d)
        self._w_con = np.repeat(self._con, d * d).astype(float)
        # the blocks' own diagonal entries, without the pads'
        self._diag_idx = np.concatenate([k * d * d + (d + 1) * np.arange(b.dim)
                                         for k, b in enumerate(blocks)])
        self._is_diag = np.zeros(self._const.size)
        self._is_diag[self._diag_idx] = 1.0
        # objective and constraint weights of each diagonal entry
        self._w_diag = np.stack([self._w_obj[self._diag_idx],
                                 self._w_con[self._diag_idx]])
        # objective and constraint weights of each eigenvalue of a step's E
        self._w_mu = np.repeat([w for w, _, _ in entries], d)
        self._con_mu = np.repeat(self._con, d).astype(float)
        self._key: bytes | None = None     # the v whose factors _chol holds
        self._chol: np.ndarray | None = None
        self._y = (None, None)              # (key, unweighted rows) at a v
        self._weights = (None, None, None, None)  # (t, root_w, diag_w, omega)
        self._newton_rows = None    # (z, root_w, t, factors) of grad_hess

    def _values(self, v: np.ndarray) -> np.ndarray:
        """Every block's padded value at v, as one (B, d, d) stack."""
        s = self._basis @ v if self._local is None else self._local.values(v)
        return (self._const + s).reshape(self._shape)

    def _factors(self, v: np.ndarray) -> np.ndarray:
        """Cholesky factors of every block at v, kept for the next call at
        the same v; raises LinAlgError outside the PD cone."""
        v = np.asarray(v, dtype=float)
        key = v.tobytes()
        if key != self._key:
            self._chol = la.cholesky(self._values(v))
            self._key = key
        return self._chol

    def feasible(self, v: np.ndarray) -> bool:
        """Whether every constraint block is PD at v."""
        s = self._values(np.asarray(v, dtype=float))
        try:
            la.cholesky(s[self._con])
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
        unweighted rows Y are kept with the factors' key, so a call at the
        same v with another t, as at a round change, only re-weights them;
        the weight-scaled rows are kept for newton_line.  A block-sparse
        program forms them on each block's own coordinates (_LocalRows)."""
        self._newton_rows = None     # never hold two sets of rows at once
        factors = self._factors(v)
        if self._y[0] != self._key:
            self._y = (None, None)   # nor two points' unweighted rows
            self._y = (self._key,
                       _y_rows(la.inv(factors), self._basis)
                       if self._local is None else self._local.rows(factors))
        y = self._y[1]
        if t != self._weights[0]:
            root_w = np.sqrt(t * self._w_obj + self._w_con)
            self._weights = (t, root_w, root_w * self._is_diag,
                             t * self._w_mu + self._con_mu)
        _, root_w, diag_w, _ = self._weights
        if self._local is None:
            z = y * root_w[:, None]
            g, h = -diag_w @ z, z.T @ z
        else:
            z, g, h = self._local.grad_hess(y, root_w, diag_w)
        self._newton_rows = (z, root_w, t, factors)
        return g, h

    def newton_line(self, step: np.ndarray) -> NewtonLine:
        """The merit and the dual point along a Newton step from the last
        grad_hess call at (v, t): the eigenvalues of every block's
        E_b = sum_j step_j Y_bj, i.e. L_b^-1 dS_b L_b^-T for the change dS_b
        of block b along the step, from one batched eigvalsh of the padded
        stack (a pad's eigenvalues are 0), with the E stack and factors."""
        z, root_w, t, factors = self._newton_rows
        e = ((z @ step if self._local is None
              else self._local.changes(z, step)) / root_w).reshape(self._shape)
        tr_con = self._w_diag[1] @ e.ravel()[self._diag_idx]
        return NewtonLine(la.eigvalsh(e).ravel(), self._weights[3],
                          self._w_mu, (self.nu - tr_con) / t, e, factors, t)

    def multipliers(self, line: NewtonLine) -> list[np.ndarray]:
        """Z_c = (1/t) L^-T (I - E_c) L^-1 of each constraint block at the
        line's dual point, in self.constraints order (a pad's Z is cut off)."""
        inv = la.inv(line.factors[self._con_at])
        z = la.sym(inv.swapaxes(1, 2) @ (np.eye(self._shape[1])
                                      - line.e[self._con_at]) @ inv) / line.t
        return [zc[:b.dim, :b.dim] for zc, b in zip(z, self.constraints)]

    def min_slacks(self, v: np.ndarray) -> list[float]:
        """Smallest eigenvalue of each constraint block at v."""
        return [float(la.eigvalsh(b.value(v))[0])
                for b in self.constraints]


def _y_rows(inv: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Rows (a, c) of Y_bj = L_b^-1 C_bj L_b^-T for a stack of n factor
    inverses L_b^-1 (n, d, d) and basis rows (n*d*d, D): L^-1 C_j for every
    j at once, then L^-1 (L^-1 C_j)^T = Y_j."""
    (n, d, _), dim = inv.shape, basis.shape[1]
    half = inv @ basis.reshape(n, d, d * dim)
    half = half.reshape(n, d, d, dim).transpose(0, 2, 1, 3)
    return (inv @ half.reshape(n, d, d * dim)).reshape(-1, dim)


class _LocalRows:
    """The values and Newton rows of a block-sparse stack, each matrix
    block's on its own coordinates (its local index set: Vandenberghe &
    Andersen, "Chordal graphs and semidefinite optimization", Found. Trends
    Optim. 1(4), 2015).

    The stack's first n_one blocks are 1x1 and keep dense rows over all D
    coordinates: a budget row touches nearly all of them.  Each later
    (matrix) block keeps its columns (AffineBlock.cols), padded to the
    widest with column D, which is zero.  Its rows are
    (L^-1 (x) L^-1) C_loc, and the gradient and Hessian scatter-add the
    blocks' local terms and Grams.
    """

    def __init__(self, blocks: list[AffineBlock], d: int, width: int,
                 dim: int):
        n_one = sum(b.dim == 1 for b in blocks)
        self.n, self.n_one, self.dim, self.d2 = len(blocks), n_one, dim, d * d
        # in F order with the rows padded to a multiple of 4, so a 1x1
        # block's value rounds as the dense stack's product rounds its row:
        # BLAS's gemv takes the rows of an F-order matrix four at a time, and
        # a budget row's slack cancels to far below its terms near the
        # boundary
        self.one = np.zeros((-(-n_one // 4) * 4, dim), order="F")
        for row, b in zip(self.one, blocks[:n_one]):
            row[:] = b.dense_basis()[:, 0, 0]
        self.cols = np.full((self.n - n_one, width), dim)
        basis = np.zeros((self.n - n_one, d, d, width))
        for k, b in enumerate(blocks[n_one:]):
            self.cols[k, :b.cols.size] = b.cols
            basis[k, :b.dim, :b.dim, :b.cols.size] = np.moveaxis(
                la.sym(b.basis), 0, -1)
        self.basis = basis.reshape(-1, width)
        # where each entry of a local Gram lands in the flattened Hessian
        # with a row and a column D, which are dropped
        self.hess_idx = (self.cols[:, :, None] * (dim + 1)
                         + self.cols[:, None, :]).ravel()

    @classmethod
    def build(cls, blocks: list[AffineBlock], d: int, dim: int
              ) -> _LocalRows | None:
        """The local rows of a stack of blocks, ascending in size and
        padded to d, over dim coordinates, when every matrix block has fewer
        than dim columns and they save LOCAL_OVERHEAD multiply-adds per
        Newton system over dense rows; else None."""
        n = len(blocks)
        width = max((b.cols.size for b in blocks if b.dim > 1), default=0)
        n_one = sum(b.dim == 1 for b in blocks)
        # two products with the factors' inverses and one Gram, of every
        # padded row over all D coordinates, or of each matrix block's rows
        # over its own and of each 1x1 block's one row over all
        dense = n * d * d * dim * (dim + 2 * d)
        local = ((n - n_one) * d * d * width * (width + 2 * d)
                 + n_one * dim * (dim + 1))
        if not 0 < width < dim or dense - local < LOCAL_OVERHEAD:
            return None     # no matrix block on fewer columns, or no saving
        return cls(blocks, d, width, dim)

    def values(self, v: np.ndarray) -> np.ndarray:
        """The blocks' linear parts at v, flattened over the padded stack's
        rows."""
        start = self.n_one * self.d2
        s = np.zeros(self.n * self.d2)
        s[:start:self.d2] = (self.one @ v)[:self.n_one]
        s[start:] = (self.basis.reshape(-1, self.d2, self.cols.shape[1])
                     @ self._on_cols(v)).ravel()
        return s

    def _on_cols(self, x: np.ndarray) -> np.ndarray:
        """x on every matrix block's columns (n - n_one, w, 1); a pad reads
        x's last entry, against zero coefficients."""
        return np.take(x, self.cols, mode="clip")[:, :, None]

    def rows(self, factors: np.ndarray):
        """The unweighted rows from the Cholesky factors (n, d, d): each
        1x1 block's 1 / l^2 (its row is C / l^2) and the matrix blocks'
        local rows, from one batched inverse of the matrix blocks' factors
        only."""
        inv_one = 1.0 / factors[:self.n_one, 0, 0]
        return inv_one ** 2, _y_rows(la.inv(factors[self.n_one:]),
                                     self.basis)

    def grad_hess(self, rows, root_w: np.ndarray, diag_w: np.ndarray):
        """Weighted rows, gradient and Hessian from the unweighted rows,
        the rows' root weights and the root weights on the blocks'
        diagonals, each over the padded stack's rows."""
        inv_sq, y_loc = rows
        n_one, dim, d2 = self.n_one, self.dim, self.d2
        start = n_one * d2
        w_one = root_w[:start:d2]
        z_one = self.one[:n_one] * (w_one * inv_sq)[:, None]
        z_loc = y_loc * root_w[start:, None]
        z_loc = z_loc.reshape(-1, d2, self.cols.shape[1])
        g_loc = diag_w[start:].reshape(-1, 1, d2) @ z_loc
        g = -(w_one @ z_one) - np.bincount(
            self.cols.ravel(), g_loc.ravel(), dim + 1)[:dim]
        gram = z_loc.transpose(0, 2, 1) @ z_loc
        h = np.bincount(self.hess_idx, gram.ravel(), (dim + 1) ** 2)
        h = h.reshape(dim + 1, dim + 1)[:dim, :dim]
        return (z_one, z_loc), g, h + z_one.T @ z_one

    def changes(self, rows, step: np.ndarray) -> np.ndarray:
        """sum_j step_j z_bj, flattened over the padded stack's rows, from
        the rows of grad_hess."""
        z_one, z_loc = rows
        start = self.n_one * self.d2
        e = np.zeros(self.n * self.d2)
        e[:start:self.d2] = z_one @ step
        e[start:] = (z_loc @ self._on_cols(step)).ravel()
        return e


@dataclass
class NewtonLine:
    """The merit and the dual point along one Newton step, in closed form
    from the eigenvalues mu of every block's E = L^-1 dS L^-T, with omega
    the merit weight of each eigenvalue's block (t*w_o, or 1 for a
    constraint), w_obj its objective weight (0 for a constraint) and bound
    the gap's constraint part (nu - tr E_con)/t; e, factors and t hold the
    padded E stack, the L and t at the step's start."""

    mu: np.ndarray
    omega: np.ndarray
    w_obj: np.ndarray
    bound: float
    e: np.ndarray
    factors: np.ndarray
    t: float

    def merit(self, alpha: float) -> float:
        """merit(v + alpha step) - merit(v) = -sum omega log(1 + alpha mu),
        convex in alpha on [0, alpha_max), alpha_max = min -1/mu over the
        negative mu."""
        return -float(self.omega @ np.log1p(alpha * self.mu))

    def gap(self) -> float:
        """f(v) - g(W, Z) at the step's dual point W_o = w_o S_o^-1/2
        (I - E_o) S_o^-1/2, Z_c = (1/t) S_c^-1/2 (I - E_c) S_c^-1/2; +inf
        when it is not dual feasible, i.e. some mu >= 1.  The Newton
        equation is their dual equality, so a finite gap bounds f(v) minus
        the optimum from above.  Each objective term -log(1 - mu) - mu is
        >= 0, so a finite gap is at least bound."""
        if self.mu.max() >= 1.0:
            return np.inf
        return float(self.bound
                     - self.w_obj @ (np.log1p(-self.mu) + self.mu))

    def search(self, lam: float) -> float:
        """A step length that minimizes the line's merit to a slope of
        LINE_TOL * lam^2, by safeguarded Newton iterations on the convex
        merit from the damped step 1/(1+lam), bracketed in [0, alpha_max).
        The slope at 0 is -lam^2 for a Newton step of decrement lam.  A
        length whose merit is above the damped step's is never returned, so
        each step keeps the damped step's self-concordant decrease (Boyd &
        Vandenberghe, Convex Optimization, 9.6).  A direction whose
        curvature misses lam^2 by more than NEWTON_MISMATCH takes the damped
        step."""
        mu, omega = self.mu, self.omega
        damped = alpha = 1.0 / (1.0 + lam)
        lam2 = lam * lam
        if abs(float(omega @ (mu * mu)) - lam2) > NEWTON_MISMATCH * lam2:
            return damped
        # -1/mu is monotone in mu < 0, so its least value is at mu's least
        low = float(mu.min())
        lo, hi = 0.0, -1.0 / low if low < 0.0 else np.inf
        for _ in range(LINE_ITER):
            r = mu / (1.0 + alpha * mu)
            slope = -float(omega @ r)
            if abs(slope) <= LINE_TOL * lam2:
                break
            if slope < 0.0:
                lo = alpha
            else:
                hi = alpha
            alpha -= slope / float(omega @ (r * r))
            if not lo < alpha < hi:
                alpha = 0.5 * (lo + hi)
        return alpha if self.merit(alpha) <= self.merit(damped) else damped


@dataclass
class BarrierInfo:
    iterations: int = 0
    t_final: float = 0.0
    duality_gap: float = float("inf")
    newton_decrement: float = float("inf")
    multipliers: list = field(default_factory=list)  # Z_c, per constraint


def _newton_direction(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """-h^-1 g by one solve, once a Cholesky factorization has shown h
    positive definite; a failed factorization retries with a ridge that
    starts at 1e-14 of h's mean diagonal and grows tenfold, and least
    squares takes over after 12 tries."""
    a, ridge = h, 0.0
    for _ in range(12):
        try:
            la.cholesky(a)
            return -la.solve(a, g)
        except np.linalg.LinAlgError:
            ridge = (10.0 * ridge if ridge
                     else 1e-14 * max(float(np.trace(h)) / h.shape[0], 1.0))
            a = h + ridge * np.eye(h.shape[0])
    return -np.linalg.lstsq(h, g, rcond=None)[0]


def solve_barrier(program: BarrierProgram, v0: np.ndarray, tol: float,
                  max_iter: int = 50_000) -> tuple[np.ndarray, BarrierInfo]:
    """Follow the central path until the certified duality gap is <= tol.

    Every Newton step gives a dual point and its gap (NewtonLine.gap); the
    solve returns the first iterate whose gap is at most tol.  A round at
    parameter t ends once the Newton decrement is at most CENTRED, and t then
    grows by 1/MU_FACTOR.  Each step's length comes from the exact line
    search on the step's eigenvalues (NewtonLine.search), whose merit is
    never above the damped step's; it is halved only while float64 finds the
    point outside the merit's domain, and the merit at the accepted point
    supplies the factors of the next Newton system.

    v0 must be strictly feasible.  Float64 can run out before the gap
    reaches tol: a factorization fails, no step stays in the domain, the
    Newton budget max_iter is spent, or a round ends uncertified although
    nu/t <= MU_FACTOR * tol, where an exactly centred point would certify.
    The iterate with the smallest gap, centred or not, is then returned
    with a warning, and SolverNonConvergence is raised if no gap was
    finite.
    BarrierInfo.multipliers are the Z_c of the dual point whose gap
    certified the returned iterate, from the NewtonLine kept with it.
    """
    v = np.asarray(v0, dtype=float).copy()
    if not program.feasible(v):
        raise SolverNonConvergence("initial point is not strictly feasible")
    nu = program.nu
    # keep t * w >= 1 for every objective logdet term so the composite
    # merit stays self-concordant from the first round
    w_min = min((w for w, _ in program.objective), default=1.0)
    t = max(T_START, 1.0 / w_min)
    best = (np.inf, v, None, np.inf)    # (gap, iterate, its line, decrement)
    total = 0
    stop = None
    try:
        while True:
            # value unused: bench/tracing.py checks merit calls >= steps + rounds
            program.merit(v, t)
            for _ in range(MAX_INNER):
                g, h = program.grad_hess(v, t)
                step = _newton_direction(h, g)
                lam = math.sqrt(max(float(-g @ step), 0.0))
                if not math.isfinite(lam):
                    raise SolverNonConvergence(
                        f"Newton step not finite at t={t:.3e}")
                line = program.newton_line(step)
                gap = line.gap()
                if gap < best[0]:
                    best = (gap, v, line, lam)
                if gap <= tol or lam <= CENTRED:
                    break
                # the line's minimizer stays in the domain and lowers the
                # merit at least as much as the damped step; halve only if
                # float64 leaves the domain
                alpha = line.search(lam)
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
    gap, v, line, lam = best
    if not math.isfinite(gap):
        raise SolverNonConvergence(
            f"numerical breakdown before any certified point: {stop}")
    if stop is not None:
        log.warning("stopping early at duality gap %.3e (requested %.3e): "
                    "float64 exhausted at t=%.3e (%s)", gap, tol, t, stop)
    return v, BarrierInfo(iterations=total, t_final=line.t, duality_gap=gap,
                          newton_decrement=lam,
                          multipliers=program.multipliers(line))


class SymPacker:
    """Pack/unpack a symmetric n x n matrix, or each in a stack, into its
    n(n+1)/2 upper triangle."""

    def __init__(self, n: int):
        # np.triu_indices(n), row by row, at a fifth of its cost
        self.rows, self.cols = np.nonzero(np.arange(n)[:, None] <= np.arange(n))
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
