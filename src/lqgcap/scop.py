"""Finite-horizon sequential convex program and its averaging argument.

The horizon-n program optimizes per-time triples (Pi_i, Gamma_i,
SigmaHat_{i+1}) chained by Riccati LMIs, with time-varying LQR constants from
the backward recursion and a terminal correction term in the cost.  Averaging
the per-time variables produces a point feasible for the single-letter
program up to an O(1/n) correction, which is what makes the single-letter
bound the horizon limit.  Step i is the single-letter step on its face,
upper_bound.face_blocks, with SigmaHat_next = SigmaHat_{i+1}.  The LQR
schedule is the control equation's recursion from Q, and the strict start
the damped equation's recursion from 0.

The program is solved on its face, as the single-letter one is.  From
SigmaHat_1 = 0 the chained LMIs only reach the i-step Krylov subspace of
the innovation form (F - K_p H, G - K_p J) (upper_bound.face_bases, whose
last basis is the single-letter program's face), so
SigmaHat_{i+1} = V_i S_i V_i^T and Gamma_{i+1} = Gamma~_i V_i^T with V_i an
orthonormal basis of that subspace, and each chained LMI keeps plant
coordinates, restricted to the range
T_i = [[V_i, (I - V_i V_i^T) K_p], [0, I]] of its constant and basis parts.
For k > m the unreduced LMIs have no strict interior; the reduced ones do
(Borwein & Wolkowicz, J. Austral. Math. Soc. A 30, 1981; Permenter &
Parrilo, Math. Program. 171, 2018).

Step i touches only the coordinates of Pi_i, Gamma~_{i-1}, S_{i-1} and S_i,
at most 16 on vector3 and 4 on scalar plants, so the program is assembled
on each step's own coordinates (SCOPProgram._build) and its blocks carry
them as their columns: apart from the budget row, no basis spans all D
coordinates, and the barrier forms its matrix blocks' rows on those columns
when that saves work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .barrier import AffineBlock, BarrierProgram, SymPacker, solve_barrier
from .constants import ProblemConstants, constants_for
from .errors import Infeasible, SolverNonConvergence
from .model import BudgetedProblem
from .riccati import control_equation
from .upper_bound import (
    BOUNDARY_TOL,
    SolverOptions,
    UBDecision,
    damped_equation,
    face_bases,
    face_blocks,
    strict_start,
)

MAX_HORIZON = 64

# The horizon program's acceptance checks live at coarser scales than the
# single-letter bound's, so its default gap tolerance is coarser too.  Where
# the value barely moves with the budget (vector3 at p=120, h=1: 5e-5 nats
# per unit) a certified gap of 1e-7 still leaves 1.8e-3 of the budget
# unspent; 5e-8 leaves 3.6e-4.
DEFAULT_OPTIONS = SolverOptions(tol=5e-8)


@dataclass(frozen=True)
class SCOPSolution:
    horizon: int
    per_time: list            # n triples (Pi_i, Gamma_i, SigmaHat_{i+1})
    value: float               # nats per step
    slack_E_n: float           # terminal correction term in the cost
    cost: float                # left-hand side of the cost constraint
    consts: ProblemConstants
    budget: float
    duality_gap: float = 0.0   # certified: value + duality_gap >= the optimum
    iterations: int = 0

    @property
    def sigma_hats(self) -> list[np.ndarray]:
        """SigmaHat_1 .. SigmaHat_{n+1} (the first is pinned at zero)."""
        k = self.per_time[0][2].shape[0]
        return [np.zeros((k, k))] + [trip[2] for trip in self.per_time]


@dataclass(frozen=True)
class AveragedVariables:
    Pi: np.ndarray
    Gamma: np.ndarray
    SigmaHat: np.ndarray
    lmi1_min_eig: float
    lmi2_min_eig: float
    cost_value: float          # single-letter cost at the averages
    cost_excess: float         # max(0, cost_value - budget)
    cost_epsilon: float        # |budget - cost_value|, the eps'_n correction
    correction_norm: float     # ||SigmaHat_{n+1} - SigmaHat_1||_F / n
    slack: float               # max of the averaging corrections/violations


class SCOPProgram:
    """Affine assembly of the horizon-n program on its face, over
    Pi_1..Pi_n, Gamma~_1..Gamma~_n and S_0..S_n, where
    Gamma_i = Gamma~_{i-1} V_{i-1}^T and SigmaHat_i = V_{i-1} S_{i-1} V_{i-1}^T
    with V_0..V_n the faces of upper_bound.face_bases; V_0 has no columns,
    which pins SigmaHat_1 = 0 and Gamma_1 = 0.  Step i's blocks are
    face_blocks at (Pi_i, Gamma~_{i-1}, S_{i-1}) and S_i, priced by K_i and
    PsiL_i.

    Step i touches only its own columns, those of Pi_i, Gamma~_{i-1},
    S_{i-1} and S_i, so face_blocks is evaluated once for all n steps on
    each step's own unit vectors: an (n, w) stack whose w slots are sized
    for the widest face, V_n's, with the bases padded to V_n's width by zero
    columns and column D in a slot that step's face lacks.  Each block keeps
    its step's face slots, and every block but the budget row carries its
    step's columns (AffineBlock.cols)."""

    def __init__(self, consts: ProblemConstants, budget: float, horizon: int):
        self.consts = consts
        self.budget = float(budget)
        self.n = horizon
        model, K_p = consts.model, consts.K_p
        m = model.m
        self.bases = face_bases(consts, horizon)
        self.pi_pack = SymPacker(m)
        packers = {r: SymPacker(r) for r in {V.shape[1] for V in self.bases}}
        self.sig_packs = [packers[V.shape[1]] for V in self.bases]
        sizes = ([horizon * self.pi_pack.dim]
                 + [m * V.shape[1] for V in self.bases[:-1]]
                 + [pk.dim for pk in self.sig_packs])
        self._splits = np.cumsum(sizes)[:-1]
        self.dim = int(sum(sizes))
        # E_1..E_{n+1} backward from E_{n+1} = Q, and K_i, PsiL_i at E_{i+1},
        # the gains the recursion formed
        control = control_equation(model, consts.weights)
        E, gains = control.recursion(consts.weights.Q, horizon, gains=True)
        Kt, PsiL = zip(*gains[::-1])
        self.E, self.PsiL = np.array(E[::-1]), np.array(PsiL)
        self.K = np.array([kt.T for kt in Kt])
        traces = np.trace(K_p @ consts.Psi @ K_p.T @ self.E[1:], axis1=1,
                          axis2=2)
        kp_term = sum(map(float, traces)) / self.n
        sigma_q = float(np.trace(consts.Sigma @ consts.weights.Q))
        # the cost at zero decisions
        self.floor = kp_term + sigma_q * (self.n + 1) / self.n
        self._build()
        self._barrier: BarrierProgram | None = None

    # -- constants ---------------------------------------------------------

    def slack_e_n(self, sigma_last: np.ndarray) -> float:
        """Terminal correction: (1/n)(Tr((Sigma + SigmaHat_{n+1}) Q)
        + Tr(cov 0 * E_1) + Tr(0*E_1 - SigmaHat_{n+1} E_{n+1}))."""
        c = self.consts
        return float(np.trace((c.Sigma + sigma_last) @ c.weights.Q)
                     - np.trace(sigma_last @ self.E[-1])) / self.n

    # -- packing -----------------------------------------------------------

    def pack(self, pis, gammas, sigmas) -> np.ndarray:
        """The coordinates of per-time Pi_1..Pi_n, Gamma_1..Gamma_n and
        SigmaHat_1..SigmaHat_{n+1}, projected on the face: each on the
        widest face's slots, scattered to its columns."""
        n, Vq = self.n, self._Vq
        v = np.zeros(self.dim + 1)
        v[self._pi_cols] = self.pi_pack.pack(pis)
        v[self._gam_cols] = (gammas @ Vq[:n]).reshape(n, -1)
        v[self._sig_cols] = self._face.pack(Vq.swapaxes(1, 2) @ sigmas @ Vq)
        return v[:-1]

    def unpack(self, v: np.ndarray):
        """Pi_1..Pi_n, Gamma_1..Gamma_n and SigmaHat_1..SigmaHat_{n+1} at v,
        each stacked on a time axis after v's own leading axes; Gamma~ and S
        are gathered on the widest face's slots, a slot a face lacks reading
        0."""
        n, m, Vq = self.n, self.consts.model.m, self._Vq
        lead = v.shape[:-1]
        x = np.concatenate([v, np.zeros(lead + (1,))], axis=-1)
        gammas = x[..., self._gam_cols].reshape(lead + (n, m, Vq.shape[2]))
        sigmas = self._face.unpack(x[..., self._sig_cols])
        return (self.pi_pack.unpack(x[..., self._pi_cols]),
                gammas @ Vq[:n].swapaxes(1, 2),
                Vq @ sigmas @ Vq.swapaxes(1, 2))

    # -- blocks ------------------------------------------------------------

    def _build(self):
        c, n, D = self.consts, self.n, self.dim
        m, k, p = c.model.m, c.model.k, c.model.p
        r = [V.shape[1] for V in self.bases]
        q = r[-1]                              # the widest face
        face = SymPacker(q)
        pd, gd, sd = self.pi_pack.dim, m * q, face.dim
        width = pd + gd + 2 * sd
        self._face = face
        self._pi_cols, self._gam_cols, self._sig_cols = self._step_columns(
            r, face)
        cols = np.concatenate([self._pi_cols, self._gam_cols,
                               self._sig_cols[:n], self._sig_cols[1:]], axis=1)
        self._Vq = Vq = np.zeros((n + 1, k, q))    # V_j padded to q columns
        for V, pad in zip(self.bases, Vq):
            pad[:, :V.shape[1]] = V
        # a step's face decisions (Pi_i, Gamma~_{i-1}, S_{i-1}) and S_i at
        # its unit vectors on the widest face, the same for every step
        units = np.eye(width)
        step = UBDecision(self.pi_pack.unpack(units[:, :pd]),
                          units[:, pd:pd + gd].reshape(width, m, q),
                          face.unpack(units[:, pd + gd:width - sd]))
        cov, lmi, const, _, psiy, cost = face_blocks(
            c, step, Vq[:n, None], Vq[1:, None],
            face.unpack(units[:, width - sd:]), self.K[:, None],
            self.PsiL[:, None])
        # each block keeps its step's face slots: those of S_{i-1} in a
        # covariance LMI, and those of S_i and the p outputs, gathered to
        # its leading rows and columns, in a chained one
        slot = np.arange(q + p)
        lacks = (slot >= np.array(r[1:])[:, None]) & (slot < q)
        order = np.argsort(lacks, axis=1, kind="stable")
        at, ri, ci = (np.arange(n)[:, None, None, None],
                      order[:, None, :, None], order[:, None, None, :])
        lmi = lmi[at, np.arange(width)[:, None, None], ri, ci]
        const = const[at, 0, ri, ci]
        covariance, chained = [], []
        for i in range(n):
            a, b = m + r[i], r[i + 1] + p
            covariance.append(AffineBlock(np.zeros((a, a)), cov[:, :a, :a],
                                          cols[i], D))
            chained.append(AffineBlock(const[i, 0, :b, :b],
                                       lmi[i, :, :b, :b], cols[i], D))
        terminal = AffineBlock(np.zeros((q, q)), face.basis(),
                               self._sig_cols[n], D)
        # each coordinate is priced at the one step that holds it
        self.cost_coeffs = np.bincount(cols.ravel(), (cost / n).ravel(),
                                       D + 1)[:D]
        budget = AffineBlock(np.array([[self.budget - self.floor]]),
                             (-self.cost_coeffs).reshape(-1, 1, 1))
        self._constraints = covariance + [terminal] + chained + [budget]
        # per-time objective: (1/(2n)) logdet Psi_Y,i
        self._objective = [(0.5 / n, AffineBlock(c.Psi.copy(), psiy[i],
                                                 cols[i], D))
                           for i in range(n)]

    def _step_columns(self, r: list[int], face: SymPacker):
        """The columns of Pi_1..Pi_n (n, pd), and of Gamma~_0..Gamma~_{n-1}
        (n, m q) and S_0..S_n (n + 1, q(q+1)/2) on the widest face's slots,
        with D where V_j lacks the slot.  A face as wide as the widest holds
        its coordinates in slot order."""
        n, D, m, q = self.n, self.dim, self.consts.model.m, r[-1]
        start = np.concatenate([[0], self._splits])
        pi_cols = np.arange(n * self.pi_pack.dim).reshape(n, -1)
        gam_cols = start[1:n + 1, None] + np.arange(m * q)
        sig_cols = start[n + 1:, None] + np.arange(face.dim)
        row, col = np.divmod(np.arange(m * q), q)
        for j in np.flatnonzero(np.array(r) < q):
            on = face.cols < r[j]
            sig_cols[j] = D
            sig_cols[j, on] = start[n + 1 + j] + self.sig_packs[j].pos[
                face.rows[on], face.cols[on]]
            if j < n:
                on = col < r[j]
                gam_cols[j] = D
                gam_cols[j, on] = start[1 + j] + row[on] * r[j] + col[on]
        return pi_cols, gam_cols, sig_cols

    def barrier_program(self) -> BarrierProgram:
        """The program's blocks for the barrier engine, stacked once."""
        if self._barrier is None:
            self._barrier = BarrierProgram(objective=self._objective,
                                           constraints=self._constraints)
        return self._barrier

    def start(self, eps: float) -> np.ndarray:
        """The packed point Pi_i = eps I, Gamma_i = 0 and
        SigmaHat_1..SigmaHat_{n+1} the damped equation's recursion from 0,
        which stays on the face."""
        c, n = self.consts, self.n
        m, k = c.model.m, c.model.k
        sigmas = np.array(damped_equation(c, eps).recursion(np.zeros((k, k)),
                                                            n))
        return self.pack(np.broadcast_to(eps * np.eye(m), (n, m, m)),
                         np.zeros((n, m, k)), sigmas)

    def cost(self, v: np.ndarray) -> float:
        return float(self.cost_coeffs @ v) + self.floor

    def value(self, v: np.ndarray) -> float:
        """(1/(2n)) sum_i log det Psi_Y,i - (1/2) log det Psi at v, from one
        batched Cholesky factorization of the n Psi_Y,i; raises
        NotPositiveDefinite when one of them is not."""
        blocks = [b for _, b in self._objective]
        basis = np.stack([b.basis for b in blocks])
        n, w, p, _ = basis.shape
        local = np.append(v, 0.0)[np.stack([b.cols for b in blocks])]
        psi_y = self.consts.Psi + (local[:, None] @ basis.reshape(n, w, p * p)
                                   ).reshape(n, p, p)
        return 0.5 * (la.slogdet_pd(psi_y, "Psi_Y,i") / n
                      - la.slogdet_pd(self.consts.Psi, "Psi"))


def solve_scop(problem: BudgetedProblem, horizon: int,
               opts: SolverOptions | None = None,
               consts: ProblemConstants | None = None) -> SCOPSolution:
    """Solve the horizon-n program with the shared barrier engine, to
    DEFAULT_OPTIONS unless opts are given.

    The program is solved on its face (SCOPProgram): for k > m the chained
    LMIs reach only the Krylov subspaces of the innovation form, and the
    barrier runs on their restriction there, which has a strict interior.
    Nothing is relaxed.
    """
    if not 1 <= horizon <= MAX_HORIZON:
        raise ValueError(f"horizon must be in [1, {MAX_HORIZON}]")
    if opts is None:
        opts = DEFAULT_OPTIONS
    consts = constants_for(problem, consts)
    k, m = consts.model.k, consts.model.m
    prog = SCOPProgram(consts, problem.budget, horizon)
    if problem.budget < prog.floor - BOUNDARY_TOL:
        raise Infeasible(
            f"budget {problem.budget} below the horizon-{horizon} cost floor "
            f"{prog.floor:.9g}")
    if problem.budget <= prog.floor + BOUNDARY_TOL:
        zero_triples = [(np.zeros((m, m)), np.zeros((m, k)), np.zeros((k, k)))
                        for _ in range(horizon)]
        return SCOPSolution(horizon=horizon, per_time=zero_triples, value=0.0,
                            slack_E_n=prog.slack_e_n(np.zeros((k, k))),
                            cost=prog.floor, consts=consts,
                            budget=problem.budget)

    v0 = strict_start(prog)
    if v0 is None:
        raise SolverNonConvergence("no strictly feasible start for the chain")
    v, info = solve_barrier(prog.barrier_program(), v0, opts.tol,
                            opts.max_iter)
    pis, gammas, sigmas = prog.unpack(v)
    return SCOPSolution(
        horizon=horizon,
        per_time=list(zip(pis, gammas, sigmas[1:])),
        value=prog.value(v),
        slack_E_n=prog.slack_e_n(sigmas[-1]),
        cost=prog.cost(v),
        duality_gap=info.duality_gap,
        iterations=info.iterations,
        consts=consts,
        budget=problem.budget,
    )


def average_variables(sol: SCOPSolution) -> AveragedVariables:
    """Time-averages of the per-time variables and their single-letter slacks.

    The averaged covariance LMI is an exact average of PSD blocks; the
    averaged Riccati LMI differs from the average of the per-time blocks by
    the rank-limited correction (SigmaHat_{n+1} - SigmaHat_1)/n; the cost is
    checked against the budget with steady-state constants.
    """
    n, consts = sol.horizon, sol.consts
    pi_bar, gam_bar, _ = (sum(x) / n for x in zip(*sol.per_time))
    sigmas = sol.sigma_hats
    sig_bar = sum(sigmas[:n]) / n     # SigmaHat_1..SigmaHat_n

    V = face_bases(consts, consts.model.k)[-1]
    S = V.T @ sig_bar @ V
    lmi1, lmi2, const2, *_ = face_blocks(
        consts, UBDecision(pi_bar, gam_bar @ V, S), V, V, S, consts.K_LQR,
        consts.Psi_LQR)
    lmi1, lmi2 = la.min_eig(lmi1), la.min_eig(const2 + lmi2)
    cost_val = consts.cost_of(pi_bar, gam_bar, sig_bar)
    cost_excess = max(0.0, cost_val - sol.budget)
    cost_eps = abs(sol.budget - cost_val)
    corr = la.fro(sigmas[n] - sigmas[0]) / n
    slack = max(max(0.0, -lmi1), max(0.0, -lmi2), cost_eps, corr)
    return AveragedVariables(
        Pi=pi_bar, Gamma=gam_bar, SigmaHat=sig_bar,
        lmi1_min_eig=lmi1, lmi2_min_eig=lmi2,
        cost_value=cost_val, cost_excess=cost_excess, cost_epsilon=cost_eps,
        correction_norm=corr, slack=slack,
    )
