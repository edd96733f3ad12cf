"""Convex upper bound on the LQG system capacity.

The program maximizes (1/2) log det(Psi_Y) - (1/2) log det(Psi) over
decision matrices (Pi, Gamma, SigmaHat) subject to the trace cost constraint,
the covariance block LMI [[Pi, Gamma], [Gamma^T, SigmaHat]] >= 0, and the
relaxed-Riccati LMI tying SigmaHat to its one-step propagation.  Psi_Y and
K_Y*Psi_Y are affine in the decisions, so the whole program is a
determinant-maximization problem solved by the barrier engine.  Its blocks
are the per-step map step_blocks at the unit vectors with SigmaHat_next =
SigmaHat, the stationary case of the horizon-n program in scop, and like it
the program is solved on its face: SigmaHat = V S V^T and Gamma = Gamma~ V^T,
V an orthonormal basis of the Krylov subspace of the innovation form
(F - K_p H, G - K_p J), the only one SigmaHat and Gamma^T reach.  The
covariance LMI is [[Pi, Gamma~], [Gamma~^T, S]], and the Riccati LMI keeps
plant coordinates, restricted to its range
T = [[V, (I - V V^T) K_p], [0, I]].  face_blocks is this restriction for
both programs, the horizon program's steps on their own faces.  State
feedback, G = K_p J, is the face with no columns.  The barrier starts from
a strict point whose SigmaHat is the limit of the damped Riccati equation
(damped_equation) of the zero-information policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .barrier import AffineBlock, BarrierProgram, SymPacker, solve_barrier
from .constants import ProblemConstants, constants_for, decision_map, trace_cost
from .errors import ConfigError, Infeasible, SolverNonConvergence
from .model import BudgetedProblem
from .riccati import Policy, RiccatiEquation, _solve_dare, policy_equation

# Budgets within this absolute band of the minimal cost have no interior;
# the zero-rate solution is returned instead of running the barrier.
BOUNDARY_TOL = 1e-9

# A Krylov direction shorter than this fraction of the norms of F and G
# enters the blocks squared, under float64's resolution, so it is left off
# the face.
KRYLOV_RTOL = float(np.sqrt(np.finfo(float).eps))

# The smallest duality gap a solve may be asked to certify: the gap's own
# float64 rounding is about 1e-16, so a smaller one certifies nothing.
MIN_TOL = 1e-15


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 5e-11
    max_iter: int = 50_000

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol >= MIN_TOL):
            raise ConfigError("solver.tol", f"must be finite and >= {MIN_TOL}")
        if self.max_iter < 1:
            raise ConfigError("solver.max_iter", "must be at least 1")


@dataclass(frozen=True)
class UBDecision:
    """Decision triple of the upper-bound program."""

    Pi: np.ndarray
    Gamma: np.ndarray
    SigmaHat: np.ndarray

    @classmethod
    def zero(cls, k: int, m: int) -> "UBDecision":
        return cls(Pi=np.zeros((m, m)), Gamma=np.zeros((m, k)),
                   SigmaHat=np.zeros((k, k)))

    def first_lmi(self) -> np.ndarray:
        """[[Pi, Gamma], [Gamma^T, SigmaHat]], for each decision of a stack."""
        return la.block(self.Pi, self.Gamma, self.Gamma.swapaxes(-1, -2),
                        self.SigmaHat)


@dataclass(frozen=True)
class UBSolution:
    """riccati_residual is ||SigmaHat - (P + K_p Psi K_p^T - K_Y Psi_Y
    K_Y^T)||_F, the norm of the Schur complement behind riccati_lmi_slack.
    The multipliers, None at a zero rate, are the barrier's final dual point
    in plant coordinates: the budget's (the rate's slope in it) and the LMIs'
    T Z T^T and diag(I, V) Z diag(I, V)^T."""

    decision: UBDecision
    Psi_Y: np.ndarray
    K_Y: np.ndarray
    rate: float            # nats per step
    cost: float            # budget units
    duality_gap: float     # certified: rate + duality_gap >= the optimum
    iterations: int
    riccati_lmi_slack: float
    riccati_residual: float
    budget_multiplier: float | None      # nats per budget unit
    riccati_multiplier: np.ndarray | None
    covariance_multiplier: np.ndarray | None


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    boundary: bool = False
    point: UBDecision | None = None
    detail: str = ""
    # the program the strict point was searched in, for the solve to reuse
    program: UBProgram | None = field(default=None, repr=False, compare=False)

    @property
    def strict(self) -> bool:
        return self.feasible and not self.boundary and self.point is not None


def rate_from_psi(Psi_Y: np.ndarray, Psi: np.ndarray) -> float:
    """(1/2)(log det Psi_Y - log det Psi), in nats."""
    return 0.5 * (la.slogdet_pd(la.as_matrix(Psi_Y), "Psi_Y")
                  - la.slogdet_pd(la.as_matrix(Psi), "Psi"))


def step_blocks(model, K_LQR: np.ndarray, Psi_LQR: np.ndarray,
                dec: UBDecision, sigma_next: np.ndarray):
    """Linear parts of one step's blocks at a decision, or at each decision
    of a stack: the Riccati LMI [[P - SigmaHat_next, C], [C^T, Y]], Psi_Y's
    part Y, and the trace cost priced by (K_LQR, Psi_LQR).  At the unit
    vectors of a packing they are the bases of a program's blocks; its
    covariance LMI is UBDecision.first_lmi."""
    P, C, Y = decision_map(model, dec.Pi, dec.Gamma, dec.SigmaHat)
    lmi = la.block(P - sigma_next, C, C.swapaxes(-1, -2), Y)
    return lmi, Y, trace_cost(K_LQR, Psi_LQR, dec.Pi, dec.Gamma, dec.SigmaHat)


def krylov_bases(F: np.ndarray, G: np.ndarray, n: int) -> list[np.ndarray]:
    """Orthonormal bases V_0..V_n of the Krylov subspaces
    span(G, F G, ..., F^(i-1) G), i = 0..n (V_0 has no columns), by
    Gram-Schmidt with reorthogonalization: V_{i+1} adds to V_i what F maps
    V_i's newest directions to.  The identity once a subspace is the whole
    state space."""
    k = F.shape[0]
    tol = KRYLOV_RTOL * max(la.fro(G), la.fro(F))
    V = np.zeros((k, 0))
    bases, new = [V], G
    for _ in range(n):
        r = V.shape[1]
        for w in new.T:
            for _ in range(2):
                w = w - V @ (V.T @ w)
            size = math.sqrt(w @ w)
            if size > tol:
                V = np.concatenate([V, (w / size)[:, None]], axis=1)
        new = F @ V[:, r:]
        bases.append(np.eye(k) if V.shape[1] == k else V)
        if not new.shape[1]:        # no new direction: the subspace is final
            return bases + [bases[-1]] * (n + 1 - len(bases))
    return bases


def face_bases(consts: ProblemConstants, n: int) -> list[np.ndarray]:
    """The faces of the programs' first n steps: the Krylov bases V_0..V_n
    of the innovation form (F - K_p H, G - K_p J), whose last at n = k is
    the single-letter program's face."""
    model, K_p = consts.model, consts.K_p
    return krylov_bases(model.F - K_p @ model.H, model.G - K_p @ model.J, n)


def face_blocks(consts: ProblemConstants, face: UBDecision, V_prev: np.ndarray,
                V_next: np.ndarray, S_next: np.ndarray, K_LQR: np.ndarray,
                Psi_LQR: np.ndarray):
    """One step of either program on its face, at face decisions
    (Pi, Gamma~, S) on the face of V_prev and the next step's S_next on
    V_next's, or at each of a stack: the covariance LMI, the Riccati LMI's
    linear part and constant on the range of
    T = [[V_next, (I - V_next V_next^T) K_p], [0, I]], T, Psi_Y's part and
    the cost priced by (K_LQR, Psi_LQR).  Stacks of steps pass stacks of
    bases, padded to the widest face by zero columns, that broadcast against
    the decisions' stacks."""
    c, p = consts, consts.model.p
    k, q = V_next.shape[-2:]
    prev_t, next_t = V_prev.swapaxes(-1, -2), V_next.swapaxes(-1, -2)
    dec = UBDecision(face.Pi, face.Gamma @ prev_t,
                     V_prev @ face.SigmaHat @ prev_t)
    lmi2, psiy, cost = step_blocks(c.model, K_LQR, Psi_LQR, dec,
                                   V_next @ S_next @ next_t)
    T = np.zeros(V_next.shape[:-2] + (k + p, q + p))
    T[..., :k, :q] = V_next
    T[..., :k, q:] = c.K_p - V_next @ (next_t @ c.K_p)
    T[..., k:, q:] = np.eye(p)
    Tt, KpPsi = T.swapaxes(-1, -2), c.K_p @ c.Psi
    const = Tt @ la.block(KpPsi @ c.K_p.T, KpPsi, KpPsi.T, c.Psi) @ T
    return face.first_lmi(), Tt @ lmi2 @ T, const, T, psiy, cost


class UBProgram:
    """Affine assembly of the upper-bound program for the barrier engine,
    over Pi, Gamma~ and S on the face V = self.face."""

    def __init__(self, consts: ProblemConstants, budget: float):
        self.consts = consts
        self.budget = float(budget)
        self.floor = consts.minimal_cost
        self.face = face_bases(consts, consts.model.k)[-1]
        m, r = consts.model.m, self.face.shape[1]
        self.pi_pack = SymPacker(m)
        self.sig_pack = SymPacker(r)
        self.dim = self.pi_pack.dim + m * r + self.sig_pack.dim
        self._build()
        self._barrier: BarrierProgram | None = None

    # -- packing ---------------------------------------------------------

    def pack(self, dec: UBDecision) -> np.ndarray:
        """The face coordinates of a decision, projected on the face."""
        V = self.face
        return np.concatenate([
            self.pi_pack.pack(dec.Pi),
            (dec.Gamma @ V).reshape(-1),
            self.sig_pack.pack(V.T @ dec.SigmaHat @ V),
        ])

    def _face_decision(self, v: np.ndarray) -> UBDecision:
        """(Pi, Gamma~, S) at v, or at each v of a stack."""
        m, r = self.consts.model.m, self.face.shape[1]
        a = self.pi_pack.dim
        b = a + m * r
        return UBDecision(
            Pi=self.pi_pack.unpack(v[..., :a]),
            Gamma=v[..., a:b].reshape(v.shape[:-1] + (m, r)),
            SigmaHat=self.sig_pack.unpack(v[..., b:]),
        )

    def unpack(self, v: np.ndarray) -> UBDecision:
        """The decision at v, or the stacked decisions at a stack of v's."""
        V, dec = self.face, self._face_decision(v)
        return UBDecision(dec.Pi, dec.Gamma @ V.T, V @ dec.SigmaHat @ V.T)

    # -- affine pieces -----------------------------------------------------

    def _build(self):
        c, V = self.consts, self.face
        face = self._face_decision(np.eye(self.dim))
        lmi1, lmi2, const2, self.riccati_range, psiy, cost = face_blocks(
            c, face, V, V, face.SigmaHat, c.K_LQR, c.Psi_LQR)
        self.block_lmi1 = AffineBlock(np.zeros(lmi1.shape[1:]), lmi1)
        self.block_lmi2 = AffineBlock(const2, lmi2)
        self.block_psiy = AffineBlock(c.Psi.copy(), psiy)
        slack0 = self.budget - self.floor
        self.block_cost = AffineBlock(np.array([[slack0]]),
                                      (-cost).reshape(-1, 1, 1))
        self.cost_coeffs = cost

    def barrier_program(self) -> BarrierProgram:
        """The program's blocks for the barrier engine, stacked once."""
        if self._barrier is None:
            self._barrier = BarrierProgram(
                objective=[(0.5, self.block_psiy)],
                constraints=[self.block_lmi1, self.block_lmi2, self.block_cost],
            )
        return self._barrier

    # -- evaluation --------------------------------------------------------

    def psi_y(self, v: np.ndarray) -> np.ndarray:
        return la.sym(self.block_psiy.value(v))

    def rate(self, v: np.ndarray) -> float:
        return rate_from_psi(self.psi_y(v), self.consts.Psi)

    def cost(self, v: np.ndarray) -> float:
        return float(self.cost_coeffs @ v) + self.floor

    def start(self, eps: float) -> np.ndarray | None:
        """The packed point (Pi = eps I, Gamma = 0, SigmaHat) with SigmaHat
        the limit of the damped equation from 0; it lies strictly inside the
        Riccati LMI.  None when that limit is singular on the face (an empty
        face, under state feedback, is not)."""
        x, _, _ = _solve_dare(damped_equation(self.consts, eps))
        s = self.face.T @ x @ self.face
        if s.size and la.min_eig(s) <= 1e-12 * (1.0 + la.fro(s)):
            return None
        m, k = self.consts.model.m, self.consts.model.k
        return self.pack(UBDecision(Pi=eps * np.eye(m),
                                    Gamma=np.zeros((m, k)), SigmaHat=x))

    def solution_from(self, v: np.ndarray, info) -> UBSolution:
        c = self.consts
        dec = self.unpack(v)
        PsiY = self.psi_y(v)
        P, C, _ = decision_map(c.model, dec.Pi, dec.Gamma, dec.SigmaHat)
        KpPsi = c.K_p @ c.Psi
        # K_Y from the affine product K_Y Psi_Y by a PD solve, never an inverse
        K_Y = la.solve_pd(PsiY, (C + KpPsi).T).T
        inflow, outflow = KpPsi @ c.K_p.T, K_Y @ PsiY @ K_Y.T
        schur = la.sym(P - dec.SigmaHat + inflow - outflow)
        # each constraint's Z back in plant coordinates by its congruence
        z_cov, z_ric, z_cost = info.multipliers
        T, cov = self.riccati_range, la.blkdiag(np.eye(c.model.m), self.face)
        return UBSolution(
            decision=dec,
            Psi_Y=PsiY,
            K_Y=K_Y,
            rate=self.rate(v),
            cost=self.cost(v),
            duality_gap=info.duality_gap,
            iterations=info.iterations,
            riccati_lmi_slack=la.min_eig(schur),
            riccati_residual=la.fro(dec.SigmaHat - (P + inflow - outflow)),
            budget_multiplier=float(z_cost[0, 0]),
            riccati_multiplier=T @ z_ric @ T.T,
            covariance_multiplier=cov @ z_cov @ cov.T,
        )


def _zero_solution(consts: ProblemConstants) -> UBSolution:
    m, k, p = consts.model.m, consts.model.k, consts.model.p
    return UBSolution(
        decision=UBDecision.zero(k, m),
        Psi_Y=consts.Psi.copy(),
        K_Y=consts.K_p.copy(),
        rate=0.0,
        cost=consts.minimal_cost,
        duality_gap=0.0,
        iterations=0,
        riccati_lmi_slack=0.0,
        riccati_residual=0.0,
        budget_multiplier=None,
        riccati_multiplier=None,
        covariance_multiplier=None,
    )


def damped_equation(consts: ProblemConstants, eps: float) -> RiccatiEquation:
    """X <- T(X)/2, with T the observer equation of the (Gamma = 0,
    M = eps I) policy: Ft and S scaled by sqrt(1/2), Q halved.  An iterate's
    Riccati-LMI slack T(X_i) - X_{i+1} is X_{i+1} itself; the recursion
    from 0 is monotone, so also T(X_i) - X_i >= X_i."""
    est = consts.estimator
    eq = policy_equation(est, Policy(GammaBar=np.zeros((est.m, est.k)),
                                     M=eps * np.eye(est.m),
                                     K_LQR=consts.K_LQR))
    half = math.sqrt(0.5)
    return eq._replace(Ft=half * eq.Ft, S=half * eq.S, Q=0.5 * eq.Q)


def strict_start(prog) -> np.ndarray | None:
    """Shrink the dither eps from (budget - floor) / (2 (Tr Psi_LQR + 1)) by 4
    until prog.start(eps), a packed point of `prog` or None, costs under
    prog.budget and passes BarrierProgram.feasible, solve_barrier's own test;
    prog.floor is the program's cost at zero decisions.  Returns that point,
    or None when start gives None or 200 shrinks fail."""
    eps = ((prog.budget - prog.floor)
           / (2.0 * (float(np.trace(prog.consts.Psi_LQR)) + 1.0)))
    for _ in range(200):
        v = prog.start(eps)
        if v is None:
            return None
        if prog.cost(v) < prog.budget and prog.barrier_program().feasible(v):
            return v
        eps *= 0.25
    return None


def feasibility(problem: BudgetedProblem,
                consts: ProblemConstants | None = None) -> FeasibilityResult:
    """Classify the budget and, when possible, build a strictly feasible point.

    Budgets below the minimal cost are infeasible; within BOUNDARY_TOL of it
    only the zero-rate point is feasible.  Otherwise the zero-information
    policy with a small isotropic dither gives a strict point (strict_start).
    """
    consts = constants_for(problem, consts)
    p = problem.budget
    jstar = consts.minimal_cost
    k, m = consts.model.k, consts.model.m
    if p < jstar - BOUNDARY_TOL:
        return FeasibilityResult(False, detail=f"budget {p} < minimal cost {jstar}")
    if p <= jstar + BOUNDARY_TOL:
        return FeasibilityResult(True, boundary=True,
                                 point=UBDecision.zero(k, m),
                                 detail="budget on the minimal-cost boundary")

    prog = UBProgram(consts, p)
    v = strict_start(prog)
    if v is None:
        return FeasibilityResult(True, point=None,
                                 detail="no strict point: degenerate feedback "
                                        "geometry or the dither search ran out")
    point = prog.unpack(v)
    return FeasibilityResult(True, point=point,
                             detail=f"eps={point.Pi[0, 0]:.3e}", program=prog)


def solve_ub(problem: BudgetedProblem, opts: SolverOptions | None = None,
             consts: ProblemConstants | None = None) -> UBSolution:
    """Solve the determinant-maximization upper bound at the given budget."""
    if opts is None:
        opts = SolverOptions()
    consts = constants_for(problem, consts)
    feas = feasibility(problem, consts)
    if not feas.feasible:
        raise Infeasible(feas.detail)
    if feas.boundary:
        return _zero_solution(consts)
    if feas.point is None:
        raise SolverNonConvergence(f"no strictly feasible start: {feas.detail}")
    prog = feas.program
    v0 = prog.pack(feas.point)
    v, info = solve_barrier(prog.barrier_program(), v0, opts.tol, opts.max_iter)
    return prog.solution_from(v, info)
