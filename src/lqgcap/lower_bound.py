"""Policy extraction from the upper bound, its achieved rate, the Riccati
tightness certificate, and solve_capacity, the one call that runs the chain.

A time-invariant policy (GammaBar, M) induces an observer error covariance
through a standard Riccati equation; evaluating the rate and budget of the
extracted policy gives a lower bound on capacity, and the certificate checks
the sufficient conditions under which it provably meets the upper bound.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from . import riccati
from .constants import ProblemConstants, constants_for, cost_floor, trace_cost
from .errors import AssumptionViolated, DimensionMismatch
from .model import BudgetedProblem, CostWeights, EstimatorModel
from .riccati import ControlConstants, Policy, PolicyRiccatiSolution, pbh_test
from .upper_bound import SolverOptions, UBSolution, rate_from_psi, solve_ub

log = logging.getLogger("lqgcap.lb")

# A lower bound spending over p + BUDGET_REL * max(1, p) is over budget.
BUDGET_REL = 1e-6


@dataclass(frozen=True)
class LBSolution:
    policy: Policy
    riccati: PolicyRiccatiSolution
    rate: float              # nats per step
    achieved_budget: float   # p*


@dataclass(frozen=True)
class TightnessCertificate:
    riccati_residual: float
    detectable: bool
    stabilizable: bool
    sigma_match: float
    rate_gap: float
    verdict: str                       # "CertifiedTight" | "NotCertified"
    route: str = ""                    # "stabilizable" | "direct-recursion"
    reasons: tuple[str, ...] = field(default_factory=tuple)

    @property
    def tight(self) -> bool:
        return self.verdict == "CertifiedTight"


def extract_policy(ub: UBSolution, control: ControlConstants,
                   rank_tol: float | None = None) -> Policy:
    """GammaBar = Gamma* SigmaHat*^+, M = Pi* - Gamma* SigmaHat*^+ Gamma*^T.

    M is symmetrized and eigenvalue-clipped at zero; the first LMI guarantees
    it is PSD up to numerical slack, and the clipped amount is recorded.  A
    clip beyond that slack, la.PSD_SLACK * max(1, lambda_max(M)), is logged
    as a warning, a smaller one at debug level.

    The pseudo-inverse drops SigmaHat* eigenvalues below rank_tol.  A barrier
    optimizer cannot land exactly on a low-rank face, it stops at a distance
    of a few barrier parameters, so the default cutoff scales with the
    solver's duality gap (and never below the library-wide rank threshold);
    inverting that fuzz would blow up GammaBar.  How many it drops, and the
    largest, is logged at debug level.
    """
    w, vecs = la.eigh(la.sym(ub.decision.SigmaHat))
    if rank_tol is None:        # ||SigmaHat||_2 is its largest |eigenvalue|
        rank_tol = max(la.PINV_RTOL * float(np.abs(w).max()),
                       1e3 * max(ub.duality_gap, 0.0))
    dropped = w[w <= rank_tol]
    if dropped.size:
        log.debug("extract_policy dropped %d of %d SigmaHat eigenvalues at "
                  "rank_tol %.3e, the largest %.3e", dropped.size, w.size,
                  rank_tol, dropped.max())
    inv_w = np.where(w > rank_tol, 1.0 / np.maximum(w, 1e-300), 0.0)
    sig_pinv = (vecs * inv_w) @ vecs.T
    gamma_bar = ub.decision.Gamma @ sig_pinv
    w, vecs = la.eigh(la.sym(ub.decision.Pi - gamma_bar @ ub.decision.Gamma.T))
    m_clipped = (vecs * np.maximum(w, 0.0)) @ vecs.T
    clip = float(max(0.0, -w[0]))
    slack = la.PSD_SLACK * max(1.0, float(w[-1]))
    if clip > slack:
        log.warning("extract_policy clipped M eigenvalues by %.3e, beyond "
                    "the PSD slack %.3e", clip, slack)
    elif clip > 0:
        log.debug("extract_policy clipped M eigenvalues by %.3e", clip)
    return Policy(GammaBar=gamma_bar, M=m_clipped, K_LQR=control.K_LQR,
                  m_clip=clip)


def evaluate_policy(estimator: EstimatorModel, weights: CostWeights,
                    control: ControlConstants, policy: Policy) -> LBSolution:
    """Achieved rate and budget of a time-invariant policy.

    Solves the policy Riccati equation for the observer error covariance,
    then evaluates the innovation-ratio rate and the five-term trace budget
    at the induced (Pi, Gamma) = (GammaBar SigmaHat GammaBar^T + M,
    GammaBar SigmaHat).
    """
    prs = riccati.solve_policy_riccati(estimator, policy)
    rate = rate_from_psi(prs.Psi_Y, estimator.Psi)
    pi_eff = policy.GammaBar @ prs.SigmaHat @ policy.GammaBar.T + policy.M
    gamma_eff = policy.GammaBar @ prs.SigmaHat
    budget = (trace_cost(control.K_LQR, control.Psi_LQR, pi_eff, gamma_eff,
                         prs.SigmaHat)
              + cost_floor(estimator, weights, control))
    return LBSolution(policy=policy, riccati=prs, rate=max(rate, 0.0),
                      achieved_budget=budget)


def _stabilizability_pair(estimator: EstimatorModel, policy: Policy,
                          eq: riccati.RiccatiEquation):
    """(F^s, G^s W^s) whose stabilizability certifies Riccati uniqueness,
    from the policy's equation eq, with R^-1 applied by one solve."""
    G, J, K_p, Psi = estimator.G, estimator.J, estimator.K_p, estimator.Psi
    M = policy.M
    cross = np.vstack([M @ J.T, Psi])          # (m+p) x p
    k = eq.S.shape[0]
    rinv = la.solve_pd(eq.R, np.hstack([eq.S.T, cross.T]))
    Fs = eq.Ft - rinv[:, :k].T @ eq.Ht
    Ws = la.blkdiag(M, Psi) - cross @ rinv[:, k:]
    Gs = np.hstack([G, K_p])                   # k x (m+p)
    return Fs, Gs @ la.sym(Ws)


def tightness_certificate(ub: UBSolution, lb: LBSolution,
                          estimator: EstimatorModel) -> TightnessCertificate:
    """Check the sufficient conditions for the upper bound to be the capacity.

    (a) the Riccati equation holds at the UB optimizer (ub.riccati_residual,
    formed by the UB solve); (b) the policy pair (F + G GammaBar,
    H + J GammaBar) is detectable; (c) (F^s, G^s W^s) is stabilizable;
    (d) the policy's recursion limit agrees with the UB
    optimizer's SigmaHat (sigma_match), so the lower bound is evaluated at
    the point the upper bound was solved at; and the two rates agree to
    1e-6 either way, as an LB above the UB cannot be within budget.  When
    (c) fails with a singular M (the scalar zero-dither regime), (d) alone
    identifies the limit and the verdict records the direct-recursion
    route.  Test (b) is the one evaluate_policy's Riccati solve ran;
    ValueError is raised when lb's equation is not the one of lb.policy on
    this estimator.
    """
    policy = lb.policy
    eq = riccati.policy_equation(estimator, policy)
    if not all(map(np.array_equal, eq, lb.riccati.equation)):
        raise ValueError("lb was not evaluated on this estimator and policy")
    residual = ub.riccati_residual
    sig_norm = la.fro(ub.decision.SigmaHat)
    res_tol = 1e-6 * (1.0 + sig_norm)
    detectable = bool(lb.riccati.detectability)
    Fs, GsWs = _stabilizability_pair(estimator, policy, eq)
    stabilizable = bool(pbh_test(Fs, GsWs, "stabilizable"))
    sigma_match = la.fro(lb.riccati.SigmaHat - ub.decision.SigmaHat)
    rate_gap = ub.rate - lb.rate

    reasons = []
    if residual > res_tol:
        reasons.append(f"riccati_residual {residual:.3e} > {res_tol:.3e}")
    if not detectable:
        reasons.append("policy pair not detectable")
    if abs(rate_gap) > 1e-6:
        reasons.append(f"|rate_gap| {abs(rate_gap):.3e} > 1e-6")
    if sigma_match > res_tol:
        reasons.append(f"sigma_match {sigma_match:.3e} > {res_tol:.3e}")
    route = "stabilizable" if stabilizable else "direct-recursion"
    verdict = "CertifiedTight" if not reasons else "NotCertified"
    return TightnessCertificate(
        riccati_residual=residual,
        detectable=detectable,
        stabilizable=stabilizable,
        sigma_match=sigma_match,
        rate_gap=rate_gap,
        verdict=verdict,
        route=route if verdict == "CertifiedTight" else "",
        reasons=tuple(reasons),
    )


@dataclass(frozen=True)
class CapacityReport:
    """The chain at one budget: the constants it ran on, the upper bound, the
    lower bound of the policy extracted at its optimizer, the certificate."""

    consts: ProblemConstants
    ub: UBSolution
    lb: LBSolution
    certificate: TightnessCertificate

    @property
    def capacity_exact(self) -> bool:
        """ub.rate is the capacity: a certified scalar plant, H != K_LQR J."""
        try:
            require_scalar_capacity(self.consts)
        except (DimensionMismatch, AssumptionViolated):
            return False
        return self.certificate.tight


def require_scalar_capacity(consts: ProblemConstants) -> None:
    """The guards of the scalar capacity theorem: DimensionMismatch unless
    k = m = p = 1, AssumptionViolated when H = K_LQR J."""
    if not consts.model.is_scalar():
        raise DimensionMismatch("capacity requires k = m = p = 1")
    H, J = float(consts.model.H[0, 0]), float(consts.model.J[0, 0])
    KJ = float(consts.K_LQR[0, 0]) * J
    if abs(H - KJ) <= 1e-10 * (1.0 + abs(H) + abs(KJ)):
        raise AssumptionViolated("H = K_LQR * J", f"H={H}, K_LQR*J={KJ}")


def solve_capacity(problem: BudgetedProblem, opts: SolverOptions | None = None,
                   consts: ProblemConstants | None = None) -> CapacityReport:
    """Run the chain once at the problem's budget: constants, upper bound,
    extracted policy, its lower bound, certificate.  A lower bound over
    budget (beyond BUDGET_REL) is logged as a warning and still returned."""
    consts = constants_for(problem, consts)
    ub = solve_ub(problem, opts, consts)
    lb = evaluate_policy(consts.estimator, consts.weights, consts.control,
                         extract_policy(ub, consts.control))
    p, spent = problem.budget, lb.achieved_budget
    if spent > p + BUDGET_REL * max(1.0, p):
        log.warning("lower bound over budget: spends %.12g against the "
                    "budget %.12g, over by %.3e", spent, p, spent - p)
    cert = tightness_certificate(ub, lb, consts.estimator)
    return CapacityReport(consts=consts, ub=ub, lb=lb, certificate=cert)
