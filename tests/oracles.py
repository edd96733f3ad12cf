"""Independent oracles used to pin expected values in the tests.

Everything here is deliberately written as plain loops that do not share
code with the library's solvers.  `simulate_stepwise` takes the
library's gains and noise streams and replaces only the simulation loop;
`iterate_fixed_point` runs one-step Riccati maps, such as the reference
`_filter_step`, `_control_step` and `_policy_step` kept here, to their limit,
one step per iteration;
`solve_barrier_nu_over_t` runs the library's barrier programs to the gap
bound nu/t of an exactly centred point; `ub_program_by_coordinates`,
`scop_program_by_coordinates` and `state_feedback_program_by_coordinates`
assemble the programs' bases one coordinate at a time, and
`scop_dense_blocks` the horizon program's over all D columns at once;
`RelaxedSCOPProgram` is the horizon program as it was solved before facial
reduction, with `chain_relaxation` and the relaxed `damped_equation`;
`BarrierProgramBySize` evaluates a barrier program one stack per block size,
and `newton_direction_two_solves` and `newton_direction_one_inverse` solve
its Newton system with two solves on the Cholesky factor or one inverse of
it; `cholesky_gap` certifies a Newton step's dual point by a Cholesky
factorization of I - E instead of E's eigenvalues; `solve_barrier_damped`
is the certified-stop loop with the damped step 1/(1+lambda) the library
took before its exact line search; `solve_barrier_every_gap` replaces only
the certified-stop loop: it runs the library's programs, Newton direction
and step rule, computes the Cholesky gap of every Newton step and forms the
Newton rows at every call.  `verify_scalar_kkt` recovers a scalar solution's
KKT multipliers by least squares from hand-derived stationarity conditions,
as the library did before it read them off its dual point, and
`kkt_scaled_multipliers` puts `UBSolution`'s multipliers in its scaling.
`ub_riccati_residual` rebuilds the tightness Riccati residual from a UB
solution's decision through `decision_map`, as the certificate did before
`UBSolution.riccati_residual` carried it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple

import numpy as np

from lqgcap import barrier
from lqgcap import linalg as la
from lqgcap import riccati
from lqgcap.barrier import AffineBlock, BarrierInfo, BarrierProgram
from lqgcap.constants import ProblemConstants, decision_map, trace_cost
from lqgcap.errors import (
    DimensionMismatch,
    LqgcapError,
    MaxIterations,
    NonConvergence,
    NumericalOverflow,
    SolverNonConvergence,
)
from lqgcap.linalg import sym
from lqgcap.model import (
    BudgetedProblem,
    CostWeights,
    EstimatorModel,
    SystemModel,
)
from lqgcap.riccati import Policy
from lqgcap.simulator import OVERFLOW_LIMIT, SimReport, _traj_noise
from lqgcap.upper_bound import (UBDecision, UBProgram, UBSolution,
                                step_blocks)

log = logging.getLogger("oracles")

# Stopping rules of `iterate_fixed_point`, the plain one-step-per-iteration
# solver the library used before structured doubling.
MAX_ITER = 100_000
REL_TOL = 1e-11
STALL_WINDOW = 500


def quad_root_sigma_s1() -> float:
    """Positive root of x^2 = 0.25 x + 1 (filter and control fixed point of S1)."""
    return (1.0 + np.sqrt(65.0)) / 8.0


def iterate_filter(F, G, H, J, W, V, L, n_steps=200_000, tol=1e-14, sigma0=None):
    """Plain fixed-point iteration of the prediction-error recursion."""
    F, H, W, V, L = (np.atleast_2d(np.asarray(a, float)) for a in (F, H, W, V, L))
    sigma = np.zeros_like(W) if sigma0 is None else np.atleast_2d(np.asarray(sigma0, float))
    for _ in range(n_steps):
        psi = H @ sigma @ H.T + V
        k = (F @ sigma @ H.T + L) @ np.linalg.inv(psi)
        nxt = F @ sigma @ F.T + W - k @ psi @ k.T
        if np.linalg.norm(nxt - sigma) <= tol * (1 + np.linalg.norm(nxt)):
            sigma = nxt
            break
        sigma = nxt
    psi = H @ sigma @ H.T + V
    k = (F @ sigma @ H.T + L) @ np.linalg.inv(psi)
    return sigma, k, psi


def iterate_control(F, G, Q, R, n_steps=200_000, tol=1e-14):
    """Plain backward iteration of the control recursion from E = Q."""
    F, G, Q, R = (np.atleast_2d(np.asarray(a, float)) for a in (F, G, Q, R))
    e = Q.copy()
    for _ in range(n_steps):
        psil = R + G.T @ e @ G
        k = np.linalg.inv(psil) @ G.T @ e @ F
        nxt = F.T @ e @ F + Q - k.T @ psil @ k
        if np.linalg.norm(nxt - e) <= tol * (1 + np.linalg.norm(nxt)):
            e = nxt
            break
        e = nxt
    psil = R + G.T @ e @ G
    k = np.linalg.inv(psil) @ G.T @ e @ F
    return e, k, psil


def iterate_fixed_point(step, x0: np.ndarray, rel_tol: float = REL_TOL,
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
                    f"(residual {res:.3e})")
        else:
            rejected = 0
        history.append(res)
        if not np.isfinite(res):
            raise NonConvergence(f"residual diverged at iteration {i}")
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
                    f"residual plateaued at {res:.3e} after {i} iterations")
            x_snap = x.copy()
            res_prev_window = res
    raise MaxIterations(f"no convergence within {max_iter} iterations "
                        f"(last residual {history[-1]:.3e})")


# The per-equation gains, steps and recursion the library ran before every
# Riccati equation became one riccati.RiccatiEquation, and the damped chain
# and its truncated search for the UB strict point.  The equation type must
# match them: control bit for bit, the others to rounding.

def filter_gain(model: SystemModel, Sigma: np.ndarray):
    """(K_p, Psi) evaluated at a given error covariance."""
    Psi = la.sym(model.H @ Sigma @ model.H.T + model.V)
    K = np.linalg.solve(Psi.T, (model.F @ Sigma @ model.H.T + model.L).T).T
    return K, Psi


def _filter_step(model: SystemModel, Sigma: np.ndarray) -> np.ndarray:
    K, Psi = filter_gain(model, Sigma)
    return model.F @ Sigma @ model.F.T + model.W - K @ Psi @ K.T


def control_gain(model: SystemModel, weights: CostWeights, E: np.ndarray):
    """(K_LQR, Psi_LQR) evaluated at a given cost-to-go matrix."""
    PsiL = la.sym(weights.R + model.G.T @ E @ model.G)
    K = np.linalg.solve(PsiL, model.G.T @ E @ model.F)
    return K, PsiL


def _control_step(model: SystemModel, weights: CostWeights,
                  E: np.ndarray) -> np.ndarray:
    K, PsiL = control_gain(model, weights, E)
    return model.F.T @ E @ model.F + weights.Q - K.T @ PsiL @ K


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


def damped_chain(consts: ProblemConstants, eps: float, relaxation: float):
    """X_1 = 0, X_{i+1} = (T(X_i) + relaxation I)/2, with T the covariance
    propagation of the (Gamma = 0, M = eps I) policy.  A step's Riccati-LMI
    slack T(X_i) + relaxation I - X_{i+1} is X_{i+1} itself; the chain is
    monotone, so also T(X_i) + relaxation I - X_i >= X_i."""
    est = consts.estimator
    pol = Policy(GammaBar=np.zeros((est.m, est.k)), M=eps * np.eye(est.m),
                 K_LQR=consts.K_LQR)
    x = np.zeros((est.k, est.k))
    while True:
        yield x
        x = la.sym(0.5 * (_policy_step(est, pol, x, pol.M)
                          + relaxation * np.eye(est.k)))


def _strict_point(prog: UBProgram, eps: float) -> np.ndarray | None:
    """The packed point (Pi = eps I, Gamma = 0, SigmaHat) with SigmaHat the
    last strictly PD iterate of the unrelaxed damped chain, run until it
    settles; it lies strictly inside the Riccati LMI.  None when the
    iterates stay singular (degenerate feedback geometry, e.g. G = K_p J)."""
    chain = damped_chain(prog.consts, eps, 0.0)
    x = next(chain)
    best = None
    for x_next in islice(chain, 2000):
        done = (float(np.linalg.norm(x_next - x))
                <= 1e-10 * (1.0 + float(np.linalg.norm(x_next))))
        x = x_next
        if la.min_eig(x) > 1e-12 * (1.0 + float(np.linalg.norm(x))):
            best = x
        if done:
            break
    if best is None:
        return None
    m, k = prog.consts.model.m, prog.consts.model.k
    return prog.pack(UBDecision(Pi=eps * np.eye(m), Gamma=np.zeros((m, k)),
                                SigmaHat=best))


def minimal_cost_oracle(F, G, H, J, W, V, L, Q, R):
    Q = np.atleast_2d(np.asarray(Q, float))
    sigma, k_p, psi = iterate_filter(F, G, H, J, W, V, L)
    e, _, _ = iterate_control(F, G, Q, R)
    return float(np.trace(k_p @ psi @ k_p.T @ e) + np.trace(sigma @ Q))


def scalar_policy_fixed_point(F, G, H, J, K_p, Psi, gamma_bar, M,
                              n_steps=2_000_000, tol=1e-15, x0=1.0):
    """Scalar observer-covariance fixed point by direct iteration from x0 > 0."""
    Ft = F + G * gamma_bar
    Ht = H + J * gamma_bar
    x = x0
    for _ in range(n_steps):
        psi_y = Ht * Ht * x + J * J * M + Psi
        k_y = (Ft * x * Ht + G * M * J + K_p * Psi) / psi_y
        nxt = Ft * Ft * x + G * G * M + K_p * K_p * Psi - k_y * k_y * psi_y
        if abs(nxt - x) <= tol * (1 + abs(nxt)):
            return nxt
        x = nxt
    return x


def simulate_stepwise(model, weights, policy, cfg):
    """`lqgcap.simulate` as one numpy update per signal and time step.

    The library runs the same closed loop as one augmented linear recursion
    over time chunks; this is the plain per-step loop it replaced, kept to
    pin its reports.  Same noise streams, same statistics.
    """
    est = ProblemConstants.compute(model, weights).estimator
    prs = riccati.solve_policy_riccati(est, policy)
    k, m, p = model.k, model.m, model.p
    n, N = cfg.horizon, cfg.trajectories
    burn = cfg.burn_in

    F, G, H, J = model.F, model.G, model.H, model.J
    K_p, K_Y = est.K_p, prs.K_Y
    K_lqr, Gbar = policy.K_LQR, policy.GammaBar
    joint_factor = la.psd_sqrt(model.joint_noise())
    m_factor = la.psd_sqrt(policy.M)
    s1_factor = la.psd_sqrt(model.Sigma1)

    # per-trajectory streams, stacked for a vectorized time loop
    z_s1 = np.empty((N, k))
    z_wv = np.empty((N, n, k + p))
    z_m = np.empty((N, n, m))
    for i in range(N):
        _traj_noise(cfg.seed, i, z_s1[i], z_wv[i], z_m[i])
    wv = z_wv @ joint_factor.T
    w_seq, v_seq = wv[:, :, :k], wv[:, :, k:]
    m_seq = z_m @ m_factor.T

    s = z_s1 @ s1_factor.T          # true state, (N, k)
    s_hat = np.zeros((N, k))        # controller KF estimate
    s_obs = np.zeros((N, k))        # observer estimate

    cost_sum = np.zeros(N)
    n_ret = n - burn
    sum_dd = np.zeros((k, k))       # (s_hat - s_obs) second moment
    sum_psi = np.zeros((p, p))
    sum_psi_lag = np.zeros((p, p))
    sum_err_shat = np.zeros((k, k))
    sum_obs_psi = np.zeros((k, p))
    sum_sq = {"err": 0.0, "shat": 0.0, "obs": 0.0, "psi": 0.0}
    psi_prev = None

    H_obs = H - J @ K_lqr           # innovation map at the observer
    F_obs = F - G @ K_lqr
    for i in range(n):
        x = (s_obs @ (-K_lqr).T + (s_hat - s_obs) @ Gbar.T + m_seq[:, i])
        y = s @ H.T + x @ J.T + v_seq[:, i]
        psi = y - s_obs @ H_obs.T
        if i >= burn:
            cost_sum += np.einsum("ij,jk,ik->i", s, weights.Q, s) \
                + np.einsum("ij,jk,ik->i", x, weights.R, x)
            d = s_hat - s_obs
            err = s - s_hat
            sum_dd += d.T @ d
            sum_psi += psi.T @ psi
            sum_err_shat += err.T @ s_hat
            sum_sq["err"] += float(np.sum(err * err))
            sum_sq["shat"] += float(np.sum(s_hat * s_hat))
            sum_sq["psi"] += float(np.sum(psi * psi))
            if psi_prev is not None:
                sum_psi_lag += psi_prev.T @ psi
                sum_obs_psi += d.T @ psi_prev
                sum_sq["obs"] += float(np.sum(d * d))
        innov = y - x @ J.T - s_hat @ H.T
        s_next = s @ F.T + x @ G.T + w_seq[:, i]
        s_hat = s_hat @ F.T + x @ G.T + innov @ K_p.T
        s_obs = s_obs @ F_obs.T + psi @ K_Y.T
        s = s_next
        if not np.all(np.isfinite(s)) or np.max(np.abs(s)) > OVERFLOW_LIMIT:
            raise NumericalOverflow(
                f"trajectory diverged at step {i + 1}; the policy does not "
                "stabilize the closed loop")
        psi_prev = psi if i >= burn else None

    total = N * n_ret
    per_traj_cost = cost_sum / n_ret
    emp_cost = float(np.mean(per_traj_cost))
    stderr = float(np.std(per_traj_cost, ddof=1) / math.sqrt(N)) if N > 1 else 0.0
    emp_sigma_hat = la.sym(sum_dd / total)
    emp_psi_y = la.sym(sum_psi / total)
    rate = 0.5 * (la.slogdet_pd(emp_psi_y, "empirical Psi_Y")
                  - la.slogdet_pd(est.Psi, "Psi"))
    lag_pairs = N * (n_ret - 1)
    whiteness = float(np.linalg.norm(sum_psi_lag / max(lag_pairs, 1))
                      / max(np.linalg.norm(emp_psi_y), 1e-300))
    return SimReport(
        empirical_cost=emp_cost,
        cost_stderr=stderr,
        empirical_SigmaHat=emp_sigma_hat,
        empirical_PsiY=emp_psi_y,
        empirical_rate=float(rate),
        innovation_whiteness=whiteness,
        samples=total,
        cross_state_err=sum_err_shat / total,
        cross_obs_psi=sum_obs_psi / max(lag_pairs, 1),
        state_err_scale=math.sqrt(sum_sq["err"] / total),
        shat_scale=math.sqrt(sum_sq["shat"] / total),
        obs_err_scale=math.sqrt(sum_sq["obs"] / max(lag_pairs, 1)),
        psi_scale=math.sqrt(sum_sq["psi"] / total),
    )


# The barrier engine the library used before it stopped on a certified gap:
# Armijo backtracking on the merit, centring to a Newton decrement of
# NEWTON_TOL (or a stalled decrement), and the gap bound nu/t of an exact
# centre, falling back to the last completed round when float64 runs out.
MU_FACTOR = 0.2
ARMIJO_SLOPE = 0.01
BACKTRACK = 0.5
NEWTON_TOL = 1e-7      # stop centering at Newton decrement below this
MAX_INNER = 400
T_START = 2.0


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


def solve_barrier_nu_over_t(program: BarrierProgram, v0: np.ndarray, tol: float,
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


# The assembly the programs used before they evaluated one batched per-step
# map at the unit vectors: a Python loop over the packed coordinates, one unit
# triple (dPi, dGamma, dSigmaHat) at a time, with per-slot offsets.
class SymPackerLoops:
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


def _first_lmi(Pi, Gamma, SigmaHat):
    return np.vstack([np.hstack([Pi, Gamma]), np.hstack([Gamma.T, SigmaHat])])


def _unit_triples(m: int, k: int, pi_off: int, gam_off: int | None,
                  sig_off: int | None):
    """Yield (j, dPi, dGamma, dSigmaHat) for each coordinate j of one step's
    decision, packed from the given offsets, with its unit triple.  A block
    whose offset is None is pinned at zero."""
    zpi, zg, zs = np.zeros((m, m)), np.zeros((m, k)), np.zeros((k, k))
    for t, b in enumerate(SymPackerLoops(m).basis()):
        yield pi_off + t, b, zg, zs
    if gam_off is not None:
        for t, g in enumerate(np.eye(m * k)):
            yield gam_off + t, zpi, g.reshape(m, k), zs
    if sig_off is not None:
        for t, b in enumerate(SymPackerLoops(k).basis()):
            yield sig_off + t, zpi, zg, b


def ub_program_by_coordinates(c, budget: float) -> BarrierProgram:
    """The single-letter program: covariance LMI, Riccati LMI and cost
    constraints, (1/2) log det Psi_Y objective."""
    m, k, p = c.model.m, c.model.k, c.model.p
    n_gamma = m * k
    a = SymPackerLoops(m).dim
    D = a + n_gamma + SymPackerLoops(k).dim

    lmi1 = np.zeros((D, m + k, m + k))
    lmi2 = np.zeros((D, k + p, k + p))
    psiy = np.zeros((D, p, p))
    cost = np.zeros(D)
    for j, dPi, dGam, dSig in _unit_triples(m, k, 0, a, a + n_gamma):
        lmi1[j] = _first_lmi(dPi, dGam, dSig)
        P, C, Y = decision_map(c.model, dPi, dGam, dSig)
        lmi2[j] = np.vstack([np.hstack([P - dSig, C]), np.hstack([C.T, Y])])
        psiy[j] = Y
        cost[j] = trace_cost(c.K_LQR, c.Psi_LQR, dPi, dGam, dSig)

    KpPsi = c.K_p @ c.Psi
    block_lmi1 = AffineBlock(np.zeros((m + k, m + k)), lmi1)
    block_lmi2 = AffineBlock(
        np.block([[KpPsi @ c.K_p.T, KpPsi], [KpPsi.T, c.Psi]]), lmi2)
    block_psiy = AffineBlock(c.Psi.copy(), psiy)
    slack0 = float(budget) - c.minimal_cost
    block_cost = AffineBlock(np.array([[slack0]]), (-cost).reshape(D, 1, 1))
    return BarrierProgram(objective=[(0.5, block_psiy)],
                          constraints=[block_lmi1, block_lmi2, block_cost])


def _lqr_schedule(consts, n: int):
    """Backward recursion from E_{n+1} = Q; returns (E[1..n+1], K[1..n],
    PsiL[1..n]) as 1-indexed lists (index 0 unused)."""
    F, Q = consts.model.F, consts.weights.Q
    E = [None] * (n + 2)
    K = [None] * (n + 1)
    PsiL = [None] * (n + 1)
    E[n + 1] = Q.copy()
    for i in range(n, 0, -1):
        K[i], PsiL[i] = control_gain(consts.model, consts.weights, E[i + 1])
        E[i] = la.sym(F.T @ E[i + 1] @ F + Q - K[i].T @ PsiL[i] @ K[i])
    return E, K, PsiL


def scop_program_by_coordinates(c, budget: float, horizon: int,
                                relaxation: float = 0.0) -> BarrierProgram:
    """The horizon-n program over Pi_1..Pi_n, Gamma_2..Gamma_n and
    SigmaHat_2..SigmaHat_{n+1}: per-time covariance LMIs, the terminal
    SigmaHat_{n+1} >= 0, chained Riccati LMIs and the averaged cost."""
    m, k, p = c.model.m, c.model.k, c.model.p
    pi_pack, sig_pack = SymPackerLoops(m), SymPackerLoops(k)
    n_gamma = m * k
    n = horizon
    # slot offsets: Pi_1..Pi_n, Gamma_2..Gamma_n, SigmaHat_2..SigmaHat_{n+1}
    pi_off = [None] + [i * pi_pack.dim for i in range(n)]
    base = n * pi_pack.dim
    gam_off = [None, None] + [base + i * n_gamma for i in range(n - 1)]
    base += (n - 1) * n_gamma
    sig_off = [None, None] + [base + i * sig_pack.dim for i in range(n)]
    D = base + n * sig_pack.dim
    E, K, PsiL = _lqr_schedule(c, n)

    KpPsi = c.K_p @ c.Psi
    lmi_const = np.block([[KpPsi @ c.K_p.T + relaxation * np.eye(k),
                           KpPsi], [KpPsi.T, c.Psi]])

    cost = np.zeros(D)
    covariance, chained, objective = [], [], []
    for i in range(1, n + 1):
        # SigmaHat_1 = 0 pins Gamma_1 = 0, shrinking the first covariance
        # LMI to Pi_1 >= 0
        cov = np.zeros((D, m, m) if i == 1 else (D, m + k, m + k))
        lmi = np.zeros((D, k + p, k + p))
        psiy = np.zeros((D, p, p))
        for j, dPi, dGam, dSig in _unit_triples(
                m, k, pi_off[i], gam_off[i], sig_off[i]):
            cov[j] = dPi if i == 1 else _first_lmi(dPi, dGam, dSig)
            P, C, Y = decision_map(c.model, dPi, dGam, dSig)
            lmi[j] = np.vstack([np.hstack([P, C]), np.hstack([C.T, Y])])
            psiy[j] = Y
            cost[j] = trace_cost(K[i], PsiL[i], dPi, dGam, dSig) / n
        # the chained Riccati LMI subtracts SigmaHat_{i+1}
        for t, b in enumerate(sig_pack.basis()):
            lmi[sig_off[i + 1] + t, :k, :k] -= b
        covariance.append(AffineBlock(np.zeros(cov.shape[1:]), cov))
        chained.append(AffineBlock(lmi_const, lmi))
        # per-time objective: (1/(2n)) logdet Psi_Y,i
        objective.append((0.5 / n, AffineBlock(c.Psi.copy(), psiy)))

    # terminal SigmaHat_{n+1} >= 0
    basis = np.zeros((D, k, k))
    for t, b in enumerate(sig_pack.basis()):
        basis[sig_off[n + 1] + t] = b
    terminal = AffineBlock(np.zeros((k, k)), basis)

    kp_term = sum(float(np.trace(c.K_p @ c.Psi @ c.K_p.T @ E[i + 1]))
                  for i in range(1, n + 1)) / n
    sigma_q = float(np.trace(c.Sigma @ c.weights.Q))
    slack0 = float(budget) - (kp_term + sigma_q * (n + 1) / n)
    budget_block = AffineBlock(np.array([[slack0]]), (-cost).reshape(D, 1, 1))
    return BarrierProgram(
        objective=objective,
        constraints=covariance + [terminal] + chained + [budget_block])


# The horizon program's assembly before it evaluated each step on its own
# columns: the batched per-step map at all D unit vectors, each block
# restricted to the face one step at a time, every basis over all D columns.
def scop_dense_blocks(prog):
    """(objective, constraints) of a scop.SCOPProgram, every block's basis
    (D, d, d) over all D coordinates, in the program's block order.  Step i
    is the plant's step map at all D unit vectors, its covariance LMI
    [[Pi_i, Gamma~_{i-1}], [Gamma~_{i-1}^T, S_{i-1}]] and its chained LMI
    restricted to the range of
    T_i = [[V_i, (I - V_i V_i^T) K_p], [0, I]]."""
    c, n = prog.consts, prog.n
    m, p = c.model.m, c.model.p
    V = prog.bases
    # the unit vectors' face decisions, one face at a time, and their lifts
    parts = np.split(np.eye(prog.dim), prog._splits, axis=-1)
    pis = prog.pi_pack.unpack(parts[0].reshape(prog.dim, n, -1))
    gams = [g.reshape(prog.dim, m, b.shape[1])
            for g, b in zip(parts[1:n + 1], V)]
    faces = [pk.unpack(x) for x, pk in zip(parts[n + 1:], prog.sig_packs)]
    gammas = np.stack([g @ b.T for g, b in zip(gams, V)], axis=-3)
    sigmas = np.stack([b @ s @ b.T for s, b in zip(faces, V)], axis=-3)
    dec = UBDecision(pis, gammas, sigmas[:, :-1])
    lmi, psiy, cost = step_blocks(c.model, prog.K, prog.PsiL, dec,
                                  sigmas[:, 1:])
    KpPsi = c.K_p @ c.Psi
    const = la.block(KpPsi @ c.K_p.T, KpPsi, KpPsi.T, c.Psi)
    covariance, chained = [], []
    for i in range(n):
        cov = la.block(pis[:, i], gams[i], gams[i].swapaxes(-1, -2),
                       faces[i])
        covariance.append(AffineBlock(np.zeros(cov.shape[1:]), cov))
        t = la.blkdiag(V[i + 1], np.eye(p))
        t[:V[i + 1].shape[0], V[i + 1].shape[1]:] = (
            c.K_p - V[i + 1] @ (V[i + 1].T @ c.K_p))
        chained.append(AffineBlock(t.T @ const @ t,
                                   t.T @ lmi[:, i] @ t))
    terminal = AffineBlock(np.zeros(faces[n].shape[1:]), faces[n])
    cost_coeffs = (cost / n).sum(axis=1)
    slack0 = prog.budget - prog.floor
    budget = AffineBlock(np.array([[slack0]]),
                         (-cost_coeffs).reshape(-1, 1, 1))
    objective = [(0.5 / n, AffineBlock(c.Psi.copy(), psiy[:, i]))
                 for i in range(n)]
    return objective, covariance + [terminal] + chained + [budget]


def chain_relaxation(consts: ProblemConstants) -> float:
    """PSD slack the horizon program's chained LMIs took before it was
    solved on its face: none for k <= m, else
    1e-9 (1 + Tr(K_p Psi K_p^T))."""
    if consts.model.k <= consts.model.m:
        return 0.0
    c = consts
    return 1e-9 * (1.0 + float(np.trace(c.K_p @ c.Psi @ c.K_p.T)))


def damped_equation(consts: ProblemConstants, eps: float,
                    relaxation: float) -> riccati.RiccatiEquation:
    """X <- (T(X) + relaxation I)/2, with T the observer equation of the
    (Gamma = 0, M = eps I) policy: Ft and S scaled by sqrt(1/2), Q replaced
    by (Q + relaxation I)/2.  An iterate's Riccati-LMI slack
    T(X_i) + relaxation I - X_{i+1} is X_{i+1} itself; the recursion from 0
    is monotone, so also T(X_i) + relaxation I - X_i >= X_i."""
    est = consts.estimator
    eq = riccati.policy_equation(est, Policy(GammaBar=np.zeros((est.m, est.k)),
                                             M=eps * np.eye(est.m),
                                             K_LQR=consts.K_LQR))
    half = math.sqrt(0.5)
    return eq._replace(Ft=half * eq.Ft, S=half * eq.S,
                       Q=0.5 * (eq.Q + relaxation * np.eye(est.k)))


class RelaxedSCOPProgram:
    """The horizon program as it was solved before facial reduction: the
    coordinate assembly over Pi_1..Pi_n, Gamma_2..Gamma_n and
    SigmaHat_2..SigmaHat_{n+1} with every chained LMI's constant raised by
    `relaxation` I (chain_relaxation unless given), started from the
    relaxed damped recursion.  Its blocks are the library's former
    SCOPProgram's, bit for bit."""

    def __init__(self, consts: ProblemConstants, budget: float, horizon: int,
                 relaxation: float | None = None):
        self.consts, self.budget, self.n = consts, float(budget), horizon
        self.relaxation = (chain_relaxation(consts) if relaxation is None
                           else relaxation)
        self.program = scop_program_by_coordinates(consts, budget, horizon,
                                                   self.relaxation)
        self._budget_block = self.program.constraints[-1]
        self.floor = self.budget - float(self._budget_block.const[0, 0])

    def barrier_program(self) -> BarrierProgram:
        return self.program

    def pack(self, pis, gammas, sigmas) -> np.ndarray:
        """Coordinates of Pi_1..Pi_n, Gamma_1..Gamma_n and
        SigmaHat_1..SigmaHat_{n+1}; the pinned Gamma_1, SigmaHat_1 dropped."""
        m, k = self.consts.model.m, self.consts.model.k
        return np.concatenate(
            [SymPackerLoops(m).pack(x) for x in pis]
            + [np.ravel(x) for x in gammas[1:]]
            + [SymPackerLoops(k).pack(x) for x in sigmas[1:]])

    def sigma_hats(self, v: np.ndarray) -> list[np.ndarray]:
        """SigmaHat_2..SigmaHat_{n+1} at v."""
        n, m, k = self.n, self.consts.model.m, self.consts.model.k
        pk = SymPackerLoops(k)
        base = n * SymPackerLoops(m).dim + (n - 1) * m * k
        return [pk.unpack(v[base + i * pk.dim:base + (i + 1) * pk.dim])
                for i in range(n)]

    def cost(self, v: np.ndarray) -> float:
        return self.budget - float(self._budget_block.value(v)[0, 0])

    def value(self, v: np.ndarray) -> float:
        return (sum(w * la.slogdet_pd(b.value(v))
                    for w, b in self.program.objective)
                - 0.5 * la.slogdet_pd(self.consts.Psi))

    def start(self, eps: float) -> np.ndarray:
        """Pi_i = eps I, Gamma_i = 0 and SigmaHat_i the relaxed damped
        recursion from 0, for upper_bound.strict_start to shrink."""
        c, n = self.consts, self.n
        m, k = c.model.m, c.model.k
        sigmas = damped_equation(c, eps, self.relaxation).recursion(
            np.zeros((k, k)), n)
        return self.pack([eps * np.eye(m)] * n, [np.zeros((m, k))] * n,
                         sigmas)


def state_feedback_program_by_coordinates(c, budget: float) -> BarrierProgram:
    """The state-feedback reduction: max log det(J Pi J^T + Psi) under
    Tr(Pi Psi_LQR) <= budget - minimal cost, Pi >= 0."""
    m, k = c.model.m, c.model.k
    zg, zs = np.zeros((m, k)), np.zeros((k, k))
    pack = SymPackerLoops(m)
    D = pack.dim
    basis = pack.basis()
    psiy = np.stack([decision_map(c.model, b, zg, zs)[2] for b in basis])
    cost = np.array([trace_cost(c.K_LQR, c.Psi_LQR, b, zg, zs) for b in basis])
    return BarrierProgram(
        objective=[(0.5, AffineBlock(c.Psi.copy(), psiy))],
        constraints=[
            AffineBlock(np.zeros((m, m)), basis),
            AffineBlock(np.array([[budget - c.minimal_cost]]),
                        (-cost).reshape(D, 1, 1)),
        ],
    )


# The barrier program the library used before it stacked every block into one
# padded stack: one stack per block size, with a Cholesky factorization, an
# inverse and an eigvalsh of a step's E per size, and the Newton direction
# from two general solves on the Cholesky factor.  The padded program must
# match them to rounding.
class _SizeGroup(NamedTuple):
    """The B blocks of one size d: entries sl of the stacked values reshape
    to (B, d, d); con marks the constraint blocks among them and cidx gives
    their positions in BarrierProgram.constraints."""

    d: int
    sl: slice
    con: np.ndarray
    cidx: np.ndarray


class BarrierProgramBySize:
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
            bases += [sym(blocks[i].dense_basis()).reshape(-1, d * d).T
                      for i in idx]
            w_obj += [np.full(d * d, float(weights[i])) for i in idx]
            con = idx >= n_obj
            stop = start + idx.size * d * d
            self._groups.append(_SizeGroup(d, slice(start, stop), con,
                                           idx[con] - n_obj))
            start = stop
        self._const = np.concatenate(consts)
        # F order whatever the blocks' layout: the layout picks the BLAS
        # kernels, hence the Newton path
        self._basis = np.asfortranarray(np.concatenate(bases))   # (N, D)
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
        self._newton_rows = None            # (z, root_w, t) of grad_hess

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
        -sum_b w_b tr Y_bj and the Hessian sum_b w_b <Y_bj, Y_bl>.  The
        weight-scaled rows are kept for newton_line."""
        self._newton_rows = None     # never hold two sets of rows at once
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
        self._newton_rows = (z, root_w, t)
        return -(root_w * self._is_diag) @ z, z.T @ z

    def newton_line(self, step: np.ndarray) -> barrier.NewtonLine:
        """The eigenvalues of every block's E_b = sum_j step_j Y_bj along a
        Newton step from the last grad_hess call at (v, t), from one
        eigvalsh per block size, with each eigenvalue's merit and objective
        weights."""
        z, root_w, t = self._newton_rows
        e = (z @ step) / root_w
        mu = np.concatenate([np.linalg.eigvalsh(self._stack(e, g)).ravel()
                             for g in self._groups])
        # objective weight and constraint flag of each block, per eigenvalue
        w_obj = np.concatenate([np.repeat(self._w_obj[g.sl][::g.d * g.d], g.d)
                                for g in self._groups])
        con = np.concatenate([np.repeat(g.con, g.d) for g in self._groups])
        tr_con = self._w_diag[1] @ e[self._diag_idx]
        # no padded E stack or factors: see multipliers
        return barrier.NewtonLine(mu, t * w_obj + con, w_obj,
                                  (self.nu - tr_con) / t, None, None, t)

    def multipliers(self, line: barrier.NewtonLine) -> list:
        """No multipliers: its lines carry no padded E stack to read them."""
        return []

    def min_slacks(self, v: np.ndarray) -> list[float]:
        """Smallest eigenvalue of each constraint block at v."""
        s = self._values(np.asarray(v, dtype=float))
        out = np.empty(len(self.constraints))
        for g in self._groups:
            out[g.cidx] = np.linalg.eigvalsh(self._stack(s, g)[g.con])[:, 0]
        return out.tolist()


def newton_direction_two_solves(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """-h^-1 g by Cholesky; a failed factorization retries with a ridge that
    starts at 1e-14 of h's mean diagonal and grows tenfold, and least
    squares takes over after 12 tries."""
    scale = max(float(np.trace(h)) / h.shape[0], 1.0)
    a, ridge = h, 0.0
    for _ in range(12):
        try:
            c = np.linalg.cholesky(a)
            return -np.linalg.solve(c.T, np.linalg.solve(c, g))
        except np.linalg.LinAlgError:
            ridge = max(ridge * 10.0, 1e-14 * scale)
            a = h + ridge * np.eye(h.shape[0])
    return -np.linalg.lstsq(h, g, rcond=None)[0]


def newton_direction_one_inverse(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """-h^-1 g = -L^-T L^-1 g from one inverse of the Cholesky factor L; a
    failed factorization retries with a ridge that starts at 1e-14 of h's
    mean diagonal and grows tenfold, and least squares takes over after 12
    tries."""
    scale = max(float(np.trace(h)) / h.shape[0], 1.0)
    a, ridge = h, 0.0
    for _ in range(12):
        try:
            ci = np.linalg.inv(np.linalg.cholesky(a))
            return -(ci.T @ (ci @ g))
        except np.linalg.LinAlgError:
            ridge = max(ridge * 10.0, 1e-14 * scale)
            a = h + ridge * np.eye(h.shape[0])
    return -np.linalg.lstsq(h, g, rcond=None)[0]


def cholesky_gap(program: BarrierProgram, step: np.ndarray,
                 cutoff: float = np.inf) -> float:
    """f(v) - g(W, Z) at the dual point of a Newton step from the program's
    last grad_hess call at (v, t), certified as the library did before it
    took E's eigenvalues: one batched Cholesky factorization of I - E tests
    dual feasibility (+inf when it fails) and gives log det(I - E), and the
    gap is (nu - tr E_con)/t - sum_o w_o (log det(I - E_o) + tr E_o).  Above
    cutoff, the lower bound (nu - tr E_con)/t returns +inf unfactored."""
    z, root_w, t, _ = program._newton_rows
    e = (z @ step if program._local is None
         else program._local.changes(z, step)) / root_w
    tr_obj, tr_con = program._w_diag @ e[program._diag_idx]
    bound = (program.nu - tr_con) / t
    if bound > cutoff:
        return np.inf
    d = program._shape[1]
    try:
        factors = np.linalg.cholesky(np.eye(d) - e.reshape(program._shape))
    except np.linalg.LinAlgError:
        return np.inf
    log_det, _ = program._w_diag @ np.log(factors.ravel()[program._diag_idx])
    return float(bound - 2.0 * log_det - tr_obj)


def _certified_stop(program: BarrierProgram, v0: np.ndarray, tol: float,
                    max_iter: int, newton_system, gap_of, step_length
                    ) -> tuple[np.ndarray, BarrierInfo]:
    """barrier.solve_barrier's certified-stop schedule, with the Newton
    system, the gap (step, lam) and the step length (step, lam) supplied.
    On a float64 stop it returns the iterate with the smallest computed gap,
    with a warning."""
    v = np.asarray(v0, dtype=float).copy()
    if not program.feasible(v):
        raise SolverNonConvergence("initial point is not strictly feasible")
    nu = program.nu
    w_min = min((w for w, _ in program.objective), default=1.0)
    t = max(barrier.T_START, 1.0 / w_min)
    best = (np.inf, v, t, np.inf)       # (gap, iterate, t, decrement)
    total = 0
    stop = None
    try:
        while True:
            program.merit(v, t)
            for _ in range(barrier.MAX_INNER):
                g, h = newton_system(v, t)
                step = barrier._newton_direction(h, g)
                lam = math.sqrt(max(float(-g @ step), 0.0))
                if not math.isfinite(lam):
                    raise SolverNonConvergence(
                        f"Newton step not finite at t={t:.3e}")
                gap = gap_of(step, lam)
                if gap < best[0]:
                    best = (gap, v, t, lam)
                if gap <= tol or lam <= barrier.CENTRED:
                    break
                alpha = step_length(step, lam)
                while not math.isfinite(program.merit(v + alpha * step, t)):
                    alpha *= barrier.BACKTRACK
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
            if nu / t <= barrier.MU_FACTOR * tol:
                raise SolverNonConvergence(f"round at nu/t={nu / t:.3e} "
                                           "ended uncertified")
            t /= barrier.MU_FACTOR
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


# The certified-stop loop the library ran before its exact line search: the
# damped step 1/(1+lambda), halved only while it leaves the domain, and the
# Cholesky gap, factored only where it can certify.
def solve_barrier_damped(program: BarrierProgram, v0: np.ndarray,
                         tol: float, max_iter: int = 50_000
                         ) -> tuple[np.ndarray, BarrierInfo]:
    """The certified stop with damped Newton steps."""
    def gap_of(step, lam):
        cutoff = np.inf if lam <= barrier.CENTRED else 2.0 * tol
        return cholesky_gap(program, step, cutoff)

    return _certified_stop(program, v0, tol, max_iter, program.grad_hess,
                           gap_of, lambda step, lam: 1.0 / (1.0 + lam))


# The library's loop with nothing skipped: the Newton rows formed afresh at
# every grad_hess call and the Cholesky gap of every Newton step, with the
# library's step rule.  The library's loop must follow the same iterates bit
# for bit.
def solve_barrier_every_gap(program: BarrierProgram, v0: np.ndarray,
                            tol: float, max_iter: int = 50_000
                            ) -> tuple[np.ndarray, BarrierInfo]:
    """barrier.solve_barrier's schedule and step rule with the Cholesky gap
    of every Newton step and the program's kept rows and weights dropped
    before every grad_hess call."""
    def newton_system(v, t):
        program._y = (None, None)
        program._weights = (None, None, None, None)
        return program.grad_hess(v, t)

    return _certified_stop(
        program, v0, tol, max_iter, newton_system,
        lambda step, lam: cholesky_gap(program, step),
        lambda step, lam: program.newton_line(step).search(lam))


# The scalar KKT system the library solved by least squares before it read
# the multipliers off the barrier's final dual point, kept as the scalar
# reference for those multipliers.
class DegenerateSolution(LqgcapError):
    """The solution sits on a face where KKT recovery is not defined."""


@dataclass(frozen=True)
class KKTReport:
    """Recovered multipliers and residuals of the scalar stationarity system."""

    lambda2: float
    lambda3: float
    lambda4: float
    lambda5: float
    stationarity_residuals: np.ndarray
    slackness_residuals: np.ndarray   # (l2*g2, l3*g3, l4*SigmaHat, l5*g5)
    g3_value: float
    constraint_values: dict = field(default_factory=dict)


def verify_scalar_kkt(problem: BudgetedProblem, sol: UBSolution,
                      consts: ProblemConstants | None = None) -> KKTReport:
    """Recover the scalar KKT multipliers by least squares and report residuals.

    Uses the reduced constraint set valid for SigmaHat > 0: the cost g2, the
    Riccati Schur complement g3, positivity g4 = SigmaHat, and the dither
    variance g5 = Pi - Gamma^2/SigmaHat.  Raises DegenerateSolution when
    SigmaHat sits at zero (state-feedback face; recovery undefined).
    """
    if consts is None:
        consts = ProblemConstants.compute(problem.model, problem.weights)
    if not problem.model.is_scalar():
        raise DimensionMismatch("verify_scalar_kkt requires k = m = p = 1")
    dec = sol.decision
    Pi = float(dec.Pi[0, 0])
    Gam = float(dec.Gamma[0, 0])
    Sig = float(dec.SigmaHat[0, 0])
    if Sig <= 1e-8:
        raise DegenerateSolution(
            f"SigmaHat = {Sig:.3e} is at the state-feedback face")
    F = float(consts.model.F[0, 0])
    G = float(consts.model.G[0, 0])
    H = float(consts.model.H[0, 0])
    J = float(consts.model.J[0, 0])
    K_l = float(consts.K_LQR[0, 0])
    PsiL = float(consts.Psi_LQR[0, 0])

    P, C, Y = decision_map(consts.model, dec.Pi, dec.Gamma, dec.SigmaHat)
    KpPsi = consts.K_p @ consts.Psi
    psi_y = float((Y + consts.Psi)[0, 0])
    b_num = float((C + KpPsi)[0, 0])
    K_Y = b_num / psi_y
    g2 = problem.budget - consts.cost_of(dec.Pi, dec.Gamma, dec.SigmaHat)
    g3 = (float((P - dec.SigmaHat + KpPsi @ consts.K_p.T)[0, 0])
          - b_num * b_num / psi_y)
    g5 = Pi - Gam * Gam / Sig

    a_mat = np.array([
        [-PsiL, (G - K_Y * J) ** 2, 1.0],
        [-2.0 * K_l * PsiL, 2.0 * (G - K_Y * J) * (F - K_Y * H), -2.0 * Gam / Sig],
        [-K_l * K_l * PsiL, (F - K_Y * H) ** 2 - 1.0, Gam * Gam / (Sig * Sig)],
    ])
    rhs = np.array([-J * J, -2.0 * H * J, -H * H])
    lam, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    l2, l3, l5 = (float(x) for x in lam)
    l4 = 0.0
    stat = a_mat @ lam - rhs
    slack = np.array([l2 * g2, l3 * g3, l4 * Sig, l5 * g5])
    return KKTReport(
        lambda2=l2, lambda3=l3, lambda4=l4, lambda5=l5,
        stationarity_residuals=stat,
        slackness_residuals=slack,
        g3_value=g3,
        constraint_values={"g2": g2, "g3": g3, "g4": Sig, "g5": g5},
    )


def kkt_scaled_multipliers(sol: UBSolution) -> tuple[float, float, float]:
    """A scalar solution's budget multiplier and the (Pi, Pi) entries of its
    Riccati-LMI and covariance-LMI multipliers, each times 2 Psi_Y: the
    scaling of verify_scalar_kkt's (lambda2, lambda3, lambda5), whose
    stationarity equations take the derivatives of Psi_Y where the program's
    objective, the rate (1/2) log Psi_Y, has them over 2 Psi_Y."""
    scale = 2.0 * float(sol.Psi_Y[0, 0])
    return (scale * sol.budget_multiplier,
            scale * float(sol.riccati_multiplier[0, 0]),
            scale * float(sol.covariance_multiplier[0, 0]))


def ub_riccati_residual(ub: UBSolution, estimator: EstimatorModel) -> float:
    """Frobenius norm of the tightness Riccati equation at the UB optimizer."""
    dec = ub.decision
    P, _, _ = decision_map(estimator, dec.Pi, dec.Gamma, dec.SigmaHat)
    rhs = (P + estimator.K_p @ estimator.Psi @ estimator.K_p.T
           - ub.K_Y @ ub.Psi_Y @ ub.K_Y.T)
    return float(np.linalg.norm(dec.SigmaHat - rhs))
