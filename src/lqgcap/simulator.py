"""Monte-Carlo closed-loop simulation of the plant under a structured policy.

Simulates the true state, the controller's Kalman filter, and the observer's
filter with steady-state gains; the input is
x_i = -K_LQR * (observer estimate) + GammaBar * (estimation error) + dither.
Empirical cost, covariances, rate, and innovation whiteness are accumulated
for comparison against the theoretical values.

The loop is one linear recursion z_{i+1} = A z_i + B e_i in z = [s, s_hat,
s_obs], driven by each step's raw draws e_i, with one output map C z_i + D e_i
to every signal the statistics use.  All trajectories advance together in
chunks of CHUNK steps, one matrix product per step; each chunk's moments are
then added with 2-D products over its rows.  Memory: the draws plus a chunk.

Randomness comes from counter-based Philox streams keyed by (seed,
trajectory index), so identical seeds give identical reports and a
trajectory's draws do not depend on how many run; Gaussians use numpy's
ziggurat sampler (Generator.standard_normal), pinned by numpy's contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from . import riccati
from .errors import NumericalOverflow
from .lower_bound import LBSolution
from .model import CostWeights, SystemModel, reduce_to_estimator
from .riccati import Policy

OVERFLOW_LIMIT = 1e12
CHUNK = 256                     # time steps per block of the recursion


@dataclass(frozen=True)
class SimConfig:
    horizon: int
    trajectories: int
    seed: int
    burn_in: int | None = None    # defaults to horizon // 10

    def __post_init__(self):
        burn = self.horizon // 10 if self.burn_in is None else self.burn_in
        if not (self.horizon > burn >= 0):
            raise ValueError("need horizon > burn_in >= 0")
        if self.trajectories < 1:
            raise ValueError("need at least one trajectory")
        object.__setattr__(self, "burn_in", burn)


@dataclass(frozen=True)
class SimReport:
    empirical_cost: float
    cost_stderr: float
    empirical_SigmaHat: np.ndarray
    empirical_PsiY: np.ndarray
    empirical_rate: float
    innovation_whiteness: float    # lag-1 autocorrelation norm ratio
    samples: int                   # retained steps x trajectories
    cross_state_err: np.ndarray    # pooled E[(s - s_hat) s_hat^T]
    cross_obs_psi: np.ndarray      # pooled E[(s_hat_i - s_obs_i) psi_{i-1}^T]
    state_err_scale: float         # rms scales for the cross-moment checks
    shat_scale: float
    obs_err_scale: float
    psi_scale: float


@dataclass(frozen=True)
class SimCheck:
    name: str
    value: float
    target: float
    tol: float
    ok: bool


@dataclass(frozen=True)
class ComparisonVerdict:
    checks: tuple[SimCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __str__(self) -> str:
        lines = [f"[{'PASS' if c.ok else 'FAIL'}] {c.name}: value={c.value:.6g} "
                 f"target={c.target:.6g} tol={c.tol:.3g}" for c in self.checks]
        return "\n".join(lines)


@dataclass(frozen=True)
class SimTolerances:
    cost_sigmas: float = 3.0
    psi_y_rel: float = 0.03
    rate_rel: float = 0.03
    rate_floor: float = 5e-3       # absolute slack when the rate is near zero


def _traj_noise(seed: int, idx: int, n: int, k: int, p: int, m: int):
    """Standard-normal draws for one trajectory from its own Philox stream."""
    gen = np.random.Generator(np.random.Philox(key=np.array(
        [seed % (1 << 64), idx], dtype=np.uint64)))
    z_s1 = gen.standard_normal(k)
    z_wv = gen.standard_normal((n, k + p))
    z_m = gen.standard_normal((n, m))
    return z_s1, z_wv, z_m


def _closed_loop(model, weights, policy, K_p, K_Y):
    """The step map [A, B]^T and the output map [C, D]^T on rows [z, e].

    e = [z_wv, z_m]; each signal below is the matrix mapping [z, e] to it.
    The outputs' first k + m columns, Q^1/2 s and R^1/2 x, square to the cost.
    """
    F, G, H, J, K = model.F, model.G, model.H, model.J, policy.K_LQR
    k, m, p = model.k, model.m, model.p
    eye = np.eye(4 * k + p + m)
    s, s_hat, s_obs, e_wv, e_m = np.vsplit(eye, np.cumsum([k, k, k, k + p]))
    w, v = np.vsplit(la.psd_sqrt(model.joint_noise()) @ e_wv, [k])
    x = -K @ s_obs + policy.GammaBar @ (s_hat - s_obs) \
        + la.psd_sqrt(policy.M) @ e_m
    psi = H @ s + J @ x + v - (H - J @ K) @ s_obs    # y minus its prediction
    step = np.vstack([F @ s + G @ x + w,
                      F @ s_hat + G @ x + K_p @ (H @ s + v - H @ s_hat),
                      (F - G @ K) @ s_obs + K_Y @ psi])
    out = np.vstack([la.psd_sqrt(weights.Q) @ s, la.psd_sqrt(weights.R) @ x,
                     s_hat, psi, s_hat - s_obs, s - s_hat])
    return step.T.copy(), out.T.copy()     # contiguous: faster products


def simulate(model: SystemModel, weights: CostWeights, policy: Policy,
             cfg: SimConfig) -> SimReport:
    """Run the closed loop and report empirical statistics.

    Steady-state gains are used from the first step; the configured burn-in
    lets the state transients decay before statistics accumulate.
    """
    est = reduce_to_estimator(model)
    prs = riccati.solve_policy_riccati(est, policy)
    k, m, p = model.k, model.m, model.p
    n, N, burn = cfg.horizon, cfg.trajectories, cfg.burn_in
    # rows: z_{i+1} = [z_i, e_i] ABT, out_i = [z_i, e_i] CDT
    ABT, CDT = _closed_loop(model, weights, policy, est.K_p, prs.K_Y)
    cut = np.cumsum([0, k + m, k, p, k, k])
    cost_, shat_, psi_, d_, err_ = (slice(a, b) for a, b in zip(cut, cut[1:]))

    # per-trajectory streams, stored time-major: e[i, j] drives step i of j
    buf = np.zeros((CHUNK + 1, N, 4 * k + p + m))   # [z_i, e_i] over a chunk
    e = np.empty((n, N, k + p + m))
    for j in range(N):
        buf[0, j, :k], e[:, j, :k + p], e[:, j, k + p:] = _traj_noise(
            cfg.seed, j, n, k, p, m)
    buf[0, :, :k] = buf[0, :, :k] @ la.psd_sqrt(model.Sigma1).T

    cost_sum = np.zeros(N)
    gram = np.zeros((cut[-1], cut[-1]))     # sum of out^T out, retained steps
    lag_gram = np.zeros((p, p + k))         # sum of psi_{i-1}^T [psi_i, d_i]
    obs_sq = 0.0                            # sum of |d_i|^2 over the same i
    psi_prev = np.empty((0, p))             # last retained psi so far
    for t0 in range(0, n, CHUNK):
        T = min(CHUNK, n - t0)
        buf[:T, :, 3 * k:] = e[t0:t0 + T]
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(T):
                np.matmul(buf[t], ABT, out=buf[t + 1, :, :3 * k])
            ok = np.abs(buf[1:T + 1, :, :k]).max(axis=(1, 2)) <= OVERFLOW_LIMIT
        if not ok.all():                    # also catches inf and nan
            raise NumericalOverflow(
                f"trajectory diverged at step {t0 + 1 + int(np.argmin(ok))}; "
                "the policy does not stabilize the closed loop")
        r0 = min(max(burn - t0, 0), T)      # first retained step of the chunk
        if r0 < T:
            out = buf[r0:T].reshape((T - r0) * N, -1) @ CDT
            gram += out.T @ out
            q = out[:, cost_].reshape(T - r0, N, k + m)
            cost_sum += np.einsum("tnc,tnc->n", q, q)
            psi = out[:, psi_]
            prev = np.vstack([psi_prev, psi[:-N]])
            cur = out[len(out) - len(prev):]    # rows i with psi_{i-1} kept
            lag_gram += prev.T @ cur[:, psi_.start:d_.stop]
            obs_sq += float(np.sum(cur[:, d_] ** 2))
            psi_prev = psi[-N:]
        buf[0, :, :3 * k] = buf[T, :, :3 * k]

    n_ret = n - burn
    total, lag_pairs = N * n_ret, max(N * (n_ret - 1), 1)
    per_traj_cost = cost_sum / n_ret
    stderr = float(np.std(per_traj_cost, ddof=1) / math.sqrt(N)) if N > 1 else 0.0
    emp_psi_y = la.sym(gram[psi_, psi_] / total)
    return SimReport(
        empirical_cost=float(np.mean(per_traj_cost)),
        cost_stderr=stderr,
        empirical_SigmaHat=la.sym(gram[d_, d_] / total),
        empirical_PsiY=emp_psi_y,
        empirical_rate=0.5 * (la.slogdet_pd(emp_psi_y, "empirical Psi_Y")
                              - la.slogdet_pd(est.Psi, "Psi")),
        innovation_whiteness=float(np.linalg.norm(lag_gram[:, :p] / lag_pairs)
                                   / max(np.linalg.norm(emp_psi_y), 1e-300)),
        samples=total,
        cross_state_err=gram[err_, shat_] / total,
        cross_obs_psi=lag_gram[:, p:].T / lag_pairs,
        state_err_scale=math.sqrt(np.trace(gram[err_, err_]) / total),
        shat_scale=math.sqrt(np.trace(gram[shat_, shat_]) / total),
        obs_err_scale=math.sqrt(obs_sq / lag_pairs),
        psi_scale=math.sqrt(np.trace(gram[psi_, psi_]) / total),
    )


def compare_to_theory(report: SimReport, lb: LBSolution,
                      tols: SimTolerances | None = None) -> ComparisonVerdict:
    """Per-statistic pass/fail of the empirical report against theory."""
    if tols is None:
        tols = SimTolerances()
    checks = []
    target = lb.achieved_budget
    tol_cost = tols.cost_sigmas * max(report.cost_stderr, 1e-300)
    checks.append(SimCheck(
        "cost_within_stderr", report.empirical_cost, target, tol_cost,
        abs(report.empirical_cost - target) <= tol_cost))
    psi_y = lb.riccati.Psi_Y
    rel = float(np.linalg.norm(report.empirical_PsiY - psi_y)
                / max(np.linalg.norm(psi_y), 1e-300))
    checks.append(SimCheck("innovation_covariance_rel", rel, 0.0,
                           tols.psi_y_rel, rel <= tols.psi_y_rel))
    rate_tol = max(tols.rate_rel * abs(lb.rate), tols.rate_floor)
    checks.append(SimCheck(
        "rate", report.empirical_rate, lb.rate, rate_tol,
        abs(report.empirical_rate - lb.rate) <= rate_tol))
    wh_tol = 4.0 / math.sqrt(report.samples)
    checks.append(SimCheck("innovation_whiteness", report.innovation_whiteness,
                           0.0, wh_tol, report.innovation_whiteness <= wh_tol))
    return ComparisonVerdict(checks=tuple(checks))
