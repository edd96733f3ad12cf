"""Monte-Carlo closed-loop simulation of the plant under a structured policy.

Simulates the true state, the controller's Kalman filter, and the observer's
filter with steady-state gains; the input is
x_i = -K_LQR * (observer estimate) + GammaBar * (estimation error) + dither.
Empirical cost, covariances, rate, and innovation whiteness are accumulated
for comparison against the theoretical values.

The loop is one linear recursion z_{i+1} = A z_i + B e_i in the error
coordinates z = [s - s_hat, s_hat - s_obs, s_obs], driven by each step's raw
draws e_i.  All trajectories advance together in chunks of CHUNK steps, one
matrix product per step.  Each retained chunk adds its rows Y = [z_i, e_i] to
one Gram Y^T Y, and one product C Y^T gives the per-trajectory cost and the
innovations psi, whose lagged sums psi_{i-1}^T Y_i give the whiteness.  The
covariances are C G C^T or diagonal blocks of the Gram G.  Estimation error
and filter disagreement are coordinates, so no second moment is a difference
of large ones.  Memory: the draws plus one chunk.

Randomness comes from counter-based Philox streams keyed by (seed,
trajectory index), so identical seeds give identical reports and a
trajectory's draws do not depend on how many run; Gaussians use numpy's
ziggurat sampler (Generator.standard_normal), pinned by numpy's contract.
The streams are filled on W threads, W the number of CPUs the process may
run on (usable_cpus) capped at the trajectory count: W - 1 threads each fill
a contiguous range of trajectories while the calling thread solves for the
gains, then fills the first range; numpy releases the interpreter lock while
it draws.  Every thread is joined before simulate returns or raises, and a
worker's exception is raised by the calling thread.  A stream's numbers do
not depend on the thread that draws it, and the recursion and its sums run
in one fixed order after the joins, so reports are bit-identical for every W.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from . import riccati
from .constants import ProblemConstants
from .errors import NumericalOverflow
from .lower_bound import LBSolution
from .model import CostWeights, SystemModel
from .riccati import Policy

OVERFLOW_LIMIT = 1e12
CHUNK = 256                     # time steps per block of the recursion

# compare_to_theory's tolerances: the cost in standard errors, Psi_Y and the
# rate relative, and an absolute one for rates near zero
COST_SIGMAS = 3.0
PSI_Y_REL = 0.03
RATE_REL = 0.03
RATE_FLOOR = 5e-3


@dataclass(frozen=True)
class SimConfig:
    horizon: int
    trajectories: int
    seed: int
    burn_in: int | None = None    # defaults to horizon // 10

    def __post_init__(self):
        for name in ("horizon", "trajectories", "seed", "burn_in"):
            value = getattr(self, name)
            if name == "burn_in" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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


def _traj_noise(seed: int, idx: int, s1: np.ndarray, wv: np.ndarray,
                m: np.ndarray) -> None:
    """Fill one trajectory's draws in place from its own Philox stream.

    The stream keyed by (seed mod 2^64, idx) fills s1 (k,), then wv
    (n, k + p), then m (n, m), each a C-contiguous view, with standard normals.
    """
    gen = np.random.Generator(np.random.Philox(key=np.array(
        [seed % (1 << 64), idx], dtype=np.uint64)))
    for out in (s1, wv, m):
        gen.standard_normal(out=out)


def usable_cpus() -> int:
    """The number of CPUs this process may run on (its affinity, if known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _closed_loop(model, weights, policy, K_p, K_Y):
    """The step map [A, B]^T on rows [z, e] and the moment map [C_cost; C_psi].

    z = [s - s_hat, s_hat - s_obs, s_obs] and e = [z_wv, z_m]; each signal
    below is the matrix mapping [z, e] to it.  C_cost's k + m rows, Q^1/2 s
    and R^1/2 x, square to the cost; C_psi's p rows give psi.
    """
    F, G, H, J, K = model.F, model.G, model.H, model.J, policy.K_LQR
    k, m, p = model.k, model.m, model.p
    eye = np.eye(4 * k + p + m)
    err, d, s_obs, e_wv, e_m = np.vsplit(eye, np.cumsum([k, k, k, k + p]))
    s_hat = d + s_obs
    s = err + s_hat
    w, v = np.vsplit(la.psd_sqrt(model.joint_noise()) @ e_wv, [k])
    x = -K @ s_obs + policy.GammaBar @ d + la.psd_sqrt(policy.M) @ e_m
    psi = H @ s + J @ x + v - (H - J @ K) @ s_obs    # y minus its prediction
    s_next = F @ s + G @ x + w
    s_hat_next = F @ s_hat + G @ x + K_p @ (H @ s + v - H @ s_hat)
    s_obs_next = (F - G @ K) @ s_obs + K_Y @ psi
    step = np.vstack([s_next - s_hat_next, s_hat_next - s_obs_next, s_obs_next])
    moments = np.vstack([la.psd_sqrt(weights.Q) @ s,
                         la.psd_sqrt(weights.R) @ x, psi])
    return step.T.copy(), moments      # contiguous step map: faster products


def simulate(model: SystemModel, weights: CostWeights, policy: Policy,
             cfg: SimConfig) -> SimReport:
    """Run the closed loop and report empirical statistics.

    Steady-state gains are used from the first step; the configured burn-in
    lets the state transients decay before statistics accumulate.
    """
    k, m, p = model.k, model.m, model.p
    n, N, burn = cfg.horizon, cfg.trajectories, cfg.burn_in
    # per-trajectory streams, drawn in place, trajectory-major; W - 1 threads
    # fill the last W - 1 ranges while this one solves for the gains
    s1, e_wv, e_m = np.empty((N, k)), np.empty((N, n, k + p)), np.empty((N, n, m))
    W = min(usable_cpus(), N)
    bounds = [N * w // W for w in range(W + 1)]
    errors: list[Exception] = []

    def fill(lo: int, hi: int) -> None:
        for j in range(lo, hi):
            _traj_noise(cfg.seed, j, s1[j], e_wv[j], e_m[j])

    def fill_or_store(lo: int, hi: int) -> None:
        try:
            fill(lo, hi)
        except Exception as e:      # raised by the calling thread after the joins
            errors.append(e)

    threads = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            thread = threading.Thread(target=fill_or_store, args=(lo, hi))
            thread.start()
            threads.append(thread)
        est = ProblemConstants.compute(model, weights).estimator
        prs = riccati.solve_policy_riccati(est, policy)
        # rows: z_{i+1} = [z_i, e_i] ABT; [Q^1/2 s_i, R^1/2 x_i, psi_i] = C [z_i, e_i]
        ABT, C = _closed_loop(model, weights, policy, est.K_p, prs.K_Y)
        fill(0, bounds[1])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    dim = len(ABT)
    err_, d_, obs_ = slice(0, k), slice(k, 2 * k), slice(2 * k, 3 * k)

    buf = np.zeros((CHUNK + 1, N, dim))     # [z_i, e_i] over a chunk, time-major
    buf[0, :, :k] = s1 @ la.psd_sqrt(model.Sigma1).T   # s_hat_0 = s_obs_0 = 0

    cost_sum = np.zeros(N)
    gram = np.zeros((dim, dim))     # sum of [z_i, e_i]^T [z_i, e_i], retained i
    lag = np.zeros((p, dim))        # sum of psi_{i-1}^T [z_i, e_i], both retained
    psi_prev = None                 # last retained psi so far
    d_head = 0.0                    # |d|^2 at the first retained step
    # |s| <= 3 max |z| since s = err + d + s_obs; a chunk's draws, standard
    # normals, stay far below
    limit = OVERFLOW_LIMIT / 3
    for t0 in range(0, n, CHUNK):
        T = min(CHUNK, n - t0)
        buf[:T, :, 3 * k:4 * k + p] = e_wv[:, t0:t0 + T].transpose(1, 0, 2)
        buf[:T, :, 4 * k + p:] = e_m[:, t0:t0 + T].transpose(1, 0, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(T):
                np.matmul(buf[t], ABT, out=buf[t + 1, :, :3 * k])
            block = buf[1:T + 1]
            if not (block.max() <= limit and block.min() >= -limit):  # or nan
                s = block[..., err_] + block[..., d_] + block[..., obs_]
                ok = np.abs(s).max(axis=(1, 2)) <= OVERFLOW_LIMIT
                if not ok.all():
                    raise NumericalOverflow(
                        f"trajectory diverged at step {t0 + 1 + int(np.argmin(ok))}"
                        "; the policy does not stabilize the closed loop")
        r0 = min(max(burn - t0, 0), T)      # first retained step of the chunk
        if r0 < T:
            rows = buf[r0:T].reshape(-1, dim)
            gram += rows.T @ rows
            q = C @ rows.T
            c = q[:k + m].reshape(k + m, T - r0, N)
            cost_sum += np.einsum("ctn,ctn->n", c, c)
            psi = q[k + m:]
            if psi_prev is None:
                d_head = float(np.sum(rows[:N, d_] ** 2))
            else:
                lag += psi_prev @ rows[:N]
            lag += psi[:, :-N] @ rows[N:]
            psi_prev = psi[:, -N:].copy()
        buf[0, :, :3 * k] = buf[T, :, :3 * k]

    n_ret = n - burn
    total, lag_pairs = N * n_ret, max(N * (n_ret - 1), 1)
    per_traj_cost = cost_sum / n_ret
    stderr = float(np.std(per_traj_cost, ddof=1) / math.sqrt(N)) if N > 1 else 0.0
    C_psi = C[k + m:]
    emp_psi_y = la.sym(C_psi @ gram @ C_psi.T / total)
    shat_sq = np.trace(gram[d_, d_] + gram[d_, obs_] + gram[obs_, d_]
                       + gram[obs_, obs_])      # s_hat = d + s_obs
    # a difference of sums of squares: rounding can take it below zero only
    # when one step is retained and d is at rounding level
    obs_sq = max(float(np.trace(gram[d_, d_])) - d_head, 0.0)
    return SimReport(
        empirical_cost=float(np.mean(per_traj_cost)),
        cost_stderr=stderr,
        empirical_SigmaHat=la.sym(gram[d_, d_] / total),
        empirical_PsiY=emp_psi_y,
        empirical_rate=0.5 * (la.slogdet_pd(emp_psi_y, "empirical Psi_Y")
                              - la.slogdet_pd(est.Psi, "Psi")),
        innovation_whiteness=(la.fro(lag @ C_psi.T / lag_pairs)
                              / max(la.fro(emp_psi_y), 1e-300)),
        samples=total,
        cross_state_err=(gram[err_, d_] + gram[err_, obs_]) / total,
        cross_obs_psi=lag[:, d_].T / lag_pairs,
        state_err_scale=math.sqrt(np.trace(gram[err_, err_]) / total),
        shat_scale=math.sqrt(shat_sq / total),
        obs_err_scale=math.sqrt(obs_sq / lag_pairs),
        psi_scale=math.sqrt(np.trace(emp_psi_y)),
    )


def compare_to_theory(report: SimReport, lb: LBSolution) -> ComparisonVerdict:
    """Per-statistic pass/fail of the empirical report against theory."""
    checks = []
    target = lb.achieved_budget
    tol_cost = COST_SIGMAS * max(report.cost_stderr, 1e-300)
    checks.append(SimCheck(
        "cost_within_stderr", report.empirical_cost, target, tol_cost,
        abs(report.empirical_cost - target) <= tol_cost))
    psi_y = lb.riccati.Psi_Y
    rel = (la.fro(report.empirical_PsiY - psi_y)
           / max(la.fro(psi_y), 1e-300))
    checks.append(SimCheck("innovation_covariance_rel", rel, 0.0,
                           PSI_Y_REL, rel <= PSI_Y_REL))
    rate_tol = max(RATE_REL * abs(lb.rate), RATE_FLOOR)
    checks.append(SimCheck(
        "rate", report.empirical_rate, lb.rate, rate_tol,
        abs(report.empirical_rate - lb.rate) <= rate_tol))
    wh_tol = 4.0 / math.sqrt(report.samples)
    checks.append(SimCheck("innovation_whiteness", report.innovation_whiteness,
                           0.0, wh_tol, report.innovation_whiteness <= wh_tol))
    return ComparisonVerdict(checks=tuple(checks))
