"""Monte-Carlo closed-loop simulation of the plant under a structured policy.

Simulates the true state, the controller's Kalman filter, and the observer's
filter with steady-state gains; the input is
x_i = -K_LQR * (observer estimate) + GammaBar * (estimation error) + dither.
Empirical cost, covariances, rate, and innovation whiteness are accumulated
for comparison against the theoretical values.

The loop is one linear recursion z_{i+1} = A z_i + B e_i in the error
coordinates z = [s - s_hat, s_hat - s_obs, s_obs], driven by each step's raw
draws e_i.  All trajectories advance together in chunks of STEPS = CHUNK / 2
steps, one matrix product per step.  Each retained chunk adds its rows
Y = [z_i, e_i] to one Gram Y^T Y, and one product C Y^T gives the
per-trajectory cost and the innovations psi, whose lagged sums
psi_{i-1}^T Y_i give the whiteness.  The covariances are C G C^T or diagonal
blocks of the Gram G.  Estimation error and filter disagreement are
coordinates, so no second moment is a difference of large ones.

Randomness comes from counter-based Philox streams keyed by (seed,
trajectory index), so identical seeds give identical reports and a
trajectory's draws do not depend on how many run; Gaussians use numpy's
ziggurat sampler (Generator.standard_normal), pinned by numpy's contract.
The streams are filled on W threads, W the number of CPUs the process may
run on (usable_cpus) capped at the trajectory count.  Each range of
trajectories but the first gets its own one-thread executor, so W - 1
threads start; they fill their ranges while the calling thread solves for
the gains and then fills the first range.  numpy releases the interpreter
lock while it draws.

One chunk loop serves every W, and the first range's executor is its
helper.  The calling thread runs, in chunk order, the per-step products,
the Gram and the lag products.  The helper runs the rest, in the order
submitted: the transposing copy of chunk j + 1's draws while chunk j is
stepped, then chunk j's divergence test, C Y^T and cost sums while the
calling thread adds its Gram.  That split gives the two threads about
equal work, and numpy releases the interpreter lock inside each of these
calls.  Two chunk buffers of STEPS steps alternate: chunk j + 1's draws go
into chunk j - 1's buffer, which the calling thread is done with.  With
W = 1 no thread starts and each submitted stage runs at once on the
calling thread.  Memory: the draws, the two buffers (CHUNK steps in all)
and one chunk's C Y^T.

A failed draw, or a NumericalOverflow or other exception in a helper
stage, reaches the calling thread through its future's result(), and a
draw thread that cannot start through submit.  On any error the stages
still queued are cancelled, and every executor is shut down, which joins
its thread, before simulate raises.  A stream's numbers do not depend on
the thread that draws it, and each sum is accumulated by one stage in chunk
order, whichever thread runs it, so reports are bit-identical for every W.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import Future, ThreadPoolExecutor
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
CHUNK = 256                     # time steps the two chunk buffers hold
STEPS = CHUNK // 2              # time steps per chunk

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


class _Chunks:
    """The recursion over chunks of STEPS steps in two chunk buffers.

    Chunk j covers steps [t0, t0 + T), t0 = j STEPS, in buffer j mod 2: its
    row t holds [z_i, e_i] at i = t0 + t, trajectory-minor, and its last step
    writes z_{t0 + T} into row 0 of the other buffer.  Each stage below
    handles one chunk: step, add_gram and add_lag run on the calling thread,
    copy_draws, check and reduce on the helper if there is one.  Each
    accumulator is written by one stage, in chunk order.
    """

    def __init__(self, model, cfg, ABT, C, s1, e_wv, e_m):
        self.n, self.N, self.burn = cfg.horizon, cfg.trajectories, cfg.burn_in
        self.k, self.m, self.p = model.k, model.m, model.p
        self.ABT, self.C, self.Sigma1_root = ABT, C, la.psd_sqrt(model.Sigma1)
        self.s1, self.e_wv, self.e_m = s1, e_wv, e_m
        self.count = -(-self.n // STEPS)
        dim = len(ABT)
        self.ring = np.zeros((2, STEPS, self.N, dim))
        # reduce's product C [z_i, e_i]^T, kept until add_lag reads its psi
        # rows: the next reduce starts after that add_lag
        self.q = np.empty(len(C) * STEPS * self.N)
        self.psi = None
        self.cost_sum = np.zeros(self.N)
        # sums of [z_i, e_i]^T [z_i, e_i] over retained i, and of
        # psi_{i-1}^T [z_i, e_i] over retained pairs
        self.gram = np.zeros((dim, dim))
        self.lag = np.zeros((self.p, dim))
        self.psi_prev = None                # last retained psi so far
        self.d_head = 0.0                   # |d|^2 at the first retained step

    def _span(self, j: int) -> tuple[int, int, int]:
        """t0, T and the chunk's first retained row r0 (T if none)."""
        t0 = j * STEPS
        T = min(STEPS, self.n - t0)
        return t0, T, min(max(self.burn - t0, 0), T)

    def _rows(self, j: int) -> np.ndarray:
        """The chunk's retained rows [z_i, e_i]."""
        _, T, r0 = self._span(j)
        return self.ring[j % 2, r0:T].reshape(-1, self.ring.shape[-1])

    def copy_draws(self, j: int) -> None:
        k, p = self.k, self.p
        t0, T, _ = self._span(j)
        buf = self.ring[j % 2]
        buf[:T, :, 3 * k:4 * k + p] = self.e_wv[:, t0:t0 + T].transpose(1, 0, 2)
        buf[:T, :, 4 * k + p:] = self.e_m[:, t0:t0 + T].transpose(1, 0, 2)

    def step(self, j: int) -> None:
        _, T, _ = self._span(j)
        z = slice(0, 3 * self.k)
        buf, after = self.ring[j % 2], self.ring[(j + 1) % 2]
        if j == 0:              # s_hat_0 = s_obs_0 = 0
            buf[0, :, :self.k] = self.s1 @ self.Sigma1_root.T
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(T - 1):
                np.matmul(buf[t], self.ABT, out=buf[t + 1, :, z])
            np.matmul(buf[T - 1], self.ABT, out=after[0, :, z])

    def check(self, j: int) -> None:
        """Raise NumericalOverflow at the chunk's first state with |s| > limit.

        |s| <= 3 max |z| since s = err + d + s_obs, and the draws, standard
        normals, stay far below, so one max and min usually clear the chunk.
        """
        k = self.k
        t0, T, _ = self._span(j)
        states = (self.ring[j % 2, 1:T],                    # z_{t0+1..t0+T-1}
                  self.ring[(j + 1) % 2, :1, :, :3 * k])    # z_{t0+T}
        limit = OVERFLOW_LIMIT / 3
        if all(b.max() <= limit and b.min() >= -limit      # or nan
               for b in states if b.size):
            return
        with np.errstate(over="ignore", invalid="ignore"):
            ok = np.concatenate([
                np.abs(b[..., :k] + b[..., k:2 * k] + b[..., 2 * k:3 * k])
                .max(axis=(1, 2)) <= OVERFLOW_LIMIT
                for b in states])
        if not ok.all():
            raise NumericalOverflow(
                f"trajectory diverged at step {t0 + 1 + int(np.argmin(ok))}"
                "; the policy does not stabilize the closed loop")

    def reduce(self, j: int) -> None:
        """C [z_i, e_i]^T: the per-trajectory cost and the innovations psi."""
        _, T, r0 = self._span(j)
        if r0 < T:
            rows = self._rows(j)
            q = self.q[:len(self.C) * len(rows)].reshape(len(self.C), len(rows))
            np.matmul(self.C, rows.T, out=q)
            c = q[:self.k + self.m].reshape(self.k + self.m, T - r0, self.N)
            self.cost_sum += np.einsum("ctn,ctn->n", c, c)
            self.psi = q[self.k + self.m:]

    def add_gram(self, j: int) -> None:
        _, T, r0 = self._span(j)
        if r0 < T:
            rows = self._rows(j)
            # np.dot, not @: matmul keeps the interpreter lock through a
            # product with so small an output, which stalls the helper
            self.gram += np.dot(rows.T, rows)

    def add_lag(self, j: int) -> None:
        """psi_{i-1}^T [z_i, e_i] over the chunk's retained pairs; after reduce."""
        psi, self.psi = self.psi, None
        if psi is None:         # nothing retained
            return
        N, rows = self.N, self._rows(j)
        if self.psi_prev is None:
            self.d_head = float(np.sum(rows[:N, self.k:2 * self.k] ** 2))
        else:
            self.lag += self.psi_prev @ rows[:N]
        self.lag += psi[:, :-N] @ rows[N:]
        self.psi_prev = psi[:, -N:].copy()

    def check_and_reduce(self, j: int) -> None:
        self.check(j)
        self.reduce(j)

    def run(self, submit) -> None:
        """Every chunk's stages, in chunk order.

        The calling thread steps each chunk and adds its Gram and lag.
        submit(stage, j), an executor's or _run_now, runs the other stages
        in the order submitted and returns a Future: chunk j + 1's copy
        overlaps chunk j's steps, and chunk j's check and reduce its Gram.
        Chunk j + 1 takes chunk j - 1's buffer, which add_lag has released.
        """
        copied = submit(self.copy_draws, 0)
        for j in range(self.count):
            copied.result()
            if j + 1 < self.count:
                copied = submit(self.copy_draws, j + 1)
            self.step(j)
            reduced = submit(self.check_and_reduce, j)
            self.add_gram(j)
            reduced.result()
            self.add_lag(j)


def _run_now(fn, *args) -> Future:
    """fn(*args) on the calling thread, as a completed Future."""
    fn(*args)
    done = Future()
    done.set_result(None)
    return done


def simulate(model: SystemModel, weights: CostWeights, policy: Policy,
             cfg: SimConfig) -> SimReport:
    """Run the closed loop and report empirical statistics.

    Steady-state gains are used from the first step; the configured burn-in
    lets the state transients decay before statistics accumulate.
    """
    k, m, p = model.k, model.m, model.p
    n, N, burn = cfg.horizon, cfg.trajectories, cfg.burn_in
    # per-trajectory streams, drawn in place, trajectory-major; W - 1
    # one-thread executors fill the last W - 1 ranges while this thread solves
    # for the gains, and the first of them is the chunk loop's helper
    s1, e_wv, e_m = np.empty((N, k)), np.empty((N, n, k + p)), np.empty((N, n, m))
    W = min(usable_cpus(), N)
    bounds = [N * w // W for w in range(W + 1)]
    workers = [ThreadPoolExecutor(max_workers=1) for _ in range(W - 1)]

    def fill(lo: int, hi: int) -> None:
        for j in range(lo, hi):
            _traj_noise(cfg.seed, j, s1[j], e_wv[j], e_m[j])

    try:
        drawn = [ex.submit(fill, lo, hi)
                 for ex, lo, hi in zip(workers, bounds[1:-1], bounds[2:])]
        est = ProblemConstants.compute(model, weights).estimator
        prs = riccati.solve_policy_riccati(est, policy)
        # rows: z_{i+1} = [z_i, e_i] ABT; [Q^1/2 s_i, R^1/2 x_i, psi_i] = C [z_i, e_i]
        ABT, C = _closed_loop(model, weights, policy, est.K_p, prs.K_Y)
        chunks = _Chunks(model, cfg, ABT, C, s1, e_wv, e_m)
        fill(0, bounds[1])
        for future in drawn:
            future.result()
        chunks.run(workers[0].submit if workers else _run_now)
    finally:
        for ex in workers:
            ex.shutdown(cancel_futures=True)

    err_, d_, obs_ = slice(0, k), slice(k, 2 * k), slice(2 * k, 3 * k)
    gram, lag = chunks.gram, chunks.lag
    n_ret = n - burn
    total, lag_pairs = N * n_ret, max(N * (n_ret - 1), 1)
    per_traj_cost = chunks.cost_sum / n_ret
    stderr = float(np.std(per_traj_cost, ddof=1) / math.sqrt(N)) if N > 1 else 0.0
    C_psi = C[k + m:]
    emp_psi_y = la.sym(C_psi @ gram @ C_psi.T / total)
    shat_sq = np.trace(gram[d_, d_] + gram[d_, obs_] + gram[obs_, d_]
                       + gram[obs_, obs_])      # s_hat = d + s_obs
    # |d|^2 over the retained steps after the first, none if one is retained:
    # a difference of sums of squares, which rounding can take below zero
    # when d is at rounding level
    obs_sq = (max(float(np.trace(gram[d_, d_])) - chunks.d_head, 0.0)
              if n_ret > 1 else 0.0)
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
