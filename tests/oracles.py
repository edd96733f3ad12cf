"""Independent oracles used to pin expected values in the tests.

Everything here is deliberately written as plain loops / grid scans that do
not share code with the library's solvers.  `simulate_stepwise` takes the
library's gains and noise streams and replaces only the simulation loop.
"""

from __future__ import annotations

import math

import numpy as np

from lqgcap import linalg as la
from lqgcap import riccati
from lqgcap.errors import NumericalOverflow
from lqgcap.model import reduce_to_estimator
from lqgcap.simulator import OVERFLOW_LIMIT, SimReport, _traj_noise


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


def scalar_ub_bruteforce(F, G, H, J, W, V, L, Q, R, budget,
                         box=5.0, coarse_step=1e-3, zoom_rounds=3):
    """Grid-scan oracle for the scalar determinant-maximization bound.

    Scans (Gamma, SigmaHat) over [0, box]^2; for each pair the best Pi is
    found in closed form because the objective is increasing in Pi and every
    constraint is affine in Pi at fixed (Gamma, SigmaHat).  Zooming grids
    refine the optimum to ~1e-6.  Returns (rate_nats, Pi, Gamma, SigmaHat).
    """
    sigma, k_p, psi = iterate_filter(F, G, H, J, W, V, L)
    e, k_l, psil = iterate_control(F, G, Q, R)
    sigma, k_p, psi = sigma[0, 0], k_p[0, 0], psi[0, 0]
    e, k_l, psil = e[0, 0], k_l[0, 0], psil[0, 0]
    jstar = k_p * k_p * psi * e + sigma * Q
    slack = budget - jstar
    if slack <= 0:
        return 0.0, 0.0, 0.0, 0.0

    def best_over_pi(gam, sig):
        """Vectorized over gam/sig arrays: largest feasible Pi and objective."""
        lo = np.where(sig > 0, gam * gam / np.maximum(sig, 1e-300), np.inf)
        lo = np.where((sig <= 0) & (gam == 0), 0.0, lo)
        hi_cost = (slack - k_l * k_l * psil * sig - 2 * k_l * psil * gam) / psil
        # Schur complement of the Riccati LMI: h(Pi) = h0 + s*Pi >= 0 with
        # a = a0 + G^2 Pi, b = b0 + G J Pi, c = c0 + J^2 Pi, h = a c - b^2.
        a0 = (F * F - 1.0) * sig + 2 * F * G * gam + k_p * k_p * psi
        b0 = F * sig * H + (F * J + G * H) * gam + k_p * psi
        c0 = H * H * sig + 2 * H * J * gam + psi
        s = a0 * J * J + c0 * G * G - 2 * b0 * G * J
        h0 = a0 * c0 - b0 * b0
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = -h0 / s
        hi = np.minimum(hi_cost, box)
        hi = np.where(s < 0, np.minimum(hi, bound), hi)
        lo2 = np.where(s > 0, np.maximum(lo, bound), lo)
        lo2 = np.where((s == 0) & (h0 < 0), np.inf, lo2)
        pi = np.where(hi >= lo2, hi, np.nan)
        psi_y = H * H * sig + J * J * pi + 2 * H * J * gam + psi
        return pi, psi_y

    def scan(g_lo, g_hi, s_lo, s_hi, n):
        gams = np.linspace(g_lo, g_hi, n)
        sigs = np.linspace(s_lo, s_hi, n)
        best = (-np.inf, 0.0, 0.0, 0.0)
        for sig in sigs:
            pi, psi_y = best_over_pi(gams, np.full_like(gams, sig))
            ok = np.isfinite(psi_y)
            if not ok.any():
                continue
            idx = np.nanargmax(np.where(ok, psi_y, -np.inf))
            if psi_y[idx] > best[0]:
                best = (float(psi_y[idx]), float(pi[idx]), float(gams[idx]), float(sig))
        return best

    n_coarse = int(round(box / coarse_step)) + 1
    best = scan(0.0, box, 0.0, box, n_coarse)
    width = 2 * coarse_step
    for _ in range(zoom_rounds):
        _, _, g0, s0 = best
        cand = scan(max(0.0, g0 - width), min(box, g0 + width),
                    max(0.0, s0 - width), min(box, s0 + width), 801)
        if cand[0] > best[0]:
            best = cand
        width *= 8e-3
    psi_y, pi, gam, sig = best
    rate = 0.5 * np.log(psi_y / psi)
    return float(rate), pi, gam, sig


def simulate_stepwise(model, weights, policy, cfg):
    """`lqgcap.simulate` as one numpy update per signal and time step.

    The library runs the same closed loop as one augmented linear recursion
    over time chunks; this is the plain per-step loop it replaced, kept to
    pin its reports.  Same noise streams, same statistics.
    """
    est = reduce_to_estimator(model)
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
        a, b, c = _traj_noise(cfg.seed, i, n, k, p, m)
        z_s1[i], z_wv[i], z_m[i] = a, b, c
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
