import dataclasses
import re

import numpy as np
import pytest

from lqgcap import (
    BudgetedProblem,
    Policy,
    ProblemConstants,
    SimConfig,
    compare_to_theory,
    evaluate_policy,
    extract_policy,
    simulate,
    solve_ub,
)
from lqgcap.errors import NumericalOverflow
from lqgcap.linalg import psd_sqrt
from lqgcap.simulator import CHUNK, SimReport, _traj_noise

from oracles import simulate_stepwise
from test_random_systems import random_system


@pytest.fixture(scope="module")
def quick_cfg():
    return SimConfig(horizon=400, trajectories=50, seed=99, burn_in=40)


@pytest.fixture(scope="module")
def s1_p2_lb(s1, w1, c1):
    ub = solve_ub(BudgetedProblem(s1, w1, 2.0), consts=c1)
    policy = extract_policy(ub, c1.control)
    return policy, evaluate_policy(c1.estimator, w1, c1.control, policy)


class TestConfig:
    def test_burn_in_default_is_tenth(self):
        cfg = SimConfig(horizon=1000, trajectories=2, seed=1)
        assert cfg.burn_in == 100

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=10, trajectories=1, seed=0, burn_in=10)
        with pytest.raises(ValueError):
            SimConfig(horizon=10, trajectories=0, seed=0)


class TestReproducibility:
    def test_identical_seeds_bit_identical(self, s1, w1, c1, s1_p2_lb, quick_cfg):
        policy, _ = s1_p2_lb
        a = simulate(s1, w1, policy, quick_cfg)
        b = simulate(s1, w1, policy, quick_cfg)
        assert a.empirical_cost == b.empirical_cost
        assert a.cost_stderr == b.cost_stderr
        assert np.array_equal(a.empirical_PsiY, b.empirical_PsiY)
        assert np.array_equal(a.empirical_SigmaHat, b.empirical_SigmaHat)
        assert a.empirical_rate == b.empirical_rate
        assert a.innovation_whiteness == b.innovation_whiteness

    def test_different_seed_differs(self, s1, w1, s1_p2_lb, quick_cfg):
        policy, _ = s1_p2_lb
        a = simulate(s1, w1, policy, quick_cfg)
        other = SimConfig(horizon=quick_cfg.horizon,
                          trajectories=quick_cfg.trajectories,
                          seed=quick_cfg.seed + 1, burn_in=quick_cfg.burn_in)
        b = simulate(s1, w1, policy, other)
        assert a.empirical_cost != b.empirical_cost

    def test_streams_keyed_by_trajectory(self):
        z1 = _traj_noise(7, 0, 10, 1, 1, 1)
        z2 = _traj_noise(7, 1, 10, 1, 1, 1)
        assert not np.array_equal(z1[1], z2[1])
        z1_again = _traj_noise(7, 0, 10, 1, 1, 1)
        assert np.array_equal(z1[1], z1_again[1])


class TestAgainstTheory:
    def test_lqg_policy_cost_near_floor(self, s1, w1, c1):
        pol = Policy(GammaBar=np.zeros((1, 1)), M=np.zeros((1, 1)),
                     K_LQR=c1.K_LQR)
        cfg = SimConfig(horizon=2000, trajectories=200, seed=12345, burn_in=200)
        rep = simulate(s1, w1, pol, cfg)
        assert abs(rep.empirical_cost - c1.minimal_cost) <= 3 * rep.cost_stderr

    def test_extracted_policy_statistics(self, s1, w1, s1_p2_lb):
        policy, lb = s1_p2_lb
        cfg = SimConfig(horizon=2000, trajectories=200, seed=12345, burn_in=200)
        rep = simulate(s1, w1, policy, cfg)
        psi_y = lb.riccati.Psi_Y[0, 0]
        assert abs(rep.empirical_PsiY[0, 0] - psi_y) / psi_y <= 0.03
        assert abs(rep.empirical_rate - lb.rate) / lb.rate <= 0.03
        assert abs(rep.empirical_cost - lb.achieved_budget) <= 3 * rep.cost_stderr
        assert rep.innovation_whiteness <= 4 / np.sqrt(
            cfg.trajectories * cfg.horizon)
        verdict = compare_to_theory(rep, lb)
        assert verdict.ok

    def test_orthogonality_properties(self, s1, w1, s1_p2_lb):
        policy, _ = s1_p2_lb
        cfg = SimConfig(horizon=2000, trajectories=100, seed=777, burn_in=200)
        rep = simulate(s1, w1, policy, cfg)
        # MMSE orthogonality: (s - s_hat) uncorrelated with s_hat
        se = rep.state_err_scale * rep.shat_scale / np.sqrt(rep.samples)
        assert np.linalg.norm(rep.cross_state_err) <= 5 * se
        # innovations orthogonality: observer error vs past innovation
        se2 = rep.obs_err_scale * rep.psi_scale / np.sqrt(rep.samples)
        assert np.linalg.norm(rep.cross_obs_psi) <= 5 * se2

    def test_zero_dither_policy_draws_zero_noise(self, s1_p2_lb):
        policy, _ = s1_p2_lb
        assert np.linalg.norm(policy.M) <= 1e-6
        factor = psd_sqrt(np.zeros((1, 1)))
        assert np.all(factor == 0.0)
        z = np.random.default_rng(0).standard_normal((100, 1))
        assert np.all(z @ factor.T == 0.0)

    def test_mismatched_theory_flagged(self, s1, w1, c1, s1_p2_lb, quick_cfg):
        policy, _ = s1_p2_lb
        rep = simulate(s1, w1, policy, SimConfig(
            horizon=2000, trajectories=200, seed=12345, burn_in=200))
        ub3 = solve_ub(BudgetedProblem(s1, w1, 3.0), consts=c1)
        pol3 = extract_policy(ub3, c1.control)
        lb3 = evaluate_policy(c1.estimator, w1, c1.control, pol3)
        verdict = compare_to_theory(rep, lb3)
        assert not verdict.ok
        failed = {c.name for c in verdict.checks if not c.ok}
        assert "cost_within_stderr" in failed

    def test_vector_system_runs(self, s2, w2, c2):
        ub = solve_ub(BudgetedProblem(s2, w2, 1.5 * c2.minimal_cost), consts=c2)
        policy = extract_policy(ub, c2.control)
        lb = evaluate_policy(c2.estimator, w2, c2.control, policy)
        cfg = SimConfig(horizon=3000, trajectories=60, seed=4242, burn_in=300)
        rep = simulate(s2, w2, policy, cfg)
        assert compare_to_theory(rep, lb).ok


# Horizons off the chunk grid; burn-in at 0, on a chunk boundary, one step
# before it and inside a chunk; a horizon shorter than a chunk; one trajectory.
ORACLE_CONFIGS = [
    SimConfig(horizon=600, trajectories=5, seed=3, burn_in=0),
    SimConfig(horizon=700, trajectories=4, seed=4, burn_in=CHUNK),
    SimConfig(horizon=2 * CHUNK, trajectories=3, seed=8, burn_in=CHUNK - 1),
    SimConfig(horizon=530, trajectories=3, seed=5, burn_in=300),
    SimConfig(horizon=200, trajectories=6, seed=6, burn_in=20),
    SimConfig(horizon=300, trajectories=1, seed=7, burn_in=30),
]


@pytest.fixture(scope="module", params=["s1", "s2", 11, 41, 59],
                ids=lambda p: p if isinstance(p, str) else f"plant{p}")
def oracle_case(request, s1, w1, s2, w2):
    """A plant, its weights and the policy extracted above its cost floor.

    Plants 11, 41 and 59 of the random generator have correlated noise
    (L != 0), m or p of 2, and dithered policies at 2.5x the floor (11, 59).
    """
    name = request.param
    model, weights = {"s1": (s1, w1), "s2": (s2, w2)}.get(name) \
        or random_system(name)
    consts = ProblemConstants.compute(model, weights)
    floor = consts.minimal_cost
    budget = {"s1": 2.0, "s2": 1.5 * floor}.get(name, 2.5 * floor + 0.1)
    ub = solve_ub(BudgetedProblem(model, weights, budget), consts=consts)
    return model, weights, extract_policy(ub, consts.control)


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS, ids=lambda c: (
    f"n{c.horizon}-N{c.trajectories}-b{c.burn_in}"))
def test_matches_stepwise_oracle(oracle_case, cfg):
    model, weights, policy = oracle_case
    got = simulate(model, weights, policy, cfg)
    want = simulate_stepwise(model, weights, policy, cfg)
    for field in dataclasses.fields(SimReport):
        a = np.asarray(getattr(got, field.name), float)
        b = np.asarray(getattr(want, field.name), float)
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b), field.name


def _overflow_step(run, model, weights, policy, cfg) -> int:
    with pytest.raises(NumericalOverflow) as exc:
        run(model, weights, policy, cfg)
    return int(re.search(r"diverged at step (\d+);", str(exc.value)).group(1))


def test_destabilizing_policy_overflows(s1, w1, c1):
    pol = Policy(GammaBar=np.zeros((1, 1)), M=np.zeros((1, 1)),
                 K_LQR=np.array([[-5.0]]))
    cfg = SimConfig(horizon=2000, trajectories=2, seed=3)
    assert _overflow_step(simulate, s1, w1, pol, cfg) == 18


def test_late_divergence_names_the_oracles_step(s1, w1):
    """A mildly unstable loop (F - G K = 1.08) crosses the limit in chunk 2."""
    pol = Policy(GammaBar=np.zeros((1, 1)), M=np.zeros((1, 1)),
                 K_LQR=np.array([[-0.58]]))
    cfg = SimConfig(horizon=2000, trajectories=3, seed=5)
    step = _overflow_step(simulate, s1, w1, pol, cfg)
    assert CHUNK < step < 2 * CHUNK
    assert step == _overflow_step(simulate_stepwise, s1, w1, pol, cfg)
