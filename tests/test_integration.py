"""End-to-end chains on dimension regimes not covered by the two standard
systems: multi-input/multi-output plants and cross-correlated noise."""

import numpy as np
import pytest

from lqgcap import (
    BudgetedProblem,
    CostWeights,
    ProblemConstants,
    SimConfig,
    SystemModel,
    compare_to_theory,
    simulate,
    solve_capacity,
)

from oracles import kkt_scaled_multipliers, verify_scalar_kkt


@pytest.fixture(scope="module")
def mimo():
    model = SystemModel(F=[[0.9, 0.2], [0.0, 0.6]], G=np.eye(2), H=np.eye(2),
                        J=[[1.0, 0.0], [0.0, 0.5]], W=np.eye(2), V=np.eye(2),
                        L=np.zeros((2, 2)))
    weights = CostWeights(Q=np.eye(2), R=np.eye(2))
    return model, weights, ProblemConstants.compute(model, weights)


@pytest.fixture(scope="module")
def correlated():
    model = SystemModel(F=0.8, G=1, H=1, J=0.5, W=2, V=1, L=0.6)
    weights = CostWeights(Q=1, R=1)
    return model, weights, ProblemConstants.compute(model, weights)


class TestMIMO:
    def test_bounds_meet_and_certify(self, mimo):
        model, weights, c = mimo
        for mult in (1.2, 2.0):
            p = mult * c.minimal_cost
            rep = solve_capacity(BudgetedProblem(model, weights, p), consts=c)
            ub, lb, cert = rep.ub, rep.lb, rep.certificate
            assert cert.tight
            assert abs(ub.rate - lb.rate) <= 1e-6
            assert lb.policy.GammaBar.shape == (2, 2)
            assert np.all(np.linalg.eigvalsh(lb.policy.M) >= 0)

    def test_simulation_matches(self, mimo):
        model, weights, c = mimo
        p = 2.0 * c.minimal_cost
        lb = solve_capacity(BudgetedProblem(model, weights, p), consts=c).lb
        rep = simulate(model, weights, lb.policy,
                       SimConfig(horizon=1500, trajectories=80, seed=5,
                                 burn_in=150))
        assert compare_to_theory(rep, lb).ok
        assert rep.empirical_PsiY.shape == (2, 2)


class TestCorrelatedNoise:
    def test_capacity_and_kkt(self, correlated):
        model, weights, c = correlated
        p = 2.5 * c.minimal_cost
        prob = BudgetedProblem(model, weights, p)
        rep = solve_capacity(prob, consts=c)
        sol, cert = rep.ub, rep.certificate
        assert cert.tight
        kkt = verify_scalar_kkt(prob, sol, c)
        assert abs(kkt.g3_value) <= 1e-6
        assert np.max(np.abs(kkt.stationarity_residuals)) <= 1e-5
        assert kkt_scaled_multipliers(sol) == pytest.approx(
            (kkt.lambda2, kkt.lambda3, kkt.lambda5), rel=1e-6)

    def test_gain_uses_cross_covariance(self, correlated):
        model, _, c = correlated
        # K_p = (F Sigma H^T + L) Psi^{-1}; the L term must show up
        k_no_l = model.F[0, 0] * c.Sigma[0, 0] / c.Psi[0, 0]
        assert c.K_p[0, 0] != pytest.approx(k_no_l)
