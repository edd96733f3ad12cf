import logging
import pathlib
from functools import partial
from itertools import islice

import numpy as np
import pytest
import scipy.linalg

from lqgcap import (
    BudgetedProblem,
    CostWeights,
    Policy,
    ProblemConstants,
    SystemModel,
    control_equation,
    filter_equation,
    pbh_test,
    policy_equation,
    solve_control_riccati,
    solve_filter_riccati,
    solve_policy_riccati,
    solve_ub,
)
from lqgcap.config import load_config
from lqgcap.errors import (
    DetectabilityFailure,
    NonConvergence,
    RegularityViolation,
)
from lqgcap.linalg import spectral_radius, sym
from lqgcap.lower_bound import extract_policy
from lqgcap.riccati import _solve_dare
from lqgcap.upper_bound import UBProgram, damped_equation

import oracles
from oracles import (
    iterate_fixed_point,
    quad_root_sigma_s1,
    scalar_policy_fixed_point,
)
from test_random_systems import random_system

SCALAR_CFG = pathlib.Path(__file__).resolve().parents[1] / "configs" / "scalar.json"


def filter_residual(model, fc):
    k = fc.K_p
    rhs = model.F @ fc.Sigma @ model.F.T + model.W - k @ fc.Psi @ k.T
    return np.linalg.norm(fc.Sigma - rhs) / (1 + np.linalg.norm(fc.Sigma))


def control_residual(model, weights, cc):
    rhs = (model.F.T @ cc.E @ model.F + weights.Q
           - cc.K_LQR.T @ cc.Psi_LQR @ cc.K_LQR)
    return np.linalg.norm(cc.E - rhs) / (1 + np.linalg.norm(cc.E))


class TestFilter:
    def test_s1_quadratic_root(self, s1):
        fc = solve_filter_riccati(s1)
        assert abs(fc.Sigma[0, 0] - quad_root_sigma_s1()) <= 1e-9
        assert filter_residual(s1, fc) <= 1e-9
        assert spectral_radius(s1.F - fc.K_p @ s1.H) < 1

    def test_static_state_one_step(self, w1):
        model = SystemModel(F=0, G=1, H=1, J=1, W=1, V=1, L=0)
        fc = solve_filter_riccati(model)
        assert fc.Sigma[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_vector_system_stabilizes_unstable_plant(self, s2):
        fc = solve_filter_riccati(s2)
        assert spectral_radius(s2.F) == pytest.approx(1.2)
        assert spectral_radius(s2.F - fc.K_p @ s2.H) < 1
        assert np.all(np.linalg.eigvalsh(fc.Sigma) > 0)
        assert filter_residual(s2, fc) <= 1e-9

    @pytest.mark.parametrize("name,mats", [
        ("s1", dict(F=0.5, G=1, H=1, J=1, W=1, V=1, L=0)),
        ("corr", dict(F=0.9, G=1, H=1, J=0, W=2, V=1, L=0.5)),
    ])
    def test_agrees_with_scipy_dare(self, name, mats, w1):
        model = SystemModel(**mats)
        fc = solve_filter_riccati(model)
        ref = scipy.linalg.solve_discrete_are(
            model.F.T, model.H.T, model.W, model.V, s=model.L)
        assert np.allclose(fc.Sigma, ref, atol=1e-9)

    def test_vector_agrees_with_scipy_dare(self, s2):
        fc = solve_filter_riccati(s2)
        ref = scipy.linalg.solve_discrete_are(
            s2.F.T, s2.H.T, s2.W, s2.V, s=s2.L)
        assert np.allclose(fc.Sigma, ref, atol=1e-8)


class TestControl:
    def test_s1_duality_with_filter(self, s1, w1):
        fc = solve_filter_riccati(s1)
        cc = solve_control_riccati(s1, w1)
        assert abs(fc.Sigma[0, 0] - cc.E[0, 0]) <= 1e-9
        assert control_residual(s1, w1, cc) <= 1e-9
        assert cc.K_LQR[0, 0] == pytest.approx(0.265564, abs=5e-7)
        assert cc.Psi_LQR[0, 0] == pytest.approx(2.132782, abs=5e-7)

    def test_zero_state_weight(self, s1):
        cc = solve_control_riccati(s1, CostWeights(Q=0, R=1))
        assert cc.E[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert cc.K_LQR[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert cc.Psi_LQR[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_static_dynamics(self, w1):
        model = SystemModel(F=0, G=1, H=1, J=1, W=1, V=1, L=0)
        cc = solve_control_riccati(model, w1)
        assert cc.E[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert cc.K_LQR[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_vector_agrees_with_scipy_dare(self, s2, w2):
        cc = solve_control_riccati(s2, w2)
        ref = scipy.linalg.solve_discrete_are(s2.F, s2.G, w2.Q, w2.R)
        assert np.allclose(cc.E, ref, atol=1e-8)
        assert spectral_radius(s2.F - s2.G @ cc.K_LQR) < 1


@pytest.mark.parametrize("s", [1e-12, 1e-14])
def test_the_stop_does_not_depend_on_units(s):
    # F = 2, G = H = J = 1 with noise or weights s: the solutions scale with
    # s, Sigma/s = E/s = 2 + sqrt(5); a stop that compared each update with
    # 1 + ||X|| ended after the first doubling at these scales
    model = SystemModel(F=2, G=1, H=1, J=1, W=s, V=s, L=0)
    root = 2.0 + np.sqrt(5.0)
    assert solve_filter_riccati(model).Sigma[0, 0] / s == pytest.approx(
        root, rel=1e-9)
    cc = solve_control_riccati(SystemModel(F=2, G=1, H=1, J=1, W=1, V=1, L=0),
                               CostWeights(Q=s, R=s))
    assert cc.E[0, 0] / s == pytest.approx(root, rel=1e-9)


class TestPolicyRiccati:
    def test_pure_lqg_policy(self, c1):
        pol = Policy(GammaBar=np.zeros((1, 1)), M=np.zeros((1, 1)),
                     K_LQR=c1.K_LQR)
        prs = solve_policy_riccati(c1.estimator, pol)
        assert prs.SigmaHat[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert prs.Psi_Y[0, 0] == pytest.approx(c1.Psi[0, 0], abs=1e-12)
        assert prs.K_Y[0, 0] == pytest.approx(c1.K_p[0, 0], abs=1e-12)

    def test_unit_dither_matches_fixed_point_oracle(self, c1):
        pol = Policy(GammaBar=np.zeros((1, 1)), M=np.ones((1, 1)),
                     K_LQR=c1.K_LQR)
        prs = solve_policy_riccati(c1.estimator, pol)
        want = scalar_policy_fixed_point(
            0.5, 1, 1, 1, c1.K_p[0, 0], c1.Psi[0, 0], 0.0, 1.0)
        assert prs.SigmaHat[0, 0] == pytest.approx(want, abs=1e-9)
        assert prs.Psi_Y[0, 0] == pytest.approx(
            prs.SigmaHat[0, 0] + 1.0 + c1.Psi[0, 0], abs=1e-9)

    def test_zero_dither_maximal_root(self, c1, caplog):
        # GammaBar chosen to destabilize the zero fixed point: the bootstrap
        # must push the recursion to the maximal solution
        gbar = 1.5
        pol = Policy(GammaBar=np.array([[gbar]]), M=np.zeros((1, 1)),
                     K_LQR=c1.K_LQR)
        est = c1.estimator
        f_s = (est.F + est.G * gbar - est.K_p @ (est.H + est.J * gbar))[0, 0]
        assert abs(f_s) > 1
        with caplog.at_level(logging.WARNING, logger="lqgcap.riccati"):
            prs = solve_policy_riccati(est, pol)
        want = c1.Psi[0, 0] * (f_s ** 2 - 1) / (est.H + est.J * gbar)[0, 0] ** 2
        assert prs.bootstrapped
        assert prs.SigmaHat[0, 0] == pytest.approx(want, rel=1e-8)
        # the restart is announced once, with the first recursion's error
        warned = [r for r in caplog.records if r.name == "lqgcap.riccati"]
        assert len(warned) == 1
        assert warned[0].levelno == logging.WARNING
        assert "rejected limit" in warned[0].getMessage()
        assert "M_1 = eps*I" in warned[0].getMessage()

    @pytest.mark.parametrize("name, point", [("scalar", 2.0), ("vector3", 120.0)])
    def test_bundled_policies_need_no_bootstrap(self, name, point, caplog):
        """Every bundled sweep point and the simulate point solve the policy
        Riccati equation from SigmaHat_1 = 0, with nothing logged."""
        cfg = load_config(str(SCALAR_CFG.with_name(f"{name}.json")))
        consts = ProblemConstants.compute(cfg.model, cfg.weights)
        with caplog.at_level(logging.WARNING, logger="lqgcap.riccati"):
            for budget in [*cfg.budget_sweep.grid(), point]:
                ub = solve_ub(BudgetedProblem(cfg.model, cfg.weights, budget),
                              consts=consts)
                pol = extract_policy(ub, consts.control)
                assert not solve_policy_riccati(consts.estimator, pol).bootstrapped
        assert not [r for r in caplog.records if r.name == "lqgcap.riccati"]

    def test_residual_invariant(self, c1):
        pol = Policy(GammaBar=np.array([[0.3]]), M=np.array([[0.2]]),
                     K_LQR=c1.K_LQR)
        prs = solve_policy_riccati(c1.estimator, pol)
        assert prs.residual <= 1e-9 * (1 + np.linalg.norm(prs.SigmaHat))
        assert np.all(np.linalg.eigvalsh(prs.Psi_Y - c1.Psi) >= -1e-12)


class TestRecursions:
    def test_filter_one_step_from_zero(self, s1):
        trace = filter_equation(s1).recursion(np.zeros((1, 1)), 1)
        assert len(trace) == 2
        assert trace[1][0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_filter_one_step_with_cross_covariance(self, w1):
        model = SystemModel(F=0.5, G=1, H=1, J=1, W=2, V=1, L=0.5)
        trace = filter_equation(model).recursion(np.zeros((1, 1)), 1)
        assert trace[1][0, 0] == pytest.approx(2 - 0.5 ** 2 / 1.0, abs=1e-14)

    def test_control_converges_geometrically(self, s1, w1):
        cc = solve_control_riccati(s1, w1)
        trace = control_equation(s1, w1).recursion(w1.Q, 50)
        assert np.linalg.norm(trace[-1] - cc.E) <= 1e-10

    def test_policy_zero_dither_map(self, c1):
        gbar = 1.5
        pol = Policy(GammaBar=np.array([[gbar]]), M=np.zeros((1, 1)),
                     K_LQR=c1.K_LQR)
        est = c1.estimator
        f_s = (est.F + est.G * gbar - est.K_p @ (est.H + est.J * gbar))[0, 0]
        h_t = (est.H + est.J * gbar)[0, 0]
        psi = c1.Psi[0, 0]
        start = np.array([[0.3]])
        trace = policy_equation(est, pol).recursion(start, 5)
        x = start[0, 0]
        for step in trace[1:]:
            x = f_s ** 2 * x * psi / (h_t ** 2 * x + psi)
            assert step[0, 0] == pytest.approx(x, rel=1e-12)

    def test_policy_zero_dither_monotone_regions(self, c1):
        gbar = 1.5
        pol = Policy(GammaBar=np.array([[gbar]]), M=np.zeros((1, 1)),
                     K_LQR=c1.K_LQR)
        est = c1.estimator
        prs = solve_policy_riccati(est, pol)
        eq = policy_equation(est, pol)
        top = prs.SigmaHat[0, 0]
        for x in np.linspace(0.01, 0.99, 15) * top:
            assert eq.step(np.array([[x]]))[0, 0] > x
        for x in top * np.linspace(1.01, 3.0, 15):
            assert eq.step(np.array([[x]]))[0, 0] < x


class TestPBH:
    def test_stable_pair_detectable_with_zero_output(self):
        assert pbh_test(np.array([[0.5]]), np.array([[0.0]]), "detectable").ok

    def test_unstable_pair_not_stabilizable(self):
        res = pbh_test(np.array([[2.0]]), np.array([[0.0]]), "stabilizable")
        assert not res.ok
        assert res.eigenvalue == pytest.approx(2.0)
        assert res.witness is not None

    def test_unit_circle_mode(self):
        f = np.diag([1.0, 0.5])
        assert not pbh_test(f, np.array([[0.0], [1.0]]),
                            "unit_circle_controllable").ok
        assert pbh_test(f, np.array([[1.0], [0.0]]),
                        "unit_circle_controllable").ok

    def test_repeated_eigenvalue_subspace(self):
        # both unit eigendirections must be reachable; a rank-1 B misses one
        f = np.eye(2)
        assert not pbh_test(f, np.array([[1.0], [1.0]]), "stabilizable").ok
        assert pbh_test(f, np.eye(2), "stabilizable").ok

    def test_detectable_matches_dare_existence(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            f = rng.standard_normal((3, 3))
            f = 1.1 * f / spectral_radius(f)
            h = rng.standard_normal((1, 3))
            w = np.eye(3)
            v = np.array([[1.0]])
            try:
                sig = scipy.linalg.solve_discrete_are(f.T, h.T, w, v)
            except np.linalg.LinAlgError:
                continue
            k = (f @ sig @ h.T) @ np.linalg.inv(h @ sig @ h.T + v)
            if spectral_radius(f - k @ h) < 1:
                assert pbh_test(f, h, "detectable").ok

    def test_stabilizability_pair_stabilizable_with_positive_dither(self, c1):
        from lqgcap.lower_bound import _stabilizability_pair
        pol = Policy(GammaBar=np.array([[0.3]]), M=np.array([[0.5]]),
                     K_LQR=c1.K_LQR)
        fs, gsws = _stabilizability_pair(c1.estimator, pol,
                                         policy_equation(c1.estimator, pol))
        assert (c1.model.G - c1.K_p @ c1.model.J)[0, 0] != 0
        assert pbh_test(fs, gsws, "stabilizable").ok

    def test_dimension_checks(self):
        from lqgcap.errors import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            pbh_test(np.eye(2), np.eye(3), "stabilizable")


def test_every_fixed_point_resubstitutes(s1, w1, s2, w2, c1):
    for model, weights in [(s1, w1), (s2, w2)]:
        fc = solve_filter_riccati(model)
        cc = solve_control_riccati(model, weights)
        assert filter_residual(model, fc) <= 1e-9
        assert control_residual(model, weights, cc) <= 1e-9
    pol = Policy(GammaBar=np.array([[0.2]]), M=np.array([[0.1]]),
                 K_LQR=c1.K_LQR)
    prs = solve_policy_riccati(c1.estimator, pol)
    est = c1.estimator
    ft = est.F + est.G @ pol.GammaBar
    rhs = (ft @ prs.SigmaHat @ ft.T + est.G @ pol.M @ est.G.T
           + est.K_p @ est.Psi @ est.K_p.T - prs.K_Y @ prs.Psi_Y @ prs.K_Y.T)
    rel = np.linalg.norm(prs.SigmaHat - sym(rhs)) / (1 + np.linalg.norm(prs.SigmaHat))
    assert rel <= 1e-9


# Norm-relative distances, scaled by 1 + ||reference|| so that a zero
# reference compares absolutely.  The fixed-point oracle stops on a 1e-11
# relative update, so near a slow closed loop it is only accurate to about
# 1e-9.
ORACLE_TOL = 1e-8
SCIPY_TOL = 1e-11
RESIDUAL_TOL = 1e-12


def rel_dist(a, b):
    return np.linalg.norm(a - b) / (1 + np.linalg.norm(b))


def policy_equation_terms(est, pol):
    """(Ft, Ht, Q, S, R) of the policy equation in filter form,
    X = Ft X Ft' + Q - (Ft X Ht' + S)(Ht X Ht' + R)^-1 (Ft X Ht' + S)'."""
    G, J, M, K_p, Psi = est.G, est.J, pol.M, est.K_p, est.Psi
    return (est.F + G @ pol.GammaBar, est.H + J @ pol.GammaBar,
            G @ M @ G.T + K_p @ Psi @ K_p.T, G @ M @ J.T + K_p @ Psi,
            J @ M @ J.T + Psi)


@pytest.fixture(scope="module", params=["s1", "s2", 11, 41, 59, 83],
                ids=lambda p: p if isinstance(p, str) else f"plant{p}")
def dare_case(request, s1, w1, s2, w2, c1):
    """A plant, its weights, its constants and the policies whose equations
    are checked: those extracted above the cost floor and, on s1 (constants
    c1), a hand-set dithered one.  The random plants have correlated noise
    and m or p of 2; plant 41 at 2.5x the floor has a closed loop at spectral
    radius 0.96, where doubling alone stops at an equation residual of 1e-8
    and the Newton polish is needed."""
    name = request.param
    model, weights = {"s1": (s1, w1), "s2": (s2, w2)}.get(name) \
        or random_system(name)
    consts = c1 if name == "s1" else ProblemConstants.compute(model, weights)
    floor = consts.minimal_cost
    budgets = {"s1": [2.0], "s2": [1.5 * floor]}.get(
        name, [1.3 * floor + 0.1, 2.5 * floor + 0.1])
    policies = [extract_policy(solve_ub(BudgetedProblem(model, weights, b),
                                        consts=consts), consts.control)
                for b in budgets]
    if name == "s1":
        policies.append(Policy(GammaBar=np.array([[0.3]]),
                               M=np.array([[0.2]]), K_LQR=c1.K_LQR))
    return model, weights, consts, policies


def test_filter_matches_oracle_and_scipy(dare_case):
    model, _, _, _ = dare_case
    fc = solve_filter_riccati(model)
    want, _, _ = iterate_fixed_point(partial(oracles._filter_step, model),
                                     np.zeros((model.k, model.k)))
    ref = scipy.linalg.solve_discrete_are(model.F.T, model.H.T, model.W,
                                          model.V, s=model.L)
    assert rel_dist(fc.Sigma, want) <= ORACLE_TOL
    assert rel_dist(fc.Sigma, ref) <= SCIPY_TOL
    assert filter_residual(model, fc) <= RESIDUAL_TOL


def test_control_matches_oracle_and_scipy(dare_case):
    model, weights, _, _ = dare_case
    cc = solve_control_riccati(model, weights)
    want, _, _ = iterate_fixed_point(
        partial(oracles._control_step, model, weights), weights.Q)
    ref = scipy.linalg.solve_discrete_are(model.F, model.G, weights.Q,
                                          weights.R)
    assert rel_dist(cc.E, want) <= ORACLE_TOL
    assert rel_dist(cc.E, ref) <= SCIPY_TOL
    assert control_residual(model, weights, cc) <= RESIDUAL_TOL


def test_policy_matches_oracle_and_scipy(dare_case):
    _, _, consts, policies = dare_case
    est = consts.estimator
    for pol in policies:
        Ft, Ht, Q, S, R = policy_equation_terms(est, pol)
        prs = solve_policy_riccati(est, pol)

        def stabilizing(X):
            K_Y, _ = oracles.policy_innovation(est, pol, X)
            return spectral_radius(Ft - K_Y @ Ht) < 1.0 - 1e-9

        want, _, _ = iterate_fixed_point(
            partial(oracles._policy_step, est, pol, M=pol.M),
            np.zeros((est.k, est.k)), accept=stabilizing)
        ref = scipy.linalg.solve_discrete_are(Ft.T, Ht.T, Q, R, s=S)
        X = prs.SigmaHat
        assert rel_dist(X, want) <= ORACLE_TOL
        assert rel_dist(X, ref) <= SCIPY_TOL
        assert prs.residual <= RESIDUAL_TOL * (1 + np.linalg.norm(X))
        assert stabilizing(X)


# The equation type and the per-equation reference maps associate the gain
# alike only for control; elsewhere they agree to rounding.
REFERENCE_TOL = 1e-14


def step_scale(eq, X):
    """1 + the size of the terms a step sums, which bounds its rounding: at
    a slow closed loop they are far larger than the step itself."""
    K, Psi = eq.gain(X)
    return 1.0 + sum(float(np.linalg.norm(t)) for t in
                     (eq.Ft @ X @ eq.Ft.T, eq.Q, K @ Psi @ K.T))


def test_equations_match_the_reference_maps(dare_case):
    """Each equation's gain and step against the reference maps, at 0, at a
    random PSD point and at the equation's solution; the UB strict point
    and the horizon program's start against the damped chain."""
    model, weights, consts, policies = dare_case
    est = consts.estimator
    rng = np.random.default_rng(0)

    def points(x):
        a = rng.standard_normal(x.shape)
        return [np.zeros_like(x), a @ a.T, x]

    control = control_equation(model, weights)
    for X in points(consts.E):
        K, Psi = control.gain(X)
        K_ref, Psi_ref = oracles.control_gain(model, weights, X)
        assert np.array_equal(K.T, K_ref) and np.array_equal(Psi, Psi_ref)
        assert np.array_equal(control.step(X),
                              sym(oracles._control_step(model, weights, X)))

    cases = [(filter_equation(model), partial(oracles.filter_gain, model),
              partial(oracles._filter_step, model), consts.Sigma)]
    cases += [(policy_equation(est, pol),
               partial(oracles.policy_innovation, est, pol),
               partial(oracles._policy_step, est, pol, M=pol.M),
               solve_policy_riccati(est, pol).SigmaHat) for pol in policies]
    for eq, gain, step, x in cases:
        for X in points(x):
            (K, Psi), (K_ref, Psi_ref) = eq.gain(X), gain(X)
            assert rel_dist(K, K_ref) <= REFERENCE_TOL
            assert rel_dist(Psi, Psi_ref) <= REFERENCE_TOL
            assert (np.linalg.norm(eq.step(X) - sym(step(X)))
                    <= REFERENCE_TOL * step_scale(eq, X))

    p = 1.3 * consts.minimal_cost + 0.1
    prog = UBProgram(consts, p)
    eps = (p - consts.minimal_cost) / (2.0 * (np.trace(consts.Psi_LQR) + 1.0))
    for e in (eps, 1e-3 * eps):
        want = oracles._strict_point(prog, e)
        assert rel_dist(prog.start(e), want) <= 1e-9
    start = damped_equation(consts, eps).recursion(
        np.zeros((model.k, model.k)), 8)
    chain = islice(oracles.damped_chain(consts, eps, 0.0), 9)
    for x, want in zip(start, chain, strict=True):
        assert rel_dist(x, want) <= REFERENCE_TOL
    # the relaxed start of the horizon program's reference path
    relaxation = oracles.chain_relaxation(consts)
    start = oracles.damped_equation(consts, eps, relaxation).recursion(
        np.zeros((model.k, model.k)), 8)
    chain = islice(oracles.damped_chain(consts, eps, relaxation), 9)
    for x, want in zip(start, chain, strict=True):
        assert rel_dist(x, want) <= REFERENCE_TOL


def test_damped_limit_is_singular_under_state_feedback(state_feedback_model,
                                                        w1):
    # G = K_p J: the zero-information policy's observer error stays at 0,
    # and the program's face has no columns, so the strict point is the
    # dither alone
    consts = ProblemConstants.compute(state_feedback_model, w1)
    prog = UBProgram(consts, 1.3 * consts.minimal_cost + 0.1)
    assert oracles._strict_point(prog, 1e-2) is None
    v = prog.start(1e-2)
    assert v is not None and prog.barrier_program().feasible(v)


def test_scalar_floor_policy_solves_in_few_steps():
    # The extracted policy at the cost floor has a dither near 0, so the
    # recursion from 0 crawls past a near-neutral fixed point: one step per
    # iteration took 7,293 iterations and stopped at a residual of 1.7e-9.
    cfg = load_config(str(SCALAR_CFG))
    consts = ProblemConstants.compute(cfg.model, cfg.weights)
    ub = solve_ub(BudgetedProblem(cfg.model, cfg.weights, 1.31), consts=consts)
    prs = solve_policy_riccati(consts.estimator,
                               extract_policy(ub, consts.control))
    assert prs.iterations <= 20
    assert prs.residual <= RESIDUAL_TOL * (1 + np.linalg.norm(prs.SigmaHat))


class TestFailurePaths:
    def test_undetectable_filter(self):
        model = SystemModel(F=2, G=1, H=0, J=1, W=1, V=1, L=0)
        with pytest.raises(RegularityViolation) as err:
            solve_filter_riccati(model)
        assert err.value.condition == "(F, H) detectable"

    def test_unstabilizable_control(self):
        model = SystemModel(F=np.diag([2.0, 0.5]), G=[[0], [1]], H=[[1, 1]],
                            J=1, W=np.eye(2), V=1, L=np.zeros((2, 1)))
        with pytest.raises(RegularityViolation) as err:
            solve_control_riccati(model, CostWeights(Q=np.eye(2), R=1))
        assert err.value.condition == "(F, G) stabilizable"

    def test_undetectable_policy(self):
        # F + G GammaBar = 1 and H + J GammaBar = 0: the error covariance
        # grows without bound from any start, bootstrap included
        model = SystemModel(F=2, G=1, H=1, J=1, W=1, V=1, L=0)
        consts = ProblemConstants.compute(model, CostWeights(Q=1, R=1))
        pol = Policy(GammaBar=np.array([[-1.0]]), M=np.ones((1, 1)),
                     K_LQR=consts.control.K_LQR)
        with pytest.raises(DetectabilityFailure):
            solve_policy_riccati(consts.estimator, pol)

    @pytest.mark.parametrize("mult", [1.1, 1.3])
    def test_a_singular_doubling_is_a_nonconvergence(self, caplog, mult):
        """Plant 78's extracted policy (floor 7.2e7) makes a doubling step's
        linear system singular: a typed NonConvergence, which the bootstrap
        sees and which the policy solve raises when the bootstrap fails
        too."""
        model, weights = random_system(78)
        consts = ProblemConstants.compute(model, weights)
        budget = mult * consts.minimal_cost + 0.1
        ub = solve_ub(BudgetedProblem(model, weights, budget), consts=consts)
        policy = extract_policy(ub, consts.control)
        eq = policy_equation(consts.estimator, policy)
        with pytest.raises(NonConvergence, match="singular doubling"):
            _solve_dare(eq)
        with caplog.at_level(logging.WARNING, logger="lqgcap.riccati"):
            with pytest.raises(NonConvergence):
                solve_policy_riccati(consts.estimator, policy)
        assert "restarting from a bootstrap step" in caplog.text
