import re
from dataclasses import replace

import numpy as np
import pytest

from lqgcap import (
    BudgetedProblem,
    Policy,
    ProblemConstants,
    UBDecision,
    UBSolution,
    evaluate_policy,
    extract_policy,
    solve_capacity,
    solve_ub,
    tightness_certificate,
)
from lqgcap import linalg as la
from lqgcap import lower_bound, riccati

from test_random_systems import random_system


def _ub_with_decision(c, dec, gap=0.0):
    """Wrap a decision triple as a UBSolution for extraction tests."""
    psi_y = (c.model.J @ dec.Pi @ c.model.J.T
             + c.model.H @ dec.SigmaHat @ c.model.H.T
             + c.model.H @ dec.Gamma.T @ c.model.J.T
             + c.model.J @ dec.Gamma @ c.model.H.T + c.Psi)
    kypsi = (c.model.F @ dec.Gamma.T @ c.model.J.T
             + c.model.F @ dec.SigmaHat @ c.model.H.T
             + c.model.G @ dec.Pi @ c.model.J.T
             + c.model.G @ dec.Gamma @ c.model.H.T + c.K_p @ c.Psi)
    k_y = np.linalg.solve(psi_y.T, kypsi.T).T
    from lqgcap import rate_from_psi
    return UBSolution(decision=dec, Psi_Y=psi_y, K_Y=k_y,
                      rate=rate_from_psi(psi_y, c.Psi),
                      cost=c.cost_of(dec.Pi, dec.Gamma, dec.SigmaHat),
                      duality_gap=gap, iterations=0, riccati_lmi_slack=0.0,
                      riccati_residual=0.0, budget_multiplier=None,
                      riccati_multiplier=None, covariance_multiplier=None)


class TestExtractPolicy:
    def test_zero_sigma_hat_gives_pi_as_dither(self, c1):
        dec = UBDecision(Pi=np.array([[0.7]]), Gamma=np.zeros((1, 1)),
                         SigmaHat=np.zeros((1, 1)))
        pol = extract_policy(_ub_with_decision(c1, dec), c1.control)
        assert pol.GammaBar[0, 0] == 0.0
        assert pol.M[0, 0] == pytest.approx(0.7)

    def test_s1_extraction_has_vanishing_dither(self, s1, w1, c1):
        ub = solve_ub(BudgetedProblem(s1, w1, 2.0), consts=c1)
        pol = extract_policy(ub, c1.control)
        assert np.linalg.norm(pol.M) <= 1e-6
        assert pol.GammaBar.shape == (1, 1)

    def test_vector_extraction_shapes(self, s2, w2, c2):
        ub = solve_ub(BudgetedProblem(s2, w2, 1.5 * c2.minimal_cost), consts=c2)
        pol = extract_policy(ub, c2.control)
        assert pol.GammaBar.shape == (1, 3)
        assert pol.M.shape == (1, 1)
        assert pol.M[0, 0] >= 0.0

    def test_negative_eigenvalues_clipped(self, c1):
        dec = UBDecision(Pi=np.array([[0.1]]), Gamma=np.array([[0.5]]),
                         SigmaHat=np.array([[1.0]]))
        pol = extract_policy(_ub_with_decision(c1, dec), c1.control)
        assert pol.M[0, 0] == 0.0
        assert pol.m_clip == pytest.approx(0.15)

    @pytest.mark.parametrize("pi,level", [(0.1, "WARNING"),
                                          (0.25 - 1e-12, "DEBUG")])
    def test_a_clip_beyond_the_psd_slack_warns(self, c1, caplog, pi, level):
        # M = Pi - Gamma^2 / SigmaHat = Pi - 0.25: a clip of 0.15, or of
        # 1e-12 within the slack 1e-10 of a matrix of norm <= 1
        dec = UBDecision(Pi=np.array([[pi]]), Gamma=np.array([[0.5]]),
                         SigmaHat=np.array([[1.0]]))
        with caplog.at_level("DEBUG", logger="lqgcap.lb"):
            pol = extract_policy(_ub_with_decision(c1, dec), c1.control)
        assert pol.m_clip == pytest.approx(0.25 - pi, rel=1e-3)
        records = [r for r in caplog.records if "clipped M" in r.getMessage()]
        assert [r.levelname for r in records] == [level]

    def test_dropped_sigma_hat_eigenvalues_are_logged(self, s1, w1, c1, s2,
                                                      w2, c2, caplog):
        # vector3's optimum sits near a low-rank face, the lowest grid
        # point's by one or two eigenvalues; the scalar optimum at p=2 does not
        def dropped(model, weights, consts, budget):
            ub = solve_ub(BudgetedProblem(model, weights, budget), consts=consts)
            caplog.clear()
            with caplog.at_level("DEBUG", logger="lqgcap.lb"):
                extract_policy(ub, consts.control)
            return [r for r in caplog.records
                    if "SigmaHat eigenvalues" in r.getMessage()]

        records = dropped(s2, w2, c2, 81.0)
        assert [r.levelname for r in records] == ["DEBUG"]
        assert re.match(r"extract_policy dropped [12] of 3 SigmaHat "
                        r"eigenvalues at rank_tol \S+, the largest \S+$",
                        records[0].getMessage())
        assert dropped(s1, w1, c1, 2.0) == []

    def test_each_matrix_is_decomposed_once(self, monkeypatch, c2):
        # one eigh of SigmaHat gives the cutoff and the pseudo-inverse, one
        # of M the clip, the clipped M and lambda_max(M)
        ub = solve_ub(BudgetedProblem(c2.model, c2.weights, 120.0), consts=c2)
        calls = []
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(la, name, lambda a, _n=name, _f=getattr(la, name):
                                calls.append((_n, a.shape)) or _f(a))
        extract_policy(ub, c2.control)
        assert calls == [("eigh", (3, 3)), ("eigh", (1, 1))]


class TestEvaluatePolicy:
    def test_pure_lqg_policy_rate_zero_budget_floor(self, c1, w1):
        pol = Policy(GammaBar=np.zeros((1, 1)), M=np.zeros((1, 1)),
                     K_LQR=c1.K_LQR)
        lb = evaluate_policy(c1.estimator, w1, c1.control, pol)
        assert lb.rate == pytest.approx(0.0, abs=1e-12)
        assert lb.achieved_budget == pytest.approx(c1.minimal_cost, abs=1e-9)

    def test_s1_extracted_policy_meets_ub(self, s1, w1, c1):
        rep = solve_capacity(BudgetedProblem(s1, w1, 2.0), consts=c1)
        ub, lb = rep.ub, rep.lb
        assert abs(ub.rate - lb.rate) <= 1e-6
        assert abs(lb.achieved_budget - 2.0) <= 1e-6

    def test_vector_extracted_policy_close_to_ub(self, s2, w2, c2):
        p = 1.5 * c2.minimal_cost
        rep = solve_capacity(BudgetedProblem(s2, w2, p), consts=c2)
        ub, lb = rep.ub, rep.lb
        assert (ub.rate - lb.rate) / max(ub.rate, 1e-9) <= 1e-3


class TestWeakDuality:
    @pytest.mark.parametrize("p", [1.35, 1.8, 2.7, 4.0])
    def test_scalar_budgets(self, s1, w1, c1, p):
        rep = solve_capacity(BudgetedProblem(s1, w1, p), consts=c1)
        ub, lb = rep.ub, rep.lb
        assert lb.rate <= ub.rate + 1e-8
        assert lb.achieved_budget <= p + 1e-6 * max(1.0, p)

    def test_vector_budget(self, s2, w2, c2):
        p = 2.0 * c2.minimal_cost
        rep = solve_capacity(BudgetedProblem(s2, w2, p), consts=c2)
        ub, lb = rep.ub, rep.lb
        assert lb.rate <= ub.rate + 1e-8
        assert lb.achieved_budget <= p + 1e-6 * max(1.0, p)


class TestSubstitutionChain:
    def test_policy_map_equals_ub_map_at_solution(self, s1, w1, c1):
        """The tightness equation's right side evaluated with the UB
        variables equals the policy equation's right side at the extracted
        (GammaBar, M): the first LMI makes the substitution exact."""
        ub = solve_ub(BudgetedProblem(s1, w1, 2.0), consts=c1)
        pol = extract_policy(ub, c1.control)
        est = c1.estimator
        d = ub.decision
        ub_rhs = (est.F @ d.SigmaHat @ est.F.T + est.F @ d.Gamma.T @ est.G.T
                  + est.G @ d.Gamma @ est.F.T + est.G @ d.Pi @ est.G.T
                  + est.K_p @ est.Psi @ est.K_p.T
                  - ub.K_Y @ ub.Psi_Y @ ub.K_Y.T)
        ft = est.F + est.G @ pol.GammaBar
        ht = est.H + est.J @ pol.GammaBar
        psi_bar = (ht @ d.SigmaHat @ ht.T + est.J @ pol.M @ est.J.T + est.Psi)
        k_bar = (ft @ d.SigmaHat @ ht.T + est.G @ pol.M @ est.J.T
                 + est.K_p @ est.Psi) @ np.linalg.inv(psi_bar)
        pol_rhs = (ft @ d.SigmaHat @ ft.T + est.G @ pol.M @ est.G.T
                   + est.K_p @ est.Psi @ est.K_p.T
                   - k_bar @ psi_bar @ k_bar.T)
        assert np.linalg.norm(ub_rhs - pol_rhs) <= 1e-9


class TestCertificate:
    def test_s1_certified_tight(self, s1, w1, c1):
        rep = solve_capacity(BudgetedProblem(s1, w1, 2.0), consts=c1)
        ub, lb, cert = rep.ub, rep.lb, rep.certificate
        assert cert.tight
        assert cert.detectable
        assert cert.riccati_residual <= 1e-6 * (
            1 + np.linalg.norm(ub.decision.SigmaHat))
        assert cert.rate_gap >= -1e-8

    def test_zero_dither_routes_through_recursion(self, s1, w1, c1):
        """On S1 the optimal dither is zero, so the stabilizability test has
        nothing to work with; agreement of the recursion limit with the UB
        optimizer certifies instead."""
        rep = solve_capacity(BudgetedProblem(s1, w1, 2.0), consts=c1)
        ub, lb, cert = rep.ub, rep.lb, rep.certificate
        assert cert.tight
        assert not cert.stabilizable
        assert cert.route == "direct-recursion"
        assert cert.sigma_match <= 1e-6

    @pytest.mark.parametrize("seed, mult", [(2, 1.3), (17, 2.5), (84, 1.1),
                                            (132, 2.5), (132, 5.0)])
    def test_a_recursion_limit_off_the_optimizer_is_not_certified(self, seed,
                                                                   mult):
        """These random plants' policies pass the stabilizability test, but
        their recursion limits miss the UB optimizer's SigmaHat by 2.3 to
        8.6e4 times res_tol, and they overspend the budget (plant 84 at 1.1x
        by 13%), so their LB rates lie 1.4e-6 to 3.2e-2 nats above the UB:
        the lower bound is evaluated elsewhere than the upper bound was
        solved, so nothing is certified."""
        model, weights = random_system(seed)
        c = ProblemConstants.compute(model, weights)
        budget = mult * c.minimal_cost + 0.1
        rep = solve_capacity(BudgetedProblem(model, weights, budget), consts=c)
        ub, lb, cert = rep.ub, rep.lb, rep.certificate
        assert cert.stabilizable
        assert cert.verdict == "NotCertified" and cert.route == ""
        assert len(cert.reasons) == 2
        assert cert.reasons[0].startswith("|rate_gap|") and lb.rate > ub.rate
        assert cert.reasons[1].startswith("sigma_match")
        assert lb.achieved_budget > budget

    def test_perturbed_policy_not_certified(self, s1, w1, c1):
        ub = solve_ub(BudgetedProblem(s1, w1, 2.0), consts=c1)
        pol = extract_policy(ub, c1.control)
        worse = Policy(GammaBar=pol.GammaBar * 0.5, M=pol.M,
                       K_LQR=pol.K_LQR)
        lb = evaluate_policy(c1.estimator, w1, c1.control, worse)
        cert = tightness_certificate(ub, lb, c1.estimator)
        assert not cert.tight
        assert any("rate_gap" in r for r in cert.reasons)

    def test_lb_above_ub_not_certified(self, s1, w1, c1):
        """The rate test is two-sided: an LB 1e-5 nats above the UB, as an
        overspending policy would show, is not certified."""
        rep = solve_capacity(BudgetedProblem(s1, w1, 2.0), consts=c1)
        ub = rep.ub
        lb = replace(rep.lb, rate=ub.rate + 1e-5)
        cert = tightness_certificate(ub, lb, c1.estimator)
        assert cert.verdict == "NotCertified"
        assert cert.reasons == ("|rate_gap| 1.000e-05 > 1e-6",)

    def test_vector_certified(self, s2, w2, c2):
        rep = solve_capacity(BudgetedProblem(s2, w2, 2.0 * c2.minimal_cost),
                             consts=c2)
        ub, lb, cert = rep.ub, rep.lb, rep.certificate
        assert cert.tight

    def test_residual_helper_matches_certificate(self, s1, w1, c1):
        rep = solve_capacity(BudgetedProblem(s1, w1, 2.0), consts=c1)
        ub, lb, cert = rep.ub, rep.lb, rep.certificate
        assert cert.riccati_residual == ub.riccati_residual


class TestCertificateWork:
    """The certificate reuses the detectability test of the policy Riccati
    solve, which ran on the same pair (F + G GammaBar, H + J GammaBar), and
    factors R once for the stabilizability pair."""

    @pytest.mark.parametrize("name", ["s1", "s2", "seed17"])
    def test_detectability_is_the_policy_solves(self, request, monkeypatch,
                                                name):
        if name.startswith("seed"):
            c = ProblemConstants.compute(*random_system(int(name[4:])))
            p = 2.5 * c.minimal_cost + 0.1
        else:
            c = request.getfixturevalue("c1" if name == "s1" else "c2")
            p = 2.0 if name == "s1" else 120.0
        rep = solve_capacity(BudgetedProblem(c.model, c.weights, p), consts=c)
        ub, lb = rep.ub, rep.lb
        eq = riccati.policy_equation(c.estimator, lb.policy)
        want = riccati.pbh_test(eq.Ft, eq.Ht, "detectable")
        modes, pbh = [], lower_bound.pbh_test
        monkeypatch.setattr(lower_bound, "pbh_test", lambda a, b, mode: (
            modes.append(mode) or pbh(a, b, mode)))
        cert = tightness_certificate(ub, lb, c.estimator)
        assert modes == ["stabilizable"]
        got = lb.riccati.detectability
        assert cert.detectable == bool(want)
        assert (got.ok, got.eigenvalue, got.margin) == (
            want.ok, want.eigenvalue, want.margin)

    def test_a_policy_solved_elsewhere_is_rejected(self, c1):
        rep = solve_capacity(BudgetedProblem(c1.model, c1.weights, 2.0),
                             consts=c1)
        ub, lb = rep.ub, rep.lb
        other = replace(c1.estimator, Psi=2.0 * c1.estimator.Psi)
        with pytest.raises(ValueError, match="estimator"):
            tightness_certificate(ub, lb, other)
        dithered = replace(lb, policy=replace(lb.policy,
                                              M=lb.policy.M + np.eye(1)))
        with pytest.raises(ValueError, match="policy"):
            tightness_certificate(ub, dithered, c1.estimator)

    def test_stabilizability_pair_factors_r_once(self, monkeypatch, c2):
        ub = solve_ub(BudgetedProblem(c2.model, c2.weights, 120.0), consts=c2)
        policy = extract_policy(ub, c2.control)
        eq = riccati.policy_equation(c2.estimator, policy)
        want = lower_bound._stabilizability_pair(c2.estimator, policy, eq)
        factored, cholesky = [], la.cholesky
        monkeypatch.setattr(la, "cholesky", lambda a: (
            factored.append(a.shape) or cholesky(a)))
        got = lower_bound._stabilizability_pair(c2.estimator, policy, eq)
        assert factored == [(c2.model.p, c2.model.p)]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
