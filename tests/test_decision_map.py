"""Cross-path checks of the per-step decision map: every program block,
residual and budget built from decision_map and trace_cost must agree with
them at the same point, on random plants and on both fixtures."""

import numpy as np
import pytest

from lqgcap import BudgetedProblem, ProblemConstants, UBDecision, solve_ub
from lqgcap.constants import decision_map, trace_cost
from lqgcap.lower_bound import lower_bound_from_ub, ub_riccati_residual
from lqgcap.upper_bound import UBProgram

from test_random_systems import random_system

PLANTS = ["s1", "s2"] + [f"seed{s}" for s in
                          (11, 23, 37, 41, 59, 67, 83, 97, 113, 131)]


def _consts(request, name):
    if name.startswith("seed"):
        return ProblemConstants.compute(*random_system(int(name[4:])))
    return request.getfixturevalue({"s1": "c1", "s2": "c2"}[name])


def _close(a, b, rtol=1e-11):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b)) <= rtol * (1.0 + float(np.linalg.norm(b)))


def _random_decision(consts, seed):
    rng = np.random.default_rng(seed)
    m, k = consts.model.m, consts.model.k
    a = rng.standard_normal((m, m))
    s = rng.standard_normal((k, k))
    return UBDecision(Pi=a @ a.T, Gamma=rng.standard_normal((m, k)),
                      SigmaHat=s @ s.T)


@pytest.mark.parametrize("name", PLANTS)
def test_ub_blocks_are_the_map_plus_constants(request, name):
    c = _consts(request, name)
    prog = UBProgram(c, 2.0 * c.minimal_cost + 1.0)
    k = c.model.k
    for seed in range(3):
        dec = _random_decision(c, seed)
        v = prog.pack(dec)
        P, C, Y = decision_map(c.model, dec.Pi, dec.Gamma, dec.SigmaHat)
        KpPsi = c.K_p @ c.Psi
        lmi2 = prog.block_lmi2.value(v)
        assert _close(lmi2[:k, :k], P - dec.SigmaHat + KpPsi @ c.K_p.T)
        assert _close(lmi2[:k, k:], C + KpPsi)
        assert _close(lmi2[k:, k:], Y + c.Psi)
        assert _close(prog.block_psiy.value(v), Y + c.Psi)
        assert _close(prog.block_lmi1.value(v), dec.first_lmi())
        # the estimator carries the same (F, G, H, J) as the plant
        for a, b in zip(decision_map(c.estimator, dec.Pi, dec.Gamma,
                                     dec.SigmaHat), (P, C, Y)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("name", PLANTS)
def test_ub_cost_is_cost_of(request, name):
    c = _consts(request, name)
    p = 2.0 * c.minimal_cost + 1.0
    prog = UBProgram(c, p)
    for seed in range(3):
        dec = _random_decision(c, seed)
        want = c.cost_of(dec.Pi, dec.Gamma, dec.SigmaHat)
        assert prog.cost(prog.pack(dec)) == pytest.approx(want, rel=1e-11)
        assert want == pytest.approx(
            trace_cost(c.K_LQR, c.Psi_LQR, dec.Pi, dec.Gamma, dec.SigmaHat)
            + c.minimal_cost, rel=1e-13)
        # the cost block's slack is the budget left over
        assert prog.block_cost.value(prog.pack(dec))[0, 0] == pytest.approx(
            p - want, rel=1e-9, abs=1e-9 * p)


@pytest.fixture(scope="module", params=["s1", "s2", "seed41"])
def solved(request):
    c = _consts(request, request.param)
    p = 1.5 * c.minimal_cost + 0.1
    ub = solve_ub(BudgetedProblem(c.model, c.weights, p), consts=c)
    return c, p, ub


def test_policy_budget_is_cost_of_induced_triple(solved):
    c, _, ub = solved
    lb = lower_bound_from_ub(c, ub)
    GammaBar, S = lb.policy.GammaBar, lb.riccati.SigmaHat
    want = c.cost_of(GammaBar @ S @ GammaBar.T + lb.policy.M, GammaBar @ S, S)
    assert lb.achieved_budget == pytest.approx(want, rel=1e-12)


def test_riccati_residual_is_schur_complement_norm(solved):
    c, p, ub = solved
    prog = UBProgram(c, p)
    lmi2 = prog.block_lmi2.value(prog.pack(ub.decision))
    k = c.model.k
    A, B, Y = lmi2[:k, :k], lmi2[:k, k:], lmi2[k:, k:]
    schur = A - B @ np.linalg.solve(Y, B.T)
    scale = 1.0 + float(np.linalg.norm(A))
    assert ub_riccati_residual(ub, c.estimator) == pytest.approx(
        float(np.linalg.norm(schur)), abs=1e-12 * scale)
