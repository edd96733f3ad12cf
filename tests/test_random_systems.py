"""Randomized end-to-end property checks: valid random plants must satisfy
weak duality, budget consistency, and (in practice) certify tight, and a
decoupled stable mode added to one must leave its bounds as they are."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lqgcap import (
    BudgetedProblem,
    CostWeights,
    ProblemConstants,
    SystemModel,
    solve_capacity,
    validate_model,
)
from lqgcap.errors import LqgcapError
from lqgcap.riccati import ControlConstants, FilterConstants


def random_system(seed: int):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    p = int(rng.integers(1, 3))
    F = rng.standard_normal((k, k)) * 0.8
    if rng.random() < 0.4:
        F *= 1.6 / max(np.max(np.abs(np.linalg.eigvals(F))), 0.1)
    G = rng.standard_normal((k, m))
    H = rng.standard_normal((p, k))
    J = rng.standard_normal((p, m))
    B = rng.standard_normal((k + p, k + p))
    joint = B @ B.T + 0.1 * np.eye(k + p)
    Qf = rng.standard_normal((k, k))
    model = SystemModel(F=F, G=G, H=H, J=J, W=joint[:k, :k], V=joint[k:, k:],
                        L=joint[:k, k:])
    weights = CostWeights(Q=Qf @ Qf.T, R=np.eye(m) * (0.5 + rng.random()))
    return model, weights


def with_decoupled_mode(model, weights, a: float, w: float, q: float):
    """The plant with one more mode x <- a x + noise of variance w, which the
    output never sees, the input never moves and no other mode feels, and
    whose cost weight is q."""
    m, p = model.m, model.p
    return (SystemModel(F=scipy.linalg.block_diag(model.F, a),
                        G=np.vstack([model.G, np.zeros((1, m))]),
                        H=np.hstack([model.H, np.zeros((p, 1))]), J=model.J,
                        W=scipy.linalg.block_diag(model.W, w), V=model.V,
                        L=np.vstack([model.L, np.zeros((1, p))])),
            CostWeights(Q=scipy.linalg.block_diag(weights.Q, q),
                        R=weights.R))


def _full_chain(consts, budget):
    """(ub, lb, certificate) at the budget, or the name of the error."""
    try:
        rep = solve_capacity(BudgetedProblem(consts.model, consts.weights,
                                             budget), consts=consts)
    except LqgcapError as e:
        return type(e).__name__
    return rep.ub, rep.lb, rep.certificate


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 199), a=st.floats(-0.95, 0.95),
       w=st.floats(0.1, 3.0), q=st.floats(0.0, 3.0),
       mult=st.sampled_from([1.1, 1.3, 2.5, 5.0]))
@example(seed=132, a=0.0, w=1.0, q=1.8350721159524914, mult=2.5)
def test_a_decoupled_stable_mode_leaves_the_bounds(seed, a, w, q, mult):
    """The added mode lies off the program's face, so the plant keeps its
    UB within the two certified gaps, its verdict and its errors, at the
    budget shifted by the mode's cost q w / (1 - a^2).

    The augmented plant's constants are the plain plant's with the mode's
    own variance and cost-to-go appended, so that only the programs differ:
    a Riccati solve in the larger state space rounds differently, which
    ill-conditioned plants amplify (plant 39's floor moves by 0.33).  The
    barrier then stops at another point within the gaps, and the LB is
    evaluated there: two certified LBs agree within the certificate's rate
    tolerance 1e-6.  Where the verdicts differ, the plain plant's own
    verdict must change within a few ulps of its budget, as plant 132's
    does at 2.5x."""
    model, weights = random_system(seed)
    try:
        plain = ProblemConstants.compute(model, weights)
    except LqgcapError:
        assume(False)
    model_a, weights_a = with_decoupled_mode(model, weights, a, w, q)
    f, c = plain.filter, plain.control
    aug = ProblemConstants(
        model=model_a, weights=weights_a,
        filter=FilterConstants(
            Sigma=scipy.linalg.block_diag(f.Sigma, w / (1 - a * a)),
            K_p=np.vstack([f.K_p, np.zeros((1, model.p))]), Psi=f.Psi),
        control=ControlConstants(
            E=scipy.linalg.block_diag(c.E, q / (1 - a * a)),
            K_LQR=np.hstack([c.K_LQR, np.zeros((model.m, 1))]),
            Psi_LQR=c.Psi_LQR))
    shift = aug.minimal_cost - plain.minimal_cost
    assert shift == pytest.approx(q * w / (1 - a * a),
                                  abs=1e-12 * aug.minimal_cost)
    budget = mult * plain.minimal_cost + 0.1
    want, got = _full_chain(plain, budget), _full_chain(aug, budget + shift)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    (ub, lb, cert), (ub_a, lb_a, cert_a) = want, got
    assert abs(ub_a.rate - ub.rate) <= ub.duality_gap + ub_a.duality_gap
    assert not ub_a.decision.SigmaHat[-1].any()
    assert not ub_a.decision.Gamma[:, -1].any()
    if cert_a.verdict != cert.verdict:
        nearby = {_full_chain(plain, budget + j * np.spacing(budget))[2].verdict
                  for j in range(-8, 9)}
        assert cert_a.verdict in nearby
    elif cert.tight:
        assert abs(lb_a.rate - lb.rate) <= 1e-6


@pytest.mark.parametrize("seed", [11, 23, 37, 41, 59, 67, 83, 97, 113, 131])
def test_full_chain_on_random_system(seed):
    model, weights = random_system(seed)
    assert validate_model(model, weights).ok
    consts = ProblemConstants.compute(model, weights)
    for mult in (1.3, 2.5):
        budget = mult * consts.minimal_cost + 0.1
        rep = solve_capacity(BudgetedProblem(model, weights, budget),
                             consts=consts)
        ub, lb, cert = rep.ub, rep.lb, rep.certificate
        assert lb.rate <= ub.rate + 1e-8
        assert lb.achieved_budget <= budget + 1e-6 * max(1.0, budget)
        assert ub.rate >= -1e-9
        assert cert.riccati_residual <= 1e-6 * (
            1 + np.linalg.norm(ub.decision.SigmaHat))
        # every instance tried so far certifies; a failed certificate would
        # only mean the bound interval is reported, so keep the gap loose
        assert (ub.rate - lb.rate) / max(ub.rate, 1e-9) <= 1e-3
