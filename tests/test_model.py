import warnings

import numpy as np
import pytest

from lqgcap import (
    BudgetedProblem,
    CostWeights,
    ProblemConstants,
    SystemModel,
    validate_model,
)
from lqgcap.errors import DimensionMismatch

from oracles import iterate_filter, minimal_cost_oracle


def _minimal_cost(model, weights):
    return ProblemConstants.compute(model, weights).minimal_cost


def test_s1_is_valid(s1, w1):
    report = validate_model(s1, w1)
    assert report.ok
    assert all(d == 0.0 for d in report.sym_deltas.values())


def test_zero_v_not_positive_definite(w1):
    model = SystemModel(F=0.5, G=1, H=1, J=1, W=1, V=0, L=0)
    report = validate_model(model, w1)
    assert ("NotPositiveDefinite", "V") in report.violations


def test_joint_noise_not_psd(w1):
    # Schur complement 1 - 4 < 0: joint determinant is -3
    model = SystemModel(F=0.5, G=1, H=1, J=1, W=1, V=1, L=2)
    report = validate_model(model, w1)
    codes = [c for c, _ in report.violations]
    assert "JointNoiseNotPSD" in codes
    assert np.linalg.det(model.joint_noise()) == pytest.approx(-3.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["F", "G", "H", "J", "W", "V", "L", "Sigma1",
                                  "Q", "R"])
def test_a_non_finite_entry_is_named(name, bad):
    # without the check, a NaN in W or G or an inf in F reported `valid`
    model = dict(F=np.diag([0.5, 0.7]), G=[[1.0], [1.0]], H=[[1.0, 1.0]],
                 J=1.0, W=np.eye(2), V=1.0, L=np.zeros((2, 1)),
                 Sigma1=np.eye(2))
    weights = dict(Q=np.eye(2), R=1.0)
    fields = model if name in model else weights
    a = np.array(fields[name], dtype=float, ndmin=2)
    a[0, 0] = bad
    fields[name] = a
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no inf - inf warning on the way
        report = validate_model(SystemModel(**model), CostWeights(**weights))
    assert report.violations == [("NotFinite", name)]


@pytest.mark.parametrize("pair", [(np.inf, np.inf), (np.inf, -np.inf),
                                  (np.nan, 0.0)])
@pytest.mark.parametrize("name", ["W", "V", "Sigma1", "Q", "R"])
def test_a_non_finite_symmetric_field_records_inf_asymmetry(name, pair):
    """An off-diagonal pair, whose skew part or symmetric part is inf - inf."""
    model = dict(F=np.diag([0.5, 0.7]), G=np.eye(2), H=np.eye(2), J=np.eye(2),
                 W=np.eye(2), V=np.eye(2), L=np.zeros((2, 2)), Sigma1=np.eye(2))
    weights = dict(Q=np.eye(2), R=np.eye(2))
    fields = model if name in model else weights
    a = np.eye(2)
    a[0, 1], a[1, 0] = pair
    fields[name] = a
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sm, cw = SystemModel(**model), CostWeights(**weights)
        report = validate_model(sm, cw)
    assert {**sm.sym_deltas, **cw.sym_deltas}[name] == np.inf
    assert report.violations == [("NotFinite", name)]


def test_q_psd_r_pd_checks(s1):
    report = validate_model(s1, CostWeights(Q=-1, R=1))
    assert ("NotPSD", "Q") in report.violations
    report = validate_model(s1, CostWeights(Q=1, R=0))
    assert ("NotPositiveDefinite", "R") in report.violations


def test_asymmetry_tolerated_then_flagged(w1):
    w_mild = np.array([[1.0, 1e-12], [0.0, 1.0]])
    model = SystemModel(F=np.eye(2) * 0.5, G=np.ones((2, 1)), H=[[1.0, 0.0]],
                        J=[[1.0]], W=w_mild, V=1, L=np.zeros((2, 1)))
    assert validate_model(model, CostWeights(Q=np.eye(2), R=1)).ok
    assert np.allclose(model.W, model.W.T)
    w_bad = np.array([[1.0, 0.5], [0.0, 1.0]])
    model = SystemModel(F=np.eye(2) * 0.5, G=np.ones((2, 1)), H=[[1.0, 0.0]],
                        J=[[1.0]], W=w_bad, V=1, L=np.zeros((2, 1)))
    report = validate_model(model, CostWeights(Q=np.eye(2), R=1))
    assert any(c == "AsymmetricInput" for c, _ in report.violations)


def test_validation_idempotent_on_symmetrized_copy(w1):
    w_bad = np.array([[1.0, 0.5], [0.0, 1.0]])
    model = SystemModel(F=np.eye(2) * 0.5, G=np.ones((2, 1)), H=[[1.0, 0.0]],
                        J=[[1.0]], W=w_bad, V=1, L=np.zeros((2, 1)))
    fixed = SystemModel(F=model.F, G=model.G, H=model.H, J=model.J,
                        W=model.W, V=model.V, L=model.L)
    report = validate_model(fixed, CostWeights(Q=np.eye(2), R=1))
    assert report.ok
    again = SystemModel(F=fixed.F, G=fixed.G, H=fixed.H, J=fixed.J,
                        W=fixed.W, V=fixed.V, L=fixed.L)
    assert validate_model(again, CostWeights(Q=np.eye(2), R=1)).ok


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        SystemModel(F=np.eye(2), G=1, H=1, J=1, W=1, V=1, L=0)


def _estimator(model):
    weights = CostWeights(Q=np.eye(model.k), R=np.eye(model.m))
    return ProblemConstants.compute(model, weights).estimator


def test_reduce_s1_matches_iteration_oracle(s1):
    est = _estimator(s1)
    _, k_ref, psi_ref = iterate_filter(0.5, 1, 1, 1, 1, 1, 0)
    assert est.K_p[0, 0] == pytest.approx(k_ref[0, 0], abs=1e-9)
    assert est.Psi[0, 0] == pytest.approx(psi_ref[0, 0], abs=1e-9)
    # values quoted to 6 decimals
    assert est.K_p[0, 0] == pytest.approx(0.265564, abs=5e-7)
    assert est.Psi[0, 0] == pytest.approx(2.132782, abs=5e-7)


def test_reduce_static_state_gives_sigma_w(w1):
    model = SystemModel(F=0, G=1, H=2, J=1, W=3, V=1, L=0)
    est = _estimator(model)
    assert est.Sigma[0, 0] == pytest.approx(3.0, abs=1e-12)
    assert est.K_p[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert est.Psi[0, 0] == pytest.approx(2 * 3 * 2 + 1, abs=1e-10)


def test_reduce_vector_system(s2):
    est = _estimator(s2)
    assert est.K_p.shape == (3, 1)
    assert np.linalg.matrix_rank(est.K_p) == 1
    assert np.all(est.K_p != 0)


def test_minimal_cost_s1(s1, w1):
    jstar = _minimal_cost(s1, w1)
    assert jstar == pytest.approx(minimal_cost_oracle(0.5, 1, 1, 1, 1, 1, 0, 1, 1),
                                  abs=1e-9)
    sigma = (1 + np.sqrt(65)) / 8
    psi = sigma + 1
    k_p = 0.5 * sigma / psi
    assert jstar == pytest.approx(k_p ** 2 * psi * sigma + sigma, abs=1e-9)


def test_minimal_cost_zero_weight(s1):
    assert _minimal_cost(s1, CostWeights(Q=0, R=1)) == pytest.approx(0.0, abs=1e-12)


def test_minimal_cost_vector_positive(s2, w2):
    assert _minimal_cost(s2, w2) > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_minimal_cost_invariant_under_state_basis_change(s2, w2, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3))
    t, _ = np.linalg.qr(a)
    model = SystemModel(F=t @ s2.F @ t.T, G=t @ s2.G, H=s2.H @ t.T, J=s2.J,
                        W=t @ s2.W @ t.T, V=s2.V, L=t @ s2.L)
    weights = CostWeights(Q=t @ w2.Q @ t.T, R=w2.R)
    ref = _minimal_cost(s2, w2)
    assert _minimal_cost(model, weights) == pytest.approx(ref, rel=1e-8)


def test_budget_must_be_finite(s1, w1):
    with pytest.raises(ValueError):
        BudgetedProblem(s1, w1, float("inf"))
    with pytest.raises(ValueError):
        BudgetedProblem(s1, w1, -1.0)


def test_sigma1_defaults_to_w(s2):
    assert np.array_equal(s2.Sigma1, s2.W)
