import pathlib

import numpy as np
import pytest

from lqgcap import (
    BudgetedProblem,
    CostWeights,
    ProblemConstants,
    SolverOptions,
    SystemModel,
    feasibility,
    rate_from_psi,
    solve_capacity,
    solve_scop,
    solve_ub,
)
from lqgcap.barrier import AffineBlock, BarrierProgram, solve_barrier
from lqgcap.config import load_config
from lqgcap.errors import (
    AssumptionViolated,
    DimensionMismatch,
    Infeasible,
    NotPositiveDefinite,
)
from lqgcap.linalg import min_eig
from lqgcap.lower_bound import require_scalar_capacity
from lqgcap.upper_bound import UBProgram

from oracles import (DegenerateSolution, kkt_scaled_multipliers,
                     ub_riccati_residual, verify_scalar_kkt)
from test_random_systems import random_system, with_decoupled_mode

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


class TestRateFromPsi:
    def test_equal_covariances_give_zero(self):
        psi = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert rate_from_psi(psi, psi) == 0.0

    def test_euler_ratio_gives_half_nat(self):
        assert rate_from_psi(np.e, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_not_pd_raises(self):
        with pytest.raises(NotPositiveDefinite):
            rate_from_psi(-1.0, 1.0)


class TestFeasibility:
    def test_budget_below_floor_infeasible(self, s1, w1, c1):
        res = feasibility(BudgetedProblem(s1, w1, 1.0), c1)
        assert not res.feasible
        with pytest.raises(Infeasible):
            solve_ub(BudgetedProblem(s1, w1, 1.0), consts=c1)

    def test_boundary_budget(self, s1, w1, c1):
        res = feasibility(BudgetedProblem(s1, w1, c1.minimal_cost), c1)
        assert res.feasible and res.boundary
        sol = solve_ub(BudgetedProblem(s1, w1, c1.minimal_cost), consts=c1)
        assert sol.rate == pytest.approx(0.0, abs=1e-8)
        assert sol.cost == pytest.approx(c1.minimal_cost)

    def test_strict_point_verified(self, s1, w1, c1):
        res = feasibility(BudgetedProblem(s1, w1, 2.0), c1)
        assert res.strict
        prog = UBProgram(c1, 2.0)
        slacks = prog.barrier_program().min_slacks(prog.pack(res.point))
        assert min(slacks) > 0
        assert prog.cost(prog.pack(res.point)) < 2.0

    def test_strict_point_vector(self, s2, w2, c2):
        p = 1.2 * c2.minimal_cost
        res = feasibility(BudgetedProblem(s2, w2, p), c2)
        assert res.strict
        prog = UBProgram(c2, p)
        assert min(prog.barrier_program().min_slacks(prog.pack(res.point))) > 0


class TestSolveUB:
    def test_matches_bruteforce_oracle(self, s1, w1, c1, s1_oracle):
        for p, ref in s1_oracle.items():
            sol = solve_ub(BudgetedProblem(s1, w1, p), consts=c1)
            assert sol.rate == pytest.approx(ref["rate_nats"], abs=1e-5)

    def test_solution_feasibility_invariants(self, s1, w1, c1):
        for p in (1.35, 2.0, 3.5):
            sol = solve_ub(BudgetedProblem(s1, w1, p), consts=c1)
            dec = sol.decision
            assert min_eig(dec.first_lmi()) >= -1e-8
            assert sol.riccati_lmi_slack >= -1e-8
            assert sol.cost <= p + 1e-8 * max(1.0, p)
            assert sol.rate >= -1e-9

    def test_monotone_and_midpoint_concave(self, s1, w1, c1):
        grid = np.linspace(1.4, 3.2, 7)
        vals = [solve_ub(BudgetedProblem(s1, w1, float(p)), consts=c1).rate
                for p in grid]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        for lo, mid, hi in zip(vals, vals[1:], vals[2:]):
            assert mid >= 0.5 * (lo + hi) - 1e-7

    def test_affine_kky_definitions_hold(self, s2, w2, c2):
        p = 1.5 * c2.minimal_cost
        sol = solve_ub(BudgetedProblem(s2, w2, p), consts=c2)
        d = sol.decision
        psi_y = (s2.J @ d.Pi @ s2.J.T + s2.H @ d.SigmaHat @ s2.H.T
                 + s2.H @ d.Gamma.T @ s2.J.T + s2.J @ d.Gamma @ s2.H.T + c2.Psi)
        assert np.allclose(sol.Psi_Y, psi_y, atol=1e-10)
        kypsi = (s2.F @ d.Gamma.T @ s2.J.T + s2.F @ d.SigmaHat @ s2.H.T
                 + s2.G @ d.Pi @ s2.J.T + s2.G @ d.Gamma @ s2.H.T
                 + c2.K_p @ c2.Psi)
        assert np.allclose(sol.K_Y @ sol.Psi_Y, kypsi, atol=1e-8)


class TestSpecialCases:
    def test_power_constraint_reduction(self, s1, c1):
        """With Q = 0 the five-term cost collapses to Tr(Pi R) <= p and the
        program matches an independently built power-constrained variant."""
        weights = CostWeights(Q=0, R=1)
        consts = ProblemConstants.compute(s1, weights)
        p = 2.0
        prog = UBProgram(consts, p)
        # cost coefficients: only the Pi slot survives
        pi_dim = prog.pi_pack.dim
        assert np.all(np.abs(prog.cost_coeffs[pi_dim:]) <= 1e-12)
        assert consts.minimal_cost <= 1e-12

        full = solve_ub(BudgetedProblem(s1, weights, p), consts=consts)

        # independent construction: same LMIs, cost replaced by Tr(Pi R) <= p
        base = prog.barrier_program()
        cost = np.zeros(prog.dim)
        for j, b in enumerate(prog.pi_pack.basis()):
            cost[j] = np.trace(b @ weights.R)
        power = BarrierProgram(
            objective=base.objective,
            constraints=[base.constraints[0], base.constraints[1],
                         AffineBlock(np.array([[p]]), (-cost).reshape(-1, 1, 1))])
        feas = feasibility(BudgetedProblem(s1, weights, p), consts)
        v, info = solve_barrier(power, prog.pack(feas.point), 1e-10)
        assert prog.rate(v) == pytest.approx(full.rate, abs=1e-6)

    def test_state_feedback_collapse(self, state_feedback_model, w1):
        consts = ProblemConstants.compute(state_feedback_model, w1)
        assert consts.Sigma[0, 0] == pytest.approx(0.0, abs=1e-11)
        assert np.allclose(state_feedback_model.G,
                           consts.K_p @ state_feedback_model.J, atol=1e-10)
        p = consts.minimal_cost + 1.0
        sol = solve_ub(BudgetedProblem(state_feedback_model, w1, p),
                       consts=consts)
        assert sol.decision.SigmaHat[0, 0] == 0.0
        assert sol.decision.Gamma[0, 0] == 0.0
        # closed form: objective increasing in Pi, so the cost is saturated
        pi_star = 1.0 / consts.Psi_LQR[0, 0]
        rate_ref = 0.5 * np.log(
            (pi_star + consts.Psi[0, 0]) / consts.Psi[0, 0])
        assert sol.rate == pytest.approx(rate_ref, abs=1e-7)
        assert sol.Psi_Y[0, 0] == pytest.approx(
            sol.decision.Pi[0, 0] + consts.Psi[0, 0], abs=1e-10)

    @pytest.mark.parametrize("mult", [1.1, 1.3, 2.5, 5.0])
    def test_a_decoupled_mode_lies_off_the_face(self, s1, w1, c1, mult):
        """S1 with a second stable mode (a = 0.8) that the output never sees
        and the input never moves: the program's face has one column, and
        the plant solves as S1 does at the budget shifted by the mode's cost
        1/(1 - 0.8^2), with the same Newton steps and verdict."""
        model, weights = with_decoupled_mode(s1, w1, 0.8, 1.0, 1.0)
        consts = ProblemConstants.compute(model, weights)
        assert UBProgram(consts, 2 * consts.minimal_cost).face.shape == (2, 1)
        shift = consts.minimal_cost - c1.minimal_cost
        assert shift == pytest.approx(1.0 / (1.0 - 0.64), rel=1e-12)
        budget = mult * c1.minimal_cost + 0.1
        rep1 = solve_capacity(BudgetedProblem(s1, w1, budget), consts=c1)
        rep2 = solve_capacity(BudgetedProblem(model, weights, budget + shift),
                              consts=consts)
        ub1, ub2 = rep1.ub, rep2.ub
        assert abs(ub2.rate - ub1.rate) <= 1e-12
        assert ub2.iterations == ub1.iterations
        assert not ub2.decision.SigmaHat[1].any()
        assert not ub2.decision.Gamma[:, 1].any()
        assert abs(rep2.lb.rate - rep1.lb.rate) <= 1e-12
        assert rep2.certificate.verdict == rep1.certificate.verdict


class TestScalarCapacity:
    def test_rejects_vector_problem(self, s2, w2):
        with pytest.raises(DimensionMismatch):
            require_scalar_capacity(ProblemConstants.compute(s2, w2))

    def test_guard_h_equals_klqr_j(self):
        # F = 0 gives K_LQR = 0; with H = 0 the guard H = K_LQR J trips
        from lqgcap import SystemModel
        model = SystemModel(F=0, G=1, H=0, J=1, W=1, V=1, L=0)
        weights = CostWeights(Q=1, R=1)
        with pytest.raises(AssumptionViolated):
            require_scalar_capacity(ProblemConstants.compute(model, weights))

    def test_state_feedback_dispatch(self, state_feedback_model, w1):
        consts = ProblemConstants.compute(state_feedback_model, w1)
        rep = solve_capacity(BudgetedProblem(state_feedback_model, w1,
                                             consts.minimal_cost + 1.0),
                             consts=consts)
        assert rep.capacity_exact
        assert rep.ub.decision.SigmaHat[0, 0] == 0.0

    def test_capacity_zero_at_cost_floor(self, s1, w1, c1):
        rep = solve_capacity(BudgetedProblem(s1, w1, c1.minimal_cost),
                             consts=c1)
        assert rep.capacity_exact
        assert rep.ub.rate == pytest.approx(0.0, abs=1e-8)

    def test_sweep_nondecreasing_from_zero(self, s1, w1, c1):
        jstar = c1.minimal_cost
        grid = np.linspace(jstar, 3 * jstar, 8)
        vals = [solve_capacity(BudgetedProblem(s1, w1, float(p)),
                               consts=c1).ub.rate for p in grid]
        assert vals[0] == pytest.approx(0.0, abs=1e-8)
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_extracted_dither_vanishes_on_s1(self, s1, w1, c1):
        for p in (1.5, 2.5, 4.0):
            sol = solve_capacity(BudgetedProblem(s1, w1, p), consts=c1).ub
            d = sol.decision
            m_val = d.Pi[0, 0] - d.Gamma[0, 0] ** 2 / d.SigmaHat[0, 0]
            assert abs(m_val) <= 1e-6

    def test_dither_positive_for_large_gain(self, s1, w1):
        from lqgcap import SystemModel
        model = SystemModel(F=0.5, G=2.8, H=1, J=1, W=1, V=1, L=0)
        sol = solve_capacity(BudgetedProblem(model, w1, 5.0)).ub
        d = sol.decision
        m_val = d.Pi[0, 0] - d.Gamma[0, 0] ** 2 / d.SigmaHat[0, 0]
        assert m_val > 1e-3


class TestScalarKKT:
    def test_kkt_at_budget_two(self, s1, w1, c1):
        prob = BudgetedProblem(s1, w1, 2.0)
        sol = solve_capacity(prob, consts=c1).ub
        kkt = verify_scalar_kkt(prob, sol, c1)
        assert abs(kkt.g3_value) <= 1e-6
        assert np.max(np.abs(kkt.slackness_residuals)) <= 1e-6
        assert np.max(np.abs(kkt.stationarity_residuals)) <= 1e-5
        assert kkt.lambda2 > 0          # the cost constraint is active
        for lam in (kkt.lambda2, kkt.lambda3, kkt.lambda4, kkt.lambda5):
            assert lam >= -1e-8
        assert kkt_scaled_multipliers(sol) == pytest.approx(
            (kkt.lambda2, kkt.lambda3, kkt.lambda5), rel=1e-6)

    def test_boundary_solution_degenerate(self, s1, w1, c1):
        """The zero-rate solution runs no barrier and carries no
        multipliers; the scalar reference has none there either."""
        prob = BudgetedProblem(s1, w1, c1.minimal_cost)
        sol = solve_capacity(prob, consts=c1).ub
        assert (sol.budget_multiplier, sol.riccati_multiplier,
                sol.covariance_multiplier) == (None, None, None)
        with pytest.raises(DegenerateSolution):
            verify_scalar_kkt(prob, sol, c1)


def _grid(name: str) -> tuple:
    cfg = load_config(str(CONFIGS / f"{name}.json"))
    return cfg.model, cfg.weights, cfg.budget_sweep.grid()


def _rate_slope(model, weights, c, budget: float) -> float:
    """The UB rate's central difference in the budget, over steps of 1e-4
    of the budget's height above the floor."""
    h = 1e-4 * (budget - c.minimal_cost)
    up, down = (solve_ub(BudgetedProblem(model, weights, budget + s),
                         consts=c).rate for s in (h, -h))
    return (up - down) / (2.0 * h)


class TestMultipliers:
    """The multipliers of the barrier's final dual point: the budget's is
    the UB rate's slope in the budget, and on scalar plants all three are
    the ones the scalar KKT system recovers."""

    @pytest.mark.parametrize("name", ["scalar", "vector3"])
    def test_budget_multiplier_is_the_rate_slope_on_the_grids(self, name):
        model, weights, grid = _grid(name)
        c = ProblemConstants.compute(model, weights)
        for p in grid[::6]:
            sol = solve_ub(BudgetedProblem(model, weights, p), consts=c)
            assert sol.budget_multiplier == pytest.approx(
                _rate_slope(model, weights, c, p), rel=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_budget_multiplier_is_the_rate_slope_on_random_plants(self,
                                                                  seed):
        model, weights = random_system(seed)
        c = ProblemConstants.compute(model, weights)
        p = 2.0 * c.minimal_cost + 1.0
        sol = solve_ub(BudgetedProblem(model, weights, p), consts=c)
        assert sol.budget_multiplier == pytest.approx(
            _rate_slope(model, weights, c, p), rel=1e-6)

    def test_scalar_identities_on_the_grid(self):
        model, weights, grid = _grid("scalar")
        c = ProblemConstants.compute(model, weights)
        for p in grid:
            prob = BudgetedProblem(model, weights, p)
            sol = solve_capacity(prob, consts=c).ub
            kkt = verify_scalar_kkt(prob, sol, c)
            assert kkt_scaled_multipliers(sol) == pytest.approx(
                (kkt.lambda2, kkt.lambda3, kkt.lambda5), rel=1e-6)

    def test_multipliers_in_plant_coordinates(self, s1, w1, c1):
        """S1 with a decoupled mode is solved on a one-column face.  Its
        multipliers, mapped back to the plant, are S1's with a zero row and
        column for the mode: the face's congruences put them there."""
        model, weights = with_decoupled_mode(s1, w1, 0.8, 1.0, 1.0)
        consts = ProblemConstants.compute(model, weights)
        shift = consts.minimal_cost - c1.minimal_cost
        ub1 = solve_ub(BudgetedProblem(s1, w1, 2.0), consts=c1)
        ub2 = solve_ub(BudgetedProblem(model, weights, 2.0 + shift),
                       consts=consts)
        assert ub2.budget_multiplier == pytest.approx(ub1.budget_multiplier,
                                                      rel=1e-9)
        # (Pi, x, x_decoupled) and (x, x_decoupled, y)
        for z1, z2, keep in ((ub1.covariance_multiplier,
                              ub2.covariance_multiplier, [0, 1]),
                             (ub1.riccati_multiplier,
                              ub2.riccati_multiplier, [0, 2])):
            assert z2.shape == (3, 3)
            np.testing.assert_allclose(z2[np.ix_(keep, keep)], z1,
                                       rtol=1e-9, atol=1e-12)
            off = np.setdiff1d(range(3), keep)
            assert not z2[off].any() and not z2[:, off].any()


class TestRiccatiResidual:
    """UBSolution.riccati_residual, formed by the solve next to the Schur
    complement of riccati_lmi_slack, is bit-equal to the residual rebuilt
    from the decision through decision_map (the oracle)."""

    @pytest.mark.parametrize("name", ["scalar", "vector3"])
    def test_equals_the_rebuilt_residual_on_the_grids(self, name):
        model, weights, grid = _grid(name)
        c = ProblemConstants.compute(model, weights)
        for p in grid:
            ub = solve_ub(BudgetedProblem(model, weights, p), consts=c)
            assert ub.riccati_residual == ub_riccati_residual(
                ub, c.estimator), p

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_the_rebuilt_residual_on_random_plants(self, seed):
        model, weights = random_system(seed)
        c = ProblemConstants.compute(model, weights)
        p = 1.3 * c.minimal_cost + 0.1
        ub = solve_ub(BudgetedProblem(model, weights, p), consts=c)
        assert ub.riccati_residual == ub_riccati_residual(ub, c.estimator)

    @pytest.mark.parametrize("name", ["c1", "c2"])
    def test_zero_on_the_floor(self, request, name):
        c = request.getfixturevalue(name)
        ub = solve_ub(BudgetedProblem(c.model, c.weights, c.minimal_cost),
                      consts=c)
        assert ub.rate == 0.0
        assert ub.riccati_residual == 0.0
        assert ub_riccati_residual(ub, c.estimator) == 0.0


# each solve entry point, reduced to one number of its result
SOLVES = {
    "feasibility": lambda prob, c: feasibility(prob, c).point.Pi[0, 0],
    "solve_ub": lambda prob, c: solve_ub(prob, consts=c).rate,
    "solve_capacity": lambda prob, c: solve_capacity(prob, consts=c).ub.rate,
    "solve_scop": lambda prob, c: solve_scop(prob, 2, consts=c).value,
}


class TestConstantsCheck:
    """Every solve entry point runs on constants of its own problem's model
    and weights.  Unchecked, the scalar config at p=3.5 solved with the
    constants of its plant at F=0.9 gave 0.1025 nats instead of 0.3324."""

    @staticmethod
    def _scalar(**change):
        cfg = load_config(str(CONFIGS / "scalar.json"))
        m = cfg.model
        fields = dict(F=m.F, G=m.G, H=m.H, J=m.J, W=m.W, V=m.V, L=m.L)
        return SystemModel(**{**fields, **change}), cfg.weights

    @pytest.mark.parametrize("name", sorted(SOLVES))
    def test_constants_of_another_plant_raise(self, name):
        model, weights = self._scalar()
        other = ProblemConstants.compute(self._scalar(F=0.9)[0], weights)
        with pytest.raises(ValueError, match="another model"):
            SOLVES[name](BudgetedProblem(model, weights, 3.5), other)

    @pytest.mark.parametrize("name", sorted(SOLVES))
    def test_an_equal_plant_rebuilt_is_accepted(self, name):
        """A new model object with equal matrices (and another Sigma1,
        which no constant depends on) and new, equal weights pass."""
        model, weights = self._scalar()
        rebuilt, _ = self._scalar(Sigma1=2.0)
        consts = ProblemConstants.compute(
            rebuilt, CostWeights(Q=weights.Q.copy(), R=weights.R.copy()))
        prob = BudgetedProblem(model, weights, 3.5)
        assert SOLVES[name](prob, consts) == SOLVES[name](prob, None) > 0

    def test_the_right_constants_give_the_probe_rate(self):
        model, weights = self._scalar()
        ub = solve_ub(BudgetedProblem(model, weights, 3.5))
        assert ub.rate == pytest.approx(0.3324, abs=1e-4)


def test_solver_options_tolerance_scaling(s1, w1, c1):
    loose = solve_ub(BudgetedProblem(s1, w1, 2.0),
                     SolverOptions(tol=1e-6), consts=c1)
    tight = solve_ub(BudgetedProblem(s1, w1, 2.0),
                     SolverOptions(tol=1e-10), consts=c1)
    assert loose.duality_gap > tight.duality_gap
    assert abs(loose.rate - tight.rate) <= 2 * loose.duality_gap
