import numpy as np
import pytest

from lqgcap import (BudgetedProblem, SolverOptions, average_variables,
                    solve_scop, solve_ub)
from lqgcap.errors import ConfigError, Infeasible
from lqgcap.scop import DEFAULT_OPTIONS, SCOPProgram, SCOPSolution


def horizon_one_value_oracle(c, budget):
    """Closed form at horizon 1: SigmaHat_1 = 0 pins Psi_Y,1 = J^2 Pi_1 + Psi
    and the single linear cost constraint determines Pi_1."""
    q = c.weights.Q[0, 0]
    psi_l1 = c.weights.R[0, 0] + c.model.G[0, 0] ** 2 * q
    const = (c.K_p[0, 0] ** 2 * c.Psi[0, 0] * q
             + 2 * c.Sigma[0, 0] * q)
    pi_star = (budget - const) / psi_l1
    if pi_star <= 0:
        return 0.0
    j = c.model.J[0, 0]
    return 0.5 * np.log((j ** 2 * pi_star + c.Psi[0, 0]) / c.Psi[0, 0])


class TestHorizonOne:
    def test_closed_form(self, s1, w1, c1):
        sol = solve_scop(BudgetedProblem(s1, w1, 3.0), 1, consts=c1)
        want = horizon_one_value_oracle(c1, 3.0)
        assert sol.value == pytest.approx(want, abs=1e-7)
        assert len(sol.per_time) == 1

    def test_average_is_single_entry(self, s1, w1, c1):
        sol = solve_scop(BudgetedProblem(s1, w1, 3.0), 1, consts=c1)
        av = average_variables(sol)
        assert av.Pi[0, 0] == pytest.approx(sol.per_time[0][0][0, 0])
        assert av.Gamma[0, 0] == pytest.approx(sol.per_time[0][1][0, 0])
        # SigmaHat averages over i = 1..n, which at n = 1 is the pinned zero
        assert av.SigmaHat[0, 0] == 0.0

    def test_infeasible_below_finite_horizon_floor(self, s1, w1, c1):
        """The horizon-1 cost floor includes the terminal state penalty, so a
        budget that is fine in steady state can be infeasible at n = 1."""
        prog = SCOPProgram(c1, 2.0, 1)
        assert prog.cost_constant() > 2.0
        with pytest.raises(Infeasible):
            solve_scop(BudgetedProblem(s1, w1, 2.0), 1, consts=c1)


@pytest.fixture(scope="module")
def ladder(s1, w1, c1):
    prob = BudgetedProblem(s1, w1, 2.0)
    return {h: solve_scop(prob, h, consts=c1) for h in (2, 4, 8, 16)}


class TestHorizonLadder:
    def test_values_below_single_letter(self, s1, w1, c1, ladder):
        ub = solve_ub(BudgetedProblem(s1, w1, 2.0), consts=c1)
        for sol in ladder.values():
            assert sol.value <= ub.rate + 1e-6

    def test_values_approach_capacity_from_below(self, s1, w1, c1, ladder):
        ub = solve_ub(BudgetedProblem(s1, w1, 2.0), consts=c1)
        gaps = [ub.rate - ladder[h].value for h in (2, 4, 8, 16)]
        assert all(g > 0 for g in gaps)
        assert gaps[-1] < gaps[0]
        vals = [ladder[h].value for h in (2, 4, 8, 16)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_chained_lmis_feasible(self, ladder, c1):
        for h, sol in ladder.items():
            prog = SCOPProgram(c1, 2.0, h)
            pis, gammas, _ = (np.array(t) for t in zip(*sol.per_time))
            v = prog.pack(pis, gammas, np.array(sol.sigma_hats))
            assert min(prog.barrier_program().min_slacks(v)) >= -1e-8
            assert sol.cost <= 2.0 + 1e-8

    def test_terminal_correction_value(self, ladder, c1):
        for h, sol in ladder.items():
            want = float(np.trace(c1.Sigma @ c1.weights.Q)) / h
            assert sol.slack_E_n == pytest.approx(want, abs=1e-9)

    def test_averaged_point_nearly_feasible(self, ladder):
        for h, sol in ladder.items():
            av = average_variables(sol)
            assert av.lmi1_min_eig >= -1e-8
            assert av.lmi2_min_eig >= -1e-8
            assert av.cost_excess <= 1e-6
            assert av.slack <= 2.0 / h

    def test_slack_decays_per_doubling(self, ladder):
        slacks = [average_variables(ladder[h]).slack for h in (2, 4, 8, 16)]
        for a, b in zip(slacks, slacks[1:]):
            assert b <= 0.75 * a


class TestAveraging:
    def test_time_invariant_sequence_recovers_common_value(self, c1):
        pi = np.array([[0.4]])
        gam = np.zeros((1, 1))
        sig = np.zeros((1, 1))
        per_time = [(pi, gam, sig) for _ in range(6)]
        sol = SCOPSolution(horizon=6, per_time=per_time, value=0.0,
                           slack_E_n=0.0, cost=0.0, consts=c1, budget=3.0)
        av = average_variables(sol)
        assert av.Pi[0, 0] == pytest.approx(0.4, abs=1e-12)
        assert av.Gamma[0, 0] == 0.0
        assert av.SigmaHat[0, 0] == 0.0
        assert av.correction_norm <= 1e-12
        assert av.lmi1_min_eig >= -1e-12
        assert av.lmi2_min_eig >= -1e-12

    def test_boundary_budget_zero_solution(self, s1, w1, c1):
        prog = SCOPProgram(c1, 0.0, 2)
        floor = prog.cost_constant()
        sol = solve_scop(BudgetedProblem(s1, w1, floor), 2, consts=c1)
        assert sol.value == 0.0
        assert all(np.all(t[0] == 0) for t in sol.per_time)

    def test_horizon_cap(self, s1, w1, c1, s2, w2, c2):
        with pytest.raises(ValueError):
            solve_scop(BudgetedProblem(s1, w1, 2.0), 65, consts=c1)
        with pytest.raises(ValueError):
            solve_scop(BudgetedProblem(s2, w2, 200.0), 17, consts=c2)


class TestSolverOptions:
    @pytest.mark.parametrize("bad", [
        {"tol": 0.0}, {"tol": -1.0}, {"tol": float("nan")},
        {"max_iter": 0}, {"max_iter": -5}], ids=str)
    def test_bad_values_raise(self, s1, w1, c1, bad):
        # these ran 8,511 Newton steps, or stopped after 1 with a warning,
        # when solve_scop took tol and max_iter unchecked
        with pytest.raises(ConfigError):
            solve_scop(BudgetedProblem(s1, w1, 2.0), 4, SolverOptions(**bad),
                       consts=c1)

    def test_options_reach_the_barrier(self, s1, w1, c1):
        prob = BudgetedProblem(s1, w1, 2.0)
        coarse = solve_scop(prob, 4, SolverOptions(tol=1e-3), consts=c1)
        default = solve_scop(prob, 4, consts=c1)
        assert coarse.duality_gap <= 1e-3
        assert default.duality_gap <= DEFAULT_OPTIONS.tol
        assert coarse.iterations < default.iterations


def test_vector_scop_runs_with_relaxation(s2, w2, c2):
    """k > m needs the PSD relaxation to open an interior.  The value is NOT
    compared against the single-letter bound here: at short horizons the
    backward-recursion constants (E_i ramping up from Q) price control much
    cheaper than steady state for this slowly-converging system, so the
    finite-horizon program can legitimately sit above the steady-state one.
    """
    p = 1.5 * c2.minimal_cost
    sol = solve_scop(BudgetedProblem(s2, w2, p), 4, consts=c2)
    assert sol.relaxation > 0
    assert sol.value >= 0
    assert sol.cost <= p + 1e-8
    av = average_variables(sol)
    assert av.lmi1_min_eig >= -1e-8
    assert av.correction_norm > 0
