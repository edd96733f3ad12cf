import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from lqgcap import (BudgetedProblem, ProblemConstants, SolverOptions,
                    average_variables, solve_scop, solve_ub)
from lqgcap import barrier, scop
from lqgcap import linalg as la
from lqgcap.errors import ConfigError, Infeasible, NotPositiveDefinite
from lqgcap.linalg import slogdet_pd, sym
from lqgcap.riccati import control_equation
from lqgcap.scop import DEFAULT_OPTIONS, SCOPProgram, SCOPSolution
from lqgcap.upper_bound import UBProgram, krylov_bases, strict_start

import oracles
from test_decision_map import _consts
from test_random_systems import random_system, with_decoupled_mode


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
        assert prog.floor > 2.0
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
        floor = prog.floor
        sol = solve_scop(BudgetedProblem(s1, w1, floor), 2, consts=c1)
        assert sol.value == 0.0
        assert all(np.all(t[0] == 0) for t in sol.per_time)

    def test_horizon_cap(self, monkeypatch, s1, w1, c1, s2, w2, c2):
        # one cap for scalar and vector plants, checked before any work
        def no_work(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(scop, "SCOPProgram", no_work)
        monkeypatch.setattr(scop, "solve_barrier", no_work)
        assert scop.MAX_HORIZON == 64
        for prob, c in ((BudgetedProblem(s1, w1, 2.0), c1),
                        (BudgetedProblem(s2, w2, 200.0), c2)):
            for h in (0, 65):
                with pytest.raises(ValueError, match=r"\[1, 64\]"):
                    solve_scop(prob, h, consts=c)


class TestSolverOptions:
    @pytest.mark.parametrize("bad", [
        {"tol": 0.0}, {"tol": -1.0}, {"tol": float("nan")}], ids=str)
    def test_bad_values_raise(self, s1, w1, c1, bad):
        # these ran 8,511 Newton steps when solve_scop took tol unchecked
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


def test_vector_scop_runs_on_its_face(s2, w2, c2):
    """k > m: the chained LMIs have a strict interior only on their face.
    The value is NOT compared against the single-letter bound here: at
    short horizons the backward-recursion constants (E_i ramping up from Q)
    price control much cheaper than steady state for this slowly-converging
    system, so the finite-horizon program can legitimately sit above the
    steady-state one.
    """
    p = 1.5 * c2.minimal_cost
    sol = solve_scop(BudgetedProblem(s2, w2, p), 4, consts=c2)
    assert sol.value >= 0
    assert sol.cost <= p + 1e-8
    av = average_variables(sol)
    assert av.lmi1_min_eig >= -1e-8
    assert av.correction_norm > 0


def test_vector_ladder_approaches_the_single_letter_bound(c2):
    """vector3 at p=120: the horizon program's value and its averaged cost
    sit above the single-letter UB and the budget at short horizons, and
    both excesses shrink about like 1/n, the averaging correction: from
    h=16 to 32 each falls to at most 0.6 of itself (0.53 and 0.47 here)."""
    prob = BudgetedProblem(c2.model, c2.weights, 120.0)
    ub = solve_ub(prob, consts=c2).rate
    assert ub == pytest.approx(0.672995, abs=1e-6)
    excess = []
    for h in (16, 32):
        sol = solve_scop(prob, h, consts=c2)
        assert sol.cost <= 120.0 + 1e-6
        assert sol.value > ub
        excess.append((sol.value - ub,
                       average_variables(sol).cost_value - 120.0))
    (value16, cost16), (value32, cost32) = excess
    assert cost16 > 0
    assert value32 <= 0.6 * value16
    assert 0 < cost32 <= 0.6 * cost16


def _krylov_projectors(c, n):
    """Orthogonal projectors on span(G~, F~ G~, ..., F~^(i-1) G~), i = 1..n,
    of the innovation form (F~, G~) = (F - K_p H, G - K_p J), from the
    controllability matrices."""
    F = c.model.F - c.K_p @ c.model.H
    G = c.model.G - c.K_p @ c.model.J
    blocks, out = [G], []
    for _ in range(n):
        q = scipy.linalg.orth(np.hstack(blocks))
        out.append(q @ q.T)
        blocks.append(F @ blocks[-1])
    return out


@pytest.mark.parametrize("seed", [None, 8, 41, 59, 83, 132])
def test_krylov_bases_span_the_controllability_subspaces(c2, seed):
    c = c2 if seed is None else ProblemConstants.compute(*random_system(seed))
    F = c.model.F - c.K_p @ c.model.H
    G = c.model.G - c.K_p @ c.model.J
    bases = krylov_bases(F, G, 5)
    assert bases[0].shape == (c.model.k, 0)
    for V, proj in zip(bases[1:], _krylov_projectors(c, 5), strict=True):
        assert np.allclose(V.T @ V, np.eye(V.shape[1]), rtol=0, atol=1e-14)
        assert np.allclose(V @ V.T, proj, rtol=0, atol=1e-12)
    # an uncontrollable direction stays off every basis; G = 0 gives none
    F2 = np.diag([0.5, 0.3, 0.2])
    G2 = np.array([[1.0], [1.0], [0.0]])
    assert [V.shape[1] for V in krylov_bases(F2, G2, 4)] == [0, 1, 2, 2, 2]
    assert [V.shape[1] for V in krylov_bases(F2, 0 * G2, 2)] == [0, 0, 0]


def test_steps_past_the_krylov_depth_keep_the_single_letter_constant(c2):
    # both programs restrict their Riccati LMIs by the same T: once V_i is
    # the identity, a chained LMI's constant is the single-letter one
    prog = SCOPProgram(c2, 120.0, 8)
    want = UBProgram(c2, 120.0).block_lmi2.const
    chained = prog.barrier_program().constraints[prog.n + 1:2 * prog.n + 1]
    full = [i for i, V in enumerate(prog.bases[1:])
            if np.array_equal(V, np.eye(c2.model.k))]
    assert full == list(range(2, 8))
    for i in full:
        assert np.array_equal(chained[i].const, want)


@pytest.mark.parametrize("h", [1, 2, 8])
def test_a_decoupled_mode_leaves_the_horizon_value(s1, w1, c1, h):
    # the mode's cost enters the horizon-h cost constant (h + 1)/h times
    model, weights = with_decoupled_mode(s1, w1, 0.8, 1.0, 1.0)
    c = ProblemConstants.compute(model, weights)
    budget = 2.5 * c1.minimal_cost + 0.1
    shift = (c.minimal_cost - c1.minimal_cost) * (h + 1) / h
    plain = solve_scop(BudgetedProblem(s1, w1, budget), h, consts=c1)
    sol = solve_scop(BudgetedProblem(model, weights, budget + shift), h,
                     consts=c)
    assert abs(sol.value - plain.value) <= 1e-12
    assert sol.iterations == plain.iterations


def test_state_feedback_horizon_program_solves(state_feedback_model, w1):
    """G = K_p J: the observer error never leaves 0, so the face has no
    SigmaHat or Gamma coordinates at all, while the unreduced program has no
    strict point.  The horizon value
    approaches the single-letter bound from above at rate 1/n."""
    c = ProblemConstants.compute(state_feedback_model, w1)
    prob = BudgetedProblem(state_feedback_model, w1, 1.3 * c.minimal_cost + 0.1)
    ub = solve_ub(prob, consts=c)
    excess = []
    for h in (4, 8, 16):
        sol = solve_scop(prob, h, consts=c)
        assert sol.duality_gap <= DEFAULT_OPTIONS.tol
        assert sol.cost <= prob.budget
        assert not any(t[1].any() or t[2].any() for t in sol.per_time)
        excess.append(sol.value - ub.rate)
    assert excess[0] > 0
    for a, b in zip(excess, excess[1:]):
        assert 0.4 * a <= b <= 0.6 * a


RELAXED_CASES = ([("vector3", h) for h in (1, 2, 4)]
                 + [(f"seed{s}", 3) for s in (8, 59, 83)])


class TestAgainstRelaxedProgram:
    """The program on its face against the relaxed program it replaced
    (oracles.RelaxedSCOPProgram), solved as it was solved then: from the
    relaxed damped start, with the one-inverse Newton direction."""

    @staticmethod
    def _relaxed(monkeypatch, c, p, h, scale):
        monkeypatch.setattr(barrier, "_newton_direction",
                            oracles.newton_direction_one_inverse)
        ref = oracles.RelaxedSCOPProgram(c, p, h,
                                         scale * oracles.chain_relaxation(c))
        v, info = barrier.solve_barrier(ref.program, strict_start(ref),
                                        DEFAULT_OPTIONS.tol)
        monkeypatch.undo()
        assert info.duality_gap <= DEFAULT_OPTIONS.tol
        return ref, v, info

    @pytest.mark.parametrize("name,h", RELAXED_CASES,
                             ids=[f"{n}-h{h}" for n, h in RELAXED_CASES])
    def test_value_and_cost(self, monkeypatch, c2, name, h):
        if name == "vector3":
            c, p = c2, 120.0
        else:
            c = ProblemConstants.compute(*random_system(int(name[4:])))
            p = 1.3 * c.minimal_cost + 0.1
        sol = solve_scop(BudgetedProblem(c.model, c.weights, p), h, consts=c)
        assert sol.duality_gap <= DEFAULT_OPTIONS.tol
        assert sol.cost <= p
        ref, v, info = self._relaxed(monkeypatch, c, p, h, 1.0)
        relaxed = ref.value(v)
        # the face holds every point of the unrelaxed program, which the
        # relaxation contains
        assert sol.value <= relaxed + info.duality_gap
        # The relaxed optimum exceeds the unrelaxed one by about
        # a sqrt(relaxation): 1.7e-6 nats on vector3 at h=4 and 2.5e-6 to
        # 6.4e-6 on the plants.  Its limit at no relaxation, extrapolated
        # from the relaxation and its double, is the face's value.
        ref2, v2, _ = self._relaxed(monkeypatch, c, p, h, 2.0)
        limit = relaxed - (ref2.value(v2) - relaxed) / (np.sqrt(2.0) - 1.0)
        assert abs(sol.value - limit) <= 1e-6
        # the relaxed SigmaHat_{i+1} reaches outside the Krylov subspace
        # only by about the relaxation
        k = c.model.k
        for s, proj in zip(ref.sigma_hats(v), _krylov_projectors(c, h)):
            out = np.eye(k) - proj
            assert np.linalg.norm(out @ s @ out, 2) <= 10.0 * ref.relaxation


class TestConditioning:
    """On its face the vector horizon program's start is well conditioned,
    and its Newton count does not depend on the start's last bit."""

    def test_block_condition_at_the_strict_start(self, c2):
        prog = SCOPProgram(c2, 120.0, 2)
        program, v0 = prog.barrier_program(), strict_start(prog)
        blocks = [b for _, b in program.objective] + program.constraints
        assert max(np.linalg.cond(sym(b.value(v0))) for b in blocks) <= 1.7e8

    def test_newton_count_under_last_bit_perturbations(self, c2):
        prog = SCOPProgram(c2, 120.0, 2)
        program, v0 = prog.barrier_program(), strict_start(prog)
        counts = []
        for s in range(-4, 5):
            _, info = barrier.solve_barrier(
                program, v0 * (1.0 + s * 2.0 ** -52), DEFAULT_OPTIONS.tol)
            assert info.duality_gap <= DEFAULT_OPTIONS.tol
            counts.append(info.iterations)
        assert max(counts) - min(counts) <= 2
        assert max(counts) <= 100


def _program_case(request, name):
    c = _consts(request, name)
    return c, {"s1": 2.0, "s2": 120.0}.get(name, 1.3 * c.minimal_cost + 0.1)


LOCAL_CASES = [(name, h) for name in ("s1", "s2", "seed8", "seed11", "seed41",
                                      "seed59", "seed83")
               for h in (1, 2, 5, 16, 32)]


class TestLocalAssembly:
    """The horizon program evaluated on each step's own columns against the
    dense assembly it replaced (oracles.scop_dense_blocks), which evaluated
    the per-step map at all D unit vectors."""

    @pytest.mark.parametrize("name,h", LOCAL_CASES,
                             ids=[f"{n}-h{h}" for n, h in LOCAL_CASES])
    def test_blocks_scatter_to_the_dense_assembly(self, request, name, h):
        c, p = _program_case(request, name)
        prog = SCOPProgram(c, p, h)
        objective, constraints = oracles.scop_dense_blocks(prog)
        program = prog.barrier_program()
        pairs = list(zip([b for _, b in program.objective] + program.constraints,
                         [b for _, b in objective] + constraints, strict=True))
        assert [w for w, _ in program.objective] == [w for w, _ in objective]
        # the budget row is the only block over all D columns in order
        assert [np.array_equal(b.cols, np.arange(prog.dim))
                for b, _ in pairs] == [False] * (len(pairs) - 1) + [True]
        # a slot that a step's face lacks reads the pad, at zero coefficients
        for b, _ in pairs:
            assert not b.basis[b.cols == prog.dim].any()
        if program._local is None:
            # a dense-row program keeps its stacks bit for bit
            for b, ref in pairs:
                assert np.array_equal(b.const, ref.const)
                assert np.array_equal(b.dense_basis(), ref.basis)
            ref = barrier.BarrierProgram(objective, constraints)
            for attr in ("_const", "_basis", "_w_obj", "_w_con",
                         "_diag_idx"):
                a, b = getattr(program, attr), getattr(ref, attr)
                assert np.array_equal(a, b), attr
                assert a.strides == b.strides, attr
        else:
            for b, ref in pairs:
                assert np.array_equal(b.const, ref.const)
                diff = np.linalg.norm(b.dense_basis() - ref.basis)
                assert diff <= 1e-12 * np.linalg.norm(ref.basis)
            assert program._basis is None

    @pytest.mark.parametrize("name,h,local", [
        ("s1", 8, False), ("s1", 16, True), ("s2", 4, False),
        ("s2", 8, True), ("seed41", 2, False), ("seed41", 5, True)])
    def test_rows_are_local_where_they_were(self, request, name, h, local):
        # scalar h <= 8 and vector3 h <= 4 keep dense rows
        c, p = _program_case(request, name)
        program = SCOPProgram(c, p, h).barrier_program()
        assert (program._local is not None) == local

    @pytest.mark.parametrize("name,h", [("s1", 16), ("s1", 32), ("s2", 16)])
    def test_local_rows_solve_to_the_dense_assemblys_value(self, request,
                                                           name, h):
        c, p = _program_case(request, name)
        prog = SCOPProgram(c, p, h)
        v0 = strict_start(prog)
        v, info = barrier.solve_barrier(prog.barrier_program(), v0,
                                        DEFAULT_OPTIONS.tol)
        dense = barrier.BarrierProgram(*oracles.scop_dense_blocks(prog))
        assert prog.barrier_program()._local is not None
        assert dense._local is None
        w, ref = barrier.solve_barrier(dense, v0, DEFAULT_OPTIONS.tol)
        assert (abs(prog.value(v) - prog.value(w))
                <= info.duality_gap + ref.duality_gap)

    def test_building_the_h64_program_stays_small(self, c2):
        # a dense (B*d*d, D) basis alone would take 14.8 MB
        tracemalloc.start()
        try:
            SCOPProgram(c2, 120.0, 64).barrier_program()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_the_lqr_schedule_is_the_recursions_gains(self, c2):
        # K_i, PsiL_i are the control equation's gains at E_{i+1}, formed
        # once by the backward recursion from E_{n+1} = Q
        prog = SCOPProgram(c2, 120.0, 6)
        control = control_equation(c2.model, c2.weights)
        assert np.array_equal(prog.E[-1], sym(c2.weights.Q))
        for e, K, PsiL in zip(prog.E[1:], prog.K, prog.PsiL, strict=True):
            Kt, want = control.gain(e)
            assert np.array_equal(K, Kt.T) and np.array_equal(PsiL, want)
        for e, e_next in zip(prog.E, prog.E[1:]):
            assert np.array_equal(e, control.step(e_next))

    def test_value_is_one_batched_factorization(self, monkeypatch, c2):
        prog = SCOPProgram(c2, 120.0, 5)
        v = strict_start(prog)
        want = (sum(w * slogdet_pd(b.value(v)) for w, b in prog._objective)
                - 0.5 * slogdet_pd(c2.Psi))
        factored = []
        cholesky = la.cholesky
        monkeypatch.setattr(la, "cholesky", lambda a: (
            factored.append(a.shape) or cholesky(a)))
        got = prog.value(v)
        monkeypatch.undo()
        assert abs(got - want) <= 1e-14 * (1.0 + abs(want))
        assert factored[0] == (5, 1, 1) and len(factored) == 2
        # a Psi_Y,i that is not PD is reported as such
        bad = v.copy()
        bad[:prog.pi_pack.dim] = -1e6
        with pytest.raises(NotPositiveDefinite, match="Psi_Y,i"):
            prog.value(bad)

    def test_the_floor_is_computed_once(self, monkeypatch, c1, s1, w1):
        prog = SCOPProgram(c1, 2.0, 4)
        floor = prog.floor
        monkeypatch.setattr(np, "trace", lambda *a, **k: pytest.fail("traced"))
        assert prog.cost(np.zeros(prog.dim)) == floor
