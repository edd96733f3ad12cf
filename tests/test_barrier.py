import functools
import math
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lqgcap import BudgetedProblem, ProblemConstants, solve_ub
from lqgcap import barrier, upper_bound
from lqgcap import linalg as la
from lqgcap.barrier import (T_START, AffineBlock, BarrierProgram, NewtonLine,
                            SymPacker, _newton_direction, _y_rows,
                            solve_barrier)
from lqgcap.config import load_config
from lqgcap.errors import NotPositiveDefinite, SolverNonConvergence
from lqgcap.linalg import psd_sqrt, slogdet_pd, solve_pd, sym
from lqgcap.scop import SCOPProgram
from lqgcap.upper_bound import SolverOptions, feasibility, strict_start

import oracles
from oracles import solve_barrier_nu_over_t
from test_decision_map import _two_input_state_feedback_plant
from test_random_systems import random_system

CONFIGS = pathlib.Path(__file__).parent.parent / "configs"
TOL = SolverOptions().tol


class TestSymPacker:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_roundtrip(self, n):
        rng = np.random.default_rng(n)
        a = sym(rng.standard_normal((n, n)))
        pk = SymPacker(n)
        assert pk.dim == n * (n + 1) // 2
        assert np.allclose(pk.unpack(pk.pack(a)), a)
        # a (2, 3) stack packs slice by slice and round-trips exactly
        stack = sym(rng.standard_normal((2, 3, n, n)))
        packed = pk.pack(stack)
        assert packed.shape == (2, 3, pk.dim)
        assert np.array_equal(packed[1, 2], pk.pack(stack[1, 2]))
        assert np.array_equal(pk.unpack(packed), stack)

    def test_basis_reconstructs(self):
        pk = SymPacker(3)
        rng = np.random.default_rng(0)
        a = sym(rng.standard_normal((3, 3)))
        v = pk.pack(a)
        assert np.allclose(np.tensordot(v, pk.basis(), axes=(0, 0)), a)


def _mixed_program(rng, dim=4, local=False):
    """Blocks of sizes 1, 2 and 3 over `dim` variables, two of them in a
    weighted objective, PD near v = 0.  With `local`, each block declares
    half of the coordinates as its own columns, and the program forms its
    Newton rows on them, whatever they save; its 1x1 blocks keep dense
    rows."""

    def block(d, scale):
        basis = np.stack([sym(rng.standard_normal((d, d))) for _ in range(dim)])
        if not local:
            return AffineBlock(np.eye(d) * scale, basis)
        zero = rng.permutation(dim)[:dim // 2]
        cols = np.setdiff1d(np.arange(dim), zero)
        return AffineBlock(np.eye(d) * scale, basis[cols], cols, dim)

    with mock.patch.object(barrier, "LOCAL_OVERHEAD",
                           -np.inf if local else barrier.LOCAL_OVERHEAD):
        return BarrierProgram(
            objective=[(0.5, block(2, 5.0)), (0.25, block(1, 4.0))],
            constraints=[block(3, 5.0), block(2, 6.0), block(1, 3.0),
                         block(3, 4.0)])


def _oracle(program, v, t):
    """Merit, gradient and Hessian block by block from explicit inverses."""
    f, g, h = 0.0, np.zeros(v.size), np.zeros((v.size, v.size))
    weighted = ([(t * w, b) for w, b in program.objective]
                + [(1.0, b) for b in program.constraints])
    for w, b in weighted:
        s = sym(b.value(v))
        y = np.einsum("ab,jbc->jac", np.linalg.inv(s), b.dense_basis())
        f -= w * slogdet_pd(s)
        g -= w * np.trace(y, axis1=1, axis2=2)
        h += w * np.einsum("jab,lba->jl", y, y)
    return f, g, h


def _rel(a, b):
    return float(np.linalg.norm(np.subtract(a, b)) / np.linalg.norm(b))


def _ub_start(consts, budget):
    feas = feasibility(BudgetedProblem(consts.model, consts.weights, budget),
                       consts)
    return feas.program.barrier_program(), feas.program.pack(feas.point)


def _scop_start(consts, budget, horizon):
    prog = SCOPProgram(consts, budget, horizon)
    return prog.barrier_program(), strict_start(prog)


class TestBarrierProgram:
    def test_grad_hess_match_finite_differences(self):
        rng = np.random.default_rng(3)
        dim, t = 4, 3.7
        program = _mixed_program(rng, dim)
        v = 0.1 * rng.standard_normal(dim)

        g, h = program.grad_hess(v, t)
        eps = 1e-6
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = eps
            fd = (program.merit(v + e, t) - program.merit(v - e, t)) / (2 * eps)
            assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)
            gp, _ = program.grad_hess(v + e, t)
            gm, _ = program.grad_hess(v - e, t)
            assert np.allclose(h[:, j], (gp - gm) / (2 * eps), rtol=1e-4,
                               atol=1e-6)

    @pytest.mark.parametrize("case", ["ub-s1", "ub-vector3", "scop-scalar-h4",
                                      "scop-vector3-h2"])
    def test_stacked_evaluation_matches_per_block_oracle(self, case, c1, c2):
        program, v = {
            "ub-s1": lambda: _ub_start(c1, 2.0),
            "ub-vector3": lambda: _ub_start(c2, 120.0),
            "scop-scalar-h4": lambda: _scop_start(c1, 2.0, 4),
            "scop-vector3-h2": lambda: _scop_start(c2, 120.0, 2),
        }[case]()
        blocks = [b for _, b in program.objective] + program.constraints
        # Agreement between two float64 evaluations is limited by the
        # conditioning of the blocks.
        kappa = max(np.linalg.cond(sym(b.value(v))) for b in blocks)
        tol = max(1e-10, kappa * np.finfo(float).eps)
        assert program.feasible(v)
        assert np.allclose(
            program.min_slacks(v),
            [np.linalg.eigvalsh(sym(b.value(v)))[0] for b in program.constraints],
            rtol=tol, atol=0.0)
        for t in (2.0, 37.5, 1e6):
            f0, g0, h0 = _oracle(program, v, t)
            g, h = program.grad_hess(v, t)
            assert abs(program.merit(v, t) - f0) <= tol * abs(f0)
            assert _rel(g, g0) <= tol
            assert _rel(h, h0) <= tol
            assert np.array_equal(h, h.T)

    def test_grad_hess_reuses_the_accepted_points_factor(self, monkeypatch):
        dim, t = 4, 3.7
        program = _mixed_program(np.random.default_rng(5), dim)
        fresh = _mixed_program(np.random.default_rng(5), dim)
        rng = np.random.default_rng(6)
        accepted = 0.1 * rng.standard_normal(dim)
        rejected = 1e3 * rng.standard_normal(dim)
        unseen = accepted + 0.05 * rng.standard_normal(dim)
        assert np.isfinite(program.merit(accepted, t))
        assert program.merit(rejected, t) == np.inf

        factored = []
        cholesky = la.cholesky
        monkeypatch.setattr(la, "cholesky",
                            lambda a: factored.append(a.shape) or cholesky(a))
        g, h = program.grad_hess(accepted.copy(), t)
        assert factored == []
        g0, h0 = fresh.grad_hess(accepted, t)
        assert np.array_equal(g, g0) and np.array_equal(h, h0)
        # a point the merit never saw is factored afresh
        g, h = program.grad_hess(unseen, t)
        assert len(factored) > 1
        g0, h0 = fresh.grad_hess(unseen, t)
        assert np.array_equal(g, g0) and np.array_equal(h, h0)

    def test_basis_layout_does_not_depend_on_the_blocks(self):
        # Equal blocks with F-ordered unit stacks once gave a C-ordered
        # basis, other BLAS kernels and a solution 1.5e-13 away.
        program, v0 = _ub_start(_bundled_consts("vector3"), 120.0)

        def fortran(b):
            return AffineBlock(b.const, np.asfortranarray(b.basis))

        other = BarrierProgram(
            objective=[(w, fortran(b)) for w, b in program.objective],
            constraints=[fortran(b) for b in program.constraints])
        assert other._basis.strides == program._basis.strides
        v, info = solve_barrier(program, v0, TOL)
        w, other_info = solve_barrier(other, v0, TOL)
        assert np.array_equal(v, w)
        assert info.iterations == other_info.iterations

    @pytest.mark.parametrize("constant_matrix_block", [False, True])
    def test_local_rows_need_a_matrix_block_with_coordinates(
            self, constant_matrix_block):
        # 1x1 blocks alone save dense - local = n*D multiply-adds, above
        # LOCAL_OVERHEAD here, but have no local rows to form
        rng = np.random.default_rng(7)
        dim, n = 400, 600
        blocks = [AffineBlock(np.eye(1), 1e-3 * rng.standard_normal((dim, 1, 1)))
                  for _ in range(n)]
        if constant_matrix_block:
            blocks.append(AffineBlock(np.eye(2), np.zeros((dim, 2, 2))))
        program = BarrierProgram([(0.5, blocks[0])], blocks[1:])
        assert program._local is None
        g, h = program.grad_hess(np.zeros(dim), 2.0)
        assert g.shape == (dim,) and h.shape == (dim, dim)

    def test_blocks_carry_the_programs_coordinate_count(self):
        # a block on its own columns needs D; a program of such blocks only
        # builds, and blocks over different D are refused
        basis = np.stack([np.eye(2), np.ones((2, 2))])
        with pytest.raises(ValueError, match="dim_total"):
            AffineBlock(np.eye(2), basis, np.array([0, 2]))
        block = AffineBlock(np.eye(2), basis, np.array([0, 2]), 3)
        assert np.array_equal(block.dense_basis(),
                              [np.eye(2), np.zeros((2, 2)), np.ones((2, 2))])
        budget = AffineBlock(np.eye(1), np.ones((1, 1, 1)), np.array([1]), 3)
        program = BarrierProgram([(0.5, block)], [budget])
        v = np.array([0.1, -0.2, 0.3])
        assert program.merit(v, 2.0) == pytest.approx(
            -slogdet_pd(block.value(v)) - np.log(0.8))
        with pytest.raises(ValueError, match="coordinates"):
            BarrierProgram([(0.5, block)],
                           [AffineBlock(np.eye(1), np.ones((4, 1, 1)))])

    @pytest.mark.parametrize("case", ["mixed", "ub-s1", "ub-vector3",
                                      "scop-scalar-h2", "scop-vector3-h2"])
    def test_a_block_without_columns_has_all_of_them(self, request,
                                                     monkeypatch, case):
        # one block form: a block built without columns is the block over
        # all D columns in order, and over the columns its matrix depends
        # on (a strict subset in the horizon programs); on dense rows the
        # three programs are one program, bit for bit
        program, v = REFERENCE_CASES[case](request, monkeypatch)
        dim = v.size
        blocks = [b for _, b in program.objective] + program.constraints

        def variants(b):
            basis = b.dense_basis()
            on = np.flatnonzero(np.any(basis != 0.0, axis=(1, 2)))
            return (AffineBlock(b.const, basis),
                    AffineBlock(b.const, basis, np.arange(dim), dim),
                    AffineBlock(b.const, basis[on], on, dim))

        forms = list(zip(*map(variants, blocks)))
        assert any(b.cols.size < dim for b in forms[2]) == case.startswith(
            "scop")
        for full, ordered, subset in zip(*forms):
            assert np.array_equal(full.cols, np.arange(dim))
            assert full.dim_total == dim
            assert np.array_equal(ordered.value(v), full.value(v))
            # to rounding: the subset's product sums fewer terms
            assert np.allclose(subset.value(v), full.value(v),
                               rtol=1e-14, atol=0.0)
            for b in (ordered, subset):
                assert np.array_equal(b.dense_basis(), full.dense_basis())
        n_obj = len(program.objective)
        weights = [w for w, _ in program.objective]
        with mock.patch.object(barrier, "LOCAL_OVERHEAD", np.inf):
            programs = [BarrierProgram(list(zip(weights, form[:n_obj])),
                                       list(form[n_obj:])) for form in forms]
        ref = programs[0]
        for other in programs[1:]:
            assert other._local is None
            for attr in ("_const", "_basis"):
                a, b = getattr(other, attr), getattr(ref, attr)
                assert np.array_equal(a, b) and a.strides == b.strides, attr
            for t in (2.0, 37.5):
                assert other.merit(v, t) == ref.merit(v, t)
                for a, b in zip(other.grad_hess(v, t), ref.grad_hess(v, t)):
                    assert np.array_equal(a, b)

    def test_feasible_tests_constraint_blocks_only(self):
        pk = SymPacker(1)
        program = BarrierProgram(
            objective=[(0.5, AffineBlock(np.array([[-1.0]]), pk.basis()))],
            constraints=[AffineBlock(np.zeros((1, 1)), pk.basis())])
        assert program.feasible(np.array([0.5]))
        assert program.merit(np.array([0.5]), 2.0) == np.inf
        assert not program.feasible(np.array([-0.5]))
        assert program.min_slacks(np.array([0.5])) == [0.5]


class TestSolveBarrier:
    def test_maxdet_under_trace_budget(self):
        """max (1/2) logdet(Pi) s.t. tr(Pi) <= c has optimum (c/n) I."""
        n, c = 2, 3.0
        pk = SymPacker(n)
        basis = pk.basis()
        trace_coeffs = np.array([np.trace(b) for b in basis])
        program = BarrierProgram(
            objective=[(0.5, AffineBlock(np.zeros((n, n)), basis))],
            constraints=[
                AffineBlock(np.zeros((n, n)), basis),
                AffineBlock(np.array([[c]]),
                            (-trace_coeffs).reshape(-1, 1, 1)),
            ])
        v0 = pk.pack(0.1 * np.eye(n))
        v, info = solve_barrier(program, v0, 1e-10)
        pi = pk.unpack(v)
        assert np.allclose(pi, (c / n) * np.eye(n), atol=1e-5)
        assert info.duality_gap <= 1e-10

    def test_infeasible_start_rejected(self):
        pk = SymPacker(1)
        program = BarrierProgram(
            objective=[(0.5, AffineBlock(np.zeros((1, 1)), pk.basis()))],
            constraints=[AffineBlock(np.zeros((1, 1)), pk.basis())])
        with pytest.raises(SolverNonConvergence):
            solve_barrier(program, np.array([-1.0]), 1e-8)

    def test_nu_counts_constraint_dimensions(self):
        pk = SymPacker(2)
        program = BarrierProgram(
            objective=[],
            constraints=[AffineBlock(np.eye(2), pk.basis()),
                         AffineBlock(np.array([[1.0]]),
                                     np.zeros((pk.dim, 1, 1)))])
        assert program.nu == 3.0


def _assert_follows_every_gap_loop(program, v0, tol):
    """solve_barrier and the loop with the same step rule that forms the
    Newton rows at every call and computes the gap of every step by a
    Cholesky factorization of I - E reach the same iterate, bit for bit,
    with the same counts, round and decrement, and a gap that agrees with
    the Cholesky gap to 1e-15 absolute (the two gaps round differently);
    returns the library's info."""
    v, info = solve_barrier(program, v0, tol)
    v_ref, ref = oracles.solve_barrier_every_gap(program, v0, tol)
    assert np.array_equal(v, v_ref)
    assert (info.iterations, info.t_final, info.newton_decrement) == (
        ref.iterations, ref.t_final, ref.newton_decrement)
    assert abs(info.duality_gap - ref.duality_gap) <= 1e-15
    return info


def _explicit_dual(program, v, t, step):
    """The dual point of a Newton step from explicit inverses, block by
    block: W_o = w_o (O^-1 - O^-1 dO O^-1), Z_c = (O^-1 - O^-1 dO O^-1)/t
    with dO the step's change of the block.  Returns (W, Z, dual-equality
    residual relative to its terms, f(v) - g(W, Z))."""
    def parts(b, scale):
        s, basis = sym(b.value(v)), b.dense_basis()
        inv = np.linalg.inv(s)
        ds = np.tensordot(step, basis, axes=(0, 0))
        x = scale * sym(inv - inv @ ds @ inv)
        return s, x, np.einsum("ab,jab->j", x, basis)

    obj = [(w, b, *parts(b, w)) for w, b in program.objective]
    con = [(b, *parts(b, 1.0 / t)) for b in program.constraints]
    terms = [q[-1] for q in obj] + [q[-1] for q in con]
    residual = (np.linalg.norm(np.sum(terms, axis=0))
                / sum(np.linalg.norm(q) for q in terms))
    f = sum(-w * slogdet_pd(s) for w, _, s, _, _ in obj)
    g = (sum(w * (b.dim + slogdet_pd(x / w)) - np.vdot(x, b.const)
             for w, b, _, x, _ in obj)
         - sum(np.vdot(x, b.const) for b, _, x, _ in con))
    return ([q[3] for q in obj], [q[2] for q in con], residual, f - g)


def _bundled(name):
    return load_config(str(CONFIGS / f"{name}.json"))


@functools.lru_cache(maxsize=None)
def _bundled_consts(name):
    cfg = _bundled(name)
    return ProblemConstants.compute(cfg.model, cfg.weights)


SWEEP_POINTS = [(name, float(b)) for name in ("scalar", "vector3")
                for b in _bundled(name).budget_sweep.grid()]


def _against_oracle(consts, budget):
    """The certified solve and the nu/t engine on one UB program: checks
    that their rates agree to 2 tol and weak duality, and returns the
    certified solve's info."""
    feas = feasibility(BudgetedProblem(consts.model, consts.weights, budget),
                       consts)
    prog = feas.program
    program, v0 = prog.barrier_program(), prog.pack(feas.point)
    v, info = solve_barrier(program, v0, TOL)
    v_ref, _ = solve_barrier_nu_over_t(program, v0, TOL)
    rate, ref = prog.rate(v), prog.rate(v_ref)
    assert abs(rate - ref) <= 2 * TOL
    # the certified gap bounds the optimum, which the old iterate's rate
    # cannot exceed
    assert rate + info.duality_gap >= ref - 1e-12
    return info


class TestDualCertificate:
    @pytest.mark.parametrize("case", ["mixed", "ub-s1", "ub-vector3",
                                      "scop-scalar-h4"])
    def test_gap_is_the_explicit_dual_points_gap(self, case, c1, c2):
        program, v0 = {
            "mixed": lambda: (_mixed_program(np.random.default_rng(3)),
                              np.zeros(4)),
            "ub-s1": lambda: _ub_start(c1, 2.0),
            "ub-vector3": lambda: _ub_start(c2, 120.0),
            "scop-scalar-h4": lambda: _scop_start(c1, 2.0, 4),
        }[case]()
        # a point near the central path, where the Newton step's dual point
        # is feasible
        v, info = solve_barrier(program, v0, 1e-3)
        t = info.t_final
        g, h = program.grad_hess(v, t)
        step = np.linalg.solve(h, -g)
        gap = program.newton_line(step).gap()
        W, Z, residual, dual_gap = _explicit_dual(program, v, t, step)
        assert residual <= 1e-8
        assert all(np.linalg.eigvalsh(w)[0] > 0 for w in W)
        assert all(np.linalg.eigvalsh(z)[0] >= 0 for z in Z)
        assert 0 < gap <= 1e-3
        assert abs(dual_gap - gap) <= 1e-9 * gap

        # a step scaled out of the Dikin ellipsoid: some I - E_b is not PD
        blocks = [b for _, b in program.objective] + program.constraints
        e_max = max(np.linalg.eigvals(np.linalg.solve(
            sym(b.value(v)), np.tensordot(step, b.dense_basis(),
                                          axes=(0, 0)))).real.max()
                    for b in blocks)
        assert e_max > 0
        assert program.newton_line((2.0 / e_max) * step).gap() == np.inf
        assert np.isfinite(program.newton_line((0.5 / e_max) * step).gap())


class TestCertifiedStop:
    @pytest.mark.parametrize("name,budget", SWEEP_POINTS,
                             ids=[f"{n}-{b:.6g}" for n, b in SWEEP_POINTS])
    def test_sweep_point_agrees_with_the_nu_over_t_engine(self, name, budget):
        _against_oracle(_bundled_consts(name), budget)

    @pytest.mark.parametrize("seed", [11, 37, 41, 59, 113])
    def test_random_plant_agrees_with_the_nu_over_t_engine(self, seed):
        consts = ProblemConstants.compute(*random_system(seed))
        for mult in (1.3, 2.5):
            info = _against_oracle(consts, mult * consts.minimal_cost + 0.1)
            assert info.duality_gap <= TOL

    def test_every_bundled_sweep_point_certifies_within_40_steps(self):
        # and 1,500 in all, and follows the loop that forms every row and
        # computes every gap
        total = 0
        for name, budget in SWEEP_POINTS:
            program, v0 = _ub_start(_bundled_consts(name), budget)
            info = _assert_follows_every_gap_loop(program, v0, TOL)
            assert info.iterations <= 40, (name, budget)
            assert info.duality_gap <= TOL, (name, budget)
            total += info.iterations
        assert total <= 1500


def _state_feedback_start(monkeypatch, model, weights):
    """The state-feedback program solve_ub builds for `model`, and its start."""
    c = ProblemConstants.compute(model, weights)
    solve, seen = upper_bound.solve_barrier, []

    def record(program, v0, *args):
        seen.append((program, np.array(v0)))
        return solve(program, v0, *args)

    monkeypatch.setattr(upper_bound, "solve_barrier", record)
    solve_ub(BudgetedProblem(model, weights, 1.3 * c.minimal_cost + 0.1),
             consts=c)
    monkeypatch.undo()
    assert len(seen) == 1
    return seen[0]


def _plant(seed):
    return ProblemConstants.compute(*random_system(seed))


def _plant_ub_start(seed):
    c = _plant(seed)
    return _ub_start(c, 1.3 * c.minimal_cost + 0.1)


REFERENCE_CASES = {
    "mixed": lambda r, m: (_mixed_program(np.random.default_rng(3)),
                           np.zeros(4)),
    "ub-s1": lambda r, m: _ub_start(r.getfixturevalue("c1"), 2.0),
    "ub-vector3": lambda r, m: _ub_start(r.getfixturevalue("c2"), 120.0),
    **{f"ub-seed{s}": (lambda r, m, s=s: _plant_ub_start(s))
       for s in (11, 41, 59, 83)},
    **{f"scop-scalar-h{h}": (lambda r, m, h=h: _scop_start(
        r.getfixturevalue("c1"), 2.0, h)) for h in (2, 5, 16, 32)},
    **{f"scop-vector3-h{h}": (lambda r, m, h=h: _scop_start(
        r.getfixturevalue("c2"), 120.0, h)) for h in (1, 2, 16)},
    **{f"scop-seed41-h{h}": (lambda r, m, h=h: (lambda c: _scop_start(
        c, 1.3 * c.minimal_cost + 0.1, h))(_plant(41))) for h in (2, 5)},
    "state-feedback-scalar": lambda r, m: _state_feedback_start(
        m, r.getfixturevalue("state_feedback_model"),
        r.getfixturevalue("w1")),
    "state-feedback-two-input": lambda r, m: _state_feedback_start(
        m, *_two_input_state_feedback_plant()),
}

# The cases whose Newton rows are formed on each block's own coordinates;
# every other case forms dense rows.
LOCAL_ROW_CASES = {"scop-scalar-h16", "scop-scalar-h32", "scop-vector3-h16",
                   "scop-seed41-h5"}

EPS = np.finfo(float).eps


def _direction_agrees(h, g):
    """The library's direction against the two-solve and the one-inverse
    references on one Newton system: all three solve it to a backward error
    of 1e-12, and the library's agrees with each within 1e-12 relative, or
    cond(h) * eps where h is that ill-conditioned."""
    step = _newton_direction(h, g)
    ref = oracles.newton_direction_two_solves(h, g)
    one_inverse = oracles.newton_direction_one_inverse(h, g)
    tol = max(1e-12, np.linalg.cond(h) * EPS)
    for s in (step, ref, one_inverse):
        assert (np.linalg.norm(h @ s + g)
                <= 1e-12 * np.linalg.norm(h) * np.linalg.norm(s))
    assert _rel(step, ref) <= tol
    assert _rel(step, one_inverse) <= tol
    return ref


def _assert_same_evaluations(program, ref, v, t):
    """merit, gradient, Hessian, gap, feasible and min_slacks of the padded
    stack against the per-size program at (v, t).

    Agreement is 1e-12 relative, or kappa * eps if larger, kappa the largest
    condition number of a block at v: the two stacks round `basis @ v` in
    different BLAS row blocks, and near an active LMI one ulp of a block is
    amplified by kappa in its inverse.  The gradient is compared on the scale of its
    terms, sqrt(sum_b w_b d_b * tr H) by Cauchy-Schwarz, since it cancels
    to near zero at a centred point."""
    blocks = [b for _, b in program.objective] + program.constraints
    kappa = max(np.linalg.cond(sym(b.value(v))) for b in blocks)
    tol = max(1e-12, kappa * EPS)
    assert program.feasible(v) and ref.feasible(v)
    f, f0 = program.merit(v, t), ref.merit(v, t)
    assert abs(f - f0) <= tol * (1.0 + abs(f0))
    g, h = program.grad_hess(v, t)
    g0, h0 = ref.grad_hess(v, t)
    weight = (t * sum(w * b.dim for w, b in program.objective)
              + sum(b.dim for b in program.constraints))
    assert (np.linalg.norm(g - g0)
            <= tol * np.sqrt(weight * np.trace(h0)))
    assert _rel(h, h0) <= tol
    assert np.array_equal(h, h.T)
    step = _direction_agrees(h0, g0)
    for scale in (1.0, 0.1):
        gap, gap0 = (program.newton_line(scale * step).gap(),
                     ref.newton_line(scale * step).gap())
        if gap0 == np.inf:
            assert gap == np.inf
        else:
            assert abs(gap - gap0) <= tol * abs(gap0)
    # Weyl: an eigenvalue moves by at most the rounding of its block's terms
    for s, s0, b in zip(program.min_slacks(v), ref.min_slacks(v),
                        program.constraints):
        terms = np.linalg.norm(b.const) + np.abs(v) @ np.linalg.norm(
            b.dense_basis(), axis=(1, 2))
        assert abs(s - s0) <= 1e-12 * terms


def _exit_point(program, v, direction):
    """Twice the step along `direction` at which the first constraint block
    leaves the PD cone; None if none leaves."""
    rate = max(np.linalg.eigvals(np.linalg.solve(
        sym(b.value(v)), -np.tensordot(direction, b.dense_basis(),
                                       axes=(0, 0)))).real.max()
        for b in program.constraints)
    return v + (2.0 / rate) * direction if rate > 0 else None


class TestAgainstPerSizeProgram:
    """The single padded stack against the program it replaced, which kept
    one stack and one factorization per block size, on every program the
    library builds, with dense Newton rows and with local ones."""

    @pytest.mark.parametrize("case", list(REFERENCE_CASES))
    def test_evaluations_match_at_the_start_and_the_solution(
            self, request, monkeypatch, case):
        program, v0 = REFERENCE_CASES[case](request, monkeypatch)
        assert (program._local is not None) == (case in LOCAL_ROW_CASES)
        ref = oracles.BarrierProgramBySize(program.objective,
                                           program.constraints)
        v, info = solve_barrier(program, v0, TOL)
        assert info.duality_gap <= TOL
        _assert_same_evaluations(program, ref, v0, T_START)
        _assert_same_evaluations(program, ref, v, info.t_final)

        # outside the domain both give +inf and call the point infeasible
        g, h = ref.grad_hess(v0, T_START)
        step = _newton_direction(h, g)
        exits = [_exit_point(program, v0, d) for d in (step, -step)]
        assert any(out is not None for out in exits)
        for out in filter(lambda out: out is not None, exits):
            assert not program.feasible(out) and not ref.feasible(out)
            assert program.merit(out, T_START) == np.inf
            assert ref.merit(out, T_START) == np.inf
        program.grad_hess(v0, T_START)
        assert program.newton_line(1e6 * step).gap() == np.inf
        assert ref.newton_line(1e6 * step).gap() == np.inf


class TestLocalRows:
    @pytest.mark.parametrize("case", sorted(LOCAL_ROW_CASES))
    def test_rows_invert_only_the_matrix_blocks_factors(
            self, request, monkeypatch, case):
        # a 1x1 block's inverse factor is 1/l; the rows are those of one
        # inverse of every factor, bit for bit, at the start and the solution
        program, v0 = REFERENCE_CASES[case](request, monkeypatch)
        local = program._local
        v, _ = solve_barrier(program, v0, TOL)
        inv, inverted = la.inv, []
        for point in (v0, v):
            factors = program._factors(point)
            full = inv(factors)
            monkeypatch.setattr(la, "inv", lambda a: (
                inverted.append(a.shape[0]) or inv(a)))
            inv_sq, y_loc = local.rows(factors)
            monkeypatch.undo()
            assert np.array_equal(inv_sq, full[:local.n_one, 0, 0] ** 2)
            assert np.array_equal(y_loc, _y_rows(full[local.n_one:],
                                                 local.basis))
        assert 0 < local.n_one < len(factors)
        assert inverted == [len(factors) - local.n_one] * 2


def _gap_bound(program, v, t, step):
    """(nu - tr E_con)/t for a step at (v, t) from explicit solves, and the
    scale of the gap's terms: (nu + |tr E_con|)/t + sum_o w_o (d_o +
    |tr E_o|)."""
    def trace_e(b):
        ds = np.tensordot(step, b.dense_basis(), axes=(0, 0))
        return float(np.trace(np.linalg.solve(sym(b.value(v)), ds)))

    tr_con = sum(map(trace_e, program.constraints))
    scale = ((program.nu + abs(tr_con)) / t
             + sum(w * (b.dim + abs(trace_e(b))) for w, b in program.objective))
    return (program.nu - tr_con) / t, scale


class TestGapSkip:
    """solve_barrier forms every step's gap from its eigenvalues and
    re-weights the kept Newton rows at a round change; neither moves an
    iterate from the loop that factors I - E and forms every row afresh."""

    @pytest.mark.parametrize("case", list(REFERENCE_CASES))
    def test_solve_follows_the_every_gap_loop(self, request, monkeypatch,
                                              case):
        program, v0 = REFERENCE_CASES[case](request, monkeypatch)
        _assert_follows_every_gap_loop(program, v0, TOL)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1), v_scale=st.floats(0.0, 0.2),
           log_t=st.floats(0.31, 8.0), log_step=st.floats(-3.0, 1.5))
    def test_a_finite_gap_is_at_least_its_bound(self, seed, v_scale, log_t,
                                                log_step):
        # random steps, most of them far from a Newton step and many not
        # dual feasible (gap +inf)
        rng = np.random.default_rng(seed)
        program = _mixed_program(rng)
        v, t = v_scale * rng.standard_normal(4), 10.0 ** log_t
        assume(program.merit(v, t) < np.inf)
        program.grad_hess(v, t)
        step = 10.0 ** log_step * rng.standard_normal(4)
        full = program.newton_line(step).gap()
        bound, scale = _gap_bound(program, v, t, step)
        if full < np.inf:
            assert full >= bound - 1e-12 * scale

    def test_a_stop_returns_the_best_computed_gap(self, request, monkeypatch,
                                                  caplog):
        program, v0 = REFERENCE_CASES["ub-vector3"](request, monkeypatch)
        _, full = solve_barrier(program, v0, TOL)
        budget = full.iterations // 2
        computed = []
        gap = NewtonLine.gap

        def recorded(self):
            computed.append(gap(self))
            return computed[-1]

        monkeypatch.setattr(NewtonLine, "gap", recorded)
        with caplog.at_level("WARNING", logger="lqgcap.barrier"):
            v, info = solve_barrier(program, v0, TOL, max_iter=budget)
        monkeypatch.undo()
        assert "stopping early" in caplog.text
        assert f"Newton budget {budget} exhausted" in caplog.text
        assert info.iterations == budget + 1
        assert TOL < info.duality_gap < np.inf
        # the smallest of every step's gap, centred or not
        assert info.duality_gap == min(computed)
        # the returned gap is the returned iterate's own
        g, h = program.grad_hess(v, info.t_final)
        assert (program.newton_line(_newton_direction(h, g)).gap()
                == info.duality_gap)


class TestNewtonLine:
    """The merit and the gap along a Newton step in closed form from its
    blocks' eigenvalues, and the step length the line search takes, on dense
    and local Newton rows."""

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1), local=st.booleans(),
           v_scale=st.floats(0.0, 0.2), log_t=st.floats(0.61, 8.0),
           log_scale=st.floats(-2.0, 1.0), frac=st.floats(0.0, 0.95))
    def test_the_line_matches_the_program(self, seed, local, v_scale, log_t,
                                          log_scale, frac):
        rng = np.random.default_rng(seed)
        program = _mixed_program(rng, local=local)
        assert (program._local is not None) == local
        # t >= 4 keeps t*w >= 1 for the weight-1/4 block, as solve_barrier
        v, t = v_scale * rng.standard_normal(4), 10.0 ** log_t
        f0 = program.merit(v, t)
        assume(f0 < np.inf)
        g, h = program.grad_hess(v, t)
        step = _newton_direction(h, g)
        lam = math.sqrt(max(float(-g @ step), 0.0))
        line = program.newton_line(step)
        neg = line.mu[line.mu < 0]
        alpha_max = float(np.min(-1.0 / neg)) if neg.size else np.inf

        # the closed-form merit change at a point inside the domain
        alpha = frac * min(alpha_max, 10.0)
        f = program.merit(v + alpha * step, t)
        assert abs(line.merit(alpha) - (f - f0)) <= 1e-12 * (abs(f0) + abs(f))

        # the eigenvalue gap is the Cholesky gap, +inf on the same steps, at
        # steps scaled in and out of dual feasibility
        scaled = 10.0 ** log_scale * step
        scaled_line = program.newton_line(scaled)
        assume(abs(scaled_line.mu.max() - 1.0) > 1e-9)
        gap, ref = scaled_line.gap(), oracles.cholesky_gap(program, scaled)
        if ref == np.inf:
            assert gap == np.inf
        else:
            _, scale = _gap_bound(program, v, t, scaled)
            logs = scaled_line.w_obj @ np.abs(np.log1p(-scaled_line.mu))
            assert abs(gap - ref) <= 1e-12 * (scale + logs)

        # the accepted length lies in the domain, and its merit is no higher
        # than the damped step's
        accepted, damped = line.search(lam), 1.0 / (1.0 + lam)
        assert 0.0 < accepted < alpha_max
        assert line.merit(accepted) <= line.merit(damped)
        f_accepted = program.merit(v + accepted * step, t)
        f_damped = program.merit(v + damped * step, t)
        assert f_accepted <= f_damped + 1e-12 * abs(f0)

    @pytest.mark.parametrize("case", list(REFERENCE_CASES))
    def test_no_more_newton_systems_than_the_damped_step(
            self, request, monkeypatch, case):
        program, v0 = REFERENCE_CASES[case](request, monkeypatch)
        systems = []
        grad_hess = BarrierProgram.grad_hess

        def counted(self, *args):
            systems[-1] += 1
            return grad_hess(self, *args)

        monkeypatch.setattr(BarrierProgram, "grad_hess", counted)
        results = []
        for solve in (solve_barrier, oracles.solve_barrier_damped):
            systems.append(0)
            results.append(solve(program, v0, TOL))
        monkeypatch.undo()
        assert systems[0] <= systems[1]

        def objective(v):
            return sum(-w * slogdet_pd(sym(b.value(v)))
                       for w, b in program.objective)

        (v, info), (v_ref, ref) = results
        assert info.duality_gap <= TOL and ref.duality_gap <= TOL
        # both values lie within their gap above the optimum
        assert abs(objective(v) - objective(v_ref)) <= TOL


class TestMultipliers:
    """BarrierProgram.multipliers is a Newton step's dual point
    Z_c = (B_c^-1 - B_c^-1 dB_c B_c^-1)/t for each constraint block, in the
    program's constraint order, whatever the blocks' sizes, pads and rows,
    and solve_barrier returns the one of its returned iterate's step."""

    CASES = ["mixed", "mixed-local", "ub-s1", "ub-vector3",
             "scop-scalar-h16", "scop-vector3-h2"]

    @staticmethod
    def _case(request, monkeypatch, case):
        if case.startswith("mixed"):
            return (_mixed_program(np.random.default_rng(3),
                                   local=case.endswith("local")),
                    np.zeros(4))
        return REFERENCE_CASES[case](request, monkeypatch)

    @staticmethod
    def _line(program, v, t):
        g, h = program.grad_hess(v, t)
        step = _newton_direction(h, g)
        return program.newton_line(step), step

    @pytest.mark.parametrize("case", CASES)
    def test_the_dual_point_of_a_step(self, request, monkeypatch, case):
        """At the start, whose blocks are well inside the cone: at the
        optimum the explicit form cancels B^-1's large entries down to Z."""
        program, v = self._case(request, monkeypatch, case)
        t = 10.0
        program.merit(v, t)
        line, step = self._line(program, v, t)
        got = program.multipliers(line)
        assert len(got) == len(program.constraints)
        for z, b in zip(got, program.constraints):
            inv = np.linalg.inv(sym(b.value(v)))
            ds = sym(np.tensordot(step, b.dense_basis(), axes=(0, 0)))
            assert z.shape == (b.dim, b.dim)
            assert _rel(z, (inv - inv @ ds @ inv) / t) <= 1e-10

    @pytest.mark.parametrize("case", CASES)
    def test_the_solve_returns_its_iterates_dual_point(self, request,
                                                       monkeypatch, case):
        program, v0 = self._case(request, monkeypatch, case)
        v, info = solve_barrier(program, v0, TOL)
        line, _ = self._line(program, v, info.t_final)
        assert line.gap() == info.duality_gap
        for z, want in zip(info.multipliers, program.multipliers(line),
                           strict=True):
            assert np.array_equal(z, want)
            assert np.linalg.eigvalsh(z)[0] >= -1e-12 * np.linalg.norm(z)


class TestNewtonDirection:
    def _count_factorizations(self, monkeypatch):
        """Cholesky calls of the library (la) and of the oracles (np.linalg)."""
        calls = []
        for owner in (la, np.linalg):
            monkeypatch.setattr(owner, "cholesky", lambda a, _f=owner.cholesky:
                                calls.append(a.shape) or _f(a))
        return calls

    def test_ridge_branch_matches_the_reference(self, monkeypatch):
        # singular PSD: the third pivot is exactly 0, so the first
        # factorization fails and a ridge of 1e-14 * mean diagonal is added
        h = np.array([[4.0, 2.0, 0.0], [2.0, 5.0, 0.0], [0.0, 0.0, 0.0]])
        g = np.array([1.0, -2.0, 0.0])
        calls = self._count_factorizations(monkeypatch)
        step = _newton_direction(h, g)
        assert len(calls) == 2
        ref = oracles.newton_direction_two_solves(h, g)
        assert len(calls) == 4
        assert _rel(step, ref) <= 1e-12
        assert _rel(step, oracles.newton_direction_one_inverse(h, g)) <= 1e-12
        ridge = 1e-14 * np.trace(h) / 3
        assert _rel(step, -np.linalg.solve(h + ridge * np.eye(3), g)) <= 1e-12

    def test_least_squares_branch_matches_the_reference(self, monkeypatch):
        # indefinite: every ridge up to 1e-4 of the mean diagonal fails
        h = np.array([[1.0, 2.0], [2.0, 1.0]])
        g = np.array([1.0, 3.0])
        calls = self._count_factorizations(monkeypatch)
        step = _newton_direction(h, g)
        assert len(calls) == 12
        assert _rel(step, oracles.newton_direction_two_solves(h, g)) <= 1e-12
        assert _rel(step, oracles.newton_direction_one_inverse(h, g)) <= 1e-12
        assert _rel(step, -np.linalg.solve(h, g)) <= 1e-12


class TestKernelCallCount:
    """LAPACK kernel calls per Newton system, the library's through
    lqgcap.linalg and the oracles' through np.linalg: one factorization in
    the merit of the step, one inverse for the Newton rows except at a round
    change, a factorization that tests h and a solve for the direction, and
    one eigvalsh of the step's E for the line search and the gap, whatever
    the number of block sizes and whether the rows are dense or local."""

    FACTORIZATIONS = ("cholesky", "inv", "solve")

    def _calls(self, monkeypatch, program, v0, names):
        """(kernel calls to `names`, Newton systems) of one solve."""
        counts = {"linalg": 0, "systems": 0}
        for owner in (la, np.linalg):
            for name in names:
                def counted(*args, _f=getattr(owner, name)):
                    counts["linalg"] += 1
                    return _f(*args)
                monkeypatch.setattr(owner, name, counted)
        grad_hess = type(program).grad_hess

        def counted_grad_hess(self, *args):
            counts["systems"] += 1
            return grad_hess(self, *args)

        monkeypatch.setattr(type(program), "grad_hess", counted_grad_hess)
        _, info = solve_barrier(program, v0, TOL)
        monkeypatch.undo()
        assert info.duality_gap <= TOL
        assert counts["systems"] > info.iterations > 0
        assert counts["linalg"] > 0
        return counts["linalg"], counts["systems"]

    def _calls_per_system(self, monkeypatch, program, v0,
                          names=FACTORIZATIONS):
        calls, systems = self._calls(monkeypatch, program, v0, names)
        return calls / systems

    @pytest.mark.parametrize("case", ["ub-vector3", "mixed",
                                      "scop-scalar-h32"])
    def test_at_most_four_calls_per_newton_system(self, request, monkeypatch,
                                                  case):
        program, v0 = REFERENCE_CASES[case](request, monkeypatch)
        assert self._calls_per_system(monkeypatch, program, v0) <= 4

    # cholesky + inv + solve over one solve with the damped step, which
    # factored I - E for the gap instead of taking E's eigenvalues
    DAMPED_CALLS = {"ub-vector3": 380, "mixed": 235, "scop-scalar-h32": 933}

    @pytest.mark.parametrize("case", list(DAMPED_CALLS))
    def test_fewer_kernel_calls_per_solve_than_the_damped_step(
            self, request, monkeypatch, case):
        program, v0 = REFERENCE_CASES[case](request, monkeypatch)
        calls, _ = self._calls(monkeypatch, program, v0,
                               self.FACTORIZATIONS + ("eigvalsh",))
        assert calls < self.DAMPED_CALLS[case]

    def test_the_per_size_program_exceeds_the_bound(self, monkeypatch):
        # three block sizes: a factorization, an inverse and an eigvalsh per
        # size, so the guard catches a per-size kernel
        program, v0 = REFERENCE_CASES["mixed"](None, monkeypatch)
        ref = oracles.BarrierProgramBySize(program.objective,
                                           program.constraints)
        assert self._calls_per_system(
            monkeypatch, ref, v0, self.FACTORIZATIONS + ("eigvalsh",)) > 9


class TestLinalgHelpers:
    def test_psd_sqrt(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((3, 3))
        a = b @ b.T
        r = psd_sqrt(a)
        assert np.allclose(r @ r.T, a, atol=1e-10)

    def test_solve_pd_matches_inverse(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((4, 4))
        a = b @ b.T + 4 * np.eye(4)
        rhs = rng.standard_normal((4, 2))
        assert np.allclose(solve_pd(a, rhs), np.linalg.inv(a) @ rhs)

    def test_slogdet_requires_pd(self):
        with pytest.raises(NotPositiveDefinite):
            slogdet_pd(np.array([[-1.0]]))
