"""Cross-path checks of the per-step decision map: every program block,
residual and budget built from decision_map and trace_cost must agree with
them at the same point, on random plants and on both fixtures, and every
program's stacked arrays must equal the coordinate-by-coordinate assembly,
restricted to its face for the horizon program.  Under state feedback the
single-letter program's face has no columns, and its rate must meet the
reduced program's."""

import numpy as np
import pytest

from lqgcap import (BudgetedProblem, ProblemConstants, SystemModel,
                    UBDecision, solve_ub)
from lqgcap import upper_bound
from lqgcap.barrier import SymPacker
from lqgcap.constants import decision_map, trace_cost
from lqgcap.linalg import slogdet_pd
from lqgcap.lower_bound import evaluate_policy, extract_policy
from lqgcap.scop import SCOPProgram
from lqgcap.upper_bound import UBProgram

import oracles
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


def _random_decision(consts, seed, stack=()):
    rng = np.random.default_rng(seed)
    m, k = consts.model.m, consts.model.k
    a = rng.standard_normal(stack + (m, m))
    s = rng.standard_normal(stack + (k, k))
    return UBDecision(Pi=a @ a.swapaxes(-1, -2),
                      Gamma=rng.standard_normal(stack + (m, k)),
                      SigmaHat=s @ s.swapaxes(-1, -2))


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
    # a stack of decisions maps slice by slice, bit for bit
    stack = _random_decision(c, 3, stack=(2, 3))
    maps = decision_map(c.model, stack.Pi, stack.Gamma, stack.SigmaHat)
    lmis = stack.first_lmi()
    for i in np.ndindex(2, 3):
        dec = UBDecision(stack.Pi[i], stack.Gamma[i], stack.SigmaHat[i])
        for a, b in zip(maps, decision_map(c.model, dec.Pi, dec.Gamma,
                                           dec.SigmaHat)):
            assert np.array_equal(a[i], b)
        assert np.array_equal(lmis[i], dec.first_lmi())


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
    stack = _random_decision(c, 3, stack=(2, 3))
    costs = trace_cost(c.K_LQR, c.Psi_LQR, stack.Pi, stack.Gamma,
                       stack.SigmaHat)
    assert costs.shape == (2, 3)
    for i in np.ndindex(2, 3):
        assert costs[i] == trace_cost(c.K_LQR, c.Psi_LQR, stack.Pi[i],
                                      stack.Gamma[i], stack.SigmaHat[i])


@pytest.fixture(scope="module", params=["s1", "s2", "seed41"])
def solved(request):
    c = _consts(request, request.param)
    p = 1.5 * c.minimal_cost + 0.1
    ub = solve_ub(BudgetedProblem(c.model, c.weights, p), consts=c)
    return c, p, ub


def test_policy_budget_is_cost_of_induced_triple(solved):
    c, _, ub = solved
    lb = evaluate_policy(c.estimator, c.weights, c.control,
                         extract_policy(ub, c.control))
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
    assert ub.riccati_residual == pytest.approx(
        float(np.linalg.norm(schur)), abs=1e-12 * scale)


def _assert_same_stacks(program, reference):
    for name in ("_const", "_basis", "_w_obj", "_w_con"):
        a, b = getattr(program, name), getattr(reference, name)
        assert np.array_equal(a, b), name
        # the memory layout picks the BLAS kernels, hence the Newton path
        assert a.strides == b.strides, name


@pytest.mark.parametrize("name", ["s1", "s2", "seed11", "seed41", "seed59",
                                  "seed83"])
def test_programs_equal_the_coordinate_assembly(request, name):
    """The batched per-step map at the unit vectors builds the same barrier
    arrays, bit for bit, as the assembly one coordinate at a time."""
    c = _consts(request, name)
    p = {"s1": 2.0, "s2": 120.0}.get(name, 1.3 * c.minimal_cost + 0.1)
    _assert_same_stacks(UBProgram(c, p).barrier_program(),
                        oracles.ub_program_by_coordinates(c, p))


def _blkdiag(a, b):
    return np.block([[a, np.zeros((a.shape[0], b.shape[1]))],
                     [np.zeros((b.shape[0], a.shape[1])), b]])


@pytest.mark.parametrize("name", ["s1", "s2", "seed8", "seed11", "seed41",
                                  "seed59", "seed83"])
def test_scop_program_is_the_coordinate_assembly_on_its_face(request, name):
    """Each block of the horizon program is the unrelaxed coordinate
    assembly's block at the lifted point, under the congruence that
    restricts it to the face: diag(I, V_{i-1}) for a covariance LMI (the
    assembly's first is Pi_1 alone), V_n for the terminal block, and
    T_i = [[V_i, (I - V_i V_i^T) K_p], [0, I]] for a chained LMI."""
    c = _consts(request, name)
    p = {"s1": 2.0, "s2": 120.0}.get(name, 1.3 * c.minimal_cost + 0.1)
    m, p_out = c.model.m, c.model.p
    for h in (1, 2, 5, 16):
        prog = SCOPProgram(c, p, h)
        ref = oracles.RelaxedSCOPProgram(c, p, h, relaxation=0.0)
        # column j: the assembly's coordinates of the face's unit vector j
        lift = np.stack([ref.pack(*prog.unpack(e))
                         for e in np.eye(prog.dim)], axis=1)
        V = prog.bases
        congruences = (
            [np.eye(m)] + [_blkdiag(np.eye(m), b) for b in V[1:-1]] + [V[-1]]
            + [np.block([[b, c.K_p - b @ (b.T @ c.K_p)],
                         [np.zeros((p_out, b.shape[1])), np.eye(p_out)]])
               for b in V[1:]]
            + [np.eye(1)])
        got, want = prog.barrier_program(), ref.program
        pairs = ([(a, b, np.eye(p_out)) for (_, a), (_, b)
                  in zip(got.objective, want.objective, strict=True)]
                 + list(zip(got.constraints, want.constraints, congruences,
                            strict=True)))
        for a, b, t in pairs:
            const = t.T @ b.const @ t
            basis = t.T @ np.tensordot(lift.T, b.basis, axes=1) @ t
            scale = np.linalg.norm(b.const) + np.linalg.norm(
                np.tensordot(lift.T, b.basis, axes=1))
            assert np.linalg.norm(a.const - const) <= 1e-12 * scale
            assert (np.linalg.norm(a.dense_basis() - basis)
                    <= 1e-12 * scale)


def _two_input_state_feedback_plant():
    """Random plant 41 (k = m = p = 2) with G set to K_p J; the filter does
    not depend on G, so the observer reconstructs the controller state."""
    model, weights = random_system(41)
    K_p = ProblemConstants.compute(model, weights).K_p
    return SystemModel(F=model.F, G=K_p @ model.J, H=model.H, J=model.J,
                       W=model.W, V=model.V, L=model.L), weights


@pytest.mark.parametrize("name", ["scalar", "two-input"])
def test_state_feedback_face_program_meets_the_coordinate_assembly(
        request, monkeypatch, name):
    """Under state feedback the program's face has no columns; its one
    barrier solve meets the reduced program, assembled one coordinate at a
    time, within the two certified gaps."""
    if name == "scalar":
        model, weights = (request.getfixturevalue("state_feedback_model"),
                          request.getfixturevalue("w1"))
    else:
        model, weights = _two_input_state_feedback_plant()
    c = ProblemConstants.compute(model, weights)
    p = 1.3 * c.minimal_cost + 0.1
    solve, programs = upper_bound.solve_barrier, []

    def record(program, *args):
        programs.append(program)
        return solve(program, *args)

    monkeypatch.setattr(upper_bound, "solve_barrier", record)
    sol = solve_ub(BudgetedProblem(model, weights, p), consts=c)
    monkeypatch.undo()
    assert len(programs) == 1
    assert not sol.decision.Gamma.any() and not sol.decision.SigmaHat.any()
    reduced = oracles.state_feedback_program_by_coordinates(c, p)
    m = model.m
    eps = (p - c.minimal_cost) / (2.0 * float(np.trace(c.Psi_LQR)))
    v, info = solve(reduced, SymPacker(m).pack(eps * np.eye(m)), 5e-11)
    rate = 0.5 * (slogdet_pd(reduced.objective[0][1].value(v))
                  - slogdet_pd(c.Psi))
    assert abs(sol.rate - rate) <= sol.duality_gap + info.duality_gap
