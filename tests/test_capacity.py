"""solve_capacity, the one composition of the chain (constants, upper bound,
policy extraction, its evaluation, certificate): it is the only place in
src/ that composes it, it warns when the lower bound spends over the
budget, and the benchmark's own copy of the chain (bench/workloads, read
without changing bench/) gives the same numbers bit for bit."""

import ast
import logging
import pathlib
import sys

import pytest

from lqgcap import BudgetedProblem, ProblemConstants, solve_capacity
from lqgcap.config import load_config

from test_random_systems import random_system

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lqgcap"
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402


def _calls(name: str) -> list[tuple[str, str]]:
    """(module, innermost enclosing function) of every call to `name`,
    called bare or as an attribute, in src/lqgcap."""
    found = []

    def visit(node, func, module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            f = node.func
            called = f.id if isinstance(f, ast.Name) else getattr(f, "attr",
                                                                   None)
            if called == name:
                found.append((module, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func, module)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path.stem)
    return found


class TestOneComposition:
    @pytest.mark.parametrize("name", ["extract_policy", "evaluate_policy",
                                      "tightness_certificate"])
    def test_lower_bound_steps_run_only_in_solve_capacity(self, name):
        assert _calls(name) == [("lower_bound", "solve_capacity")]

    def test_solve_ub_runs_only_in_solve_capacity_and_cmd_ub(self):
        assert sorted(_calls("solve_ub")) == [("cli", "cmd_ub"),
                                              ("lower_bound",
                                               "solve_capacity")]

    def test_both_programs_restrict_to_their_faces_one_way(self):
        # the step map runs only inside the face restriction, and that only
        # where the two programs and the averaging argument build their blocks
        assert _calls("step_blocks") == [("upper_bound", "face_blocks")]
        assert sorted(_calls("face_blocks")) == [
            ("scop", "_build"), ("scop", "average_variables"),
            ("upper_bound", "_build")]

    def test_no_second_entry_point_is_defined(self):
        defined = {node.name for path in SRC.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert "solve_capacity" in defined
        assert not defined & {"solve_scalar", "lower_bound_from_ub"}


class TestOverBudgetWarning:
    @pytest.mark.parametrize("seed, mult", [(132, 1.1), (5, 1.1), (66, 1.3)])
    def test_an_overspending_lower_bound_warns(self, caplog, seed, mult):
        model, weights = random_system(seed)
        c = ProblemConstants.compute(model, weights)
        budget = mult * c.minimal_cost + 0.1
        with caplog.at_level(logging.WARNING, logger="lqgcap"):
            rep = solve_capacity(BudgetedProblem(model, weights, budget),
                                 consts=c)
        spent = rep.lb.achieved_budget
        assert spent > budget
        warned = [r for r in caplog.records if r.levelno == logging.WARNING
                  and "over budget" in r.getMessage()]
        assert len(warned) == 1
        msg = warned[0].getMessage()
        for value in (f"{spent:.12g}", f"{budget:.12g}",
                      f"{spent - budget:.3e}"):
            assert value in msg

    @pytest.mark.parametrize("name", ["scalar", "vector3"])
    def test_the_bundled_grids_log_no_warning(self, caplog, name):
        cfg = load_config(str(ROOT / "configs" / f"{name}.json"))
        c = ProblemConstants.compute(cfg.model, cfg.weights)
        with caplog.at_level(logging.WARNING, logger="lqgcap"):
            for p in cfg.budget_sweep.grid():
                solve_capacity(BudgetedProblem(cfg.model, cfg.weights,
                                               float(p)), consts=c)
        assert not [r for r in caplog.records
                    if r.levelno >= logging.WARNING]


@pytest.mark.parametrize("name", ["scalar", "vector3"])
def test_capacity_exact_only_on_the_scalar_grid(name):
    """Every point of both bundled grids certifies; the bound is the exact
    capacity on the scalar plant only."""
    cfg = load_config(str(ROOT / "configs" / f"{name}.json"))
    c = ProblemConstants.compute(cfg.model, cfg.weights)
    reports = [solve_capacity(BudgetedProblem(cfg.model, cfg.weights,
                                              float(p)), consts=c)
               for p in cfg.budget_sweep.grid()]
    assert all(rep.certificate.tight for rep in reports)
    assert [rep.capacity_exact for rep in reports] == [name == "scalar"] * len(
        reports)


SWEEP = {item.id: item for item in workloads.make_items(ROOT, "sweep", 0)}


@pytest.mark.parametrize("item_id", ["sweep/scalar/p=1.31", "sweep/scalar/p=4",
                                     "sweep/vector3/p=81",
                                     "sweep/vector3/p=240"])
def test_the_benchmark_chain_is_the_librarys(item_id):
    item = SWEEP[item_id]
    out = workloads.run_item(item)
    rep = solve_capacity(BudgetedProblem(item.model, item.weights,
                                         item.budget))
    want = {"ub_rate": rep.ub.rate, "lb_rate": rep.lb.rate,
            "achieved_budget": rep.lb.achieved_budget,
            "newton": rep.ub.iterations,
            "policy_iters": rep.lb.riccati.iterations,
            "certified": rep.certificate.tight}
    assert {key: out[key] for key in want} == want
