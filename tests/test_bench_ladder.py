"""The benchmark's gate reads only a horizon solve's value and cost, so a
solve that stops uncertified passes it.  This solves every item of the
benchmark's `scop` ladder (bench/workloads.SCOP_LADDER, read without
changing bench/) at the library's default options and checks that each
certifies its duality gap without an early-stop warning.  It also runs each
item of every workload (bench/workloads.WORKLOADS) as the benchmark does and
checks it against the benchmark's gate and its committed reference values
(bench/reference.json), so a change that breaks them fails here first."""

import json
import logging
import pathlib
import sys

import numpy as np
import pytest

from lqgcap import BudgetedProblem, ProblemConstants, UBDecision
from lqgcap.config import load_config
from lqgcap.errors import Infeasible
from lqgcap.linalg import min_eig
from lqgcap.scop import DEFAULT_OPTIONS, average_variables, solve_scop
from lqgcap.upper_bound import UBProgram

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402
from workloads import SCOP_INFEASIBLE, SCOP_LADDER  # noqa: E402

LADDER = [(name, p, h) for name, p, horizons in SCOP_LADDER for h in horizons]


@pytest.mark.parametrize("name,budget,horizon", LADDER,
                         ids=[f"{n}-h{h}" for n, _, h in LADDER])
def test_ladder_item_certifies(caplog, name, budget, horizon):
    cfg = load_config(str(ROOT / "configs" / f"{name}.json"))
    consts = ProblemConstants.compute(cfg.model, cfg.weights)
    prob = BudgetedProblem(cfg.model, cfg.weights, budget)
    if (name, horizon) in SCOP_INFEASIBLE:
        with pytest.raises(Infeasible):
            solve_scop(prob, horizon, consts=consts)
        return
    with caplog.at_level(logging.WARNING, logger="lqgcap.barrier"):
        sol = solve_scop(prob, horizon, consts=consts)
    assert sol.duality_gap <= DEFAULT_OPTIONS.tol
    assert not [r for r in caplog.records if r.name == "lqgcap.barrier"]


REFERENCE = json.loads((ROOT / "bench" / "reference.json").read_text())
BENCH_ITEMS = [(workload, item) for workload in workloads.WORKLOADS
               for item in workloads.make_items(ROOT, workload, 0)]


@pytest.mark.parametrize("workload,item", BENCH_ITEMS,
                         ids=[item.id for _, item in BENCH_ITEMS])
def test_ladder_item_passes_the_gate_and_the_reference(workload, item):
    out = workloads.run_item(item)
    assert workloads.check(item, out) == []
    ref = REFERENCE[workload][item.id]
    assert workloads.compare_reference(ref, out) == []


@pytest.mark.parametrize("name,budget,horizon",
                         [i for i in LADDER if i[::2] not in SCOP_INFEASIBLE],
                         ids=str)
def test_averaged_slacks_match_the_single_letter_program(name, budget,
                                                         horizon):
    """average_variables evaluates the single-letter LMIs and cost at the
    averaged point from the face blocks alone; the single-letter program's
    own blocks at that point give the same values.  Where an LMI is
    singular there (vector3), its smallest eigenvalue is compared at the
    LMI's scale."""
    cfg = load_config(str(ROOT / "configs" / f"{name}.json"))
    consts = ProblemConstants.compute(cfg.model, cfg.weights)
    sol = solve_scop(BudgetedProblem(cfg.model, cfg.weights, budget), horizon,
                     consts=consts)
    av = average_variables(sol)
    prog = UBProgram(consts, budget)
    v = prog.pack(UBDecision(av.Pi, av.Gamma, av.SigmaHat))
    for got, block in ((av.lmi1_min_eig, prog.block_lmi1),
                       (av.lmi2_min_eig, prog.block_lmi2)):
        lmi = block.value(v)
        assert got == pytest.approx(min_eig(lmi), rel=1e-12,
                                    abs=1e-12 * np.linalg.norm(lmi))
    assert av.cost_value == pytest.approx(prog.cost(v), rel=1e-12)
