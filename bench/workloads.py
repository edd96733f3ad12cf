"""Workload inputs, the chain each item runs, and the per-item correctness gate.

Every item calls the library through module attributes (``upper_bound.solve_ub``
and so on), so the traced run can rebind those names and time each layer from
outside.  An item's chain is the one the matching CLI command runs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lqgcap import lower_bound, scop, simulator, upper_bound
from lqgcap.config import load_config
from lqgcap.constants import ProblemConstants
from lqgcap.errors import Infeasible
from lqgcap.model import BudgetedProblem, CostWeights, SystemModel
from lqgcap.simulator import SimConfig

WORKLOADS = ("sweep", "scop-ladder", "simulate")

SCOP_LADDER = (("scalar", 2.0, (1, 2, 4, 8, 16, 32)), ("vector3", 120.0, (1, 2)))
# At p=2 the scalar horizon-1 cost floor is 2.42, above the budget.
SCOP_INFEASIBLE = {("scalar", 1)}
SIM_POINTS = (("scalar", 2.0), ("vector3", 120.0))
SIM_SEEDS_PER_POINT = 4

# Gate tolerances, the ones tier-1 asserts.
UB_FLOOR = -1e-9            # ub_rate >= UB_FLOOR (nats)
LB_OVER_UB = 1e-8           # lb_rate <= ub_rate + LB_OVER_UB (nats)
BUDGET_REL = 1e-6           # achieved <= p + BUDGET_REL * max(1, p)


@dataclass(frozen=True)
class Item:
    id: str
    kind: str                       # "chain" | "scop" | "sim"
    group: str                      # config name
    model: SystemModel
    weights: CostWeights
    budget: float
    horizon: int = 0
    expected: str = "ok"            # scop status
    sim: SimConfig | None = None


def _config(root: Path, name: str):
    return load_config(str(root / "configs" / f"{name}.json"))


def _sweep(root: Path) -> list[Item]:
    items = []
    for name in ("scalar", "vector3"):
        cfg = _config(root, name)
        items += [Item(f"sweep/{name}/p={b:.9g}", "chain", name, cfg.model,
                       cfg.weights, budget=float(b))
                  for b in cfg.budget_sweep.grid()]
    return items


def _scop_ladder(root: Path) -> list[Item]:
    items = []
    for name, p, horizons in SCOP_LADDER:
        cfg = _config(root, name)
        items += [Item(f"scop/{name}/p={p:g}/h={h}", "scop", name, cfg.model,
                       cfg.weights, budget=p, horizon=h,
                       expected=("Infeasible" if (name, h) in SCOP_INFEASIBLE
                                 else "ok"))
                  for h in horizons]
    return items


def _simulate(root: Path, rng: np.random.Generator, seed: int) -> list[Item]:
    items = []
    for name, p in SIM_POINTS:
        cfg = _config(root, name)
        base = cfg.sim
        for j in range(SIM_SEEDS_PER_POINT):
            sim_seed = base.seed + j if seed == 0 else int(rng.integers(1 << 31))
            sim = SimConfig(horizon=base.horizon, trajectories=base.trajectories,
                            seed=sim_seed, burn_in=base.burn_in)
            items.append(Item(f"sim/{name}/p={p:g}/seed={sim_seed}", "sim", name,
                              cfg.model, cfg.weights, budget=p, sim=sim))
    return items


def make_items(root: Path, workload: str, seed: int) -> list[Item]:
    """The workload's items for a seed; seed 0 is the bundled inputs in order.

    simulate draws fresh simulation seeds, which leave its work unchanged.
    The other workloads keep their inputs and only permute the run order:
    the barrier's count of rounds that hit MAX_INNER (400 Newton steps each)
    changes erratically under any perturbation of the inputs, so budgets
    jittered within their grid cells stall at 0 to 4 extra sweep points per
    seed.  Timings would compare stall counts, not code.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "simulate":
        return _simulate(root, rng, seed)
    items = _sweep(root) if workload == "sweep" else _scop_ladder(root)
    if seed:
        items = [items[i] for i in rng.permutation(len(items))]
    return items


def digest(items: list[Item]) -> str:
    """Hash of every input an item carries, to check set-up reproducibility."""
    h = hashlib.sha256()
    for it in items:
        h.update(repr((it.id, it.kind, it.budget, it.horizon,
                       it.expected, it.sim)).encode())
        for a in (it.model.F, it.model.G, it.model.H, it.model.J, it.model.W,
                  it.model.V, it.model.L, it.weights.Q, it.weights.R):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# -- the chains -------------------------------------------------------------

def _bounds(item: Item):
    """cli._budget_point's chain up to the lower bound: constants, UB, LB."""
    consts = ProblemConstants.compute(item.model, item.weights)
    prob = BudgetedProblem(item.model, item.weights, item.budget)
    ub = upper_bound.solve_ub(prob, upper_bound.SolverOptions(), consts)
    policy = lower_bound.extract_policy(ub, consts.control)
    lb = lower_bound.evaluate_policy(consts.estimator, item.weights,
                                     consts.control, policy)
    out = {"budget": item.budget, "ub_rate": ub.rate, "lb_rate": lb.rate,
           "achieved_budget": lb.achieved_budget, "newton": ub.iterations,
           "policy_iters": lb.riccati.iterations}
    return consts, ub, policy, lb, out


def _run_chain(item: Item) -> dict:
    consts, ub, policy, lb, out = _bounds(item)
    cert = lower_bound.tightness_certificate(ub, lb, consts.estimator)
    out["M_norm"] = float(np.linalg.norm(policy.M))
    out["certified"] = cert.tight
    return out


def _run_scop(item: Item) -> dict:
    """One row of the `scop` command, at the library's default tolerance."""
    consts = ProblemConstants.compute(item.model, item.weights)
    prob = BudgetedProblem(item.model, item.weights, item.budget)
    try:
        sol = scop.solve_scop(prob, item.horizon, consts=consts)
    except Infeasible:
        return {"budget": item.budget, "status": "Infeasible"}
    av = scop.average_variables(sol)
    return {"budget": item.budget, "status": "ok", "value": sol.value,
            "cost": sol.cost, "avg_slack": av.slack, "newton": sol.iterations}


def _run_sim(item: Item) -> dict:
    """The `simulate` command's chain."""
    _, _, policy, lb, out = _bounds(item)
    report = simulator.simulate(item.model, item.weights, policy, item.sim)
    verdict = simulator.compare_to_theory(report, lb)
    out.update(empirical_cost=report.empirical_cost,
               empirical_rate=report.empirical_rate,
               whiteness=report.innovation_whiteness, verdict_ok=verdict.ok)
    return out


RUNNERS = {"chain": _run_chain, "scop": _run_scop, "sim": _run_sim}


def run_item(item: Item) -> dict:
    return RUNNERS[item.kind](item)


# -- the gate -----------------------------------------------------------------

def _finite(out: dict, keys) -> list[str]:
    return [f"{k} not finite ({out[k]!r})" for k in keys
            if not math.isfinite(out[k])]


def check(item: Item, out: dict) -> list[str]:
    """Reasons the item's outputs fail the gate; empty when they pass."""
    if item.kind == "scop":
        if out["status"] != item.expected:
            return [f"status {out['status']} != expected {item.expected}"]
        if out["status"] != "ok":
            return []
        reasons = _finite(out, ("value", "cost", "avg_slack"))
        p = item.budget
        if not reasons and out["cost"] > p + BUDGET_REL * max(1.0, p):
            reasons.append(f"cost {out['cost']:.12g} > budget {p:.12g}")
        return reasons
    keys = ["ub_rate", "lb_rate", "achieved_budget"]
    if item.kind == "sim":
        keys += ["empirical_cost", "empirical_rate", "whiteness"]
    reasons = _finite(out, keys)
    if reasons:
        return reasons
    p = out["budget"]
    if out["ub_rate"] < UB_FLOOR:
        reasons.append(f"ub_rate {out['ub_rate']:.3e} < {UB_FLOOR:g}")
    if out["lb_rate"] > out["ub_rate"] + LB_OVER_UB:
        reasons.append(f"lb_rate - ub_rate = "
                       f"{out['lb_rate'] - out['ub_rate']:.3e} > {LB_OVER_UB:g}")
    if out["achieved_budget"] > p + BUDGET_REL * max(1.0, p):
        reasons.append(f"achieved_budget {out['achieved_budget']:.12g} > "
                       f"p + {BUDGET_REL:g}*max(1, p) at p={p:.12g}")
    return reasons


# Reference values: gated fields with (absolute, relative) tolerance.  The
# rest of a reference entry (Newton steps, verdicts) is recorded, not gated.
REFERENCE_FIELDS = {
    "budget": (1e-12, 1e-12),
    "ub_rate": (1e-7, 1e-6),
    "lb_rate": (1e-7, 1e-6),
    "achieved_budget": (1e-9, 1e-6),
    "value": (1e-6, 1e-5),
    "cost": (1e-9, 1e-6),
    "empirical_cost": (1e-9, 1e-6),
    "empirical_rate": (1e-7, 1e-6),
}


def compare_reference(ref: dict, out: dict) -> list[str]:
    reasons = []
    if ref.get("status", "ok") != out.get("status", "ok"):
        return [f"status {out.get('status')} != reference {ref.get('status')}"]
    for key, (atol, rtol) in REFERENCE_FIELDS.items():
        if key in ref:
            want, got = ref[key], out[key]
            if not abs(got - want) <= atol + rtol * abs(want):
                reasons.append(f"{key} {got!r} != reference {want!r}")
    return reasons
