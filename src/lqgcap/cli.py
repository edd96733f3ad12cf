"""Command-line front end: config ingestion, dispatch, sweeps, CSV emission."""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import linalg as la
from .config import RunConfig, load_config, set_system_entry
from .constants import ProblemConstants
from .errors import ConfigError, Infeasible, LqgcapError
from .lower_bound import require_scalar_capacity, solve_capacity
from .model import BudgetedProblem, validate_model
from .riccati import control_regularity, filter_regularity
from .scop import average_variables, solve_scop
from .simulator import compare_to_theory, simulate, usable_cpus
from .upper_bound import SolverOptions, solve_ub

log = logging.getLogger("lqgcap.cli")

LN2 = math.log(2.0)
_COLUMNS = ["budget", "ub_rate", "lb_rate", "rate_gap", "riccati_residual",
            "M_norm", "certificate", "iterations"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def write_csv(rows: list[dict], path: str | None):
    """Write one or more homogeneous rows with 12-significant-digit numbers,
    under a header of the first row's keys.  With path None the CSV goes to
    stdout."""
    keys = list(rows[0].keys())
    if any(list(r.keys()) != keys for r in rows):
        raise ValueError("rows are not homogeneous")
    lines = [",".join(keys)]
    lines += [",".join(_fmt(r[k]) for k in keys) for r in rows]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _in_units(rate_nats: float, units: str) -> float:
    return rate_nats / LN2 if units == "bits" else rate_nats


def _budget_point(consts: ProblemConstants, budget: float,
                  solver: SolverOptions | None, units: str) -> dict:
    """Solve the full chain (UB, extraction, LB, certificate) at one budget
    of the model and weights that `consts` were computed for."""
    rep = solve_capacity(BudgetedProblem(consts.model, consts.weights, budget),
                         solver, consts)
    ub, lb, cert = rep.ub, rep.lb, rep.certificate
    return {
        "budget": budget,
        "ub_rate": _in_units(ub.rate, units),
        "lb_rate": _in_units(lb.rate, units),
        "rate_gap": _in_units(ub.rate - lb.rate, units),
        "riccati_residual": cert.riccati_residual,
        "M_norm": la.fro(lb.policy.M),
        "certificate": cert.verdict,
        "iterations": ub.iterations,
    }


def _sweep_worker(payload):
    consts, budget, solver, units = payload
    return _budget_point(consts, float(budget), solver, units)


def _param_worker(payload):
    model, weights, name, value, budget, solver, units = payload
    varied = set_system_entry(model, name, float(value))
    row = _budget_point(ProblemConstants.compute(varied, weights),
                        float(budget), solver, units)
    return {"param": name, "value": float(value), **row}


def _run_pool(worker, payloads, jobs: int):
    if jobs <= 1 or len(payloads) <= 1:
        return [worker(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, payloads))


def cmd_check(cfg: RunConfig, args) -> int:
    report = validate_model(cfg.model, cfg.weights)
    print(f"validation: {report}")
    if not report.ok:
        return 1
    try:
        consts = ProblemConstants.compute(cfg.model, cfg.weights)
    except Exception:
        # a solver that raised returned no checks: report them, then the error
        _print_regularity(filter_regularity(cfg.model)
                          + control_regularity(cfg.model, cfg.weights))
        raise
    ok = _print_regularity(consts.filter.regularity
                           + consts.control.regularity)
    print(f"minimal LQG cost J* = {consts.minimal_cost:.12g}")
    return 0 if ok else 1


def _print_regularity(checks) -> bool:
    """Print each (name, PBH result) pair; whether all passed."""
    for name, res in checks:
        print(f"regularity {name}: {'pass' if res.ok else 'FAIL'}")
    return all(res.ok for _, res in checks)


def _require_budget(cfg: RunConfig) -> float:
    if cfg.budget is None:
        raise ConfigError("budget", "this command needs a scalar budget")
    return cfg.budget


def cmd_ub(cfg: RunConfig, args) -> int:
    prob = BudgetedProblem(cfg.model, cfg.weights, _require_budget(cfg))
    sol = solve_ub(prob, cfg.solver)
    print(f"ub_rate_{cfg.units} = {_in_units(sol.rate, cfg.units):.12g}")
    print(f"cost = {sol.cost:.12g}")
    gap = _in_units(sol.duality_gap, cfg.units)
    print(f"duality_gap = {gap:.3g}")
    print(f"riccati_lmi_slack = {sol.riccati_lmi_slack:.3g}")
    print(f"iterations = {sol.iterations}")
    _print_multipliers(sol, cfg.units)
    if args.output:
        write_csv([{"budget": prob.budget,
                    "ub_rate": _in_units(sol.rate, cfg.units),
                    "cost": sol.cost, "duality_gap": gap,
                    "iterations": sol.iterations}], args.output)
    return 0


def _print_multipliers(sol, units: str, names=("budget_multiplier",)):
    """A UB solution's named multipliers, in rate units per constraint unit."""
    for name in names:
        z = getattr(sol, name)
        print(f"{name}_{units} = " + ("none" if z is None else np.array2string(
            np.asarray(_in_units(z, units)), separator=", ",
            formatter={"float": "{:.6g}".format}).replace("\n", "")))


def cmd_lb(cfg: RunConfig, args) -> int:
    row = _budget_point(ProblemConstants.compute(cfg.model, cfg.weights),
                        _require_budget(cfg), cfg.solver, cfg.units)
    for key in _COLUMNS:
        print(f"{key} = {_fmt(row[key])}")
    if args.output:
        write_csv([row], args.output)
    return 0


def cmd_capacity(cfg: RunConfig, args) -> int:
    consts = ProblemConstants.compute(cfg.model, cfg.weights)
    require_scalar_capacity(consts)
    prob = BudgetedProblem(cfg.model, cfg.weights, _require_budget(cfg))
    rep = solve_capacity(prob, cfg.solver, consts)
    sol, cert = rep.ub, rep.certificate
    print(f"capacity_{cfg.units} = {_in_units(sol.rate, cfg.units):.12g}")
    print(f"cost = {sol.cost:.12g}")
    _print_multipliers(sol, cfg.units, ("budget_multiplier",
                                        "riccati_multiplier",
                                        "covariance_multiplier"))
    print(f"certificate = {cert.verdict}"
          + (f" via {cert.route}" if cert.route else "")
          + (f" reasons={list(cert.reasons)}" if cert.reasons else ""))
    if args.output:
        write_csv([{"budget": prob.budget,
                    "capacity": _in_units(sol.rate, cfg.units),
                    "cost": sol.cost, "certificate": cert.verdict}],
                  args.output)
    return 0


def cmd_sweep(cfg: RunConfig, args) -> int:
    if cfg.budget_sweep is not None:
        budgets = cfg.budget_sweep.grid()
    elif cfg.budget is not None:
        budgets = np.array([cfg.budget])
    else:
        raise ConfigError("budget", "sweep needs a budget grid or scalar")
    consts = ProblemConstants.compute(cfg.model, cfg.weights)
    payloads = [(consts, float(b), cfg.solver, cfg.units) for b in budgets]
    rows = _run_pool(_sweep_worker, payloads, args.jobs)
    write_csv(rows, args.output)
    return 0


def cmd_sweep_param(cfg: RunConfig, args) -> int:
    if cfg.param_sweep is None:
        raise ConfigError("param_sweep", "sweep-param needs a param_sweep block")
    budget = _require_budget(cfg)
    values = cfg.param_sweep.spec.grid()
    payloads = [(cfg.model, cfg.weights, cfg.param_sweep.name, float(v),
                 budget, cfg.solver, cfg.units) for v in values]
    rows = _run_pool(_param_worker, payloads, args.jobs)
    write_csv(rows, args.output)
    return 0


def cmd_scop(cfg: RunConfig, args) -> int:
    budget = _require_budget(cfg)
    horizons = cfg.horizons or (1, 2, 4, 8)
    consts = ProblemConstants.compute(cfg.model, cfg.weights)
    prob = BudgetedProblem(cfg.model, cfg.weights, budget)
    rows = []
    for h in horizons:
        try:
            sol = solve_scop(prob, h, cfg.solver, consts=consts)
        except Infeasible as e:
            log.info("horizon %d infeasible: %s", h, e)
            rows.append({"horizon": h, "status": "Infeasible",
                         "value": float("nan"), "cost": float("nan"),
                         "slack_E_n": float("nan"), "avg_slack": float("nan"),
                         "duality_gap": float("nan"), "iterations": 0})
            continue
        av = average_variables(sol)
        rows.append({"horizon": h, "status": "ok",
                     "value": _in_units(sol.value, cfg.units),
                     "cost": sol.cost, "slack_E_n": sol.slack_E_n,
                     "avg_slack": av.slack,
                     "duality_gap": _in_units(sol.duality_gap, cfg.units),
                     "iterations": sol.iterations})
    write_csv(rows, args.output)
    return 0


def cmd_simulate(cfg: RunConfig, args) -> int:
    if cfg.sim is None:
        raise ConfigError("sim", "simulate needs a sim block")
    sim_cfg = cfg.sim if args.seed is None else replace(cfg.sim, seed=args.seed)
    prob = BudgetedProblem(cfg.model, cfg.weights, _require_budget(cfg))
    lb = solve_capacity(prob, cfg.solver).lb
    report = simulate(cfg.model, cfg.weights, lb.policy, sim_cfg)
    verdict = compare_to_theory(report, lb)
    print(f"empirical_cost = {report.empirical_cost:.12g} "
          f"+- {report.cost_stderr:.3g} (theory p* = {lb.achieved_budget:.12g})")
    print(f"empirical_rate_{cfg.units} = "
          f"{_in_units(report.empirical_rate, cfg.units):.12g} "
          f"(theory {_in_units(lb.rate, cfg.units):.12g})")
    print(f"innovation_whiteness = {report.innovation_whiteness:.3e}")
    print(verdict)
    print(f"verdict: {'pass' if verdict.ok else 'FAIL'}")
    if args.output:
        write_csv([{
            "budget": prob.budget,
            "empirical_cost": report.empirical_cost,
            "cost_stderr": report.cost_stderr,
            "theory_cost": lb.achieved_budget,
            "empirical_rate": _in_units(report.empirical_rate, cfg.units),
            "theory_rate": _in_units(lb.rate, cfg.units),
            "whiteness": report.innovation_whiteness,
            "verdict": "pass" if verdict.ok else "fail",
        }], args.output)
    return 0 if verdict.ok else 1


_COMMANDS = {
    "check": cmd_check,
    "ub": cmd_ub,
    "lb": cmd_lb,
    "capacity": cmd_capacity,
    "sweep": cmd_sweep,
    "sweep-param": cmd_sweep_param,
    "scop": cmd_scop,
    "simulate": cmd_simulate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqgcap",
        description="Capacity bounds for LQG control systems used as channels.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--output", default=None, help="CSV output path")
    parser.add_argument("--units", choices=["bits", "nats"], default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--max-iter", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=usable_cpus())
    parser.add_argument("--lax", action="store_true",
                        help="ignore unknown config keys")
    return parser


def run(argv: list[str] | None = None) -> int:
    level = os.environ.get("LQGCAP_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s %(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, lax=args.lax)
        if args.units is not None:
            cfg = replace(cfg, units=args.units)
        flags = {key: getattr(args, key) for key in ("tol", "max_iter")
                 if getattr(args, key) is not None}
        if flags:
            cfg = replace(cfg, solver=replace(cfg.solver or SolverOptions(),
                                              **flags))
        return _COMMANDS[args.command](cfg, args)
    except Infeasible as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 2
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except LqgcapError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
