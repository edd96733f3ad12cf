"""Run-configuration parsing: JSON documents with matrices as nested arrays."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import CostWeights, SystemModel, validate_model
from .scop import MAX_HORIZON
from .simulator import SimConfig
from .upper_bound import SolverOptions

_SYSTEM_KEYS = {"F", "G", "H", "J", "W", "V", "L", "Sigma1"}
_COST_KEYS = {"Q", "R"}
_SOLVER_KEYS = {"tol"}
_SIM_KEYS = {"seed", "trajectories", "horizon", "burn_in"}
_SWEEP_KEYS = {"min", "max", "points", "scale"}
_PARAM_KEYS = {"name", "min", "max", "points", "scale"}
_TOP_KEYS = {"system", "cost", "budget", "solver", "sim", "units",
             "param_sweep", "horizons"}


@dataclass(frozen=True)
class SweepSpec:
    lo: float
    hi: float
    points: int
    scale: str = "linear"

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.lo, self.hi, self.points)
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class ParamSweep:
    name: str
    spec: SweepSpec


@dataclass(frozen=True)
class RunConfig:
    model: SystemModel
    weights: CostWeights
    budget: float | None
    budget_sweep: SweepSpec | None
    solver: SolverOptions | None     # None: each solver's own default
    sim: SimConfig | None
    units: str
    param_sweep: ParamSweep | None
    horizons: tuple[int, ...] | None


def _matrix(field: str, raw) -> np.ndarray:
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return np.array([[float(raw)]])
    if not isinstance(raw, list) or not raw:
        raise ConfigError(field, "expected a number or a non-empty nested array")
    if not all(isinstance(row, list) and row for row in raw):
        raise ConfigError(field, "matrix rows must be non-empty arrays")
    width = len(raw[0])
    if any(len(row) != width for row in raw):
        raise ConfigError(field, "ragged rows")
    try:
        mat = np.array(raw, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(field, "non-numeric entry") from None
    if not np.all(np.isfinite(mat)):
        raise ConfigError(field, "non-finite entry")
    return mat


def _integer(field: str, raw) -> int:
    """raw as an int: an integer, numpy's included, or an integral float;
    a bool, a fraction or a non-number is rejected."""
    if isinstance(raw, numbers.Integral) and not isinstance(raw, bool):
        return int(raw)
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    raise ConfigError(field, f"must be an integer, got {raw!r}")


def _check_keys(field: str, block: dict, allowed: set[str], lax: bool):
    if not isinstance(block, dict):
        raise ConfigError(field, "expected an object")
    unknown = set(block) - allowed
    if unknown and not lax:
        raise ConfigError(field, f"unknown keys: {sorted(unknown)} "
                          "(use --lax to ignore)")


def _sweep_spec(field: str, block: dict, lax: bool) -> SweepSpec:
    _check_keys(field, block, _SWEEP_KEYS, lax)
    try:
        lo = float(block["min"])
        hi = float(block["max"])
        points = _integer(f"{field}.points", block["points"])
    except KeyError as e:
        raise ConfigError(field, f"missing key {e.args[0]!r}") from None
    scale = block.get("scale", "linear")
    if scale not in ("linear", "log"):
        raise ConfigError(f"{field}.scale", f"unknown scale {scale!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo < 0 or hi < lo:
        raise ConfigError(field, "need 0 <= min <= max, finite")
    if points < 1:
        raise ConfigError(f"{field}.points", "need at least one point")
    if scale == "log" and lo <= 0:
        raise ConfigError(field, "log scale needs min > 0")
    return SweepSpec(lo=lo, hi=hi, points=points, scale=scale)


def load_config(path: str, lax: bool = False) -> RunConfig:
    """Parse and fully validate a run configuration file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ConfigError(path, f"cannot read: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(path, f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError(path, "top level must be an object")
    _check_keys("<top>", doc, _TOP_KEYS, lax)

    if "system" not in doc:
        raise ConfigError("system", "missing block")
    if "cost" not in doc:
        raise ConfigError("cost", "missing block")
    _check_keys("system", doc["system"], _SYSTEM_KEYS, lax)
    _check_keys("cost", doc["cost"], _COST_KEYS, lax)
    sysblock = doc["system"]
    for key in ("F", "G", "H", "J", "W", "V", "L"):
        if key not in sysblock:
            raise ConfigError(f"system.{key}", "missing matrix")
    mats = {key: _matrix(f"system.{key}", sysblock[key])
            for key in sysblock if key in _SYSTEM_KEYS}
    costblock = doc["cost"]
    for key in ("Q", "R"):
        if key not in costblock:
            raise ConfigError(f"cost.{key}", "missing matrix")
    try:
        model = SystemModel(F=mats["F"], G=mats["G"], H=mats["H"], J=mats["J"],
                            W=mats["W"], V=mats["V"], L=mats["L"],
                            Sigma1=mats.get("Sigma1"))
        weights = CostWeights(Q=_matrix("cost.Q", costblock["Q"]),
                              R=_matrix("cost.R", costblock["R"]))
    except Exception as e:
        raise ConfigError("system", str(e)) from None
    report = validate_model(model, weights)
    if not report.ok:
        raise ConfigError("system", f"invalid model: {report}")

    budget = None
    budget_sweep = None
    raw_budget = doc.get("budget")
    if isinstance(raw_budget, dict):
        budget_sweep = _sweep_spec("budget", raw_budget, lax)
    elif raw_budget is not None:
        try:
            budget = float(raw_budget)
        except (TypeError, ValueError):
            raise ConfigError("budget", "expected a number or sweep object") from None
        if not math.isfinite(budget) or budget < 0:
            raise ConfigError("budget", "must be finite and nonnegative")

    solver = None
    if "solver" in doc:
        _check_keys("solver", doc["solver"], _SOLVER_KEYS, lax)
        if "tol" in doc["solver"]:
            try:
                tol = float(doc["solver"]["tol"])
            except (TypeError, ValueError):
                raise ConfigError("solver.tol", "expected a number") from None
            solver = SolverOptions(tol=tol)

    sim = None
    if "sim" in doc:
        _check_keys("sim", doc["sim"], _SIM_KEYS, lax)
        blk = doc["sim"]
        try:
            sim = SimConfig(horizon=blk["horizon"],
                            trajectories=blk["trajectories"], seed=blk["seed"],
                            burn_in=blk.get("burn_in"))
        except KeyError as e:
            raise ConfigError(f"sim.{e.args[0]}", "missing") from None
        except (TypeError, ValueError) as e:
            raise ConfigError("sim", str(e)) from None

    units = doc.get("units", "bits")
    if units not in ("bits", "nats"):
        raise ConfigError("units", f"unknown units {units!r}")

    param_sweep = None
    if "param_sweep" in doc:
        blk = doc["param_sweep"]
        _check_keys("param_sweep", blk, _PARAM_KEYS, lax)
        if "name" not in blk:
            raise ConfigError("param_sweep.name", "missing")
        spec = _sweep_spec("param_sweep",
                           {k: v for k, v in blk.items() if k != "name"}, lax)
        param_sweep = ParamSweep(name=str(blk["name"]), spec=spec)
        if system_entry(model, param_sweep.name)[0] == "Sigma1":
            raise ConfigError("param_sweep.name", "Sigma1 enters no constant "
                              "of the bounds, so every row would be the same")

    horizons = None
    if "horizons" in doc:
        raw = doc["horizons"]
        if (not isinstance(raw, list) or not raw
                or not all(isinstance(h, int) and not isinstance(h, bool)
                           and 1 <= h <= MAX_HORIZON for h in raw)):
            raise ConfigError("horizons", "expected a list of integers in "
                              f"[1, {MAX_HORIZON}]")
        horizons = tuple(raw)

    return RunConfig(model=model, weights=weights, budget=budget,
                     budget_sweep=budget_sweep, solver=solver, sim=sim,
                     units=units, param_sweep=param_sweep, horizons=horizons)


def system_entry(model: SystemModel, name: str) -> tuple[str, int, int]:
    """The matrix and the index that an entry name denotes: "G" (entry
    [0, 0]) or an indexed form like "F[1,2]", closed by its bracket;
    ConfigError when the model has no such entry."""
    field, bracket, idx = name.partition("[")
    idx, closed, tail = idx.partition("]")
    try:
        if bracket and (not closed or tail):
            raise ValueError(name)
        i, j = (int(t) for t in idx.split(",")) if bracket else (0, 0)
    except ValueError:
        raise ConfigError("param_sweep.name", f"bad index in {name!r}") from None
    if field not in _SYSTEM_KEYS:
        raise ConfigError("param_sweep.name", f"unknown system entry {field!r}")
    rows, cols = getattr(model, field).shape
    if not (0 <= i < rows and 0 <= j < cols):
        raise ConfigError("param_sweep.name", f"index out of range in {name!r}")
    return field, i, j


def set_system_entry(model: SystemModel, name: str, value: float) -> SystemModel:
    """Return a copy of the model with one named scalar entry (system_entry)
    replaced."""
    field, i, j = system_entry(model, name)
    mats = {key: getattr(model, key).copy() for key in _SYSTEM_KEYS}
    mats[field][i, j] = value
    return SystemModel(**mats)
