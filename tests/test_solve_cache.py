"""The plant-solve cache of ProblemConstants.compute: a repeated filter or
control equation is answered from the last clean solve of the same inputs,
in new arrays that are bit-identical to a fresh solve; a degraded solve is
never kept.  The Riccati solvers themselves solve at every call."""

import dataclasses
import json
import logging
import pathlib
import sys
import threading

import numpy as np
import pytest

from lqgcap import (
    BudgetedProblem,
    CostWeights,
    ProblemConstants,
    SystemModel,
    constants,
    riccati,
    upper_bound,
)
from lqgcap.cli import run
from lqgcap.config import load_config
from lqgcap.lower_bound import solve_capacity
from lqgcap.riccati import (
    Policy,
    solve_control_riccati,
    solve_filter_riccati,
    solve_policy_riccati,
)
from lqgcap.simulator import SimConfig, simulate

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
KINDS = ("filter", "control")


def _plant(name):
    cfg = load_config(str(CONFIGS / f"{name}.json"))
    return cfg.model, cfg.weights


def _arrays(solution):
    """The solution's array fields by name."""
    return {f.name: getattr(solution, f.name)
            for f in dataclasses.fields(solution)
            if isinstance(getattr(solution, f.name), np.ndarray)}


@pytest.fixture
def dare_calls(monkeypatch):
    """The equations handed to `_solve_dare`, from riccati and upper_bound."""
    calls = []
    for module in (riccati, upper_bound):
        def counted(eq, *args, _solve=module._solve_dare, **kwargs):
            calls.append(eq)
            return _solve(eq, *args, **kwargs)
        monkeypatch.setattr(module, "_solve_dare", counted)
    return calls


@pytest.fixture
def plant_solves(monkeypatch):
    """The kind of each plant solve that `ProblemConstants.compute` asks
    riccati for, in order."""
    kinds = []
    for kind in KINDS:
        def counted(*args, _kind=kind,
                    _solve=getattr(riccati, f"solve_{kind}_riccati")):
            kinds.append(_kind)
            return _solve(*args)
        monkeypatch.setattr(riccati, f"solve_{kind}_riccati", counted)
    return kinds


def _kept(kind):
    """The number of solutions of one kind in the cache."""
    return sum(key[0] == kind for key in constants._SOLVES)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("plant", ["scalar", "vector3"])
def test_a_hit_is_a_fresh_solve_in_new_arrays(plant, kind, plant_solves):
    # the cache starts empty, so the first call solves
    model, weights = _plant(plant)
    fresh = getattr(ProblemConstants.compute(model, weights), kind)
    hit = getattr(ProblemConstants.compute(model, weights), kind)
    assert plant_solves.count(kind) == 1
    for name, a in _arrays(hit).items():
        assert np.array_equal(a, _arrays(fresh)[name]), name
        assert not np.shares_memory(a, _arrays(fresh)[name]), name
    assert (hit.iterations, hit.residual) == (fresh.iterations, fresh.residual)


@pytest.mark.parametrize("kind", KINDS)
def test_writing_into_a_result_leaves_the_next_unchanged(kind, dare_calls):
    model, weights = _plant("vector3")

    def solve():
        return getattr(ProblemConstants.compute(model, weights), kind)

    first = solve()
    kept = {name: a.copy() for name, a in _arrays(first).items()}
    for a in _arrays(first).values():
        a[...] = np.nan
    n = len(dare_calls)
    second = solve()
    assert len(dare_calls) == n      # answered from the cache
    for name, a in _arrays(second).items():
        assert np.array_equal(a, kept[name]), name
        a[...] = 0.0
    for name, a in _arrays(solve()).items():
        assert np.array_equal(a, kept[name]), name


def _degraded(kind):
    """A solve that fails a regularity check but converges, and the warning
    it logs.  The mode at 1 - 5e-10, within PBH_TOL of the unit circle,
    takes no noise and no state weight: the filter's and the control's
    stabilizability tests fail, and the limit is still stabilizing.  Zero
    dither with GammaBar 1.5 makes the policy recursion from 0 need the
    bootstrap."""
    if kind != "policy":
        model = SystemModel(F=np.diag([0.5, 1 - 5e-10]), G=[[1], [1]],
                            H=[[1, 1]], J=1, W=np.diag([1.0, 0.0]), V=1,
                            L=np.zeros((2, 1)))
        weights = CostWeights(Q=np.diag([1.0, 0.0]), R=1)
        warning = {"filter": "filter pair not stabilizable",
                   "control": "control regularity condition failed"}[kind]
        return lambda: ProblemConstants.compute(model, weights), warning
    est = ProblemConstants.compute(*_plant("scalar")).estimator
    policy = Policy(GammaBar=np.full((1, 1), 1.5), M=np.zeros((1, 1)),
                    K_LQR=np.zeros((1, 1)))
    return (lambda: solve_policy_riccati(est, policy),
            "restarting from a bootstrap")


@pytest.mark.parametrize("kind", KINDS + ("policy",))
def test_a_degraded_solve_warns_each_time_and_is_not_kept(kind, dare_calls,
                                                          caplog):
    solve, warning = _degraded(kind)
    solved = []
    with caplog.at_level(logging.WARNING, logger="lqgcap.riccati"):
        for _ in range(2):
            n = len(dare_calls)
            sol = solve()
            solved.append(len(dare_calls) - n)
    assert solved[0] > 0 and solved[1] == solved[0]
    assert len([r for r in caplog.records if warning in r.getMessage()]) == 2
    if kind == "policy":
        assert sol.bootstrapped
    else:
        assert _kept(kind) == 0


@pytest.mark.parametrize("kind, keyed, unkeyed", [
    ("filter", "FHWLV", "GJQR"),
    ("control", "FGQR", "HJWVL"),
])
def test_a_change_of_one_keyed_entry_misses(kind, keyed, unkeyed,
                                            plant_solves):
    model, weights = _plant("vector3")

    def changed(name):
        """The plant and weights with one entry of `name` moved."""
        objs = [model, weights]
        i = next(i for i, obj in enumerate(objs) if hasattr(obj, name))
        a = getattr(objs[i], name).copy()
        a[-1, -1] += 1e-3
        objs[i] = dataclasses.replace(objs[i], **{name: a})
        return objs

    ProblemConstants.compute(model, weights)
    for names, misses in ((keyed, True), (unkeyed, False)):
        for name in names:
            n = plant_solves.count(kind)
            ProblemConstants.compute(*changed(name))
            assert (plant_solves.count(kind) > n) == misses, name
            constants._SOLVES.clear()
            ProblemConstants.compute(model, weights)


def test_keys_tell_shapes_and_dtypes_apart():
    a = np.arange(6.0)
    keys = {constants._key("filter", a.reshape(2, 3)),
            constants._key("filter", a.reshape(3, 2)),
            constants._key("filter", a.reshape(6, 1)),
            constants._key("filter", a.view(np.int64)),
            constants._key("control", a.reshape(2, 3))}
    assert len(keys) == 5
    assert (constants._key("filter", a.reshape(2, 3))
            == constants._key("filter", a.reshape(2, 3).copy()))


def _scalar_plant(i):
    return SystemModel(F=0.1 * (i + 1), G=1, H=1, J=1, W=1, V=1, L=0)


def test_the_cache_keeps_its_bound_least_recently_used_first(plant_solves):
    # each plant has a filter and a control equation of its own
    plants = constants._SOLVES_KEPT // 2
    w = CostWeights(Q=1, R=1)
    for i in range(plants):
        ProblemConstants.compute(_scalar_plant(i), w)
    ProblemConstants.compute(_scalar_plant(0), w)   # now the most recent
    assert len(plant_solves) == 2 * plants
    ProblemConstants.compute(_scalar_plant(plants), w)  # evicts plant 1
    assert len(constants._SOLVES) == constants._SOLVES_KEPT
    n = len(plant_solves)
    ProblemConstants.compute(_scalar_plant(0), w)
    assert len(plant_solves) == n
    ProblemConstants.compute(_scalar_plant(1), w)
    assert plant_solves[n:] == ["filter", "control"]
    for i in range(2 * plants):
        ProblemConstants.compute(_scalar_plant(i), w)
    assert len(constants._SOLVES) == constants._SOLVES_KEPT


def test_concurrent_lookups_and_evictions_stay_consistent():
    """More threads than cores look up and insert more solutions than the
    cache holds, so lookups, insertions and evictions interleave; every hit
    must be the solve stored under its key, and the cache must stay at its
    bound."""
    solved = [solve_filter_riccati(_scalar_plant(i))
              for i in range(constants._SOLVES_KEPT + 3)]
    errors = []

    def run_lookups(offset):
        try:
            for j in range(2000):
                i = (7 * j + offset) % len(solved)
                got = constants._solved(("stress", i), lambda: solved[i])
                assert np.array_equal(got.Sigma, solved[i].Sigma), i
        except Exception as e:      # raised below, in the test's thread
            errors.append(e)

    # 8 threads, more than the cores of a typical CI runner
    threads = [threading.Thread(target=run_lookups, args=(i,))
               for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(constants._SOLVES) == constants._SOLVES_KEPT


@pytest.mark.parametrize("kind", KINDS)
def test_a_direct_solver_call_solves_every_time(kind, dare_calls):
    model, weights = _plant("vector3")
    args = (model,) if kind == "filter" else (model, weights)
    solve = getattr(riccati, f"solve_{kind}_riccati")
    solve(*args)
    solve(*args)
    assert len(dare_calls) == 2
    assert len(constants._SOLVES) == 0


def test_a_budget_loop_solves_each_plant_equation_once(dare_calls):
    """Per budget only the strict point and the policy are solved: 2 + 2n
    doublings in all, where every budget solved both plant equations
    (4n) before."""
    cfg = load_config(str(CONFIGS / "scalar.json"))
    grid = cfg.budget_sweep.grid()
    assert len(grid) == 28
    for p in grid:
        solve_capacity(BudgetedProblem(cfg.model, cfg.weights, p))
    assert len(dare_calls) == 58


def test_simulate_reuses_the_lower_bounds_solves(dare_calls):
    # the plant's solves are reused; the policy equation is solved again
    model, weights = _plant("scalar")
    rep = solve_capacity(BudgetedProblem(model, weights, 2.0))
    n = len(dare_calls)
    simulate(model, weights, rep.lb.policy,
             SimConfig(horizon=40, trajectories=4, seed=1))
    assert len(dare_calls) == n + 1
    assert all(np.array_equal(a, b) for a, b in zip(dare_calls[-1],
                                                    rep.lb.riccati.equation))


def test_a_sweep_over_G_solves_the_filter_once(tmp_path, plant_solves):
    # G enters the control equation only, so its 15 values share one filter
    doc = json.loads((CONFIGS / "scalar.json").read_text())
    doc["budget"] = 2.0
    path = tmp_path / "scalar-p2.json"
    path.write_text(json.dumps(doc))
    assert doc["param_sweep"]["name"] == "G"
    assert run(["sweep-param", "--config", str(path), "--jobs", "1",
                "--output", str(tmp_path / "out.csv")]) == 0
    assert plant_solves.count("filter") == 1
    assert plant_solves.count("control") == 15
