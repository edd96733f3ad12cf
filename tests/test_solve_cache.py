"""The Riccati solvers' caches: a repeated filter or control equation is
answered from the last clean solve of the same inputs, in new arrays that
are bit-identical to a fresh solve; a degraded solve is never kept.  A
policy equation is solved at every call."""

import dataclasses
import logging
import pathlib
import sys
import threading

import numpy as np
import pytest

from lqgcap import BudgetedProblem, CostWeights, SystemModel, riccati, upper_bound
from lqgcap.config import load_config
from lqgcap.lower_bound import solve_capacity
from lqgcap.model import EstimatorModel
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


def _solver(kind, model, weights):
    """A call of one solver on the plant."""
    if kind == "filter":
        return lambda: solve_filter_riccati(model)
    return lambda: solve_control_riccati(model, weights)


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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("plant", ["scalar", "vector3"])
def test_a_hit_is_a_fresh_solve_in_new_arrays(plant, kind):
    # the caches start empty, so the first call solves
    solve = _solver(kind, *_plant(plant))
    fresh, hit = solve(), solve()
    for name, a in _arrays(hit).items():
        assert np.array_equal(a, _arrays(fresh)[name]), name
        assert not np.shares_memory(a, _arrays(fresh)[name]), name
    assert (hit.iterations, hit.residual) == (fresh.iterations, fresh.residual)


@pytest.mark.parametrize("kind", KINDS)
def test_writing_into_a_result_leaves_the_next_unchanged(kind, dare_calls):
    solve = _solver(kind, *_plant("vector3"))
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
    model = SystemModel(F=np.diag([0.5, 1 - 5e-10]), G=[[1], [1]],
                        H=[[1, 1]], J=1, W=np.diag([1.0, 0.0]), V=1,
                        L=np.zeros((2, 1)))
    weights = CostWeights(Q=np.diag([1.0, 0.0]), R=1)
    if kind == "filter":
        return _solver(kind, model, weights), "filter pair not stabilizable"
    if kind == "control":
        return (_solver(kind, model, weights),
                "control regularity condition failed")
    model, _ = _plant("scalar")
    est = EstimatorModel.from_filter(model, solve_filter_riccati(model))
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
        assert len(getattr(riccati, f"_{kind.upper()}_CACHE")) == 0


@pytest.mark.parametrize("kind, keyed, unkeyed", [
    ("filter", "FHWLV", "GJ"),
    ("control", "FGQR", "HJWVL"),
])
def test_a_change_of_one_keyed_entry_misses(kind, keyed, unkeyed, dare_calls):
    model, weights = _plant("vector3")

    def changed(name):
        """The plant and weights with one entry of `name` moved."""
        objs = [model, weights]
        i = next(i for i, obj in enumerate(objs) if hasattr(obj, name))
        a = getattr(objs[i], name).copy()
        a[-1, -1] += 1e-3
        objs[i] = dataclasses.replace(objs[i], **{name: a})
        return objs

    _solver(kind, model, weights)()
    for names, misses in ((keyed, True), (unkeyed, False)):
        for name in names:
            solve = _solver(kind, *changed(name))
            n = len(dare_calls)
            solve()
            assert (len(dare_calls) > n) == misses, name
            riccati._clear_solve_caches()
            _solver(kind, model, weights)()


def test_keys_tell_shapes_and_dtypes_apart():
    a = np.arange(6.0)
    keys = {riccati._key(a.reshape(2, 3)), riccati._key(a.reshape(3, 2)),
            riccati._key(a.reshape(6, 1)), riccati._key(a.view(np.int64))}
    assert len(keys) == 4
    assert riccati._key(a.reshape(2, 3)) == riccati._key(a.reshape(2, 3).copy())


def _scalar_plant(i):
    return SystemModel(F=0.1 * (i + 1), G=1, H=1, J=1, W=1, V=1, L=0)


def test_the_cache_keeps_its_bound_least_recently_used_first(dare_calls):
    size = riccati.SOLVE_CACHE_SIZE
    for i in range(size):
        solve_filter_riccati(_scalar_plant(i))
    solve_filter_riccati(_scalar_plant(0))          # now the most recent
    assert len(dare_calls) == size
    solve_filter_riccati(_scalar_plant(size))       # evicts plant 1
    assert len(riccati._FILTER_CACHE) == size
    n = len(dare_calls)
    solve_filter_riccati(_scalar_plant(0))
    assert len(dare_calls) == n
    solve_filter_riccati(_scalar_plant(1))
    assert len(dare_calls) == n + 1
    for i in range(2 * size):
        solve_filter_riccati(_scalar_plant(i))
    assert len(riccati._FILTER_CACHE) == size


def test_concurrent_lookups_and_evictions_stay_consistent():
    """More threads than cores look up and insert more plants than the cache
    holds, so lookups, insertions and evictions interleave; every hit must
    be the solve stored under its key, and the cache must stay at its
    bound."""
    cache = riccati._SolveCache()
    solved = [solve_filter_riccati(_scalar_plant(i))
              for i in range(riccati.SOLVE_CACHE_SIZE + 3)]
    errors = []

    def run(offset):
        try:
            for j in range(2000):
                i = (7 * j + offset) % len(solved)
                hit = cache.get(i)
                if hit is None:
                    cache.put(i, solved[i])
                else:
                    assert np.array_equal(hit.Sigma, solved[i].Sigma), i
        except Exception as e:      # raised below, in the test's thread
            errors.append(e)

    # 8 threads, more than the cores of a typical CI runner
    threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
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
    assert len(cache) == riccati.SOLVE_CACHE_SIZE


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
    # the filter solve is reused; the policy equation is solved again
    model, weights = _plant("scalar")
    rep = solve_capacity(BudgetedProblem(model, weights, 2.0))
    n = len(dare_calls)
    simulate(model, weights, rep.lb.policy,
             SimConfig(horizon=40, trajectories=4, seed=1))
    assert len(dare_calls) == n + 1
    assert all(np.array_equal(a, b) for a, b in zip(dare_calls[-1],
                                                    rep.lb.riccati.equation))
