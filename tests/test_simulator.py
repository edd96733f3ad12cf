import dataclasses
import os
import pathlib
import random
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from lqgcap import (
    BudgetedProblem,
    Policy,
    ProblemConstants,
    SimConfig,
    compare_to_theory,
    evaluate_policy,
    extract_policy,
    simulate,
    solve_ub,
)
from lqgcap import simulator
from lqgcap.config import load_config
from lqgcap.errors import NumericalOverflow
from lqgcap.linalg import psd_sqrt
from lqgcap.simulator import CHUNK, STEPS, SimReport, _traj_noise

from oracles import simulate_stepwise
from test_random_systems import random_system


@pytest.fixture(scope="module")
def quick_cfg():
    return SimConfig(horizon=400, trajectories=50, seed=99, burn_in=40)


@pytest.fixture(params=[1, 2], ids=lambda w: f"W{w}")
def workers(request, monkeypatch):
    """The serial chunk loop (1) and the pipelined one (2), on any host."""
    monkeypatch.setattr(simulator, "usable_cpus", lambda: request.param)
    return request.param


def _assert_bit_identical(got: SimReport, want: SimReport):
    for field in dataclasses.fields(SimReport):
        a = np.asarray(getattr(got, field.name))
        b = np.asarray(getattr(want, field.name))
        assert a.tobytes() == b.tobytes(), field.name


@pytest.fixture(scope="module")
def s1_p2_lb(s1, w1, c1):
    ub = solve_ub(BudgetedProblem(s1, w1, 2.0), consts=c1)
    policy = extract_policy(ub, c1.control)
    return policy, evaluate_policy(c1.estimator, w1, c1.control, policy)


class TestConfig:
    def test_burn_in_default_is_tenth(self):
        cfg = SimConfig(horizon=1000, trajectories=2, seed=1)
        assert cfg.burn_in == 100

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=10, trajectories=1, seed=0, burn_in=10)
        with pytest.raises(ValueError):
            SimConfig(horizon=10, trajectories=0, seed=0)

    @pytest.mark.parametrize("field, value", [
        ("horizon", 10.5), ("horizon", 10.0), ("trajectories", 2.5),
        ("seed", 0.5), ("burn_in", 1.5), ("trajectories", True),
    ])
    def test_non_integral_fields_rejected(self, field, value):
        # seed=0.5 once ran seed 0's streams; horizon=10.5 failed in np.empty
        fields = {"horizon": 10, "trajectories": 2, "seed": 0, "burn_in": 1}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimConfig(**{**fields, field: value})

    def test_numpy_integers_accepted(self):
        cfg = SimConfig(horizon=np.int64(10), trajectories=np.int32(2),
                        seed=np.uint64(3))
        assert cfg.burn_in == 1


class TestReproducibility:
    def test_identical_seeds_bit_identical(self, s1, w1, c1, s1_p2_lb, quick_cfg):
        policy, _ = s1_p2_lb
        a = simulate(s1, w1, policy, quick_cfg)
        b = simulate(s1, w1, policy, quick_cfg)
        assert a.empirical_cost == b.empirical_cost
        assert a.cost_stderr == b.cost_stderr
        assert np.array_equal(a.empirical_PsiY, b.empirical_PsiY)
        assert np.array_equal(a.empirical_SigmaHat, b.empirical_SigmaHat)
        assert a.empirical_rate == b.empirical_rate
        assert a.innovation_whiteness == b.innovation_whiteness

    def test_different_seed_differs(self, s1, w1, s1_p2_lb, quick_cfg):
        policy, _ = s1_p2_lb
        a = simulate(s1, w1, policy, quick_cfg)
        other = SimConfig(horizon=quick_cfg.horizon,
                          trajectories=quick_cfg.trajectories,
                          seed=quick_cfg.seed + 1, burn_in=quick_cfg.burn_in)
        b = simulate(s1, w1, policy, other)
        assert a.empirical_cost != b.empirical_cost

    @staticmethod
    def _draws(seed, j, n, k, p, m):
        s1, wv, m_ = np.empty(k), np.empty((n, k + p)), np.empty((n, m))
        _traj_noise(seed, j, s1, wv, m_)
        return s1, wv, m_

    def test_streams_keyed_by_trajectory(self):
        z1 = self._draws(7, 0, 10, 1, 1, 1)
        z2 = self._draws(7, 1, 10, 1, 1, 1)
        assert not np.array_equal(z1[1], z2[1])
        z1_again = self._draws(7, 0, 10, 1, 1, 1)
        assert np.array_equal(z1[1], z1_again[1])

    @pytest.mark.parametrize("seed, j, n, k, p, m", [
        (20240801, 0, 2000, 1, 1, 1), (20240802, 99, 50, 3, 1, 1),
        (7, 3, 17, 2, 2, 2), (-1, 5, 9, 1, 2, 1), ((1 << 64) + 11, 0, 4, 2, 1, 3),
    ])
    def test_in_place_draws_follow_the_stream_contract(self, seed, j, n, k, p, m):
        """The draws are a fresh Philox(key=[seed mod 2^64, j]) stream's
        standard_normal(k), then ((n, k + p)), then ((n, m)), bit for bit;
        bench/reference.json's simulate entries rest on this."""
        gen = np.random.Generator(np.random.Philox(key=np.array(
            [seed % (1 << 64), j], dtype=np.uint64)))
        want = (gen.standard_normal(k), gen.standard_normal((n, k + p)),
                gen.standard_normal((n, m)))
        s1, wv, m_ = np.empty((3, k)), np.empty((3, n, k + p)), np.empty((3, n, m))
        _traj_noise(seed, j, s1[1], wv[1], m_[1])      # views into larger arrays
        for got, ref in zip((s1[1], wv[1], m_[1]), want):
            assert got.tobytes() == ref.tobytes()


class TestThreadedDraws:
    """simulate fills the streams on min(usable_cpus(), N) threads."""

    CFG = SimConfig(horizon=CHUNK + 44, trajectories=5, seed=31, burn_in=20)

    @pytest.fixture(scope="class", params=["s1", "s2"])
    def case(self, request, s1, w1, c1, s2, w2, c2):
        model, weights, consts, budget = {
            "s1": (s1, w1, c1, 2.0), "s2": (s2, w2, c2, 120.0)}[request.param]
        ub = solve_ub(BudgetedProblem(model, weights, budget), consts=consts)
        return model, weights, extract_policy(ub, consts.control)

    @staticmethod
    def _count_threads(monkeypatch):
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        return started

    def test_reports_bit_identical_for_every_worker_count(self, case, monkeypatch):
        model, weights, policy = case
        started = self._count_threads(monkeypatch)
        threads = threading.active_count()
        reports, spawned = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)      # interleave the threads finely
        try:
            for workers in (1, 2, 3, self.CFG.trajectories + 3):
                monkeypatch.setattr(simulator, "usable_cpus", lambda w=workers: w)
                before = len(started)
                reports.append(simulate(model, weights, policy, self.CFG))
                spawned.append(len(started) - before)
                assert threading.active_count() == threads     # all joined
        finally:
            sys.setswitchinterval(interval)
        assert spawned == [0, 1, 2, self.CFG.trajectories - 1]
        for field in dataclasses.fields(SimReport):
            want = np.asarray(getattr(reports[0], field.name))
            for rep in reports[1:]:
                got = np.asarray(getattr(rep, field.name))
                assert got.tobytes() == want.tobytes(), field.name

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("bad", [0, 4])
    def test_a_failed_draw_reaches_the_caller(self, case, monkeypatch, workers,
                                              bad):
        """Trajectory 0 is the calling thread's; with two or more workers,
        trajectory 4 is the last worker's."""
        model, weights, policy = case
        monkeypatch.setattr(simulator, "usable_cpus", lambda: workers)
        draw = simulator._traj_noise

        def failing(seed, idx, *out):
            if idx == bad:
                raise RuntimeError(f"no draws for trajectory {idx}")
            draw(seed, idx, *out)

        monkeypatch.setattr(simulator, "_traj_noise", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=f"trajectory {bad}$"):
            simulate(model, weights, policy, self.CFG)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_slow_draw_range_changes_nothing(self, case, monkeypatch, workers):
        """The last range, the helper's with two workers, finishes last: no
        stage may read a trajectory's draws before they are drawn.  A run at
        another seed just before leaves its draws in the freed memory that
        an early read would find."""
        model, weights, policy = case
        monkeypatch.setattr(simulator, "usable_cpus", lambda: 1)
        want = simulate(model, weights, policy, self.CFG)
        simulate(model, weights, policy,
                 dataclasses.replace(self.CFG, seed=self.CFG.seed + 1))
        draw = simulator._traj_noise

        def slow(seed, idx, *out):
            if idx == self.CFG.trajectories - 1:
                time.sleep(0.05)
            draw(seed, idx, *out)

        monkeypatch.setattr(simulator, "_traj_noise", slow)
        monkeypatch.setattr(simulator, "usable_cpus", lambda: workers)
        _assert_bit_identical(simulate(model, weights, policy, self.CFG), want)

    def test_a_jittered_schedule_changes_nothing(self, case, monkeypatch):
        """Random pauses around every stage reorder the caller's and the
        helper's work; each accumulator must still see its chunks in order."""
        model, weights, policy = case
        cfg = dataclasses.replace(self.CFG, horizon=5 * STEPS + 3)
        monkeypatch.setattr(simulator, "usable_cpus", lambda: 1)
        want = simulate(model, weights, policy, cfg)
        rng = random.Random(7)

        def jittered(stage):
            def run(chunks, j):
                time.sleep(rng.random() * 1e-3)
                stage(chunks, j)
                time.sleep(rng.random() * 1e-3)
            return run

        for name in ("copy_draws", "step", "check", "reduce", "add_gram",
                     "add_lag"):
            monkeypatch.setattr(simulator._Chunks, name,
                                jittered(getattr(simulator._Chunks, name)))
        monkeypatch.setattr(simulator, "usable_cpus", lambda: 2)
        threads = threading.active_count()
        reports = []
        runner = threading.Thread(target=lambda: reports.extend(
            simulate(model, weights, policy, cfg) for _ in range(5)), daemon=True)
        runner.start()
        runner.join(timeout=60)         # a lost wake-up would hang here
        assert not runner.is_alive()
        assert threading.active_count() == threads
        assert len(reports) == 5
        for rep in reports:
            _assert_bit_identical(rep, want)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_failed_stage_on_the_calling_thread_reaches_the_caller(
            self, case, monkeypatch, workers):
        """add_gram fails at chunk 2 while the helper still copies chunk 3:
        the error reaches the caller with its own message, the check and
        reduce of chunk 2 queued behind that copy never run, and every
        thread is joined.  With one worker they ran before add_gram."""
        model, weights, policy = case
        cfg = dataclasses.replace(self.CFG, horizon=5 * STEPS + 3)
        monkeypatch.setattr(simulator, "usable_cpus", lambda: workers)
        copy, reduce, gram = (simulator._Chunks.copy_draws,
                              simulator._Chunks.reduce,
                              simulator._Chunks.add_gram)
        reduced = []

        def slow_copy(chunks, j):
            if j == 3:
                time.sleep(0.1)
            copy(chunks, j)

        def recorded_reduce(chunks, j):
            reduced.append(j)
            reduce(chunks, j)

        def failing_gram(chunks, j):
            if j == 2:
                raise RuntimeError("no Gram for chunk 2")
            gram(chunks, j)

        monkeypatch.setattr(simulator._Chunks, "copy_draws", slow_copy)
        monkeypatch.setattr(simulator._Chunks, "reduce", recorded_reduce)
        monkeypatch.setattr(simulator._Chunks, "add_gram", failing_gram)
        threads = threading.active_count()
        errors = []

        def run():
            try:
                simulate(model, weights, policy, cfg)
            except RuntimeError as e:
                errors.append(e)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=60)         # a lost wake-up would hang here
        assert not runner.is_alive()
        assert [str(e) for e in errors] == ["no Gram for chunk 2"]
        assert reduced == ([0, 1, 2] if workers == 1 else [0, 1])
        assert threading.active_count() == threads

    def test_a_thread_that_cannot_start_reaches_the_caller(self, case,
                                                           monkeypatch):
        """The second draw thread fails to start: that error reaches the
        caller, and the first draw thread is joined."""
        model, weights, policy = case
        started = []
        start = threading.Thread.start

        def second_fails(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", second_fails)
        monkeypatch.setattr(simulator, "usable_cpus", lambda: 3)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="^can't start new thread$"):
            simulate(model, weights, policy, self.CFG)
        assert len(started) == 1
        assert threading.active_count() == threads

    def test_usable_cpus_follows_the_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7},
                            raising=False)
        assert simulator.usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert simulator.usable_cpus() == 1


class TestAgainstTheory:
    def test_lqg_policy_cost_near_floor(self, s1, w1, c1):
        pol = Policy(GammaBar=np.zeros((1, 1)), M=np.zeros((1, 1)),
                     K_LQR=c1.K_LQR)
        cfg = SimConfig(horizon=2000, trajectories=200, seed=12345, burn_in=200)
        rep = simulate(s1, w1, pol, cfg)
        assert abs(rep.empirical_cost - c1.minimal_cost) <= 3 * rep.cost_stderr
        # the observer's estimate is the controller's: s_hat - s_obs is
        # rounding, which a Gram over raw [s, s_hat, s_obs] rows cancels away
        tiny = 1e-10 * rep.state_err_scale
        assert np.sqrt(np.trace(rep.empirical_SigmaHat)) <= tiny
        assert rep.obs_err_scale <= tiny

    def test_extracted_policy_statistics(self, s1, w1, s1_p2_lb):
        policy, lb = s1_p2_lb
        cfg = SimConfig(horizon=2000, trajectories=200, seed=12345, burn_in=200)
        rep = simulate(s1, w1, policy, cfg)
        psi_y = lb.riccati.Psi_Y[0, 0]
        assert abs(rep.empirical_PsiY[0, 0] - psi_y) / psi_y <= 0.03
        assert abs(rep.empirical_rate - lb.rate) / lb.rate <= 0.03
        assert abs(rep.empirical_cost - lb.achieved_budget) <= 3 * rep.cost_stderr
        assert rep.innovation_whiteness <= 4 / np.sqrt(
            cfg.trajectories * cfg.horizon)
        verdict = compare_to_theory(rep, lb)
        assert verdict.ok

    def test_orthogonality_properties(self, s1, w1, s1_p2_lb):
        policy, _ = s1_p2_lb
        cfg = SimConfig(horizon=2000, trajectories=100, seed=777, burn_in=200)
        rep = simulate(s1, w1, policy, cfg)
        # MMSE orthogonality: (s - s_hat) uncorrelated with s_hat
        se = rep.state_err_scale * rep.shat_scale / np.sqrt(rep.samples)
        assert np.linalg.norm(rep.cross_state_err) <= 5 * se
        # innovations orthogonality: observer error vs past innovation
        se2 = rep.obs_err_scale * rep.psi_scale / np.sqrt(rep.samples)
        assert np.linalg.norm(rep.cross_obs_psi) <= 5 * se2

    def test_zero_dither_policy_draws_zero_noise(self, s1_p2_lb):
        policy, _ = s1_p2_lb
        assert np.linalg.norm(policy.M) <= 1e-6
        factor = psd_sqrt(np.zeros((1, 1)))
        assert np.all(factor == 0.0)
        z = np.random.default_rng(0).standard_normal((100, 1))
        assert np.all(z @ factor.T == 0.0)

    def test_mismatched_theory_flagged(self, s1, w1, c1, s1_p2_lb, quick_cfg):
        policy, _ = s1_p2_lb
        rep = simulate(s1, w1, policy, SimConfig(
            horizon=2000, trajectories=200, seed=12345, burn_in=200))
        ub3 = solve_ub(BudgetedProblem(s1, w1, 3.0), consts=c1)
        pol3 = extract_policy(ub3, c1.control)
        lb3 = evaluate_policy(c1.estimator, w1, c1.control, pol3)
        verdict = compare_to_theory(rep, lb3)
        assert not verdict.ok
        failed = {c.name for c in verdict.checks if not c.ok}
        assert "cost_within_stderr" in failed

    def test_vector_system_runs(self, s2, w2, c2):
        ub = solve_ub(BudgetedProblem(s2, w2, 1.5 * c2.minimal_cost), consts=c2)
        policy = extract_policy(ub, c2.control)
        lb = evaluate_policy(c2.estimator, w2, c2.control, policy)
        cfg = SimConfig(horizon=3000, trajectories=60, seed=4242, burn_in=300)
        rep = simulate(s2, w2, policy, cfg)
        assert compare_to_theory(rep, lb).ok


# Horizons off the chunk grid; burn-in at 0, on a chunk boundary, one step
# before it and inside a chunk; a horizon shorter than a chunk; one trajectory;
# a last chunk of one step; one retained step.
ORACLE_CONFIGS = [
    SimConfig(horizon=600, trajectories=5, seed=3, burn_in=0),
    SimConfig(horizon=700, trajectories=4, seed=4, burn_in=CHUNK),
    SimConfig(horizon=2 * CHUNK, trajectories=3, seed=8, burn_in=CHUNK - 1),
    SimConfig(horizon=530, trajectories=3, seed=5, burn_in=300),
    SimConfig(horizon=200, trajectories=6, seed=6, burn_in=20),
    SimConfig(horizon=300, trajectories=1, seed=7, burn_in=30),
    SimConfig(horizon=2 * STEPS + 1, trajectories=2, seed=9, burn_in=STEPS - 1),
    SimConfig(horizon=STEPS + 1, trajectories=2, seed=10, burn_in=STEPS),
]


@pytest.fixture(scope="module", params=["s1", "s2", 11, 41, 59],
                ids=lambda p: p if isinstance(p, str) else f"plant{p}")
def oracle_case(request, s1, w1, s2, w2):
    """A plant, its weights and the policy extracted above its cost floor.

    Plants 11, 41 and 59 of the random generator have correlated noise
    (L != 0), m or p of 2, and dithered policies at 2.5x the floor (11, 59).
    """
    name = request.param
    model, weights = {"s1": (s1, w1), "s2": (s2, w2)}.get(name) \
        or random_system(name)
    consts = ProblemConstants.compute(model, weights)
    floor = consts.minimal_cost
    budget = {"s1": 2.0, "s2": 1.5 * floor}.get(name, 2.5 * floor + 0.1)
    ub = solve_ub(BudgetedProblem(model, weights, budget), consts=consts)
    return model, weights, extract_policy(ub, consts.control)


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS, ids=lambda c: (
    f"n{c.horizon}-N{c.trajectories}-b{c.burn_in}"))
def test_matches_stepwise_oracle(oracle_case, cfg, workers):
    model, weights, policy = oracle_case
    got = simulate(model, weights, policy, cfg)
    want = simulate_stepwise(model, weights, policy, cfg)
    for field in dataclasses.fields(SimReport):
        a = np.asarray(getattr(got, field.name), float)
        b = np.asarray(getattr(want, field.name), float)
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b), field.name


def _overflow_step(run, model, weights, policy, cfg) -> int:
    threads = threading.active_count()
    with pytest.raises(NumericalOverflow) as exc:
        run(model, weights, policy, cfg)
    assert threading.active_count() == threads     # the helper is joined
    return int(re.search(r"diverged at step (\d+);", str(exc.value)).group(1))


def test_destabilizing_policy_overflows(s1, w1, c1, workers):
    pol = Policy(GammaBar=np.zeros((1, 1)), M=np.zeros((1, 1)),
                 K_LQR=np.array([[-5.0]]))
    cfg = SimConfig(horizon=2000, trajectories=2, seed=3)
    assert _overflow_step(simulate, s1, w1, pol, cfg) == 18


def test_late_divergence_names_the_oracles_step(s1, w1, workers):
    """A mildly unstable loop (F - G K = 1.08) crosses the limit in chunk 2."""
    pol = Policy(GammaBar=np.zeros((1, 1)), M=np.zeros((1, 1)),
                 K_LQR=np.array([[-0.58]]))
    cfg = SimConfig(horizon=2000, trajectories=3, seed=5)
    step = _overflow_step(simulate, s1, w1, pol, cfg)
    assert CHUNK < step < 2 * CHUNK
    assert step == _overflow_step(simulate_stepwise, s1, w1, pol, cfg)


def test_the_chunk_loop_fits_in_one_chunks_memory(monkeypatch):
    """The traced peak of one `simulate` at vector3's sim config, p=120, stays
    within the draws, one (CHUNK + 1)-step chunk buffer and the 2.06 MB of
    other allocations that the single-buffer loop made: the chunk buffers
    and the products the pipeline keeps must fit where that one buffer was."""
    cfg = load_config(str(pathlib.Path(__file__).parent.parent / "configs"
                          / "vector3.json"))
    model, weights, sim = cfg.model, cfg.weights, cfg.sim
    consts = ProblemConstants.compute(model, weights)
    ub = solve_ub(BudgetedProblem(model, weights, 120.0), consts=consts)
    policy = extract_policy(ub, consts.control)
    k, m, p, N, n = model.k, model.m, model.p, sim.trajectories, sim.horizon
    draws = 8 * N * (k + n * (k + p + m))
    chunk = 8 * (CHUNK + 1) * N * (4 * k + p + m)
    other = 2.06e6
    for workers in (1, 2):
        monkeypatch.setattr(simulator, "usable_cpus", lambda w=workers: w)
        simulate(model, weights, policy, sim)       # warm the solve cache
        tracemalloc.start()
        try:
            simulate(model, weights, policy, sim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= draws + chunk + other, (workers, peak)
