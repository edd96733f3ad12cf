import inspect
import json
import math
import os
import pathlib
import pickle
import shlex
import subprocess
import sys

import numpy as np
import pytest

from lqgcap import (BudgetedProblem, CostWeights, SystemModel, cli, riccati,
                    solve_ub)
from lqgcap.cli import build_parser, run, write_csv
from lqgcap.config import _integer, load_config, set_system_entry
from lqgcap.constants import ProblemConstants
from lqgcap.errors import ConfigError, LqgcapError, SolverNonConvergence
from lqgcap.scop import DEFAULT_OPTIONS, MAX_HORIZON, SCOPProgram, solve_scop
from lqgcap.simulator import usable_cpus
from lqgcap.upper_bound import SolverOptions, UBProgram

from test_random_systems import random_system

ROOT = pathlib.Path(__file__).parent.parent
SCALAR_CFG = ROOT / "configs" / "scalar.json"
VECTOR_CFG = ROOT / "configs" / "vector3.json"


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def scalar_doc(**overrides):
    doc = {
        "system": {"F": 0.5, "G": 1.0, "H": 1.0, "J": 1.0,
                   "W": 1.0, "V": 1.0, "L": 0.0},
        "cost": {"Q": 1.0, "R": 1.0},
        "budget": 2.0,
    }
    doc.update(overrides)
    return doc


class TestLoadConfig:
    def test_bundled_scalar_config(self):
        cfg = load_config(str(SCALAR_CFG))
        assert cfg.model.is_scalar()
        assert cfg.model.F[0, 0] == 0.5
        assert cfg.weights.Q[0, 0] == 1.0
        assert cfg.budget_sweep.points == 28
        assert cfg.units == "bits"

    def test_bundled_vector_config(self):
        cfg = load_config(str(VECTOR_CFG))
        assert cfg.model.k == 3 and cfg.model.m == 1 and cfg.model.p == 1
        assert np.allclose(np.diag(cfg.model.F), [1.2, 0.7, 0.5])
        assert np.allclose(cfg.model.G.ravel(), [2, 1, 12])
        assert np.allclose(cfg.model.H.ravel(), [10, 2, 1])
        assert cfg.model.V[0, 0] == 4.0

    def test_ragged_rows_name_the_field(self, tmp_path):
        doc = scalar_doc()
        doc["system"]["F"] = [[1.0, 2.0], [3.0]]
        with pytest.raises(ConfigError, match="system.F"):
            load_config(write_cfg(tmp_path, doc))

    def test_unknown_key_strict_vs_lax(self, tmp_path):
        doc = scalar_doc()
        doc["system"]["bogus"] = 1.0
        path = write_cfg(tmp_path, doc)
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)
        cfg = load_config(path, lax=True)
        assert cfg.budget == 2.0

    def test_invalid_model_rejected(self, tmp_path):
        doc = scalar_doc()
        doc["system"]["V"] = 0.0
        with pytest.raises(ConfigError, match="NotPositiveDefinite"):
            load_config(write_cfg(tmp_path, doc))

    @pytest.mark.parametrize("field, value", [
        ("horizon", 2000.7), ("horizon", 2000.0), ("trajectories", 2.5),
        ("seed", 0.5), ("burn_in", 20.5), ("seed", "7"), ("trajectories", True),
    ])
    def test_non_integral_sim_fields_rejected(self, tmp_path, field, value):
        # these were once truncated by int(), or ran seed 0's streams
        sim = {"seed": 7, "trajectories": 4, "horizon": 200, "burn_in": 20}
        doc = scalar_doc(sim={**sim, field: value})
        with pytest.raises(ConfigError, match=f"sim: {field} must be an integer"):
            load_config(write_cfg(tmp_path, doc))

    @pytest.mark.parametrize("section, value", [
        ("budget", 4.7), ("budget", True), ("budget", "4"),
        ("param_sweep", 50.9), ("param_sweep", False),
        ("solver", 50.9), ("solver", True), ("solver", "50"),
    ])
    def test_non_integral_count_fields_rejected(self, tmp_path, section,
                                                value):
        # these were once truncated by int(): 4.7 points ran 4, 50.9
        # Newton steps 50
        field = {"solver": "solver.max_iter"}.get(section, f"{section}.points")
        doc = {
            "budget": scalar_doc(budget={"min": 1.5, "max": 2.5,
                                         "points": value}),
            "param_sweep": scalar_doc(param_sweep={
                "name": "G", "min": 0.5, "max": 1.5, "points": value}),
            "solver": scalar_doc(solver={"max_iter": value}),
        }[section]
        with pytest.raises(ConfigError, match=f"{field}: must be an integer"):
            load_config(write_cfg(tmp_path, doc))

    def test_integral_count_fields_accepted(self, tmp_path):
        doc = scalar_doc(budget={"min": 1.5, "max": 2.5, "points": 4.0},
                         param_sweep={"name": "G", "min": 0.5, "max": 1.5,
                                      "points": 3},
                         solver={"max_iter": 5e4})
        cfg = load_config(write_cfg(tmp_path, doc))
        assert cfg.budget_sweep.points == 4
        assert cfg.param_sweep.spec.points == 3
        assert cfg.solver.max_iter == 50_000
        for n in (cfg.budget_sweep.points, cfg.param_sweep.spec.points,
                  cfg.solver.max_iter, _integer("points", np.int64(3))):
            assert type(n) is int

    def test_the_solver_is_none_unless_the_config_sets_it(self, tmp_path):
        assert load_config(write_cfg(tmp_path, scalar_doc())).solver is None
        cfg = load_config(write_cfg(tmp_path, scalar_doc(solver={"tol": 1e-6})))
        assert cfg.solver == SolverOptions(tol=1e-6)

    @pytest.mark.parametrize("horizons", [[True], [1, True], [2.0], [0],
                                          [2, MAX_HORIZON + 1]])
    def test_horizons_must_be_positive_integers(self, tmp_path, horizons):
        # true was once horizon 1; a horizon above the cap once reached
        # solve_scop and ended in a ValueError traceback
        doc = scalar_doc(horizons=horizons)
        with pytest.raises(ConfigError, match="horizons"):
            load_config(write_cfg(tmp_path, doc))

    def test_set_system_entry(self):
        cfg = load_config(str(VECTOR_CFG))
        varied = set_system_entry(cfg.model, "F[0,0]", 0.9)
        assert varied.F[0, 0] == 0.9
        assert cfg.model.F[0, 0] == 1.2
        with pytest.raises(ConfigError):
            set_system_entry(cfg.model, "Z", 1.0)

    @pytest.mark.parametrize("name,detail", [
        ("Z", "unknown system entry"), ("F[0]", "bad index"),
        ("F[1,1]", "index out of range"), ("F[0,0", "bad index"),
        ("F[0,0]]", "bad index"), ("F[0,0]1", "bad index"),
        ("F0,0]", "unknown system entry")])
    def test_the_sweep_entry_is_checked_against_the_model(self, tmp_path,
                                                          name, detail):
        doc = scalar_doc(param_sweep={"name": name, "min": 0.4, "max": 0.6,
                                      "points": 2})
        with pytest.raises(ConfigError, match=f"param_sweep.name: {detail}"):
            load_config(write_cfg(tmp_path, doc))

    @pytest.mark.parametrize("name", ["Sigma1", "Sigma1[0,0]"])
    def test_an_entry_that_moves_no_bound_is_refused(self, tmp_path, name):
        # Sigma1 once gave the same row at every value of the sweep
        doc = scalar_doc(param_sweep={"name": name, "min": 0.5, "max": 5.0,
                                      "points": 3})
        with pytest.raises(ConfigError,
                           match="param_sweep.name: Sigma1 enters no constant"):
            load_config(write_cfg(tmp_path, doc))
        doc["param_sweep"]["name"] = "W"
        assert load_config(write_cfg(tmp_path, doc)).param_sweep.name == "W"


class TestWriteCsv:
    def test_single_row_two_lines(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv([{"a": 1.0, "b": "x"}], str(path))
        assert path.read_text() == "a,b\n1,x\n"

    def test_twelve_significant_digits(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv([{"v": 0.123456789012345}], str(path))
        assert path.read_text().splitlines()[1] == "0.123456789012"

    def test_round_trip(self, tmp_path):
        rows = [{"x": 1.25, "y": -3.5e-7}, {"x": 2.0, "y": 0.0}]
        path = tmp_path / "out.csv"
        write_csv(rows, str(path))
        lines = path.read_text().splitlines()
        parsed = [dict(zip(lines[0].split(","), map(float, ln.split(","))))
                  for ln in lines[1:]]
        assert parsed == rows


def plant_doc(model, weights, mult):
    """A config for a plant at mult times its cost floor + 0.1."""
    floor = ProblemConstants.compute(model, weights).minimal_cost
    return {
        "system": {name: getattr(model, name).tolist()
                   for name in ("F", "G", "H", "J", "W", "V", "L")},
        "cost": {"Q": weights.Q.tolist(), "R": weights.R.tolist()},
        "budget": mult * floor + 0.1,
    }


class TestCommands:
    def test_check_prints_jstar(self, tmp_path, capsys):
        code = run(["check", "--config", str(SCALAR_CFG)])
        out = capsys.readouterr().out
        assert code == 0
        assert "validation: valid" in out
        assert "J* = 1.3031677711" in out
        assert out.count("pass") == 5

    @pytest.mark.parametrize("cfg_path", [SCALAR_CFG, VECTOR_CFG])
    def test_check_evaluates_each_regularity_check_once(self, monkeypatch,
                                                        capsys, cfg_path):
        # the report once evaluated the five checks, and then the solvers
        # again; a detectability check makes two pbh_test calls
        cfg = load_config(str(cfg_path))
        calls = []
        pbh_test = riccati.pbh_test
        monkeypatch.setattr(riccati, "pbh_test",
                            lambda *a: calls.append(a[2]) or pbh_test(*a))
        checks = (riccati.filter_regularity(cfg.model)
                  + riccati.control_regularity(cfg.model, cfg.weights))
        once, calls[:] = list(calls), []
        assert run(["check", "--config", str(cfg_path)]) == 0
        assert calls == once
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:6] == [f"regularity {name}: pass" for name, _ in checks]

    @pytest.mark.parametrize("system, cost, failed", [
        ({"F": 2, "G": 1, "H": 0, "J": 1, "W": 1, "V": 1, "L": 0},
         {"Q": 1, "R": 1}, "(F, H) detectable"),
        ({"F": [[2.0, 0.0], [0.0, 0.5]], "G": [[0], [1]], "H": [[1, 1]],
          "J": 1, "W": [[1, 0], [0, 1]], "V": 1, "L": [[0], [0]]},
         {"Q": [[1, 0], [0, 1]], "R": 1}, "(F, G) stabilizable"),
    ])
    def test_check_reports_the_checks_when_a_solver_raises(
            self, tmp_path, capsys, system, cost, failed):
        path = write_cfg(tmp_path, scalar_doc(system=system, cost=cost))
        assert run(["check", "--config", path]) == 1
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert lines[0] == "validation: valid" and len(lines) == 6
        assert [ln for ln in lines if ln.endswith("FAIL")] == [
            f"regularity {failed}: FAIL"]
        assert f"RegularityViolation: {failed}" in err

    def test_ub_command(self, tmp_path, capsys):
        path = write_cfg(tmp_path, scalar_doc())
        code = run(["ub", "--config", path, "--units", "nats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ub_rate_nats = 0.145175" in out

    def test_ub_reports_the_gap_in_the_config_units(self, tmp_path, capsys):
        # the gap once came out in nats next to a rate in bits
        rows = {}
        for units in ("bits", "nats"):
            path = write_cfg(tmp_path, scalar_doc(units=units), f"{units}.json")
            out_csv = tmp_path / f"{units}.csv"
            assert run(["ub", "--config", path, "--output", str(out_csv)]) == 0
            printed = dict(line.split(" = ")
                           for line in capsys.readouterr().out.splitlines())
            header, values = out_csv.read_text().splitlines()
            rows[units] = dict(zip(header.split(","),
                                   map(float, values.split(","))))
            assert printed["duality_gap"] == f"{rows[units]['duality_gap']:.3g}"
        bits, nats = rows["bits"], rows["nats"]
        assert bits["duality_gap"] > 0
        for key in ("ub_rate", "duality_gap"):
            assert bits[key] == pytest.approx(nats[key] / math.log(2.0),
                                              rel=1e-10)

    def test_capacity_units_default_bits(self, tmp_path, capsys):
        path = write_cfg(tmp_path, scalar_doc())
        code = run(["capacity", "--config", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "capacity_bits = 0.2094436" in out
        assert "CertifiedTight" in out

    def test_capacity_prints_the_multipliers(self, tmp_path, capsys):
        path = write_cfg(tmp_path, scalar_doc())
        cfg = load_config(path)
        sol = solve_ub(BudgetedProblem(cfg.model, cfg.weights, cfg.budget))
        assert run(["capacity", "--config", path, "--units", "nats"]) == 0
        printed = dict(line.split(" = ")
                       for line in capsys.readouterr().out.splitlines())
        assert float(printed["budget_multiplier_nats"]) == pytest.approx(
            sol.budget_multiplier, rel=1e-5)
        for name in ("riccati_multiplier", "covariance_multiplier"):
            np.testing.assert_allclose(json.loads(printed[f"{name}_nats"]),
                                       getattr(sol, name), rtol=1e-5)

    def test_capacity_refuses_a_vector_plant_before_printing(self, tmp_path,
                                                             capsys):
        doc = json.loads(VECTOR_CFG.read_text())
        doc["budget"] = 120.0
        assert run(["capacity", "--config", write_cfg(tmp_path, doc)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: DimensionMismatch: capacity requires")
        assert "solve_scalar" not in err

    def test_capacity_refuses_h_equal_to_klqr_j(self, tmp_path, capsys):
        # F = 0 gives K_LQR = 0, so H = 0 is K_LQR J
        path = write_cfg(tmp_path, scalar_doc(system={
            "F": 0.0, "G": 1.0, "H": 0.0, "J": 1.0, "W": 1.0, "V": 1.0,
            "L": 0.0}))
        assert run(["capacity", "--config", path]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: AssumptionViolated: H = K_LQR * J")

    @pytest.mark.parametrize("budget, want", [(120.0, "0.00828857"),
                                              (None, "none")])
    def test_ub_prints_the_budget_multiplier(self, tmp_path, capsys, budget,
                                             want):
        """In any dimension; none on the floor, where no barrier runs."""
        doc = json.loads(VECTOR_CFG.read_text())
        cfg = load_config(str(VECTOR_CFG))
        doc["budget"] = budget or ProblemConstants.compute(
            cfg.model, cfg.weights).minimal_cost
        assert run(["ub", "--config", write_cfg(tmp_path, doc)]) == 0
        assert (f"budget_multiplier_bits = {want}"
                in capsys.readouterr().out.splitlines())

    def test_lb_command(self, tmp_path, capsys):
        path = write_cfg(tmp_path, scalar_doc())
        out_csv = tmp_path / "lb.csv"
        code = run(["lb", "--config", path, "--output", str(out_csv)])
        out = capsys.readouterr().out
        assert code == 0
        assert "certificate = CertifiedTight" in out
        assert out_csv.read_text().startswith("budget,ub_rate,lb_rate")

    def test_a_singular_policy_riccati_is_an_error_not_a_traceback(
            self, tmp_path, capsys):
        # random plant 78: the policy Riccati doubling meets a singular solve
        path = write_cfg(tmp_path, plant_doc(*random_system(78), 1.3))
        assert run(["lb", "--config", path]) == 1
        assert "error: NonConvergence:" in capsys.readouterr().err

    def test_ub_solves_a_plant_with_a_decoupled_mode(self, tmp_path, capsys):
        # a stable mode that the output never sees and the input never
        # moves lies off the program's face
        model = SystemModel(F=np.diag([0.5, 0.8]), G=[[1.0], [0.0]],
                            H=[[1.0, 0.0]], J=1.0, W=np.eye(2), V=1.0,
                            L=[[0.0], [0.0]])
        weights = CostWeights(Q=np.eye(2), R=1.0)
        path = write_cfg(tmp_path, plant_doc(model, weights, 1.3))
        assert run(["ub", "--config", path, "--units", "nats"]) == 0
        assert "ub_rate_nats = 0.236063" in capsys.readouterr().out

    def test_infeasible_budget_exit_code(self, tmp_path, capsys):
        path = write_cfg(tmp_path, scalar_doc(budget=1.0))
        assert run(["ub", "--config", path]) == 2

    def test_io_failure_exit_code(self, tmp_path, capsys):
        path = write_cfg(tmp_path, scalar_doc())
        code = run(["lb", "--config", path,
                    "--output", str(tmp_path / "no-dir" / "x.csv")])
        assert code == 1
        assert "i/o error" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path):
        doc = scalar_doc()
        del doc["system"]["F"]
        assert run(["check", "--config", write_cfg(tmp_path, doc)]) == 1

    @pytest.mark.parametrize("command,override", [
        ("scop", {"horizons": [2, MAX_HORIZON + 1]}),
        ("sweep-param", {"param_sweep": {"name": "F[9,9]", "min": 0.4,
                                         "max": 0.6, "points": 2}}),
        # an unclosed bracket was once swept as F[0,0], and its comma split
        # the CSV's param field
        ("sweep-param", {"param_sweep": {"name": "F[0,0", "min": 0.4,
                                         "max": 0.6, "points": 2}}),
        ("sweep-param", {"param_sweep": {"name": "Sigma1", "min": 0.5,
                                         "max": 5.0, "points": 3}})])
    def test_a_config_error_is_one_line_at_any_jobs(self, tmp_path, capsys,
                                                    command, override):
        # a bad sweep entry once failed in the workers and, with --jobs 2,
        # broke the process pool instead of printing a config error
        path = write_cfg(tmp_path, scalar_doc(**override))
        ends = []
        for jobs in ("1", "2"):
            code = run([command, "--config", path, "--jobs", jobs])
            ends.append((code, capsys.readouterr().err.splitlines()))
        assert ends[0] == ends[1]
        code, lines = ends[0]
        assert code == 1 and len(lines) == 1
        assert lines[0].startswith("config error: ")

    @pytest.mark.parametrize("flags", [
        ["--tol", "0"], ["--tol", "-1"], ["--tol", "nan"],
        ["--max-iter", "0"], ["--max-iter", "-5"]])
    def test_bad_solver_flags_are_config_errors(self, tmp_path, capsys, flags):
        path = write_cfg(tmp_path, scalar_doc())
        assert run(["ub", "--config", path] + flags) == 1
        assert "config error: solver." in capsys.readouterr().err

    def test_unreachable_tol_in_the_config_is_a_config_error(self, tmp_path,
                                                              capsys):
        path = write_cfg(tmp_path, scalar_doc(solver={"tol": 1e-20}))
        assert run(["ub", "--config", path]) == 1
        assert "config error: solver.tol" in capsys.readouterr().err

    def test_smallest_tol_still_certifies(self, tmp_path, capsys):
        path = write_cfg(tmp_path, scalar_doc())
        # tol is in nats, whatever the units of the report
        assert run(["ub", "--config", path, "--tol", "1e-15",
                    "--units", "nats"]) == 0
        out = capsys.readouterr().out
        assert float(out.split("duality_gap = ")[1].split()[0]) <= 1e-15

    def test_sweep_deterministic_and_parallel_identical(self, tmp_path):
        doc = scalar_doc(budget={"min": 1.5, "max": 2.5, "points": 4,
                                 "scale": "linear"})
        path = write_cfg(tmp_path, doc)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        out3 = tmp_path / "c.csv"
        assert run(["sweep", "--config", path, "--output", str(out1),
                    "--jobs", "1"]) == 0
        assert run(["sweep", "--config", path, "--output", str(out2),
                    "--jobs", "1"]) == 0
        assert run(["sweep", "--config", path, "--output", str(out3),
                    "--jobs", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes() == out3.read_bytes()

    def test_jobs_default_is_the_usable_cpu_count(self, monkeypatch):
        assert build_parser().parse_args(
            ["sweep", "--config", "x"]).jobs == usable_cpus()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1},
                            raising=False)
        assert build_parser().parse_args(["sweep", "--config", "x"]).jobs == 1

    def test_sweep_computes_the_constants_once(self, tmp_path, monkeypatch):
        compute = ProblemConstants.__dict__["compute"].__func__
        calls = []

        def counted(cls, model, weights):
            calls.append(model)
            return compute(cls, model, weights)

        monkeypatch.setattr(ProblemConstants, "compute", classmethod(counted))
        out = tmp_path / "s.csv"
        assert run(["sweep", "--config", str(SCALAR_CFG), "--output",
                    str(out), "--jobs", "1"]) == 0
        assert len(out.read_text().splitlines()) == 1 + 28
        assert len(calls) == 1

    def test_sweep_rows_monotone(self, tmp_path):
        doc = scalar_doc(budget={"min": 1.4, "max": 3.0, "points": 5,
                                 "scale": "linear"})
        out = tmp_path / "s.csv"
        assert run(["sweep", "--config", write_cfg(tmp_path, doc),
                    "--output", str(out), "--jobs", "1"]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["budget", "ub_rate", "lb_rate", "rate_gap",
                          "riccati_residual", "M_norm", "certificate",
                          "iterations"]
        rates = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert rates == sorted(rates)
        assert all(ln.split(",")[6] == "CertifiedTight" for ln in lines[1:])

    def test_sweep_at_a_scalar_budget_writes_the_lb_row(self, tmp_path):
        path = write_cfg(tmp_path, scalar_doc())
        sweep, lb = tmp_path / "s.csv", tmp_path / "l.csv"
        assert run(["sweep", "--config", path, "--output", str(sweep),
                    "--jobs", "1"]) == 0
        assert run(["lb", "--config", path, "--output", str(lb)]) == 0
        assert len(sweep.read_text().splitlines()) == 2
        assert sweep.read_bytes() == lb.read_bytes()

    def test_sweep_on_a_log_grid_solves_at_its_budgets(self, tmp_path):
        doc = scalar_doc(budget={"min": 1.4, "max": 3.0, "points": 4,
                                 "scale": "log"})
        out = tmp_path / "s.csv"
        assert run(["sweep", "--config", write_cfg(tmp_path, doc),
                    "--output", str(out), "--jobs", "1"]) == 0
        budgets = [ln.split(",")[0] for ln in out.read_text().splitlines()[1:]]
        grid = np.geomspace(1.4, 3.0, 4)
        assert budgets == [format(b, ".12g") for b in grid]
        assert not np.allclose(grid, np.linspace(1.4, 3.0, 4))

    def test_sweep_param_columns(self, tmp_path):
        doc = scalar_doc(budget=5.0,
                         param_sweep={"name": "G", "min": 0.5, "max": 2.8,
                                      "points": 3, "scale": "linear"})
        out = tmp_path / "p.csv"
        assert run(["sweep-param", "--config", write_cfg(tmp_path, doc),
                    "--output", str(out), "--jobs", "1"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("param,value,budget,ub_rate")
        assert len(lines) == 4

    def test_scop_command(self, tmp_path, capsys):
        doc = scalar_doc(horizons=[1, 2, 4])
        assert run(["scop", "--config", write_cfg(tmp_path, doc)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("horizon,status,value,cost,slack_E_n,avg_slack,"
                            "duality_gap,iterations")
        assert lines[1].split(",")[1] == "Infeasible"
        assert lines[1].split(",")[6] == "nan"
        for line in lines[2:]:
            row = line.split(",")
            assert row[1] == "ok"
            # the certified gap of an ok row, in the value's units
            assert 0.0 <= float(row[6]) <= DEFAULT_OPTIONS.tol / math.log(2.0)

    @pytest.mark.parametrize("flags, solver", [
        ([], None), (["--tol", "1e-6"], SolverOptions(tol=1e-6)),
        (["--max-iter", "900"], SolverOptions(max_iter=900))])
    def test_scop_passes_the_solver_options_through(self, tmp_path,
                                                     monkeypatch, flags,
                                                     solver):
        # without options solve_scop takes its own DEFAULT_OPTIONS
        seen = []
        monkeypatch.setattr(cli, "solve_scop", lambda prob, h, opts, consts:
                            seen.append(opts) or solve_scop(prob, h, opts,
                                                            consts=consts))
        doc = scalar_doc(horizons=[2])
        assert run(["scop", "--config", write_cfg(tmp_path, doc)] + flags) == 0
        assert seen == [solver]

    def test_no_strict_start_is_a_solver_failure(self, tmp_path, monkeypatch,
                                                 capsys):
        # a budget above the cost floor is feasible; a start that is not
        # found is the solver's failure, not the budget's
        monkeypatch.setattr(UBProgram, "start", lambda self, eps: None)
        monkeypatch.setattr(SCOPProgram, "start", lambda self, eps: None)
        cfg = load_config(write_cfg(tmp_path, scalar_doc(horizons=[2])))
        prob = BudgetedProblem(cfg.model, cfg.weights, cfg.budget)
        with pytest.raises(SolverNonConvergence):
            solve_ub(prob)
        with pytest.raises(SolverNonConvergence):
            solve_scop(prob, 2)
        assert run(["scop", "--config", str(tmp_path / "cfg.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: SolverNonConvergence: ")

    def test_simulate_command(self, tmp_path, capsys):
        doc = scalar_doc()
        doc["sim"] = {"seed": 7, "trajectories": 40, "horizon": 800,
                      "burn_in": 80}
        code = run(["simulate", "--config", write_cfg(tmp_path, doc)])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: pass" in out

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lqgcap.cli", "check", "--config",
             str(SCALAR_CFG)], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "minimal LQG cost" in proc.stdout

    def test_lb_builds_one_ub_program(self, tmp_path, monkeypatch, capsys):
        doc = json.loads(VECTOR_CFG.read_text())
        doc["budget"] = 120.0
        path = write_cfg(tmp_path, doc)
        builds = []
        init = UBProgram.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(UBProgram, "__init__", counting_init)
        assert run(["lb", "--config", path]) == 0
        assert len(builds) == 1


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


LIBRARY_ERRORS = sorted({c for c in _subclasses(LqgcapError)
                         if c.__module__.startswith("lqgcap.")},
                        key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", LIBRARY_ERRORS, ids=lambda c: c.__name__)
def test_errors_survive_a_pickle_round_trip(cls):
    """A worker's error reaches the parent process pickled: it keeps its
    type, message and fields, with and without the optional arguments."""
    params = [p for p in inspect.signature(cls.__init__).parameters.values()
              if p.kind is p.POSITIONAL_OR_KEYWORD][1:]
    required = [p for p in params if p.default is p.empty]
    argsets = {len(required), len(params)} if params else {1}
    for n in argsets:
        err = cls(*[f"argument {i}" for i in range(n)])
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is cls
        assert str(back) == str(err) and vars(back) == vars(err)


def test_import_loads_numpy_only():
    """Runtime dependencies are numpy alone (pyproject.toml); scipy must not
    be pulled in by importing the package."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, lqgcap; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _readme_examples():
    text = (ROOT / "README.md").read_text()
    block = text.split("Example configs are bundled")[1].split("```")[1]
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


def test_readme_check_and_simulate_examples_run(tmp_path, monkeypatch, capsys):
    """The README's check and simulate lines run as written, after the
    lines that prepare their configs."""
    (tmp_path / "configs").symlink_to(ROOT / "configs")
    monkeypatch.chdir(tmp_path)
    ran = []
    for argv in _readme_examples():
        if argv[:2] == ["python", "-c"]:
            exec(argv[2], {})
        elif argv[0] == "lqgcap" and argv[1] in ("check", "simulate"):
            assert run(argv[1:]) == 0, shlex.join(argv)
            ran.append(argv[1])
    assert sorted(ran) == ["check", "simulate"]
    assert "verdict: pass" in capsys.readouterr().out


def test_readme_python_examples_run(capsys):
    """Every Python block of the README runs as written; the quick start
    prints both bounds, a CertifiedTight verdict and capacity_exact."""
    blocks = (ROOT / "README.md").read_text().split("```python\n")[1:]
    assert blocks
    for block in blocks:
        exec(block.split("```")[0], {})
    printed = capsys.readouterr().out.split()
    assert printed[2:] == ["CertifiedTight", "True"]
    assert float(printed[0]) == pytest.approx(float(printed[1]), abs=1e-6)
