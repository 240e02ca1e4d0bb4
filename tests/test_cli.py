"""End-to-end tests for the experiment runner CLI."""

import csv
import errno
import gc
import json
import math
import os
import subprocess
import sys
import tempfile
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cacheplace
from cacheplace import analytic
from cacheplace.analytic import db_to_linear, placement_cap
from cacheplace.cli import (
    CSV_COLUMNS,
    SpecError,
    _json_text,
    main,
    parse_spec,
    run_solve,
    run_sweep,
    run_validate,
)
from cacheplace.optimizer import mpc_placement
from cacheplace.simulator import SimConfig, simulate_file_hit, simulate_file_secrecy
from cacheplace.special import ConvergenceError


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def count_file_simulations(monkeypatch, seeds=None):
    """Record the p of every per-file simulation the CLI makes, per simulator.

    The seed of each call goes to seeds[name] too, if seeds is given.
    """
    calls = {"hit": [], "secrecy": []}
    for name, simulate in (("hit", simulate_file_hit),
                           ("secrecy", simulate_file_secrecy)):
        def counting(p, params, cfg, name=name, simulate=simulate):
            calls[name].append(list(p))
            if seeds is not None:
                seeds.setdefault(name, []).append(cfg.seed)
            return simulate(p, params, cfg)

        monkeypatch.setattr(f"cacheplace.cli.simulate_file_{name}", counting)
    return calls


# Each closed-form CSV column and the analytic function that gives it.
CLOSED_FORMS = {"hit_analytic": "conditional_hit_probability",
                "secrecy_lb": "secrecy_probability_lower_bound",
                "secrecy_exact": "secrecy_probability_exact"}


def count_closed_form_calls(monkeypatch):
    """Record the length of p of every per-file closed-form call the CLI makes."""
    calls = {name: [] for name in CLOSED_FORMS.values()}
    for name in CLOSED_FORMS.values():
        def counting(p, params, name=name, form=getattr(analytic, name)):
            calls[name].append(len(p))
            return form(p, params)

        monkeypatch.setattr(f"cacheplace.cli.{name}", counting)
    return calls


GOLDEN = Path(__file__).resolve().parent / "golden"
SIM_COLUMNS = ("hit_sim", "hit_ci", "secrecy_sim", "secrecy_ci")

SMALL_CATALOG = {"source": "inline", "F": 4, "beta": 0.7, "C": 2,
                 "epsilon": [0.1, 0.3, 0.2, 0.4]}


class TestParseSpec:
    def test_defaults(self):
        spec = parse_spec({})
        assert spec.catalog.file_count == 10
        assert spec.catalog.cache_size == 5
        assert spec.params.alpha == 3.0
        assert spec.params.gamma_u == pytest.approx(10 ** (-0.5))
        assert spec.sim is None
        assert spec.schemes == ["OCP", "MPC", "LCC"]

    def test_db_conversion_happens_once(self):
        spec = parse_spec({"params": {"gamma_e_db": -10.0}})
        assert spec.params.gamma_e == pytest.approx(0.1, rel=1e-12)
        assert spec.params_db["gamma_e_db"] == -10.0

    def test_cli_overrides_win(self):
        spec = parse_spec(
            {"sim": {"trials": 500, "seed": 3}}, seed=9, trials=42, out="x.csv"
        )
        assert spec.sim.trials == 42
        assert spec.sim.seed == 9
        assert spec.output == "x.csv"

    def test_no_sim_flag(self):
        spec = parse_spec({"sim": {"trials": 500}}, no_sim=True)
        assert spec.sim is None

    def test_sampled_catalog_deterministic(self):
        a = parse_spec({"catalog": {"source": "sampled", "seed": 5}})
        b = parse_spec({"catalog": {"source": "sampled", "seed": 5}})
        assert np.array_equal(a.catalog.secrecy_levels, b.catalog.secrecy_levels)

    def test_catalog_from_file(self, tmp_path):
        cat_doc = {"F": 3, "beta": 1.0, "epsilon": [0.1, 0.2, 0.3], "C": 1}
        cat_path = tmp_path / "catalog.json"
        cat_path.write_text(json.dumps(cat_doc))
        spec = parse_spec(
            {"catalog": {"source": "file", "path": "catalog.json"}},
            config_dir=str(tmp_path),
        )
        assert spec.catalog.file_count == 3
        assert spec.catalog.cache_size == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"sweep": {"variable": "bogus", "values": [1, 2]}},
            {"sweep": {"variable": "beta", "values": []}},
            {"sweep": {"variable": "beta", "values": [0.5, 0.5]}},
            {"schemes": ["XYZ"]},
            {"schemes": []},
            {"schemes": ["FIXED"]},
            {"catalog": {"source": "nope"}},
            {"catalog": {"source": "inline"}},
            {"fixed_policy": [0.5, 0.5]},
        ],
    )
    def test_invalid_specs(self, doc):
        with pytest.raises(SpecError):
            parse_spec(doc)

    def test_fixed_policy_scalar(self):
        spec = parse_spec(
            {"catalog": SMALL_CATALOG, "schemes": ["FIXED"], "fixed_policy": 0.5}
        )
        assert np.allclose(spec.fixed_policy, 0.5)
        assert len(spec.fixed_policy) == 4


class TestSweepCommand:
    def test_csv_and_sidecar(self, tmp_path):
        out = str(tmp_path / "result.csv")
        config = write_config(
            tmp_path,
            {
                "catalog": SMALL_CATALOG,
                "sweep": {"variable": "beta", "values": [0.2, 0.8]},
            },
        )
        assert main(["sweep", "--config", config, "--out", out, "--no-sim"]) == 0
        rows = read_csv(out)
        # 2 sweep points x 3 schemes x (4 files + 1 aggregate) rows.
        assert len(rows) == 2 * 3 * 5
        assert list(rows[0].keys()) == CSV_COLUMNS
        sim_cells = {row["hit_sim"] for row in rows}
        assert sim_cells == {""}
        sidecar = json.loads(Path(out + ".spec.json").read_text())
        assert sidecar["sweep"] == {"variable": "beta", "values": [0.2, 0.8]}
        assert sidecar["params"]["gamma_u_linear"] == pytest.approx(10 ** (-0.5))
        assert sidecar["params"]["gamma_u_db"] == -5.0

    def test_sidecar_is_json_dumps_text(self, tmp_path):
        out = str(tmp_path / "result.csv")
        doc = {
            # Unread keys are echoed as given, nested values and all.
            "params": {"note, \"x\"\n": ["a, b", {"c\\": [], "d": [1, "é"]}, {}]},
            "catalog": SMALL_CATALOG,
            "sweep": {"variable": "gamma_e", "values": [-10.0, 5.0]},
        }
        config = write_config(tmp_path, doc)
        assert main(["sweep", "--config", config, "--out", out, "--no-sim"]) == 0
        spec = parse_spec(doc, config_dir=str(tmp_path), out=out, no_sim=True)
        expected = json.dumps(spec.resolved_dict(), indent=2, sort_keys=True)
        assert Path(out + ".spec.json").read_text() == expected + "\n"

    def test_byte_identical_across_runs(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "catalog": SMALL_CATALOG,
                "sweep": {"variable": "D", "values": [100.0, 300.0]},
                "sim": {"trials": 60, "seed": 12},
            },
        )
        outputs = []
        for name in ("a.csv", "b.csv", "c.csv"):
            out = str(tmp_path / name)
            assert main(["sweep", "--config", config, "--out", out]) == 0
            outputs.append(Path(out).read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0] == outputs[2]

    def test_ocp_dominates_baselines_in_aggregate_rows(self, tmp_path):
        # Hit probabilities fall to ~1e-180 at D = 20.5 km and ~1e-266 at
        # 25 km, so OCP is compared relatively; its aggregate p_star is C
        # whenever the caps exceed C.
        catalog = {"source": "sampled", "F": 10, "C": 5, "epsilon_max": 0.5, "seed": 7}
        sweeps = {"beta": [0.1, 0.7, 1.3], "D": [200.0, 20500.0, 25000.0]}
        for variable, values in sweeps.items():
            out = str(tmp_path / f"{variable}.csv")
            config = write_config(
                tmp_path,
                {"catalog": catalog, "sweep": {"variable": variable, "values": values}},
            )
            assert main(["sweep", "--config", config, "--out", out, "--no-sim"]) == 0
            rows = read_csv(out)
            points = {r["sweep_value"] for r in rows}
            assert len(points) == len(values)
            for value in points:
                point = [r for r in rows if r["sweep_value"] == value]
                aggregate = {r["scheme"]: r for r in point if r["file_index"] == "0"}
                hit = {k: float(r["hit_analytic"]) for k, r in aggregate.items()}
                assert hit["OCP"] >= hit["MPC"] * (1.0 - 1e-12)
                assert hit["OCP"] >= hit["LCC"] * (1.0 - 1e-12)
                caps = sum(float(r["psi_cap"]) for r in point
                           if r["scheme"] == "OCP" and r["file_index"] != "0")
                if caps > 5.0:
                    assert float(aggregate["OCP"]["p_star"]) == pytest.approx(5.0, rel=1e-12)

    def test_gamma_e_sweep_monotone_secrecy(self, tmp_path):
        # Raising the eavesdropper threshold (in dB) makes interception
        # harder, so each file's secrecy probability must not decrease.
        config = write_config(
            tmp_path,
            {
                "catalog": SMALL_CATALOG,
                "schemes": ["FIXED"],
                "fixed_policy": 0.5,
                "sweep": {"variable": "gamma_e", "values": [-10.0, -5.0, 0.0]},
            },
        )
        out = str(tmp_path / "result.csv")
        assert main(["sweep", "--config", config, "--out", out, "--no-sim"]) == 0
        rows = [r for r in read_csv(out) if r["file_index"] == "1"]
        values = [float(r["secrecy_exact"]) for r in rows]
        assert values[0] <= values[1] <= values[2]

    def test_p_i_sweep_single_row_per_point(self, tmp_path, monkeypatch):
        calls = count_file_simulations(monkeypatch)
        config = write_config(
            tmp_path,
            {
                "catalog": SMALL_CATALOG,
                "sweep": {"variable": "p_i", "values": [0.2, 0.6, 1.0]},
                "sim": {"trials": 80, "seed": 1},
            },
        )
        out = str(tmp_path / "result.csv")
        assert main(["sweep", "--config", config, "--out", out]) == 0
        rows = read_csv(out)
        assert len(rows) == 3
        assert {r["scheme"] for r in rows} == {"FIXED"}
        for row in rows:
            assert row["hit_sim"] != ""
            assert row["secrecy_sim"] != ""
            assert float(row["secrecy_lb"]) <= float(row["secrecy_exact"]) + 1e-12
        # Every point comes from one scene set per simulator.
        assert calls == {"hit": [[0.2, 0.6, 1.0]], "secrecy": [[0.2, 0.6, 1.0]]}

    def test_aggregate_row_is_popularity_weighted_mean(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "catalog": SMALL_CATALOG,
                "sweep": {"variable": "beta", "values": [0.3, 0.7, 1.2]},
                "sim": {"trials": 200, "seed": 5},
            },
        )
        out = str(tmp_path / "result.csv")
        assert main(["sweep", "--config", config, "--out", out]) == 0
        rows = read_csv(out)
        sidecar = json.loads(Path(out + ".spec.json").read_text())
        ranks = np.arange(1, SMALL_CATALOG["F"] + 1)

        def zipf(beta):
            return ranks**-beta / np.sum(ranks**-beta)

        # The sidecar holds the catalog's own popularity; a beta sweep
        # re-weights it at each point.
        assert sidecar["catalog"]["popularity"] == pytest.approx(
            zipf(SMALL_CATALOG["beta"]).tolist(), abs=1e-12
        )
        # Each (point, scheme) is F per-file rows, then its aggregate row.
        size = SMALL_CATALOG["F"] + 1
        assert len(rows) == 3 * 3 * size
        for start in range(0, len(rows), size):
            block = rows[start:start + size]
            assert [r["file_index"] for r in block] == ["1", "2", "3", "4", "0"]
            *per_file, aggregate = block
            q = zipf(float(aggregate["sweep_value"]))
            for column in ("hit_analytic", "hit_sim", "hit_ci"):
                weighted = np.dot(q, [float(r[column]) for r in per_file])
                assert abs(float(aggregate[column]) - weighted) <= 1e-11

    def test_sweep_requires_sweep_section(self, tmp_path):
        config = write_config(tmp_path, {"catalog": SMALL_CATALOG})
        out = str(tmp_path / "result.csv")
        assert main(["sweep", "--config", config, "--out", out, "--no-sim"]) == 2

    def test_sweep_requires_output(self, tmp_path, capsys, monkeypatch):
        # The missing path is reported before any point is simulated.
        calls = count_file_simulations(monkeypatch)
        config = write_config(
            tmp_path,
            {"catalog": SMALL_CATALOG,
             "sweep": {"variable": "beta", "values": [0.5]},
             "sim": {"trials": 50}},
        )
        assert main(["sweep", "--config", config]) == 2
        assert "requires an output path" in capsys.readouterr().err
        assert calls == {"hit": [], "secrecy": []}

    @pytest.mark.parametrize("variable", ["beta", "D", "gamma_e", "p_i"])
    def test_no_sim_csv_matches_golden(self, tmp_path, variable):
        # tests/golden/sweep_<variable>.csv holds the --no-sim output of its
        # config: the closed-form cells must not move by a single digit.
        config = GOLDEN / f"sweep_{variable}.json"
        out = tmp_path / "result.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out), "--no-sim"]) == 0
        assert out.read_bytes() == (GOLDEN / f"sweep_{variable}.csv").read_bytes()

    @pytest.mark.parametrize(
        ("command", "config"),
        [("sweep", "sweep_beta_sim"), ("validate", "validate"),
         ("sweep", "sweep_gamma_e_sim")],
    )
    def test_seeded_csv_matches_golden(self, tmp_path, command, config):
        # tests/golden/<config>.csv holds the simulated output of its config
        # (64 trials; 300 for sweep_gamma_e_sim, whose 1500 m guard radius
        # walks rows through chunks 0-11 and pins the guard rounds, the walk,
        # the closing bound and the control past the first chunk): each
        # column's seed path must not move. The exit status
        # must agree with the report: the validate golden's hit and exact
        # secrecy rows pass, its loose secrecy lower bound fails at p = 0.8
        # (as in acceptance criterion 2), and validate exits 1.
        golden = (GOLDEN / f"{config}.csv").read_bytes()
        out = tmp_path / "result.csv"
        assert main([command, "--config", str(GOLDEN / f"{config}.json"),
                     "--out", str(out)]) == (b",fail," in golden)
        assert out.read_bytes() == golden

    def test_seeded_golden_without_simulated_cells_is_the_no_sim_csv(self, tmp_path):
        # Pins the closed-form cells of the seeded golden: blanking its four
        # simulated columns gives the --no-sim run of its config.
        out = tmp_path / "result.csv"
        assert main(["sweep", "--config", str(GOLDEN / "sweep_beta_sim.json"),
                     "--out", str(out), "--no-sim"]) == 0
        lines = (GOLDEN / "sweep_beta_sim.csv").read_text().splitlines()
        blank = [CSV_COLUMNS.index(column) for column in SIM_COLUMNS]
        blanked = [lines[0]] + [
            ",".join("" if i in blank else cell
                     for i, cell in enumerate(line.split(",")))
            for line in lines[1:]
        ]
        assert out.read_text() == "\n".join(blanked) + "\n"

    def test_one_placement_cap_per_point(self, monkeypatch):
        calls = []

        def counting(eps, params):
            calls.append(len(eps))
            return placement_cap(eps, params)

        monkeypatch.setattr("cacheplace.cli.placement_cap", counting)
        spec = parse_spec(
            {
                "catalog": SMALL_CATALOG,
                "sweep": {"variable": "D", "values": [100.0, 300.0]},
                "schemes": ["OCP", "MPC", "FIXED"],
                "fixed_policy": 0.5,
            }
        )
        rows = run_sweep(spec)
        assert calls == [4, 4]
        assert all(r["psi_cap"] is not None for r in rows)

    def test_sweep_checks_the_validate_section(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {"catalog": SMALL_CATALOG, "sweep": {"variable": "beta", "values": [0.5]},
             "validate": {"hit_tol": -1}},
        )
        out = str(tmp_path / "result.csv")
        assert main(["sweep", "--config", config, "--out", out, "--no-sim"]) == 2
        assert "error: validate.hit_tol must be finite and >= 0" in capsys.readouterr().err
        assert not os.path.exists(out)

    # Three points of each sweep, and the calls of each hit and each secrecy
    # quantity they need: every hit quantity reads all parameters but
    # gamma_e, and every secrecy quantity all but gamma_u.
    GROUP_VALUES = {"beta": [0.2, 0.8, 1.1], "gamma_e": [-10.0, -7.0, 0.0],
                    "D": [0.0, 100.0, 300.0]}
    GROUP_CALLS = [("beta", 1, 1), ("gamma_e", 1, 3), ("D", 3, 3)]

    @pytest.mark.parametrize(("variable", "hit_calls", "secrecy_calls"), GROUP_CALLS)
    def test_one_simulation_per_group(
        self, monkeypatch, variable, hit_calls, secrecy_calls
    ):
        # The hit simulator never reads gamma_e and the secrecy simulator
        # never reads gamma_u, so each groups the cells that agree on the rest.
        calls = count_file_simulations(monkeypatch)
        spec = parse_spec(
            {
                "catalog": SMALL_CATALOG,
                "sweep": {"variable": variable, "values": self.GROUP_VALUES[variable]},
                "schemes": ["OCP", "MPC"],
                "sim": {"trials": 5, "seed": 3},
            }
        )
        rows = run_sweep(spec)
        cells = 3 * 2 * SMALL_CATALOG["F"]
        assert [len(p) for p in calls["hit"]] == [cells // hit_calls] * hit_calls
        assert [len(p) for p in calls["secrecy"]] == (
            [cells // secrecy_calls] * secrecy_calls
        )
        assert all(r["secrecy_sim"] is not None for r in rows if r["file_index"])

    @pytest.mark.parametrize(("variable", "hit_calls", "secrecy_calls"), GROUP_CALLS)
    def test_one_closed_form_call_per_group(
        self, monkeypatch, variable, hit_calls, secrecy_calls
    ):
        # The closed forms are grouped by the same rule as the simulators.
        calls = count_closed_form_calls(monkeypatch)
        spec = parse_spec(
            {
                "catalog": SMALL_CATALOG,
                "sweep": {"variable": variable, "values": self.GROUP_VALUES[variable]},
                "schemes": ["OCP", "MPC"],
            }
        )
        run_sweep(spec)
        cells = 3 * 2 * SMALL_CATALOG["F"]
        assert calls == {
            "conditional_hit_probability": [cells // hit_calls] * hit_calls,
            "secrecy_probability_lower_bound": [cells // secrecy_calls] * secrecy_calls,
            "secrecy_probability_exact": [cells // secrecy_calls] * secrecy_calls,
        }

    def test_gamma_e_sweep_simulated_secrecy_is_monotone(self):
        # Every gamma_e point is walked on the same secrecy scenes, and each
        # trial's value only falls as the threshold rises, so the mean score
        # does not rise; with the control's smooth correction the simulated
        # secrecy still does not decrease, even in steps far below its CI.
        values = [round(-8.0 + 0.2 * i, 1) for i in range(11)]
        for seed in range(1, 6):
            spec = parse_spec(
                {
                    "catalog": SMALL_CATALOG,
                    "sweep": {"variable": "gamma_e", "values": values},
                    "schemes": ["FIXED"],
                    "fixed_policy": 0.5,
                    "sim": {"trials": 300, "seed": seed},
                }
            )
            rows = [r for r in run_sweep(spec) if r["file_index"]]
            for file in range(SMALL_CATALOG["F"]):
                secrecy = [r["secrecy_sim"] for r in rows[file::SMALL_CATALOG["F"]]]
                assert len(secrecy) == len(values)
                assert all(a <= b for a, b in zip(secrecy, secrecy[1:])), (seed, file)

    def test_equal_p_at_equal_params_gets_equal_cells(self):
        # MPC's placement does not depend on beta, and FIXED repeats it: all
        # four (point, scheme) cells place the files alike, and share scenes.
        spec = parse_spec({"catalog": SMALL_CATALOG})
        p = mpc_placement(spec.catalog, spec.params).p.tolist()
        spec = parse_spec(
            {
                "catalog": SMALL_CATALOG,
                "sweep": {"variable": "beta", "values": [0.5, 1.0]},
                "schemes": ["MPC", "FIXED"],
                "fixed_policy": p,
                "sim": {"trials": 40, "seed": 2},
            }
        )
        rows = run_sweep(spec)
        blocks = [rows[i:i + 4] for i in range(0, len(rows), 5)]
        assert len(blocks) == 4
        for block in blocks:
            assert [r["p_star"] for r in block] == p
            for column in SIM_COLUMNS:
                assert [r[column] for r in block] == [r[column] for r in blocks[0]]

    def test_run_sweep_row_order_is_point_major(self, tmp_path):
        spec = parse_spec(
            {
                "catalog": SMALL_CATALOG,
                "sweep": {"variable": "beta", "values": [0.2, 0.8]},
            }
        )
        rows = run_sweep(spec)
        seen_values = [row["sweep_value"] for row in rows]
        assert seen_values == sorted(seen_values)


class TestValidateCommand:
    def test_passes_with_enough_trials(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "catalog": SMALL_CATALOG,
                "sim": {"trials": 4000, "seed": 2},
                "validate": {
                    "hit_p": [0.5],
                    "secrecy_p": [0.2],
                    "hit_tol": 0.03,
                    "secrecy_tol": 0.03,
                },
            },
        )
        out = str(tmp_path / "validate.csv")
        assert main(["validate", "--config", config, "--out", out]) == 0
        rows = read_csv(out)
        assert all(r["status"] == "pass" for r in rows)
        assert os.path.exists(out + ".spec.json")

    def test_tiny_trials_flagged_ci_wide(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "catalog": SMALL_CATALOG,
                "validate": {"hit_p": [0.5], "secrecy_p": [0.5]},
            },
        )
        code = main(["validate", "--config", config, "--trials", "10"])
        captured = capsys.readouterr().out
        assert "ci-wide" in captured
        assert code in (0, 1)

    def test_one_secrecy_simulation_for_the_grid(self, monkeypatch):
        seeds = {}
        calls = count_file_simulations(monkeypatch, seeds)
        spec = parse_spec(
            {
                "catalog": SMALL_CATALOG,
                "sim": {"trials": 5, "seed": 3},
                "validate": {"hit_p": [0.5, 1.0], "secrecy_p": [0.2, 0.5, 0.8]},
            }
        )
        report, _ = run_validate(spec)
        assert calls == {"hit": [[0.5, 1.0]], "secrecy": [[0.2, 0.5, 0.8]]}
        # Both simulators get the run's own seed.
        assert seeds == {"hit": [3], "secrecy": [3]}
        assert len(report) == 2 * 4 + 2 * 3

    def test_sidecar_echoes_the_resolved_settings(self, tmp_path):
        config = write_config(
            tmp_path, {"catalog": SMALL_CATALOG, "sim": {"trials": 5, "seed": 1}}
        )
        out = str(tmp_path / "validate.csv")
        assert main(["validate", "--config", config, "--out", out]) in (0, 1)
        sidecar = json.loads(Path(out + ".spec.json").read_text())
        assert sidecar["validate"] == {
            "hit_p": [0.2, 0.5, 1.0], "secrecy_p": [0.2, 0.5, 0.8],
            "hit_tol": 0.01, "secrecy_tol": 0.015,
        }

    def test_dense_eavesdroppers_without_guard_zone_run(self, tmp_path):
        # Without a guard zone no eavesdropper is drawn, so none counts
        # against the simulator's memory bound.
        params = {"guard_radius": 0.0, "eaves_density": 100.0 / 800.0**2}
        config = write_config(
            tmp_path,
            {"params": params, "catalog": SMALL_CATALOG,
             "sim": {"trials": 200, "seed": 1}},
        )
        out = str(tmp_path / "validate.csv")
        assert main(["validate", "--config", config, "--out", out]) in (0, 1)
        assert os.path.exists(out)

    def test_requires_simulation(self, tmp_path):
        config = write_config(tmp_path, {"catalog": SMALL_CATALOG})
        assert main(["validate", "--config", config, "--no-sim"]) == 2

    @pytest.mark.parametrize(
        ("key", "value"),
        [("hit_tol", math.inf), ("hit_tol", math.nan), ("hit_tol", -1.0),
         ("secrecy_tol", math.inf), ("secrecy_tol", math.nan), ("secrecy_tol", -0.01)],
    )
    def test_bad_tolerance_exits_2(self, tmp_path, capsys, monkeypatch, key, value):
        # An infinite tolerance would pass every row, and a NaN or negative
        # one would quietly give way to ci.
        calls = count_file_simulations(monkeypatch)
        config = write_config(
            tmp_path,
            {"catalog": SMALL_CATALOG, "sim": {"trials": 50}, "validate": {key: value}},
        )
        out = str(tmp_path / "validate.csv")
        assert main(["validate", "--config", config, "--out", out]) == 2
        assert f"error: validate.{key} must be finite and >= 0" in capsys.readouterr().err
        assert calls == {"hit": [], "secrecy": []}
        assert not os.path.exists(out)

    def test_empty_grids_exit_2(self, tmp_path, capsys):
        # A report that compares no estimate is not a pass.
        config = write_config(
            tmp_path,
            {
                "catalog": SMALL_CATALOG,
                "sim": {"trials": 5},
                "validate": {"hit_p": [], "secrecy_p": []},
            },
        )
        out = str(tmp_path / "validate.csv")
        assert main(["validate", "--config", config, "--out", out]) == 2
        assert "both empty" in capsys.readouterr().err
        assert not os.path.exists(out)


@pytest.mark.parametrize("run", ["beta", "D", "gamma_e", "p_i", "validate"])
def test_every_simulated_cell_is_a_library_call_at_the_runs_sim(run):
    # One seed per run: each cell's simulated columns are the simulators' at
    # its p and params with spec.sim, bit for bit, whatever cells the CLI
    # batches with it.
    values = {"beta": [0.5, 1.0], "D": [0.0, 150.0, 300.0],
              "gamma_e": [-10.0, -7.0, 0.0], "p_i": [0.2, 0.6, 1.0]}.get(run)
    doc = {
        "catalog": SMALL_CATALOG,
        "schemes": ["OCP", "LCC", "FIXED"],
        "fixed_policy": 0.3,
        "sim": {"trials": 60, "seed": 9},
        "validate": {"hit_p": [0.2, 1.0], "secrecy_p": [0.3, 0.9]},
    }
    if values:
        doc["sweep"] = {"variable": run, "values": values}
    spec = parse_spec(doc)
    cells = []  # (simulator, p, params, the cell's (estimate, ci) per file)
    if run == "validate":
        report, _ = run_validate(spec)
        # Each p's estimate is repeated on the rows of every file (hit) and
        # of both secrecy forms; the rows of file 1 and of the exact form
        # carry it.
        for simulate, grid, rows in (
            (simulate_file_hit, "hit_p",
             [r for r in report if r["point"].endswith(" file=1")]),
            (simulate_file_secrecy, "secrecy_p",
             [r for r in report if r["quantity"] == "secrecy_exact"]),
        ):
            cells.append((simulate, spec.validate[grid], spec.params,
                          [(r["simulated"], r["ci"]) for r in rows]))
    else:
        rows = run_sweep(spec)
        if run == "p_i":  # one cell, whose p are the sweep's values
            groups = {None: rows}
        else:
            groups = {}
            for row in rows:
                if row["file_index"]:
                    key = (row["sweep_value"], row["scheme"])
                    groups.setdefault(key, []).append(row)
            assert len(groups) == len(values) * 3
        for key, group in groups.items():
            params = spec.params
            if run == "D":
                params = replace(params, guard_radius=key[0])
            elif run == "gamma_e":
                params = replace(params, gamma_e=db_to_linear(key[0]))
            p = [r["p_star"] for r in group]
            cells += [
                (simulate, p, params, [(r[f"{name}_sim"], r[f"{name}_ci"]) for r in group])
                for name, simulate in (("hit", simulate_file_hit),
                                       ("secrecy", simulate_file_secrecy))
            ]
    for simulate, p, params, observed in cells:
        est = simulate(p, params, spec.sim)
        assert observed == list(zip(est.estimate.tolist(), est.ci95_halfwidth.tolist()))


@pytest.mark.parametrize("variable", ["beta", "D", "gamma_e", "p_i"])
def test_every_closed_form_cell_is_a_library_call_on_its_own_p(variable):
    # Each cell's closed forms equal the library's on that cell's p alone,
    # bit for bit, whatever cells the CLI batches with it. 600 files and two
    # schemes make groups of 1,200 entries or more, which the exact secrecy
    # form evaluates in blocks of _DE_BLOCK, so a cell straddles a block edge.
    assert analytic._DE_BLOCK < 2 * 600
    values = {"beta": [0.5, 1.0], "D": [0.0, 200.0], "gamma_e": [-10.0, 0.0],
              "p_i": [0.0, 0.1, 0.5, 1.0]}[variable]
    spec = parse_spec(
        {
            "catalog": {"source": "sampled", "F": 600, "C": 60, "seed": 2},
            "sweep": {"variable": variable, "values": values},
            "schemes": ["OCP", "MPC"],
        }
    )
    groups = {}
    for row in run_sweep(spec):
        if row["file_index"] or variable == "p_i":
            groups.setdefault((row["sweep_value"], row["scheme"]), []).append(row)
    assert len(groups) == (len(values) if variable == "p_i" else 2 * len(values))
    for (value, _), group in groups.items():
        params = spec.params
        if variable == "D":
            params = replace(params, guard_radius=value)
        elif variable == "gamma_e":
            params = replace(params, gamma_e=db_to_linear(value))
        p = [r["p_star"] for r in group]
        for column, name in CLOSED_FORMS.items():
            expected = getattr(analytic, name)(p, params).tolist()
            assert [r[column] for r in group] == expected, (value, column)


class TestSolveCommand:
    def test_json_output(self, tmp_path, capsys):
        config = write_config(tmp_path, {"catalog": SMALL_CATALOG})
        out = str(tmp_path / "solution.json")
        assert main(["solve", "--config", config, "--out", out]) == 0
        doc = json.loads(Path(out).read_text())
        stdout_doc = json.loads(capsys.readouterr().out)
        assert doc == stdout_doc
        assert len(doc["p_star"]) == 4
        assert sum(doc["p_star"]) == pytest.approx(
            min(2.0, sum(doc["caps"])), abs=1e-8
        )
        assert doc["hit_probability"]["OCP"] >= doc["hit_probability"]["MPC"]
        assert doc["hit_probability"]["OCP"] >= doc["hit_probability"]["LCC"]
        assert all(s in ("capped", "interior", "zero") for s in doc["active_set"])

    @pytest.mark.parametrize(
        "doc",
        [
            {"catalog": {"source": "sampled", "F": 2000, "C": 100, "seed": 4}},
            # Caps that fit the budget (sum 1.42 <= C = 2): dual 0, no interior file.
            {"params": {"gamma_e_db": -20.0}, "catalog": SMALL_CATALOG},
        ],
    )
    def test_stdout_and_file_are_json_dumps_text(self, tmp_path, capsys, doc):
        config = write_config(tmp_path, doc)
        out = str(tmp_path / "solution.json")
        assert main(["solve", "--config", config, "--out", out]) == 0
        solution = run_solve(parse_spec(doc))
        expected = json.dumps(solution, indent=2, default=np.ndarray.tolist)
        assert capsys.readouterr().out == expected + "\n"
        assert Path(out).read_text() == expected + "\n"
        fits_budget = sum(solution["caps"]) <= doc["catalog"]["C"]
        assert (solution["dual"] == 0.0) == fits_budget
        assert ("interior" in solution["active_set"]) != fits_budget

    @pytest.mark.parametrize(
        "flags, sim",
        [(["--trials", "0"], {"trials": 10, "seed": 1}), ([], {"trials": "x"})],
    )
    def test_sim_settings_are_not_read(self, tmp_path, capsys, flags, sim):
        # solve never simulates: an invalid sim section or override is the
        # same as --no-sim.
        config = write_config(tmp_path, {"catalog": SMALL_CATALOG, "sim": sim})
        assert main(["solve", "--config", config, "--no-sim"]) == 0
        expected = capsys.readouterr().out
        assert main(["solve", "--config", config, *flags]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("config", ["solve_ties", "solve_sampled"])
    def test_output_matches_golden(self, tmp_path, capsys, config):
        # tests/golden/<config>.solution.json holds the solve output of its
        # config. solve_ties has 300 equally popular files (beta = 0) at four
        # secrecy levels, so MPC, LCC and the water-filling breakpoints all
        # sort tied keys, and every file is interior; solve_sampled has
        # capped, interior and zero files.
        golden = (GOLDEN / f"{config}.solution.json").read_bytes()
        out = tmp_path / "solution.json"
        assert main(["solve", "--config", str(GOLDEN / f"{config}.json"),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out.encode() == golden
        assert out.read_bytes() == golden


# Strings that json must escape, and ones holding the ", " separator.
JSON_STRINGS = st.text() | st.sampled_from(
    [", ", '"', "\\", "\n", "\x00", "é", "\u2028", "\ud800", '", "']
)
JSON_DOCUMENTS = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | JSON_STRINGS,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(JSON_STRINGS, children, max_size=5),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None, database=None)
@given(doc=JSON_DOCUMENTS, sort_keys=st.booleans())
def test_json_text_is_json_dumps_indent_2(doc, sort_keys):
    assert _json_text(doc, sort_keys=sort_keys) == json.dumps(
        doc, indent=2, sort_keys=sort_keys
    )


# Floats whose bits differ while they compare equal (0.0 and -0.0, NaNs with
# two payloads), non-finite ones, the least subnormal and a float whose repr
# has an exponent.
FLOAT_POOL = np.array(
    [0.0, -0.0, np.nan, np.uint64(0x7FF8000000000001).view(np.float64),
     np.inf, -np.inf, 5e-324, 1e16, 0.1, 1.0]
)
ARRAYS = st.lists(st.integers(0, len(FLOAT_POOL) - 1), max_size=12).map(
    lambda i: FLOAT_POOL[i]
) | st.sampled_from(
    # Empty and one-element float64; strided; other dtypes and shapes.
    [FLOAT_POOL[:0], FLOAT_POOL[2:3], FLOAT_POOL[::3], np.float32([0.1, -0.0]),
     np.arange(3), np.eye(2)]
)
STRING_LISTS = st.lists(JSON_STRINGS, min_size=1, max_size=3).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=12)
)


@settings(max_examples=200, deadline=None, database=None)
@given(leaf=ARRAYS | STRING_LISTS, key=JSON_STRINGS, sort_keys=st.booleans())
def test_json_text_encodes_arrays_and_string_lists_as_json_dumps(leaf, key, sort_keys):
    # Values repeat, so each distinct one is encoded once and reused.
    for doc in (leaf, {key: leaf}, {"a": {key: [leaf, 1]}, "b": leaf}):
        assert _json_text(doc, sort_keys=sort_keys) == json.dumps(
            doc, indent=2, sort_keys=sort_keys, default=np.ndarray.tolist
        )


def child_env():
    """The environment of a child Python that imports the package under test."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cacheplace.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_cli_import_leaves_scipy_out():
    # The package imports nothing from scipy, whose import alone about doubles
    # a fresh process's start-up time and memory; scipy is a test oracle only.
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, cacheplace.cli; "
         "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"],
        env=child_env(), capture_output=True, text=True, check=True, timeout=60,
    )
    assert result.stdout.strip() == "False"


class TestProcessExit:
    """A CLI process exits with every output written and flushed.

    main freezes the import heap so that exit need not walk it; these tests
    run the CLI as a process of its own, so that its exit is under test.
    """

    CLI = [sys.executable, "-m", "cacheplace.cli"]

    def run_cli(self, tmp_path, *args):
        return subprocess.run(
            self.CLI + list(args), cwd=tmp_path, env=child_env(),
            capture_output=True, text=True, timeout=120,
        )

    def test_solve_into_a_reader_that_stops_early(self, tmp_path):
        # About 170 kB of JSON, more than a pipe holds: the reader closes it
        # after 16 bytes, while the CLI is still printing.
        doc = {"catalog": {"source": "sampled", "F": 5000, "C": 250, "seed": 4}}
        config = write_config(tmp_path, doc)
        with open(tmp_path / "stderr", "wb") as err, subprocess.Popen(
            self.CLI + ["solve", "--config", config, "--out", "solution.json"],
            cwd=tmp_path, env=child_env(), stdout=subprocess.PIPE, stderr=err,
        ) as proc:
            head = proc.stdout.read(16)
            proc.stdout.close()
            assert proc.wait(timeout=120) == 0
        expected = json.dumps(
            run_solve(parse_spec(doc)), indent=2, default=np.ndarray.tolist
        ) + "\n"
        assert len(expected) > 2 * 2**16
        assert expected.encode().startswith(head)
        assert (tmp_path / "solution.json").read_text() == expected
        assert (tmp_path / "stderr").read_bytes() == b""

    def test_failed_validate_writes_its_whole_report(self, tmp_path, capsys):
        # At p = 1 the paper's secrecy bound lies about 0.035 below the
        # simulated secrecy, beyond the 0.015 floor: the run exits 1.
        config = write_config(
            tmp_path,
            {"catalog": SMALL_CATALOG, "sim": {"trials": 4000, "seed": 1},
             "validate": {"hit_p": [0.5], "secrecy_p": [1.0]}},
        )
        in_process = tmp_path / "in_process.csv"
        assert main(["validate", "--config", config, "--out", str(in_process)]) == 1
        printed = capsys.readouterr().out
        result = self.run_cli(tmp_path, "validate", "--config", config, "--out", "child.csv")
        assert result.returncode == 1
        assert (result.stdout, result.stderr) == (printed, "")
        assert (tmp_path / "child.csv").read_bytes() == in_process.read_bytes()
        sidecar = json.loads((tmp_path / "child.csv.spec.json").read_text())
        assert sidecar["sim"]["trials"] == 4000

    def test_invalid_input_prints_one_error_line(self, tmp_path):
        config = write_config(tmp_path, {"catalog": {**SMALL_CATALOG, "C": 9}})
        result = self.run_cli(tmp_path, "solve", "--config", config, "--out", "s.json")
        assert result.returncode == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: cache_size must be smaller")
        assert not (tmp_path / "s.json").exists()

    def test_collector_still_runs_after_main(self, tmp_path, capsys):
        # The first call freezes what is alive when it starts; the collector
        # stays on and still frees a cycle made after it returns, even one
        # dropped before a later call, which freezes nothing.
        config = write_config(tmp_path, {"catalog": SMALL_CATALOG})
        assert main(["solve", "--config", config]) == 0
        assert gc.isenabled()

        class Node:
            pass

        def dropped_cycle():
            node = Node()
            node.self = node
            return weakref.ref(node)

        ref = dropped_cycle()
        gc.collect()
        assert ref() is None
        ref, frozen = dropped_cycle(), gc.get_freeze_count()
        assert main(["solve", "--config", config]) == 0
        assert gc.get_freeze_count() == frozen
        gc.collect()
        assert ref() is None


class TestErrorHandling:
    def test_unread_tx_power_key_is_ignored(self, tmp_path):
        out = str(tmp_path / "r.csv")
        base = {"catalog": SMALL_CATALOG,
                "sweep": {"variable": "beta", "values": [0.5]}}
        plain = write_config(tmp_path, base, "plain.json")
        with_power = write_config(
            tmp_path, {**base, "params": {"tx_power": 5.0}}, "power.json"
        )
        assert main(["sweep", "--config", plain, "--out", out, "--no-sim"]) == 0
        expected = Path(out).read_bytes()
        assert main(["sweep", "--config", with_power, "--out", out, "--no-sim"]) == 0
        assert Path(out).read_bytes() == expected

    def test_guard_zone_overflow_exits_2(self, tmp_path, capsys):
        # pi * lambda_e * D^2 = 883.6 at D = 30 km overflows exp().
        config = write_config(
            tmp_path, {"catalog": SMALL_CATALOG, "params": {"guard_radius": 30000}}
        )
        assert main(["solve", "--config", config]) == 2
        assert "error:" in capsys.readouterr().err

    def test_guard_zone_near_tau2_limit_is_quiet(self, tmp_path, capsys):
        # pi * lambda_e * D^2 = 699.9 at D = 26.7 km: tau2 / p overflows, and
        # so does k in the exact form, or the active density underflows to 0
        # at p = 1e-15. Every secrecy cell is its limit 1, without warnings
        # (which the test configuration turns into errors).
        config = write_config(
            tmp_path,
            {"params": {"guard_radius": 26700},
             "sweep": {"variable": "p_i", "values": [1e-15, 1e-9, 0.5]}},
        )
        out = str(tmp_path / "out.csv")
        assert main(["sweep", "--config", config, "--out", out, "--no-sim"]) == 0
        assert capsys.readouterr().err == ""
        rows = read_csv(out)
        assert [row["hit_analytic"] for row in rows] == [
            "9.92182629978e-320", "9.92200515105e-314", "4.96100257556e-305"
        ]
        assert all(row["secrecy_lb"] == row["secrecy_exact"] == "1" for row in rows)

    def test_high_eavesdropper_threshold_solves(self, tmp_path, capsys):
        config = write_config(
            tmp_path, {"catalog": SMALL_CATALOG, "params": {"gamma_e_db": 70}}
        )
        assert main(["solve", "--config", config]) == 0
        doc = json.loads(capsys.readouterr().out)
        values = doc["p_star"] + doc["caps"] + [doc["dual"], doc["objective"]]
        assert all(np.isfinite(values))

    def test_missing_config_file(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["solve", "--config", missing]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        ("doc", "field"),
        [
            ({"params": {"bs_density": math.inf}}, "bs_density"),
            ({"params": {"eaves_density": math.nan}}, "eaves_density"),
            ({"catalog": {**SMALL_CATALOG, "epsilon": [0.1, math.nan, 0.2, 0.4]}},
             "secrecy_levels"),
            ({"catalog": SMALL_CATALOG, "schemes": ["FIXED"], "fixed_policy": math.nan,
              "sweep": {"variable": "beta", "values": [0.5]}}, "fixed_policy"),
        ],
    )
    def test_non_finite_input_exits_2(self, tmp_path, capsys, doc, field):
        config = write_config(tmp_path, {"catalog": SMALL_CATALOG, **doc})
        out = str(tmp_path / "r.csv")
        command = "sweep" if "sweep" in doc else "solve"
        assert main([command, "--config", config, "--out", out, "--no-sim"]) == 2
        assert f"error: {field}" in capsys.readouterr().err

    def test_closed_stdout_keeps_the_command_status(
        self, tmp_path, capsys, monkeypatch
    ):
        # capsys is set up first so that it is torn down last, after
        # monkeypatch has put its capture stream back as sys.stdout.
        # A reader that stops early (`cacheplace solve ... | head -2`) closes
        # stdout; that is not invalid input, and the output file is written.
        config = write_config(tmp_path, {"catalog": SMALL_CATALOG})
        out = tmp_path / "solution.json"
        with open(tmp_path / "stdout", "w") as sink:
            class ClosedPipe:
                def write(self, text):
                    raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

                def flush(self):
                    pass

                def fileno(self):
                    return sink.fileno()

            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            assert main(["solve", "--config", config, "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["p_star"]) == 4
        assert capsys.readouterr().err == ""

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {"catalog": SMALL_CATALOG,
             "sweep": {"variable": "beta", "values": [0.5]}},
        )
        out = str(tmp_path / "no-such-dir" / "r.csv")
        assert main(["sweep", "--config", config, "--out", out, "--no-sim"]) == 2
        assert "error:" in capsys.readouterr().err


class TestTypedConfig:
    """Values of the wrong JSON type exit 2 with an error naming their path."""

    @pytest.mark.parametrize(
        ("doc", "path"),
        [
            ({"params": {"alpha": None}}, "params.alpha"),
            ({"params": {"guard_radius": True}}, "params.guard_radius"),
            ({"params": [1]}, "params"),
            ({"catalog": {**SMALL_CATALOG, "epsilon": 0.1}}, "catalog.epsilon"),
            ({"catalog": {**SMALL_CATALOG, "epsilon": [0.1, "x", 0.2, 0.4]}},
             "catalog.epsilon[1]"),
            ({"catalog": {"F": 10.7}}, "catalog.F"),
            ({"catalog": {"C": True}}, "catalog.C"),
            ({"catalog": {"seed": "1"}}, "catalog.seed"),
            ({"catalog": {"source": "file", "path": 3}}, "catalog source 'file'"),
            ({"sweep": {"variable": "beta", "values": "0.5"}}, "sweep.values"),
            ({"sweep": [1]}, "sweep"),
            ({"schemes": "OCP"}, "schemes"),
            ({"fixed_policy": [0.5, None]}, "fixed_policy[1]"),
            ({"output": 1}, "output"),
            ({"sweep": []}, "sweep must be a JSON object, got []"),
            ({"sweep": False}, "sweep must be a JSON object, got False"),
            ({"sweep": {}}, "sweep variable must be one of"),
        ],
    )
    def test_wrong_type_exits_2(self, tmp_path, capsys, doc, path):
        config = write_config(tmp_path, doc)
        assert main(["solve", "--config", config]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}")

    def test_overflowing_zipf_exponent_exits_2(self, tmp_path, capsys):
        # i^beta leaves float range at beta = 400 for i >= 6: the error names
        # the key, its value and F instead of a bare OverflowError.
        config = write_config(tmp_path, {"catalog": {"F": 10, "C": 5, "beta": 400}})
        assert main(["solve", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err == "error: beta=400.0 is too large for F=10: F^beta overflows a float\n"

    def test_top_level_must_be_an_object(self, tmp_path, capsys):
        config = write_config(tmp_path, [1, 2])
        assert main(["solve", "--config", config]) == 2
        assert "error: the config must be a JSON object" in capsys.readouterr().err

    def test_non_integral_trials_exit_2(self, tmp_path, capsys):
        # A non-integral count is an error, never truncated.
        config = write_config(tmp_path, {"catalog": SMALL_CATALOG,
                                         "sim": {"trials": 2.5, "seed": 1}})
        assert main(["validate", "--config", config]) == 2
        assert "error: sim.trials must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [False, [], 0, "yes"])
    @pytest.mark.parametrize("command", ["sweep", "validate"])
    def test_sim_section_is_read_by_presence(self, tmp_path, capsys, command, value):
        # A sim section that is present and not null is read by type: one
        # that is not an object exits 2, and never turns simulation off.
        # solve and --no-sim never read it.
        config = write_config(tmp_path, {
            "catalog": SMALL_CATALOG, "sim": value,
            "sweep": {"variable": "beta", "values": [0.5]},
        })
        out = str(tmp_path / "out.csv")
        assert main([command, "--config", config, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: sim must be a JSON object, got {value!r}\n"
        assert main(["solve", "--config", config]) == 0
        assert main(["sweep", "--config", config, "--out", out, "--no-sim"]) == 0

    def test_empty_sim_section_simulates_at_the_defaults(self):
        assert parse_spec({"sim": {}}).sim == SimConfig()
        assert parse_spec({"sim": {"seed": 3}}).sim == SimConfig(seed=3)
        assert parse_spec({"sim": None}).sim is None
        assert parse_spec({"sim": {}}, no_sim=True).sim is None

    def test_catalog_past_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        # The allocation is patched, not made: on a host that overcommits
        # memory, a real request of terabytes could succeed and touch pages.
        def too_large(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr("cacheplace.cli.sample_secrecy_levels", too_large)
        config = write_config(tmp_path, {"catalog": {"F": 10**12, "C": 5}})
        assert main(["solve", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err == "error: MemoryError: Unable to allocate 7.28 TiB for an array\n"

    def test_integral_floats_still_count(self):
        spec = parse_spec({"catalog": {"F": 10.0, "C": 5.0},
                           "sim": {"trials": 20.0, "seed": 3.0}})
        assert spec.catalog.file_count == 10
        assert (spec.sim.trials, spec.sim.seed) == (20, 3)

    def test_catalog_file_is_read_by_type(self, tmp_path, capsys):
        (tmp_path / "catalog.json").write_text(
            json.dumps({"F": 3.5, "beta": 1.0, "epsilon": [0.1, 0.2, 0.3], "C": 1})
        )
        config = write_config(tmp_path, {"catalog": {"source": "file",
                                                     "path": "catalog.json"}})
        assert main(["solve", "--config", config]) == 2
        assert "catalog.json.F must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read catalog file"),
            ("{not json", "is not valid JSON"),
            ("[1, 2]", "must be a JSON object"),
        ],
        ids=["missing", "invalid-json", "array"],
    )
    def test_unreadable_catalog_file_exits_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "catalog.json"
        if content is not None:
            path.write_text(content)
        config = write_config(tmp_path, {"catalog": {"source": "file",
                                                     "path": "catalog.json"}})
        assert main(["solve", "--config", config]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert str(path) in err and message in err

    def test_catalog_file_missing_key_exits_2(self, tmp_path, capsys):
        (tmp_path / "catalog.json").write_text(json.dumps({"F": 4, "beta": 1.0, "C": 2}))
        config = write_config(tmp_path, {"catalog": {"source": "file",
                                                     "path": "catalog.json"}})
        assert main(["solve", "--config", config]) == 2
        assert "is missing key 'epsilon'" in capsys.readouterr().err

    def test_non_convergence_exits_2(self, tmp_path, capsys, monkeypatch):
        def over_budget(*args, **kwargs):
            raise ConvergenceError("quadrature error over budget", 0.5, 1e-3)

        monkeypatch.setattr("cacheplace.cli.solve_ocp", over_budget)
        config = write_config(tmp_path, {"catalog": SMALL_CATALOG})
        assert main(["solve", "--config", config]) == 2
        assert "error: ConvergenceError" in capsys.readouterr().err

    def test_secrecy_quadrature_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        # No rule meets a budget of 1e-300, which drives the error path.
        monkeypatch.setattr("cacheplace.analytic._DE_ERROR_BUDGET", 1e-300)
        config = write_config(
            tmp_path,
            {"catalog": SMALL_CATALOG,
             "sweep": {"variable": "gamma_e", "values": [-7.0]}},
        )
        out = str(tmp_path / "out.csv")
        assert main(["sweep", "--config", config, "--out", out, "--no-sim"]) == 2
        assert "error: ConvergenceError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("doc", "path"),
        [
            ({"params": {"gamma_e_db": 4000}}, "params.gamma_e_db"),
            ({"params": {"gamma_u_db": -4000}}, "params.gamma_u_db"),
            ({"sweep": {"variable": "gamma_e", "values": [-7.0, 4000]}},
             "sweep.values[1]"),
            ({"sweep": {"variable": "gamma_e", "values": [-4000, -7.0]}},
             "sweep.values[0]"),
        ],
    )
    def test_threshold_out_of_float_range_names_its_key(
        self, tmp_path, capsys, doc, path
    ):
        # 10^(dB / 10) overflows or underflows to 0 as a linear threshold.
        config = write_config(tmp_path, {"catalog": SMALL_CATALOG, **doc})
        argv = ["sweep", "--out", str(tmp_path / "r.csv")] if "sweep" in doc else ["solve"]
        assert main([*argv, "--config", config, "--no-sim"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} leaves float range in linear scale")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        ("argv", "doc", "message"),
        [
            (["solve"], {"validate": {"hit_p": [-0.5]}}, "validate.hit_p[0] must lie"),
            (["sweep", "--no-sim"], {"validate": {"hit_p": [0.5, -0.5]}},
             "validate.hit_p[1] must lie"),
            (["validate"], {"validate": {"secrecy_p": [1.5]}},
             "validate.secrecy_p[0] must lie"),
            (["validate"], {"validate": {"hit_p": [math.nan]}},
             "validate.hit_p[0] must lie"),
            (["sweep"], {"sweep": {"variable": "p_i", "values": [0.5, 1.5]}},
             "sweep.values[1] must lie"),
            (["solve"], {"schemes": ["FIXED"], "fixed_policy": [0.5, 2.0, 0.5, 0.5]},
             "fixed_policy[1] must lie"),
        ],
    )
    def test_probability_out_of_range_names_its_index(
        self, tmp_path, capsys, monkeypatch, argv, doc, message
    ):
        # Every command checks every caching probability of the config when
        # it reads it, before anything is evaluated or simulated.
        calls = count_file_simulations(monkeypatch)
        config = write_config(
            tmp_path,
            {"catalog": SMALL_CATALOG, "sweep": {"variable": "beta", "values": [0.5]},
             "sim": {"trials": 20, "seed": 1}, **doc},
        )
        out = tmp_path / "out"
        assert main([argv[0], "--config", config, "--out", str(out), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message} in [0, 1], got ")
        assert len(err.splitlines()) == 1
        assert calls == {"hit": [], "secrecy": []}
        assert not out.exists()

    @pytest.mark.parametrize(
        ("variable", "values", "index"),
        [
            ("beta", [0.5, -0.5], 1),
            ("beta", [math.nan], 0),
            ("beta", [0.5, math.inf], 1),
            ("D", [-5.0, 100.0], 0),
            ("D", [100.0, math.nan], 1),
            ("D", [100.0, 200.0, math.inf], 2),
        ],
    )
    def test_sweep_value_out_of_range_names_its_index(
        self, tmp_path, capsys, monkeypatch, variable, values, index
    ):
        # beta and D sweep values are read when the config is, so the error
        # names the value before any point is evaluated or simulated.
        calls = count_file_simulations(monkeypatch)
        config = write_config(
            tmp_path,
            {"catalog": SMALL_CATALOG,
             "sweep": {"variable": variable, "values": values},
             "sim": {"trials": 20, "seed": 1}},
        )
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        message = f"error: sweep.values[{index}] must be finite and >= 0, got "
        assert err.startswith(message)
        assert len(err.splitlines()) == 1
        assert calls == {"hit": [], "secrecy": []}
        assert not out.exists()

    def test_overflow_exits_2(self, tmp_path, capsys):
        # 2 ** 1e300 overflows in the Zipf weights; the error names beta.
        config = write_config(tmp_path, {"catalog": {"beta": 1e300}})
        assert main(["solve", "--config", config]) == 2
        assert "error: beta=1e+300 is too large for F=10" in capsys.readouterr().err


# Small magnitudes keep every generated catalog, sweep and simulation cheap.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 30)
    | st.floats(-50.0, 50.0)
    | st.sampled_from([math.nan, math.inf, -math.inf, 1e300])
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def sections(keys):
    """An arbitrary JSON value, or an object over some of the known keys."""
    known = st.dictionaries(st.sampled_from(keys), JSON_VALUES, max_size=len(keys))
    return known | JSON_VALUES


CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        "params": sections(["alpha", "bs_density", "eaves_density",
                            "guard_radius", "gamma_u_db", "gamma_e_db"]),
        "catalog": sections(["source", "F", "beta", "C", "epsilon",
                             "epsilon_max", "seed", "path"]),
        "sweep": sections(["variable", "values"])
        | st.fixed_dictionaries({
            "variable": st.sampled_from(["beta", "D", "gamma_e", "p_i"]),
            "values": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3,
                               unique=True).map(sorted),
        }),
        "schemes": JSON_VALUES
        | st.lists(st.sampled_from(["OCP", "MPC", "LCC", "FIXED"]), max_size=3),
        "fixed_policy": JSON_VALUES,
        "sim": sections(["trials", "seed"]),
        "validate": sections(["hit_p", "secrecy_p", "hit_tol", "secrecy_tol"]),
        "output": JSON_VALUES,
    },
)


@pytest.mark.parametrize(
    "argv", [["solve"], ["sweep", "--no-sim"], ["validate", "--trials", "5"]]
)
@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=CONFIGS | JSON_VALUES)
def test_any_json_config_keeps_the_exit_code_contract(argv, doc):
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "out")
        status = main([argv[0], "--config", config, "--out", out, *argv[1:]])
    assert status in ((0, 1, 2) if argv[0] == "validate" else (0, 2))
