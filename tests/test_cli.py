"""End-to-end tests for the experiment runner CLI."""

import csv
import errno
import json
import math
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad_vec

from cacheplace.cli import (
    CSV_COLUMNS,
    SpecError,
    main,
    parse_spec,
    run_sweep,
    run_validate,
)
from cacheplace.simulator import simulate_file_hit, simulate_file_secrecy
from cacheplace.special import ConvergenceError


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def count_file_simulations(monkeypatch):
    """Record the p of every per-file simulation the CLI makes, per simulator."""
    calls = {"hit": [], "secrecy": []}
    for name, simulate in (("hit", simulate_file_hit),
                           ("secrecy", simulate_file_secrecy)):
        def counting(p, params, cfg, name=name, simulate=simulate):
            calls[name].append(list(p))
            return simulate(p, params, cfg)

        monkeypatch.setattr(f"cacheplace.cli.simulate_file_{name}", counting)
    return calls


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
        sidecar = json.loads(open(out + ".spec.json").read())
        assert sidecar["sweep"] == {"variable": "beta", "values": [0.2, 0.8]}
        assert sidecar["params"]["gamma_u_linear"] == pytest.approx(10 ** (-0.5))
        assert sidecar["params"]["gamma_u_db"] == -5.0

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
            outputs.append(open(out, "rb").read())
        assert outputs[0] == outputs[1]
        assert outputs[0] == outputs[2]

    def test_ocp_dominates_baselines_in_aggregate_rows(self, tmp_path):
        out = str(tmp_path / "result.csv")
        config = write_config(
            tmp_path,
            {
                "catalog": {"source": "sampled", "F": 10, "C": 5,
                            "epsilon_max": 0.5, "seed": 7},
                "sweep": {"variable": "beta", "values": [0.1, 0.7, 1.3]},
            },
        )
        assert main(["sweep", "--config", config, "--out", out, "--no-sim"]) == 0
        rows = [r for r in read_csv(out) if r["file_index"] == "0"]
        for value in ["0.1", "0.7", "1.3"]:
            by_scheme = {
                r["scheme"]: float(r["hit_analytic"])
                for r in rows
                if r["sweep_value"] == value
            }
            assert by_scheme["OCP"] >= by_scheme["MPC"] - 1e-12
            assert by_scheme["OCP"] >= by_scheme["LCC"] - 1e-12

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
        sidecar = json.loads(open(out + ".spec.json").read())
        trials = sidecar["sim"]["trials"]
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
            mean = float(aggregate["hit_sim"])
            q = zipf(float(aggregate["sweep_value"]))
            weighted = float(np.dot(q, [float(r["hit_sim"]) for r in per_file]))
            assert abs(mean - weighted) <= 1e-11
            half = 1.96 * math.sqrt(mean * (1.0 - mean) / trials)
            assert abs(float(aggregate["hit_ci"]) - half) <= 1e-11

    def test_sweep_requires_sweep_section(self, tmp_path):
        config = write_config(tmp_path, {"catalog": SMALL_CATALOG})
        out = str(tmp_path / "result.csv")
        assert main(["sweep", "--config", config, "--out", out, "--no-sim"]) == 2

    def test_sweep_requires_output(self, tmp_path):
        config = write_config(
            tmp_path,
            {"catalog": SMALL_CATALOG,
             "sweep": {"variable": "beta", "values": [0.5]}},
        )
        assert main(["sweep", "--config", config, "--no-sim"]) == 2

    def test_one_secrecy_simulation_per_point_and_scheme(self, monkeypatch):
        calls = []

        def counting(p, params, cfg):
            calls.append(len(p))
            return simulate_file_secrecy(p, params, cfg)

        monkeypatch.setattr("cacheplace.cli.simulate_file_secrecy", counting)
        spec = parse_spec(
            {
                "catalog": SMALL_CATALOG,
                "sweep": {"variable": "beta", "values": [0.2, 0.8]},
                "schemes": ["OCP", "MPC"],
                "sim": {"trials": 5, "seed": 3},
            }
        )
        rows = run_sweep(spec)
        assert calls == [4] * 4
        assert all(r["secrecy_sim"] is not None for r in rows if r["file_index"])

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
        calls = count_file_simulations(monkeypatch)
        spec = parse_spec(
            {
                "catalog": SMALL_CATALOG,
                "sim": {"trials": 5, "seed": 3},
                "validate": {"hit_p": [0.5, 1.0], "secrecy_p": [0.2, 0.5, 0.8]},
            }
        )
        report, _ = run_validate(spec)
        assert calls == {"hit": [[0.5, 1.0]], "secrecy": [[0.2, 0.5, 0.8]]}
        assert len(report) == 2 * 4 + 2 * 3

    def test_requires_simulation(self, tmp_path):
        config = write_config(tmp_path, {"catalog": SMALL_CATALOG})
        assert main(["validate", "--config", config, "--no-sim"]) == 2

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


class TestSolveCommand:
    def test_json_output(self, tmp_path, capsys):
        config = write_config(tmp_path, {"catalog": SMALL_CATALOG})
        out = str(tmp_path / "solution.json")
        assert main(["solve", "--config", config, "--out", out]) == 0
        doc = json.loads(open(out).read())
        stdout_doc = json.loads(capsys.readouterr().out)
        assert doc == stdout_doc
        assert len(doc["p_star"]) == 4
        assert sum(doc["p_star"]) == pytest.approx(
            min(2.0, sum(doc["caps"])), abs=1e-8
        )
        assert doc["hit_probability"]["OCP"] >= doc["hit_probability"]["MPC"]
        assert doc["hit_probability"]["OCP"] >= doc["hit_probability"]["LCC"]
        assert all(s in ("capped", "interior", "zero") for s in doc["active_set"])


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
        expected = open(out, "rb").read()
        assert main(["sweep", "--config", with_power, "--out", out, "--no-sim"]) == 0
        assert open(out, "rb").read() == expected

    def test_guard_zone_overflow_exits_2(self, tmp_path, capsys):
        # pi * lambda_e * D^2 = 883.6 at D = 30 km overflows exp().
        config = write_config(
            tmp_path, {"catalog": SMALL_CATALOG, "params": {"guard_radius": 30000}}
        )
        assert main(["solve", "--config", config]) == 2
        assert "error:" in capsys.readouterr().err

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
        self, tmp_path, monkeypatch, capsys
    ):
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
        ],
    )
    def test_wrong_type_exits_2(self, tmp_path, capsys, doc, path):
        config = write_config(tmp_path, doc)
        assert main(["solve", "--config", config]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}")

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
        def failing(f, a, b, **kwargs):
            value, err, info = quad_vec(f, a, b, **kwargs)
            info.status, info.message = 1, "maximum number of subintervals reached"
            return value, err, info

        monkeypatch.setattr("cacheplace.analytic.integrate.quad_vec", failing)
        config = write_config(
            tmp_path,
            {"catalog": SMALL_CATALOG,
             "sweep": {"variable": "gamma_e", "values": [-7.0]}},
        )
        out = str(tmp_path / "out.csv")
        assert main(["sweep", "--config", config, "--out", out, "--no-sim"]) == 2
        assert "error: ConvergenceError" in capsys.readouterr().err

    def test_overflow_exits_2(self, tmp_path, capsys):
        # 2 ** 1e300 overflows in the Zipf weights.
        config = write_config(tmp_path, {"catalog": {"beta": 1e300}})
        assert main(["solve", "--config", config]) == 2
        assert "error: OverflowError" in capsys.readouterr().err


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
