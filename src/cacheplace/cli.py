"""Experiment runner: parameter sweeps, analytic-vs-simulation validation,
and single-instance placement solving, with reproducible CSV/JSON outputs.

Config files are JSON documents; lengths are in meters, densities per square
meter, and SIR thresholds in dB (converted to linear exactly once, here at
the boundary). Every table is built column by column from the array-valued
closed forms and per-file simulators, by one rule: each per-file quantity
is called once per group of (p, params) cells that agree on every parameter
it reads (hit quantities never read gamma_e, secrecy ones never gamma_u),
over the group's concatenated p. Each quantity works entry by entry, so
every cell equals, bit for bit, the library call at its own p and params.
A run has one seed: every simulated cell is simulate_file_hit or
simulate_file_secrecy with the spec's SimConfig, so the hit cells of a run
share their scenes, and so do its secrecy cells (common random numbers);
the library and the sidecar's sim echo reproduce any cell. Exit codes:
0 success, 1 validation failure, 2 invalid input (including a value of the
wrong JSON type, a caching probability outside [0, 1], an unwritable output
path, an SIR threshold out of floating-point range, and parameters that
drive a closed form out of floating-point range or a quadrature past its
error budget; a quadrature failure is raised for the whole group of cells
whose exact secrecy it evaluates).
A stdout closed by its reader ends the run quietly with the command's own
status, after every output file is written.
"""

import argparse
import csv
import gc
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .analytic import (
    NetworkParams,
    conditional_hit_probability,
    db_to_linear,
    hit_probability,
    placement_cap,
    secrecy_probability_exact,
    secrecy_probability_lower_bound,
)
from .catalog import FileCatalog, PlacementPolicy, make_catalog, sample_secrecy_levels
from .optimizer import lcc_placement, mpc_placement, solve_ocp
from .simulator import SimConfig, simulate_file_hit, simulate_file_secrecy
from .special import ConvergenceError

CSV_COLUMNS = [
    "sweep_var",
    "sweep_value",
    "scheme",
    "file_index",
    "p_star",
    "psi_cap",
    "hit_analytic",
    "hit_sim",
    "hit_ci",
    "secrecy_lb",
    "secrecy_exact",
    "secrecy_sim",
    "secrecy_ci",
]

# Reference defaults: alpha=3, lambda=1/800^2 per m^2, lambda_e=lambda/5,
# C=5, F=10, D=200 m, gamma_u=-5 dB, gamma_e=-7 dB.
DEFAULT_PARAMS = {
    "alpha": 3.0,
    "bs_density": 1.0 / 800.0**2,
    "eaves_density": 1.0 / 800.0**2 / 5.0,
    "guard_radius": 200.0,
    "gamma_u_db": -5.0,
    "gamma_e_db": -7.0,
}
DEFAULT_CATALOG = {"source": "sampled", "F": 10, "beta": 0.7, "C": 5,
                   "epsilon_max": 0.5, "seed": 1}
DEFAULT_VALIDATE = {"hit_p": [0.2, 0.5, 1.0], "secrecy_p": [0.2, 0.5, 0.8],
                    "hit_tol": 0.01, "secrecy_tol": 0.015}

SWEEP_VARIABLES = ("beta", "D", "gamma_e", "p_i")
SCHEMES = ("OCP", "MPC", "LCC", "FIXED")


class SpecError(ValueError):
    """The experiment specification is invalid or unreadable."""


@dataclass
class ExperimentSpec:
    """Fully resolved experiment description."""

    params: NetworkParams
    params_db: dict
    catalog: FileCatalog
    catalog_doc: dict
    sweep_var: str | None
    sweep_values: list
    schemes: list
    fixed_policy: np.ndarray | None
    sim: SimConfig | None
    output: str | None
    validate: dict

    def resolved_dict(self):
        """Echo of the spec with every derived quantity filled in."""
        return {
            "params": {
                **self.params_db,
                "gamma_u_linear": self.params.gamma_u,
                "gamma_e_linear": self.params.gamma_e,
            },
            "catalog": {
                **self.catalog_doc,
                "epsilon": self.catalog.secrecy_levels.tolist(),
                "popularity": self.catalog.popularity.tolist(),
            },
            "sweep": (
                {"variable": self.sweep_var, "values": list(self.sweep_values)}
                if self.sweep_var
                else None
            ),
            "schemes": list(self.schemes),
            "fixed_policy": (
                self.fixed_policy.tolist()
                if self.fixed_policy is not None
                else None
            ),
            "sim": (
                {"trials": self.sim.trials, "seed": self.sim.seed}
                if self.sim
                else None
            ),
            "validate": self.validate,
            "output": self.output,
        }


def _load_config(path, noun="config file"):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read {noun} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"{noun} {path} is not valid JSON: {exc}") from exc


def _object(value, path):
    if not isinstance(value, dict):
        raise SpecError(f"{path} must be a JSON object, got {value!r}")
    return value


def _number(value, path):
    """A JSON number (not a boolean) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{path} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SpecError(f"{path} is out of range, got {value!r}") from None


def _integer(value, path):
    """A JSON number with an exact integral value (not a boolean) as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{path} must be an integer, got {value!r}")
    if isinstance(value, float) and not (value.is_integer() and abs(value) < 2**53):
        raise SpecError(f"{path} must be an integer, got {value!r}")
    return int(value)


def _number_list(value, path, item=_number):
    """A JSON array of numbers as a list of floats, each read by item."""
    if not isinstance(value, (list, tuple)):
        raise SpecError(f"{path} must be a list of numbers, got {value!r}")
    return [item(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _probability(value, path):
    """A JSON number in [0, 1] (which rules out NaN) as a float."""
    value = _number(value, path)
    if not 0.0 <= value <= 1.0:
        raise SpecError(f"{path} must lie in [0, 1], got {value!r}")
    return value


def _threshold(value, path):
    """A JSON number of dB as a linear SIR threshold: a positive, finite float."""
    value = _number(value, path)
    try:
        linear = db_to_linear(value)
    except OverflowError:
        linear = np.inf
    if linear in (0.0, np.inf):
        raise SpecError(f"{path} leaves float range in linear scale, got {value!r} dB")
    return linear


def _build_catalog(doc, config_dir):
    source = doc.get("source", "sampled")
    where = "catalog"
    if source == "file":
        path = doc.get("path")
        if not path or not isinstance(path, str):
            raise SpecError("catalog source 'file' requires a 'path' string")
        if not os.path.isabs(path):
            path = os.path.join(config_dir, path)
        doc = _object(_load_config(path, "catalog file"), f"catalog file {path}")
        for key in ("F", "beta", "epsilon", "C"):
            if key not in doc:
                raise SpecError(f"catalog file {path} is missing key {key!r}")
        where = path
    elif source not in ("inline", "sampled"):
        raise SpecError(f"unknown catalog source {source!r}")
    merged = {**DEFAULT_CATALOG, **doc}
    file_count = _integer(merged["F"], f"{where}.F")
    if source == "sampled":
        epsilon = sample_secrecy_levels(
            file_count,
            _number(merged["epsilon_max"], f"{where}.epsilon_max"),
            _integer(merged["seed"], f"{where}.seed"),
        )
    elif "epsilon" not in doc:
        raise SpecError("catalog source 'inline' requires an 'epsilon' list")
    else:
        epsilon = _number_list(doc["epsilon"], f"{where}.epsilon")
    return make_catalog(
        file_count,
        _number(merged["beta"], f"{where}.beta"),
        epsilon,
        _integer(merged["C"], f"{where}.C"),
    )


def parse_spec(doc, config_dir=".", seed=None, trials=None, out=None, no_sim=False):
    """Validate a raw config document into an ExperimentSpec.

    Every value is read by type: numbers must be JSON numbers, counts
    integral ones, and lists JSON arrays; a SpecError names the JSON path of
    the first value that is not.
    """
    doc = _object(doc, "the config")
    params_db = {**DEFAULT_PARAMS, **_object(doc.get("params", {}), "params")}
    # NetworkParams' fields in order, with the thresholds converted to linear.
    params = NetworkParams(
        *(_number(params_db[key], f"params.{key}")
          for key in ("bs_density", "eaves_density", "alpha", "guard_radius")),
        *(_threshold(params_db[key], f"params.{key}")
          for key in ("gamma_u_db", "gamma_e_db")),
    )
    catalog_doc = _object(doc.get("catalog", {}), "catalog")
    catalog = _build_catalog(catalog_doc, config_dir)

    sweep_var, sweep_values = None, []
    if doc.get("sweep"):
        sweep = _object(doc["sweep"], "sweep")
        sweep_var = sweep.get("variable")
        sweep_values = _number_list(sweep.get("values", []), "sweep.values")
        if sweep_var not in SWEEP_VARIABLES:
            raise SpecError(
                f"sweep variable must be one of {SWEEP_VARIABLES}, got {sweep_var!r}"
            )
        if not sweep_values:
            raise SpecError("sweep values must be non-empty")
        if sweep_var in ("gamma_e", "p_i"):  # gamma_e values stay in dB
            check = _threshold if sweep_var == "gamma_e" else _probability
            for i, value in enumerate(sweep_values):
                check(value, f"sweep.values[{i}]")
        if any(b <= a for a, b in zip(sweep_values, sweep_values[1:])):
            raise SpecError("sweep values must be strictly increasing")

    schemes = doc.get("schemes", ["OCP", "MPC", "LCC"])
    if not isinstance(schemes, (list, tuple)):
        raise SpecError(f"schemes must be a list, got {schemes!r}")
    schemes = list(schemes)
    if not schemes:
        raise SpecError("schemes must be non-empty")
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise SpecError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")

    fixed_policy = None
    if doc.get("fixed_policy") is not None:
        raw = doc["fixed_policy"]
        if isinstance(raw, (list, tuple)):
            fixed_policy = np.asarray(_number_list(raw, "fixed_policy", _probability))
        else:
            fixed_policy = np.full(catalog.file_count, _probability(raw, "fixed_policy"))
        if len(fixed_policy) != catalog.file_count:
            raise SpecError("fixed_policy length must equal the catalog size")
    if "FIXED" in schemes and fixed_policy is None:
        raise SpecError("scheme FIXED requires a fixed_policy")

    sim = None
    if not no_sim and (doc.get("sim") or trials is not None or seed is not None):
        sim_doc = _object(doc.get("sim") or {}, "sim")
        if trials is None:
            trials = _integer(sim_doc.get("trials", SimConfig.trials), "sim.trials")
        if seed is None:
            seed = _integer(sim_doc.get("seed", SimConfig.seed), "sim.seed")
        sim = SimConfig(trials=trials, seed=seed)

    output = out if out is not None else doc.get("output")
    if output is not None and not isinstance(output, str):
        raise SpecError(f"output must be a path string, got {output!r}")

    validate = {**DEFAULT_VALIDATE, **_object(doc.get("validate", {}), "validate")}
    for key in ("hit_p", "secrecy_p"):
        validate[key] = _number_list(validate[key], f"validate.{key}", _probability)
    for key in ("hit_tol", "secrecy_tol"):  # max(ci, tol) needs a finite tol >= 0
        tol = validate[key] = _number(validate[key], f"validate.{key}")
        if not 0.0 <= tol < np.inf:
            raise SpecError(f"validate.{key} must be finite and >= 0, got {tol!r}")

    return ExperimentSpec(
        params=params,
        params_db=params_db,
        catalog=catalog,
        catalog_doc={**catalog_doc},
        sweep_var=sweep_var,
        sweep_values=sweep_values,
        schemes=schemes,
        fixed_policy=fixed_policy,
        sim=sim,
        output=output,
        validate=validate,
    )


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _file_columns(spec, cells, sides=("hit", "secrecy")):
    """Each (p, params) cell's columns of the given sides, as lists.

    hit is hit_analytic, hit_sim and hit_ci; secrecy is secrecy_lb,
    secrecy_exact, secrecy_sim and secrecy_ci, whose simulated columns are
    None without simulation. Each quantity is called once per group of cells
    whose params agree on all it reads, and each cell gets its slice.
    """
    # Looked up per call, so that the module's bindings (traced or patched)
    # are the ones called.
    quantities = {
        "hit": ("gamma_e", simulate_file_hit,
                {"hit_analytic": conditional_hit_probability}),
        "secrecy": ("gamma_u", simulate_file_secrecy,
                    {"secrecy_lb": secrecy_probability_lower_bound,
                     "secrecy_exact": secrecy_probability_exact}),
    }
    simulated = [f"{side}_{kind}" for side in sides for kind in ("sim", "ci")]
    columns = [dict.fromkeys(simulated) for _ in cells]
    for side in sides:
        unread, simulate, forms = quantities[side]
        groups = {}
        for i, (_, params) in enumerate(cells):
            groups.setdefault(replace(params, **{unread: 1.0}), []).append(i)
        for members in groups.values():
            p = np.concatenate([cells[i][0] for i in members])
            params = cells[members[0]][1]
            values = {name: form(p, params) for name, form in forms.items()}
            if spec.sim is not None:
                sim = simulate(p, params, spec.sim)
                values[f"{side}_sim"] = sim.estimate
                values[f"{side}_ci"] = sim.ci95_halfwidth
            ends = np.cumsum([len(cells[i][0]) for i in members])[:-1]
            for name, value in values.items():
                for i, part in zip(members, np.split(value, ends)):
                    columns[i][name] = part.tolist()
    return columns


def _point(spec, value):
    """(params, catalog, secrecy caps) at one point of a beta, D or gamma_e sweep."""
    params, catalog = spec.params, spec.catalog
    if spec.sweep_var == "beta":
        catalog = make_catalog(
            catalog.file_count, value, catalog.secrecy_levels, catalog.cache_size
        )
    elif spec.sweep_var == "D":
        params = replace(params, guard_radius=value)
    elif spec.sweep_var == "gamma_e":  # sweep values quoted in dB
        params = replace(params, gamma_e=db_to_linear(value))
    return params, catalog, placement_cap(catalog.secrecy_levels, params)


def _scheme_policy(scheme, catalog, params, fixed_policy=None):
    if scheme == "FIXED":
        return PlacementPolicy(fixed_policy)  # budget deliberately unchecked
    if scheme == "OCP":
        return solve_ocp(catalog, params).policy
    return (mpc_placement if scheme == "MPC" else lcc_placement)(catalog, params)


def _rows(columns):
    """CSV rows from columns: equal-length lists, or one value for every row."""
    n = max(len(v) for v in columns.values() if isinstance(v, list))
    full = {k: v if isinstance(v, list) else [v] * n for k, v in columns.items()}
    return [dict(zip(full, cells)) for cells in zip(*full.values())]


def _p_i_rows(spec):
    """One FIXED row per caching probability of a p_i sweep; schemes do not apply."""
    (columns,) = _file_columns(spec, [(spec.sweep_values, spec.params)])
    return _rows(
        {
            "sweep_var": "p_i",
            "sweep_value": list(spec.sweep_values),
            "scheme": "FIXED",
            "file_index": 0,
            "p_star": list(spec.sweep_values),
            "psi_cap": None,
            **columns,
        }
    )


def _scheme_rows(spec, value, scheme, catalog, caps, policy, columns):
    """Per-file rows of one (point, scheme), then its aggregate row (file 0)."""
    # Popularity-weighted per-file hits, the dot product hit_probability takes;
    # the weighted half-widths bound the weighted estimate's (README).
    aggregate = {
        name: float(np.dot(catalog.popularity, columns[name]))
        for name in ("hit_analytic", "hit_sim", "hit_ci")
        if columns[name] is not None
    }
    point = {"sweep_var": spec.sweep_var, "sweep_value": value, "scheme": scheme}
    rows = _rows(
        {
            **point,
            "file_index": list(range(1, catalog.file_count + 1)),
            "p_star": policy.p.tolist(),
            "psi_cap": caps.tolist(),
            **columns,
        }
    )
    rows.append(
        {
            **dict.fromkeys(CSV_COLUMNS),
            **point,
            "file_index": 0,
            "p_star": float(policy.p.sum()),
            "psi_cap": float(caps.sum()),
            **aggregate,
        }
    )
    return rows


def run_sweep(spec):
    """Evaluate every (sweep value, scheme) combination; returns CSV rows.

    Every (point, scheme) is placed first, so that each closed form and
    simulator resolves all of them that share its parameters in one call.
    """
    if spec.sweep_var is None:
        raise SpecError("sweep command requires a 'sweep' section in the config")
    if spec.sweep_var == "p_i":
        return _p_i_rows(spec)
    placed, cells = [], []  # (value, scheme, catalog, caps, policy), (p, params)
    for value in spec.sweep_values:
        params, catalog, caps = _point(spec, value)
        for scheme in spec.schemes:
            policy = _scheme_policy(scheme, catalog, params, spec.fixed_policy)
            placed.append((value, scheme, catalog, caps, policy))
            cells.append((policy.p, params))
    rows = []
    for cell, columns in zip(placed, _file_columns(spec, cells)):
        rows += _scheme_rows(spec, *cell, columns)
    return rows


def _write_csv(rows, columns, path):
    """A CSV of the given columns, one line per row, cells formatted by _fmt."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in columns])


def write_rows(rows, path):
    _write_csv(rows, CSV_COLUMNS, path)


_CONTAINERS = (dict, list, tuple, np.ndarray)


def _json_text(value, sort_keys=False, newline="\n"):
    """Exactly ``json.dumps(value, indent=2, sort_keys=sort_keys)``, for str keys.

    An ndarray is encoded as its ``tolist()``.

    With ``indent`` set, json encodes in pure Python, which takes longer than
    solving a large catalog. Here each object or array that holds no
    container goes through the C encoder in one call, with the line break
    and indentation in its item separator. The encoder writes that separator
    only between items, so a string that holds ", " cannot shift the layout.
    A 1-D float64 array and a list of str encode each distinct value once:
    float64 values are told apart by their bits, so -0.0 and 0.0 stay apart.
    Containers inside containers are walked here; ``newline`` is the line
    break and indentation that precede the closing bracket.
    """
    if isinstance(value, np.ndarray):
        if value.dtype != np.float64 or value.ndim != 1 or not value.size:
            return _json_text(value.tolist(), sort_keys, newline)
        distinct, inverse = np.unique(value.view(np.uint64), return_inverse=True)
        encoded = json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", ")
        return _json_items(np.array(encoded, dtype=object)[inverse].tolist(), newline)
    if not isinstance(value, _CONTAINERS) or not value:
        return json.dumps(value)
    inner = newline + "  "
    items = value.values() if isinstance(value, dict) else value
    kinds = set(map(type, items))
    if kinds == {str} and not isinstance(value, dict):
        encoded = {s: json.dumps(s) for s in set(value)}
        return _json_items(list(map(encoded.__getitem__, value)), newline)
    if not any(issubclass(kind, _CONTAINERS) for kind in kinds):
        text = json.dumps(value, sort_keys=sort_keys, separators=("," + inner, ": "))
        return "".join((text[0], inner, text[1:-1], newline, text[-1]))
    if isinstance(value, dict):
        pairs = sorted(value.items()) if sort_keys else value.items()
        parts = [
            json.dumps(k) + ": " + _json_text(v, sort_keys, inner) for k, v in pairs
        ]
        return _json_items(parts, newline, "{}")
    return _json_items([_json_text(v, sort_keys, inner) for v in value], newline)


def _json_items(parts, newline, brackets="[]"):
    """A non-empty container of encoded items, one per line, indented past newline."""
    inner = newline + "  "
    return "".join((brackets[0], inner, ("," + inner).join(parts), newline, brackets[1]))


def write_sidecar(spec, path):
    with open(path, "w") as fh:
        fh.write(_json_text(spec.resolved_dict(), sort_keys=True))
        fh.write("\n")


def _report_row(quantity, point, analytic, simulated, ci, floor):
    """One validate row: pass iff |analytic - simulated| <= max(ci, floor)."""
    tol = max(ci, floor)
    gap = abs(analytic - simulated)
    return {
        "quantity": quantity,
        "point": point,
        "analytic": analytic,
        "simulated": simulated,
        "ci": ci,
        "tolerance": tol,
        "gap": gap,
        "status": "pass" if gap <= tol else "fail",
        "note": "ci-wide" if ci > floor else "",
    }


def run_validate(spec):
    """Compare closed forms against Monte Carlo; returns (report_rows, ok)."""
    if spec.sim is None:
        raise SpecError("validate requires simulation (remove --no-sim / add 'sim')")
    hit_grid, secrecy_grid = spec.validate["hit_p"], spec.validate["secrecy_p"]
    hit_tol, secrecy_tol = spec.validate["hit_tol"], spec.validate["secrecy_tol"]
    if not hit_grid and not secrecy_grid:
        raise SpecError("validate.hit_p and validate.secrecy_p are both empty")

    (hit,) = _file_columns(spec, [(hit_grid, spec.params)], ["hit"])
    # Files at equal p share their closed form and, from shared scenes, their
    # estimate; the report keeps one row per file.
    report = [
        _report_row("hit", f"p={p:g} file={i + 1}", analytic, sim, ci, hit_tol)
        for p, analytic, sim, ci in zip(
            hit_grid, hit["hit_analytic"], hit["hit_sim"], hit["hit_ci"]
        )
        for i in range(spec.catalog.file_count)
    ]
    (secrecy,) = _file_columns(spec, [(secrecy_grid, spec.params)], ["secrecy"])
    report += [
        _report_row(name, f"p={p:g}", secrecy[name][j], secrecy["secrecy_sim"][j],
                    secrecy["secrecy_ci"][j], secrecy_tol)
        for j, p in enumerate(secrecy_grid)
        for name in ("secrecy_lb", "secrecy_exact")
    ]
    ok = all(row["status"] == "pass" for row in report)
    return report, ok


VALIDATE_COLUMNS = [
    "quantity", "point", "analytic", "simulated", "ci", "tolerance",
    "gap", "status", "note",
]


def write_validate_rows(report, path):
    _write_csv(report, VALIDATE_COLUMNS, path)


def run_solve(spec):
    """Solve the single-instance placement problem.

    Returns a dict for _json_text: p_star and caps are float64 arrays, the
    rest plain JSON values.
    """
    solution = solve_ocp(spec.catalog, spec.params)
    hits = {"OCP": solution.objective}
    for scheme in ("MPC", "LCC"):
        policy = _scheme_policy(scheme, spec.catalog, spec.params)
        hits[scheme] = hit_probability(policy, spec.catalog, spec.params)
    return {
        "p_star": solution.policy.p,
        "caps": solution.caps,
        "dual": solution.dual,
        "active_set": list(solution.active_set),
        "objective": solution.objective,
        "hit_probability": hits,
    }


def _add_common_flags(sub):
    sub.add_argument("--config", required=True, help="path to a JSON config file")
    sub.add_argument("--seed", type=int, default=None, help="override the sim seed")
    sub.add_argument(
        "--trials", type=int, default=None, help="override the sim trial count"
    )
    sub.add_argument("--out", default=None, help="output file path")
    sub.add_argument(
        "--no-sim", action="store_true", help="skip Monte Carlo simulation"
    )


def main(argv=None):
    # At a process's first call, what is alive (the imported modules) is
    # never garbage. Freezing it moves it to the collector's permanent
    # generation, so the collections at interpreter exit neither walk the
    # import heap nor free its cycles one object at a time. Later calls
    # freeze nothing, so that garbage an in-process caller holds stays
    # collectable. Every output is written and flushed before main returns.
    if not gc.get_freeze_count():
        gc.freeze()
    parser = argparse.ArgumentParser(
        prog="cacheplace",
        description=(
            "Hit/secrecy analysis and optimal content placement for "
            "cache-enabled stochastic networks"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("sweep", "run a parameter sweep and write a CSV result table"),
        ("validate", "compare closed forms against Monte Carlo estimates"),
        ("solve", "solve one placement instance and dump the solution"),
    ):
        _add_common_flags(subparsers.add_parser(name, help=help_text))
    args = parser.parse_args(argv)

    try:
        status, lines = _execute(args)
    except (SpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ConvergenceError) as exc:
        # The input drove a closed form out of floating-point range, or a
        # quadrature past its error budget.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (as `| head` does), which is not an
        # input error: every output file is already written. Point stdout at
        # devnull so that the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return status


def _execute(args):
    """Run one command and write its output files; returns (status, stdout lines)."""
    doc = _load_config(args.config)
    spec = parse_spec(
        doc,
        config_dir=os.path.dirname(os.path.abspath(args.config)),
        seed=args.seed,
        trials=args.trials,
        out=args.out,
        # solve never simulates, so it reads neither the sim section nor
        # the flags that override it.
        no_sim=args.no_sim or args.command == "solve",
    )
    if args.command == "sweep":
        if not spec.output:
            raise SpecError("sweep requires an output path (--out or 'output')")
        rows = run_sweep(spec)
        write_rows(rows, spec.output)
        write_sidecar(spec, spec.output + ".spec.json")
        return 0, [f"wrote {len(rows)} rows to {spec.output}"]
    if args.command == "validate":
        report, ok = run_validate(spec)
        if spec.output:
            write_validate_rows(report, spec.output)
            write_sidecar(spec, spec.output + ".spec.json")
        return 0 if ok else 1, [
            f"{row['status']:4s} {row['quantity']:14s} {row['point']:18s} "
            f"analytic={row['analytic']:.4f} sim={row['simulated']:.4f} "
            f"gap={row['gap']:.4f} tol={row['tolerance']:.4f} {row['note']}"
            for row in report
        ]
    text = _json_text(run_solve(spec))
    if spec.output:
        with open(spec.output, "w") as fh:
            fh.write(text)
            fh.write("\n")
    return 0, [text]


if __name__ == "__main__":
    sys.exit(main())
