"""Experiment runner: parameter sweeps, analytic-vs-simulation validation,
and single-instance placement solving, with reproducible CSV/JSON outputs.

Config files are JSON documents; lengths are in meters, densities per square
meter, and SIR thresholds in dB (converted to linear exactly once, here at
the boundary). Every table is built column by column from the array-valued
closed forms and per-file simulators. Simulation seeds are derived from the
master seed and the (point, scheme) path; all files of a scheme, all points
of a p_i sweep, and each validate grid share one simulated scene set, so
every output depends only on the seeds. Exit codes: 0 success, 1
validation failure, 2 invalid input (including a value of the wrong JSON
type, an unwritable output path, and parameters that drive a closed form
out of floating-point range or a quadrature past its error budget).
A stdout closed by its reader ends the run quietly with the command's own
status, after every output file is written.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .analytic import (
    NetworkParams,
    conditional_hit_probability,
    db_to_linear,
    hit_probability,
    secrecy_probability_exact,
    secrecy_probability_lower_bound,
)
from .catalog import FileCatalog, PlacementPolicy, make_catalog, sample_secrecy_levels
from .optimizer import lcc_placement, mpc_placement, placement_caps, solve_ocp
from .simulator import SimConfig, SimEstimate, simulate_file_hit, simulate_file_secrecy
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
    validate: dict = field(default_factory=dict)

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


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"config file {path} is not valid JSON: {exc}") from exc


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


def _number_list(value, path):
    """A JSON array of numbers as a list of floats."""
    if not isinstance(value, (list, tuple)):
        raise SpecError(f"{path} must be a list of numbers, got {value!r}")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _build_catalog(doc, config_dir):
    source = doc.get("source", "sampled")
    where = "catalog"
    if source == "file":
        path = doc.get("path")
        if not path or not isinstance(path, str):
            raise SpecError("catalog source 'file' requires a 'path' string")
        if not os.path.isabs(path):
            path = os.path.join(config_dir, path)
        try:
            with open(path) as fh:
                doc = _object(json.load(fh), f"catalog file {path}")
        except (OSError, json.JSONDecodeError) as exc:
            raise SpecError(f"cannot read catalog file {path}: {exc}") from exc
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
    params = NetworkParams.with_db_thresholds(
        **{
            key: _number(params_db[key], f"params.{key}")
            for key in (
                "bs_density", "eaves_density", "alpha", "guard_radius",
                "gamma_u_db", "gamma_e_db",
            )
        }
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
            fixed_policy = np.asarray(_number_list(raw, "fixed_policy"))
        else:
            fixed_policy = np.full(catalog.file_count, _number(raw, "fixed_policy"))
        if len(fixed_policy) != catalog.file_count:
            raise SpecError("fixed_policy length must equal the catalog size")
        if not np.all((fixed_policy >= 0) & (fixed_policy <= 1)):
            raise SpecError("fixed_policy entries must lie in [0, 1]")
    if "FIXED" in schemes and fixed_policy is None:
        raise SpecError("scheme FIXED requires a fixed_policy")

    sim = None
    if not no_sim and (doc.get("sim") or trials is not None or seed is not None):
        sim_doc = _object(doc.get("sim") or {}, "sim")
        if trials is None:
            trials = _integer(sim_doc.get("trials", 10_000), "sim.trials")
        if seed is None:
            seed = _integer(sim_doc.get("seed", 0), "sim.seed")
        sim = SimConfig(trials=trials, seed=seed)

    output = out if out is not None else doc.get("output")
    if output is not None and not isinstance(output, str):
        raise SpecError(f"output must be a path string, got {output!r}")

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
        validate=doc.get("validate", {}),
    )


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _sim_config(spec, *path):
    """The spec's trial count, seeded from its master seed and the given path."""
    seq = np.random.SeedSequence([int(spec.sim.seed)] + [int(x) for x in path])
    seed = int(seq.generate_state(1, np.uint64)[0])
    return SimConfig(trials=spec.sim.trials, seed=seed)


def _simulated(spec, p, params, *path):
    """Per-file (hit, secrecy) estimates at p seeded from (*path, 0 | 1), or Nones."""
    if spec.sim is None:
        return None, None
    return (
        simulate_file_hit(p, params, _sim_config(spec, *path, 0)),
        simulate_file_secrecy(p, params, _sim_config(spec, *path, 1)),
    )


def _point_params(spec, value):
    if spec.sweep_var == "D":
        return replace(spec.params, guard_radius=value)
    if spec.sweep_var == "gamma_e":  # sweep values quoted in dB
        return replace(spec.params, gamma_e=db_to_linear(value))
    return spec.params


def _point_catalog(spec, value):
    if spec.sweep_var == "beta":
        return make_catalog(
            spec.catalog.file_count,
            value,
            spec.catalog.secrecy_levels,
            spec.catalog.cache_size,
        )
    return spec.catalog


def _scheme_policy(scheme, catalog, params, caps, fixed_policy):
    if scheme == "OCP":
        return solve_ocp(catalog, params, caps).policy
    if scheme == "MPC":
        return mpc_placement(catalog, params, caps)
    if scheme == "LCC":
        return lcc_placement(catalog, params, caps)
    return PlacementPolicy(fixed_policy)  # FIXED: budget deliberately unchecked


def _rows(columns):
    """CSV rows from columns: equal-length lists, or one value for every row."""
    n = max(len(v) for v in columns.values() if isinstance(v, list))
    full = {k: v if isinstance(v, list) else [v] * n for k, v in columns.items()}
    return [dict(zip(full, cells)) for cells in zip(*full.values())]


def _file_columns(p, params, hit=None, secrecy=None):
    """Closed-form and simulated columns at the caching probabilities p."""
    columns = {
        "p_star": p.tolist(),
        "hit_analytic": conditional_hit_probability(p, params).tolist(),
        "secrecy_lb": secrecy_probability_lower_bound(p, params).tolist(),
        "secrecy_exact": secrecy_probability_exact(p, params).tolist(),
    }
    for name, est in (("hit", hit), ("secrecy", secrecy)):
        columns[f"{name}_sim"] = [e.estimate for e in est] if est else None
        columns[f"{name}_ci"] = [e.ci95_halfwidth for e in est] if est else None
    return columns


def _p_i_rows(spec):
    """One FIXED row per caching probability of a p_i sweep.

    Scheme labels do not apply; every point is resolved from one scene set
    per simulator.
    """
    p = np.asarray(spec.sweep_values)
    hit, secrecy = _simulated(spec, p, spec.params, 0, 0)
    return _rows(
        {
            "sweep_var": "p_i",
            "sweep_value": list(spec.sweep_values),
            "scheme": "FIXED",
            "file_index": 0,
            "psi_cap": None,
            **_file_columns(p, spec.params, hit, secrecy),
        }
    )


def _scheme_rows(spec, point_idx, value, scheme_idx, catalog, params, caps):
    """Per-file rows of one (point, scheme), then its aggregate row (file 0)."""
    scheme = spec.schemes[scheme_idx]
    policy = _scheme_policy(scheme, catalog, params, caps, spec.fixed_policy)
    hit, secrecy = _simulated(spec, policy.p, params, point_idx, scheme_idx)
    # The aggregate's simulated hit is the popularity-weighted per-file mean.
    aggregate = None if hit is None else SimEstimate.from_mean(
        np.dot(catalog.popularity, [e.estimate for e in hit]), spec.sim.trials
    )
    point = {"sweep_var": spec.sweep_var, "sweep_value": value, "scheme": scheme}
    rows = _rows(
        {
            **point,
            "file_index": list(range(1, catalog.file_count + 1)),
            "psi_cap": caps.tolist(),
            **_file_columns(policy.p, params, hit, secrecy),
        }
    )
    rows.append(
        {
            **dict.fromkeys(CSV_COLUMNS),
            **point,
            "file_index": 0,
            "p_star": float(policy.p.sum()),
            "psi_cap": float(caps.sum()),
            "hit_analytic": hit_probability(policy, catalog, params),
            "hit_sim": aggregate.estimate if aggregate else None,
            "hit_ci": aggregate.ci95_halfwidth if aggregate else None,
        }
    )
    return rows


def run_sweep(spec):
    """Evaluate every (sweep value, scheme) combination; returns CSV rows."""
    if spec.sweep_var is None:
        raise SpecError("sweep command requires a 'sweep' section in the config")
    if spec.sweep_var == "p_i":
        return _p_i_rows(spec)
    rows = []
    for point_idx, value in enumerate(spec.sweep_values):
        params = _point_params(spec, value)
        catalog = _point_catalog(spec, value)
        caps = placement_caps(catalog, params)
        for scheme_idx in range(len(spec.schemes)):
            rows += _scheme_rows(
                spec, point_idx, value, scheme_idx, catalog, params, caps
            )
    return rows


def write_rows(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in CSV_COLUMNS])


def write_sidecar(spec, path):
    with open(path, "w") as fh:
        json.dump(spec.resolved_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report_row(quantity, point, analytic, sim, floor):
    """One validate row: pass iff |analytic - sim| <= max(ci95, floor)."""
    tol = max(sim.ci95_halfwidth, floor)
    gap = abs(analytic - sim.estimate)
    return {
        "quantity": quantity,
        "point": point,
        "analytic": analytic,
        "simulated": sim.estimate,
        "ci": sim.ci95_halfwidth,
        "tolerance": tol,
        "gap": gap,
        "status": "pass" if gap <= tol else "fail",
        "note": "ci-wide" if sim.ci95_halfwidth > floor else "",
    }


def run_validate(spec):
    """Compare closed forms against Monte Carlo; returns (report_rows, ok).

    Each grid is simulated by one call, from one scene set.
    """
    if spec.sim is None:
        raise SpecError("validate requires simulation (remove --no-sim / add 'sim')")
    settings = _object(spec.validate, "validate")
    hit_grid = _number_list(settings.get("hit_p", [0.2, 0.5, 1.0]), "validate.hit_p")
    secrecy_grid = _number_list(
        settings.get("secrecy_p", [0.2, 0.5, 0.8]), "validate.secrecy_p"
    )
    hit_tol = _number(settings.get("hit_tol", 0.01), "validate.hit_tol")
    secrecy_tol = _number(settings.get("secrecy_tol", 0.015), "validate.secrecy_tol")
    if not hit_grid and not secrecy_grid:
        raise SpecError("validate.hit_p and validate.secrecy_p are both empty")
    params = spec.params

    hit = zip(
        hit_grid,
        conditional_hit_probability(hit_grid, params).tolist(),
        simulate_file_hit(hit_grid, params, _sim_config(spec, 0)),
    )
    # Files at equal p share their closed form and, from shared scenes, their
    # estimate; the report keeps one row per file.
    report = [
        _report_row("hit", f"p={p:g} file={i + 1}", analytic, sim, hit_tol)
        for p, analytic, sim in hit
        for i in range(spec.catalog.file_count)
    ]
    secrecy = zip(
        secrecy_grid,
        secrecy_probability_lower_bound(secrecy_grid, params).tolist(),
        secrecy_probability_exact(secrecy_grid, params).tolist(),
        simulate_file_secrecy(secrecy_grid, params, _sim_config(spec, 1)),
    )
    report += [
        _report_row(name, f"p={p:g}", analytic, sim, secrecy_tol)
        for p, lower, exact, sim in secrecy
        for name, analytic in (("secrecy_lb", lower), ("secrecy_exact", exact))
    ]
    ok = all(row["status"] == "pass" for row in report)
    return report, ok


VALIDATE_COLUMNS = [
    "quantity", "point", "analytic", "simulated", "ci", "tolerance",
    "gap", "status", "note",
]


def write_validate_rows(report, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(VALIDATE_COLUMNS)
        for row in report:
            writer.writerow([_fmt(row[col]) for col in VALIDATE_COLUMNS])


def run_solve(spec):
    """Solve the single-instance placement problem; returns a JSON-able dict."""
    solution = solve_ocp(spec.catalog, spec.params)
    mpc = mpc_placement(spec.catalog, spec.params, solution.caps)
    lcc = lcc_placement(spec.catalog, spec.params, solution.caps)
    return {
        "p_star": solution.policy.p.tolist(),
        "caps": solution.caps.tolist(),
        "dual": solution.dual,
        "active_set": list(solution.active_set),
        "objective": solution.objective,
        "hit_probability": {
            "OCP": solution.objective,
            "MPC": hit_probability(mpc, spec.catalog, spec.params),
            "LCC": hit_probability(lcc, spec.catalog, spec.params),
        },
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
        no_sim=args.no_sim,
    )
    if args.command == "sweep":
        rows = run_sweep(spec)
        if not spec.output:
            raise SpecError("sweep requires an output path (--out or 'output')")
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
    text = json.dumps(run_solve(spec), indent=2)
    if spec.output:
        with open(spec.output, "w") as fh:
            fh.write(text + "\n")
    return 0, [text]


if __name__ == "__main__":
    sys.exit(main())
