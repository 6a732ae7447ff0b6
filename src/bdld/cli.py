"""Command-line front end: runs the library's experiments, persists JSON
reports plus plot-ready CSV tables, and turns built-in checks into exit codes.

Exit codes: 0 success, 1 a built-in verdict failed, 2 usage error, 3 internal
error.  Identical specs (including the seed) reproduce byte-identical CSVs;
the JSON report additionally carries wall time, which is the only
non-reproducible field.

Settings may come from a JSON config file (--config), with explicit flags
taking precedence over file fields.  The BDLD_OUT environment variable sets
the default output directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .chain import (ModelParams, embedded_stationary, embedded_transition_row,
                    jump_rates, stationary_distribution)
from .evolve import (check_tol, empirical_rate_curve, stationary_dwell_probability,
                     window_probability)
from .ldp import GridPath, ProbeFunction, hamiltonian, prelimit_hamiltonian, rate_functional_report
from .optimal_paths import (ParabolaParams, dual_tilt, hamiltonian_residual,
                            sample_rows, solve_boundary)
from .serialize import write_csv, write_json
from .simulate import (SimConfig, lln_point_experiment, lln_stationary_experiment,
                       occupation_fractions, sample_path, tilted_window_experiment)

__all__ = ["ExperimentSpec", "Report", "UsageError", "run", "emit_figure_data", "main"]

_ORACLE_N_CAP = 20_000

_FIGURES = {
    "fig2": {"gamma0": [0.0], "gammaT": [0.1, 0.3, 0.5, 0.9], "horizon": 2.0,
             "columns": ("t", "gamma")},
    "fig3": {"gamma0": [0.5], "gammaT": [0.0, 0.3, 0.5, 0.7, 1.0], "horizon": 2.0,
             "columns": ("t", "gamma", "z", "kappa")},
}


class UsageError(ValueError):
    """Bad spec: wrong/missing field, reported with exit code 2."""


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    settings: dict
    out_dir: Path


@dataclass
class Report:
    kind: str
    spec: dict
    results: dict
    verdicts: dict
    provenance: dict
    tables: dict = field(default_factory=dict)  # name -> (header, rows)

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "spec": self.spec,
            "results": self.results,
            "verdicts": self.verdicts,
            "provenance": self.provenance,
        }


def run(spec: ExperimentSpec) -> Report:
    """Dispatch a spec to its handler and assemble the report."""
    handler = _HANDLERS.get(spec.kind)
    if handler is None:
        raise UsageError(f"unknown experiment kind {spec.kind!r}")
    t0 = time.perf_counter()
    results, verdicts, tables = handler(spec.settings)
    report = Report(
        kind=spec.kind,
        spec={"kind": spec.kind, "settings": spec.settings, "out": str(spec.out_dir)},
        results=results,
        verdicts=verdicts,
        provenance={
            "version": __version__,
            "seed": spec.settings.get("seed"),
            "wall_time_s": time.perf_counter() - t0,
        },
        tables=tables,
    )
    return report


def write_report(report: Report, out_dir: Path) -> None:
    out_dir = Path(out_dir)
    write_json(out_dir / "report.json", report.to_json_obj())
    for name, (header, rows) in report.tables.items():
        write_csv(out_dir / name, header, rows)


def emit_figure_data(report: Report, figure: str) -> dict:
    """Pull one CSV table per curve out of a path-producing report."""
    if figure not in _FIGURES:
        raise UsageError(f"unknown figure {figure!r}")
    if report.kind != "opt-path":
        raise UsageError(f"report of kind {report.kind!r} carries no figure data")
    if report.results.get("figure") != figure:
        raise UsageError(f"report holds figure {report.results.get('figure')!r}, not {figure!r}")
    bundle = {name: table for name, table in report.tables.items()
              if name.startswith(figure)}
    if not bundle:
        raise UsageError("report carries no curve tables")
    return bundle


# ---------------------------------------------------------------------------
# handlers: each returns (results, verdicts, tables)


def _params(settings) -> ModelParams:
    return ModelParams(int(settings["n"]), float(settings["lam"]))


def _run_stationary(settings):
    params = _params(settings)
    pi = stationary_distribution(params)
    residual = 0.0
    for m in range(1, params.n_states):
        up, _ = jump_rates(params, m)
        _, down = jump_rates(params, m + 1)
        residual = max(residual, abs(pi.prob(m) * up - pi.prob(m + 1) * down))
    results = {"n": params.n_states, "lambda": params.lam,
               "detailed_balance_residual": residual}
    verdicts = {"detailed_balance": residual <= 1e-12}
    tables = {"stationary.csv": (["state", "mass"], list(enumerate(pi.mass, start=1)))}
    return results, verdicts, tables


def _run_embedded(settings):
    params = _params(settings)
    if params.n_states < 2:
        raise UsageError("embedded chain requires n >= 2")
    pi_hat = embedded_stationary(params)
    flow = np.zeros(params.n_states)
    for m in range(1, params.n_states + 1):
        for target, prob in embedded_transition_row(params, m).items():
            flow[target - 1] += pi_hat.prob(m) * prob
    residual = float(np.abs(flow - pi_hat.mass).max())
    results = {"n": params.n_states, "fixed_point_residual": residual}
    verdicts = {"fixed_point": residual <= 1e-12}
    tables = {"embedded.csv": (["state", "mass"], list(enumerate(pi_hat.mass, start=1)))}
    return results, verdicts, tables


def _run_simulate(settings):
    params = _params(settings)
    config = SimConfig(horizon=float(settings["horizon"]), seed=int(settings["seed"]),
                       initial=settings["initial"])
    trajectory = sample_path(params, config)
    occupation = occupation_fractions(trajectory, params.n_states)
    tv = occupation.tv_distance(stationary_distribution(params))
    results = {"n": params.n_states, "jumps": trajectory.n_jumps,
               "occupation_tv_to_stationary": tv}
    tables = {
        "trajectory.csv": trajectory.csv_table(),
        "occupation.csv": (["state", "mass"], list(enumerate(occupation.mass, start=1))),
    }
    return results, {}, tables


def _run_lln_point(settings):
    params = _params(settings)
    config = SimConfig(horizon=float(settings["horizon"]), seed=int(settings["seed"]),
                       initial="stationary", replications=int(settings["reps"]))
    res = lln_point_experiment(params, float(settings["gamma0"]),
                               float(settings["eps"]), config)
    results = res.to_json_obj()
    verdicts = {"within_bound": res.estimate <= res.extra["bound"]}
    tables = {"lln_point.csv": (["estimate", "stderr", "bound", "replications"],
                                [(res.estimate, res.stderr, res.extra["bound"], res.replications)])}
    return results, verdicts, tables


def _oracle_tol(settings) -> float:
    """The --tol of an exact cross-check, validated before any Monte Carlo
    run spends its time."""
    tol = float(settings["tol"])
    try:
        check_tol(tol)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return tol


def _run_lln_stationary(settings):
    params = _params(settings)
    tol = _oracle_tol(settings)
    times = _parse_floats(settings["times"])
    if not times:
        raise UsageError("times must be a non-empty list")
    horizon = float(settings.get("horizon") or max(times))
    config = SimConfig(horizon=horizon, seed=int(settings["seed"]),
                       initial="stationary", replications=int(settings["reps"]))
    res = lln_stationary_experiment(params, float(settings["u"]), times, config)
    results = res.to_json_obj()
    verdicts = {}
    if params.n_states <= _ORACLE_N_CAP:
        exact = stationary_dwell_probability(params, float(settings["u"]), times, tol=tol)
        results["exact"] = exact
        slack = 3.0 * max(res.stderr, 1e-12)
        verdicts["matches_oracle"] = abs(res.estimate - exact) <= slack
    rows = [(res.estimate, res.stderr, results.get("exact", math.nan), res.replications)]
    tables = {"lln_stationary.csv": (["estimate", "stderr", "exact", "replications"], rows)}
    return results, verdicts, tables


def _run_rate_curve(settings):
    ladder = _parse_ints(settings["n_ladder"])
    if not ladder:
        raise UsageError("n_ladder must be a non-empty list of integers")
    lam = float(settings["lam"])
    gamma0, gammaT = float(settings["gamma0"]), float(settings["gamma_t"])
    horizon = float(settings["horizon"])
    half_width = float(settings["half_width"])
    from .optimal_paths import optimal_action
    action = optimal_action(gamma0, gammaT, horizon, lam, tol=1e-9)
    curve = empirical_rate_curve([ModelParams(n, lam) for n in ladder],
                                 gamma0, gammaT, horizon, half_width,
                                 tol=float(settings["tol"]))
    gaps = [abs(pt.rate - action) for pt in curve]
    results = {
        "I_ref": action,
        "curve": [{"n": pt.n, "a_n": pt.rate, "window_prob": pt.window_prob} for pt in curve],
        "gaps": gaps,
    }
    verdicts = {"gap_decreasing": all(a > b for a, b in zip(gaps, gaps[1:]))}
    rows = [(pt.n, pt.rate, pt.window_prob, action) for pt in curve]
    tables = {"rate_curve.csv": (["N", "a_N", "window_prob", "I_ref"], rows)}
    return results, verdicts, tables


def _solve_many(figure: str | None, settings):
    lam = float(settings["lam"])
    if figure is None:
        missing = [key for key in ("gamma0", "gamma_t") if settings.get(key) is None]
        if missing:
            raise UsageError(f"opt-path: missing required setting(s): {', '.join(missing)} "
                             "(or give --figure)")
        horizon = float(settings["horizon"])
        pairs = [(float(settings["gamma0"]), float(settings["gamma_t"]))]
    else:
        fig = _FIGURES[figure]
        horizon = fig["horizon"]
        pairs = [(g0, gT) for g0 in fig["gamma0"] for gT in fig["gammaT"]]
    return [(g0, gT, solve_boundary(g0, gT, horizon, lam)) for g0, gT in pairs]


def _run_opt_path(settings):
    figure = settings.get("figure")
    if figure is not None and figure not in _FIGURES:
        raise UsageError(f"unknown figure {figure!r} (choose from {sorted(_FIGURES)})")
    solved = _solve_many(figure, settings)
    grid = int(settings["grid"])
    if grid < 2:
        raise UsageError(f"grid must be >= 2, got {grid}")
    columns = _FIGURES[figure]["columns"] if figure else ("t", "gamma", "z", "kappa")
    results = {"figure": figure, "paths": []}
    tables = {}
    worst_residual = 0.0
    worst_boundary = 0.0
    for g0, gT, params in solved:
        res_g, res_k = hamiltonian_residual(params, grid_size=min(grid, 1000))
        worst_residual = max(worst_residual, res_g, res_k)
        worst_boundary = max(worst_boundary,
                             abs(params.value(0.0) - g0),
                             abs(params.value(params.horizon) - gT))
        results["paths"].append({**params.to_json_obj(),
                                 "residual_gamma": res_g, "residual_kappa": res_k})
        rows = sample_rows(params, n_points=grid)
        rows = [row[:len(columns)] for row in rows]
        prefix = f"{figure}_" if figure else "path_"
        tables[f"{prefix}gamma0_{g0:g}_gammaT_{gT:g}.csv"] = (list(columns), rows)
    results["max_residual"] = worst_residual
    results["max_boundary_error"] = worst_boundary
    verdicts = {"residuals": worst_residual <= 1e-8,
                "boundary": worst_boundary <= 1e-10}
    return results, verdicts, tables


def _run_action(settings):
    lam = float(settings["lam"])
    tol = float(settings["tol"])
    if settings.get("path_csv"):
        path = GridPath.from_csv(settings["path_csv"])
    elif settings.get("parabola_json"):
        with open(settings["parabola_json"]) as fh:
            params = ParabolaParams.from_json_obj(json.load(fh))
        path = GridPath.from_descriptor(params, 0.0, params.horizon)
    else:
        params = solve_boundary(float(settings["gamma0"]), float(settings["gamma_t"]),
                                float(settings["horizon"]), lam)
        path = GridPath.from_descriptor(params, 0.0, params.horizon)
    report = rate_functional_report(path, lam, tol=tol)
    verdicts = {"quadrature_converged":
                math.isinf(report["I"]) or report["quadrature_error_estimate"] <= 10 * tol}
    tables = {"action.csv": (["I", "quadrature_error_estimate", "grid_size"],
                             [(report["I"], report["quadrature_error_estimate"],
                               report["grid_size"])])}
    return report, verdicts, tables


def _run_tilted_mc(settings):
    params = _params(settings)
    tol = _oracle_tol(settings)
    lam = params.lam
    gamma0, gammaT = float(settings["gamma0"]), float(settings["gamma_t"])
    horizon = float(settings["horizon"])
    half_width = float(settings["half_width"])
    n = params.n_states
    m0 = round(gamma0 * n)
    window = (max(1, round((gammaT - half_width) * n)),
              min(n, round((gammaT + half_width) * n)))
    parabola = solve_boundary(gamma0, gammaT, horizon, lam)
    tilt = dual_tilt(parabola)
    config = SimConfig(horizon=horizon, seed=int(settings["seed"]), initial=m0,
                       replications=int(settings["reps"]))
    res = tilted_window_experiment(params, tilt, window, config)
    results = res.to_json_obj()
    verdicts = {}
    if n <= _ORACLE_N_CAP:
        exact = window_probability(params, m0, horizon, range(window[0], window[1] + 1), tol=tol)
        results["exact"] = exact
        verdicts["matches_oracle"] = abs(res.estimate - exact) <= 3.0 * max(res.stderr, 1e-15)
    rows = [(res.estimate, res.stderr, results.get("exact", math.nan), res.replications)]
    tables = {"tilted_mc.csv": (["estimate", "stderr", "exact", "replications"], rows)}
    return results, verdicts, tables


def _run_hconv(settings):
    ladder = _parse_ints(settings["n_ladder"])
    if len(ladder) < 2:
        raise UsageError("n_ladder needs at least two sizes to measure halving")
    lam = float(settings["lam"])
    probe = ProbeFunction(fn=lambda x: 0.5 * (1.0 - x) ** 2,
                          deriv=lambda x: x - 1.0,
                          zero_derivative_at_one=True)
    errors = []
    for n in ladder:
        params = ModelParams(n, lam)
        worst = 0.0
        for j in range(1, n + 1):
            gamma = j / n
            gap = abs(prelimit_hamiltonian(probe, params, gamma)
                      - hamiltonian(gamma, probe.deriv(gamma), lam))
            worst = max(worst, gap)
        errors.append(worst)
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    results = {"ladder": ladder, "sup_errors": errors, "ratios": ratios}
    verdicts = {"halving": all(1.7 <= r <= 2.3 for r in ratios)}
    rows = list(zip(ladder, errors))
    tables = {"hconv.csv": (["N", "sup_error"], rows)}
    return results, verdicts, tables


_HANDLERS = {
    "stationary": _run_stationary,
    "embedded": _run_embedded,
    "simulate": _run_simulate,
    "lln-point": _run_lln_point,
    "lln-stationary": _run_lln_stationary,
    "rate-curve": _run_rate_curve,
    "opt-path": _run_opt_path,
    "action": _run_action,
    "tilted-mc": _run_tilted_mc,
    "hconv": _run_hconv,
}


# ---------------------------------------------------------------------------
# argument handling

_DEFAULTS = {
    "stationary": {"lam": 1.0},
    "embedded": {"lam": 1.0},
    "simulate": {"lam": 1.0, "seed": 0, "initial": "stationary"},
    "lln-point": {"lam": 1.0, "horizon": 1.0, "seed": 0, "reps": 1000},
    "lln-stationary": {"lam": 1.0, "seed": 0, "reps": 1000,
                       "times": "0.25,0.5,0.75,1.0", "tol": 1e-10, "horizon": None},
    "rate-curve": {"lam": 1.0, "horizon": 1.0, "half_width": 0.02, "tol": 1e-12},
    "opt-path": {"lam": 1.0, "horizon": 2.0, "grid": 201, "figure": None},
    "action": {"lam": 1.0, "tol": 1e-9, "path_csv": None, "parabola_json": None},
    "tilted-mc": {"lam": 1.0, "horizon": 1.0, "half_width": 0.02, "seed": 0,
                  "reps": 10000, "tol": 1e-12},
    "hconv": {"lam": 1.0, "n_ladder": "100,200,400,800,1600"},
}

_REQUIRED = {
    "stationary": ["n"],
    "embedded": ["n"],
    "simulate": ["n", "horizon"],
    "lln-point": ["n", "gamma0", "eps"],
    "lln-stationary": ["n", "u"],
    "rate-curve": ["n_ladder", "gamma0", "gamma_t"],
    "opt-path": [],
    "action": [],
    "tilted-mc": ["n", "gamma0", "gamma_t"],
    "hconv": [],
}


def _parse_floats(text) -> list[float]:
    if isinstance(text, (list, tuple)):
        return [float(x) for x in text]
    return [float(x) for x in str(text).split(",") if x.strip()]


def _parse_ints(text) -> list[int]:
    if isinstance(text, (list, tuple)):
        return [int(x) for x in text]
    return [int(x) for x in str(text).split(",") if x.strip()]


def _initial_arg(text: str):
    return text if text == "stationary" else int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdld",
        description="Birth-death chain analytics, simulation and large-deviation experiments.")
    parser.add_argument("--version", action="version", version=f"bdld {__version__}")
    sub = parser.add_subparsers(dest="kind", required=True)

    def add(kind: str, help_text: str, extra):
        p = sub.add_parser(kind, help=help_text)
        p.add_argument("--config", type=str, default=None,
                       help="JSON file with settings; flags override its fields")
        p.add_argument("--out", type=str, default=None,
                       help="output directory (default: $BDLD_OUT or '.')")
        p.add_argument("--n", dest="n", type=int, default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--horizon", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        extra(p)
        return p

    add("stationary", "stationary law of the chain", lambda p: None)
    add("embedded", "stationary law of the embedded jump chain", lambda p: None)
    add("simulate", "sample one trajectory", lambda p: p.add_argument(
        "--initial", type=_initial_arg, default=None,
        help='state index or "stationary"'))

    def lln_point_args(p):
        p.add_argument("--gamma0", type=float, default=None)
        p.add_argument("--eps", type=float, default=None)
    add("lln-point", "sup-deviation probability from a point start", lln_point_args)

    def lln_st_args(p):
        p.add_argument("--u", type=float, default=None)
        p.add_argument("--times", type=str, default=None,
                       help="comma-separated sample times")
    add("lln-stationary", "below-threshold probability from stationarity", lln_st_args)

    def rate_curve_args(p):
        p.add_argument("--n-ladder", dest="n_ladder", type=str, default=None)
        p.add_argument("--gamma0", type=float, default=None)
        p.add_argument("--gamma-t", dest="gamma_t", type=float, default=None)
        p.add_argument("--half-width", dest="half_width", type=float, default=None)
    add("rate-curve", "finite-N decay rates against the optimal action", rate_curve_args)

    def opt_path_args(p):
        p.add_argument("--gamma0", type=float, default=None)
        p.add_argument("--gamma-t", dest="gamma_t", type=float, default=None)
        p.add_argument("--grid", type=int, default=None)
        p.add_argument("--figure", type=str, default=None, choices=sorted(_FIGURES))
    add("opt-path", "closed-form optimal paths (optionally a figure bundle)", opt_path_args)

    def action_args(p):
        p.add_argument("--gamma0", type=float, default=None)
        p.add_argument("--gamma-t", dest="gamma_t", type=float, default=None)
        p.add_argument("--path-csv", dest="path_csv", type=str, default=None)
        p.add_argument("--parabola-json", dest="parabola_json", type=str, default=None)
    add("action", "action integral of a path", action_args)

    def tilted_args(p):
        p.add_argument("--gamma0", type=float, default=None)
        p.add_argument("--gamma-t", dest="gamma_t", type=float, default=None)
        p.add_argument("--half-width", dest="half_width", type=float, default=None)
    add("tilted-mc", "importance-sampling window probability", tilted_args)

    add("hconv", "prelimit-generator convergence sweep", lambda p: p.add_argument(
        "--n-ladder", dest="n_ladder", type=str, default=None))
    return parser


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    kind = args.kind
    settings = dict(_DEFAULTS[kind])
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        settings.update(loaded)
    skip = {"kind", "config", "out"}
    for key, value in vars(args).items():
        if key not in skip and value is not None:
            settings[key] = value
    missing = [key for key in _REQUIRED[kind] if settings.get(key) is None]
    if missing:
        raise UsageError(f"{kind}: missing required setting(s): {', '.join(missing)}")
    if kind == "action" and not (settings.get("path_csv") or settings.get("parabola_json")):
        for key in ("gamma0", "gamma_t", "horizon"):
            if settings.get(key) is None:
                raise UsageError("action: give --gamma0/--gamma-t/--horizon, "
                                 "or --path-csv, or --parabola-json")
    out_dir = Path(args.out or os.environ.get("BDLD_OUT") or ".")
    return ExperimentSpec(kind=kind, settings=settings, out_dir=out_dir)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code) if exc.code else 0
    try:
        spec = _spec_from_args(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(spec)
        write_report(report, spec.out_dir)
    except ValueError as exc:
        # UsageError and the library's contract violations both mean the
        # spec was bad, not that the tool broke.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    for name, ok in report.verdicts.items():
        print(f"[{'PASS' if ok else 'FAIL'}] {spec.kind}: {name}")
    print(f"report written to {spec.out_dir / 'report.json'}")
    return 0 if report.passed else 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
