"""Command-line front end: runs the library's experiments, persists JSON
reports plus plot-ready CSV tables, and turns built-in checks into exit codes.

``main(argv)``, the Python entry, is the one pipeline: it parses argv, takes
the flags set (``_given``), normalises them (``_normalise``), runs the
subcommand's handler, writes its CSV tables and ``report.json``, prints the
verdicts and returns the exit code: 0 success, 1 a built-in verdict failed,
2 usage error (a library ValueError included), 3 internal error.  The same
settings (seed included) reproduce byte-identical CSVs; the report's
``timings`` are its only non-reproducible field.

Each subcommand declares the settings it reads, once, in ``_COMMANDS``; it
takes only those flags, and argparse refuses (exit 2) any other.  The
BDLD_OUT environment variable sets the default output directory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .chain import (ModelParams, embedded_stationary, embedded_transition_row,
                    jump_rates, stationary_distribution)
from .evolve import (_exit_probability, _window_mass, check_tol, empirical_rate_curve,
                     lattice_window, stationary_dwell_probability)
from .ldp import GridPath, hamiltonian, prelimit_hamiltonian, rate_functional_report
from .optimal_paths import (PathCase, dual_tilt, hamiltonian_residual, optimal_action,
                            sample_rows, solve_boundary)
from .serialize import write_csv, write_json
from .simulate import (STREAM_VERSION, SimConfig, _lln_band, lln_point_experiment,
                       lln_stationary_experiment, occupation_fractions, sample_path,
                       tilted_window_experiment)

__all__ = ["UsageError", "main"]

_ORACLE_N_CAP = 20_000

_FIGURES = {
    "fig2": {"gamma0": [0.0], "gammaT": [0.1, 0.3, 0.5, 0.9], "horizon": 2.0,
             "columns": ("t", "gamma")},
    "fig3": {"gamma0": [0.5], "gammaT": [0.0, 0.3, 0.5, 0.7, 1.0], "horizon": 2.0,
             "columns": ("t", "gamma", "z", "kappa")},
}


class UsageError(ValueError):
    """Bad settings: a wrong or missing field, reported with exit code 2."""


# ---------------------------------------------------------------------------
# handlers: each returns (results, verdicts, tables)


def _params(settings) -> ModelParams:
    return ModelParams(settings["n"], settings["lam"])


def _run_stationary(settings):
    params = _params(settings)
    pi = stationary_distribution(params)
    residual = 0.0
    for m in range(1, params.n_states):
        up, _ = jump_rates(params, m)
        _, down = jump_rates(params, m + 1)
        residual = max(residual, abs(pi.prob(m) * up - pi.prob(m + 1) * down))
    residual /= params.lam  # per unit lambda: both flows scale with it
    results = {"n": params.n_states, "lambda": params.lam,
               "detailed_balance_residual": residual}
    verdicts = {"detailed_balance": residual <= 1e-12}
    tables = {"stationary.csv": pi.csv_table()}
    return results, verdicts, tables


def _run_embedded(settings):
    params = _params(settings)
    pi_hat = embedded_stationary(params)
    flow = np.zeros(params.n_states)
    for m in range(1, params.n_states + 1):
        for target, prob in embedded_transition_row(params, m).items():
            flow[target - 1] += pi_hat.prob(m) * prob
    residual = float(np.abs(flow - pi_hat.mass).max())
    results = {"n": params.n_states, "fixed_point_residual": residual}
    verdicts = {"fixed_point": residual <= 1e-12}
    tables = {"embedded.csv": pi_hat.csv_table()}
    return results, verdicts, tables


def _run_simulate(settings):
    params = _params(settings)
    config = SimConfig(horizon=settings["horizon"], seed=settings["seed"],
                       initial=settings["initial"])
    trajectory = sample_path(params, config)
    occupation = occupation_fractions(trajectory, params.n_states)
    tv = occupation.tv_distance(stationary_distribution(params))
    results = {"n": params.n_states, "jumps": trajectory.n_jumps,
               "occupation_tv_to_stationary": tv}
    tables = {
        "trajectory.csv": trajectory.csv_table(),
        "occupation.csv": occupation.csv_table(),
    }
    return results, {}, tables


def _run_lln_point(settings):
    params = _params(settings)
    m0, lo, hi = _lln_band(params, settings["gamma0"], settings["eps"])
    exact = _oracle_value(params, lambda: _exit_probability(
        params, m0, settings["horizon"], lo, hi, 1e-12))
    config = SimConfig(horizon=settings["horizon"], seed=settings["seed"],
                       replications=settings["reps"])
    res = lln_point_experiment(params, settings["gamma0"], settings["eps"], config)
    results, verdicts, tables = _against_oracle(
        res, "lln_point.csv", exact, _binomial_agrees(res.extra["hits"], res.replications), "bound")
    verdicts["within_bound"] = res.estimate <= res.extra["bound"]
    return results, verdicts, tables


def _oracle_value(params: ModelParams, exact_value):
    """exact_value() when N <= _ORACLE_N_CAP, else None.  It is called
    before the Monte Carlo run, whose time is wasted if it fails."""
    return exact_value() if params.n_states <= _ORACLE_N_CAP else None


def _against_oracle(res, table: str, exact, agrees, *extra: str):
    """Results, verdicts and tables of a Monte Carlo estimate: the exact
    value from _oracle_value (None above the cap), and the verdict
    agrees(exact) that the estimate is consistent with it.  The table's
    row holds the extra fields named in extra after the exact value."""
    results = res.to_json_obj()
    verdicts = {}
    if exact is not None:
        results["exact"] = exact
        verdicts["matches_oracle"] = agrees(exact)
    rows = [(res.estimate, res.stderr, results.get("exact", math.nan),
             *(res.extra[key] for key in extra), res.replications)]
    return results, verdicts, {table: (["estimate", "stderr", "exact", *extra, "replications"], rows)}


def _binomial_two_sided(k: int, n: int, p: float) -> float:
    """The exact two-sided binomial test of k successes in n trials against
    p: the probability under Binomial(n, p) of the outcomes no likelier than
    k, up to a relative 1e-7 (scipy.stats.binomtest's rule)."""
    p = min(max(p, 0.0), 1.0)
    if p in (0.0, 1.0):
        return float(k == n * p)
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(n + 1)

    def log_pmf(i: int) -> float:
        return (log_n - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                + i * log_p + (n - i) * log_q)

    cut = log_pmf(k) + 1e-7
    return min(1.0, math.fsum(math.exp(v) for v in map(log_pmf, range(n + 1)) if v <= cut))


def _binomial_agrees(k: int, n: int):
    """The verdict on k successes in n trials against the exact p: pass
    unless k lies in a tail of probability below 2.7e-3, the two-sided
    3-sigma level."""
    return lambda exact: _binomial_two_sided(k, n, exact) >= 2.7e-3


def _run_lln_stationary(settings):
    params = _params(settings)
    times = settings["times"]
    exact = _oracle_value(params, lambda: stationary_dwell_probability(
        params, settings["u"], times, tol=settings["tol"]))
    # the experiment reads no horizon: a replication stops at the last sample time
    config = SimConfig(horizon=1.0, seed=settings["seed"], replications=settings["reps"])
    res = lln_stationary_experiment(params, settings["u"], times, config)
    return _against_oracle(res, "lln_stationary.csv", exact,
                           _binomial_agrees(res.extra["successes"], res.replications))


def _run_rate_curve(settings):
    ladder = settings["n_ladder"]
    lam = settings["lam"]
    gamma0, gammaT = settings["gamma0"], settings["gamma_t"]
    horizon = settings["horizon"]
    half_width = settings["half_width"]
    # The LDP limit of a_N for the window [gammaT - h, gammaT + h] is the infimum of
    # I(gamma0 -> .) over it: the symmetric chain has no drift, so I(gamma0 -> .) is
    # convex with its zero at gamma0, and the infimum sits at the window point nearest
    # gamma0 (0 when the window holds gamma0).
    nearest = min(max(gamma0, gammaT - half_width), gammaT + half_width)
    action = optimal_action(gamma0, nearest, horizon, lam)
    curve = empirical_rate_curve([ModelParams(n, lam) for n in ladder],
                                 gamma0, gammaT, horizon, half_width,
                                 tol=settings["tol"])
    gaps = [abs(pt.rate - action) for pt in curve]
    results = {
        "I_ref": action,
        "curve": [{"n": pt.n, "a_n": pt.rate, "window_prob": pt.window_prob} for pt in curve],
        "gaps": gaps,
    }
    # gaps of exactly 0 (a window holding the whole chain) have nowhere to shrink
    verdicts = {"gap_decreasing": all(a > b or a == b == 0.0 for a, b in zip(gaps, gaps[1:]))}
    rows = [(pt.n, pt.rate, pt.window_prob, action) for pt in curve]
    tables = {"rate_curve.csv": (["N", "a_N", "window_prob", "I_ref"], rows)}
    return results, verdicts, tables


def _solve_many(figure: str | None, settings):
    if figure is None:
        missing = [key for key in ("gamma0", "gamma_t") if settings[key] is None]
        if missing:
            raise UsageError(f"opt-path: missing required setting(s): {', '.join(missing)} "
                             "(or give --figure)")
        pairs = [(settings["gamma0"], settings["gamma_t"])]
    else:
        fig = _FIGURES[figure]
        own = {"gamma0": None, "gamma_t": None, "horizon": fig["horizon"]}
        clash = [_SETTINGS[name][0] for name, value in own.items() if settings[name] != value]
        if clash:
            raise UsageError(f"opt-path: --figure {figure} sets its own {', '.join(clash)} "
                             f"(horizon {fig['horizon']})")
        pairs = [(g0, gT) for g0 in fig["gamma0"] for gT in fig["gammaT"]]
    return [(g0, gT, solve_boundary(g0, gT, settings["horizon"], settings["lam"]))
            for g0, gT in pairs]


def _run_opt_path(settings):
    figure = settings["figure"]
    solved = _solve_many(figure, settings)
    grid = settings["grid"]
    if grid < 2:
        raise UsageError(f"grid must be >= 2, got {grid}")
    columns = _FIGURES[figure]["columns"] if figure else ("t", "gamma", "z", "kappa")
    results = {"figure": figure, "paths": []}
    tables = {}
    worst_residual = 0.0
    for g0, gT, params in solved:
        res_g, res_k = hamiltonian_residual(params, min(grid, 1000))
        worst_residual = max(worst_residual, res_g, res_k)
        results["paths"].append({**params.to_json_obj(),
                                 "residual_gamma": res_g, "residual_kappa": res_k})
        rows = sample_rows(params, n_points=grid)
        rows = [row[:len(columns)] for row in rows]
        prefix = f"{figure}_" if figure else "path_"
        tables[f"{prefix}gamma0_{g0:g}_gammaT_{gT:g}.csv"] = (list(columns), rows)
    results["max_residual"] = worst_residual
    verdicts = {"residuals": worst_residual <= 1e-8}
    return results, verdicts, tables


def _run_action(settings):
    lam, tol = settings["lam"], settings["tol"]
    params = None  # the solved path, when the input is boundary data
    if settings["path_csv"]:
        try:
            path = GridPath.from_csv(settings["path_csv"])
        except OSError as exc:
            raise UsageError(f"action: cannot read input: {exc}") from None
    elif None in (settings["gamma0"], settings["gamma_t"], settings["horizon"]):
        raise UsageError("action: give --gamma0/--gamma-t/--horizon, or --path-csv")
    else:
        params = solve_boundary(settings["gamma0"], settings["gamma_t"], settings["horizon"], lam)
        path = GridPath.from_descriptor(params, 0.0, params.horizon)
    report = rate_functional_report(path, lam, tol=tol)
    verdicts = {"quadrature_converged":
                math.isinf(report["I"]) or report["quadrature_error_estimate"] <= 10 * tol}
    if params is not None:
        # the quadrature against the action of the path solved for the same
        # boundary data, S = gamma*kappa from 0 to T
        report["I_closed_form"] = optimal_action(params.gamma0, params.gammaT, params.horizon, lam)
        verdicts["matches_closed_form"] = abs(report["I"] - report["I_closed_form"]) <= tol
    tables = {"action.csv": (["I", "quadrature_error_estimate", "grid_size"],
                             [(report["I"], report["quadrature_error_estimate"],
                               report["grid_size"])])}
    return report, verdicts, tables


def _run_tilted_mc(settings):
    params = _params(settings)
    tol = settings["tol"]
    lam = params.lam
    gamma0, gammaT = settings["gamma0"], settings["gamma_t"]
    horizon = settings["horizon"]
    half_width = settings["half_width"]
    # solve_boundary first checks that gamma0 and gammaT lie in [0, 1] (NaN
    # does not), so only checked values are rounded to states below
    path = solve_boundary(gamma0, gammaT, horizon, lam)
    tilt = dual_tilt(path)
    if not 0.0 <= half_width < math.inf:
        raise UsageError(f"half_width must be finite and >= 0, got {half_width!r}")
    n = params.n_states
    m0 = round(gamma0 * n)
    lo, hi = lattice_window(n, gammaT, half_width)

    def exact_window():
        # window_probability's value, or its underflow worded for this command
        prob, log_p = _window_mass(params, m0, horizon, range(lo, hi + 1), tol)
        if prob == 0.0 and log_p > -math.inf:
            raise UsageError(
                f"tilted-mc: with N={n}, the window {lo}..{hi} is reached by --horizon "
                f"{horizon!r} with probability exp({log_p:.6g}), below the smallest double, "
                "so no estimate can be checked; give a longer --horizon or a --gamma-t "
                "nearer --gamma0")
        return prob

    exact = _oracle_value(params, exact_window)
    config = SimConfig(horizon=horizon, seed=settings["seed"], initial=m0,
                       replications=settings["reps"])
    res = tilted_window_experiment(params, tilt, (lo, hi), config)
    # under the identity tilt every weight is 1, so the estimate is a hit
    # proportion, whose stderr is 0 at 0 or reps hits: judge the count
    agrees = (_binomial_agrees(round(res.estimate * res.replications), res.replications)
              if path.case is PathCase.CONSTANT
              else lambda exact: abs(res.estimate - exact) <= 3.0 * res.stderr)
    return _against_oracle(res, "tilted_mc.csv", exact, agrees)


def _run_hconv(settings):
    ladder = settings["n_ladder"]
    # on a ladder that is not strictly increasing the rate check below says nothing
    if len(ladder) < 2 or min(ladder) < 2 or any(a >= b for a, b in zip(ladder, ladder[1:])):
        raise UsageError(f"--n-ladder needs at least two sizes, each at least 2 and larger "
                         f"than the one before it, got {ladder}")
    lam = settings["lam"]
    # the probe f and its derivative f'; f'(1) = 0, under which H_N f -> H(., f')
    probe, probe_deriv = (lambda x: 0.5 * (1.0 - x) ** 2), (lambda x: x - 1.0)
    errors = []
    for n in ladder:
        params = ModelParams(n, lam)
        worst = 0.0
        for j in range(1, n + 1):
            gamma = j / n
            gap = abs(prelimit_hamiltonian(probe, params, gamma)
                      - hamiltonian(gamma, probe_deriv(gamma), lam))
            worst = max(worst, gap)
        errors.append(worst)
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    results = {"ladder": ladder, "sup_errors": errors, "ratios": ratios}
    # the error falls as 1/N: each ratio times N_i/N_(i+1) is 1, within 15%
    verdicts = {"halving": all(0.85 <= r * (a / b) <= 1.15 for r, a, b in zip(ratios, ladder, ladder[1:]))}
    rows = list(zip(ladder, errors))
    tables = {"hconv.csv": (["N", "sup_error"], rows)}
    return results, verdicts, tables


# ---------------------------------------------------------------------------
# settings and subcommands


def _finite(value) -> float:
    """A float that is neither NaN nor infinite."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{value!r} is not finite")
    return x


def _list_of(item):
    """Parser of a non-empty list, given as comma-separated text or, for a
    default, as a tuple."""
    def parse(value) -> list:
        if not isinstance(value, tuple):
            value = [x for x in value.split(",") if x.strip()]
        if not value:
            raise ValueError("expected a non-empty list")
        return [item(x) for x in value]
    return parse


def _initial(value):
    return value if value == "stationary" else int(value)


def _tol(value) -> float:
    """A tolerance that evolve.check_tol accepts, refused as it is parsed,
    before any exact or Monte Carlo run spends its time."""
    tol = float(value)
    check_tol(tol)
    return tol


def _figure(value) -> str:
    if value not in _FIGURES:
        raise ValueError(f"choose from {', '.join(sorted(_FIGURES))}")
    return value


# setting -> (flag, parser[, help]).  Every value, from a flag or a default,
# goes through its parser once, in _normalise.
_SETTINGS = {
    "n": ("--n", int, "number of states N"),
    "lam": ("--lambda", float, "rate scale"),
    "horizon": ("--horizon", float, "time horizon T"),
    "seed": ("--seed", int),
    "reps": ("--reps", int, "Monte Carlo replications"),
    "tol": ("--tol", _tol, "tolerance of the exact oracle or the quadrature"),
    "initial": ("--initial", _initial, 'state index or "stationary"'),
    "gamma0": ("--gamma0", float, "scaled start state"),
    "gamma_t": ("--gamma-t", float, "scaled end state"),
    "eps": ("--eps", float, "deviation from gamma0"),
    "u": ("--u", float, "scaled threshold"),
    "times": ("--times", _list_of(_finite), "comma-separated sample times"),
    "half_width": ("--half-width", float, "half-width of the end window"),
    "n_ladder": ("--n-ladder", _list_of(int), "comma-separated chain sizes"),
    "grid": ("--grid", int, "points per path table"),
    "figure": ("--figure", _figure, f"one of {', '.join(sorted(_FIGURES))}"),
    "path_csv": ("--path-csv", str, "CSV with columns t,gamma[,dgamma]"),
}

_NO_DEFAULT = object()  # marks a required setting


class _Command(NamedTuple):
    handler: Callable[[dict], tuple]
    help: str
    settings: dict  # setting -> default, None (optional) or _NO_DEFAULT (required)


_COMMANDS = {
    "stationary": _Command(_run_stationary, "stationary law of the chain",
                           {"n": _NO_DEFAULT, "lam": 1.0}),
    "embedded": _Command(_run_embedded, "stationary law of the embedded jump chain",
                         {"n": _NO_DEFAULT, "lam": 1.0}),
    "simulate": _Command(_run_simulate, "sample one trajectory",
                         {"n": _NO_DEFAULT, "horizon": _NO_DEFAULT, "lam": 1.0, "seed": 0,
                          "initial": "stationary"}),
    "lln-point": _Command(_run_lln_point, "sup-deviation probability from a point start",
                          {"n": _NO_DEFAULT, "gamma0": _NO_DEFAULT, "eps": _NO_DEFAULT,
                           "lam": 1.0, "horizon": 1.0, "seed": 0, "reps": 1000}),
    "lln-stationary": _Command(_run_lln_stationary,
                               "below-threshold probability from stationarity",
                               {"n": _NO_DEFAULT, "u": _NO_DEFAULT, "lam": 1.0, "seed": 0,
                                "reps": 1000, "times": (0.25, 0.5, 0.75, 1.0), "tol": 1e-10}),
    "rate-curve": _Command(_run_rate_curve, "finite-N decay rates against the optimal action",
                           {"n_ladder": _NO_DEFAULT, "gamma0": _NO_DEFAULT,
                            "gamma_t": _NO_DEFAULT, "lam": 1.0, "horizon": 1.0,
                            "half_width": 0.02, "tol": 1e-12}),
    "opt-path": _Command(_run_opt_path, "closed-form optimal paths (optionally a figure bundle)",
                         {"gamma0": None, "gamma_t": None, "lam": 1.0, "horizon": 2.0,
                          "grid": 201, "figure": None}),
    "action": _Command(_run_action, "action integral of a path",
                       {"gamma0": None, "gamma_t": None, "horizon": None, "lam": 1.0,
                        "tol": 1e-9, "path_csv": None}),
    "tilted-mc": _Command(_run_tilted_mc, "importance-sampling window probability",
                          {"n": _NO_DEFAULT, "gamma0": _NO_DEFAULT, "gamma_t": _NO_DEFAULT,
                           "lam": 1.0, "horizon": 1.0, "half_width": 0.02, "seed": 0,
                           "reps": 10000, "tol": 1e-12}),
    "hconv": _Command(_run_hconv, "prelimit-generator convergence sweep",
                      {"n_ladder": (100, 200, 400, 800, 1600), "lam": 1.0}),
}


def _normalise(kind: str, given: dict) -> dict:
    """The settings a subcommand reads, from the flags given: defaults filled
    in and every value parsed.  Text that a setting's parser refuses, such as
    ``--n 4.7`` or ``--n 4.0``, is a usage error."""
    command = _COMMANDS[kind]
    missing = [name for name, default in command.settings.items()
               if default is _NO_DEFAULT and name not in given]
    if missing:
        raise UsageError(f"{kind}: missing required setting(s): {', '.join(missing)}")
    settings = {}
    for name, default in command.settings.items():
        value = given.get(name, default)
        if value is not None:
            flag, parse = _SETTINGS[name][:2]
            try:
                value = parse(value)
            except ValueError as exc:
                raise UsageError(f"{kind}: bad {flag} value {value!r}: {exc}") from None
        settings[name] = value
    return settings


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdld",
        description="Birth-death chain analytics, simulation and large-deviation experiments.")
    parser.add_argument("--version", action="version", version=f"bdld {__version__}")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind, command in _COMMANDS.items():
        p = sub.add_parser(kind, help=command.help)
        p.add_argument("--out", type=str, default=None,
                       help="output directory (default: $BDLD_OUT or '.')")
        for name in command.settings:
            flag, _, *help_text = _SETTINGS[name]
            p.add_argument(flag, dest=name, default=None, help=help_text[0] if help_text else None)
    return parser


def _given(args: argparse.Namespace) -> dict:
    """The settings given: the flags set."""
    return {key: value for key, value in vars(args).items()
            if key not in ("kind", "out") and value is not None}


def main(argv=None) -> int:
    """Run the subcommand argv names (default: sys.argv[1:]) and return its exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code) if exc.code else 0
    kind = args.kind
    out_dir = Path(args.out or os.environ.get("BDLD_OUT") or ".")
    try:
        settings = _normalise(kind, _given(args))
        t0 = time.perf_counter()
        results, verdicts, tables = _COMMANDS[kind].handler(settings)
        timings = {"wall_time_s": time.perf_counter() - t0}
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot create output directory {out_dir}: {exc}") from None
        t0 = time.perf_counter()
        for name, (header, rows) in tables.items():
            write_csv(out_dir / name, header, rows)
        timings["tables_s"] = time.perf_counter() - t0
        write_json(out_dir / "report.json", {
            "kind": kind,
            "spec": {"kind": kind, "settings": settings, "out": str(out_dir)},
            "results": results, "verdicts": verdicts,
            # versions and seed: the same on every run of the spec
            "provenance": {"version": __version__, "numpy": np.__version__,
                           "python": sys.version.split()[0], "seed": settings.get("seed"),
                           "stream_version": STREAM_VERSION},
            "timings": timings,  # what differs from run to run
        })
    except ValueError as exc:
        # UsageError and the library's contract violations both mean the
        # settings were bad, not that the tool broke.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    for name, ok in verdicts.items():
        print(f"[{'PASS' if ok else 'FAIL'}] {kind}: {name}")
    print(f"report written to {out_dir / 'report.json'}")
    return 0 if all(verdicts.values()) else 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
