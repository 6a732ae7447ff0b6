"""Tests for the command-line harness: dispatch, reports, exit codes,
determinism and figure bundles."""

import importlib.util
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bdld import cli
from bdld.chain import ModelParams, prefix_mass
from bdld.cli import main

# the batch size the writer tests run with (see TestWriteCsv.small_batch),
# so a few hundred rows cross a batch edge
_CSV_BATCH = 512

# the environment of a subprocess that imports bdld from this checkout
_SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}


def _read(path):
    return path.read_text()


def _write_bad_inputs(directory):
    (directory / "one.csv").write_text("t,gamma\n0,0.5\n")
    (directory / "short_row.csv").write_text("t,gamma\n0.5\n")
    # non-finite samples once gave I = inf and a passing quadrature verdict
    (directory / "nan_gamma.csv").write_text("t,gamma\n0,0.5\n0.5,nan\n1,0.8\n")
    (directory / "nan_t.csv").write_text("t,gamma\n0,0.5\nnan,0.6\n1,0.8\n")
    (directory / "inf_dgamma.csv").write_text("t,gamma,dgamma\n0,0.5,0\n0.5,0.6,inf\n1,0.8,0\n")
    (directory / "a_file").write_text("")
    (directory / "empty.csv").write_text("")


class TestExitCodes:
    def test_success(self, tmp_path):
        assert main(["stationary", "--n", "4", "--out", str(tmp_path)]) == 0

    def test_verdict_failure(self, tmp_path):
        # the 1/N rate has not set in at N = 2: the error falls only 1.078x
        # from N = 2 to 4, so the built-in check fails
        code = main(["hconv", "--n-ladder", "2,4", "--out", str(tmp_path)])
        assert code == 1
        report = json.loads(_read(tmp_path / "report.json"))
        assert report["verdicts"]["halving"] is False

    def test_hconv_doubling_ladder_passes(self, tmp_path):
        assert main(["hconv", "--n-ladder", "200,400", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("ladder", ["100,300,900", "1000,1500"])
    def test_hconv_ladder_of_any_step_passes(self, tmp_path, ladder):
        # the error falls as 1/N on any ladder, not only on a doubling one
        assert main(["hconv", "--n-ladder", ladder, "--out", str(tmp_path)]) == 0

    def test_usage_error_missing_setting(self, tmp_path, capsys):
        assert main(["rate-curve", "--out", str(tmp_path)]) == 2
        assert "missing required" in capsys.readouterr().err

    def test_usage_error_empty_ladder(self, tmp_path, capsys):
        assert main(["rate-curve", "--n-ladder", "", "--gamma0", "0.5",
                     "--gamma-t", "0.8", "--out", str(tmp_path)]) == 2

    def test_usage_error_unknown_flag(self):
        assert main(["stationary", "--n", "4", "--frobnicate"]) == 2

    def test_usage_error_degenerate_grid(self, tmp_path, capsys):
        assert main(["opt-path", "--gamma0", "0.2", "--gamma-t", "0.7",
                     "--grid", "1", "--out", str(tmp_path)]) == 2

    def test_usage_error_opt_path_without_endpoints(self, tmp_path, capsys):
        # no --figure and no --gamma0/--gamma-t: a usage error naming both
        assert main(["opt-path", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "gamma0" in err and "gamma_t" in err
        assert main(["opt-path", "--gamma0", "0.5", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "setting(s): gamma_t " in err

    @pytest.mark.parametrize("argv", [
        ["tilted-mc", "--n", "100", "--gamma0", "0.5", "--gamma-t", "0.8",
         "--reps", "10", "--tol", "1e-17"],
        ["rate-curve", "--n-ladder", "50,100", "--gamma0", "0.5", "--gamma-t", "0.8",
         "--tol", "1e-20"],
    ])
    def test_usage_error_tol_below_double_precision(self, tmp_path, capsys, argv):
        # 1 - tol/2 rounds to 1, so the Poisson cutoff quantile would be infinite
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert "tol" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["1e-17", "1e-3"])
    @pytest.mark.parametrize("kind, experiment, argv", [
        ("tilted-mc", "tilted_window_experiment",
         ["--n", "100", "--gamma0", "0.5", "--gamma-t", "0.8", "--reps", "10"]),
        ("lln-stationary", "lln_stationary_experiment",
         ["--n", "20", "--u", "0.5", "--reps", "10"]),
    ])
    def test_bad_tol_rejected_before_monte_carlo(self, tmp_path, capsys, monkeypatch,
                                                 kind, experiment, argv, tol):
        import bdld.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("the Monte Carlo run started before --tol was checked")

        monkeypatch.setattr(cli_mod, experiment, never)
        assert main([kind, *argv, "--tol", tol, "--out", str(tmp_path)]) == 2
        assert "tol" in capsys.readouterr().err

    def test_bad_tol_refused_when_parsed(self, tmp_path, capsys, monkeypatch):
        # --tol is refused as it is parsed: rate-curve hands it to the
        # oracle alone, and no window query starts
        from bdld import evolve
        calls = []

        def counting(*args):
            calls.append(args)
            return window_mass(*args)

        window_mass = evolve._window_mass
        monkeypatch.setattr(evolve, "_window_mass", counting)
        assert main(["rate-curve", "--n-ladder", "10,20", "--gamma0", "0.5", "--gamma-t", "0.8",
                     "--tol", "nan", "--out", str(tmp_path)]) == 2
        assert calls == []
        assert ("rate-curve: bad --tol value 'nan': tol must be positive and finite, got nan"
                in capsys.readouterr().err)

    def test_underflowing_reference_rejected_before_monte_carlo(self, tmp_path, capsys,
                                                                monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the Monte Carlo run started before its reference was checked")

        monkeypatch.setattr(cli, "tilted_window_experiment", never)
        assert main(["tilted-mc", "--n", "100", "--gamma0", "0.5", "--gamma-t", "0.8",
                     "--horizon", "1e-300", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "--horizon" in err and "window_log_probability" not in err

    def test_tilted_mc_exact_is_the_window_probability(self, tmp_path, monkeypatch):
        # the oracle is asked once, and its value is window_probability's bit for bit
        from bdld import ModelParams, evolve, window_probability
        calls = []
        chain = evolve._window_chain
        monkeypatch.setattr(evolve, "_window_chain", lambda *args: (calls.append(1), chain(*args))[1])
        assert main(["tilted-mc", "--n", "100", "--gamma0", "0.5", "--gamma-t", "0.8",
                     "--reps", "10", "--out", str(tmp_path)]) in (0, 1)
        assert len(calls) == 1
        exact = json.loads(_read(tmp_path / "report.json"))["results"]["exact"]
        assert exact == window_probability(ModelParams(100, 1.0), 50, 1.0, range(78, 83))

    def test_library_contract_breach_is_usage_error(self, tmp_path, capsys):
        # u outside (0, 1] violates the experiment's contract: still "you
        # called it wrong", so exit 2
        code = main(["lln-stationary", "--n", "20", "--u", "1.5",
                     "--reps", "5", "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_internal_error(self, tmp_path, capsys, monkeypatch):
        def boom(settings):
            raise RuntimeError("synthetic failure")

        command = cli._COMMANDS["stationary"]
        monkeypatch.setitem(cli._COMMANDS, "stationary", command._replace(handler=boom))
        code = main(["stationary", "--n", "4", "--out", str(tmp_path)])
        assert code == 3
        assert "Traceback" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["action", "--path-csv", "missing.csv"],
        ["action", "--path-csv", "one.csv"],             # a single grid point
        ["action", "--path-csv", "empty.csv"],
        ["stationary", "--n", "4", "--out", "a_file"],   # --out names a file
        ["lln-point", "--n", "100", "--gamma0", "0.5", "--eps", "inf", "--reps", "5"],
        ["lln-point", "--n", "100", "--gamma0", "nan", "--eps", "0.2", "--reps", "5"],
        ["stationary", "--n", "4", "--seed", "3"],       # a flag stationary does not read
        ["simulate", "--n", "4", "--horizon", "1", "--reps", "1000"],
        ["opt-path", "--figure", "fig9"],
        ["action", "--path-csv", "short_row.csv"],         # a row shorter than its header
        ["tilted-mc", "--n", "100", "--gamma0", "nan", "--gamma-t", "0.8", "--reps", "10"],
        ["tilted-mc", "--n", "100", "--gamma0", "0.5", "--gamma-t", "nan", "--reps", "10"],
        ["tilted-mc", "--n", "100", "--gamma0", "0.5", "--gamma-t", "0.8", "--half-width", "inf",
         "--reps", "10"],
        ["rate-curve", "--gamma0", "0.5", "--gamma-t", "0.8", "--n-ladder", "10,20",
         "--half-width", "inf"],
        *(["action", "--gamma0", "0.5", "--gamma-t", "0.8", "--horizon", "1", "--tol", tol]
          for tol in ("0", "-1", "nan", "inf", "1e300", "1e-3")),
        ["lln-point", "--n", "100", "--gamma0", "1e308", "--eps", "0.2", "--reps", "5"],
        # a NaN sample time once hung the Monte Carlo loop: these run in a
        # subprocess that a timeout can stop
        ["lln-stationary", "--n", "50", "--u", "0.5", "--times", "0.5,nan", "--reps", "10"],
        # a setting that --figure overrides was once dropped silently
        ["opt-path", "--figure", "fig3", "--gamma-t", "0.3"],
        # N=1's sup error is exactly 0: a ratio divided by it, or read 0
        ["hconv", "--n-ladder", "2,1"],
        ["hconv", "--n-ladder", "1,2"],
        # lln-stationary has no horizon: it stops at its last sample time
        ["lln-stationary", "--n", "10", "--u", "0.5", "--horizon", "0"],
        # an exact window probability below the smallest double
        ["tilted-mc", "--n", "100", "--gamma0", "0.5", "--gamma-t", "0.8", "--reps", "10",
         "--seed", "1", "--horizon", "1e-300"],
        # a lam*T whose closed-form path divides by an intermediate that underflows to 0
        ["action", "--gamma0", "0.5", "--gamma-t", "0.8", "--horizon", "5e-324"],
        ["action", "--gamma0", "0", "--gamma-t", "0.5", "--horizon", "1e-300", "--lambda",
         "1e-300"],
        ["action", "--gamma0", "0.5", "--gamma-t", "0", "--horizon", "1e-300", "--lambda",
         "1e-300"],
        ["opt-path", "--gamma0", "0.5", "--gamma-t", "0.8", "--horizon", "5e-324"],
        ["rate-curve", "--n-ladder", "10,20", "--gamma0", "0.5", "--gamma-t", "0.8",
         "--horizon", "5e-324"],
        ["tilted-mc", "--n", "10", "--gamma0", "0.5", "--gamma-t", "0.8", "--horizon", "5e-324",
         "--reps", "3"],
        ["embedded", "--n", "1"],
        *(["action", "--path-csv", name] for name in ("nan_gamma.csv", "nan_t.csv", "inf_dgamma.csv")),
        # a ladder that is not strictly increasing says nothing about the rate
        *(["hconv", "--n-ladder", ladder] for ladder in ("2,2", "200,100", "100,50,200")),
        ["action", "--gamma0", "0.5", "--gamma-t", "0.8"],  # boundary data without a horizon
    ])
    def test_bad_input_exits_2_without_traceback(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        _write_bad_inputs(tmp_path)
        if "--out" not in argv:
            argv = argv + ["--out", str(tmp_path / "o")]
        if "--times" in argv:
            done = subprocess.run([sys.executable, "-m", "bdld.cli", *argv], env=_SRC_ENV,
                                  capture_output=True, text=True, timeout=60)
            assert done.returncode == 2
            assert "--times" in done.stderr and "nan" in done.stderr
            err = done.stderr
        else:
            assert main(argv) == 2
            err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error" in err

    @pytest.mark.parametrize("argv, message", [
        (["action"], "action: give --gamma0/--gamma-t/--horizon, or --path-csv"),
        (["action", "--path-csv", "short_row.csv"], "data row 1 ['0.5']"),
        (["tilted-mc", "--n", "100", "--gamma0", "nan", "--gamma-t", "0.8", "--reps", "10"],
         "gamma0 must lie in [0, 1], got nan"),
        (["tilted-mc", "--n", "100", "--gamma0", "0.5", "--gamma-t", "nan", "--reps", "10"],
         "gammaT must lie in [0, 1], got nan"),
        (["tilted-mc", "--n", "100", "--gamma0", "0.5", "--gamma-t", "0.8", "--half-width",
          "nan", "--reps", "10"], "half_width must be finite and >= 0, got nan"),
        (["action", "--parabola-json", "pp.json"], "unrecognized arguments: --parabola-json"),
        (["hconv", "--n-ladder", "2,2"], "each at least 2 and larger than the one before it, "
                                         "got [2, 2]"),
        (["hconv", "--n-ladder", "200,100"], "larger than the one before it, got [200, 100]"),
        (["action", "--path-csv", "missing.csv"], "action: cannot read input:"),
        (["action", "--gamma0", "0.5", "--gamma-t", "0.8", "--horizon", "1", "--tol", "nan"],
         "tol must be positive and finite, got nan"),
        (["action", "--gamma0", "0", "--gamma-t", "0.5", "--horizon", "2", "--tol", "1e300"],
         "tol must be at most 1e-6, got 1e+300"),
        (["lln-point", "--n", "100", "--gamma0", "1e308", "--eps", "0.2", "--reps", "5"],
         "gamma0=1e+308 puts round(gamma0*N) outside 1..100"),
        (["hconv", "--n-ladder", "2,1"], "--n-ladder needs at least two sizes, each at least 2"),
        (["simulate", "--n", "10", "--horizon", "0"],
         "horizon must be positive and finite, got 0.0"),
        (["action", "--path-csv", "one.csv"], "need at least two grid points"),
        (["tilted-mc", "--n", "100", "--gamma0", "0.5", "--gamma-t", "0.8", "--reps", "10",
          "--seed", "1", "--horizon", "1e-300"],
         "with N=100, the window 78..82 is reached by --horizon 1e-300 with probability "
         "exp(-19293.6), below the smallest double"),
        # a horizon whose closed-form path overflows a double, or whose exact
        # oracle would sum more Poisson orders than it takes
        (["rate-curve", "--n-ladder", "10,20", "--gamma0", "0.5", "--gamma-t", "0.8",
          "--horizon", "1e300"], "lam*T = 1e+300 is too large"),
        (["tilted-mc", "--n", "10", "--gamma0", "0.5", "--gamma-t", "0.8", "--horizon", "1e300",
          "--reps", "3"], "lam*T = 1e+300 is too large"),
        (["rate-curve", "--n-ladder", "10,20", "--gamma0", "0.5", "--gamma-t", "0.8",
          "--horizon", "1e12"], "mu = Lam*t = 20000000000000.0 exceeds 1e+07"),
        (["lln-stationary", "--n", "10", "--u", "0.5", "--times", "0,1e12", "--reps", "1"],
         "mu = Lam*t = 20000000000000.0 exceeds 1e+07"),
        (["tilted-mc", "--n", "10", "--gamma0", "0.5", "--gamma-t", "0.8", "--horizon", "1e12",
          "--reps", "1"], "mu = Lam*t = 20000000000000.0 exceeds 1e+07"),
        # ... or underflows one of its intermediates to 0
        (["action", "--gamma0", "0.5", "--gamma-t", "0.8", "--horizon", "5e-324"],
         "lam*T = 5e-324 is too small"),
        (["action", "--gamma0", "0", "--gamma-t", "0.5", "--horizon", "1e-300", "--lambda",
          "1e-300"], "lam*T = 0.0 is too small"),
        (["action", "--gamma0", "0.5", "--gamma-t", "0", "--horizon", "1e-300", "--lambda",
          "1e-300"], "lam*T = 0.0 is too small"),
        (["opt-path", "--gamma0", "0.5", "--gamma-t", "0.8", "--horizon", "5e-324"],
         "lam*T = 5e-324 is too small"),
        (["rate-curve", "--n-ladder", "10,20", "--gamma0", "0.5", "--gamma-t", "0.8",
          "--horizon", "5e-324"], "lam*T = 5e-324 is too small"),
        (["tilted-mc", "--n", "10", "--gamma0", "0.5", "--gamma-t", "0.8", "--horizon", "5e-324",
          "--reps", "3"], "lam*T = 5e-324 is too small"),
        (["embedded", "--n", "1"], "embedded chain requires n_states >= 2"),
        # a flag is text: an integer setting takes neither a fraction nor a
        # float's spelling, and a settings file is no input
        (["stationary", "--n", "4.7"], "stationary: bad --n value '4.7'"),
        (["stationary", "--n", "four"], "stationary: bad --n value 'four'"),
        (["stationary", "--n", "4.0"], "stationary: bad --n value '4.0'"),
        (["stationary", "--n", "4", "--config", "c.json"], "unrecognized arguments: --config"),
    ])
    def test_bad_input_message_names_the_culprit(self, tmp_path, capsys, monkeypatch,
                                                 argv, message):
        monkeypatch.chdir(tmp_path)
        _write_bad_inputs(tmp_path)
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["rate-curve", "--gamma0", "0.5", "--gamma-t", "0.8", "--n-ladder", "10,20"],
         "--half-width"),
        (["tilted-mc", "--n", "20", "--gamma0", "0.5", "--gamma-t", "0.8", "--reps", "10"],
         "--half-width"),
        (["lln-point", "--n", "100", "--gamma0", "0.5", "--reps", "5"], "--eps"),
    ])
    def test_window_wider_than_the_chain_is_the_whole_chain(self, tmp_path, argv, flag):
        # 1e308 * N overflows to inf, which round() and math.floor() reject;
        # the answer is the one for 1e300, whose window or band already
        # holds every state
        codes, results = [], []
        for width in ("1e300", "1e308"):
            out = tmp_path / width
            codes.append(main(argv + [flag, width, "--out", str(out)]))
            results.append(json.loads(_read(out / "report.json"))["results"])
        assert codes[0] == codes[1] != 3
        assert results[0] == results[1]


class TestStationaryCommand:
    def test_csv_values(self, tmp_path):
        assert main(["stationary", "--n", "4", "--out", str(tmp_path)]) == 0
        lines = _read(tmp_path / "stationary.csv").strip().splitlines()
        assert lines[0] == "state,mass"
        masses = [float(line.split(",")[1]) for line in lines[1:]]
        for got, expected in zip(masses, (12 / 25, 6 / 25, 4 / 25, 3 / 25)):
            assert abs(got - expected) <= 1e-12

    def test_report_shape(self, tmp_path):
        main(["stationary", "--n", "6", "--lambda", "2.0", "--out", str(tmp_path)])
        report = json.loads(_read(tmp_path / "report.json"))
        assert report["kind"] == "stationary"
        assert report["verdicts"] == {"detailed_balance": True}
        assert report["spec"]["settings"]["n"] == 6
        import platform

        import numpy as np
        assert report["provenance"]["version"]
        assert report["provenance"]["numpy"] == np.__version__
        assert report["provenance"]["python"] == platform.python_version()
        assert report["provenance"]["stream_version"] == 1
        # the fields that differ from run to run sit apart from provenance:
        # the handler's wall time and the time spent writing the tables
        assert "wall_time_s" not in report["provenance"]
        assert sorted(report["timings"]) == ["tables_s", "wall_time_s"]
        assert report["timings"]["wall_time_s"] >= 0.0
        assert report["timings"]["tables_s"] >= 0.0

    @pytest.mark.parametrize("n", [3, 1000])
    def test_detailed_balance_is_judged_per_unit_lambda(self, tmp_path, n):
        # the flows scale with lambda: at 1e6 their round-off once failed 1e-12
        assert main(["stationary", "--n", str(n), "--lambda", "1e6", "--out", str(tmp_path)]) == 0
        results = json.loads(_read(tmp_path / "report.json"))["results"]
        assert results["detailed_balance_residual"] <= 1e-15


class TestEmbeddedCommand:
    def test_five_states(self, tmp_path):
        assert main(["embedded", "--n", "5", "--out", str(tmp_path)]) == 0
        lines = _read(tmp_path / "embedded.csv").strip().splitlines()[1:]
        masses = [float(line.split(",")[1]) for line in lines]
        assert masses == [0.125, 0.25, 0.25, 0.25, 0.125]


class TestSimulateCommand:
    def test_outputs(self, tmp_path):
        code = main(["simulate", "--n", "20", "--horizon", "5", "--seed", "3",
                     "--initial", "10", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "occupation.csv").exists()
        report = json.loads(_read(tmp_path / "report.json"))
        assert report["results"]["jumps"] > 0

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--n", "20", "--horizon", "5", "--seed", "3",
                "--initial", "10"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert _read(a / "trajectory.csv") == _read(b / "trajectory.csv")
        assert _read(a / "occupation.csv") == _read(b / "occupation.csv")

    def test_trajectory_csv_matches_library_writer(self, tmp_path):
        from bdld.chain import ModelParams
        from bdld.simulate import SimConfig, sample_path
        assert main(["simulate", "--n", "20", "--horizon", "5", "--seed", "3",
                     "--initial", "stationary", "--out", str(tmp_path)]) == 0
        traj = sample_path(ModelParams(20, 1.0), SimConfig(horizon=5.0, seed=3))
        traj.to_csv(tmp_path / "direct.csv")
        assert (tmp_path / "trajectory.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()


class TestLlnCommands:
    def test_lln_point_within_bound(self, tmp_path):
        code = main(["lln-point", "--n", "400", "--gamma0", "0.5", "--eps", "0.2",
                     "--horizon", "1", "--reps", "300", "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        report = json.loads(_read(tmp_path / "report.json"))
        assert report["verdicts"]["within_bound"] is True
        assert report["results"]["estimate"] <= report["results"]["bound"]
        assert report["results"]["jumps"] > 300 * 300  # about 400 per replication

    def test_lln_point_readme_run_matches_oracle(self, tmp_path):
        code = main(["lln-point", "--n", "1000", "--gamma0", "0.5", "--eps", "0.2",
                     "--horizon", "1", "--reps", "10000", "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads(_read(tmp_path / "report.json"))
        assert report["verdicts"] == {"matches_oracle": True, "within_bound": True}
        assert abs(report["results"]["exact"] / 6.574845605477701e-9 - 1.0) <= 1e-12
        header, row = _read(tmp_path / "lln_point.csv").splitlines()
        assert header == "estimate,stderr,exact,bound,replications"
        assert float(row.split(",")[2]) == report["results"]["exact"]

    def test_lln_point_verdict_fails_against_a_wrong_exact_value(self, tmp_path, monkeypatch):
        # 0.023 exact at N = 1000, eps = 0.08: about 23 hits in 1000, far from 500
        monkeypatch.setattr(cli, "_exit_probability", lambda *args: 0.5)
        code = main(["lln-point", "--n", "1000", "--gamma0", "0.5", "--eps", "0.08",
                     "--reps", "1000", "--seed", "1", "--out", str(tmp_path)])
        assert code == 1
        verdicts = json.loads(_read(tmp_path / "report.json"))["verdicts"]
        assert verdicts == {"matches_oracle": False, "within_bound": True}

    def test_lln_point_has_no_exact_value_above_the_cap(self, tmp_path):
        code = main(["lln-point", "--n", "20001", "--gamma0", "0.5", "--eps", "0.2",
                     "--reps", "2", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads(_read(tmp_path / "report.json"))
        assert "exact" not in report["results"] and "matches_oracle" not in report["verdicts"]
        assert _read(tmp_path / "lln_point.csv").splitlines()[1].split(",")[2] == "nan"

    def test_lln_point_verdicts_pass_near_the_top_of_the_chain(self, tmp_path):
        # the bound 2 lam m0 T / a^2 is 0.72 here; T/(eps^2 N), which leaves
        # out lam and gamma0, read 0.4 against an exact 0.476
        code = main(["lln-point", "--n", "1000", "--gamma0", "0.9", "--eps", "0.05",
                     "--horizon", "1", "--reps", "2000", "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads(_read(tmp_path / "report.json"))
        assert report["verdicts"] == {"matches_oracle": True, "within_bound": True}
        assert report["results"]["bound"] == 2.0 * 900 / 50 ** 2

    def test_lln_point_bound_is_inf_where_eps_squared_n_underflows(self, tmp_path):
        # the band holds no state, so the start is a hit, a = 0 and the bound is inf
        code = main(["lln-point", "--n", "50", "--gamma0", "0.5", "--eps", "1e-300",
                     "--reps", "20", "--out", str(tmp_path)])
        assert code == 0
        results = json.loads(_read(tmp_path / "report.json"))["results"]
        assert results["bound"] == "inf" and results["estimate"] == 1.0

    def test_lln_stationary_oracle_verdict(self, tmp_path):
        code = main(["lln-stationary", "--n", "100", "--u", "0.3",
                     "--times", "0.2,0.6", "--reps", "400", "--seed", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        report = json.loads(_read(tmp_path / "report.json"))
        assert report["verdicts"]["matches_oracle"] is True
        assert 0.0 < report["results"]["exact"] < 1.0
        assert report["results"]["jumps"] > 0

    def test_lln_stationary_every_replication_succeeding_passes(self, tmp_path):
        # p-hat = 1 against the exact 0.998301: the Wald error is 0, and the
        # verdict floored it at 1e-12 and failed; the binomial test passes
        code = main(["lln-stationary", "--n", "10000", "--u", "0.99", "--reps", "1000",
                     "--seed", "7", "--out", str(tmp_path)])
        assert code == 0
        results = json.loads(_read(tmp_path / "report.json"))["results"]
        assert results["successes"] == 1000 and results["stderr"] == 0.0
        assert abs(results["exact"] - 0.998301) <= 1e-6

    def test_lln_stationary_at_time_zero(self, tmp_path):
        # the dwell event at t = 0 alone is X(0) <= 4 under the stationary
        # law; a horizon taken from the last sample time once made this exit 2
        code = main(["lln-stationary", "--n", "10", "--u", "0.5", "--times", "0",
                     "--reps", "100", "--out", str(tmp_path)])
        assert code == 0
        results = json.loads(_read(tmp_path / "report.json"))["results"]
        assert abs(results["exact"] - prefix_mass(ModelParams(10, 1.0), 4)) <= 1e-15
        assert results["jumps"] == 0

    @pytest.mark.parametrize("k,n,p", [
        (0, 10, 0.3), (3, 10, 0.3), (10, 10, 0.3), (1000, 1000, 0.998301),
        (990, 1000, 0.998301), (48, 400, 0.15), (75, 400, 0.15), (2, 5, 0.5),
    ])
    def test_binomial_two_sided_matches_scipy(self, k, n, p):
        assert cli._binomial_two_sided(k, n, p) == pytest.approx(
            stats.binomtest(k, n, p).pvalue, rel=1e-9, abs=0.0)

    def test_binomial_two_sided_at_certain_outcomes(self):
        assert cli._binomial_two_sided(0, 10, 0.0) == 1.0
        assert cli._binomial_two_sided(1, 10, 0.0) == 0.0
        assert cli._binomial_two_sided(10, 10, 1.0 + 2.0 ** -52) == 1.0  # clamped to 1
        assert cli._binomial_two_sided(9, 10, 1.0) == 0.0


class TestRateCurveCommand:
    def test_small_ladder(self, tmp_path):
        code = main(["rate-curve", "--n-ladder", "50,100,200", "--gamma0", "0.5",
                     "--gamma-t", "0.8", "--horizon", "1", "--out", str(tmp_path)])
        assert code == 0
        lines = _read(tmp_path / "rate_curve.csv").strip().splitlines()
        assert lines[0] == "N,a_N,window_prob,I_ref"
        assert len(lines) == 4

    def test_long_ladder_against_window_infimum(self, tmp_path):
        # a_N tends to the infimum of I(0.5 -> .) over the window [0.78, 0.82],
        # I(0.5 -> 0.78), not to I(0.5 -> 0.8) = 0.03493, which a_N passes
        # between N=400 and N=1600
        from bdld.optimal_paths import optimal_action
        code = main(["rate-curve", "--n-ladder", "100,400,1600,3200", "--gamma0", "0.5",
                     "--gamma-t", "0.8", "--horizon", "1", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads(_read(tmp_path / "report.json"))
        assert report["results"]["I_ref"] == optimal_action(0.5, 0.78, 1.0, 1.0, tol=1e-9)
        assert abs(report["results"]["I_ref"] - 0.03087) <= 1e-5
        assert report["verdicts"]["gap_decreasing"] is True

    def test_window_holding_the_start_has_zero_reference(self, tmp_path):
        code = main(["rate-curve", "--n-ladder", "50,100", "--gamma0", "0.5",
                     "--gamma-t", "0.51", "--horizon", "1", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads(_read(tmp_path / "report.json"))
        assert report["results"]["I_ref"] == 0.0
        assert _read(tmp_path / "rate_curve.csv").splitlines()[1].endswith(",0")

    def test_window_holding_the_whole_chain_passes(self, tmp_path):
        code = main(["rate-curve", "--n-ladder", "10,20", "--gamma0", "0.5", "--gamma-t", "0.8",
                     "--half-width", "1e300", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads(_read(tmp_path / "report.json"))
        assert report["results"]["gaps"] == [0.0, 0.0]
        assert report["verdicts"]["gap_decreasing"] is True

    @pytest.mark.parametrize("rates, decreasing", [
        ((0.2, 0.1, 0.0), True),
        ((0.0, 0.0, 0.0), True),
        ((0.1, 0.2), False),
        ((0.1, 0.1), False),
        ((0.0, 0.1), False),
        ((0.1, 0.0, 0.0, 0.1), False),
    ])
    def test_gap_verdict(self, tmp_path, monkeypatch, rates, decreasing):
        # the window [0.49, 0.53] holds gamma0, so I_ref = 0 and each gap is a_N
        from bdld.evolve import RatePoint
        monkeypatch.setattr(cli, "empirical_rate_curve", lambda params_list, *args, **kwargs: [
            RatePoint(p.n_states, rate, math.exp(-p.n_states * rate))
            for p, rate in zip(params_list, rates)])
        ladder = ",".join(str(10 * (i + 1)) for i in range(len(rates)))
        code = main(["rate-curve", "--n-ladder", ladder, "--gamma0", "0.5", "--gamma-t", "0.51",
                     "--out", str(tmp_path)])
        report = json.loads(_read(tmp_path / "report.json"))
        assert report["results"]["gaps"] == list(rates)
        assert report["verdicts"]["gap_decreasing"] is decreasing
        assert code == (0 if decreasing else 1)


class TestOptPathCommand:
    def test_single_path(self, tmp_path):
        code = main(["opt-path", "--gamma0", "0.5", "--gamma-t", "1.0",
                     "--horizon", "2", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads(_read(tmp_path / "report.json"))
        assert report["results"]["max_residual"] <= 1e-8
        assert report["verdicts"] == {"residuals": True}
        [path_entry] = report["results"]["paths"]
        assert abs(path_entry["c1"] - (-3 - math.sqrt(33)) / 2) <= 1e-12

    def test_residuals_are_judged_per_unit_lambda(self, tmp_path):
        # both equations scale with lambda: at 1e9 their round-off once failed 1e-8
        code = main(["opt-path", "--gamma0", "0.3", "--gamma-t", "0.7", "--lambda", "1e9",
                     "--horizon", "2", "--out", str(tmp_path)])
        assert code == 0
        assert json.loads(_read(tmp_path / "report.json"))["results"]["max_residual"] <= 1e-15

    @pytest.mark.parametrize("gamma_t, horizon", [("0.5", "1e-8"), ("1", "1e-10")])
    def test_residuals_are_relative_to_the_equations_terms(self, tmp_path, gamma_t, horizon):
        # leaving zero at a short horizon, the terms reach lam/|x(x+1)| ~ 1e13,
        # and their round-off once read 9.5e-7 and 2.4e-4 against 1e-8
        code = main(["opt-path", "--gamma0", "0", "--gamma-t", gamma_t, "--horizon", horizon,
                     "--out", str(tmp_path)])
        assert code == 0
        assert json.loads(_read(tmp_path / "report.json"))["results"]["max_residual"] <= 1e-15

    def test_figure_bundles(self, tmp_path):
        code = main(["opt-path", "--figure", "fig2", "--out", str(tmp_path / "f2")])
        assert code == 0
        fig2 = sorted(p.name for p in (tmp_path / "f2").glob("fig2_*.csv"))
        assert len(fig2) == 4
        header = _read(tmp_path / "f2" / fig2[0]).splitlines()[0]
        assert header == "t,gamma"
        code = main(["opt-path", "--figure", "fig3", "--out", str(tmp_path / "f3")])
        assert code == 0
        fig3 = sorted(p.name for p in (tmp_path / "f3").glob("fig3_*.csv"))
        assert len(fig3) == 5
        header = _read(tmp_path / "f3" / fig3[0]).splitlines()[0]
        assert header == "t,gamma,z,kappa"

    def test_figure_refuses_the_settings_it_fixes(self, tmp_path, capsys):
        # fig2 once ran at T = 2 while its report echoed these settings
        code = main(["opt-path", "--figure", "fig2", "--gamma0", "0.3", "--horizon", "5",
                     "--out", str(tmp_path / "bad")])
        assert code == 2
        assert "--figure fig2 sets its own --gamma0, --horizon" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()
        # the figure's own horizon is no conflict, and changes nothing
        assert main(["opt-path", "--figure", "fig2", "--out", str(tmp_path / "a")]) == 0
        assert main(["opt-path", "--figure", "fig2", "--horizon", "2",
                     "--out", str(tmp_path / "b")]) == 0
        tables = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
        assert len(tables) == 4
        for name in tables:
            assert _read(tmp_path / "b" / name) == _read(tmp_path / "a" / name)


class TestActionCommand:
    def test_boundary_mode(self, tmp_path):
        code = main(["action", "--gamma0", "0.5", "--gamma-t", "0.8",
                     "--horizon", "1", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads(_read(tmp_path / "report.json"))
        assert abs(report["results"]["I"] - 0.034929359588850) <= 1e-8

    def test_path_csv_mode(self, tmp_path):
        source = tmp_path / "path.csv"
        rows = ["t,gamma,dgamma"]
        for i in range(201):
            t = i / 200
            rows.append(f"{t},{0.5 + 0.3 * t * t},{0.6 * t}")
        source.write_text("\n".join(rows) + "\n")
        code = main(["action", "--path-csv", str(source), "--out", str(tmp_path / "o")])
        assert code == 0
        report = json.loads(_read(tmp_path / "o" / "report.json"))
        assert report["results"]["I"] > 0.0
        assert "I_closed_form" not in report["results"]
        assert report["verdicts"] == {"quadrature_converged": True}

    def test_two_row_path_csv_takes_the_chord_slope(self, tmp_path):
        # two rows without dgamma: the derivative is the chord's slope at both
        # ends, fl(0.8 - 0.5) = 0.30000000000000004
        actions = []
        for name, text in (("bare", "t,gamma\n0,0.5\n1,0.8\n"),
                           ("slope", "t,gamma,dgamma\n0,0.5,0.30000000000000004\n"
                                     "1,0.8,0.30000000000000004\n")):
            (tmp_path / f"{name}.csv").write_text(text)
            assert main(["action", "--path-csv", str(tmp_path / f"{name}.csv"),
                         "--out", str(tmp_path / name)]) == 0
            actions.append(json.loads(_read(tmp_path / name / "report.json"))["results"]["I"])
        assert actions[0] == actions[1] == pytest.approx(float.fromhex("0x1.1f644f28855d1p-5"),
                                                         rel=1e-12, abs=0.0)

    def test_missing_inputs(self, tmp_path, capsys):
        assert main(["action", "--out", str(tmp_path)]) == 2

    def test_path_from_zero_matches_closed_form(self, tmp_path):
        # the integrand's log singularity at t = 0 against S = gammaT ln(1 + 1/(lam T))
        argv = ["--gamma0", "0", "--gamma-t", "0.5", "--horizon", "2"]
        assert main(["action", *argv, "--out", str(tmp_path / "o")]) == 0
        report = json.loads(_read(tmp_path / "o" / "report.json"))
        assert report["verdicts"] == {"quadrature_converged": True, "matches_closed_form": True}
        assert report["results"]["I_closed_form"] == pytest.approx(0.5 * math.log(1.5),
                                                                   rel=1e-15, abs=0.0)
        assert abs(report["results"]["I"] - report["results"]["I_closed_form"]) <= 1e-9

    @pytest.mark.parametrize("argv", [
        ["--gamma0", "0.3", "--gamma-t", "0.001", "--horizon", "1e8", "--tol", "1e-12"],
        ["--gamma0", "0.3", "--gamma-t", "0.5", "--horizon", "1e4"],
        ["--gamma0", "0.5", "--gamma-t", "0.8", "--horizon", "100"],
    ])
    def test_slow_path_matches_closed_form(self, tmp_path, argv):
        # along a slow path |u| << 2 lam gamma, where L's a - hypot(u, a)
        # once cancelled: I read 3.3e-9 against 2.66e-9 at T = 1e8, and
        # 2.7e-7 and 1.9e-11 relative off at T = 1e4 and 100
        assert main(["action", *argv, "--out", str(tmp_path)]) == 0
        results = json.loads(_read(tmp_path / "report.json"))["results"]
        assert results["I"] == pytest.approx(results["I_closed_form"], rel=1e-14, abs=0.0)

    def test_infinite_action_serializes_cleanly(self, tmp_path):
        # a path resting at zero with nonzero velocity has infinite action;
        # the report must stay strict JSON
        source = tmp_path / "path.csv"
        source.write_text(
            "t,gamma,dgamma\n0,0.2,-0.4\n0.25,0.1,-0.4\n0.5,0,0.4\n0.75,0.1,0.4\n1,0.2,0.4\n")
        code = main(["action", "--path-csv", str(source), "--out", str(tmp_path / "o")])
        assert code == 0
        report = json.loads(_read(tmp_path / "o" / "report.json"))
        assert report["results"]["I"] == "inf"


class TestTiltedMcCommand:
    def test_small_run_matches_oracle(self, tmp_path):
        code = main(["tilted-mc", "--n", "30", "--gamma0", "0.5", "--gamma-t", "0.8",
                     "--horizon", "1", "--half-width", "0.05", "--reps", "1500",
                     "--seed", "6", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads(_read(tmp_path / "report.json"))
        assert report["verdicts"]["matches_oracle"] is True
        results = report["results"]
        assert results["jumps"] > 0
        assert 1.0 <= results["ess"] <= 1500
        assert 0.0 < results["max_weight_share"] <= 1.0
        assert results["rel_err_per_sample"] == pytest.approx(
            results["stderr"] * math.sqrt(1500) / results["estimate"], rel=1e-12, abs=0.0)
        header = _read(tmp_path / "tilted_mc.csv").splitlines()[0]
        assert header == "estimate,stderr,exact,replications"

    def test_readme_run_passes(self, tmp_path):
        code = main(["tilted-mc", "--n", "100", "--gamma0", "0.5", "--gamma-t", "0.8",
                     "--reps", "10000", "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads(_read(tmp_path / "report.json"))
        assert report["verdicts"]["matches_oracle"] is True

    @pytest.mark.parametrize("n, reps, seed", [(1600, 20, 4), (800, 20, 5), (100, 1, 1)])
    def test_run_far_from_the_oracle_fails(self, tmp_path, n, reps, seed):
        # about 11 sigma low at N = 1600, where a floor of 1e-15 on the
        # standard error would pass any estimate, and about 40 sigma low at
        # N = 800; one replication has a standard error of 0 and passes
        # only with the exact value
        code = main(["tilted-mc", "--n", str(n), "--gamma0", "0.5", "--gamma-t", "0.8",
                     "--reps", str(reps), "--seed", str(seed), "--out", str(tmp_path)])
        assert code == 1
        results = json.loads(_read(tmp_path / "report.json"))["results"]
        assert abs(results["estimate"] - results["exact"]) > 3 * results["stderr"]

    @pytest.mark.parametrize("seed", [0, 8])
    def test_identity_tilt_judges_the_hit_count(self, tmp_path, seed):
        # --gamma0 = --gamma-t: every weight is 1, and 0 hits of 10 have a
        # stderr of 0, which no 3-sigma band passes; the binomial test of
        # the count passes it against the exact 0.1674
        code = main(["tilted-mc", "--n", "50", "--gamma0", "0.5", "--gamma-t", "0.5",
                     "--reps", "10", "--seed", str(seed), "--out", str(tmp_path)])
        results = json.loads(_read(tmp_path / "report.json"))["results"]
        assert (results["estimate"], results["stderr"]) == (0.0, 0.0)
        assert results["exact"] == pytest.approx(0.1674, abs=1e-4)
        assert code == 0

    def test_identity_tilt_fails_a_wrong_exact(self, tmp_path, monkeypatch):
        # 0 hits of 10 lie in a tail of probability 1e-10 under p = 0.9
        monkeypatch.setattr(cli, "_window_mass", lambda *args: (0.9, math.log(0.9)))
        code = main(["tilted-mc", "--n", "50", "--gamma0", "0.5", "--gamma-t", "0.5",
                     "--reps", "10", "--seed", "0", "--out", str(tmp_path)])
        assert code == 1
        assert json.loads(_read(tmp_path / "report.json"))["verdicts"]["matches_oracle"] is False

    def test_oracle_below_the_linear_threshold(self, tmp_path):
        # the window 588..600's linear mass at the bulk Poisson cutoff
        # underflows to zero; the oracle answers from the log-space chain
        code = main(["tilted-mc", "--n", "600", "--gamma0", "0.5", "--gamma-t", "0.99",
                     "--half-width", "0.01", "--horizon", "0.1", "--reps", "10",
                     "--out", str(tmp_path)])
        assert code in (0, 1)
        exact = json.loads(_read(tmp_path / "report.json"))["results"]["exact"]
        # ln P from scripts/mp_window.py
        assert math.log(exact) == pytest.approx(-341.16046390633267, rel=1e-9, abs=0.0)


class TestWriteCsv:
    @pytest.fixture
    def small_batch(self, monkeypatch):
        import bdld.serialize
        monkeypatch.setattr(bdld.serialize, "_CSV_BATCH", _CSV_BATCH)

    @pytest.mark.usefixtures("small_batch")
    def test_matches_row_by_row_formatting(self, tmp_path):
        # several batches of rows mixing Python and numpy floats and ints
        import csv
        import io

        import numpy as np

        from bdld.serialize import format_value, write_csv
        rows = [(i, np.int64(-i), 0.1 * i, np.float64(1.0 / (i + 1)), f"s{i}",
                 math.inf if i % 7 == 0 else -0.0)
                for i in range(1300)]
        write_csv(tmp_path / "t.csv", ["a", "b", "c", "d", "e", "f"], rows)
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["a", "b", "c", "d", "e", "f"])
        for row in rows:
            writer.writerow([format_value(x) for x in row])
        assert (tmp_path / "t.csv").read_bytes() == want.getvalue().encode()
        assert want.getvalue().splitlines()[2] == "1,-1,0.10000000000000001,0.5,s1,-0"
        self._check_as_array(tmp_path, ["a", "b", "c", "d", "f"],
                             [(a, b, c, d, f) for a, b, c, d, _, f in rows], "iifff")

    def test_ragged_rows_rejected(self, tmp_path):
        from bdld.serialize import write_csv
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [(1, 2), (3,)])

    def test_structured_rows_of_another_width_rejected(self, tmp_path):
        from bdld.serialize import write_csv
        rows = np.array([(0.1, 3)], dtype=[("x", np.float64), ("k", np.int64)])
        with pytest.raises(ValueError, match="header's 3 fields"):
            write_csv(tmp_path / "t.csv", ["x", "k", "y"], rows)

    @staticmethod
    def _reference(header, rows) -> bytes:
        # csv.writer over format_value text, one row at a time
        import csv
        import io

        from bdld.serialize import format_value
        out = io.StringIO(newline="")
        writer = csv.writer(out)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(x) for x in row])
        return out.getvalue().encode()

    def _check(self, tmp_path, header, rows):
        from bdld.serialize import write_csv
        write_csv(tmp_path / "t.csv", header, rows)
        assert (tmp_path / "t.csv").read_bytes() == self._reference(header, rows)

    def _check_as_array(self, tmp_path, header, rows, kinds):
        # the rows as list rows and as a structured array, each column of
        # kind f (float64) or i (int64)
        self._check(tmp_path, header, rows)
        dtype = [(name, {"f": np.float64, "i": np.int64}[kind]) for name, kind in zip(header, kinds)]
        self._check(tmp_path, header, np.array(rows, dtype=dtype))

    @pytest.mark.parametrize("table, numpy_route", [
        (np.array([(0.1, 3)], dtype=[("x", np.float64), ("k", np.int64)]), True),
        ([(0.1, 3)], False),
        (np.array([(0.1, 3)], dtype=[("x", np.float32), ("k", np.int64)]), False),
        (np.array([(0.1, True)], dtype=[("x", np.float64), ("k", np.bool_)]), False),
    ], ids=["float64_int64", "list", "float32", "bool"])
    def test_route(self, tmp_path, monkeypatch, table, numpy_route):
        # only a structured array of float64 and int64 fields is formatted
        # in numpy; a float32 cell keeps its type and writes 0.1
        import bdld.serialize
        real, batches = bdld.serialize._csv_bytes, []
        monkeypatch.setattr(bdld.serialize, "_csv_bytes",
                            lambda *args: batches.append(args) or real(*args))
        self._check(tmp_path, ["x", "k"], table)
        assert bool(batches) == numpy_route
        assert (tmp_path / "t.csv").read_text().split()[1].startswith("0.1")

    @pytest.mark.parametrize("header", [["a", "b"], ["a"]])
    def test_strings_that_need_quotes(self, tmp_path, header):
        texts = ["", "a,b", 'say "hi"', '"', "cr\rhere", "lf\nhere", "crlf\r\n", " x ", "tab\t", "é"]
        rows = [(text,) * len(header) for text in texts]
        self._check(tmp_path, header, rows)
        self._check(tmp_path, ["", 'q"', "c,d"][:len(header)], rows)

    def test_bool_none_and_float32_cells(self, tmp_path):
        import numpy as np
        rows = [(True, None, np.float32(0.1), np.bool_(False), np.float32("nan")),
                (False, None, np.float32(-2.5), np.bool_(True), np.float16(0.1))]
        self._check(tmp_path, list("abcde"), rows)

    def test_ints_beyond_float_precision(self, tmp_path):
        import numpy as np
        rows = [(2**53 + 1, -(2**63) - 1, np.uint64(2**64 - 1), np.int64(-(2**63)), 10**30)]
        self._check(tmp_path, list("abcde"), rows)
        assert (tmp_path / "t.csv").read_text().splitlines()[1].startswith("9007199254740993,")

    def test_special_floats(self, tmp_path):
        import numpy as np
        values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072009e-308,
                  1e300, -1e300, 1.7976931348623157e308, 0.1, 1 / 3]
        rows = [(x, np.float64(-x)) for x in values]
        self._check_as_array(tmp_path, ["x", "minus_x"], rows, "ff")

    @pytest.mark.usefixtures("small_batch")
    def test_column_types_mixed_within_and_across_batches(self, tmp_path):
        mixed = [1, 1.5, "s", None, True, -0.0]
        rows = [(i, 0.25 * i, mixed[i % len(mixed)]) for i in range(_CSV_BATCH)]
        # in the second batch the first column turns float, the second int,
        # and the third holds ints alone
        rows += [(i + 0.5, i, i) for i in range(_CSV_BATCH)]
        rows += [("x", float(i), i if i % 2 else 0.5) for i in range(3)]
        self._check(tmp_path, ["a", "b", "c"], rows)

    @pytest.mark.usefixtures("small_batch")
    @pytest.mark.parametrize("size", [0, 1, _CSV_BATCH - 1, _CSV_BATCH, _CSV_BATCH + 1,
                                      3 * _CSV_BATCH + 1])
    def test_batch_edges(self, tmp_path, size):
        import numpy as np
        rng = np.random.default_rng(size)
        rows = list(zip(rng.standard_normal(size).tolist(), rng.integers(-9, 9, size).tolist()))
        self._check_as_array(tmp_path, ["time", "state"], rows, "fi")

    @pytest.mark.usefixtures("small_batch")
    def test_rows_must_match_the_header(self, tmp_path):
        from bdld.serialize import write_csv
        rows = [(1.0, 2)] * (_CSV_BATCH + 5) + [(3.0,)]
        with pytest.raises(ValueError, match="header's 2 fields"):
            write_csv(tmp_path / "t.csv", ["a", "b"], rows)
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a"], [(1.0, 2)])

    @pytest.mark.usefixtures("small_batch")
    @pytest.mark.parametrize("n, horizon", [(3, 1000.0), (50, 40.0), (1000, 5.0)])
    def test_trajectory_csv(self, tmp_path, n, horizon):
        from bdld.chain import ModelParams
        from bdld.simulate import SimConfig, sample_path
        traj = sample_path(ModelParams(n, 1.0),
                           SimConfig(horizon=horizon, seed=12, initial=n // 2 + 1, replications=1))
        assert traj.n_jumps > 2 * _CSV_BATCH
        traj.to_csv(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == self._reference(*traj.csv_table())

    def test_batches_of_the_writers_own_size(self, tmp_path):
        from bdld.serialize import _CSV_BATCH as batch
        rng = np.random.default_rng(7)
        size = 2 * batch + 1
        rows = list(zip((rng.standard_normal(size) * 10.0 ** rng.integers(-8, 19, size)).tolist(),
                        rng.integers(-(2**63), 2**63 - 1, size).tolist()))
        self._check_as_array(tmp_path, ["x", "k"], rows, "fi")

    @pytest.mark.parametrize("values", [
        # exact ties: |x| * 10**k = p + e with e = -1/2, -1/2, +1/2, -1/2, +3/2,
        # -3/2, +5/2 and +13/2, rounded to even
        [393830644827882.875, 302674492607845.875, 541408024924933.125, 142450403503306.375,
         306340411905615.4, 254714224224467.62, 444092797693113.6, 85316617327761.06],
        [y for p in (float(f"1e{k}") for k in range(-6, 17))
         for y in (p, math.nextafter(p, 0.0), math.nextafter(p, math.inf))],
        # the per-cell bounds and their neighbours on the numpy side
        [1e-6, 1e17, math.nextafter(1e-6, 1.0), math.nextafter(1e17, 0.0), 5e-7, 2e17],
        # where '%.17g' switches between fixed and exponent form
        [9.9999999999999991e-05, 1e-4, math.nextafter(1e-4, 0.0), 1.5e-5, 9.99e-5],
        [-0.0, 0.0, 5e-324, 2.2250738585072009e-308, math.inf, math.nan, -1.25, -1e-5, 1 / 3],
    ], ids=["ties", "powers_of_ten", "per_cell_bounds", "layout_switch", "specials"])
    def test_hard_floats(self, tmp_path, values):
        import numpy as np
        rows = [(x, -x) for x in values]
        self._check(tmp_path, ["x", "minus_x"], rows)
        self._check(tmp_path, ["x", "minus_x"],
                    np.array(rows, dtype=[("x", np.float64), ("minus_x", np.float64)]))

    @pytest.mark.parametrize("column, dtype", [
        ([2**63 - 1, -(2**63), 0, -1, 9999, 10_000, -10_000, 10**18], np.int64),
        ([np.int64(2**63 - 1), np.int64(-(2**63)), np.int8(-128), np.uint32(2**32 - 1), 3], None),
        ([-128, 0, 127], np.int8),
        ([0, 2**32 - 1], np.uint32),
        ([np.uint64(2**64 - 1), np.uint64(2**63), np.uint64(1)], np.uint64),
        ([2**63, 1, -5], None),
        ([2**64, -(2**63) - 1, 5], None),
        ([True, False, True], np.bool_),
        ([np.bool_(True), np.bool_(False)], np.bool_),
    ], ids=["int64", "numpy_ints", "int8", "uint32", "uint64", "above_int64", "beyond_int64",
            "bool", "numpy_bool"])
    def test_int_columns(self, tmp_path, column, dtype):
        # each column as list rows and, where one numpy dtype holds it, as a
        # structured array beside a float field
        rows = [(x, 0.5) for x in column]
        for table in [rows] + ([] if dtype is None else
                               [np.array(rows, dtype=[("k", dtype), ("x", np.float64)])]):
            self._check(tmp_path, ["k", "x"], table)
            if dtype is np.bool_:
                assert [line.split(",")[0] for line in
                        (tmp_path / "t.csv").read_text().split()[1:]] == [str(x) for x in column]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(), st.floats(width=32)), max_size=30))
    def test_any_floats(self, rows):
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            self._check_as_array(Path(tmp), ["x", "y"], rows, "ff")

    def test_trajectory_times_across_the_layouts(self, tmp_path):
        from bdld.simulate import Trajectory
        times = np.array([5e-7, 1e-6, math.nextafter(1e-6, 1.0), 3e-5, 9.9999999999999991e-05,
                          1e-4, 0.25, 12.5, 1e16, math.nextafter(1e17, 0.0), 1e17, 3e17, 1e18])
        states = np.where(np.arange(times.size) % 2 == 0, 6, 5)
        traj = Trajectory(5, times, states, 1e18)
        traj.to_csv(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == self._reference(*traj.csv_table())
        assert (tmp_path / "t.csv").read_text().split()[:8] == [
            "time,state", "0,5", "4.9999999999999998e-07,6", "9.9999999999999995e-07,5",
            "1.0000000000000002e-06,6", "3.0000000000000001e-05,5", "9.9999999999999991e-05,6",
            "0.0001,5"]


class TestConfigHandling:
    def test_settings_echo_is_typed(self, tmp_path):
        assert main(["lln-stationary", "--n", "20", "--u", "0.5", "--times", "0.2,0.6",
                     "--reps", "5", "--out", str(tmp_path)]) == 0
        settings = json.loads(_read(tmp_path / "report.json"))["spec"]["settings"]
        assert settings["times"] == [0.2, 0.6]
        assert settings["reps"] == 5 and "horizon" not in settings

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BDLD_OUT", str(tmp_path / "envout"))
        assert main(["stationary", "--n", "3"]) == 0
        assert (tmp_path / "envout" / "stationary.csv").exists()


class TestSerializeHelpers:
    def test_jsonable_scrubs_numpy_and_nonfinite(self):
        import numpy as np

        from bdld.serialize import jsonable

        obj = {"a": np.float64(1.5), "b": [np.int64(3), float("inf")],
               "c": float("nan"), "d": np.array([1.0, 2.0])}
        scrubbed = jsonable(obj)
        assert scrubbed == {"a": 1.5, "b": [3, "inf"], "c": "nan", "d": [1.0, 2.0]}
        json.dumps(scrubbed, allow_nan=False)  # strict JSON round-trips


def _readme_commands():
    # the block's commands as scripts/readme_outputs.py reads them
    repo = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("readme_outputs",
                                                  repo / "scripts" / "readme_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.readme_commands(repo)


class TestReadmeCommands:
    def test_block_found(self):
        assert len(_readme_commands()) >= 10

    @pytest.mark.parametrize("line", _readme_commands())
    def test_command_parses(self, line):
        # every README command names only flags its subcommand declares,
        # and its settings normalise; nothing is run
        args = cli._build_parser().parse_args(shlex.split(line)[1:])
        cli._normalise(args.kind, cli._given(args))


def test_cli_import_loads_no_scipy():
    # the runtime depends on numpy alone; scipy is a test dependency
    done = subprocess.run(
        [sys.executable, "-c", "import sys, bdld.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=_SRC_ENV, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
