"""Tests for the command-line harness: dispatch, reports, exit codes,
determinism and figure bundles."""

import json
import math

import pytest

from bdld.cli import ExperimentSpec, UsageError, emit_figure_data, main, run


def _read(path):
    return path.read_text()


class TestExitCodes:
    def test_success(self, tmp_path):
        assert main(["stationary", "--n", "4", "--out", str(tmp_path)]) == 0

    def test_verdict_failure(self, tmp_path):
        # a 1.5x ladder cannot halve the prelimit error: built-in check fails
        code = main(["hconv", "--n-ladder", "100,150", "--out", str(tmp_path)])
        assert code == 1
        report = json.loads(_read(tmp_path / "report.json"))
        assert report["verdicts"]["halving"] is False

    def test_hconv_doubling_ladder_passes(self, tmp_path):
        assert main(["hconv", "--n-ladder", "200,400", "--out", str(tmp_path)]) == 0

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

    def test_library_contract_breach_is_usage_error(self, tmp_path, capsys):
        # u outside (0, 1] violates the experiment's contract: still "you
        # called it wrong", so exit 2
        code = main(["lln-stationary", "--n", "20", "--u", "1.5",
                     "--reps", "5", "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_internal_error(self, tmp_path, capsys, monkeypatch):
        import bdld.cli as cli_mod

        def boom(settings):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(cli_mod._HANDLERS, "stationary", boom)
        code = main(["stationary", "--n", "4", "--out", str(tmp_path)])
        assert code == 3
        assert "Traceback" in capsys.readouterr().err


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
        assert report["provenance"]["version"]


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

    def test_lln_stationary_oracle_verdict(self, tmp_path):
        code = main(["lln-stationary", "--n", "100", "--u", "0.3",
                     "--times", "0.2,0.6", "--reps", "400", "--seed", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        report = json.loads(_read(tmp_path / "report.json"))
        assert report["verdicts"]["matches_oracle"] is True
        assert 0.0 < report["results"]["exact"] < 1.0
        assert report["results"]["jumps"] > 0


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


class TestOptPathCommand:
    def test_single_path(self, tmp_path):
        code = main(["opt-path", "--gamma0", "0.5", "--gamma-t", "1.0",
                     "--horizon", "2", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads(_read(tmp_path / "report.json"))
        assert report["results"]["max_residual"] <= 1e-8
        assert report["results"]["max_boundary_error"] <= 1e-10
        [path_entry] = report["results"]["paths"]
        assert abs(path_entry["c1"] - (-3 - math.sqrt(33)) / 2) <= 1e-12

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

    def test_emit_figure_data(self, tmp_path):
        spec = ExperimentSpec("opt-path", {"lam": 1.0, "grid": 51, "figure": "fig2",
                                           "horizon": 2.0}, tmp_path)
        report = run(spec)
        bundle = emit_figure_data(report, "fig2")
        assert len(bundle) == 4
        with pytest.raises(UsageError):
            emit_figure_data(report, "fig3")
        other = run(ExperimentSpec("stationary", {"n": 4, "lam": 1.0}, tmp_path))
        with pytest.raises(UsageError):
            emit_figure_data(other, "fig2")


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

    def test_parabola_json_mode(self, tmp_path):
        from bdld.optimal_paths import solve_boundary
        blob = tmp_path / "pp.json"
        blob.write_text(json.dumps(solve_boundary(0.5, 0.8, 1.0, 1.0).to_json_obj()))
        code = main(["action", "--parabola-json", str(blob), "--out", str(tmp_path / "o")])
        assert code == 0
        report = json.loads(_read(tmp_path / "o" / "report.json"))
        assert abs(report["results"]["I"] - 0.034929359588850) <= 1e-8

    def test_missing_inputs(self, tmp_path, capsys):
        assert main(["action", "--out", str(tmp_path)]) == 2

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
        assert results["jumps"] > 0 and results["thinning_rejections"] > 0
        assert 1.0 <= results["ess"] <= 1500
        assert 0.0 < results["max_weight_share"] <= 1.0
        assert results["rel_err_per_sample"] == pytest.approx(
            results["stderr"] * math.sqrt(1500) / results["estimate"])
        header = _read(tmp_path / "tilted_mc.csv").splitlines()[0]
        assert header == "estimate,stderr,exact,replications"


class TestWriteCsv:
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

    def test_ragged_rows_rejected(self, tmp_path):
        from bdld.serialize import write_csv
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [(1, 2), (3,)])


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n": 4, "lam": 2.0}))
        out = tmp_path / "o"
        code = main(["stationary", "--config", str(config), "--n", "5",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(_read(out / "report.json"))
        assert report["spec"]["settings"]["n"] == 5       # flag wins
        assert report["spec"]["settings"]["lam"] == 2.0   # file fills the rest

    def test_bad_config(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text("[1, 2]")
        assert main(["stationary", "--config", str(config), "--n", "4",
                     "--out", str(tmp_path)]) == 2

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
