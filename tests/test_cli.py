import json
import logging
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import pathheat
from pathheat import audit, cli
from pathheat.errors import DomainError, InputError
from pathheat.grids import GridPath, TimeGrid

from conftest import write_path_csv


def _write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestConfig:
    def test_removed_key_rejected(self, tmp_path):
        cfg = _write(tmp_path, "seed = 3\neps = 0.1\n")
        with pytest.raises(InputError, match="'eps'"):
            cli.main(["solve", "--config", cfg, "--out", str(tmp_path)])

    def test_misspelled_key_rejected(self, tmp_path):
        cfg = _write(tmp_path, "seed = 3\nn_sample = 100\n")
        with pytest.raises(InputError, match="'n_sample'"):
            cli.main(["solve", "--config", cfg, "--out", str(tmp_path)])

    def test_known_keys_accepted(self, tmp_path):
        cfg = _write(tmp_path, "seed = 3\nsteps = 8\nn_samples = 16\n"
                               "terminal = terminal_value  # comment\n")
        assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "solve.csv").read_text().count("\n") == 3


# The shared settings each subcommand reads, and a valid value of each.
# A subcommand accepts no other shared setting, as a flag or a config key:
# the quadrature rules among them are the package's, settable by no
# subcommand.
READS = {
    "solve": {"horizon", "steps", "terminal", "n_samples"},
    "pde-check": {"horizon", "steps"},
    "gauge-check": {"d", "horizon", "steps"},
    "ito-check": {"horizon"},
    "vp-run": {"horizon", "steps"},
    "approx": {"horizon", "steps"},
    "comparison-demo": {"horizon", "steps", "terminal", "lam", "delta"},
}
VALUES = {"d": "1", "horizon": "1.0", "steps": "8", "terminal": "running_max",
          "n_samples": "16", "z_rule": "auto", "z_nodes": "5",
          "z_samples": "8", "s_nodes": "3", "lam": "0.5",
          "delta": "0.1,0.05"}
# A second valid value of each setting read, away from the SMOKE configs'.
ALTERNATE = {"d": "2", "horizon": "2.0", "steps": "40",
             "terminal": "terminal_value", "n_samples": "32", "lam": "1.0",
             "delta": "0.2,0.1"}


def _flag(key):
    return "--" + key.replace("_", "-")


class TestSettings:
    @pytest.mark.parametrize("command", sorted(READS))
    def test_help_lists_the_settings_read(self, command, capsys):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        shared = {_flag(k) for k in VALUES}
        assert listed & shared == {_flag(k) for k in READS[command]}

    @pytest.mark.parametrize("command", sorted(READS))
    def test_other_flags_rejected(self, command, tmp_path):
        for key in sorted(VALUES.keys() - READS[command]):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--seed", "1", _flag(key), VALUES[key],
                          "--out", str(tmp_path)])
            assert exc.value.code == 2, key

    @pytest.mark.parametrize("command", sorted(READS))
    def test_other_config_keys_rejected(self, command, tmp_path):
        for key in sorted(VALUES.keys() - READS[command]):
            cfg = _write(tmp_path, f"seed = 1\n{key} = {VALUES[key]}\n")
            with pytest.raises(InputError, match=f"'{key}'"):
                cli.main([command, "--config", cfg, "--out", str(tmp_path)])

    @pytest.mark.parametrize("command,key", [
        (command, key) for command in sorted(READS)
        for key in sorted(READS[command])])
    def test_every_setting_read_moves_a_row(self, tmp_path, command, key):
        # a setting that changes no row is one the subcommand ignores;
        # comparison-demo may exit 1 on a right side that is not monotone
        argv, csv_name = next((a, n) for a, n in SMOKE if a[0] == command)
        bodies = []
        for extra in ([], [_flag(key), ALTERNATE[key]]):
            out = tmp_path / str(len(bodies))
            assert cli.run(argv + extra + ["--out", str(out)]) in (0, 1)
            bodies.append((out / csv_name).read_text().split("\n", 1)[1])
        assert bodies[0] != bodies[1]

    @pytest.mark.parametrize("command,cap", [
        ("gauge-check", 128), ("vp-run", 128), ("comparison-demo", 200)])
    def test_steps_above_cap_rejected(self, command, cap, tmp_path):
        with pytest.raises(InputError, match=f"at most {cap} grid steps"):
            cli.main([command, "--seed", "1", "--steps", str(cap + 1),
                      "--out", str(tmp_path)])

    def test_bad_config_value_is_a_usage_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, "seed = 3\nsteps = abc\n")
        with pytest.raises(SystemExit) as exc:
            cli.run(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--steps: invalid int value: 'abc'" in capsys.readouterr().err


def _hash_line(tmp_path, argv):
    out = tmp_path / str(len(list(tmp_path.iterdir())))
    cli.run(argv + ["--out", str(out)])
    (csv_file,) = out.glob("*.csv")
    return csv_file.read_text().splitlines()[0]


class TestConfigHash:
    def test_mode_changes_hash(self, tmp_path):
        argv = ["comparison-demo", "--seed", "1", "--steps", "50", "--order",
                "8", "--n-points", "5", "--n-mc", "100", "--mode"]
        assert (_hash_line(tmp_path, argv + ["candidate"])
                != _hash_line(tmp_path, argv + ["subsolution"]))

    def test_command_option_changes_hash(self, tmp_path):
        argv = ["gauge-check", "--seed", "1", "--steps", "16", "--n-tuples"]
        assert (_hash_line(tmp_path, argv + ["4"])
                != _hash_line(tmp_path, argv + ["5"]))

    def test_flag_and_config_key_hash_alike(self, tmp_path):
        # and a flag overrides the file
        cfg = _write(tmp_path, "steps = 4\nn_samples = 16\n")
        by_file = _hash_line(tmp_path, ["solve", "--seed", "1", "--config", cfg,
                                        "--steps", "8"])
        by_flag = _hash_line(tmp_path, ["solve", "--seed", "1", "--steps", "8",
                                        "--n-samples", "16"])
        assert by_file == by_flag


class TestSeedContract:
    @pytest.mark.parametrize("argv", [
        ["solve", "--steps", "8", "--n-samples", "4"],
        ["vp-run", "--steps", "8", "--n-points", "4"],
    ])
    def test_negative_seed_rejected(self, tmp_path, argv):
        with pytest.raises(DomainError, match="seed -5"):
            cli.main(argv + ["--seed", "-5", "--out", str(tmp_path)])


# comparison-demo at the smoke size of the tests below, less its point count
SMALL_COMPARISON = ("comparison-demo", "--steps", "50", "--order", "8",
                    "--n-mc", "100")


def _fresh_env() -> dict:
    """The environment of a fresh process that imports this package."""
    src = str(Path(pathheat.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))


def _fresh_python(args, **kwargs) -> subprocess.CompletedProcess:
    """Run this interpreter in a fresh process that imports this package."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=_fresh_env(), timeout=120, **kwargs)


class TestImportFootprint:
    """The package starts on numpy alone, and a command imports nothing
    new while it runs: every benchmark call is a fresh process, and an
    import inside a command is timed as its work."""

    def test_start_loads_no_scipy(self):
        proc = _fresh_python(["-c", (
            "import sys, pathheat.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "print('numpy.random' in sys.modules)")])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:2] == ["[]", "True"]

    def test_commands_import_nothing(self, tmp_path):
        commands = [
            ["solve", "--steps", "50", "--n-samples", "100"],
            ["gauge-check", "--d", "1", "--n-tuples", "3"],
            ["gauge-check", "--d", "2", "--n-tuples", "2", "--steps", "32"],
            ["vp-run", "--n-points", "20"],
            ["comparison-demo", "--steps", "50", "--order", "8",
             "--n-points", "5", "--n-mc", "100"],
            ["ito-check", "--n-paths", "16"],
            ["pde-check", "--n-points", "2", "--steps", "100"],
            ["approx"],
        ]
        script = (
            "import contextlib, io, json, sys\n"
            "from pathheat import cli\n"
            "new = []\n"
            "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
            "    before = set(sys.modules)\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        cli.main(argv + ['--seed', '1', '--out', f'{sys.argv[2]}/{i}'])\n"
            "    new.append(sorted(set(sys.modules) - before))\n"
            "print(json.dumps(new))\n")
        proc = _fresh_python(["-c", script, json.dumps(commands), str(tmp_path)])
        assert proc.returncode == 0, proc.stderr
        new = json.loads(proc.stdout)
        assert len(new) == len(commands)
        # gettext loads locale the first time argparse translates a message
        allowed = {"locale", "_locale"}
        assert [(argv[0], mods) for argv, mods in zip(commands, new)
                if not set(mods) <= allowed] == []


# Path CSVs whose data rows the reader refuses, with the error line.
BAD_PATH_ROWS = [
    ("t,x1\n0,0\n1,1,2\n", "path CSV data row 2 has 3 values, not the header's 2"),
    ("t,x1\n0,a\n1,1\n", "path CSV data row 1 holds a value that is not a number"),
    ("t,x1,x2\n0,0\n1,1\n", "path CSV data row 1 has 2 values, not the header's 3"),
]
BAD_PATH_ROW_IDS = ["ragged", "not_a_number", "header_wider"]


class TestEntryPoint:
    def test_bad_input_is_one_line_and_exit_2(self, tmp_path):
        proc = _fresh_python(
            ["-m", "pathheat.cli", "solve", "--seed", "-5",
             "--steps", "8", "--n-samples", "4", "--out", str(tmp_path)])
        assert proc.returncode == 2
        assert proc.stderr == "pathheat: error: seed -5 outside [0, 2^128)\n"
        assert "Traceback" not in proc.stdout + proc.stderr

    def test_input_error_maps_to_exit_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "seed = 3\neps = 0.1\n")
        assert cli.run(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("pathheat: error: ") and "'eps'" in err
        assert err.count("\n") == 1

    def test_closed_stdout_exits_1_without_traceback(self, tmp_path):
        # the reader is gone before the command writes its first line
        proc = subprocess.Popen(
            [sys.executable, "-m", "pathheat.cli", "solve", "--seed", "1",
             "--steps", "8", "--n-samples", "16", "--out", str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_fresh_env())
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err == b""

    def test_progress_goes_to_stderr_of_the_console_entry_only(self, tmp_path):
        argv = ["comparison-demo", "--seed", "2", "--steps", "50", "--order",
                "8", "--n-points", "5", "--n-mc", "100", "--out", str(tmp_path)]
        proc = _fresh_python(["-m", "pathheat.cli", *argv])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[0] == (
            "space of 5 points; smoothing order 8 (17 coordinates)")
        assert len(proc.stderr.splitlines()) == 5  # and one line per delta
        assert "space of" not in proc.stdout
        assert "contradiction exhibited=False" in proc.stdout
        proc = _fresh_python(["-c", "import sys; from pathheat import cli; "
                              "sys.exit(cli.main(sys.argv[1:]))", *argv])
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "space of" not in proc.stdout

    @pytest.mark.parametrize("delta", ["-0.1", "nan", "0.1,0.2"])
    def test_bad_delta_exits_2(self, tmp_path, capsys, caplog, delta):
        caplog.set_level(logging.INFO, logger="pathheat")
        argv = ["comparison-demo", "--seed", "1", "--steps", "50", "--order",
                "8", "--n-points", "5", "--n-mc", "100", "--delta", delta,
                "--out", str(tmp_path)]
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert caplog.records == []  # rejected before the space is built
        assert captured.err.startswith("pathheat: error: ")
        assert delta.split(",")[-1] in captured.err
        assert not (tmp_path / "comparison_demo.csv").exists()

    def test_slope_from_one_grid_exits_2(self, tmp_path, capsys):
        argv = ["ito-check", "--seed", "1", "--n-paths", "16", "--exponents",
                "5", "--out", str(tmp_path)]
        assert cli.run(argv) == 2
        assert "at least two" in capsys.readouterr().err

    def test_slope_from_one_distinct_grid_exits_2(self, tmp_path, capsys):
        argv = ["ito-check", "--seed", "1", "--n-paths", "16", "--exponents",
                "5,5", "--out", str(tmp_path)]
        assert cli.run(argv) == 2
        assert "two distinct exponents" in capsys.readouterr().err
        assert not (tmp_path / "ito_check.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["gauge-check", "--n-tuples", "0"],
        ["gauge-check", "--n-tuples", "-2"],
        ["pde-check", "--n-points", "0"],
        ["gauge-check", "--d", "0"],
        ["gauge-check", "--d", "-1"],
    ])
    def test_check_of_nothing_exits_2(self, tmp_path, capsys, argv):
        # a check over no samples observes nothing and must not pass
        assert cli.run(argv + ["--seed", "1", "--steps", "16",
                               "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"pathheat: error: {argv[1]} must be at least 1, "
                       f"not {argv[2]}\n")
        assert list(tmp_path.iterdir()) == []

    def test_no_residual_degree_of_freedom_exits_2(self, tmp_path, capsys):
        argv = ["solve", "--seed", "1", "--steps", "8", "--n-samples", "3",
                "--out", str(tmp_path)]
        assert cli.run(argv) == 2
        assert "at least 4 samples" in capsys.readouterr().err

    def test_solve_time_off_the_grid_exits_2(self, tmp_path, capsys):
        # 0.3333 lies between the nodes of a 10-step grid: it would be
        # solved at 0.3 and reported as 0.3333
        argv = ["solve", "--seed", "1", "--steps", "10", "--n-samples", "16",
                "--out", str(tmp_path)]
        assert cli.run(argv + ["--t", "0.3333"]) == 2
        assert capsys.readouterr().err == (
            "pathheat: error: time 0.3333 is not a grid node; the nearest node "
            "is 0.3\n")
        assert not (tmp_path / "solve.csv").exists()
        # a time within the node tolerance is the node
        assert cli.run(argv + ["--t", "0.3000000000001"]) == 0
        assert "at t=0.3: " in capsys.readouterr().out

    def test_calibration_failure_names_sample_size(self, tmp_path, capsys):
        # 20 calibration pairs are too few for the fixed shrink of alpha
        argv = ["gauge-check", "--seed", "4", "--d", "1", "--n-tuples", "20",
                "--calibrate", "--out", str(tmp_path)]
        assert cli.run(argv) == 1
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("gauge-check: FAIL (calibrated_lower")
        assert "calibrated on 20 pairs" in line and "fixed 0.9" in line
        rows = (tmp_path / "gauge_check.csv").read_text().splitlines()
        assert any(r.startswith("calibrated_lower,") and r.endswith(",FAIL")
                   for r in rows)

    @pytest.mark.parametrize("d", ["1", "2"])
    def test_gauge_check_passes_at_a_long_horizon(self, d, tmp_path, capsys):
        # at T = 50 some of the audits' time-smoothing integrals run past
        # s = 40 (to 40.6 at d = 1, 45.3 at d = 2), and the s-rule
        # integrates each of them to the anchor time
        argv = ["gauge-check", "--seed", "1", "--d", d, "--horizon", "50",
                "--steps", "32", "--n-tuples", "60", "--out", str(tmp_path)]
        assert cli.run(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "gauge-check: pass"

    @pytest.mark.parametrize("calibrate", [False, True])
    def test_gauge_check_roles_share_no_pair(self, tmp_path, monkeypatch,
                                             calibrate):
        # each role of a run audits pairs of its own; only the calibration
        # re-reads the estimator's 16 probes, which audit nothing
        draws = []
        random_pairs = audit.random_pairs

        def spy(grid, dimension, n, seed):
            pairs = list(random_pairs(grid, dimension, n, seed))
            draws.append({(a.t, a.path.values.tobytes(), p.t,
                           p.path.values.tobytes()) for a, p in pairs})
            return iter(pairs)

        monkeypatch.setattr(audit, "random_pairs", spy)
        monkeypatch.setattr(cli, "random_pairs", spy)
        argv = ["gauge-check", "--seed", "1", "--d", "1", "--n-tuples", "40",
                "--out", str(tmp_path)]
        assert cli.run(argv + ["--calibrate"] * calibrate) == 0
        assert [len(d) for d in draws] == [16, 40, 40] + [40, 40] * calibrate
        shared = [len(a & b) for i, a in enumerate(draws) for b in draws[i + 1:]
                  if a & b]
        assert shared == [16] * calibrate

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.cfg")
        argv = ["solve", "--seed", "1", "--config", missing, "--out", str(tmp_path)]
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("pathheat: error: ") and repr(missing) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag", [["solve", "--path"], ["vp-run", "--paths"]])
    def test_missing_path_file_exits_2(self, tmp_path, capsys, flag):
        missing = str(tmp_path / "missing.csv")
        assert cli.run(flag + [missing, "--seed", "1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("pathheat: error: cannot read path file ")
        assert repr(missing) in err and err.count("\n") == 1

    def test_non_finite_path_exits_2(self, tmp_path, capsys):
        paths = tmp_path / "nan.csv"
        paths.write_text("t,x1,x2\n0,0,0\n0.5,nan,1\n1,1,2\n")
        argv = ["vp-run", "--seed", "1", "--paths", str(paths), "--out", str(tmp_path)]
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert err == ("pathheat: error: path CSV holds a non-finite value in "
                       "data row 2\n")

    def test_vp_run_off_grid_time_exits_2(self, tmp_path, capsys):
        # the point is rejected, not moved to the node 0.3
        paths = str(tmp_path / "p.csv")
        write_path_csv(GridPath.zero(TimeGrid(1.0, 10)), paths)
        argv = ["vp-run", "--seed", "1", "--paths", paths, "--times", "0.5,0.3333",
                "--out", str(tmp_path)]
        assert cli.run(argv) == 2
        assert capsys.readouterr().err == (
            "pathheat: error: time 0.3333 is not a grid node; the nearest node "
            "is 0.3\n")
        assert not (tmp_path / "vp_run.csv").exists()

    def test_vp_run_default_time_on_an_odd_grid(self, tmp_path, capsys):
        # without --times the points sit at the middle node, which is 0.4,
        # not 0.5, on 5 steps
        paths = str(tmp_path / "p.csv")
        write_path_csv(GridPath.zero(TimeGrid(1.0, 5)), paths)
        argv = ["vp-run", "--seed", "1", "--paths", paths, "--out", str(tmp_path)]
        assert cli.run(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "t=0.4;" in captured.out
        assert (tmp_path / "vp_run.csv").exists()

    @pytest.mark.parametrize("text,message", [
        ("t,x1\n0.5,0\n1,0.25\n1.5,0.5\n", "path CSV times must start at 0, not 0.5"),
        ("t,x1\n0,0\n0.5,nan\n1,1\n", "path CSV holds a non-finite value in data row 2"),
        ("t,x1\n", "path CSV needs at least 2 data rows, not 0"),
        ("t,x1\n0,0\n", "path CSV needs at least 2 data rows, not 1"),
        *BAD_PATH_ROWS,
    ], ids=["late_start", "nan_at_t", "header_only", "one_row", *BAD_PATH_ROW_IDS])
    def test_bad_solve_path_exits_2(self, tmp_path, capsys, text, message):
        # a late start would shift the grid to [0, 1.5], a nan at the
        # evaluation node would reach the Monte-Carlo checks, fewer than
        # two nodes make no grid, and a header wider than its rows would be
        # read as a path of fewer components
        path = tmp_path / "f.csv"
        path.write_text(text)
        argv = ["solve", "--seed", "1", "--path", str(path), "--t", "0.5",
                "--terminal", "terminal_value", "--n-samples", "16",
                "--out", str(tmp_path)]
        assert cli.run(argv) == 2
        assert capsys.readouterr().err == f"pathheat: error: {message}\n"
        assert not (tmp_path / "solve.csv").exists()

    @pytest.mark.parametrize("text,message", BAD_PATH_ROWS, ids=BAD_PATH_ROW_IDS)
    def test_bad_vp_run_paths_exit_2(self, tmp_path, capsys, text, message):
        # the seed comes from a config key, the file from the flag
        paths = tmp_path / "p.csv"
        paths.write_text(text)
        cfg = _write(tmp_path, "seed = 1\n")
        argv = ["vp-run", "--config", cfg, "--paths", str(paths), "--out", str(tmp_path)]
        assert cli.run(argv) == 2
        assert capsys.readouterr().err == f"pathheat: error: {message}\n"
        assert not (tmp_path / "vp_run.csv").exists()

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_vp_run_non_finite_delta_weight_exits_2(self, tmp_path, capsys, delta):
        argv = ["vp-run", "--seed", "1", "--n-points", "12", "--delta-weight",
                delta, "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"pathheat: error: delta must be finite and "
                                f"positive, not {delta}\n")
        assert not (tmp_path / "vp_run.csv").exists()

    @pytest.mark.parametrize("argv,csv_name,message", [
        (["vp-run", "--n-points", "20", "--delta-weight", "1e-320"], "vp_run.csv",
         "delta 9.99989e-321 is too small for eps 3.15329: the bound "
         "eps/delta overflows"),
        (["vp-run", "--n-points", "-1"], "vp_run.csv",
         "the search space needs at least one path, not -1"),
        (["vp-run", "--n-points", "0"], "vp_run.csv",
         "the search space needs at least one path, not 0"),
        ([*SMALL_COMPARISON, "--n-points", "-1"], "comparison_demo.csv",
         "the search space needs at least one path, not -1"),
        ([*SMALL_COMPARISON, "--n-points", "5", "--delta", "1e-320"],
         "comparison_demo.csv", "delta 9.99989e-321 is too small for any eps: "
         "eps is at least 1e-09, and eps/delta overflows"),
        ([*SMALL_COMPARISON, "--n-points", "5", "--lam", "inf"],
         "comparison_demo.csv",
         "the scaling rate lam must be finite and positive, got inf"),
        ([*SMALL_COMPARISON, "--n-points", "5", "--lam", "nan"],
         "comparison_demo.csv",
         "the scaling rate lam must be finite and positive, got nan"),
        ([*SMALL_COMPARISON, "--n-points", "5", "--lam", "1e300"],
         "comparison_demo.csv", "the scaling rate lam = 1e+300 overflows "
         "exp(lam T) on the horizon T = 1.0"),
    ], ids=["vp-tiny-delta", "vp-negative-points", "vp-no-points",
            "comparison-negative-points", "comparison-tiny-delta",
            "lam-inf", "lam-nan", "lam-1e300"])
    def test_setting_out_of_range_exits_2_without_warning(
            self, tmp_path, capsys, argv, csv_name, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run([*argv, "--seed", "1", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"pathheat: error: {message}\n"
        assert not (tmp_path / csv_name).exists()

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_config_key_exits_2(self, tmp_path, capsys, delta):
        cfg = _write(tmp_path, f"seed = 1\ndelta = 0.1,{delta}\n")
        argv = ["comparison-demo", "--config", cfg, "--steps", "50", "--order",
                "8", "--n-points", "5", "--n-mc", "100", "--out", str(tmp_path)]
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert err == ("pathheat: error: every perturbation weight delta must be "
                       f"finite and positive, got {delta}\n")
        assert not (tmp_path / "comparison_demo.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["approx", "--seed", "1", "--orders", "4,x"],
        ["ito-check", "--seed", "1", "--exponents", "5,,6"],
    ])
    def test_bad_integer_list_is_a_usage_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"{argv[3]}: invalid _ints value" in capsys.readouterr().err

    def test_bad_float_list_is_a_usage_error(self, tmp_path, capsys):
        paths = str(tmp_path / "p.csv")
        write_path_csv(GridPath.zero(TimeGrid(1.0, 8)), paths)
        with pytest.raises(SystemExit) as exc:
            cli.run(["vp-run", "--seed", "1", "--paths", paths, "--times",
                     "0.5,x", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--times: invalid _floats value" in capsys.readouterr().err

    def test_solve_rejects_a_vector_path(self, tmp_path, capsys):
        # the registry terminals read scalar paths
        path = str(tmp_path / "p.csv")
        write_path_csv(GridPath.zero(TimeGrid(1.0, 8), 2), path)
        argv = ["solve", "--seed", "1", "--path", path, "--n-samples", "8",
                "--terminal", "cyl:trig2", "--out", str(tmp_path)]
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert "'cyl:trig2' reads scalar paths" in err and "2 columns" in err
        assert not (tmp_path / "solve.csv").exists()

    @pytest.mark.parametrize("spec", ["cyl:linear,running_max", "nosuch"])
    def test_bad_spec_leaves_previous_csv_untouched(self, tmp_path, spec):
        # every spec is resolved before pde_check.csv is opened
        previous = tmp_path / "pde_check.csv"
        previous.write_text("previous run\n")
        argv = ["pde-check", "--seed", "1", "--steps", "16", "--n-points", "1",
                "--spec", spec, "--out", str(tmp_path)]
        assert cli.run(argv) == 2
        assert previous.read_text() == "previous run\n"

    def test_spec_names_are_stripped(self, tmp_path, capsys):
        argv = ["pde-check", "--seed", "1", "--steps", "16", "--n-points", "1",
                "--spec", "cyl:linear, cyl:trig2", "--out", str(tmp_path)]
        assert cli.run(argv) == 0
        rows = (tmp_path / "pde_check.csv").read_text().splitlines()[2:]
        assert [r.split(",")[0] for r in rows] == ["cyl:linear", "cyl:trig2"]
        argv[argv.index("--spec") + 1] = "cyl:linear, running_max"
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert err == ("pathheat: error: running_max is not a cylinder "
                       "functional\n")

    @pytest.mark.parametrize("flags,named", [
        (["--n-points", "12", "--times", "0.1,0.9"], "--times"),
        (["--paths", "p.csv", "--n-points", "7"], "--n-points"),
    ])
    def test_vp_run_rejects_a_flag_it_would_ignore(self, tmp_path, monkeypatch,
                                                   capsys, flags, named):
        monkeypatch.chdir(tmp_path)
        write_path_csv(GridPath.zero(TimeGrid(1.0, 8)), "p.csv")
        assert cli.run(["vp-run", "--seed", "3", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"pathheat: error: {named} ") and err.count("\n") == 1
        assert not (tmp_path / "vp_run.csv").exists()

    @pytest.mark.parametrize("command,path_flag", [("solve", "--path"),
                                                   ("vp-run", "--paths")])
    @pytest.mark.parametrize("setting", [["--steps", "50"], ["--steps=50"],
                                         ["--horizon", "2"], "steps = 50",
                                         "horizon = 2"])
    def test_grid_setting_beside_a_path_file_exits_2(
            self, tmp_path, monkeypatch, capsys, command, path_flag, setting):
        # the grid of the path file would silently replace the setting
        monkeypatch.chdir(tmp_path)
        write_path_csv(GridPath.zero(TimeGrid(1.0, 16)), "p.csv")
        if isinstance(setting, str):
            named = "--" + setting.split(" ")[0]
            setting = ["--config", _write(tmp_path, f"seed = 1\n{setting}\n")]
        else:
            named = setting[0].split("=")[0]
        argv = [command, path_flag, "p.csv", "--seed", "1", *setting]
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"pathheat: error: {named} ") and err.count("\n") == 1
        assert path_flag in err
        assert sorted(f.name for f in tmp_path.glob("*.csv")) == ["p.csv"]

    @pytest.mark.parametrize("command,path_flag,csv_name", [
        ("solve", "--path", "solve.csv"), ("vp-run", "--paths", "vp_run.csv")])
    def test_path_file_sets_the_grid(self, tmp_path, monkeypatch, command,
                                     path_flag, csv_name):
        # settings other than steps and horizon still go with a path file
        monkeypatch.chdir(tmp_path)
        write_path_csv(GridPath.zero(TimeGrid(2.0, 16)), "p.csv")
        extra = ["--n-samples", "16"] if command == "solve" else ["--times", "1.5"]
        cfg = _write(tmp_path, "seed = 1\n")
        assert cli.run([command, path_flag, "p.csv", "--config", cfg, *extra]) == 0
        assert (tmp_path / csv_name).exists()

    @pytest.mark.parametrize("orders", ["64,16", "16,16"])
    def test_orders_not_increasing_exit_2(self, tmp_path, capsys, orders):
        argv = ["approx", "--seed", "1", "--steps", "128", "--orders", orders,
                "--out", str(tmp_path)]
        assert cli.run(argv) == 2
        assert "strictly increasing" in capsys.readouterr().err
        assert not (tmp_path / "approx.csv").exists()

    def test_failed_check_still_exits_1(self, tmp_path):
        argv = ["approx", "--seed", "1", "--steps", "64", "--orders", "4,8",
                "--tol", "1e-9", "--out", str(tmp_path)]
        assert cli.run(argv) == 1


# Tiny configs, each well under 2 s.  comparison-demo exits 0 only when the
# chain's right side is monotone in delta, which holds at seed 2 here (it
# fails on a few seeds, seed 1 among them: see
# test_non_monotone_right_side_exits_1 and bench/workloads.py).
SMOKE = [
    (["solve", "--seed", "1", "--steps", "8", "--n-samples", "16"],
     "solve.csv"),
    (["pde-check", "--seed", "1", "--steps", "16", "--n-points", "2"],
     "pde_check.csv"),
    (["gauge-check", "--seed", "1", "--steps", "16", "--n-tuples", "4"],
     "gauge_check.csv"),
    (["ito-check", "--seed", "1", "--n-paths", "16", "--exponents", "5,6,7"],
     "ito_check.csv"),
    (["vp-run", "--seed", "3", "--n-points", "12"], "vp_run.csv"),
    (["approx", "--seed", "1", "--steps", "128", "--orders", "16,32,64"],
     "approx.csv"),
    (["comparison-demo", "--seed", "2", "--steps", "50", "--order", "8",
      "--n-points", "5", "--n-mc", "100"], "comparison_demo.csv"),
]


class TestSubcommandSmoke:
    def test_every_subcommand_covered(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        listed = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out).group(1)
        assert set(listed.split(",")) == {argv[0] for argv, _ in SMOKE}
        assert len(set(listed.split(","))) == 7

    @pytest.mark.parametrize("argv,csv_name", SMOKE,
                             ids=[c.removesuffix(".csv") for _, c in SMOKE])
    def test_exits_0_and_writes_csv(self, tmp_path, argv, csv_name):
        assert cli.run(argv + ["--out", str(tmp_path)]) == 0
        # one line ending, the provenance line's, throughout
        assert b"\r" not in (tmp_path / csv_name).read_bytes()
        lines = (tmp_path / csv_name).read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert len(lines) >= 3  # provenance, header, at least one row

    @pytest.mark.parametrize("argv,csv_name,header", [
        (SMOKE[0][0], "solve.csv",
         "terminal,t,mean,stderr,n_samples,control_times"),
        (SMOKE[3][0], "ito_check.csv",
         "dt,mean_abs_residual,stderr,slope,slope_stderr")])
    def test_csv_header(self, tmp_path, argv, csv_name, header):
        assert cli.run(argv + ["--out", str(tmp_path)]) == 0
        assert (tmp_path / csv_name).read_text().splitlines()[1] == header

    @pytest.mark.parametrize("extra,rows", [
        ([], ["4,2.000053e-01,2.326282e-06", "8,1.111170e-01,2.326282e-06",
              "16,5.882972e-02,2.326282e-06", "32,3.030941e-02,2.326282e-06",
              "64,1.539109e-02,2.326282e-06", "128,7.758467e-03,2.326282e-06"]),
        (["--steps", "128", "--orders", "16,32,64"],
         ["16,5.920146e-02,1.419625e-04", "32,3.069241e-02,1.419625e-04",
          "64,1.577998e-02,1.419625e-04"])], ids=["defaults", "steps128"])
    def test_approx_rows_pinned(self, tmp_path, extra, rows):
        # the Fejer sweep's figures, byte for byte after the provenance line
        assert cli.run(["approx", "--seed", "1", *extra, "--out", str(tmp_path)]) == 0
        body = (tmp_path / "approx.csv").read_bytes().split(b"\n", 1)[1]
        expected = ["order,sup_error,coefficient_gap", *rows]
        assert body == "".join(f"{row}\n" for row in expected).encode()

    @pytest.mark.parametrize("n,count", [(1023, 1), (1024, 2), (20000, 8)])
    def test_solve_reports_control_times(self, tmp_path, capsys, n, count):
        argv = ["solve", "--seed", "1", "--steps", "16", "--n-samples", str(n),
                "--out", str(tmp_path)]
        assert cli.run(argv) == 0
        assert f"control times K={count})" in capsys.readouterr().out
        row = (tmp_path / "solve.csv").read_text().splitlines()[2]
        assert row.endswith(f",{n},{count}")

    def test_ito_check_reports_the_slope_error_bar(self, tmp_path, capsys):
        # at 16 paths the slope's 3-stderr interval holds --min-slope: the
        # verdict is the fitted slope's, and the line says it is undecided
        argv = ["ito-check", "--seed", "1", "--n-paths", "16", "--exponents",
                "5,6,7", "--out", str(tmp_path)]
        assert cli.run(argv) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert re.fullmatch(r"ito-check: slope=0\.\d{3} \+/- 0\.\d{3} "
                            r"\(--min-slope 0\.4 lies within 3 stderr: "
                            r"too few paths to decide\) pass", line)
        assert cli.run(argv[:-2] + ["--min-slope", "0.9", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_ito_check_decides_at_its_defaults(self, tmp_path, capsys, seed):
        # 256 paths and exponents 6-10 put the slope's 3-stderr interval
        # clear of --min-slope
        assert cli.run(["ito-check", "--seed", str(seed),
                        "--out", str(tmp_path)]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert re.fullmatch(r"ito-check: slope=0\.\d{3} \+/- 0\.\d{3} pass", line)

    def test_non_monotone_right_side_exits_1(self, tmp_path, capsys):
        # at seed 1 the VP limit jumps from t = 0.24 to t = 0.5 as delta
        # halves and delta * L phi rises: the verdict is consistent, but the
        # CLI gates on a monotone right side too, which the theory does not
        # promise
        argv = ["comparison-demo", "--seed", "1", "--steps", "50", "--order",
                "8", "--n-points", "5", "--n-mc", "100", "--out", str(tmp_path)]
        assert cli.run(argv) == 1
        assert ("verdict=consistent, rhs monotone=False"
                in capsys.readouterr().out)
        rows = (tmp_path / "comparison_demo.csv").read_text().splitlines()
        assert len(rows) == 2 + 3
