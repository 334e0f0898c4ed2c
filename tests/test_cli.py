"""End-to-end tests for the command-line interface."""

import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import bdw
from bdw import bivariate
from bdw.bivariate import BDWParams
from bdw.cli import load_csv, main
from bdw.datasets import FOOTBALL_PAIRS, NASAL_PAIRS, builtin_dataset

# canonical serialization of the bundled data, pinned so silent edits
# to the shipped values cannot pass unnoticed
FOOTBALL_SHA = "86348849a425af72692a8eddd0c1120038cdbf41511c8cce4748d610b584c16d"
NASAL_SHA = "1dbb3a8a007751c2053ad3d849ab42c68cb46bf8a9e6efdf261020b64f8f0d88"


def run_cli(tmp_path, args, name="report.json"):
    out = tmp_path / name
    rc = main([*args, "--output", str(out)])
    assert rc == 0
    return json.loads(out.read_text())


class TestLoadCsv:
    def test_reads_plain_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n0,1\n3,0\n")
        assert load_csv(str(path)).pairs == ((1, 2), (0, 1), (3, 0))

    def test_skips_header_and_blank_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("day1,day2\n1,2\n\n  ,\n0,1\n")
        assert load_csv(str(path)).pairs == ((1, 2), (0, 1))

    def test_tolerates_whitespace(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(" 1 , 2 \n 0 , 0 \n")
        assert load_csv(str(path)).pairs == ((1, 2), (0, 0))

    def test_non_integer_is_located(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n0,1\n2,x\n")
        with pytest.raises(ValueError, match="line 3: 'x' is not an integer"):
            load_csv(str(path))

    def test_negative_is_located(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n-1,0\n")
        with pytest.raises(ValueError, match="line 2: negative value -1"):
            load_csv(str(path))

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n1,2,3\n")
        with pytest.raises(ValueError, match="line 2: expected two columns, got 3"):
            load_csv(str(path))

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(str(path))


class TestBundledData:
    def test_sizes(self):
        assert len(FOOTBALL_PAIRS) == 26
        assert len(NASAL_PAIRS) == 30

    def test_checksums(self):
        for pairs, want in ((FOOTBALL_PAIRS, FOOTBALL_SHA), (NASAL_PAIRS, NASAL_SHA)):
            text = "\n".join(f"{a},{b}" for a, b in pairs)
            assert hashlib.sha256(text.encode()).hexdigest() == want

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            builtin_dataset("bogus")


class TestReportSchema:
    def test_schema_is_valid(self, report_schema):
        jsonschema.Draft202012Validator.check_schema(report_schema)

    def test_fit_dw(self, tmp_path, report_schema):
        rep = run_cli(
            tmp_path, ["fit-dw", "--dataset", "nasal", "--column", "min"]
        )
        jsonschema.validate(rep, report_schema)
        assert rep["command"] == "fit-dw"
        assert rep["input"] == {"dataset": "nasal", "n": 30}
        # the minimum of the two scores has a well-known fitted law
        assert rep["results"]["min_chisq"]["alpha"] == pytest.approx(2.4717, abs=0.02)
        assert rep["results"]["min_chisq"]["p"] == pytest.approx(0.8031, abs=0.005)
        # the likelihood fit is never beaten at the chi-square optimum
        from bdw.univariate import DWParams, dw_logpmf

        mc = rep["results"]["min_chisq"]
        column = builtin_dataset("nasal").column("min")
        at_mc = sum(
            dw_logpmf(DWParams(mc["alpha"], mc["p"]), y) for y in column
        )
        assert rep["results"]["ml"]["loglik"] >= at_mc

    def test_fit_ml(self, tmp_path, report_schema):
        rep = run_cli(tmp_path, ["fit-ml", "--dataset", "football"])
        jsonschema.validate(rep, report_schema)
        est = rep["results"]["estimates"]
        assert est["alpha"] == pytest.approx(2.1527952957, abs=1e-6)
        assert rep["config"] == {}
        assert rep["results"]["shape_one_test"]["reject"] is True
        assert rep["results"]["gof"]["p_value"] > 0.05

    @pytest.mark.filterwarnings("ignore:inconsistent marginal fits")
    def test_fit_ml_shared_rate_at_boundary(self, tmp_path, report_schema):
        law = BDWParams(1.5, 1.0, 0.7, 0.75)
        draws = bivariate.sample(law, np.random.default_rng(3), size=200)
        path = tmp_path / "noties.csv"
        path.write_text("".join(f"{a},{b}\n" for a, b in draws.tolist() if a != b))
        with pytest.warns(UserWarning, match="at its boundary"):
            rep = run_cli(tmp_path, ["fit-ml", "--input", str(path)])
        jsonschema.validate(rep, report_schema)
        assert rep["results"]["estimates"]["lambda0"] == 0.0
        assert rep["results"]["estimates"]["p0"] == 1.0
        assert rep["results"]["ci95_halfwidth"] is None
        # the shape interval holds lambda0 on its boundary
        shape = rep["results"]["shape_one_test"]
        assert "error" not in shape
        alpha = rep["results"]["estimates"]["alpha"]
        assert math.isfinite(shape["ci_low"]) and math.isfinite(shape["ci_high"])
        assert shape["ci_low"] < alpha < shape["ci_high"]

    def test_fit_bayes(self, tmp_path, report_schema):
        rep = run_cli(
            tmp_path,
            [
                "fit-bayes",
                "--dataset",
                "football",
                "--draws",
                "100",
                "--rounds",
                "1",
                "--seed",
                "7",
            ],
        )
        jsonschema.validate(rep, report_schema)
        assert rep["seed"] == 7
        assert rep["results"]["M"] == 100
        assert set(rep["results"]["means"]) == {
            "alpha",
            "lambda0",
            "lambda1",
            "lambda2",
        }

    def test_gof_joint(self, tmp_path, report_schema):
        rep = run_cli(tmp_path, ["gof", "--dataset", "nasal"])
        jsonschema.validate(rep, report_schema)
        assert rep["config"]["column"] == "joint"
        assert rep["results"]["gof"]["p_value"] > 0.05
        assert set(rep["results"]["fitted"]) == {
            "alpha",
            "lambda0",
            "lambda1",
            "lambda2",
        }

    def test_gof_column(self, tmp_path, report_schema):
        rep = run_cli(
            tmp_path,
            [
                "gof",
                "--dataset",
                "football",
                "--column",
                "x1",
                "--estimator",
                "ml",
                "--no-absorb-tail",
            ],
        )
        jsonschema.validate(rep, report_schema)
        assert rep["config"]["absorb_tail"] is False
        assert set(rep["results"]["fitted"]) == {"alpha", "p"}

    def test_simulate(self, tmp_path, report_schema):
        rep = run_cli(
            tmp_path,
            [
                "simulate",
                "--alpha",
                "1.5",
                "--p0",
                "0.9",
                "--p1",
                "0.7",
                "--p2",
                "0.75",
                "--n",
                "50",
                "--seed",
                "3",
            ],
        )
        jsonschema.validate(rep, report_schema)
        pairs = rep["results"]["pairs"]
        assert len(pairs) == 50
        assert all(
            isinstance(v, int) and v >= 0 for pair in pairs for v in pair
        )

    def test_moments(self, tmp_path, report_schema):
        rep = run_cli(
            tmp_path,
            [
                "moments",
                "--alpha",
                "1.5",
                "--p0",
                "0.9",
                "--p1",
                "0.7",
                "--p2",
                "0.75",
            ],
        )
        jsonschema.validate(rep, report_schema)
        m = bivariate.moments(BDWParams(1.5, 0.9, 0.7, 0.75))
        assert rep["results"]["mean1"] == m.mean1
        assert rep["results"]["covariance"] == m.covariance
        assert rep["results"]["correlation"] == m.correlation


class TestDeterminism:
    SIM = [
        "simulate",
        "--alpha",
        "1.5",
        "--p0",
        "0.9",
        "--p1",
        "0.7",
        "--p2",
        "0.75",
        "--n",
        "200",
    ]

    def test_simulate_is_seed_stable(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main([*self.SIM, "--seed", "11", "--output", str(a)]) == 0
        assert main([*self.SIM, "--seed", "11", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.json"
        assert main([*self.SIM, "--seed", "12", "--output", str(c)]) == 0
        assert a.read_bytes() != c.read_bytes()

    def test_fit_bayes_is_seed_stable(self, tmp_path):
        cmd = [
            "fit-bayes",
            "--dataset",
            "nasal",
            "--draws",
            "100",
            "--rounds",
            "1",
            "--seed",
            "42",
        ]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main([*cmd, "--output", str(a)]) == 0
        assert main([*cmd, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_matches_file(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        assert main([*self.SIM, "--seed", "11", "--output", str(out)]) == 0
        capsys.readouterr()
        assert main([*self.SIM, "--seed", "11"]) == 0
        assert capsys.readouterr().out == out.read_text()


class TestPmfTable:
    PARAMS = [
        "--alpha",
        "1.5",
        "--p0",
        "0.9",
        "--p1",
        "0.7",
        "--p2",
        "0.75",
    ]

    def test_explicit_grid(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["pmf-table", *self.PARAMS, "--k", "3", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x1,x2,pmf"
        assert len(lines) == 1 + 16
        cells = {}
        for line in lines[1:]:
            x1, x2, pmf = line.split(",")
            cells[(int(x1), int(x2))] = float(pmf)
        params = BDWParams(1.5, 0.9, 0.7, 0.75)
        assert cells[(1, 1)] == bivariate.joint_pmf(params, 1, 1)
        assert set(cells) == {(i, j) for i in range(4) for j in range(4)}

    def test_default_grid_captures_nearly_all_mass(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["pmf-table", *self.PARAMS, "--output", str(out)]) == 0
        lines = out.read_text().splitlines()[1:]
        total = sum(float(line.split(",")[2]) for line in lines)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestRoundTrip:
    def test_simulated_sample_recovers_generator(self, tmp_path):
        rep = run_cli(
            tmp_path,
            [
                "simulate",
                "--alpha",
                "1.6",
                "--p0",
                "0.95",
                "--p1",
                "0.80",
                "--p2",
                "0.85",
                "--n",
                "5000",
                "--seed",
                "123",
            ],
            name="sim.json",
        )
        csv_path = tmp_path / "sample.csv"
        csv_path.write_text(
            "\n".join(f"{a},{b}" for a, b in rep["results"]["pairs"]) + "\n"
        )
        fit = run_cli(
            tmp_path, ["fit-ml", "--input", str(csv_path)], name="fit.json"
        )
        assert fit["input"]["path"] == str(csv_path)
        assert fit["input"]["n"] == 5000
        est = fit["results"]["estimates"]
        half = fit["results"]["ci95_halfwidth"]
        assert half is not None
        truth = {
            "alpha": 1.6,
            "lambda0": -math.log(0.95),
            "lambda1": -math.log(0.80),
            "lambda2": -math.log(0.85),
        }
        for name, want in truth.items():
            se = half[name] / 1.96
            assert abs(est[name] - want) < 3 * se, name


class TestFailurePaths:
    def test_missing_input_file(self, capsys):
        rc = main(["fit-dw", "--input", "/nonexistent.csv", "--column", "x1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_sample_size(self, capsys):
        rc = main(
            [
                "simulate",
                "--alpha",
                "1.5",
                "--p0",
                "0.9",
                "--p1",
                "0.7",
                "--p2",
                "0.75",
                "--n",
                "0",
            ]
        )
        assert rc == 1
        assert "at least 1" in capsys.readouterr().err

    def test_heavy_tailed_simulation_is_refused(self, capsys):
        argv = ["simulate", "--alpha", "0.05", "--p0", "0.999", "--p1", "0.99", "--p2", "0.99"]
        rc = main([*argv, "--n", "8"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a drawn lifetime of ")
        assert "too heavy to sample" in captured.err

    def test_bad_gibbs_size(self, capsys):
        rc = main(
            [
                "fit-bayes",
                "--dataset",
                "nasal",
                "--draws",
                "50",
                "--rounds",
                "1",
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:inconsistent marginal fits")
    def test_zero_imputed_lifetime_fails_cleanly(self, tmp_path, capsys):
        law = BDWParams(0.8, 0.9, 0.7, 0.75)
        draws = bivariate.sample(law, np.random.default_rng(0), size=40)
        path = tmp_path / "heavy.csv"
        path.write_text("".join(f"{a},{b}\n" for a, b in draws.tolist()))
        rc = main(["fit-bayes", "--input", str(path), "-M", "100", "-N", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: data row" in err
        assert "full conditional is improper" in err
        assert "math domain error" not in err

    @pytest.mark.parametrize(
        "command", [["fit-ml"], ["fit-bayes", "-M", "200", "-N", "2"]]
    )
    def test_all_tie_input_fails_cleanly(self, tmp_path, capsys, command):
        path = tmp_path / "ties.csv"
        path.write_text("x1,x2\n1,1\n2,2\n3,3\n0,0\n5,5\n2,2\n")
        rc = main([*command, "--input", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == (
            "error: sample is all ties: coordinate rates are not identifiable\n"
        )

    @pytest.mark.filterwarnings("ignore:inconsistent marginal fits")
    @pytest.mark.parametrize(
        "rows, command, message",
        [
            pytest.param(rows, command, message, id=f"{name}-{command[0]}")
            for name, rows, message, commands in [
                (
                    "one-sided",
                    "1,1\n2,2\n3,3\n0,1\n",
                    "no row has x1 > x2: the coordinate rate lambda2 is not identifiable",
                    [["fit-ml"], ["gof", "--column", "joint"], ["fit-bayes", "-M", "200", "-N", "2"]],
                ),
                (
                    "no-best-min-chisq",
                    "1,0\n1,3\n2,1\n2,4\n2,2\n",
                    "no DW law fits this sample best",
                    [["fit-dw", "--column", "x1"]],
                ),
                (
                    "no-best-ml",
                    "3,0\n4,1\n4,2\n",
                    "no DW law fits this sample best",
                    [["fit-dw", "--column", "x1"]],
                ),
                (
                    "large-counts",
                    "100,120\n130,90\n110,110\n95,140\n120,100\n",
                    "the fitted rate lambda = 1.",
                    [
                        ["fit-dw", "--column", "x1"],
                        ["fit-ml"],
                        ["gof", "--column", "joint"],
                        ["fit-bayes", "-M", "200", "-N", "2"],
                    ],
                ),
            ]
            for command in commands
        ],
    )
    def test_unfittable_input_fails_by_name(self, tmp_path, capsys, rows, command, message):
        path = tmp_path / "rows.csv"
        path.write_text(rows)
        rc = main([*command, "--input", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err

    def test_unknown_dataset_choice(self, capsys):
        with pytest.raises(SystemExit):
            main(["fit-ml", "--dataset", "bogus"])

    def test_negative_seed_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "simulate",
                    "--alpha",
                    "1.5",
                    "--p0",
                    "0.9",
                    "--p1",
                    "0.7",
                    "--p2",
                    "0.75",
                    "--n",
                    "5",
                    "--seed",
                    "-1",
                ]
            )

    def test_invalid_parameters_fail_cleanly(self, capsys):
        rc = main(
            [
                "moments",
                "--alpha",
                "0.0",
                "--p0",
                "0.9",
                "--p1",
                "0.7",
                "--p2",
                "0.75",
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["moments", "pmf-table"])
    def test_heavy_tail_is_refused_by_name(self, tmp_path, capsys, command):
        # the mass of this law spreads over K = 62872299 at moments' epsilon
        args = [command, "--alpha", "0.3", "--p0", "1.0", "--p1", "0.6", "--p2", "0.9"]
        rc = main([*args, "--output", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: joint mass spreads beyond a tractable grid")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_moments_bound_past_float_resolution_is_refused(self, tmp_path):
        # at shape 0.01 the truncation bound's search started at k ~ 7e203,
        # where k - 1 rounds to k, and never returned
        args = ["moments", "--alpha", "0.01", "--p0", "0.9", "--p1", "0.9", "--p2", "0.9"]
        proc = subprocess.run(
            [sys.executable, "-m", "bdw.cli", *args, "--output", str(tmp_path / "out")],
            capture_output=True, text=True, env=_src_env(), timeout=30,
        )
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: joint mass spreads beyond a tractable grid: all but "
            "epsilon = 1e-10 of it needs K > 10000\n"
        )
        assert not (tmp_path / "out").exists()

    def test_pmf_table_bound_is_capped_before_the_grid(self, tmp_path, capsys, monkeypatch):
        # a (K + 1)^2 grid at K = 100000 would take 80 GB
        def no_grid(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(bivariate, "joint_pmf_grid", no_grid)
        args = ["pmf-table", "--alpha", "1.5", "--p0", "0.9", "--p1", "0.7", "--p2", "0.75"]
        rc = main([*args, "--k", "100000", "--output", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: a grid [0, K]^2 with K = 100000 > 10000 is not tractable\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "args", [["fit-dw", "--column", "x1"], ["gof", "--column", "x1", "--estimator", "ml"]]
    )
    def test_two_adjacent_values_are_refused_by_name(self, tmp_path, capsys, args):
        # the x1 column is [0, 0, 1, 1, 1], which no DW law fits best
        path = tmp_path / "d.csv"
        path.write_text("0,2\n0,3\n1,0\n1,4\n1,2\n")
        rc = main([*args, "--input", str(path), "--output", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: no DW law fits this sample best: on the two adjacent values 0 and 1 "
        )
        assert not (tmp_path / "out").exists()


# Run in a fresh interpreter, since this test module imports scipy itself:
# runs each command through ``bdw.cli.main``, imports the given modules,
# then prints the modules loaded by then that lie in the given package.
_STARTUP_PROBE = """
import importlib, json, sys
import bdw, bdw.cli
out, commands, imports, package = (
    sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3]), sys.argv[4]
)
for i, argv in enumerate(commands):
    assert bdw.cli.main([*argv, "--output", f"{out}/{i}.out"]) == 0, argv
for name in imports:
    importlib.import_module(name)
print(json.dumps(sorted(m for m in sys.modules if (m + ".").startswith(package + "."))))
"""

# every command: none of them needs scipy
ALL_COMMANDS = [
    ["fit-ml", "--dataset", "football"],
    ["gof", "--dataset", "football", "--column", "joint"],
    ["fit-dw", "--dataset", "nasal", "--column", "min"],
    ["fit-bayes", "--dataset", "football", "-M", "100", "-N", "1", "--seed", "1"],
    ["simulate", "--alpha", "1.5", "--p0", "0.9", "--p1", "0.7", "--p2", "0.75",
     "--n", "20", "--seed", "1"],
    ["pmf-table", "--alpha", "1.5", "--p0", "0.9", "--p1", "0.7", "--p2", "0.75"],
    ["moments", "--alpha", "1.5", "--p0", "0.9", "--p1", "0.7", "--p2", "0.75"],
]


def _src_env():
    # this tree's src first on the path of a child interpreter
    src = str(pathlib.Path(bdw.__file__).resolve().parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def _modules_after(tmp_path, commands, imports=(), package="scipy"):
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, str(tmp_path), json.dumps(commands),
         json.dumps(list(imports)), package],
        capture_output=True, text=True, env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    for i in range(len(commands)):
        assert (tmp_path / f"{i}.out").stat().st_size > 0
    return set(json.loads(proc.stdout))


class TestStartup:
    def test_model_commands_do_not_load_scipy(self, tmp_path):
        assert _modules_after(tmp_path, ALL_COMMANDS) == set()

    def test_probe_sees_scipy(self, tmp_path):
        # the control: the probe does see scipy once something imports it
        loaded = _modules_after(tmp_path, ALL_COMMANDS[:1], ["scipy.special"])
        assert "scipy.special" in loaded

    def test_fit_bayes_does_not_load_numpy_ma(self, tmp_path):
        # its intervals once took np.quantile, which imports numpy.ma
        fit_bayes = [argv for argv in ALL_COMMANDS if argv[0] == "fit-bayes"]
        assert _modules_after(tmp_path, fit_bayes, package="numpy.ma") == set()
        # the control: the probe does see numpy.ma once something imports it
        loaded = _modules_after(tmp_path, fit_bayes, ["numpy.ma"], package="numpy.ma")
        assert "numpy.ma" in loaded

    # the bdw modules each command loads: the layers it runs, and no other
    _START = {"bdw", "bdw.cli", "bdw.bivariate", "bdw.univariate", "bdw.datasets"}
    _FITS = _START | {"bdw.mobw", "bdw.fit_ml", "bdw.gof"}
    _LOADED = {
        "pmf-table": _START,
        "moments": _START,
        "simulate": _START | {"bdw.mobw"},
        "fit-ml": _FITS,
        "gof": _FITS,
        "fit-dw": _FITS,
        "fit-bayes": _FITS - {"bdw.gof"} | {"bdw.fit_bayes"},
    }

    @pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda argv: argv[0])
    def test_command_loads_only_its_layers(self, tmp_path, argv):
        assert _modules_after(tmp_path, [argv], package="bdw") == self._LOADED[argv[0]]


class TestTracedRun:
    # perfbench/traced.py patches each layer's functions in its module
    # after ``import bdw.cli``; the handlers' own imports must see them
    @pytest.mark.parametrize("argv, span", [
        (["fit-ml", "--dataset", "football"], "fit_ml.nested_em"),
        (["fit-bayes", "--dataset", "football", "-M", "100", "-N", "1", "--seed", "1"],
         "fit_bayes.augmented_gibbs"),
    ], ids=["fit-ml", "fit-bayes"])
    def test_tracer_sees_the_handlers_calls(self, tmp_path, argv, span):
        traced = pathlib.Path(bdw.__file__).resolve().parents[2] / "perfbench" / "traced.py"
        spans = tmp_path / "spans.json"
        proc = subprocess.run(
            [sys.executable, str(traced), str(spans), "op", "--",
             *argv, "--output", str(tmp_path / "report.json")],
            capture_output=True, text=True, env=_src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(spans.read_text())
        assert doc["absent"] == []
        assert [s[0] for s in doc["spans"]].count(span) == 1
