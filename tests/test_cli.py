"""End-to-end tests for the command-line interface."""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

import bdw
from bdw import bivariate, cli, datasets, fit_bayes, mobw, sampling
from bdw.bivariate import BDWParams, MOBWParams
from bdw.cli import load_csv, main
from bdw.datasets import FOOTBALL_PAIRS, NASAL_PAIRS, builtin_dataset

# counts whose ML rates, ~1e-17, round their survival bases to 1
LARGE_COUNTS_CSV = "100,120\n130,90\n110,110\n95,140\n120,100\n"

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

    def test_count_past_int64_is_located(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("9223372036854775807,0\n9223372036854775808,1\n")
        message = r"^line 2: 9223372036854775808 exceeds the largest count 2\*\*63 - 1$"
        with pytest.raises(ValueError, match=message):
            load_csv(str(path))

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n1,2,3\n")
        with pytest.raises(ValueError, match="line 2: expected two columns, got 3"):
            load_csv(str(path))

    @pytest.mark.parametrize("header", ["", "x1,x2\n"], ids=["headerless", "headed"])
    def test_reads_past_a_byte_order_mark(self, tmp_path, header):
        # Excel's "CSV UTF-8" starts the file with a byte-order mark
        path = tmp_path / "d.csv"
        path.write_text("\ufeff" + header + "1,2\n3,1\n2,2\n0,1\n", encoding="utf-8")
        assert load_csv(str(path)).pairs == ((1, 2), (3, 1), (2, 2), (0, 1))

    @pytest.mark.parametrize("first", ["1.5,2", "1e3,4", "2,nan", "3, "])
    def test_numeric_first_row_is_data(self, tmp_path, first):
        # a first row of numbers is no header: a non-integer in it is refused
        path = tmp_path / "d.csv"
        path.write_text(first + "\n1,2\n")
        token = next(t.strip() for t in first.split(",") if not t.isdigit())
        with pytest.raises(ValueError, match=f"^line 1: '{token}' is not an integer$"):
            load_csv(str(path))

    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "byte-order-mark"])
    @pytest.mark.parametrize("header", ["x1,x2", "count,2", "1,total", "x1,"])
    def test_text_header_is_skipped(self, tmp_path, bom, header):
        path = tmp_path / "d.csv"
        path.write_text(bom + header + "\n1,2\n0,3\n", encoding="utf-8")
        assert load_csv(str(path)).pairs == ((1, 2), (0, 3))

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


# sha256 of two DW fit-check reports, recorded once the DW fits and
# chisq_dw ran on math, and gof-x1's again once chisq_dw's masses came from
# the power step (its statistic moved by 2.4e-15 relative); TestReportValues
# bounds how far they moved from the reports of the array fits
DW_REPORT_SHA = {
    "fit-dw-min": "361d1a2dabe6e4932280fdc1d81d8ad2d5842df2cd41a555ea89365abd159240",
    "gof-x1": "a51427059031d41e64a8fc0e010d71b4b36dde30b7334cf6353af1cb483e21db",
}


# the joint reports' digests, first recorded before the latent layer's
# exposures moved into bdw.mobw; a refactor that keeps the estimates keeps
# these bytes.  The fits' four were re-recorded once the DW fits started
# from the geometric law and the Newton solver ran on math (TestReportValues),
# and the two fit-ml reports and gof-joint once the likelihood's jets came
# from the DW jets on math: their floats moved by at most 1.4e-15 relative.
# Those three and pmf-table were re-recorded once every DW log-mass came from
# the power step and the atom from its positive sum: at most 1.4e-15
# relative in the reports and 9.1e-16 in the table's entries.  The two
# fit-ml reports were re-recorded once the likelihood, its intervals and
# the joint fit check ran on math (a sum by fsum, intervals on the Newton
# solver's eigen-solve, the check's masses by math.exp): at most 1.9e-15
# relative; gof-joint kept its bytes.  fit-bayes-football was re-recorded
# once the Gibbs sweep ran on math and the package's own generator (powers
# by libm, exposures and the shape's target by fsum): three floats moved by
# at most 3.9e-16 relative
_LAW = ["--alpha", "1.5", "--p0", "0.9", "--p1", "0.7", "--p2", "0.75"]
JOINT_REPORTS = {
    "fit-ml-football": (
        ["fit-ml", "--dataset", "football"],
        "552f634e52f39b4017223dc09b7e72adea96d2e6f0bf1085d36e5c4d22287ebf",
    ),
    "fit-ml-nasal": (
        ["fit-ml", "--dataset", "nasal"],
        "43caa80377d72fe82d36c0de564050a3a8f5c8aba573c5f4ee79662a49f2a426",
    ),
    "gof-joint-football": (
        ["gof", "--dataset", "football", "--column", "joint"],
        "314042b62c1f64546f0507810dda7b4386f91dda73fd9b247328523a6c69bb99",
    ),
    "fit-bayes-football": (
        ["fit-bayes", "--dataset", "football", "-M", "200", "-N", "2", "--seed", "1"],
        "1f41b7b1218fecde2bbc6312cc407c949420ecc7d5eecb5a15969ffca5436569",
    ),
    # the benchmark's own fit-bayes op, 10 000 sweeps, recorded before the
    # sweep's steps were bound once per round
    "fit-bayes-football-bench": (
        ["fit-bayes", "--dataset", "football", "-M", "2000", "-N", "5", "--seed", "0"],
        "2860439cead6292f4cc6857902362125ae8d600c1f425ffb4aa5ac970e06d4bc",
    ),
    # the conjugate rate step (a = a0 + a1 + a2: no Metropolis draw) under a
    # proper shape prior
    "fit-bayes-nasal-conjugate": (
        ["fit-bayes", "--dataset", "nasal", "-M", "200", "-N", "2", "--seed", "3", "--a", "3",
         "--b", "1", "--a0", "1", "--a1", "1", "--a2", "1", "--c", "1", "--d", "1"],
        "198253568c7ea780a317b08c7b9b90bc00bb549ab4eb4c4aaeccb38f334a83c9",
    ),
    "moments": (
        ["moments", *_LAW],
        "6943a0477693601433790a30a839ebdd1ff26b31d203d3d7908145d202de926f",
    ),
    "pmf-table": (
        ["pmf-table", "--k", "4", *_LAW],
        "2d569c66279faf9d725df147e7f9d348ba5c905a33bfc5bfb3e0adec8e5aa99a",
    ),
    "simulate": (
        ["simulate", "--alpha", "1.6", "--p0", "0.95", "--p1", "0.8", "--p2", "0.85",
         "--n", "20", "--seed", "1"],
        "fc3a3ad91d85201a1fd6925b3390cc7308e2f89148458af2b6780fd447e59b94",
    ),
}

# the cells-wide benchmark's fit-bayes op on its panel (the wide_panel
# fixture as CSV): 410 and 312 pairs off the diagonal, so the cause draws
# take the BTPE binomial path, and a summary of 46 values, which the
# football pins reach neither of; recorded before the rate step called
# mobw.cause_counts and mobw.exposures
WIDE_PANEL_GIBBS = (
    ["fit-bayes", "--input", "panel.csv", "-M", "200", "-N", "2", "--seed", "0"],
    "b4f1d1d56d0d4f5f47589162e8e66bb46f566cb814e883232ccf8446809784f2",
)


class TestReportBytes:
    @pytest.mark.parametrize("name, argv", [
        ("fit-dw-min", ["fit-dw", "--dataset", "nasal", "--column", "min"]),
        ("gof-x1", ["gof", "--dataset", "nasal", "--column", "x1"]),
    ], ids=["fit-dw-min", "gof-x1"])
    def test_dw_report_keeps_its_bytes(self, tmp_path, name, argv):
        out = tmp_path / "report.json"
        assert main([*argv, "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DW_REPORT_SHA[name]

    @pytest.mark.parametrize("name", sorted(JOINT_REPORTS))
    def test_joint_report_keeps_its_bytes(self, tmp_path, name):
        argv, digest = JOINT_REPORTS[name]
        out = tmp_path / "report"
        assert main([*argv, "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_wide_panel_gibbs_report_keeps_its_bytes(self, tmp_path, monkeypatch, wide_panel):
        # run from tmp_path with a relative path: the report holds the input path
        argv, digest = WIDE_PANEL_GIBBS
        monkeypatch.chdir(tmp_path)
        rows = "".join(f"{a},{b}\n" for a, b in wide_panel.pairs)
        (tmp_path / "panel.csv").write_text("x1,x2\n" + rows)
        assert main([*argv, "--output", "report.json"]) == 0
        assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == digest


# every report above, parsed, as recorded before the DW fits, their start
# and the Newton solver moved onto math: a float may move by rounding, up to
# 1e-10 relative (1e-9 in the Gibbs draws, which follow their start), and
# every other leaf, strings, labels, counts and df among them, is unchanged
REPORT_VALUES = json.loads((pathlib.Path(__file__).parent / "report_values.json").read_text())


def _leaves(node, path=()):
    # (path, value) of each leaf of a parsed report, in key order
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], (*path, key))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _leaves(item, (*path, i))
    else:
        yield path, node


class TestReportValues:
    @pytest.mark.parametrize("name", sorted(REPORT_VALUES))
    def test_report_keeps_its_values(self, tmp_path, name):
        argv, want = REPORT_VALUES[name]["argv"], REPORT_VALUES[name]["report"]
        rel = 1e-9 if argv[0] == "fit-bayes" else 1e-10
        got = list(_leaves(run_cli(tmp_path, argv)))
        assert [path for path, _ in got] == [path for path, _ in _leaves(want)]
        for (path, value), (_, recorded) in zip(got, _leaves(want)):
            if type(recorded) is float:
                assert type(value) is float, path
                assert math.isclose(value, recorded, rel_tol=rel, abs_tol=0.0), path
            else:
                assert (type(value), value) == (type(recorded), recorded), path


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
        draws = sampling.sample(law, np.random.default_rng(3), size=200)
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

    @pytest.mark.filterwarnings("ignore:inconsistent marginal fits")
    @pytest.mark.parametrize(
        "command",
        [["fit-ml"], ["gof", "--column", "joint"], ["fit-bayes", "-M", "200", "-N", "2"]],
        ids=["fit-ml", "gof", "fit-bayes"],
    )
    def test_large_counts_are_fitted_in_rates(self, tmp_path, report_schema, command):
        # the joint commands start from the marginal fits' rates and report
        # rates; fit-ml's survival bases write 1.0 where they round to it
        path = tmp_path / "large.csv"
        path.write_text(LARGE_COUNTS_CSV)
        rep = run_cli(tmp_path, [*command, "--input", str(path)])
        jsonschema.validate(rep, report_schema)
        res = rep["results"]
        rates = res["means"] if command[0] == "fit-bayes" else res.get("estimates", res.get("fitted"))
        for name in ("lambda0", "lambda1", "lambda2"):
            assert 0.0 < rates[name] < 1e-14, name
        if command[0] == "fit-ml":
            assert res["estimates"]["p0"] == 1.0

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
        assert rep["config"]["estimator"] == "ml"
        assert rep["config"]["absorb_tail"] is True
        assert rep["results"]["gof"]["p_value"] > 0.05
        assert set(rep["results"]["fitted"]) == {
            "alpha",
            "lambda0",
            "lambda1",
            "lambda2",
        }

    def test_gof_joint_takes_its_own_estimator(self, tmp_path):
        rep = run_cli(tmp_path, ["gof", "--dataset", "football", "--estimator", "ml"])
        assert rep["config"] == {"absorb_tail": True, "column": "joint", "estimator": "ml"}

    def test_gof_column_defaults_to_minchisq(self, tmp_path):
        rep = run_cli(tmp_path, ["gof", "--dataset", "football", "--column", "x2"])
        assert rep["config"] == {"absorb_tail": True, "column": "x2", "estimator": "minchisq"}

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


@st.composite
def _table_laws(draw):
    # shapes 0.3 to 20 and rates 1e-20 to e, log-uniform, the shared rate
    # sometimes 0, in survival bases where the other two lie below one;
    # and a grid bound up to 12
    alpha = math.exp(draw(st.floats(math.log(0.3), math.log(20.0))))
    rate = st.floats(math.log(1e-20), 1.0).map(math.exp)
    lam = (draw(st.one_of(st.just(0.0), rate)), draw(rate), draw(rate))
    law = MOBWParams(alpha, *lam)
    bases = [math.exp(-v) for v in lam]
    if max(bases[1:]) < 1.0 and draw(st.booleans()):
        law = BDWParams(alpha, *bases)
    return law, draw(st.integers(0, 12))


def _oracle_mass(law, i, j):
    # the cell's mass as the rectangle difference of the joint survival at
    # the law's float rates, in mpmath at the caller's precision
    a, l0, l1, l2 = (mp.mpf(v) for v in bivariate._rates(law))

    def sf(x, y):
        return mp.exp(-l1 * mp.mpf(x) ** a - l2 * mp.mpf(y) ** a - l0 * mp.mpf(max(x, y)) ** a)

    return sf(i, j) - sf(i + 1, j) - sf(i, j + 1) + sf(i + 1, j + 1)


class TestPmfTableRows:
    def test_refused_bound_builds_no_table(self, tmp_path, capsys, monkeypatch):
        # the bound is refused before the DW log-mass tables and the file
        def no_rows(*args):
            raise AssertionError("the tables were built")

        monkeypatch.setattr(bivariate, "_pmf_rows", no_rows)
        args = ["pmf-table", "--alpha", "1.5", "--p0", "0.9", "--p1", "0.7", "--p2", "0.75"]
        assert main([*args, "--k", "10001", "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: a grid [0, K]^2 with K = 10001 > 10000 is not tractable\n"
        )
        assert not (tmp_path / "out").exists()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(case=_table_laws())
    # the benchmark's table law, a law in bases at p0 = 1, and cells whose
    # powers pass the float range: (K + 1)**alpha overflows from K = 1
    @example(case=(BDWParams(1.5, 0.9, 0.7, 0.75), 10))
    @example(case=(BDWParams(1.8, 1.0, 0.8, 0.7), 8))
    @example(case=(MOBWParams(1100.0, 5e-324, 0.5, 2.0), 3))
    def test_csv_entries_are_the_joint_pmf(self, case):
        law, k = case
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            chunks = list(cli._grid_csv(bivariate._pmf_rows(law, k, k)))
            grid = bivariate.joint_pmf_grid(law, k, k)
        assert chunks[0] == "x1,x2,pmf\n" and len(chunks) == k + 2
        lines = "".join(chunks[1:]).splitlines()
        assert len(lines) == (k + 1) ** 2
        for n, line in enumerate(lines):
            i, j, text = line.split(",")
            i, j, mass = int(i), int(j), float(text)
            assert (i, j) == divmod(n, k + 1)
            assert mass.hex() == bivariate.joint_pmf(law, i, j).hex(), (i, j)
            # off the diagonal a mass is a product of two DW masses, and on
            # it the shared shock's atom is a sum of non-negative terms: each
            # is held to its own relative error
            want = float(grid[i, j])
            # the array path, apart from subnormal masses, which hold fewer bits
            if max(mass, want) >= sys.float_info.min:
                assert abs(mass - want) <= 1e-13 * want, (i, j, mass, want)
            if mass >= 1e-300:
                # the rectangle cancels about -log10(mass) digits of its terms
                with mp.workdps(50 + math.ceil(-math.log10(mass))):
                    exact = _oracle_mass(law, i, j)
                    assert abs(mass - exact) <= 1e-12 * exact, (i, j, mass, exact)


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


# 30 draws of a law whose x2 column lies on the adjacent values 1 and 2:
# no DW law fits that column best, while the joint likelihood has its maximum
ADJACENT_COLUMN_CSV = (
    "0,2\n" + "1,1\n" * 10 + "1,2\n" + "2,1\n" * 10 + "2,2\n" * 2 + "3,1\n" * 2 + "3,2\n" * 4
)


class TestStartFit:
    @pytest.mark.filterwarnings("ignore:inconsistent marginal fits")
    def test_a_column_with_no_best_fit_is_fitted_jointly(self, tmp_path):
        # the column's start is the geometric law of its mean
        path = tmp_path / "d.csv"
        path.write_text(ADJACENT_COLUMN_CSV)
        fit = run_cli(tmp_path, ["fit-ml", "--input", str(path)])
        assert fit["results"]["loglik"] == pytest.approx(-55.39214326923662, abs=1e-10)
        assert set(fit["results"]["ci95_halfwidth"]) == set(MOBWParams._fields)
        args = ["fit-bayes", "--input", str(path), "-M", "200", "-N", "2", "--seed", "1"]
        post = run_cli(tmp_path, args, name="bayes.json")
        assert (post["results"]["M"], post["results"]["N"]) == (200, 2)


# draws too large to allocate: 10**12 simulated pairs (7.28 TiB of
# lifetimes) and 10**12 Gibbs draws of four parameters (29.1 TiB)
OVERSIZE = {
    "simulate": ["simulate", "--alpha", "1.6", "--p0", "0.95", "--p1", "0.8", "--p2", "0.85",
                 "--n", "1000000000000"],
    "fit-bayes": ["fit-bayes", "--dataset", "football", "-M", "1000000000000", "-N", "1"],
}


class TestFailurePaths:
    @pytest.mark.parametrize(
        "command, owner, name",
        [("simulate", sampling, "sample"), ("fit-bayes", fit_bayes, "augmented_gibbs")],
        ids=["simulate", "fit-bayes"],
    )
    @pytest.mark.parametrize(
        "message, line",
        [
            ("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data "
             "type float64", None),
            ("", "out of memory"),
        ],
        ids=["numpy", "bare"],
    )
    def test_failed_allocation_is_one_error_line(
        self, tmp_path, capsys, monkeypatch, command, owner, name, message, line
    ):
        # the draw's allocation fails as numpy fails it, or with Python's
        # own empty MemoryError: one line, no traceback and no report
        def no_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(owner, name, no_memory)
        out = tmp_path / "out"
        assert main([*OVERSIZE[command], "--output", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {line or message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(OVERSIZE))
    def test_oversize_draw_fails_under_an_address_space_cap(self, tmp_path, command):
        # a child capped at 4 GB of address space, so the real allocation
        # fails whatever the host's overcommit setting
        resource = pytest.importorskip("resource")
        cap = 4 << 30
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "bdw.cli", *OVERSIZE[command], "--output", str(out)],
            capture_output=True, text=True, env=_src_env(OPENBLAS_NUM_THREADS="1"),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert proc.returncode == 1
        assert re.fullmatch(r"error: Unable to allocate [^\n]* TiB [^\n]*\n", proc.stderr)
        assert not out.exists()

    @pytest.mark.parametrize("draws, c, message", [
        ("100", "1e16", "the shape's slice cannot be drawn at shape "),
        ("200", "1e7", "the exposures pass the float range at shape "),
    ], ids=["slice-level", "exposures"])
    def test_strong_shape_prior_is_one_error_line(self, draws, c, message):
        # under so strong a shape prior the chain runs the shape up until a
        # step cannot be drawn: the program ends with one named error, and
        # no RuntimeWarning, where it once ran forever or wrote rates of 5e-324
        argv = ["fit-bayes", "--dataset", "football", "-M", draws, "-N", "1", "--c", c]
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "bdw.cli", *argv],
            capture_output=True, text=True, env=_src_env(), timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith(f"error: {message}") and proc.stderr.count("\n") == 1

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
        draws = sampling.sample(law, np.random.default_rng(0), size=40)
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
                    # on counts of 0 and 1 alone the likelihood rises with the shape
                    "zero-one",
                    "0,0\n0,1\n1,0\n1,1\n0,1\n1,0\n",
                    "the shape is not identified: no count exceeds 1",
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
                    # the DW fits hold rates ~1e-20, and the report's p < 1
                    # refuses them at its edge
                    "large-counts",
                    LARGE_COUNTS_CSV,
                    "the rate lambda = 1.",
                    [["fit-dw", "--column", "x1"], ["gof", "--column", "x1"]],
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
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and message in err, err
        assert out == ""

    @pytest.mark.parametrize(
        "command", [["fit-dw", "--column", "x1"], ["fit-ml"]], ids=["fit-dw", "fit-ml"]
    )
    def test_count_past_int64_fails_by_its_line(self, tmp_path, capsys, command):
        path = tmp_path / "huge.csv"
        path.write_text("1,2\n99999999999999999999,3\n0,1\n")
        rc = main([*command, "--input", str(path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: line 2: 99999999999999999999 exceeds the largest count 2**63 - 1\n"
        )

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

    @pytest.mark.parametrize("seed", ["abc", "1e3", "2.5"])
    def test_seed_that_is_no_integer_is_refused_by_name(self, capsys, seed):
        argv = ["simulate", "--alpha", "1.5", "--p0", "0.9", "--p1", "0.7", "--p2", "0.75"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--n", "5", "--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == f"bdw simulate: error: argument --seed: seed must be an integer, got {seed!r}"

    @pytest.mark.parametrize("option", [
        ["--no-absorb-tail"],
        ["--estimator", "minchisq"],
    ], ids=["no-absorb-tail", "estimator-minchisq"])
    def test_gof_joint_refuses_column_options(self, capsys, option):
        # the joint check fits by ML and always absorbs the tail
        with pytest.raises(SystemExit) as exc:
            main(["gof", "--dataset", "football", "--column", "joint", *option])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "gof --column joint fits by ml and always absorbs the tail" in err

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

    def test_pmf_table_negative_bound_is_refused_by_its_option(self, tmp_path, capsys):
        # the grid once refused it under its own argument name, k1
        args = ["pmf-table", "--alpha", "1.5", "--p0", "0.9", "--p1", "0.7", "--p2", "0.75"]
        rc = main([*args, "--k", "-1", "--output", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: --k must be a non-negative integer, got -1\n"
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

# runs one command in-process, as _STARTUP_PROBE does but without importing
# json itself, help and refusals included, and prints on its last line
# whether the module named first was loaded
_LOADED_PROBE = """
import sys
import bdw.cli
try:
    bdw.cli.main(sys.argv[2:])
except SystemExit:
    pass
print(sys.argv[1] in sys.modules)
"""


def _loads(module, argv) -> bool:
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_PROBE, module, *argv], capture_output=True, text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


# a script on the scalar functions of the joint law and its DW laws: prints
# the numpy modules loaded
_LAW_SCRIPT = """
import json, sys
import bdw
from bdw.properties import cond_pmf, cond_sf_given_eq, cond_sf_given_ge
from bdw.univariate import dw_logpmf
for law in (bdw.BDWParams(1.5, 0.9, 0.7, 0.75), bdw.MOBWParams(0.8, 0.0, 0.3, 0.2)):
    bdw.moments(law), bdw.joint_sf(law, 1, 2), bdw.joint_cdf(law, 2, 3)
    bdw.properties.is_tp2_on_grid(law), bdw.properties.pqd_check_on_grid(law)
    for cell in ((1, 2), (3, 1), (2, 2)):
        bdw.joint_pmf(law, *cell), bdw.joint_logpmf(law, *cell), cond_pmf(law, *cell)
        cond_sf_given_ge(law, *cell), cond_sf_given_eq(law, *cell)
for law in (bdw.DWParams(1.5, 0.6), bdw.WeibullParams(0.8, 0.3)):
    bdw.dw_pmf(law, 3), dw_logpmf(law, 0)
print(json.dumps(sorted(m for m in sys.modules if (m + ".").startswith("numpy."))))
"""

# runs the Gibbs sweep in-process on football with the package's generator
# ("bdw") or numpy's ("numpy"), and prints whether numpy was loaded before
# and after the draws' array is read
_GIBBS_SCRIPT = """
import json, sys
from bdw.datasets import builtin_dataset
from bdw.fit_bayes import augmented_gibbs
if sys.argv[1] == "numpy":
    import numpy as np
    rng = np.random.default_rng(1)
else:
    from bdw.generator import _Generator
    rng = _Generator(1)
post = augmented_gibbs(builtin_dataset("football"), M=100, N=1, rng=rng)
before = "numpy" in sys.modules
assert post.draws.shape == (100, 4)
print(json.dumps([before, "numpy" in sys.modules]))
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

# the DW fits and one column's fit check, on every column, with both
# estimators and both tail rules: they run on math and load no numpy
DW_COMMANDS = [
    ["fit-dw", "--dataset", "nasal", "--column", column, *tail]
    for column in ("x1", "x2", "min") for tail in ([], ["--no-absorb-tail"])
] + [
    ["gof", "--dataset", "football", "--column", column, "--estimator", estimator]
    for column in ("x1", "x2", "min") for estimator in ("minchisq", "ml")
]

# the joint ML fit and its fit check, which also run on math
JOINT_COMMANDS = [
    ["fit-ml", "--dataset", "football"],
    ["fit-ml", "--dataset", "nasal"],
    ["gof", "--dataset", "football", "--column", "joint"],
]


# the library's own computations where numpy cannot be imported: the DW fit
# of a float list, a tuple and an array.array, and the paper's inner EM;
# each array hand-off refuses there with numpy's ImportError
_NO_NUMPY_SCRIPT = """
import array, json
import bdw
from bdw import bivariate, sampling
from bdw.datasets import builtin_dataset
from bdw.fit_bayes import augmented_gibbs
from bdw.fit_ml import init_estimates
from bdw.generator import _Generator
from bdw.mobw import impute_dataset, inner_em_mobw
from bdw.univariate import dw_fit_ml
xs = [0, 1, 1, 2, 2, 2, 3, 5]
fits = [dw_fit_ml(data) for data in ([float(y) for y in xs], tuple(xs), array.array("q", xs))]
football = builtin_dataset("football")
theta = init_estimates(football)
inner = inner_em_mobw(impute_dataset(theta, football), theta)


class Uniforms:  # a caller's own generator, which is not the package's stream
    def random(self, n):
        return [0.5] * n


post = augmented_gibbs(football, M=100, N=1, rng=_Generator(1))
hand_offs = {
    "_as_drawn": lambda: sampling.we_sample(bdw.WeibullParams(1.5, 0.5), Uniforms(), size=3),
    "joint_pmf_grid": lambda: bivariate.joint_pmf_grid(bdw.BDWParams(1.5, 0.9, 0.7, 0.75), 2, 2),
    "column": lambda: football.column("x1"),
    "_read_draws": lambda: post.draws,
}
refused = {}
for name, call in hand_offs.items():
    try:
        call()
    except ImportError as exc:
        refused[name] = str(exc)
print(json.dumps({
    "fits": [[fit.law.alpha, fit.law.lam, fit.loglik] for fit in fits],
    "inner": [inner.alpha, inner.lambda0, inner.lambda1, inner.lambda2],
    "refused": refused,
}))
"""


def _src_env(**extra):
    # this tree's src first on the path of a child interpreter; BDW_LOG
    # only where a test sets it, never inherited from the calling shell
    src = str(pathlib.Path(bdw.__file__).resolve().parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = {k: v for k, v in os.environ.items() if k != "BDW_LOG"}
    return {**env, "PYTHONPATH": os.pathsep.join(path), **extra}


def _program(args, **env):
    # the program path: a fresh ``python -m bdw.cli`` on this tree's src
    return subprocess.run(
        [sys.executable, "-m", "bdw.cli", *args], capture_output=True, env=_src_env(**env)
    )


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

    @pytest.mark.parametrize("package", ["dataclasses", "logging", "statistics"])
    def test_commands_load_neither_dataclasses_nor_logging(self, tmp_path, package):
        # records carry no generated code, logging loads only under BDW_LOG,
        # and statistics only for intervals at a level other than 95%
        assert _modules_after(tmp_path, ALL_COMMANDS, package=package) == set()
        # the control: the probe does see the module once something imports it
        loaded = _modules_after(tmp_path, ALL_COMMANDS[:1], [package], package=package)
        assert package in loaded

    @pytest.mark.parametrize("package", ["dataclasses", "logging"])
    def test_layers_import_without_dataclasses_or_logging(self, tmp_path, package):
        layers = ["bdw.fit_ml", "bdw.fit_bayes", "bdw.gof"]
        assert _modules_after(tmp_path, [], layers, package=package) == set()

    def test_source_holds_no_dataclasses(self):
        src = pathlib.Path(bdw.__file__).parent
        assert [p.name for p in src.glob("*.py") if "dataclass" in p.read_text()] == []

    def test_only_the_json_writer_loads_json(self, tmp_path):
        # pmf-table writes CSV and --help its usage: neither loads json
        command = {argv[0]: argv for argv in ALL_COMMANDS}
        out = ["--output", str(tmp_path / "out")]
        assert not _loads("json", ["--help"])
        assert not _loads("json", [*command["pmf-table"], *out])
        # the control: the probe does see json where a command writes a report
        assert _loads("json", [*command["moments"], *out])

    @pytest.mark.parametrize("package", ["argparse", "gettext", "locale"])
    def test_commands_do_not_load_argparse(self, tmp_path, package):
        # a well-formed line is read off the option table: argparse, and the
        # gettext and locale that it imports, load for help and refusals alone;
        # with no command, the probe is a bare ``import bdw.cli``
        assert _modules_after(tmp_path, ALL_COMMANDS, package=package) == set()
        assert _modules_after(tmp_path, [], package=package) == set()

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["moments", "--help"],
        ["bogus"],
        ["gof", "--dataset", "football", "--no-absorb-tail"],
        ["simulate", "--alpha", "1.5", "--p0", "0.9", "--p1", "0.7", "--p2", "0.75", "--n", "-1"],
    ], ids=["help", "command-help", "unknown-command", "joint-conflict", "negative-value"])
    def test_help_and_refusals_load_argparse(self, argv):
        # the control: argparse writes the help and every refusal
        assert _loads("argparse", argv)

    def test_no_command_loads_numpy(self, tmp_path):
        # simulate and fit-bayes draw numpy's values from the package's own
        # generator, and every fit and fit check runs on math; with no
        # command, the probe is a bare ``import bdw.cli``
        commands = [*ALL_COMMANDS, *DW_COMMANDS, *JOINT_COMMANDS]
        assert _modules_after(tmp_path, commands, package="numpy") == set()
        assert _modules_after(tmp_path, [], package="numpy") == set()

    @pytest.mark.parametrize("rng", ["bdw", "numpy"])
    def test_gibbs_api_loads_numpy_only_for_an_array(self, rng):
        # the control: the Gibbs sweep in-process loads numpy where the
        # caller hands it a numpy Generator, or reads the draws' array
        proc = subprocess.run(
            [sys.executable, "-c", _GIBBS_SCRIPT, rng], capture_output=True, text=True,
            env=_src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        before, after = json.loads(proc.stdout)
        assert (before, after) == ((rng == "numpy"), True)

    def test_law_script_does_not_load_numpy(self):
        proc = subprocess.run(
            [sys.executable, "-c", _LAW_SCRIPT], capture_output=True, text=True, env=_src_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    def test_law_commands_run_where_numpy_cannot_import(self, tmp_path):
        # a numpy package that refuses to import, first on the child's path
        stub = tmp_path / "stub" / "numpy"
        stub.mkdir(parents=True)
        (stub / "__init__.py").write_text('raise ImportError("stub numpy")\n')
        path = os.pathsep.join([str(stub.parent), _src_env()["PYTHONPATH"]])
        proc = _program(["--help"], PYTHONPATH=path)
        assert (proc.returncode, proc.stderr) == (0, b"") and b"moments" in proc.stdout
        law = ["--alpha", "1.5", "--p0", "0.9", "--p1", "0.7", "--p2", "0.75"]
        out = tmp_path / "report.json"
        assert main(["moments", *law, "--output", str(out)]) == 0
        proc = _program(["moments", *law], PYTHONPATH=path)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, b"", out.read_bytes())
        proc = _program(["moments", "--alpha", "-1", *law[2:]], PYTHONPATH=path)
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr == b"error: shape must be positive and finite, got -1.0\n"
        grid = tmp_path / "grid.csv"
        assert main(["pmf-table", *law, "--k", "6", "--output", str(grid)]) == 0
        proc = _program(["pmf-table", *law, "--k", "6"], PYTHONPATH=path)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, b"", grid.read_bytes())
        sim = tmp_path / "sim.json"
        argv = ["simulate", "--alpha", "1.6", "--p0", "0.95", "--p1", "0.8", "--p2", "0.85",
                "--n", "20", "--seed", "1"]
        assert main([*argv, "--output", str(sim)]) == 0
        proc = _program(argv, PYTHONPATH=path)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, b"", sim.read_bytes())
        # and so does the Gibbs fit, refusals included
        for argv in (["fit-bayes", "--dataset", "football", "-M", "200", "-N", "2", "--seed", "1"],
                     ["fit-bayes", "--dataset", "football", "-M", "100", "-N", "1", "--c", "1e16"]):
            want = _program(argv)
            proc = _program(argv, PYTHONPATH=path)
            assert (proc.returncode, proc.stderr, proc.stdout) == (
                want.returncode, want.stderr, want.stdout
            ), argv
        # the control: the stub does refuse numpy to the child
        proc = subprocess.run(
            [sys.executable, "-c", "import numpy"], capture_output=True, env=_src_env(PYTHONPATH=path)
        )
        assert proc.returncode == 1 and b"ImportError: stub numpy" in proc.stderr

    def test_library_computes_where_numpy_cannot_import(self, tmp_path):
        # the same values as with numpy; only the four array hand-offs need it
        stub = tmp_path / "stub" / "numpy"
        stub.mkdir(parents=True)
        (stub / "__init__.py").write_text('raise ImportError("stub numpy")\n')
        path = os.pathsep.join([str(stub.parent), _src_env()["PYTHONPATH"]])
        proc = subprocess.run(
            [sys.executable, "-c", _NO_NUMPY_SCRIPT], capture_output=True, text=True,
            env=_src_env(PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        want = bdw.dw_fit_ml([0, 1, 1, 2, 2, 2, 3, 5])
        assert got["fits"] == [[want.law.alpha, want.law.lam, want.loglik]] * 3
        football = builtin_dataset("football")
        theta = bdw.init_estimates(football)
        inner = mobw.inner_em_mobw(mobw.impute_dataset(theta, football), theta)
        assert got["inner"] == [inner.alpha, inner.lambda0, inner.lambda1, inner.lambda2]
        hand_offs = ["_as_drawn", "joint_pmf_grid", "column", "_read_draws"]
        assert got["refused"] == dict.fromkeys(hand_offs, "stub numpy")

    def test_dw_commands_run_where_numpy_cannot_import(self, tmp_path):
        # the same bytes as a run with numpy, on every column, estimator and
        # tail rule, and the same error line where a fit's base rounds to 1
        stub = tmp_path / "stub" / "numpy"
        stub.mkdir(parents=True)
        (stub / "__init__.py").write_text('raise ImportError("stub numpy")\n')
        path = os.pathsep.join([str(stub.parent), _src_env()["PYTHONPATH"]])
        out = tmp_path / "report.json"
        for argv in DW_COMMANDS:
            assert main([*argv, "--output", str(out)]) == 0
            proc = _program(argv, PYTHONPATH=path)
            assert (proc.returncode, proc.stderr, proc.stdout) == (0, b"", out.read_bytes()), argv
        large = tmp_path / "large.csv"
        large.write_text(LARGE_COUNTS_CSV)
        argv = ["fit-dw", "--input", str(large), "--column", "x1"]
        want = _program(argv)
        assert want.returncode == 1 and want.stderr.startswith(b"error: the rate lambda = ")
        proc = _program(argv, PYTHONPATH=path)
        assert (proc.returncode, proc.stderr, proc.stdout) == (1, want.stderr, b"")

    def test_joint_fit_commands_run_where_numpy_cannot_import(self, tmp_path):
        # the same bytes as a run with numpy, warnings included, also on a
        # fit with counts up to 1000 whose fit check pools a 1001 x 1001 grid
        stub = tmp_path / "stub" / "numpy"
        stub.mkdir(parents=True)
        (stub / "__init__.py").write_text('raise ImportError("stub numpy")\n')
        path = os.pathsep.join([str(stub.parent), _src_env()["PYTHONPATH"]])
        spread = tmp_path / "spread.csv"
        spread.write_text("0,0\n1,1\n2,1\n1,2\n1000,0\n0,1000\n")
        for argv in [*JOINT_COMMANDS, ["gof", "--input", str(spread)]]:
            want = _program(argv)
            assert want.returncode == 0, argv
            proc = _program(argv, PYTHONPATH=path)
            assert (proc.returncode, proc.stderr, proc.stdout) == (
                0, want.stderr, want.stdout
            ), argv

    def test_moments_of_tiny_variances_run_where_numpy_cannot_import(self, tmp_path):
        # both variances ~1e-200: their product underflows, their roots do not
        stub = tmp_path / "stub" / "numpy"
        stub.mkdir(parents=True)
        (stub / "__init__.py").write_text('raise ImportError("stub numpy")\n')
        path = os.pathsep.join([str(stub.parent), _src_env()["PYTHONPATH"]])
        law = ["--alpha", "2", "--p0", "1", "--p1", "1e-200", "--p2", "1e-200"]
        out = tmp_path / "report.json"
        assert main(["moments", *law, "--output", str(out)]) == 0
        assert json.loads(out.read_bytes())["results"]["correlation"] == 0.0
        proc = _program(["moments", *law], PYTHONPATH=path)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, b"", out.read_bytes())

    # the bdw modules each command loads: the layers it runs, and no other;
    # the law commands run on the joint law and simulate on its samplers,
    # and none loads the paper's property results or the data commands'
    # handlers; only a command that reads data loads the data layer and its
    # handler, only a fit loads the DW fits, and a column's fit and fit
    # check load no joint law
    _START = {"bdw", "bdw.cli", "bdw.weibull"}
    _LAW = _START | {"bdw.bivariate"}
    _DW = _START | {"bdw.fit_commands", "bdw.datasets", "bdw.univariate"}
    _FITS = _DW | {"bdw.bivariate", "bdw.fit_ml", "bdw.gof"}
    _LOADED = {
        "pmf-table": _LAW,
        "moments": _LAW,
        "simulate": _LAW | {"bdw.sampling"},
        "fit-ml": _FITS,
        "gof": _FITS,
        "gof-x1": _DW,
        "fit-dw": _DW,
        "fit-bayes": _DW | {
            "bdw.bivariate", "bdw.fit_ml", "bdw.mobw", "bdw.fit_bayes",
            "bdw.generator", "bdw.sampling",
        },
    }

    def test_dataset_choices_are_the_builtin_names(self):
        # written out in cli, so that the law commands do not load the data layer
        assert cli._DATASETS == tuple(sorted(datasets.BUILTIN))

    def test_prior_options_are_the_priors_fields(self):
        # written out in cli, so that the parser loads no fitting module; the
        # fit-bayes handler writes its config from the priors' fields
        assert cli._PRIOR == (*fit_bayes.DGPrior._fields, *fit_bayes.AlphaPrior._fields)

    @pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda argv: argv[0])
    def test_command_loads_only_its_layers(self, tmp_path, argv):
        assert _modules_after(tmp_path, [argv], package="bdw") == self._LOADED[argv[0]]

    def test_column_gof_loads_only_its_layers(self, tmp_path):
        # one column's fit check runs the DW fits, not the joint fit
        argv = ["gof", "--dataset", "nasal", "--column", "x1"]
        assert _modules_after(tmp_path, [argv], package="bdw") == self._LOADED["gof-x1"]


# Run the module as ``python -m`` does; an atexit hook, which runs after
# the program's own exit path, writes the collector's freeze count to a file.
_FREEZE_PROBE = """
import atexit, gc, runpy, sys
out = sys.argv[1]
atexit.register(lambda: open(out, "w").write(str(gc.get_freeze_count())))
sys.argv = ["bdw", *sys.argv[2:]]
runpy.run_module("bdw.cli", run_name="__main__")
"""


# a site hook for a child interpreter: at exit, it writes the name that
# __main__ runs as and the bdw modules loaded to the file named by
# BDW_TEST_MODULES_OUT
_SITE_PROBE = """
import atexit, json, os, sys


def _write():
    spec = getattr(sys.modules["__main__"], "__spec__", None)
    loaded = sorted(m for m in sys.modules if (m + ".").startswith("bdw."))
    with open(os.environ["BDW_TEST_MODULES_OUT"], "w") as fh:
        json.dump({"main": spec and spec.name, "loaded": loaded}, fh)


atexit.register(_write)
"""


def _loaded_at_exit(tmp_path, args, module=True):
    # the bdw modules a fresh ``python -m bdw.cli`` (or ``python -c``) holds at exit
    site = tmp_path / "site"
    site.mkdir(exist_ok=True)
    (site / "sitecustomize.py").write_text(_SITE_PROBE)
    out = tmp_path / "modules.json"
    env = _src_env(BDW_TEST_MODULES_OUT=str(out))
    env["PYTHONPATH"] = os.pathsep.join([str(site), env["PYTHONPATH"]])
    entry = ["-m", "bdw.cli"] if module else ["-c"]
    proc = subprocess.run([sys.executable, *entry, *args], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


class TestProgramEntry:
    @pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda argv: argv[0])
    def test_program_compiles_the_command_line_once(self, tmp_path, argv):
        # python -m runs bdw.cli as __main__; a module that imported bdw.cli
        # would compile and run it a second time, beside __main__
        got = _loaded_at_exit(tmp_path, [*argv, "--output", str(tmp_path / "report")])
        assert got["main"] == "bdw.cli"
        assert "bdw.cli" not in got["loaded"] and "bdw.weibull" in got["loaded"]

    def test_site_probe_sees_the_command_line_module(self, tmp_path):
        # the control: an import of bdw.cli does show in the probe
        got = _loaded_at_exit(tmp_path, ["import bdw.cli"], module=False)
        assert got["main"] is None and "bdw.cli" in got["loaded"]

    @pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda argv: argv[0])
    def test_program_report_equals_in_process_report(self, tmp_path, argv):
        out = tmp_path / "report"
        assert main([*argv, "--output", str(out)]) == 0
        proc = _program(argv)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == out.read_bytes()

    @pytest.mark.parametrize("argv, code", [
        (["fit-ml", "--input", "missing.csv"], 1),
        (["bogus"], 2),
    ], ids=["missing-file", "unknown-command"])
    def test_program_failure_equals_in_process_failure(self, capsys, argv, code):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        err = capsys.readouterr().err
        proc = _program(argv)
        assert (proc.returncode, proc.stderr.decode(), proc.stdout) == (code, err, b"")
        assert rc == code

    def test_program_warnings_equal_in_process_warnings(self, tmp_path):
        # the data of test_fit_ml_shared_rate_at_boundary: lambda0 fits at 0
        law = BDWParams(1.5, 1.0, 0.7, 0.75)
        draws = sampling.sample(law, np.random.default_rng(3), size=200)
        path = tmp_path / "noties.csv"
        path.write_text("".join(f"{a},{b}\n" for a, b in draws.tolist() if a != b))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            assert main(["fit-ml", "--input", str(path), "--output", str(tmp_path / "a")]) == 0
        shown = "".join(
            warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught
        )
        assert "at its boundary" in shown
        proc = _program(["fit-ml", "--input", str(path), "--output", str(tmp_path / "b")])
        assert (proc.returncode, proc.stderr.decode()) == (0, shown)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    @pytest.mark.parametrize("argv, code", [
        (ALL_COMMANDS[-1], 0),
        (["bogus"], 2),
    ], ids=["success", "usage-error"])
    def test_program_exits_with_objects_frozen(self, tmp_path, argv, code):
        count = tmp_path / "freeze_count"
        proc = subprocess.run(
            [sys.executable, "-c", _FREEZE_PROBE, str(count), *argv],
            capture_output=True, text=True, env=_src_env(),
        )
        assert proc.returncode == code, proc.stderr
        assert int(count.read_text()) > 0

    @pytest.mark.parametrize("argv, code", [
        (ALL_COMMANDS[-1], 0),
        (["fit-ml", "--input", "missing.csv"], 1),
    ], ids=["success", "refused"])
    def test_library_call_leaves_the_collector_alone(self, tmp_path, capsys, argv, code):
        before = gc.get_freeze_count()
        assert main([*argv, "--output", str(tmp_path / "out")]) == code
        assert gc.get_freeze_count() == before


# every action of bdw's parser and of each command's parser, in order:
# option strings, dest, required, default, choices, type name and help
_HELP = (("-h", "--help"), "help", False, "==SUPPRESS==", None, None,
         "show this help message and exit")
_DATA = [
    (("--dataset",), "dataset", False, None, ["football", "nasal"], None, "built-in dataset name"),
    (("--input",), "input", False, None, None, None, "CSV file with two integer columns"),
]
_LAW_OPTIONS = [((f"--{name}",), name, True, None, None, "float", None)
                for name in ("alpha", "p0", "p1", "p2")]
_OUTPUT = (("--output",), "output", False, None, None, None, None)
_NO_TAIL = (("--no-absorb-tail",), "no_absorb_tail", False, False, None, None, None)
_SEED = (("--seed",), "seed", False, 0, None, "_seed_value", None)
_SURFACE = {
    "bdw": [
        _HELP,
        ((), "command", True, None,
         ["fit-dw", "fit-ml", "fit-bayes", "gof", "simulate", "pmf-table", "moments"], None, None),
    ],
    "fit-dw": [
        _HELP, *_DATA,
        (("--column",), "column", True, None, ["x1", "x2", "min"], None, None),
        _NO_TAIL, _OUTPUT,
    ],
    "fit-ml": [_HELP, *_DATA, _OUTPUT],
    "fit-bayes": [
        _HELP, *_DATA,
        (("--draws", "-M"), "draws", False, 10_000, None, "int", "Gibbs draws per round"),
        (("--rounds", "-N"), "rounds", False, 20, None, "int", "outer imputation rounds"),
        _SEED,
        (("--burn-in",), "burn_in", False, 0.1, None, "float", None),
        *[((f"--{name}",), name, False, 1e-4, None, "float", None)
          for name in ("a", "b", "a0", "a1", "a2", "c", "d")],
        _OUTPUT,
    ],
    "gof": [
        _HELP, *_DATA,
        (("--column",), "column", False, "joint", ["x1", "x2", "min", "joint"], None, None),
        (("--estimator",), "estimator", False, None, ["minchisq", "ml"], None,
         "a column's fit (default minchisq); joint fits by ml"),
        _NO_TAIL, _OUTPUT,
    ],
    "simulate": [
        _HELP, *_LAW_OPTIONS, (("--n",), "n", True, None, None, "int", None), _SEED, _OUTPUT,
    ],
    "pmf-table": [
        _HELP, *_LAW_OPTIONS,
        (("--k",), "k", False, None, None, "int",
         "grid bound, at most 10000; default leaves < 1e-6 mass outside"),
        _OUTPUT,
    ],
    "moments": [_HELP, *_LAW_OPTIONS, _OUTPUT],
}
# each command's line in ``bdw --help``
_COMMAND_HELP = {
    "fit-dw": "fit one-dimensional discrete Weibull",
    "fit-ml": "maximum-likelihood joint fit",
    "fit-bayes": "Bayesian joint fit",
    "gof": "chi-square goodness of fit",
    "simulate": "draw joint samples",
    "pmf-table": "joint PMF grid as CSV",
    "moments": "means, variances and correlation",
}


def _actions(parser: argparse.ArgumentParser) -> list[tuple]:
    return [
        (
            tuple(a.option_strings), a.dest, a.required, a.default,
            None if a.choices is None else list(a.choices),
            getattr(a.type, "__name__", None), a.help,
        )
        for a in parser._actions
    ]


class TestOptionSurface:
    # read off the parser's actions, not its help text, so the pins hold on
    # every Python version whatever argparse's formatting
    def test_program_options(self):
        assert _actions(cli._build_parser()) == _SURFACE["bdw"]

    @pytest.mark.parametrize("command", list(_COMMAND_HELP))
    def test_command_options(self, command):
        commands = next(
            a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        parser = commands.choices[command]
        assert _actions(parser) == _SURFACE[command]
        # a command that reads data takes exactly one of --dataset and --input
        groups = [(g.required, [a.dest for a in g._group_actions])
                  for g in parser._mutually_exclusive_groups]
        reads_data = _DATA[0] in _SURFACE[command]
        assert groups == ([(True, ["dataset", "input"])] if reads_data else [])

    def test_command_help_lines(self):
        commands = next(
            a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert {a.dest: a.help for a in commands._choices_actions} == _COMMAND_HELP


def _value(keywords: dict, valid: bool):
    # text for an option's value: one that the option takes, or (valid
    # False) also any text, negative numbers and the out-of-range among it
    if "choices" in keywords:
        good = st.sampled_from(keywords["choices"])
    elif keywords.get("type") is float:
        good = st.floats(min_value=0.0).map(repr) | st.sampled_from(["nan", "inf", " 2.5", "1_0"])
    elif keywords.get("type") is int:
        good = st.integers(0, 10**6).map(str)
    elif keywords.get("type") is cli._seed_value:
        good = st.integers(0, 2**64 - 1).map(str)
    else:
        good = st.text(max_size=8).filter(lambda text: not text.startswith("-"))
    if valid:
        return good
    return good | st.text(max_size=6) | st.integers(-(2**65), 2**65).map(str) | st.floats().map(repr)


@st.composite
def _command_lines(draw, perturbed: bool):
    # a line of one command's own options, each given once: every required
    # option and exactly one data option.  Perturbed, it may also drop or add
    # an option, draw invalid values and turn options into forms that
    # argparse alone reads (help, abbreviations, --opt=value, -M200,
    # repeats, "--" and values that start with "-")
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    lead, rest = cli._options(name)
    data = draw(st.sampled_from(["--dataset", "--input"]))
    groups = []
    for strings, keywords in (*lead, *rest):
        if lead is cli._DATA_OPTIONS and strings[0] in ("--dataset", "--input"):
            wanted = strings[0] == data
        else:
            wanted = keywords.get("required") or draw(st.booleans())
        if perturbed and draw(st.integers(0, 7)) == 0:
            wanted = not wanted
        if not wanted:
            continue
        string = draw(st.sampled_from(strings))
        if keywords.get("action") == "store_true":
            groups.append([string])
        else:
            valid = not perturbed or draw(st.integers(0, 3)) > 0
            groups.append([string, draw(_value(keywords, valid))])
    groups = draw(st.permutations(groups))
    if perturbed and groups:
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(groups) - 1))
            option, *value = groups[i]
            form = draw(st.sampled_from(
                ["help", "abbrev", "equals", "joined", "repeat", "dash", "double-dash"]
            ))
            if form == "help":
                groups.insert(i, [draw(st.sampled_from(["-h", "--help"]))])
            elif form == "abbrev" and option.startswith("--") and len(option) > 3:
                groups[i] = [option[:draw(st.integers(3, len(option) - 1))], *value]
            elif form == "equals" and value:
                groups[i] = [f"{option}={value[0]}"]
            elif form == "joined" and value and not option.startswith("--"):
                groups[i] = [option + value[0]]
            elif form == "repeat":
                groups.insert(i, list(groups[i]))
            elif form == "dash" and value:
                groups[i] = [option, draw(st.sampled_from(["-1", "-0.5", "-inf", "-x", "-", "--"]))]
            elif form == "double-dash":
                groups.insert(i, ["--"])
    return [name, *(token for group in groups for token in group)]


_PARSER = cli._build_parser()


def _parsed(argv) -> dict:
    # argparse's namespace for a line that it must take, as a dict
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            return vars(_PARSER.parse_args(argv))
    except SystemExit:
        pytest.fail(f"argparse refused {argv}: {stderr.getvalue()}")


def _same(read, parsed: dict) -> bool:
    # the reader's namespace equals argparse's, with NaN equal to NaN
    got = vars(read)
    return got.keys() == parsed.keys() and all(
        got[k] == parsed[k] or (got[k] != got[k] and parsed[k] != parsed[k]) for k in got
    )


class TestCommandLineReader:
    # cli._read reads a well-formed line off the option table, without
    # argparse; every other line is argparse's
    @pytest.mark.parametrize("argv", [*ALL_COMMANDS, *DW_COMMANDS, *JOINT_COMMANDS],
                             ids=lambda argv: " ".join(argv))
    def test_reader_takes_each_command(self, argv):
        read = cli._read([*argv, "--output", "report"])
        assert read is not None and _same(read, _parsed([*argv, "--output", "report"]))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(argv=_command_lines(perturbed=False))
    def test_reader_takes_a_well_formed_line(self, argv):
        parsed = _parsed(argv)
        if cli._joint_conflict(argparse.Namespace(**parsed)):
            assert cli._read(argv) is None
        else:
            read = cli._read(argv)
            assert read is not None and _same(read, parsed)

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(argv=_command_lines(perturbed=True))
    def test_reader_agrees_with_argparse(self, argv):
        read = cli._read(argv)
        if read is not None:
            assert _same(read, _parsed(argv))
            assert not cli._joint_conflict(read)

    @pytest.mark.parametrize("argv", [
        ["fit-ml", "--dataset", "football", "--input", "pairs.csv"],
        ["fit-ml"],
        ["moments", "--alpha", "1.5", "--p0", "0.9", "--p1", "0.7"],
        ["fit-bayes", "--dataset", "football", "-M", "100", "--draws", "200"],
        ["fit-bayes", "--dataset", "football", "-M200"],
        ["fit-ml", "--dataset=football"],
        ["fit-ml", "--data", "football"],
        ["fit-ml", "--dataset", "football", "--"],
        ["fit-ml", "--dataset", "football", "extra"],
        ["simulate", "--alpha", "1.5", "--p0", "0.9", "--p1", "0.7", "--p2", "0.75", "--n", "-1"],
        ["simulate", "--alpha", "1.5", "--p0", "0.9", "--p1", "0.7", "--p2", "0.75", "--n", "2.5"],
        ["simulate", "--alpha", "1.5", "--p0", "0.9", "--p1", "0.7", "--p2", "0.75", "--n", "3",
         "--seed", str(2**64)],
        ["fit-dw", "--dataset", "nasal", "--column", "joint"],
        ["gof", "--dataset", "football", "--estimator", "minchisq"],
        ["gof", "--dataset", "football", "--column", "joint", "--no-absorb-tail"],
        ["moments", "-h"],
        ["--help"],
        [],
    ])
    def test_reader_leaves_other_lines_to_argparse(self, argv):
        assert cli._read(argv) is None


# ``main`` called by a fresh interpreter, the in-process entry
_MAIN_PROBE = "import sys, bdw.cli; sys.exit(bdw.cli.main(sys.argv[1:]))"


class TestLogging:
    @pytest.mark.parametrize("entry", ["main", "module"])
    def test_info_reports_the_load_and_the_write(self, tmp_path, entry):
        out = tmp_path / "report.json"
        argv = ["fit-ml", "--dataset", "football", "--output", str(out)]
        if entry == "main":
            proc = subprocess.run([sys.executable, "-c", _MAIN_PROBE, *argv],
                                  capture_output=True, env=_src_env(BDW_LOG="INFO"))
        else:
            proc = _program(argv, BDW_LOG="INFO")
        assert proc.returncode == 0
        assert proc.stderr.decode() == (
            f"INFO bdw: loaded 26 pairs\nINFO bdw: report written to {out}\n"
        )

    def test_level_name_is_case_blind(self, tmp_path):
        out = tmp_path / "grid.csv"
        argv = ["pmf-table", "--alpha", "1.5", "--p0", "0.9", "--p1", "0.7", "--p2", "0.75",
                "--k", "2", "--output", str(out)]
        proc = _program(argv, BDW_LOG="info")
        assert (proc.returncode, proc.stderr.decode()) == (0, f"INFO bdw: grid written to {out}\n")

    # unset, a level above INFO, or a name logging does not know (which
    # falls back to WARNING): the report, and nothing on stderr
    @pytest.mark.parametrize("level", [None, "WARNING", "bogus"])
    def test_quiet_levels_write_nothing(self, tmp_path, level):
        env = {} if level is None else {"BDW_LOG": level}
        proc = _program(["fit-ml", "--dataset", "football", "--output", str(tmp_path / "r")], **env)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, b"", b"")
        assert (tmp_path / "r").stat().st_size > 0


    # logging's own names that are no level, a format string and a dict,
    # read as WARNING like an unknown name: the report as without BDW_LOG
    @pytest.mark.parametrize("value", ["basic_format", "_styles"])
    def test_a_name_that_is_no_level_reads_as_warning(self, value):
        argv = ["moments", "--alpha", "1.5", "--p0", "0.9", "--p1", "0.7", "--p2", "0.75"]
        quiet = _program(argv)
        proc = _program(argv, BDW_LOG=value)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == quiet.stdout and quiet.stdout


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
        # the tracer still looks for the seeded sampler in the joint law's
        # module; it lives in bdw.sampling
        assert doc["absent"] == ["bivariate.sample"]
        assert [s[0] for s in doc["spans"]].count(span) == 1
