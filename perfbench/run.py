"""End-to-end and per-layer benchmark of the ``bdw`` command-line tool.

Usage::

    python3 perfbench/run.py --workload bundled --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

Run from the repository root.  Each op is one fresh ``python -m bdw.cli``
process with ``PYTHONPATH=src``, timed from spawn to exit, so process
start, imports, the computation and the report write all count.  The load
is a closed loop with one client on one CPU: ops run one at a time, in a
fixed order, in as many whole cycles as fit in ``--seconds`` at the
workload's nominal cycle time, so a seed always runs the same ops.  Times
are wall times rescaled to a reference CPU speed measured around each op
(see ``launch.py``); the raw wall medians are printed beside them.  Each
command's figure is the median over cycles of its mean time in a cycle.
On a generated workload every cycle fits the datasets of a fixed panel, the
same in every run; after the timed cycles the run fits, untimed, datasets
drawn from the workload seed, so outputs are also checked on data no
change was tuned on.  The seed also sets the ``--seed`` given to
``fit-bayes`` and ``simulate``.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` every op is run twice, plain and then through
``perfbench/traced.py``, which records spans around each layer's public
functions; the run reports per-layer metrics, the tracing overhead
(traced minus plain wall time) and the time no span accounts for.

Every output is checked (see ``Checker``); an op fails if it exits
non-zero or fails a check, and keeps its exit code and stderr tail.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import datagen
from launch import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OP_TIMEOUT_S = 120
SETUP_REPEATS = 3
# Times are reported in seconds at a reference speed: wall time times
# REFERENCE_CAL_S over the calibration measured around it (see launch.py),
# i.e. at the speed where a bare interpreter starts and exits in 12 ms.
# That is about the calibration's median on a 2-CPU Xeon VM, so reported
# times are close to that machine's wall times.
REFERENCE_CAL_S = 0.012
PANEL_ENTROPY = 1804_11205
STDERR_TAIL = 400

BUNDLED_SIM = {"alpha": 1.6, "p0": 0.95, "p1": 0.8, "p2": 0.85}
BUNDLED_TABLE = {"alpha": 1.5, "p0": 0.9, "p1": 0.7, "p2": 0.75}
LIGHT = {"alpha": 1.6, "p0": 0.9, "p1": 0.7, "p2": 0.75}
WIDE = {"alpha": 1.2, "p0": 0.97, "p1": 0.95, "p2": 0.96}

KINDS = {
    "fit-ml": "fit_ml_s",
    "gof": "gof_s",
    "fit-bayes": "fit_bayes_s",
    "fit-dw": "fit_dw_s",
    "simulate": "simulate_s",
    "pmf-table": "pmf_table_s",
    "moments": "moments_s",
}


def law_args(law: dict) -> list[str]:
    return [tok for k in ("alpha", "p0", "p1", "p2") for tok in (f"--{k}", repr(law[k]))]


def law_ops(sim: dict, n: int, table: dict) -> list[list[str]]:
    return [
        ["simulate", *law_args(sim), "--n", str(n), "--seed", "{seed}"],
        ["pmf-table", *law_args(table)],
        ["moments", *law_args(table)],
    ]


FIT_OPS = [
    ["fit-ml", "--input", "{data}"],
    ["gof", "--input", "{data}", "--column", "joint"],
    ["fit-dw", "--input", "{data}", "--column", "min"],
    ["fit-bayes", "--input", "{data}", "-M", "200", "-N", "2", "--seed", "{seed}"],
]

# Why each workload: see BENCHMARK.json.  A cycle runs ``ops`` and then
# ``FIT_OPS`` on each of the ``panel`` datasets; ``fresh`` datasets drawn
# from the workload seed are fitted once, untimed, after the cycles.  All
# datasets hold ``rows`` pairs from ``law``.  Only the panel is timed
# because a fit's cost varies up to twofold from one draw to the next (the
# Nelder-Mead searches stop at their iteration cap on some datasets and not
# on others), which with seed-drawn timed data spread the fit metrics by
# 0.2-0.3 across seeds.  The panel of ``cells-wide`` is one dataset, on
# which every command succeeds, so each metric is a median of like ops;
# most seed-drawn datasets still make ``fit-bayes`` fail.  The number of
# cycles is ``--seconds`` over the nominal ``cycle_s``, so a seed always
# runs the same ops.  ``rows-10k`` is not in BENCHMARK.json: a 10k-row
# fit takes 2 s on most draws and 5-8 s on about one in eight.
WORKLOADS = {
    "bundled": {
        "ops": [
            ["fit-ml", "--dataset", "football"],
            ["fit-ml", "--dataset", "nasal"],
            ["gof", "--dataset", "football", "--column", "joint"],
            ["fit-dw", "--dataset", "nasal", "--column", "min"],
            ["fit-bayes", "--dataset", "football", "-M", "2000", "-N", "5", "--seed", "{seed}"],
            *law_ops(BUNDLED_SIM, 200, BUNDLED_TABLE),
        ],
        "law": None, "rows": 0, "panel": 0, "fresh": 0, "cycle_s": 9.2,
    },
    "rows-10k": {
        "ops": law_ops(LIGHT, 200_000, LIGHT),
        "law": LIGHT, "rows": 10_000, "panel": 1, "fresh": 1, "cycle_s": 20.0,
    },
    "cells-wide": {
        "ops": law_ops(WIDE, 1_000, WIDE),
        "law": WIDE, "rows": 1_000, "panel": 1, "fresh": 1, "cycle_s": 8.7,
    },
}

# ---------------------------------------------------------------- environment


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seed": seed,
    }


# ---------------------------------------------------------------- processes


class Runner:
    """Runs one child at a time and records its wall time and max RSS."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("BDW_LOG", None)
        self.peak_rss_kb = 0

    def spawn(self, argv: list[str]) -> tuple[int, float, float, str]:
        """Run ``argv``; return (exit code, wall seconds, reference seconds,
        stderr tail)."""
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            done = subprocess.run(
                [sys.executable, "-S", str(BENCH / "launch.py"), str(OP_TIMEOUT_S), *argv],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=err, check=True,
            )
        code, wall, rss_kb, cal = done.stdout.split()
        code, wall = int(code), float(wall)
        self.peak_rss_kb = max(self.peak_rss_kb, int(rss_kb))
        tail = ""
        if code != 0:
            tail = err_path.read_bytes()[-STDERR_TAIL:].decode(errors="replace")
        return code, wall, wall * REFERENCE_CAL_S / float(cal), tail

    def import_probe(self) -> tuple[float, float]:
        """A fresh process that only imports ``bdw.cli``; returns its import
        time and its wall time from start to exit."""
        out = self.work / "import.txt"
        code = (
            "import time; t = time.perf_counter(); import bdw.cli; "
            f"open({str(out)!r}, 'w').write(repr(time.perf_counter() - t))"
        )
        rc, wall, _, tail = self.spawn([sys.executable, "-c", code])
        if rc != 0:
            raise RuntimeError(f"import bdw.cli failed: {tail}")
        return float(out.read_text()), wall


# ---------------------------------------------------------------- checks


class Checker:
    """Output checks; every distinct op's output is validated once and
    every repeat must reproduce it byte for byte."""

    def __init__(self) -> None:
        import jsonschema

        schema = json.loads((ROOT / "docs" / "report.schema.json").read_text())
        self.validator = jsonschema.Draft202012Validator(schema)
        self.refs = json.loads((BENCH / "references.json").read_text())
        self.digests: dict[tuple, str] = {}
        self.reference_checks = 0

    def check(self, key: tuple, argv: list[str], ref_key: str | None, path: Path) -> str | None:
        """Return why the output at ``path`` is wrong, or ``None``."""
        try:
            body = path.read_bytes()
        except OSError as exc:
            return f"no output: {exc}"
        digest = hashlib.sha256(body).hexdigest()
        if key in self.digests:
            if self.digests[key] != digest:
                return "output differs from an earlier run of the same command and seed"
            return None
        self.digests[key] = digest
        try:
            return self._check_content(argv, ref_key, body)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc}"

    def _check_content(self, argv, ref_key, body) -> str | None:
        command = argv[0]
        if command == "pmf-table":
            rows = body.decode().splitlines()[1:]
            mass = math.fsum(float(r.split(",")[2]) for r in rows)
            if not 1.0 - 1e-6 <= mass <= 1.0:
                return f"pmf-table mass {mass!r} outside [1 - 1e-6, 1]"
            return None
        report = json.loads(body)
        shown = report
        if command == "simulate":
            pairs = report["results"]["pairs"]
            n = int(argv[argv.index("--n") + 1])
            if len(pairs) != n:
                return f"simulate returned {len(pairs)} pairs, asked for {n}"
            for p in pairs:
                if len(p) != 2 or not all(type(v) is int and v >= 0 for v in p):
                    return f"simulate returned a bad pair {p!r}"
            # the pairs are checked above; the schema sees a prefix of
            # them, since validating 10^5 pairs with jsonschema takes seconds
            shown = dict(report, results={"pairs": pairs[:1000]})
        errors = sorted(self.validator.iter_errors(shown), key=str)
        if errors:
            return f"report fails docs/report.schema.json: {errors[0].message[:200]}"
        results = report["results"]
        if command == "fit-ml" and ref_key in self.refs["fit_ml_loglik"]:
            self.reference_checks += 1
            ref = self.refs["fit_ml_loglik"][ref_key]
            if not results["loglik"] >= ref - 1e-6:
                return f"fit-ml loglik {results['loglik']!r} below reference {ref!r}"
        if command == "moments":
            self.reference_checks += 1
            ref = self.refs["moments"][" ".join(argv[1:])]
            for name, want in ref.items():
                got = results[name]
                if not math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0):
                    return f"moments {name} = {got!r}, recorded {want!r}"
        return None


# ---------------------------------------------------------------- spans


def op_profile(spans_doc: dict) -> dict:
    """Per-op totals from one traced op's spans."""
    spans = spans_doc["spans"]
    child_time = defaultdict(float)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    dur = Counter()
    calls = Counter()
    raised = Counter()
    self_time = Counter()
    via_dur = Counter()
    via_calls = Counter()
    extra = Counter()
    ess = []
    top = 0.0
    for i, (name, start, end, parent, err, via, attrs) in enumerate(spans):
        d = end - start
        dur[name] += d
        calls[name] += 1
        raised[name] += bool(err)
        self_time[name] += d - child_time[i]
        via_dur[(name, via)] += d
        via_calls[(name, via)] += 1
        if parent < 0:
            top += d
        elif name == "mobw.complete_loglik" and spans[parent][0] == "fit_ml.inner_em_mobw":
            extra["inner_em_iters"] += 1
        if attrs and "rows" in attrs:
            extra["rows"] += attrs["rows"]
            extra["cells"] += attrs["cells"]
        if attrs and "min_ess" in attrs:
            ess.append((attrs["min_ess"], d))
    # spans that traced.py opens itself are not the program's work
    skip = ("cli.import", "cli.main", "bench.after")
    counts = Counter({k: v for k, v in calls.items() if k not in skip})
    return {
        "dur": dur, "calls": calls, "raised": raised, "self": self_time,
        "via_dur": via_dur, "via_calls": via_calls, "extra": extra, "ess": ess,
        "top": top, "counts": counts, "absent": spans_doc["absent"],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(cycle_ops: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced cycle: sums over its ops."""
    t = defaultdict(float)
    dur, calls, raised, selft = Counter(), Counter(), Counter(), Counter()
    via_dur, via_calls, extra = Counter(), Counter(), Counter()
    for op in cycle_ops:
        p = op["profile"]
        dur.update(p["dur"])
        calls.update(p["calls"])
        raised.update(p["raised"])
        selft.update(p["self"])
        via_dur.update(p["via_dur"])
        via_calls.update(p["via_calls"])
        extra.update(p["extra"])
        t["output_bytes"] += op["output_bytes"]
        t["overhead"] += op["traced_wall"] - op["wall"]
        t["unaccounted"] += op["traced_wall"] - p["top"]
    loglik_calls = calls["fit_ml.bdw_loglik"]
    sweeps = calls["fit_bayes.sample_lambdas_conditional"]
    shape_steps = calls["fit_bayes.sample_alpha_conditional"]
    s, c, us, n = "s", "count", "us", "ratio"
    return {
        "cli.load_csv_s": (dur["cli.load_csv"], s),
        "cli.self_s": (selft["cli.main"], s),
        "cli.output_bytes": (t["output_bytes"], "bytes"),
        "fit_ml.bdw_loglik_s": (dur["fit_ml.bdw_loglik"], s),
        "fit_ml.bdw_loglik_calls": (loglik_calls, c),
        "fit_ml.bdw_loglik_us": (1e6 * _ratio(dur["fit_ml.bdw_loglik"], loglik_calls), us),
        "fit_ml.bdw_loglik_raised": (raised["fit_ml.bdw_loglik"], c),
        "fit_ml.bdw_loglik_ok_ratio": (
            _ratio(loglik_calls - raised["fit_ml.bdw_loglik"], loglik_calls), n),
        "fit_ml.init_estimates_s": (dur["fit_ml.init_estimates"], s),
        "fit_ml.impute_dataset_s": (via_dur[("fit_ml.impute_dataset", "fit_ml")], s),
        "fit_ml.inner_em_mobw_s": (dur["fit_ml.inner_em_mobw"], s),
        "fit_ml.nested_em_s": (dur["fit_ml.nested_em"], s),
        "fit_ml.nested_em_self_s": (selft["fit_ml.nested_em"], s),
        "fit_ml.observed_info_ci_s": (dur["fit_ml.observed_info_ci"], s),
        "fit_ml.outer_rounds": (via_calls[("fit_ml.impute_dataset", "fit_ml")], c),
        "fit_ml.inner_em_iters": (extra["inner_em_iters"], c),
        "fit_ml.dataset_rows": (extra["rows"], c),
        "fit_ml.dataset_cells": (extra["cells"], c),
        "mobw.ml_predict_calls": (calls["mobw.ml_predict"], c),
        "mobw.ml_predict_s": (dur["mobw.ml_predict"], s),
        "mobw.complete_loglik_calls": (calls["mobw.complete_loglik"], c),
        "mobw.complete_loglik_s": (dur["mobw.complete_loglik"], s),
        "univariate.dw_fit_minchisq_calls": (calls["univariate.dw_fit_minchisq"], c),
        "univariate.dw_fit_minchisq_s": (dur["univariate.dw_fit_minchisq"], s),
        "univariate.dw_fit_ml_s": (dur["univariate.dw_fit_ml"], s),
        "bivariate.sample_s": (dur["bivariate.sample"], s),
        "bivariate.joint_pmf_calls": (calls["bivariate.joint_pmf"], c),
        "bivariate.joint_pmf_s": (dur["bivariate.joint_pmf"], s),
        "bivariate.joint_sf_calls": (calls["bivariate.joint_sf"], c),
        "bivariate.joint_cdf_calls": (calls["bivariate.joint_cdf"], c),
        "bivariate.joint_pmf_grid_s": (dur["bivariate.joint_pmf_grid"], s),
        "bivariate.moments_s": (dur["bivariate.moments"], s),
        "fit_bayes.augmented_gibbs_s": (dur["fit_bayes.augmented_gibbs"], s),
        "fit_bayes.sweeps": (sweeps, c),
        "fit_bayes.rate_step_us": (
            1e6 * _ratio(dur["fit_bayes.sample_lambdas_conditional"], sweeps), us),
        "fit_bayes.shape_step_us": (
            1e6 * _ratio(dur["fit_bayes.sample_alpha_conditional"], shape_steps), us),
        "fit_bayes.impute_s": (via_dur[("fit_ml.impute_dataset", "fit_bayes")], s),
        "fit_bayes.intervals_s": (
            dur["fit_bayes.credible_interval"] + dur["fit_bayes.hpd_interval"], s),
        "gof.chisq_bdw_s": (dur["gof.chisq_bdw"], s),
        "gof.chisq_dw_s": (dur["gof.chisq_dw"], s),
        "trace.overhead_s": (t["overhead"], s),
        "trace.unaccounted_s": (t["unaccounted"], s),
    }


# ---------------------------------------------------------------- the run


def percentile_note(values: list[float]) -> str:
    """Median, and the highest of p50/p90/p99 with at least 10 samples beyond it."""
    n = len(values)
    note = f"n={n} median={statistics.median(values):.6g}"
    best = None
    for q in (50, 90, 99):
        if n * (100 - q) / 100 >= 10:
            best = q
    if best is not None:
        note += f" p{best}={float(np.percentile(values, best)):.6g}"
    return note


def expand(argv: list[str], data: str | None, seed: int) -> list[str]:
    return [a.replace("{data}", data or "").replace("{seed}", str(seed)) for a in argv]


def prepare_inputs(spec: dict, seed: int, work: Path) -> tuple[dict, list[dict]]:
    """Write the workload's datasets; return their paths by stream and descriptions."""
    if spec["law"] is None:
        from bdw.datasets import BUILTIN

        info = [{"label": name, **datagen.describe(BUILTIN[name])} for name in sorted(BUILTIN)]
        return {"panel": [], "fresh": []}, info
    paths, info = {"panel": [], "fresh": []}, []
    for stream, entropy in (("panel", PANEL_ENTROPY), ("fresh", seed)):
        for i in range(spec[stream]):
            pairs = datagen.draw_pairs(spec["law"], spec["rows"], [entropy, i])
            path = work / f"{stream}{i:02d}.csv"
            datagen.write_csv(str(path), pairs)
            paths[stream].append(str(path))
            info.append({"label": path.stem, **datagen.describe(pairs)})
    return paths, info


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[name]
    work = BENCH / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(name, spec, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(name, spec, seed, seconds, trace, work) -> dict:
    runner = Runner(work)
    checker = Checker()
    setup_times, import_times = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        t0 = time.perf_counter()
        paths, data_info = prepare_inputs(spec, seed, work)
        prepare = time.perf_counter() - t0
        import_s, probe_wall = runner.import_probe()
        cal = (before + calibrate()) / 2
        import_times.append(import_s)
        setup_times.append((prepare + probe_wall) * REFERENCE_CAL_S / cal)

    ops = []
    cycles: list[list[dict]] = []
    plan = [(argv_t, None) for argv_t in spec["ops"]]
    plan += [(argv_t, data) for data in paths["panel"] for argv_t in FIT_OPS]
    for _ in range(max(1, round(seconds / spec["cycle_s"]))):
        cycles.append([])
        for argv_t, data in plan:
            cycles[-1].append(run_op(runner, checker, work, argv_t, data, seed, trace, len(ops)))
            ops.append(cycles[-1][-1])
    for data in paths["fresh"]:
        for argv_t in FIT_OPS:
            ops.append(run_op(runner, checker, work, argv_t, data, seed, trace, len(ops)))
            ops[-1]["untimed"] = True
    if trace:
        # a second traced run of the first cycle's fixed ops and first
        # fits: the call counts must repeat exactly
        for op in cycles[0][: len(spec["ops"]) + len(FIT_OPS)]:
            again = run_op(runner, checker, work, op["template"], op["data"], seed, True, len(ops))
            again["untimed"] = True
            ops.append(again)
            if again["profile"] and op["profile"] and again["profile"]["counts"] != op["profile"]["counts"]:
                diff = (again["profile"]["counts"] - op["profile"]["counts"]) + (
                    op["profile"]["counts"] - again["profile"]["counts"])
                again["error"] = again["error"] or f"call counts differ between traced runs: {dict(diff)}"
    failed = [op for op in ops if op["error"]]
    wrong = [op for op in failed if op["exit"] == 0]

    # a kind's figure is the median over cycles of its mean op time in a
    # cycle, so kinds run on two inputs (fit-ml on bundled) stay unimodal
    per_cycle, walls = defaultdict(list), defaultdict(list)
    for c in cycles:
        kinds = defaultdict(list)
        for op in c:
            kinds[KINDS[op["argv"][0]]].append(op["time"])
            walls[KINDS[op["argv"][0]]].append(op["wall"])
        for m, v in kinds.items():
            per_cycle[m].append(statistics.fmean(v))
    e2e = {
        m: (statistics.median(v), "s",
            f"{percentile_note(v)} wall_median={statistics.median(walls[m]):.6g}")
        for m, v in sorted(per_cycle.items())
    }
    cyc = [sum(op["time"] for op in c) for c in cycles]
    e2e["cycle_s"] = (statistics.median(cyc), "s", percentile_note(cyc))
    e2e["setup_s"] = (statistics.median(setup_times), "s", percentile_note(setup_times))
    e2e["peak_rss_mb"] = (runner.peak_rss_kb / 1024.0, "MB", "largest child max-RSS")

    layers = {}
    absent = []
    if trace:
        per_cycle = [layer_metrics(c) for c in cycles if all(op["profile"] for op in c)]
        for key in per_cycle[0] if per_cycle else []:
            vals = [pc[key][0] for pc in per_cycle]
            layers[key] = (statistics.median(vals), per_cycle[0][key][1])
        layers["cli.import_s"] = (statistics.median(import_times), "s")
        ess = [e for c in cycles for op in c if op["profile"] for e in op["profile"]["ess"]]
        layers["fit_bayes.min_ess"] = (statistics.median([e for e, _ in ess]) if ess else 0.0, "count")
        layers["fit_bayes.s_per_ess"] = (
            statistics.median([d / e for e, d in ess if e > 0]) if any(e > 0 for e, _ in ess) else 0.0,
            "s",
        )
        absent = sorted({a for op in ops if op["profile"] for a in op["profile"]["absent"]})

    return {
        "workload": name,
        "env": environment(seed),
        "law": spec["law"],
        "data": data_info,
        "cycles": len(cycles),
        "ops": ops,
        "failed": failed,
        "wrong": wrong,
        "reference_checks": checker.reference_checks,
        "e2e": e2e,
        "layers": layers,
        "absent": absent,
    }


def run_op(runner, checker, work, argv_t, data, seed, trace, op_id) -> dict:
    argv = expand(argv_t, data, seed)
    out = work / f"out-{op_id}"
    cmd = [sys.executable, "-m", "bdw.cli", *argv, "--output", str(out)]
    code, wall, ref_time, tail = runner.spawn(cmd)
    ref_key = argv[argv.index("--dataset") + 1] if "--dataset" in argv else None
    if data and ref_key is None:
        ref_key = hashlib.sha256(Path(data).read_bytes()).hexdigest()
    key = tuple(argv) + (ref_key,)
    error = f"exit {code}: {tail.strip()}" if code != 0 else checker.check(key, argv, ref_key, out)
    op = {
        "id": op_id, "argv": argv, "template": argv_t, "data": data, "exit": code,
        "wall": wall, "time": ref_time, "error": error, "profile": None, "traced_wall": None,
        "output_bytes": out.stat().st_size if out.exists() else 0,
    }
    if trace:
        spans = work / f"spans-{op_id}.json"
        out.unlink(missing_ok=True)
        tcmd = [sys.executable, str(BENCH / "traced.py"), str(spans), str(op_id), "--",
                *argv, "--output", str(out)]
        tcode, twall, _, ttail = runner.spawn(tcmd)
        op["traced_wall"] = twall
        if tcode != code:
            op["error"] = op["error"] or f"traced run exit {tcode}, plain run exit {code}: {ttail.strip()}"
        elif code == 0:
            op["error"] = op["error"] or checker.check(key, argv, ref_key, out)
        if spans.exists():
            op["profile"] = op_profile(json.loads(spans.read_text()))
            spans.unlink()
    out.unlink(missing_ok=True)
    return op


# ---------------------------------------------------------------- output


def print_report(res: dict, trace: bool) -> dict:
    name = res["workload"]
    print(f"== workload {name}")
    for k, v in res["env"].items():
        print(f"env.{k} = {v}")
    if res["law"]:
        print("law = " + " ".join(f"{k}={v}" for k, v in res["law"].items()))
    for d in res["data"]:
        shape = " ".join(f"{k}={v}" for k, v in d.items() if k != "label")
        print(f"data.{d['label']} = {shape}")
    attempted = len(res["ops"])
    failed = len(res["failed"])
    print(f"ops attempted={attempted} failed={failed} cycles={res['cycles']} "
          f"reference_checks={res['reference_checks']}")
    print(f"metric error_rate = {failed / attempted:.6g} share (failed / attempted ops)")
    shown = Counter()
    for op in res["failed"]:
        shown[op["argv"][0]] += 1
        if shown[op["argv"][0]] <= 2:
            print(f"failure op={op['id']} cmd={' '.join(op['argv'])} exit={op['exit']} "
                  f"error={op['error'][-STDERR_TAIL:]!r}")
    for kind, count in shown.items():
        if count > 2:
            print(f"failure ... {count - 2} more {kind} ops failed the same way")
    metrics = {}
    if trace:
        for k, (v, unit) in sorted(res["layers"].items()):
            print(f"layer {k} = {v:.6g} {unit}")
            metrics[k] = {"value": v, "unit": unit}
        for a in res["absent"]:
            print(f"layer absent: {a} is not in the tree under test; its metrics read 0")
    else:
        for k, (v, unit, note) in res["e2e"].items():
            print(f"metric {k} = {v:.6g} {unit}  ({note})")
            metrics[k] = {"value": v, "unit": unit}
    return {
        "correct": not res["wrong"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    for need in (ROOT / "src" / "bdw" / "cli.py", ROOT / "docs" / "report.schema.json"):
        if not need.exists():
            print(f"error: {need.relative_to(ROOT)} is missing; run from a bdw checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One CPU for the benchmark and every child it starts, so that the
    # calibration around an op measures the CPU the op ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [print_report(run_workload(n, args.seed, args.seconds, bool(args.trace)),
                            bool(args.trace)) for n in names]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
