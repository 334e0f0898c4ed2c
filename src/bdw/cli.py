"""Command-line interface for fitting and simulating the bivariate model.

Every command emits a JSON report with stable key order (``pmf-table``
emits CSV); with the same inputs and seed the output is byte-identical,
so reports can be diffed and checksummed.  Verbosity is controlled by the
``BDW_LOG`` environment variable (standard logging level names).

Each command handler imports the layers it runs, so a process starts on
only those: ``pmf-table`` never loads the fitting modules.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import bivariate
from .bivariate import BDWParams
from .datasets import BUILTIN, builtin_dataset

if TYPE_CHECKING:
    from .fit_ml import BivariateDataset
    from .gof import ChiSquareReport

__all__ = ["load_csv", "main"]

log = logging.getLogger("bdw")

SCHEMA_VERSION = 1


def _int_field(token: str, lineno: int) -> int:
    text = token.strip()
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"line {lineno}: {text!r} is not an integer") from None
    if value < 0:
        raise ValueError(f"line {lineno}: negative value {value}")
    return value


def _looks_like_header(row: list[str]) -> bool:
    for token in row:
        try:
            int(token.strip())
        except ValueError:
            return True
    return False


def load_csv(path: str) -> BivariateDataset:
    """Read paired counts from a two-column CSV, optional single header."""
    import csv

    from .fit_ml import BivariateDataset

    pairs: list[tuple[int, int]] = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not tok.strip() for tok in row):
                continue
            if lineno == 1 and _looks_like_header(row):
                continue
            if len(row) != 2:
                raise ValueError(
                    f"line {lineno}: expected two columns, got {len(row)}"
                )
            pairs.append(
                (_int_field(row[0], lineno), _int_field(row[1], lineno))
            )
    if not pairs:
        raise ValueError(f"{path}: no data rows")
    return BivariateDataset(tuple(pairs))


def _dataset(args: argparse.Namespace) -> tuple[BivariateDataset, dict]:
    if args.dataset is not None:
        data = builtin_dataset(args.dataset)
        source = {"dataset": args.dataset, "n": len(data.pairs)}
    else:
        data = load_csv(args.input)
        source = {"path": args.input, "n": len(data.pairs)}
    log.info("loaded %d pairs", len(data.pairs))
    return data, source


def _bdw_params(args: argparse.Namespace) -> BDWParams:
    return BDWParams(args.alpha, args.p0, args.p1, args.p2)


def _chi_dict(rep: ChiSquareReport) -> dict:
    return {
        "statistic": rep.statistic,
        "df": rep.df,
        "p_value": rep.p_value,
        "cells": [[label, obs, exp] for label, obs, exp in rep.cells],
    }


def _report(
    command: str,
    source: dict,
    config: dict,
    results: dict,
    seed: int | None = None,
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": source,
        "seed": seed,
        "config": config,
        "results": results,
    }


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
        log.info("report written to %s", output)
    else:
        sys.stdout.write(text)


def _cmd_fit_dw(args: argparse.Namespace) -> None:
    from .gof import chisq_dw
    from .univariate import dw_fit_minchisq, dw_fit_ml

    data, source = _dataset(args)
    column = data.column(args.column)
    ml = dw_fit_ml(column)
    mc = dw_fit_minchisq(column)
    fit_check = chisq_dw(column, mc.params, absorb_tail=not args.no_absorb_tail)
    results = {
        "ml": {
            "alpha": ml.params.alpha,
            "p": ml.params.p,
            "loglik": ml.loglik,
        },
        "min_chisq": {
            "alpha": mc.params.alpha,
            "p": mc.params.p,
            "chisq": mc.chisq,
        },
        "gof": _chi_dict(fit_check),
    }
    config = {"column": args.column, "absorb_tail": not args.no_absorb_tail}
    _emit(_report("fit-dw", source, config, results), args.output)


def _cmd_fit_ml(args: argparse.Namespace) -> None:
    from .fit_ml import alpha_equals_one_test, nested_em
    from .gof import chisq_bdw

    data, source = _dataset(args)
    fit = nested_em(data)
    th = fit.params
    b = fit.bdw
    try:
        test = alpha_equals_one_test(fit, data)
        shape_test = {
            "reject": test.reject,
            "ci_low": test.ci_low,
            "ci_high": test.ci_high,
            "verdict": test.verdict,
        }
    except ValueError as exc:
        shape_test = {"error": str(exc)}
    results = {
        "estimates": {
            "alpha": th.alpha,
            "lambda0": th.lambda0,
            "lambda1": th.lambda1,
            "lambda2": th.lambda2,
            "p0": b.p0,
            "p1": b.p1,
            "p2": b.p2,
        },
        "ci95_halfwidth": fit.ci95,
        "loglik": fit.loglik,
        "shape_one_test": shape_test,
        "gof": _chi_dict(chisq_bdw(data, b)),
    }
    _emit(_report("fit-ml", source, {}, results), args.output)


def _cmd_fit_bayes(args: argparse.Namespace) -> None:
    from .fit_bayes import AlphaPrior, DGPrior, augmented_gibbs

    data, source = _dataset(args)
    prior = DGPrior(args.a, args.b, args.a0, args.a1, args.a2)
    alpha_prior = AlphaPrior(args.c, args.d)
    rng = np.random.default_rng(args.seed)
    post = augmented_gibbs(
        data,
        prior=prior,
        alpha_prior=alpha_prior,
        M=args.draws,
        N=args.rounds,
        rng=rng,
        burn_in=args.burn_in,
    )
    results = {
        "means": post.means,
        "credible95": {k: list(v) for k, v in post.credible.items()},
        "hpd95": {k: list(v) for k, v in post.hpd.items()},
        "M": post.M,
        "N": post.N,
    }
    config = {
        "a": args.a,
        "b": args.b,
        "a0": args.a0,
        "a1": args.a1,
        "a2": args.a2,
        "c": args.c,
        "d": args.d,
        "M": args.draws,
        "N": args.rounds,
        "burn_in": args.burn_in,
    }
    _emit(_report("fit-bayes", source, config, results, seed=args.seed), args.output)


def _cmd_gof(args: argparse.Namespace) -> None:
    from .fit_ml import nested_em
    from .gof import chisq_bdw, chisq_dw
    from .univariate import dw_fit_minchisq, dw_fit_ml

    data, source = _dataset(args)
    if args.column == "joint":
        fit = nested_em(data)
        rep = chisq_bdw(data, fit.bdw)
        fitted = {
            "alpha": fit.params.alpha,
            "lambda0": fit.params.lambda0,
            "lambda1": fit.params.lambda1,
            "lambda2": fit.params.lambda2,
        }
    else:
        column = data.column(args.column)
        if args.estimator == "ml":
            pars = dw_fit_ml(column).params
        else:
            pars = dw_fit_minchisq(column).params
        rep = chisq_dw(column, pars, absorb_tail=not args.no_absorb_tail)
        fitted = {"alpha": pars.alpha, "p": pars.p}
    results = {"fitted": fitted, "gof": _chi_dict(rep)}
    config = {
        "column": args.column,
        "estimator": args.estimator,
        "absorb_tail": not args.no_absorb_tail,
    }
    _emit(_report("gof", source, config, results), args.output)


def _cmd_simulate(args: argparse.Namespace) -> None:
    params = _bdw_params(args)
    if args.n < 1:
        raise ValueError("sample size must be at least 1")
    rng = np.random.default_rng(args.seed)
    draws = bivariate.sample(params, rng, size=args.n)
    results = {"pairs": [[int(a), int(b)] for a, b in draws]}
    config = {
        "alpha": args.alpha,
        "p0": args.p0,
        "p1": args.p1,
        "p2": args.p2,
        "n": args.n,
    }
    _emit(
        _report("simulate", {"generator": "bdw"}, config, results, seed=args.seed),
        args.output,
    )


def _cmd_pmf_table(args: argparse.Namespace) -> None:
    params = _bdw_params(args)
    if args.k is not None and args.k > bivariate._MAX_GRID_BOUND:
        raise bivariate._intractable_grid(args.k)
    k = args.k if args.k is not None else bivariate._table_bound(params)
    grid = bivariate.joint_pmf_grid(params, k, k)
    lines = ["x1,x2,pmf"]
    for i in range(k + 1):
        for j in range(k + 1):
            lines.append(f"{i},{j},{float(grid[i, j])!r}")
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        log.info("grid written to %s", args.output)
    else:
        sys.stdout.write(text)


def _cmd_moments(args: argparse.Namespace) -> None:
    params = _bdw_params(args)
    m = bivariate.moments(params)
    results = {
        "mean1": m.mean1,
        "mean2": m.mean2,
        "var1": m.var1,
        "var2": m.var2,
        "covariance": m.covariance,
        "correlation": m.correlation,
        "truncation_bound": m.truncation_bound,
    }
    config = {
        "alpha": args.alpha,
        "p0": args.p0,
        "p1": args.p1,
        "p2": args.p2,
    }
    _emit(_report("moments", {"generator": "bdw"}, config, results), args.output)


def _add_input_options(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--dataset", choices=sorted(BUILTIN), help="built-in dataset name"
    )
    group.add_argument("--input", help="CSV file with two integer columns")


def _add_param_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--p0", type=float, required=True)
    sub.add_argument("--p1", type=float, required=True)
    sub.add_argument("--p2", type=float, required=True)


def _seed_value(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdw",
        description="Bivariate discrete Weibull fitting and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-dw", help="fit one-dimensional discrete Weibull")
    _add_input_options(p)
    p.add_argument("--column", choices=("x1", "x2", "min"), required=True)
    p.add_argument("--no-absorb-tail", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_fit_dw)

    p = sub.add_parser("fit-ml", help="maximum-likelihood joint fit")
    _add_input_options(p)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_fit_ml)

    p = sub.add_parser("fit-bayes", help="Bayesian joint fit")
    _add_input_options(p)
    p.add_argument("--draws", "-M", type=int, default=10_000,
                   help="Gibbs draws per round")
    p.add_argument("--rounds", "-N", type=int, default=20,
                   help="outer imputation rounds")
    p.add_argument("--seed", type=_seed_value, default=0)
    p.add_argument("--burn-in", type=float, default=0.1)
    p.add_argument("--a", type=float, default=1e-4)
    p.add_argument("--b", type=float, default=1e-4)
    p.add_argument("--a0", type=float, default=1e-4)
    p.add_argument("--a1", type=float, default=1e-4)
    p.add_argument("--a2", type=float, default=1e-4)
    p.add_argument("--c", type=float, default=1e-4)
    p.add_argument("--d", type=float, default=1e-4)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_fit_bayes)

    p = sub.add_parser("gof", help="chi-square goodness of fit")
    _add_input_options(p)
    p.add_argument("--column", choices=("x1", "x2", "min", "joint"),
                   default="joint")
    p.add_argument("--estimator", choices=("minchisq", "ml"),
                   default="minchisq")
    p.add_argument("--no-absorb-tail", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_gof)

    p = sub.add_parser("simulate", help="draw joint samples")
    _add_param_options(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_seed_value, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("pmf-table", help="joint PMF grid as CSV")
    _add_param_options(p)
    p.add_argument("--k", type=int, default=None,
                   help=f"grid bound, at most {bivariate._MAX_GRID_BOUND}; "
                        "default leaves < 1e-6 mass outside")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_pmf_table)

    p = sub.add_parser("moments", help="means, variances and correlation")
    _add_param_options(p)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_moments)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(
            logging, os.environ.get("BDW_LOG", "WARNING").upper(), logging.WARNING
        ),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
