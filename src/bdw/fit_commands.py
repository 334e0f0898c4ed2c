"""The handlers of the four data commands: ``fit-dw``, ``fit-ml``,
``fit-bayes`` and ``gof``.

:func:`bdw.cli.main` imports this module only for a command that reads
data, so the law commands compile none of it.  Each handler takes the
parsed options and the dataset that the command line read, runs its fit
and returns the report's ``config`` and ``results``, which the command
line writes.  A handler imports the layers it runs, as the command line
does: ``fit-dw`` and a column's ``gof`` load the DW fits alone, and no
joint law.  Nothing here imports :mod:`bdw.cli`, which runs as
``__main__`` under ``python -m bdw.cli`` and would be compiled twice.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import argparse

    from .bivariate import MOBWParams
    from .datasets import BivariateDataset
    from .univariate import ChiSquareReport

__all__: list[str] = []


def _fields(params: MOBWParams) -> dict:
    return {name: getattr(params, name) for name in params._fields}


def _dw_law(fit) -> dict:
    # the report's p < 1 refuses by name a rate that rounds its base to 1
    return {"alpha": fit.law.alpha, "p": fit.params.p}


def _chi_dict(rep: ChiSquareReport) -> dict:
    return {
        "statistic": rep.statistic,
        "df": rep.df,
        "p_value": rep.p_value,
        "cells": [[label, obs, exp] for label, obs, exp in rep.cells],
    }


def _cmd_fit_dw(args: argparse.Namespace, data: BivariateDataset) -> tuple[dict, dict]:
    from .univariate import chisq_dw, dw_fit_minchisq, dw_fit_ml

    column = data.column_ints(args.column)
    ml = dw_fit_ml(column)
    mc = dw_fit_minchisq(column)
    fit_check = chisq_dw(column, mc.law, absorb_tail=not args.no_absorb_tail)
    results = {
        "ml": {**_dw_law(ml), "loglik": ml.loglik},
        "min_chisq": {**_dw_law(mc), "chisq": mc.chisq},
        "gof": _chi_dict(fit_check),
    }
    return {"column": args.column, "absorb_tail": not args.no_absorb_tail}, results


def _cmd_fit_ml(args: argparse.Namespace, data: BivariateDataset) -> tuple[dict, dict]:
    from .fit_ml import alpha_equals_one_test, nested_em
    from .gof import chisq_bdw

    fit = nested_em(data)
    th = fit.params
    try:
        test = alpha_equals_one_test(fit, data)
        keys = ("reject", "ci_low", "ci_high", "verdict")
        shape_test = {name: getattr(test, name) for name in keys}
    except ValueError as exc:
        shape_test = {"error": str(exc)}
    estimates = _fields(th)
    # the survival bases, at most 1: a rate below ~1.1e-16 writes 1.0
    estimates.update(p0=math.exp(-th.lambda0), p1=math.exp(-th.lambda1), p2=math.exp(-th.lambda2))
    results = {
        "estimates": estimates,
        "ci95_halfwidth": fit.ci95,
        "loglik": fit.loglik,
        "shape_one_test": shape_test,
        "gof": _chi_dict(chisq_bdw(data, th)),
    }
    return {}, results


def _cmd_fit_bayes(args: argparse.Namespace, data: BivariateDataset) -> tuple[dict, dict]:
    from .fit_bayes import AlphaPrior, DGPrior, augmented_gibbs
    from .generator import _Generator

    prior = DGPrior(args.a, args.b, args.a0, args.a1, args.a2)
    alpha_prior = AlphaPrior(args.c, args.d)
    # the draws of numpy's default_rng(seed), drawn without numpy
    rng = _Generator(args.seed)
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
    config = {name: getattr(args, name) for name in (*DGPrior._fields, *AlphaPrior._fields)}
    config.update(M=args.draws, N=args.rounds, burn_in=args.burn_in)
    return config, results


def _cmd_gof(args: argparse.Namespace, data: BivariateDataset) -> tuple[dict, dict]:
    if args.column == "joint":
        from .fit_ml import nested_em
        from .gof import chisq_bdw

        fit = nested_em(data)
        rep = chisq_bdw(data, fit.params)
        fitted = _fields(fit.params)
        config = {"column": "joint", "estimator": "ml", "absorb_tail": True}
    else:
        from .univariate import chisq_dw, dw_fit_minchisq, dw_fit_ml

        estimator = args.estimator or "minchisq"
        column = data.column_ints(args.column)
        fit = dw_fit_ml(column) if estimator == "ml" else dw_fit_minchisq(column)
        rep = chisq_dw(column, fit.law, absorb_tail=not args.no_absorb_tail)
        fitted = _dw_law(fit)
        config = {
            "column": args.column,
            "estimator": estimator,
            "absorb_tail": not args.no_absorb_tail,
        }
    return config, {"fitted": fitted, "gof": _chi_dict(rep)}
