"""Bivariate discrete Weibull modelling toolkit.

Exact probabilities, sampling and moments for the shared-shock bivariate
discrete Weibull law, its continuous latent counterpart, maximum
likelihood and Bayesian fitting, and chi-square fit checks.  The ``bdw``
command-line tool wraps the fitting and simulation entry points.

Public names resolve on first use (PEP 562): ``import bdw`` loads no
submodule, and ``bdw.nested_em`` imports ``bdw.fit_ml`` when it is first
read, so a process loads only the layers it uses.  Every computation
runs on ``math``, and the package has no runtime dependency: numpy is
imported only where a caller is handed an array (a sampler given a numpy
generator, ``joint_pmf_grid``, ``BivariateDataset.column`` and the
Gibbs fit's draws), and ``bdw[array]`` installs it.  The joint law rests
on the DW law of ``weibull`` alone; the DW fits and their chi-square
check (``univariate``) load only where a fit runs, and load no joint law.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# each submodule and the public names it defines
_EXPORTS = {
    "bivariate": (
        "BDWParams",
        "BdwMoments",
        "BivariateGeomParams",
        "MOBWParams",
        "from_mobw",
        "joint_cdf",
        "joint_logpmf",
        "joint_pmf",
        "joint_pmf_grid",
        "joint_sf",
        "moments",
        "to_mobw",
    ),
    "cli": (),
    "datasets": ("BivariateDataset", "builtin_dataset"),
    "fit_commands": (),
    "fit_bayes": (
        "AlphaPrior",
        "DGPrior",
        "PosteriorDraws",
        "augmented_gibbs",
        "credible_interval",
        "hpd_interval",
    ),
    "fit_ml": (
        "MLFitReport",
        "alpha_equals_one_test",
        "bdw_loglik",
        "init_estimates",
        "nested_em",
    ),
    "generator": (),
    "gof": ("chisq_bdw",),
    "mobw": ("CompleteObservation", "LatentPrediction", "ml_predict"),
    "properties": ("marginals", "min_distribution"),
    "sampling": ("dw_sample", "sample"),
    "univariate": (
        "ChiSquareReport", "chisq_dw", "chisq_upper_tail", "dw_fit_minchisq", "dw_fit_ml"
    ),
    "weibull": (
        "DWParams",
        "SingularDensityError",
        "WeibullParams",
        "dw_pmf",
        "dw_sf",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        # ``bdw.gof`` after a bare ``import bdw``; the import binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
