"""Bivariate discrete Weibull modelling toolkit.

Exact probabilities, sampling and moments for the shared-shock bivariate
discrete Weibull law, its continuous latent counterpart, maximum
likelihood and Bayesian fitting, and chi-square fit checks.  The ``bdw``
command-line tool wraps the fitting and simulation entry points.

Public names resolve on first use (PEP 562): ``import bdw`` loads no
submodule, and ``bdw.nested_em`` imports ``bdw.fit_ml`` when it is first
read, so a process loads only the layers it uses.
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
        "from_mobw",
        "joint_cdf",
        "joint_logpmf",
        "joint_pmf",
        "joint_pmf_grid",
        "joint_sf",
        "marginals",
        "min_distribution",
        "moments",
        "sample",
        "to_mobw",
    ),
    "cli": (),
    "datasets": ("builtin_dataset",),
    "fit_bayes": (
        "AlphaPrior",
        "DGPrior",
        "PosteriorDraws",
        "augmented_gibbs",
        "credible_interval",
        "hpd_interval",
    ),
    "fit_ml": (
        "BivariateDataset",
        "MLFitReport",
        "alpha_equals_one_test",
        "bdw_loglik",
        "init_estimates",
        "nested_em",
    ),
    "gof": ("ChiSquareReport", "chisq_bdw", "chisq_dw", "chisq_upper_tail"),
    "mobw": ("CompleteObservation", "LatentPrediction", "MOBWParams", "ml_predict"),
    "univariate": (
        "DWParams",
        "SingularDensityError",
        "WeibullParams",
        "dw_fit_minchisq",
        "dw_fit_ml",
        "dw_pmf",
        "dw_sample",
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
