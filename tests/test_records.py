"""The record contract shared by every parameter, data and report record."""

import pathlib

import numpy as np
import pytest

import bdw
from bdw.bivariate import BdwMoments, BDWParams, BivariateGeomParams, GridCheckReport
from bdw.fit_bayes import AlphaPrior, DGPrior, PosteriorDraws
from bdw.fit_ml import AlphaTestReport, BivariateDataset, MLFitReport
from bdw.gof import ChiSquareReport
from bdw.mobw import CompleteObservation, MOBWParams, SampleSummary, summarize
from bdw.univariate import DWParams, WeibullParams, _Jet

_SUMMARY = summarize([CompleteObservation(1.0, 2.0, "below"), CompleteObservation(3.0, 3.0, "tie")])

# one valid instance's fields per record, by keyword and in field order
RECORDS = [
    (WeibullParams, {"alpha": 1.5, "lam": 0.3}),
    (DWParams, {"alpha": 1.5, "p": 0.7}),
    (_Jet, {"v": np.zeros(2), "g": np.zeros((2, 3)), "h": np.zeros((2, 3, 3))}),
    (BDWParams, {"alpha": 1.5, "p0": 0.9, "p1": 0.7, "p2": 0.75}),
    (BivariateGeomParams, {"p0": 0.9, "p1": 0.7, "p2": 0.75}),
    (BdwMoments, {"mean1": 1.0, "mean2": 2.0, "var1": 3.0, "var2": 4.0,
                  "covariance": 0.5, "correlation": 0.1, "truncation_bound": 40}),
    (GridCheckReport, {"passed": True, "worst_ratio": 0.9, "max_ratio": 1.0,
                       "witness": (1, 2), "checked": 10}),
    (MOBWParams, {"alpha": 1.5, "lambda0": 0.1, "lambda1": 0.3, "lambda2": 0.2}),
    (CompleteObservation, {"y1": 1.0, "y2": 2.0, "kind": "below"}),
    (SampleSummary, dict(vars(_SUMMARY))),
    (BivariateDataset, {"pairs": ((1, 2), (0, 1), (2, 2))}),
    (AlphaTestReport, {"reject": False, "ci_low": 0.5, "ci_high": 1.5, "level": 0.95,
                       "verdict": "shape one not rejected"}),
    (MLFitReport, {"params": MOBWParams(1.5, 0.1, 0.3, 0.2), "loglik": -10.0, "ci95": None}),
    (DGPrior, {"a": 1.0, "b": 2.0, "a0": 0.5, "a1": 0.25, "a2": 0.25}),
    (AlphaPrior, {"c": 2.0, "d": 1.0}),
    (PosteriorDraws, {"draws": np.zeros((3, 4)), "M": 3, "N": 1, "means": {"alpha": 1.0},
                      "credible": {}, "hpd": {}}),
    (ChiSquareReport, {"statistic": 1.0, "df": 1, "p_value": 0.3, "cells": (("0", 1, 1.0),)}),
]
# equal and hashed by identity, as declared with eq=False
IDENTITY_EQ = {PosteriorDraws, SampleSummary}

_ids = [cls.__name__ for cls, _ in RECORDS]


def test_every_record_is_listed():
    src = pathlib.Path(bdw.__file__).parent
    declared = {
        line.split("(")[0].removeprefix("class ")
        for path in src.glob("*.py")
        for line in path.read_text().splitlines()
        if line.startswith("class ") and "(_Record" in line
    }
    assert declared == {cls.__name__ for cls, _ in RECORDS}


@pytest.mark.parametrize("cls, fields", RECORDS, ids=_ids)
class TestContract:
    def test_position_and_keyword_build_the_same_fields(self, cls, fields):
        for rec in (cls(**fields), cls(*fields.values())):
            assert list(vars(rec)) == list(fields)
            for name, value in fields.items():
                assert getattr(rec, name) is value or getattr(rec, name) == value

    def test_assignment_and_deletion_raise(self, cls, fields):
        rec = cls(**fields)
        name = next(iter(fields))
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
            rec.other = 0
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(rec, name)
        assert name in vars(rec)

    def test_equality_and_hash(self, cls, fields):
        a, b = cls(**fields), cls(*fields.values())
        if cls in IDENTITY_EQ:
            assert a != b and a == a
            assert hash(a) == object.__hash__(a)
            return
        assert a == b and not a != b
        assert a != object()
        if cls is _Jet:
            # equal by its arrays, which do not hash
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)
        else:
            assert hash(a) == hash(b) == hash(tuple(vars(a).values()))

    def test_repr_names_the_fields(self, cls, fields):
        body = ", ".join(f"{name}={value!r}" for name, value in vars(cls(**fields)).items())
        assert repr(cls(**fields)) == f"{cls.__name__}({body})"

    def test_argument_errors(self, cls, fields):
        with pytest.raises(TypeError, match=f"takes {len(fields)} arguments"):
            cls(*fields.values(), None)
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(**fields, bogus=1)
        first = next(iter(fields))
        with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
            cls(*fields.values(), **{first: fields[first]})


def test_defaults():
    assert DGPrior() == DGPrior(1e-4, 1e-4, 1e-4, 1e-4, 1e-4)
    assert DGPrior(a=2.0).b == 1e-4
    assert AlphaPrior(c=2.0) == AlphaPrior(2.0, 1e-4)
    with pytest.raises(TypeError, match="missing argument 'p'"):
        DWParams(1.5)


def test_pinned_reprs():
    assert repr(DGPrior()) == "DGPrior(a=0.0001, b=0.0001, a0=0.0001, a1=0.0001, a2=0.0001)"
    assert repr(AlphaPrior(c=2.0, d=1.0)) == "AlphaPrior(c=2.0, d=1.0)"
    assert repr(BDWParams(1.5, 0.9, 0.7, 0.75)) == "BDWParams(alpha=1.5, p0=0.9, p1=0.7, p2=0.75)"
    assert repr(BivariateDataset.from_pairs([[1, 2]])) == "BivariateDataset(pairs=((1, 2),))"
    # the summary's power table is state, not a field
    st = summarize([CompleteObservation(1.0, 2.0, "below")])
    st.powers(2.0)
    assert "_power" not in repr(st) and "_power" in vars(st)
    assert repr(st).startswith("SampleSummary(n_below=1, n_above=0, n_tie=0, vals=array([1., 2.]), ")


def test_equality_is_within_one_class():
    assert BDWParams(1.5, 0.9, 0.7, 0.75) != MOBWParams(1.5, 0.9, 0.7, 0.75)
    assert BDWParams(1.5, 0.9, 0.7, 0.75) != BDWParams(1.5, 0.9, 0.7, 0.7)
    assert {BDWParams(1.5, 0.9, 0.7, 0.75), BDWParams(1.5, 0.9, 0.7, 0.75)} == {
        BDWParams(1.5, 0.9, 0.7, 0.75)
    }


@pytest.mark.parametrize("build, message", [
    (lambda: WeibullParams(0.0, 1.0), "shape must be positive and finite, got 0.0"),
    (lambda: WeibullParams(1.0, float("inf")), "rate must be positive and finite, got inf"),
    (lambda: DWParams(1.5, 1.0), r"p must lie in \(0, 1\), got 1.0"),
    (lambda: BDWParams(1.5, 0.0, 0.7, 0.75), r"p0 must lie in \(0, 1\], got 0.0"),
    (lambda: BDWParams(1.5, 0.9, 1.0, 0.75), r"p1 must lie in \(0, 1\), got 1.0"),
    (lambda: MOBWParams(1.5, -1.0, 0.3, 0.2), "lambda0 must be non-negative and finite, got -1.0"),
    (lambda: MOBWParams(1.5, 0.1, 0.3, 0.0), "lambda2 must be positive and finite, got 0.0"),
    # rates each finite whose total is not: the law's total rate is refused
    (lambda: MOBWParams(2.0, 1e308, 1e308, 1e308),
     r"the total rate lambda0 \+ lambda1 \+ lambda2 must be finite, got inf"),
    (lambda: MOBWParams(2.0, 0.0, 1.7e308, 1.7e308),
     r"the total rate lambda0 \+ lambda1 \+ lambda2 must be finite, got inf"),
    (lambda: CompleteObservation(-1.0, 2.0, "below"), "lifetimes must be non-negative"),
    (lambda: CompleteObservation(1.0, 2.0, "tied"), "kind must be below, above or tie, got 'tied'"),
    (lambda: CompleteObservation(2.0, 1.0, "below"),
     r"pair \(2.0, 1.0\) inconsistent with kind 'below'"),
    (lambda: BivariateDataset(()), "dataset is empty"),
    (lambda: BivariateDataset(((1, 2), (0, -1))),
     r"row 1: entries must be non-negative integers, got \(0, -1\)"),
    (lambda: DGPrior(a1=0.0), "hyper-parameter a1 must be positive"),
    (lambda: AlphaPrior(c=-1.0), "shape c must be positive"),
    (lambda: AlphaPrior(d=float("nan")), "rate d must be positive"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_post_init_may_set_a_field():
    data = BivariateDataset(((1.0, 2.0), (np.int64(0), 1)))
    assert data.pairs == ((1, 2), (0, 1))
    assert all(type(v) is int for row in data.pairs for v in row)


def test_dataset_cached_properties_are_computed_once(monkeypatch):
    data = BivariateDataset(((1, 2), (0, 1), (2, 2), (1, 2)))
    calls = []
    real = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or real(*a, **k))
    for name in ("cells", "cell_arrays", "value_table"):
        assert getattr(data, name) is getattr(data, name)
        assert name in vars(data)
    assert (data.n_below, data.n_above, data.n_ties) == (3, 0, 1)
    with pytest.raises(ValueError, match="no row has x1 > x2"):
        data.require_both_orders()
    data.require_untied_rows()
    assert calls == [1]


def test_dataset_counts_and_refusals_read_the_value_table():
    # a table whose weights put every row on the diagonal: the counts and
    # both refusals follow it, not the rows
    data = BivariateDataset(((1, 2), (2, 1), (2, 2)))
    vals, i1, i2, weights = data.value_table
    assert (data.n_below, data.n_above, data.n_ties) == (1, 1, 1)
    data.require_both_orders()
    data.require_untied_rows()
    ties = np.zeros_like(weights)
    ties[4, -1] = data.n
    vars(data)["value_table"] = (vals, i1, i2, ties)
    assert (data.n_below, data.n_above, data.n_ties) == (0, 0, 3)
    with pytest.raises(ValueError, match="no row has x1 < x2"):
        data.require_both_orders()
    with pytest.raises(ValueError, match="sample is all ties"):
        data.require_untied_rows()
