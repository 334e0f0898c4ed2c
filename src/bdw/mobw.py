"""Continuous Marshall–Olkin bivariate Weibull (MOBW) lifetimes.

This is the latent model behind the bivariate discrete Weibull pair: with
independent Weibull lifetimes ``U_i`` of common shape and rates
``lambda_i``, the pair ``Y1 = min(U1, U0)``, ``Y2 = min(U2, U0)`` has joint
survival

    S(y1, y2) = exp(-lambda1*y1**a - lambda2*y2**a - lambda0*max(y1,y2)**a)

whose law splits into two absolutely continuous pieces off the diagonal and
a singular piece on it.  Taking floors of ``(Y1, Y2)`` yields exactly the
discrete pair, which is what makes this module the engine room for
estimation: the fitting code imputes latent lifetimes cell by cell with
:func:`ml_predict`, reduces each imputed sample once with :func:`summarize`,
and measures imputations with :func:`complete_loglik`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import bivariate
from .univariate import WeibullParams, we_mode, we_sample

__all__ = [
    "MOBWParams",
    "MobwDensity",
    "LatentPrediction",
    "CompleteObservation",
    "SampleSummary",
    "summarize",
    "mobw_sf",
    "mobw_pdf",
    "mobw_sample",
    "cell_probability",
    "ml_predict",
    "complete_loglik",
]


@dataclass(frozen=True)
class MOBWParams:
    """Shape and the three component rates of the MOBW law.

    ``lambda0`` is the rate of the shared shock and may be zero, in which
    case the coordinates are independent and the diagonal carries no mass;
    the coordinate-specific rates must be strictly positive.
    """

    alpha: float
    lambda0: float
    lambda1: float
    lambda2: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"shape must be positive and finite, got {self.alpha}")
        if not (self.lambda0 >= 0 and math.isfinite(self.lambda0)):
            raise ValueError(f"lambda0 must be non-negative and finite, got {self.lambda0}")
        for name in ("lambda1", "lambda2"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")

    @property
    def total(self) -> float:
        return self.lambda0 + self.lambda1 + self.lambda2


class MobwDensity(NamedTuple):
    """Density value together with the component it came from.

    ``component`` is ``"below"`` or ``"above"`` for the two absolutely
    continuous pieces and ``"diagonal"`` for the singular piece, whose
    value is a one-dimensional density along the line ``y1 = y2``.
    """

    value: float
    component: str


class LatentPrediction(NamedTuple):
    """Most likely latent lifetimes compatible with one observed cell.

    ``case_tag`` records which maximization produced the point:
    ``"below-diagonal"`` / ``"above-diagonal"`` for off-diagonal cells, and
    ``"tie-diagonal"`` / ``"tie-below"`` / ``"tie-above"`` for the three
    candidates competing inside a diagonal cell.  ``density_value`` is the
    conditional density at the prediction (for diagonal-cell winners, the
    weight under which the candidate won); it is infinite only when a
    decreasing-density shape puts the prediction at a zero coordinate.
    """

    y1hat: float
    y2hat: float
    case_tag: str
    density_value: float

    @property
    def kind(self) -> str:
        """Branch of the law the predicted pair belongs to."""
        if self.case_tag in ("below-diagonal", "tie-below"):
            return "below"
        if self.case_tag in ("above-diagonal", "tie-above"):
            return "above"
        return "tie"


@dataclass(frozen=True)
class CompleteObservation:
    """One fully observed latent pair with its branch label.

    ``kind`` is authoritative: a boundary prediction can collapse both
    coordinates of an off-diagonal candidate onto the same value, so equal
    lifetimes do not by themselves mean the shared shock fired.  ``below``
    requires ``y1 <= y2`` and ``above`` the reverse (both weak, for exactly
    that reason); ``tie`` requires equality.
    """

    y1: float
    y2: float
    kind: str

    def __post_init__(self) -> None:
        if self.y1 < 0 or self.y2 < 0:
            raise ValueError("lifetimes must be non-negative")
        if self.kind == "below":
            ok = self.y1 <= self.y2
        elif self.kind == "above":
            ok = self.y1 >= self.y2
        elif self.kind == "tie":
            ok = self.y1 == self.y2
        else:
            raise ValueError(f"kind must be below, above or tie, got {self.kind!r}")
        if not ok:
            raise ValueError(f"pair ({self.y1}, {self.y2}) inconsistent with kind {self.kind!r}")


@dataclass(frozen=True, eq=False)
class SampleSummary:
    """What the latent-sample updates read from a sequence of complete pairs.

    Events are the recorded lifetimes: two per off-diagonal pair, one per
    tie.  ``log_y_sum`` sums their logarithms and is ``-inf`` when one of
    them is zero; ``first_zero`` is then the index of the first
    observation holding a zero event.  ``vals1``, ``vals2`` and ``vals0``
    are the distinct positive values of ``y1``, ``y2`` and ``max(y1, y2)``,
    and ``w1``, ``w2``, ``w0`` their multiplicities, from which
    :meth:`exposures` sums powers.  ``vals`` is the union of the three
    tables and ``weights`` its 3 x K multiplicities, rows in the order
    ``(T0, T1, T2)``, so a rate-weighted sum of the three exposures takes
    one power of ``vals``.
    """

    n_below: int
    n_above: int
    n_tie: int
    vals1: np.ndarray
    w1: np.ndarray
    vals2: np.ndarray
    w2: np.ndarray
    vals0: np.ndarray
    w0: np.ndarray
    vals: np.ndarray
    weights: np.ndarray
    event_count: int
    log_y_sum: float
    first_zero: int | None

    def exposures(self, alpha: float) -> tuple[float, float, float]:
        """``(T0, T1, T2)``: sums of ``max(y1, y2)**alpha``, ``y1**alpha`` and
        ``y2**alpha``; zero lifetimes contribute nothing."""
        t1 = float(np.dot(self.w1, self.vals1**alpha))
        t2 = float(np.dot(self.w2, self.vals2**alpha))
        t0 = float(np.dot(self.w0, self.vals0**alpha))
        return t0, t1, t2


def _value_table(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals, counts = np.unique(values[values > 0], return_counts=True)
    return vals, counts.astype(float)


def _fused_table(
    tables: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    # the union of the tables' values, and one row of multiplicities per
    # table; asked for the inverse, np.unique also skips its masked-array
    # check, whose first call imports numpy.ma (~15 ms of start-up)
    vals, where = np.unique(
        np.concatenate([v for v, _ in tables]), return_inverse=True
    )
    weights = np.zeros((len(tables), vals.size))
    rows = np.repeat(np.arange(len(tables)), [v.size for v, _ in tables])
    weights[rows, where] = np.concatenate([w for _, w in tables])
    return vals, weights


def summarize(
    sample: Sequence[CompleteObservation] | SampleSummary,
) -> SampleSummary:
    """The :class:`SampleSummary` of a complete sample; a summary is
    returned as it is, so callers may pass either."""
    if isinstance(sample, SampleSummary):
        return sample
    counts = {"below": 0, "above": 0, "tie": 0}
    rows = []
    log_y = 0.0
    first_zero = None
    for idx, obs in enumerate(sample):
        counts[obs.kind] += 1
        rows.append((obs.y1, obs.y2))
        events = (obs.y1,) if obs.kind == "tie" else (obs.y1, obs.y2)
        if min(events) > 0.0:
            log_y += sum(math.log(v) for v in events)
        elif first_zero is None:
            first_zero = idx
    y = np.array(rows, dtype=float).reshape(-1, 2)
    n_below, n_above, n_tie = counts["below"], counts["above"], counts["tie"]
    t1 = _value_table(y[:, 0])
    t2 = _value_table(y[:, 1])
    t0 = _value_table(y.max(axis=1))
    return SampleSummary(
        n_below,
        n_above,
        n_tie,
        *t1,
        *t2,
        *t0,
        *_fused_table((t0, t1, t2)),
        event_count=2 * (n_below + n_above) + n_tie,
        log_y_sum=log_y if first_zero is None else -math.inf,
        first_zero=first_zero,
    )


def mobw_sf(params: MOBWParams, y1: float, y2: float) -> float:
    """Joint survival ``P(Y1 > y1, Y2 > y2)``."""
    if y1 < 0 or y2 < 0:
        raise ValueError("arguments must be non-negative")
    a = params.alpha
    return math.exp(
        -params.lambda1 * y1**a
        - params.lambda2 * y2**a
        - params.lambda0 * max(y1, y2) ** a
    )


def _log_we_pdf(y: float, alpha: float, lam: float) -> float:
    # log of alpha*lam*y**(alpha-1)*exp(-lam*y**alpha), with the boundary
    # y = 0 resolved by shape: -inf above one, log(lam) at one, +inf below
    if y < 0:
        return -math.inf
    if y == 0.0:
        if alpha > 1:
            return -math.inf
        if alpha == 1:
            return math.log(lam)
        return math.inf
    return math.log(alpha * lam) + (alpha - 1.0) * math.log(y) - lam * y**alpha


def mobw_pdf(params: MOBWParams, y1: float, y2: float) -> MobwDensity:
    """Density at ``(y1, y2)``, flagged by component.

    Off the diagonal this is a genuine two-dimensional density; on the
    diagonal it is the singular part's density along the line, carrying
    total mass ``lambda0 / total``.  The value can be infinite on the
    axes when the shape is below one.
    """
    if y1 < 0 or y2 < 0:
        raise ValueError("arguments must be non-negative")
    a = params.alpha
    if y1 < y2:
        lv = _log_we_pdf(y1, a, params.lambda1) + _log_we_pdf(
            y2, a, params.lambda0 + params.lambda2
        )
        return MobwDensity(math.exp(lv) if lv != math.inf else math.inf, "below")
    if y1 > y2:
        lv = _log_we_pdf(y1, a, params.lambda0 + params.lambda1) + _log_we_pdf(
            y2, a, params.lambda2
        )
        return MobwDensity(math.exp(lv) if lv != math.inf else math.inf, "above")
    if params.lambda0 == 0.0:
        return MobwDensity(0.0, "diagonal")
    lv = math.log(params.lambda0 / params.total) + _log_we_pdf(y1, a, params.total)
    return MobwDensity(math.exp(lv) if lv != math.inf else math.inf, "diagonal")


def mobw_sample(params: MOBWParams, rng: np.random.Generator, size=None):
    """Draw pairs through the shared-shock construction.

    With ``size`` given, returns an array of shape (size, 2); otherwise a
    single tuple.  Floors of the output follow the discrete pair law with
    survival bases ``exp(-lambda_i)``.
    """
    n = 1 if size is None else int(size)
    u1 = we_sample(WeibullParams(params.alpha, params.lambda1), rng, size=n)
    u2 = we_sample(WeibullParams(params.alpha, params.lambda2), rng, size=n)
    if params.lambda0 > 0:
        u0 = we_sample(WeibullParams(params.alpha, params.lambda0), rng, size=n)
        y1 = np.minimum(u1, u0)
        y2 = np.minimum(u2, u0)
    else:
        y1, y2 = u1, u2
    if size is None:
        return float(y1[0]), float(y2[0])
    return np.column_stack([y1, y2])


def cell_probability(params: MOBWParams, i: int, j: int) -> float:
    """Probability that the floors land in the cell ``(i, j)``.

    This is the rectangle difference of :func:`mobw_sf` at the cell
    corners, evaluated through the discrete pair's log-space mass function
    so deep-tail cells do not cancel to zero prematurely.
    """
    return bivariate.joint_pmf(bivariate.from_mobw(params), i, j)


def _min_interval_probability(params: MOBWParams, i: int) -> float:
    # P(i <= min(Y1, Y2) < i+1); the minimum is Weibull with the total rate
    a, lam = params.alpha, params.total
    t = -lam * float(i) ** a
    return math.exp(t) * -math.expm1(-lam * (float(i + 1) ** a - float(i) ** a))


def _clamped_mode(alpha: float, lam: float, i: int) -> float:
    # maximizer of the Weibull density over the closed cell [i, i+1]
    if alpha <= 1:
        return float(i)
    return min(max(we_mode(alpha, lam), float(i)), float(i + 1))


def _pair_density(y1: float, a: float, r1: float, y2: float, r2: float) -> float:
    lv = _log_we_pdf(y1, a, r1) + _log_we_pdf(y2, a, r2)
    return math.exp(lv) if lv != math.inf else math.inf


def ml_predict(params: MOBWParams, i: int, j: int) -> LatentPrediction:
    """Maximum-likelihood prediction of the latent pair given its cell.

    For an off-diagonal cell the conditional density separates, so each
    coordinate is the Weibull mode clamped to its own unit cell (the left
    endpoint when the shape is at most one, where the density is
    decreasing).  A clamp can land on the cell's right edge; the supremum
    over the half-open cell is attained there in the closure and we return
    the closed-edge point.

    A diagonal cell overlaps all three components, and three candidates
    compete: the best diagonal point, weighted by the singular density over
    the probability that the minimum falls in the cell, and the best
    strictly-below / strictly-above points, weighted by their densities
    over the cell probability.  A below/above candidate exists only when
    the shape exceeds one and its two modes are ordered the right way
    around; otherwise its weight is zero (for shapes at most one every
    candidate collapses to the cell corner and the diagonal is reported).
    Exact weight ties resolve in favour of the diagonal, then the below
    candidate.  When the shared rate is zero the diagonal carries no mass
    and its weight is zero outright.
    """
    for v in (i, j):
        if v < 0 or v != int(v):
            raise ValueError(f"cell indices must be non-negative integers, got ({i}, {j})")
    i, j = int(i), int(j)
    a = params.alpha
    l0, l1, l2 = params.lambda0, params.lambda1, params.lambda2

    if i != j:
        if i < j:
            r1, r2 = l1, l0 + l2
            tag = "below-diagonal"
        else:
            r1, r2 = l0 + l1, l2
            tag = "above-diagonal"
        y1 = _clamped_mode(a, r1, i)
        y2 = _clamped_mode(a, r2, j)
        pcell = cell_probability(params, i, j)
        if pcell <= 0.0:
            raise ValueError(f"cell ({i}, {j}) has zero probability")
        return LatentPrediction(y1, y2, tag, _pair_density(y1, a, r1, y2, r2) / pcell)

    # Diagonal cell: the three-way contest.
    if a <= 1:
        w = float(i)
        dens = math.inf
        if params.total > 0 and not (a < 1 and i == 0):
            if l0 > 0:
                lv = math.log(l0 / params.total) + _log_we_pdf(w, a, params.total)
                dens = math.exp(lv) / _min_interval_probability(params, i)
            else:
                dens = 0.0
        return LatentPrediction(w, w, "tie-diagonal", dens)

    w = _clamped_mode(a, params.total, i)
    if l0 > 0:
        # numerator is the singular component's density, shared-shock mass
        # factor included — without it a vanishing shared rate could still
        # win the contest for a component that carries no mass
        weight_diag = math.exp(
            math.log(l0 / params.total) + _log_we_pdf(w, a, params.total)
        ) / _min_interval_probability(params, i)
    else:
        weight_diag = 0.0

    pcell = cell_probability(params, i, i)
    if pcell <= 0.0:
        raise ValueError(f"cell ({i}, {i}) has zero probability")

    if we_mode(a, l1) < we_mode(a, l0 + l2):
        u1 = _clamped_mode(a, l1, i)
        u2 = _clamped_mode(a, l0 + l2, i)
        weight_below = _pair_density(u1, a, l1, u2, l0 + l2) / pcell
    else:
        u1 = u2 = float(i)
        weight_below = 0.0

    if we_mode(a, l2) < we_mode(a, l0 + l1):
        v2 = _clamped_mode(a, l2, i)
        v1 = _clamped_mode(a, l0 + l1, i)
        weight_above = _pair_density(v1, a, l0 + l1, v2, l2) / pcell
    else:
        v1 = v2 = float(i)
        weight_above = 0.0

    if weight_diag >= weight_below and weight_diag >= weight_above:
        return LatentPrediction(w, w, "tie-diagonal", weight_diag)
    if weight_below >= weight_above:
        return LatentPrediction(u1, u2, "tie-below", weight_below)
    return LatentPrediction(v1, v2, "tie-above", weight_above)


def complete_loglik(params: MOBWParams, sample: list[CompleteObservation]) -> float:
    """Log-likelihood of fully observed latent pairs.

    Each observation contributes the log of its branch's density: two
    Weibull factors off the diagonal, the singular factor on it.  A
    non-finite contribution (a tie with zero shared rate, or a zero
    lifetime meeting a shape away from one) aborts with the offending
    index, because a silently infinite objective would derail any
    optimizer built on top.
    """
    a = params.alpha
    l0, l1, l2 = params.lambda0, params.lambda1, params.lambda2
    total = params.total
    out = 0.0
    for idx, obs in enumerate(sample):
        if obs.kind == "below":
            term = _log_we_pdf(obs.y1, a, l1) + _log_we_pdf(obs.y2, a, l0 + l2)
        elif obs.kind == "above":
            term = _log_we_pdf(obs.y1, a, l0 + l1) + _log_we_pdf(obs.y2, a, l2)
        else:
            if l0 == 0.0:
                raise ValueError(
                    f"observation {idx} is a tie but the shared rate is zero"
                )
            term = math.log(l0 / total) + _log_we_pdf(obs.y1, a, total)
        if not math.isfinite(term):
            raise ValueError(
                f"observation {idx} ({obs.y1}, {obs.y2}, {obs.kind}) has "
                f"non-finite log-density {term}"
            )
        out += term
    return out
