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
attributes its failures to causes with :func:`cause_counts`, and measures
imputations with :func:`complete_loglik`.  The density of each of the
three branches is written once, in ``_branch_logpdf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import bivariate
from .univariate import WeibullParams, _logpmf_arr, we_mode, we_sample

__all__ = [
    "MOBWParams",
    "MobwDensity",
    "LatentPrediction",
    "CompleteObservation",
    "SampleSummary",
    "summarize",
    "cause_counts",
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
    and ``w1``, ``w2``, ``w0`` their multiplicities.  ``vals`` is the union
    of the three tables and ``weights`` its 3 x K multiplicities, rows in
    the order ``(T0, T1, T2)``, so a rate-weighted sum of the three
    exposures takes one power of ``vals``.  ``positions`` holds, in the
    same order, where each table's values sit in ``vals``; ``row_sums``
    holds the rows' totals and ``top`` the largest value (0 when there is
    none).  The last power table of ``vals`` is kept (:meth:`powers`), so
    the exposures and the shape's target at one shape share one power.
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
    positions: tuple[np.ndarray, np.ndarray, np.ndarray]
    row_sums: tuple[float, float, float]
    top: float
    event_count: int
    log_y_sum: float
    first_zero: int | None
    _power: tuple = field(default=(math.nan, None), init=False, repr=False)

    def powers(self, alpha: float) -> np.ndarray:
        """``vals**alpha``, computed only when ``alpha`` differs from the last
        shape asked for; the table is shared, so it is not to be written."""
        last, table = self._power
        if alpha != last:
            table = self.vals**alpha
            object.__setattr__(self, "_power", (alpha, table))
        return table

    def exposures(self, alpha: float) -> tuple[float, float, float]:
        """``(T0, T1, T2)``: sums of ``max(y1, y2)**alpha``, ``y1**alpha`` and
        ``y2**alpha``; zero lifetimes contribute nothing."""
        table = self.powers(alpha)
        pos0, pos1, pos2 = self.positions
        # ndarray.dot is np.dot, bit for bit, without the dispatch
        return (
            float(self.w0.dot(table[pos0])),
            float(self.w1.dot(table[pos1])),
            float(self.w2.dot(table[pos2])),
        )


def _value_table(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals, counts = np.unique(values[values > 0], return_counts=True)
    return vals, counts.astype(float)


def _fused_table(
    tables: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    # the union of the tables' values, one row of multiplicities per table,
    # and where each table's values sit in the union; asked for the
    # inverse, np.unique also skips its masked-array check, whose first
    # call imports numpy.ma (~15 ms of start-up)
    sizes = [v.size for v, _ in tables]
    vals, where = np.unique(
        np.concatenate([v for v, _ in tables]), return_inverse=True
    )
    weights = np.zeros((len(tables), vals.size))
    rows = np.repeat(np.arange(len(tables)), sizes)
    weights[rows, where] = np.concatenate([w for _, w in tables])
    return vals, weights, tuple(np.split(where, np.cumsum(sizes)[:-1]))


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
    vals, weights, positions = _fused_table((t0, t1, t2))
    return SampleSummary(
        n_below,
        n_above,
        n_tie,
        *t1,
        *t2,
        *t0,
        vals,
        weights,
        positions,
        tuple(weights.sum(axis=1).tolist()),
        float(vals[-1]) if vals.size else 0.0,
        event_count=2 * (n_below + n_above) + n_tie,
        log_y_sum=log_y if first_zero is None else -math.inf,
        first_zero=first_zero,
    )


def cause_counts(
    sample: Sequence[CompleteObservation] | SampleSummary,
    lambdas: tuple[float, float, float],
    rng: np.random.Generator | None = None,
) -> tuple[float, float, float]:
    """Failure counts ``(N0, N1, N2)`` attributed to each latent cause.

    A coordinate that failed strictly first is its own cause; the later
    coordinate of an off-diagonal pair is attributed to the shared or the
    individual shock.  With ``rng`` the ambiguous attributions are drawn
    (two binomials), otherwise their expectations are used.
    """
    l0, l1, l2 = lambdas
    st = summarize(sample)
    share1 = l1 / (l0 + l1)
    share2 = l2 / (l0 + l2)
    if rng is None:
        k1 = st.n_above * share1
        k2 = st.n_below * share2
    else:
        k1 = float(rng.binomial(st.n_above, share1))
        k2 = float(rng.binomial(st.n_below, share2))
    n1 = st.n_below + k1
    n2 = st.n_above + k2
    n0 = st.n_tie + (st.n_below - k2) + (st.n_above - k1)
    return n0, n1, n2


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


def _branch_rates(params: MOBWParams, kind: str) -> tuple[float, float]:
    # Weibull rates of (y1, y2) on an off-diagonal branch: the coordinate
    # that fails later also fails when the shared shock fires
    if kind == "below":
        return params.lambda1, params.lambda0 + params.lambda2
    return params.lambda0 + params.lambda1, params.lambda2


def _branch_logpdf(params: MOBWParams, y1: float, y2: float, kind: str) -> float:
    # log-density of a latent pair on one branch of the law: two Weibull
    # factors off the diagonal, the singular factor on it; a tie is
    # impossible (-inf) when the shared rate's share of the total is zero
    a = params.alpha
    if kind == "tie":
        total = params.total
        share = params.lambda0 / total
        if share == 0.0:
            return -math.inf
        return math.log(share) + _log_we_pdf(y1, a, total)
    r1, r2 = _branch_rates(params, kind)
    return _log_we_pdf(y1, a, r1) + _log_we_pdf(y2, a, r2)


def mobw_pdf(params: MOBWParams, y1: float, y2: float) -> MobwDensity:
    """Density at ``(y1, y2)``, flagged by component.

    Off the diagonal this is a genuine two-dimensional density; on the
    diagonal it is the singular part's density along the line, carrying
    total mass ``lambda0 / total``.  The value can be infinite on the
    axes when the shape is below one.
    """
    if y1 < 0 or y2 < 0:
        raise ValueError("arguments must be non-negative")
    kind = "below" if y1 < y2 else "above" if y1 > y2 else "tie"
    value = math.exp(_branch_logpdf(params, y1, y2, kind))
    return MobwDensity(value, "diagonal" if kind == "tie" else kind)


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


def _clamped_mode(alpha: float, lam: float, i: int) -> float:
    # maximizer of the Weibull density over the closed cell [i, i+1]
    if alpha <= 1:
        return float(i)
    return min(max(we_mode(alpha, lam), float(i)), float(i + 1))


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
    over the cell probability.  A below/above candidate exists when the
    shape exceeds one and its two modes are ordered the right way around.
    When the diagonal's weight is zero — the shared rate is zero, or its
    share of the total underflows — a branch without such a candidate
    competes at its clamped point instead (the cell corner for shapes at
    most one), provided that point lies on the branch, so a diagonal with
    no mass never wins.  Exact weight ties resolve in favour of the
    diagonal, then the below candidate.  Weights are compared as logs, so
    a cell whose mass underflows but whose log-mass is finite is predicted;
    only a cell of log-mass ``-inf`` is refused.
    """
    i, j = bivariate._check_cell(i, j)
    log_mass = bivariate.joint_logpmf(bivariate.from_mobw(params), i, j)
    return _predict_in_cell(params, i, j, log_mass)


def _weight(log_w: float) -> float:
    # a prediction's reported weight; one past the float range reads inf
    try:
        return math.exp(log_w)
    except OverflowError:
        return math.inf


def _predict_in_cell(
    params: MOBWParams, i: int, j: int, log_mass: float
) -> LatentPrediction:
    # ml_predict in the valid cell (i, j), whose log-mass is log_mass; the
    # weights are compared as logs, so a cell whose mass underflows while
    # its log-mass stays finite is still predicted
    if log_mass == -math.inf:
        raise ValueError(f"cell ({i}, {j}) has zero probability")
    a = params.alpha

    if i != j:
        kind = "below" if i < j else "above"
        r1, r2 = _branch_rates(params, kind)
        y1 = _clamped_mode(a, r1, i)
        y2 = _clamped_mode(a, r2, j)
        log_w = _branch_logpdf(params, y1, y2, kind) - log_mass
        return LatentPrediction(y1, y2, f"{kind}-diagonal", _weight(log_w))

    # Diagonal cell: the three-way contest.  The diagonal's numerator is
    # the singular component's density, shared-shock mass factor included
    # — without it a vanishing shared rate could still win the contest for
    # a component that carries no mass.  Its denominator is the mass of
    # the minimum, a DW law with the total rate, at i.
    w = _clamped_mode(a, params.total, i)
    log_pmin = _logpmf_arr(np.array([float(i)]), a, -params.total)[0]
    best_log_w = _branch_logpdf(params, w, w, "tie") - log_pmin
    massless = best_log_w == -math.inf
    best = LatentPrediction(w, w, "tie-diagonal", _weight(best_log_w))
    for kind in ("below", "above"):
        r1, r2 = _branch_rates(params, kind)
        # the rate of the coordinate that fails first, then the other's
        first, later = (r1, r2) if kind == "below" else (r2, r1)
        u1, u2 = _clamped_mode(a, r1, i), _clamped_mode(a, r2, i)
        ordered = a > 1 and we_mode(a, first) < we_mode(a, later)
        on_branch = (u1 <= u2) if kind == "below" else (u1 >= u2)
        if ordered or (massless and on_branch):
            log_w = _branch_logpdf(params, u1, u2, kind) - log_mass
            if log_w > best_log_w:
                best_log_w = log_w
                best = LatentPrediction(u1, u2, f"tie-{kind}", _weight(log_w))
    return best


def complete_loglik(params: MOBWParams, sample: list[CompleteObservation]) -> float:
    """Log-likelihood of fully observed latent pairs.

    Each observation contributes the log of its branch's density: two
    Weibull factors off the diagonal, the singular factor on it.  A
    non-finite contribution (a tie with zero shared rate, or a zero
    lifetime meeting a shape away from one) aborts with the offending
    index, because a silently infinite objective would derail any
    optimizer built on top.
    """
    out = 0.0
    for idx, obs in enumerate(sample):
        term = _branch_logpdf(params, obs.y1, obs.y2, obs.kind)
        if not math.isfinite(term):
            if obs.kind == "tie" and params.lambda0 == 0.0:
                raise ValueError(f"observation {idx} is a tie but the shared rate is zero")
            raise ValueError(
                f"observation {idx} ({obs.y1}, {obs.y2}, {obs.kind}) has "
                f"non-finite log-density {term}"
            )
        out += term
    return out
