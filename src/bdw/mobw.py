"""Continuous Marshall–Olkin bivariate Weibull (MOBW) lifetimes.

This is the latent model behind the bivariate discrete Weibull pair: with
independent Weibull lifetimes ``U_i`` of common shape and rates
``lambda_i``, the pair ``Y1 = min(U1, U0)``, ``Y2 = min(U2, U0)`` has joint
survival

    S(y1, y2) = exp(-lambda1*y1**a - lambda2*y2**a - lambda0*max(y1,y2)**a)

whose law splits into two absolutely continuous pieces off the diagonal and
a singular piece on it.  Taking floors of ``(Y1, Y2)`` yields exactly the
discrete pair.  The law in rates, :class:`MOBWParams`, belongs to that
discrete law and is defined in :mod:`bdw.bivariate`; it is re-exported
here.  The shock construction, :func:`bdw.sampling.mobw_sample`, draws
the pair.  The one-dimensional continuous Weibull law's density,
distribution function and mode (:func:`we_pdf`, :func:`we_cdf`,
:func:`we_mode`) live here too.

This module holds the latent-sample path of the fits: it imputes the most
likely latent lifetimes of every row (:func:`impute_dataset`, one
:func:`ml_predict` per cell), reduces each imputed sample once with
:func:`summarize`, attributes its failures to causes with
:func:`cause_counts`, sums its exposures with :func:`exposures` (refusing
one past the float range), fits the continuous model to it by an inner EM
(:func:`inner_em_mobw`), and measures it with :func:`complete_loglik`.
The density of each of the three branches is written once, in
``_branch_logpdf``, and the complete-data log-likelihood once, in closed
form on the summary, which is all the inner EM reads; the Gibbs shape
step's target is it under the prior's kernel.  One call at the rates
binds the closed form, which reads and writes the summary's power pair in
place, as :func:`exposures` does: the summary itself is a plain record.
Its tables are tuples built with a dict and a sort, and the exposures are
``math`` sums of libm powers, one rounding each: the module loads no
numpy.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import mul
from typing import Callable, NamedTuple, Sequence

from . import bivariate
from .bivariate import MOBWParams, _cell_log_masses
from .datasets import _ALL_TIES, BivariateDataset
from .univariate import ALPHA_HI, ALPHA_LO, _newton_min
from .weibull import (
    SingularDensityError,
    WeibullParams,
    _count,
    _left_sum,
    _logpmf_float,
    _power,
    _Record,
)

__all__ = [
    "MOBWParams",
    "MobwDensity",
    "LatentPrediction",
    "CompleteObservation",
    "SampleSummary",
    "summarize",
    "cause_counts",
    "exposures",
    "mobw_sf",
    "mobw_pdf",
    "we_pdf",
    "we_cdf",
    "we_mode",
    "cell_probability",
    "ml_predict",
    "impute_dataset",
    "complete_loglik",
    "inner_em_mobw",
]

# the inner EM stops once its log-likelihood moves less than this
_INNER_EM_TOL = 1e-9
_INNER_EM_MAX_ITER = 1000


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


class CompleteObservation(_Record):
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
        for y in (self.y1, self.y2):
            if not y < math.inf:
                raise ValueError(f"lifetimes must be finite, got {y}")
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


class SampleSummary(_Record, eq=False):
    """What the latent-sample updates read from a sequence of complete pairs.

    Events are the recorded lifetimes: two per off-diagonal pair, one per
    tie.  ``log_y_sum`` sums their logarithms and is ``-inf`` when one of
    them is zero; ``first_zero`` is then the index of the first
    observation holding a zero event.  ``vals`` is the one value table:
    the distinct positive values of ``max(y1, y2)``, ``y1`` and ``y2``
    together, increasing.  ``weights`` holds their 3 x K multiplicities,
    rows in the order of the exposures ``(T0, T1, T2)``, so an exposure is
    its row summed against one power of ``vals``, and a rate-weighted sum
    of the three takes that power once; a row's positive entries are its
    exposure's values, and ``row_sums`` holds the rows' totals.  Every
    table is a tuple, of floats or ints; the multiplicities are floats,
    since they only weigh powers.  The summary has no methods: the last
    power table of ``vals`` is kept with its shape, as one per-instance
    pair ``[shape, table]`` that :func:`exposures` and the shape's target
    read and write in place, so the two at one shape share one power;
    neither writes a table that overflowed.  That pair is the summary's
    only state: it is no field, is set on first use and stays out of the
    repr.
    """

    n_below: int
    n_above: int
    n_tie: int
    vals: tuple[float, ...]
    weights: tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]
    row_sums: tuple[int, int, int]
    event_count: int
    log_y_sum: float
    first_zero: int | None

    @cached_property
    def _power(self) -> list:
        # the last [shape, power table]: state, not a field, made on first use;
        # from then on it is read from the instance's dict, with no call
        return [math.nan, None]


# what the latent-sample functions take: complete pairs or their summary
Sample = Sequence[CompleteObservation] | SampleSummary


def summarize(sample: Sample) -> SampleSummary:
    """The :class:`SampleSummary` of a complete sample; a summary is
    returned as it is, so callers may pass either."""
    if isinstance(sample, SampleSummary):
        return sample
    kinds = {"below": 0, "above": 0, "tie": 0}
    # each exposure's positive values and their multiplicities
    tallies: tuple[dict, dict, dict] = ({}, {}, {})
    log, log_y, first_zero = math.log, 0.0, None
    for idx, o in enumerate(sample):
        y1, y2 = o.y1, o.y2
        kinds[o.kind] += 1
        for tally, y in zip(tallies, (max(y1, y2), y1, y2)):
            if y > 0.0:
                tally[y] = tally.get(y, 0) + 1
        # a tie's lifetimes are equal, so a zero event is a row whose
        # smaller lifetime is zero; the events' logarithms add in row order
        if first_zero is not None:
            continue
        if min(y1, y2) == 0.0:
            first_zero, log_y = idx, -math.inf
        else:
            log_y += log(y1) if o.kind == "tie" else log(y1) + log(y2)
    vals = sorted({v for tally in tallies for v in tally})
    where = {v: k for k, v in enumerate(vals)}
    # counts as floats, exact, since they only weigh powers: a float product
    # takes no conversion per call
    weights = [[0.0] * len(vals) for _ in tallies]
    for row, tally in zip(weights, tallies):
        for v, count in tally.items():
            row[where[v]] = float(count)
    n_below, n_above, n_tie = kinds["below"], kinds["above"], kinds["tie"]
    return SampleSummary(
        n_below,
        n_above,
        n_tie,
        tuple(vals),
        tuple(map(tuple, weights)),
        tuple(sum(tally.values()) for tally in tallies),
        event_count=2 * (n_below + n_above) + n_tie,
        log_y_sum=log_y,
        first_zero=first_zero,
    )


def cause_counts(
    sample: Sample, lambdas: tuple[float, float, float], rng=None
) -> tuple[float, float, float]:
    """Failure counts ``(N0, N1, N2)`` attributed to each latent cause.

    A coordinate that failed strictly first is its own cause; the later
    coordinate of an off-diagonal pair is attributed to the shared or the
    individual shock.  With ``rng``, a numpy ``Generator`` or the
    package's seeded generator (:class:`bdw.generator._Generator`), the
    ambiguous attributions are drawn (two binomials), otherwise their
    expectations are used.  Rates that :class:`MOBWParams` refuses are
    refused, by its message.
    """
    l0, l1, l2 = lambdas
    # MOBWParams' rule on the rates, as one chain of comparisons that NaN
    # fails; where it fails, MOBWParams refuses them by its message
    if not (l0 >= 0.0 and l1 > 0.0 and l2 > 0.0 and l0 + l1 + l2 < math.inf):
        MOBWParams(1.0, l0, l1, l2)
    st = sample if sample.__class__ is SampleSummary else summarize(sample)
    share1 = l1 / (l0 + l1)
    share2 = l2 / (l0 + l2)
    if rng is None:
        k1 = st.n_above * share1
        k2 = st.n_below * share2
    else:
        k1 = float(rng.binomial(st.n_above, share1))
        k2 = float(rng.binomial(st.n_below, share2))
    return st.n_tie + (st.n_below - k2) + (st.n_above - k1), st.n_below + k1, st.n_above + k2


def exposures(sample: Sample, alpha: float) -> tuple[float, float, float]:
    """Cause-specific exposure sums ``(T0, T1, T2)`` at a given shape:
    ``T0 = Σ max(y1, y2)^α``, ``T1 = Σ y1^α`` and ``T2 = Σ y2^α``, where zero
    lifetimes add nothing; a shape that is not positive and finite, and an
    exposure past the float range, are refused."""
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"shape must be positive and finite, got {alpha}")
    st = sample if sample.__class__ is SampleSummary else summarize(sample)
    # the summary's [shape, table] pair: a power past the float range raises
    # before the pair is written, so a kept table of finite values is finite
    # and a row's zero weights add exact zeros to its one rounding
    power = st._power
    try:
        if alpha != power[0]:
            power[0], power[1] = alpha, [v**alpha for v in st.vals]
        table = power[1]
        w0, w1, w2 = st.weights
        sums = (
            math.fsum(map(mul, w0, table)),
            math.fsum(map(mul, w1, table)),
            math.fsum(map(mul, w2, table)),
        )
    except OverflowError:
        sums = (math.inf,)
    if math.inf in sums:
        raise ValueError(
            f"the exposures pass the float range at shape {alpha:.6g}: "
            f"the rates cannot be drawn or fitted there"
        )
    return sums


def mobw_sf(params: MOBWParams, y1: float, y2: float) -> float:
    """Joint survival ``P(Y1 > y1, Y2 > y2)``; 0 past the float range.  The
    discrete pair's :func:`bivariate.joint_sf` is this at the floors."""
    if not (y1 >= 0 and y2 >= 0):
        raise ValueError(f"arguments must be non-negative, got ({y1}, {y2})")
    return math.exp(bivariate._log_sf(bivariate._rates(params), y1, y2))


def we_pdf(params: WeibullParams, x: float) -> float:
    """Density of the continuous Weibull law at ``x >= 0``.

    At ``x = 0`` the density is 0 for ``alpha > 1`` and ``lam`` for
    ``alpha = 1``; for ``alpha < 1`` it diverges and
    :class:`SingularDensityError` is raised.  Where ``x**alpha`` passes the
    float range the density is 0.
    """
    if not x >= 0:
        raise ValueError(f"x must be non-negative, got {x}")
    a, lam = params.alpha, params.lam
    if x == 0:
        if a > 1:
            return 0.0
        if a == 1:
            return lam
        raise SingularDensityError("density diverges at 0 for shape below one")
    survival = math.exp(-lam * _power(x, a))
    # a power past the float range leaves no survival, and no density
    return a * lam * _power(x, a - 1.0) * survival if survival > 0 else 0.0


def we_cdf(params: WeibullParams, x: float) -> float:
    """Distribution function ``1 - exp(-lam*x**alpha)`` at ``x >= 0``; 1 past
    the float range."""
    if not x >= 0:
        raise ValueError(f"x must be non-negative, got {x}")
    return -math.expm1(-params.lam * _power(x, params.alpha))


def we_mode(alpha: float, lam: float) -> float:
    """Interior mode ``((alpha-1)/(alpha*lam))**(1/alpha)`` of the density.

    Defined only for ``alpha > 1``; below that the density is decreasing and
    has no interior mode.
    """
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError(f"shape must be positive and finite, got {alpha}")
    if alpha <= 1:
        raise ValueError(f"mode requires shape above one, got {alpha}")
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError(f"rate must be positive and finite, got {lam}")
    return ((alpha - 1.0) / (alpha * lam)) ** (1.0 / alpha)


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
    return math.log(alpha * lam) + (alpha - 1.0) * math.log(y) - lam * _power(y, alpha)


def _branch_rates(l0: float, l1: float, l2: float, kind: str) -> tuple[float, float]:
    # Weibull rates of (y1, y2) on an off-diagonal branch: the coordinate
    # that fails later also fails when the shared shock fires
    if kind == "below":
        return l1, l0 + l2
    return l0 + l1, l2


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
    r1, r2 = _branch_rates(params.lambda0, params.lambda1, params.lambda2, kind)
    return _log_we_pdf(y1, a, r1) + _log_we_pdf(y2, a, r2)


def mobw_pdf(params: MOBWParams, y1: float, y2: float) -> MobwDensity:
    """Density at ``(y1, y2)``, flagged by component.

    Off the diagonal this is a genuine two-dimensional density; on the
    diagonal it is the singular part's density along the line, carrying
    total mass ``lambda0 / total``.  The value can be infinite on the
    axes when the shape is below one; it is 0 at an infinite argument.
    """
    if not (y1 >= 0 and y2 >= 0):
        raise ValueError(f"arguments must be non-negative, got ({y1}, {y2})")
    kind = "below" if y1 < y2 else "above" if y1 > y2 else "tie"
    # no lifetime is infinite: the density is 0 there, beside a pole at 0 too
    value = 0.0 if math.inf in (y1, y2) else math.exp(_branch_logpdf(params, y1, y2, kind))
    return MobwDensity(value, "diagonal" if kind == "tie" else kind)


def cell_probability(params: MOBWParams, i: int, j: int) -> float:
    """Probability that the floors land in the cell ``(i, j)``.

    This is the rectangle difference of :func:`mobw_sf` at the cell
    corners, evaluated through the discrete pair's log-space mass function
    on the rates, so deep-tail cells do not cancel to zero prematurely.
    """
    return bivariate.joint_pmf(params, i, j)


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
    i, j = _count(i, "i"), _count(j, "j")
    log_mass = bivariate.joint_logpmf(params, i, j)
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
    lambdas = params.lambda0, params.lambda1, params.lambda2

    if i != j:
        kind = "below" if i < j else "above"
        r1, r2 = _branch_rates(*lambdas, kind)
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
    log_pmin = _logpmf_float(float(i), a, params.total)
    best_log_w = _branch_logpdf(params, w, w, "tie") - log_pmin
    massless = best_log_w == -math.inf
    best = LatentPrediction(w, w, "tie-diagonal", _weight(best_log_w))
    for kind in ("below", "above"):
        r1, r2 = _branch_rates(*lambdas, kind)
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


def impute_dataset(theta: MOBWParams, data: BivariateDataset) -> list[CompleteObservation]:
    """Most likely latent lifetimes for every row, aligned with row order.

    The cells' masses are evaluated together, the predictor runs once per
    distinct cell and the result is replicated, so permuted datasets impute
    identical multisets.
    """
    cache: dict[tuple[int, int], CompleteObservation] = {}
    for (cell, _, _), lp in zip(data.cells, _cell_log_masses(theta, data)):
        pred = _predict_in_cell(theta, *cell, lp)
        cache[cell] = CompleteObservation(pred.y1hat, pred.y2hat, pred.kind)
    return [cache[cell] for cell in data.pairs]


def _loglik_in_shape(
    c: float, d: float, st: SampleSummary, lambdas: tuple[float, float, float]
) -> Callable[[float], float]:
    """``alpha ->`` the complete-data log-likelihood of ``st`` at ``lambdas``
    plus the log gamma kernel ``(c - 1) log(alpha) - d alpha``:
    ``(c - 1 + event_count) log(alpha) - d alpha + rate_logs + (alpha - 1)
    log_y_sum - sum(coef * vals**alpha)``, ``-inf`` where not finite.  A
    zero lifetime's ``(alpha - 1) log y`` is 0 at shape one.

    One call binds the rate logarithms, the coefficients and their total,
    and returns the target, which reads and writes the summary's power pair
    in place.  The call refuses the rates :class:`MOBWParams` refuses, and a
    zero shared rate where the sample holds a tie."""
    l0, l1, l2 = lambdas
    log, inf = math.log, math.inf
    # cause_counts' refusal of the rates MOBWParams refuses
    if not (l0 >= 0.0 and l1 > 0.0 and l2 > 0.0 and l0 + l1 + l2 < inf):
        MOBWParams(1.0, l0, l1, l2)
    # each density event's log-rate: two per off-diagonal pair, one per
    # tie, at _branch_rates' pair of each branch, written out; the rates
    # are finite and l1, l2 positive, so only a tie's log(l0) can fail
    rate_logs = st.n_below * (log(l1) + log(l0 + l2)) + st.n_above * (log(l0 + l1) + log(l2))
    if st.n_tie:
        if l0 == 0.0:
            raise ValueError("the sample holds a tie but the shared rate is zero")
        rate_logs += st.n_tie * log(l0)
    # l0*T0 + l1*T1 + l2*T2 is one power of the fused value table, at
    # most the coefficients' total times the largest value's power
    coef = [l0 * n0 + l1 * n1 + l2 * n2 for n0, n1, n2 in zip(*st.weights)]
    s0, s1, s2 = st.row_sums
    total = l0 * s0 + l1 * s1 + l2 * s2
    log_alpha_coef = c - 1.0 + st.event_count
    log_y_sum, vals, power = st.log_y_sum, st.vals, st._power
    fsum, isfinite = math.fsum, math.isfinite

    def g(alpha: float) -> float:
        if not (0 < alpha < inf):
            return -inf
        # where that bound overflows, so may the sum, and a zero
        # coefficient times an infinite power would read NaN: refuse it.
        # The table's last power is the largest value's, the bound's.  A
        # power past the float range raises OverflowError, as fsum does on
        # its way there, so a table made here, or by exposures, needs no
        # fallback
        try:
            if alpha != power[0]:
                power[0], power[1] = alpha, [v**alpha for v in vals]
            table = power[1]
            if vals and table[-1] * total == inf:
                return -inf
            dot = fsum(map(mul, coef, table))
        except OverflowError:
            return -inf
        y_term = (alpha - 1.0) * log_y_sum if alpha != 1.0 else 0.0
        out = log_alpha_coef * log(alpha) - d * alpha + rate_logs + y_term - dot
        return out if isfinite(out) else -inf

    return g


def complete_loglik(params: MOBWParams, sample: Sample) -> float:
    """Log-likelihood of fully observed latent pairs, or of their summary:
    each pair's branch density (two Weibull factors off the diagonal, the
    singular factor on it), summed in closed form on the summary.  A
    non-finite value (a tie at a zero shared rate, a zero lifetime away
    from shape one, a power past the float range) is refused, because a
    silently infinite objective would derail any optimizer built on top."""
    st = summarize(sample)
    a = params.alpha
    if st.first_zero is not None and a != 1.0:
        zero = f"observation {st.first_zero} holds a zero lifetime"
        raise ValueError(f"{zero}: its log-density is non-finite at shape {a:.6g}")
    lambdas = params.lambda0, params.lambda1, params.lambda2
    out = _loglik_in_shape(1.0, 0.0, st, lambdas)(a)
    if out == -math.inf:
        raise ValueError(f"the sample has non-finite log-density -inf at {params}")
    return out


def inner_em_mobw(sample: Sample, start: MOBWParams, trace: list | None = None) -> MOBWParams:
    """Fit the continuous shared-shock model to fully observed pairs or
    their :class:`SampleSummary`, which is all the fit reads.

    The missing information is which component caused each recorded
    minimum.  The E-step attributes causes fractionally from the current
    rates; the M-step is closed-form in the rates given the shape and
    reduces the shape update to a one-dimensional Newton solve of the
    profiled objective in ``log(alpha)``, clamped to [0.01, 100].  The
    log-likelihood of the flagged pairs (:func:`complete_loglik`, once per
    iteration) is non-decreasing across iterations; pass ``trace`` to
    collect it.

    A zero lifetime among the recorded events leaves the boundary value
    finite only at shape one, so such samples are fitted with the shape
    pinned there.  A sample that is all ties, or has an identically zero
    coordinate, does not identify the coordinate rates, nor one with every
    event at its exposure's largest value the shape: each is rejected, as
    are exposures that leave the float range at the fitted shape.
    """
    st = summarize(sample)
    if st.n_below + st.n_above == 0:
        raise ValueError(_ALL_TIES)
    for name, total in (("first", st.row_sums[1]), ("second", st.row_sums[2])):
        if total == 0.0:
            raise ValueError(
                f"{name} coordinate is identically zero: its rate is not identifiable"
            )
    # each exposure's (multiplicity, log-value) pairs, increasing: the last is its top
    logs = [math.log(v) for v in st.vals]
    tables = [[(w, lg) for w, lg in zip(row, logs) if w] for row in st.weights]

    def m_step(counts, alpha):
        # maximize the attributed-cause objective over shape and rates;
        # rates profile out exactly, leaving a concave problem in alpha
        c0, c1, c2 = counts

        def neg_profiled(z):
            a = math.exp(z[0])
            val = st.event_count * z[0] + (a - 1.0) * st.log_y_sum
            d1 = st.event_count + a * st.log_y_sum
            d2 = a * st.log_y_sum
            for c, table in zip(counts, tables):
                if c > 0.0:
                    # the exposure over its largest power, the last, which
                    # val adds back: each term is at most 1, and t at least 1
                    top = table[-1][1]
                    terms = [(w * math.exp(a * (lg - top)), lg) for w, lg in table]
                    t = math.fsum(wv for wv, _ in terms)
                    t_a = math.fsum(wv * lg for wv, lg in terms)
                    t_aa = math.fsum(wv * lg * lg for wv, lg in terms)
                    # first and second derivatives of log(t) in z = log(a)
                    u1 = a * t_a / t
                    u2 = a * (t_a + a * t_aa) / t - u1 * u1
                    val += c * (math.log(c) - math.log(t) - a * top) - c
                    d1 -= c * u1
                    d2 -= c * u2
            return -val, [-d1], [[-d2]]

        if st.first_zero is not None:
            a = 1.0
        else:
            # the concave profile's slope falls to log_y_sum - sum(c * log(top))
            # <= 0; at 0, up to rounding, every event sits at its top: no maximum
            tops = [c * table[-1][1] for c, table in zip(counts, tables) if c > 0.0]
            scale = abs(st.log_y_sum) + _left_sum(map(abs, tops))
            if st.log_y_sum - _left_sum(tops) >= -1e-12 * scale:
                raise ValueError(
                    "the shape is not identified: every event of the latent sample sits at "
                    "its exposure's largest value, so the likelihood rises without bound"
                )
            z0 = [math.log(min(max(alpha, ALPHA_LO), ALPHA_HI))]
            z, _ = _newton_min(neg_profiled, z0)
            a = min(max(math.exp(z[0]), ALPHA_LO), ALPHA_HI)
        t0, t1, t2 = exposures(st, a)
        if 0.0 in (t1, t2):  # T0 >= T1, T2: the coordinate exposures underflow first
            raise ValueError(f"the exposures underflow at shape {a:.6g}: no rate fits there")
        return MOBWParams(a, c0 / t0 if c0 > 0 else 0.0, c1 / t1, c2 / t2)

    theta = start
    prev = None
    for _ in range(_INNER_EM_MAX_ITER):
        # E-step: expected cause counts given the current rates
        counts = cause_counts(st, (theta.lambda0, theta.lambda1, theta.lambda2))
        theta = m_step(counts, theta.alpha)
        cur = complete_loglik(theta, st)
        if trace is not None:
            trace.append(cur)
        if prev is not None and abs(cur - prev) < _INNER_EM_TOL:
            break
        prev = cur
    return theta
