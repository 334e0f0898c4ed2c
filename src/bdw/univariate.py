"""Fits of the discrete Weibull law to a sample of counts, and their check.

The DW law itself, its records and its log-mass kernels live in
:mod:`bdw.weibull`; this module fits it.  Both fits, by maximum
likelihood (:func:`dw_fit_ml`) and by minimum chi-square
(:func:`dw_fit_minchisq`), run the package's one optimizer,
:func:`_newton_min`: damped Newton steps in log-parameters on exact
derivatives, which the DW log-pmf's jets (:func:`_dw_jets`) supply, on
``math``: no fit loads numpy.  They hold the fitted rate, and compute
its survival base only on demand, through :func:`~bdw.weibull._to_base`.

The DW fit check, :func:`chisq_dw`, and the table path that the joint
check of :mod:`bdw.gof` shares live here too, so a column's fit and fit
check load no joint law.

The DW law's public names are imported here too, so ``bdw.univariate.DWParams``
and pickles that name this module still resolve.  The samplers live in
:mod:`bdw.sampling` and the continuous Weibull density in :mod:`bdw.mobw`.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, abc
from itertools import combinations, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .weibull import (
    _MAX_COUNT,
    _MAX_GRID_BOUND,
    DWParams,
    SingularDensityError,
    WeibullParams,
    _as_counts,
    _count,
    _geometric,
    _left_sum,
    _log_dw,
    _power_step,
    _rate,
    _Record,
    _to_base,
    dw_logpmf,
    dw_pmf,
    dw_sf,
)

__all__ = [
    "SingularDensityError",
    "WeibullParams",
    "DWParams",
    "DWFit",
    "dw_pmf",
    "dw_logpmf",
    "dw_sf",
    "dw_fit_ml",
    "dw_fit_minchisq",
    "DWChisqFit",
    "ChiSquareReport",
    "chisq_upper_tail",
    "chisq_dw",
]


class DWFit(NamedTuple):
    """Maximum-likelihood fit of a DW law together with its attained
    log-likelihood; ``law`` is the fitted latent Weibull law, in its rate."""

    law: WeibullParams
    loglik: float

    @property
    def params(self) -> DWParams:
        """The fitted law in its survival base, computed on demand; refused
        by name when the fitted rate rounds the base to 1."""
        return DWParams(self.law.alpha, _to_base("lambda", self.law.lam))


def _counts_1d(data) -> list[int]:
    """A sample of counts as ints: a list, tuple or range as it is, any other
    sequence or one-dimensional array through its ``tolist()`` where it has
    one; ints are read as they are, anything else by
    :func:`~bdw.weibull._as_counts`."""
    items = data
    if not isinstance(data, (list, tuple, range)):
        # a scalar, a string, a set, a mapping, an iterator or a 0-d array
        if isinstance(data, (str, bytes)) or not (
            isinstance(data, abc.Sequence) or getattr(data, "ndim", 0)
        ):
            raise ValueError("expected a one-dimensional collection of counts")
        items = data.tolist() if hasattr(data, "tolist") else data
    if len(items) == 0:
        raise ValueError("empty dataset")
    if all(type(y) is int for y in items):
        xs = list(items) if min(items) >= 0 else None
    else:
        nested = any(isinstance(y, (list, tuple)) or getattr(y, "ndim", 0) for y in items)
        if getattr(data, "ndim", 1) != 1 or nested:
            raise ValueError("expected a one-dimensional collection of counts")
        xs = _as_counts(items)
    if xs is None:
        raise ValueError("data must be non-negative integers")
    top = max(xs)
    if top > _MAX_COUNT:
        raise ValueError(f"data must not exceed the largest count 2**63 - 1, got {top}")
    if top >= 2**53:  # where y and y + 1 are one float, and the DW law has no mass
        raise ValueError(
            f"data must be below 2**53, got {top}: at such a count y, "
            f"y and y + 1 are one float"
        )
    return xs


def _log1mexp_terms(u: float) -> tuple[float, float, float]:
    """``log(1 - exp(-u))`` with its first and second derivatives in ``u``,
    ``g1 = exp(-u)/(1 - exp(-u))`` and ``-(g1 + g1**2)``; ``-inf`` and NaN
    derivatives for ``u <= 0`` and for NaN.  No value of ``u`` raises."""
    if u > 0.0:
        tail = -math.expm1(-u)
        v, g1 = math.log(tail), math.exp(-u) / tail
    else:
        v, g1 = -math.inf, math.nan
    return v, g1, -(g1 + g1 * g1)


def _step_jet(y: float, alpha: float) -> tuple[float, ...]:
    """The power step ``(t, d)`` at ``y`` (:func:`~bdw.weibull._power_step`)
    with its derivatives in ``alpha``, ``(t, d, t_a, d_a, t_aa, d_aa)``:
    ``t*log(y)**k``, and ``(y+1)**alpha*log(y+1)**k - t*log(y)**k`` regrouped
    on ``d`` and ``s = log1p(1/y)``; all four are 0 at ``y = 0``."""
    t, d = _power_step(y, alpha)
    if y == 0.0:
        return t, d, 0.0, 0.0, 0.0, 0.0
    ly, ly1, s = math.log(y), math.log(y + 1.0), math.log1p(1.0 / y)
    t_a = t * ly
    return t, d, t_a, t * s + d * ly1, t_a * ly, t * s * (ly + ly1) + d * ly1 * ly1


def _dw_jets(values: list[float], alpha: float, rate: float) -> list[tuple[float, ...]]:
    """The DW log-pmf ``-rate*t + log1mexp(rate*d)`` at each value, from its
    power step (:func:`_step_jet`), and its gradient and Hessian in
    ``(alpha, rate)``: ``(v, g_a, g_r, h_aa, h_ar, h_rr)``.  A value of no
    mass, or whose powers pass the float range, gets a non-finite jet."""
    jets = []
    for y in values:
        t1, dt, a1, da, b1, db = _step_jet(y, alpha)
        u, ua = dt * rate, da * rate
        v, g1, g2 = _log1mexp_terms(u)
        jets.append((
            t1 * -rate + v, -(rate * a1) + g1 * ua, -t1 + g1 * dt,
            -(rate * b1) + g2 * ua * ua + g1 * (rate * db),
            -a1 + g2 * ua * dt + g1 * da, g2 * dt * dt,
        ))
    return jets


def _in_logs(theta, value: float, grad, hess) -> tuple[float, list[float], list[list[float]]]:
    """Value, gradient and Hessian, given as sequences of floats, carried
    from ``theta`` to ``z = log(theta)``; non-finite entries pass through."""
    grad_z = [t * g for t, g in zip(theta, grad)]
    hess_z = [[ti * tj * h for tj, h in zip(theta, row)] for ti, row in zip(theta, hess)]
    for i, g in enumerate(grad_z):
        hess_z[i][i] += g
    return value, grad_z, hess_z


# longest step of the Newton solver, in log-parameters: at most a factor
# e**2 per parameter, so exp(z) cannot overflow between two evaluations
_MAX_STEP = 2.0
# well-posed fits take 3-20 steps; the cap ends a descent towards an
# infimum at infinity, as on a sample that no DW law fits best
_MAX_ITER = 200
_EPS = sys.float_info.epsilon


class _StepCapError(ValueError):
    """:func:`_newton_min` found no minimum: it took ``_MAX_ITER`` steps
    without converging, or its Newton step was too long to represent.  The
    DW fits raise it as the sample's refusal, which a joint fit's start reads."""


def _eigh(a) -> tuple[list[float], list[list[float]]]:
    """Eigenvalues and orthonormal eigenvectors, as columns, of a small
    symmetric matrix, by cyclic Jacobi rotations; an off-diagonal entry is
    dropped below the float resolution of both its diagonal entries."""
    n, a = len(a), [list(row) for row in a]
    vecs = [[float(i == j) for j in range(n)] for i in range(n)]
    for _ in range(50):  # a matrix of order 4 takes 3-5 sweeps
        rotated = False
        for p, q in combinations(range(n), 2):
            apq, app, aqq = a[p][q], a[p][p], a[q][q]
            if abs(app) + 100.0 * abs(apq) == abs(app) and abs(aqq) + 100.0 * abs(apq) == abs(aqq):
                a[p][q] = a[q][p] = 0.0
                continue
            rotated = True
            # the rotation's tangent, the smaller root of t**2 + 2*theta*t = 1
            theta = (aqq - app) / (2.0 * apq)
            t = math.copysign(1.0 / (abs(theta) + math.hypot(theta, 1.0)), theta)
            c = 1.0 / math.hypot(t, 1.0)
            s, tau = t * c, t * c / (1.0 + c)
            a[p][p], a[q][q], a[p][q], a[q][p] = app - t * apq, aqq + t * apq, 0.0, 0.0
            # the rotation of columns p and q; a's rows p and q mirror them
            for row in [a[r] for r in range(n) if r != p and r != q] + vecs:
                x, y = row[p], row[q]
                row[p], row[q] = x - s * (y + tau * x), y + s * (x - tau * y)
            for r in range(n):
                a[p][r], a[q][r] = a[r][p], a[r][q]
        if not rotated:
            break
    return [a[i][i] for i in range(n)], vecs


def _evaluate(fun, z: list[float]):
    """``fun(z)`` as floats in lists, or ``None`` where one is not finite."""
    f, g, h = fun(z)
    f, g, h = float(f), [float(v) for v in g], [[float(v) for v in row] for row in h]
    finite = math.isfinite(f) and all(map(math.isfinite, g + [v for row in h for v in row]))
    return (f, g, h) if finite else None


def _newton_min(fun, z0) -> tuple[list[float], float]:
    """Minimize ``fun`` from ``z0`` by damped Newton steps; return the point and value.

    ``fun(z)`` returns the value, gradient and Hessian, in floats; a
    non-finite one marks ``z`` as outside the domain.  Each step solves
    ``(H + mu*I) s = -g`` on :func:`_eigh` of ``H``, with ``mu`` raised
    where needed so the system is positive definite, and its length is
    capped at ``_MAX_STEP``.  A step is taken only when the value falls,
    or, within the float resolution of the value, when the gradient
    shrinks; otherwise ``mu`` grows and the step shortens.  The solve ends
    after the first step whose predicted or attained decrease is below
    that resolution, such as a crawl towards a rate of zero.  A solve
    still descending after ``_MAX_ITER`` steps, or whose Newton step
    overflows (no curvature along a descent direction), raises
    :class:`_StepCapError`.
    """
    z = [float(v) for v in z0]
    state = _evaluate(fun, z)
    if state is None:
        raise ValueError("the objective is not finite at the start point")
    f, g, h = state
    mu = 0.0
    for _ in range(_MAX_ITER):
        w, vecs = _eigh(h)
        scale = max(max(map(abs, w)), 1e-300)
        lowest = min(w)
        shift = mu if lowest > 0.0 else mu + 1e-10 * scale - lowest
        gv = [_left_sum(row[k] * gi for row, gi in zip(vecs, g)) for k in range(len(z))]
        sv = [-gk / (wk + shift) for gk, wk in zip(gv, w)]
        if not all(map(math.isfinite, sv)):
            raise _StepCapError(
                "the Newton step overflows: the objective has no curvature "
                "along its descent, so the infimum is not attained"
            )
        if math.hypot(*sv) > _MAX_STEP:
            # through sv / max|sv|, whose norm is finite where that of sv is not
            sv = [sk / max(map(abs, sv)) for sk in sv]
            sv = [sk * (_MAX_STEP / math.hypot(*sv)) for sk in sv]
        predicted = -_left_sum(gk * sk + 0.5 * (wk * sk) * sk for gk, wk, sk in zip(gv, w, sv))
        resolution = 4.0 * _EPS * max(abs(f), 1.0)
        z_new = [zi + _left_sum(v * sk for v, sk in zip(row, sv)) for zi, row in zip(z, vecs)]
        new = _evaluate(fun, z_new)
        if new is not None and (
            new[0] < f or (new[0] <= f + resolution and math.hypot(*new[1]) < math.hypot(*g))
        ):
            gain = f - new[0]
            z, (f, g, h) = z_new, new
            mu = mu / 4.0 if mu > 1e-12 * scale else 0.0
        elif predicted > resolution:
            mu = max(4.0 * shift, 1e-4 * scale)
            continue
        else:
            gain = 0.0
        if min(predicted, gain) <= resolution:
            return z, f
    raise _StepCapError(
        f"the Newton solve was still descending after {_MAX_ITER} steps: "
        f"the infimum is not attained"
    )


def _pearson(counts, expected) -> float:
    """Pearson statistic of counts against expected counts; ``inf`` where a
    cell expects nothing."""
    if not all(e > 0.0 for e in expected):
        return math.inf
    return math.fsum((o - e) * (o - e) / e for o, e in zip(counts, expected))


# expected counts below this are pooled with a neighbour
POOL_THRESHOLD = 1.0


def chisq_upper_tail(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square law with ``df`` degrees.

    Parameters
    ----------
    x : float
        Non-negative test statistic; NaN is refused, and ``inf`` has tail 0.
    df : int
        Positive integer degrees of freedom; a fraction, an infinity or NaN
        is refused.

    Returns
    -------
    float
        ``P(X > x)`` in closed form.  With ``h = x/2`` and ``m = df // 2``
        it is ``exp(-h) * sum(h**j / j!, j < m)`` for even ``df``, and
        ``erfc(sqrt(h)) + exp(-h) * sum(h**(j + 1/2) / Gamma(j + 3/2), j < m)``
        for odd ``df``.  The terms are summed in log space, so the result
        keeps its relative accuracy far into the tail.  Only the terms
        within 760 e-folds of the largest are formed, so the cost grows as
        ``sqrt(df)``: each other term's ratio to it is an exact 0.0.
    """
    df = _count(df, "degrees of freedom", positive=True)
    if not x >= 0:
        raise ValueError(f"statistic must be non-negative, got {x}")
    if x == 0:
        return 1.0
    if x == math.inf:
        return 0.0
    h = x / 2.0
    m, odd = divmod(df, 2)
    lead = math.erfc(math.sqrt(h)) if odd else 0.0
    if m == 0:
        return lead
    log_h = math.log(h)

    def log_term(j: int) -> float:
        return (j + 0.5 * odd) * log_h - h - math.lgamma(j + 1.0 + 0.5 * odd)

    # the log-terms are concave in j, largest at the peak below: walk out
    # from it on each side to the first term past 760 e-folds, since
    # exp(-760) is 0.0 and so is every term beyond.  A peak below -800
    # leaves exp(top) and the whole series 0.0
    peak = min(max(math.ceil(h - 1.0 - 0.5 * odd), 0), m - 1)
    logs = [log_term(peak)]
    if logs[0] < -800.0:
        return lead
    cutoff = logs[0] - 760.0
    for step in (-1, 1):
        j = peak + step
        while 0 <= j < m and (v := log_term(j)) >= cutoff:
            logs.append(v)
            j += step
    top = max(logs)
    tail = math.exp(top) * math.fsum(math.exp(v - top) for v in logs)
    return min(1.0, lead + tail)


class ChiSquareReport(_Record):
    """Chi-square statistic with its cell layout and p-value."""

    statistic: float
    df: int
    p_value: float
    cells: tuple[tuple[str, int, float], ...]


def _pool(observed: Iterable[int], expected: Iterable[float]) -> list[tuple[int, int, int, float]]:
    """Merge adjacent cells, read once as they come, rightward until every
    group's expected >= 1; a remainder short of it joins the last group, or
    stands alone when there is none.  A group is its first and last cell
    with its two sums."""
    groups: list[tuple[int, int, int, float]] = []
    first, acc_o, acc_e, last = 0, 0, 0.0, -1
    for last, (o, e) in enumerate(zip(observed, expected)):
        acc_o += o
        acc_e += e
        if acc_e >= POOL_THRESHOLD:
            groups.append((first, last, acc_o, acc_e))
            first, acc_o, acc_e = last + 1, 0, 0.0
    if first <= last:
        if groups:
            first, _, last_o, last_e = groups.pop()
            acc_o, acc_e = last_o + acc_o, last_e + acc_e
        groups.append((first, last, acc_o, acc_e))
    return groups


def _axis(top: int, absorb_tail: bool = True) -> Callable[[int], str]:
    """Cell k's label on an axis holding the values ``0..top``; with ``absorb_tail``
    the last cell also holds the tail above it, ``>=top`` when ``top > 0``."""
    last = f">={top}" if absorb_tail and top > 0 else str(top)
    return lambda k: last if k == top else str(k)


def _report(
    name: Callable[[int], str], observed: Iterable[int], expected: Iterable[float], df_penalty: int
) -> ChiSquareReport:
    """Pool and score a row-major table of counts against expected counts.
    ``name(k)`` labels cell k; a group of one cell keeps its label, of two
    reads ``a+b``, and of more ``first..last``."""
    df_penalty = _count(df_penalty, "df_penalty")
    groups = _pool(observed, expected)
    if len(groups) < 2:
        raise ValueError("fewer than two cells after pooling")
    df = len(groups) - 1 - df_penalty
    if df < 1:
        raise ValueError("no degrees of freedom left after the penalty")
    _, _, obs, exp = zip(*groups)
    stat = _pearson(obs, exp)
    cells = tuple(
        (name(a) if a == b else name(a) + ("+" if b == a + 1 else "..") + name(b), o, e)
        for a, b, o, e in groups
    )
    return ChiSquareReport(statistic=stat, df=df, p_value=chisq_upper_tail(stat, df), cells=cells)


def chisq_dw(
    data: Sequence[int],
    params: DWParams | WeibullParams,
    absorb_tail: bool = True,
    df_penalty: int = 0,
) -> ChiSquareReport:
    """Chi-square fit check of a univariate sample against a fitted law,
    given as its survival base or as the rate of a fit.

    Cells are the observed support values ``{0, ..., max}``.  With
    ``absorb_tail`` the last cell also absorbs the mass above the sample
    maximum, so expected counts sum to ``n``; without it each cell keeps
    its bare probability mass, which matches how the single-coordinate
    fit tables in common use report the statistic.  ``df_penalty``
    subtracts fitted-parameter degrees from ``#cells - 1``.  The sample is
    validated as the DW fits validate theirs, and a support of more cells
    than the joint check's grid may hold is refused by name.  The cells
    stream once, with one power step per cell, in memory that does not grow.
    """
    xs = _counts_1d(data)
    top = max(xs)
    cap = _MAX_GRID_BOUND**2
    if top >= cap:
        raise ValueError(
            f"the fit check's support 0..{top} holds {top + 1} cells, "
            f"more than the {cap} of a tractable grid"
        )
    alpha, rate = _rate(params)
    seen, n = Counter(xs), len(xs)

    def expected() -> Iterator[float]:
        # from the first cell whose survival exp(-rate*t) underflows on,
        # every mass is 0
        y, (t, d) = 0, _power_step(0.0, alpha)
        while y < top and t * rate < 746.0:
            yield n * math.exp(_log_dw(t, d, rate))
            y += 1
            t, d = _power_step(float(y), alpha)
        yield from repeat(0.0, top - y)
        yield n * (dw_sf(params, top) if absorb_tail else dw_pmf(params, top))

    observed = map(seen.get, range(top + 1), repeat(0))
    return _report(_axis(top, absorb_tail), observed, expected(), df_penalty)


def _sum_in_logs(theta, value: float, jets, first, second):
    """``value`` with the gradient ``sum(first*g)`` and Hessian ``sum(second*g*g'
    + first*h)`` of per-value DW jets, in ``z = log(theta)``."""
    ga = gr = haa = har = hrr = 0.0
    for w1, w2, (_, da, dr, daa, dar, drr) in zip(first, second, jets):
        ga, gr = ga + w1 * da, gr + w1 * dr
        haa += w2 * da * da + w1 * daa
        har += w2 * da * dr + w1 * dar
        hrr += w2 * dr * dr + w1 * drr
    return _in_logs(theta, value, (ga, gr), ((haa, har), (har, hrr)))


def _neg_loglik_jet(z, values: list[float], counts: list[float]):
    """Negative DW log-likelihood of ``counts`` at ``values``, with its
    gradient and Hessian, in ``z = (log alpha, log(-log p))``."""
    theta = (math.exp(z[0]), math.exp(z[1]))
    jets = _dw_jets(values, *theta)
    value = -math.fsum(c * jet[0] for c, jet in zip(counts, jets))
    return _sum_in_logs(theta, value, jets, [-c for c in counts], [0.0] * len(counts))


def _pearson_jet(z, values: list[float], counts: list[float], n: int):
    """Pearson statistic of ``counts`` against ``n`` times the DW pmf, with
    its gradient ``sum((e - o**2/e) * dl)`` and Hessian, in the
    coordinates of :func:`_neg_loglik_jet`; ``l`` is a cell's log-pmf."""
    theta = (math.exp(z[0]), math.exp(z[1]))
    jets = _dw_jets(values, *theta)
    e = [n * math.exp(jet[0]) for jet in jets]
    value = _pearson(counts, e)
    if value == math.inf:
        return value, (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0))
    q = [o * o / ek for o, ek in zip(counts, e)]
    first, second = [a - b for a, b in zip(e, q)], [a + b for a, b in zip(e, q)]
    return _sum_in_logs(theta, value, jets, first, second)


def dw_fit_ml(data: Sequence[int]) -> DWFit:
    """Maximum-likelihood fit of a DW law to a sample of counts.

    :func:`_newton_min` minimizes the negative log-likelihood in ``(log
    alpha, log(-log p))`` with its exact score and Hessian, from the
    geometric law (shape one) of the sample's mean.

    Returns
    -------
    DWFit
        The fitted law in its rate and the attained log-likelihood.  A
        rate too small for ``p`` to be told from one, as on counts past
        100, is fitted; only :attr:`DWFit.params` refuses it.

    Raises
    ------
    ValueError
        On an empty sample, when all observations are equal (the
        likelihood then degenerates towards a boundary point mass), on a
        count at or past 2**53, or when no DW law attains the supremum.  A
        sample on two adjacent values ``{k, k+1}`` is one with no
        maximizer: as the shape grows with ``lambda*(k+1)**alpha`` held,
        the DW law tends to any two-point law on them, so the supremum is
        the sample's own frequencies.
    """
    values, counts, n = _distinct_values(data)
    if len(values) == 2 and values[1] - values[0] == 1:
        sup = _left_sum(c * math.log(c / n) for c in counts)
        raise ValueError(
            f"no DW law fits this sample best: on the two adjacent values "
            f"{values[0]:g} and {values[1]:g} the log-likelihood approaches "
            f"its supremum {sup:.6g} only as the shape grows without bound"
        )
    law, value = _solve_fit(lambda z: _neg_loglik_jet(z, values, counts), values, counts, n)
    return DWFit(law, -value)


class DWChisqFit(NamedTuple):
    """Minimum-chi-square fit of a DW law with the minimized Pearson
    statistic; ``law`` is the fitted latent Weibull law, in its rate."""

    law: WeibullParams
    chisq: float
    # the law in its survival base, as for the ML fit
    params = DWFit.params


def dw_fit_minchisq(data: Sequence[int]) -> DWChisqFit:
    """Fit a DW law by minimizing the Pearson chi-square statistic.

    Cells are the distinct observed values, with expected counts
    ``n * dw_pmf``; no tail cell is appended and no pooling is applied, so
    the minimized statistic is exactly the quantity a goodness-of-fit table
    built on the observed support reports.  Minimum-chi-square estimates
    and maximum-likelihood estimates generally differ at small samples;
    both are exposed because published marginal fits for this family are
    reproducible only under this criterion, while likelihood comparisons
    need :func:`dw_fit_ml`.  The solve is that of the ML fit.

    Returns
    -------
    DWChisqFit
        The fitted law in its rate and the attained (minimized) chi-square.

    Raises
    ------
    ValueError
        As :func:`dw_fit_ml` does.
    """
    values, counts, n = _distinct_values(data)
    law, value = _solve_fit(lambda z: _pearson_jet(z, values, counts, n), values, counts, n)
    return DWChisqFit(law, value)


def _distinct_values(data) -> tuple[list[float], list[float], int]:
    """Distinct values of a count sample, increasing, their multiplicities
    and the sample size."""
    xs = _counts_1d(data)
    tally = Counter(xs)
    if len(tally) < 2:
        raise ValueError(
            "all observations are equal; the fit degenerates to a boundary point mass"
        )
    values = sorted(tally)
    return [float(y) for y in values], [float(tally[y]) for y in values], len(xs)


def _solve_fit(fun, values, counts, n) -> tuple[WeibullParams, float]:
    """Minimize a DW fit's objective ``fun`` of ``z = (log alpha, log(-log p))``
    from the geometric law of the sample's mean (:func:`~bdw.weibull._geometric`);
    return the law at the minimum, in its rate, and the minimum value.  No
    minimum is refused as :class:`_StepCapError`."""
    mean = math.fsum(c * y for y, c in zip(values, counts)) / n
    try:
        z, value = _newton_min(fun, [0.0, math.log(_geometric(mean).lam)])
    except _StepCapError as exc:
        raise _StepCapError(f"no DW law fits this sample best: {exc}") from None
    return WeibullParams(math.exp(z[0]), math.exp(z[1])), value
