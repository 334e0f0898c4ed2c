"""The bulk ESS estimator against chains whose ESS is known in closed form."""

import numpy as np
import pytest

from ess import bulk_ess, min_bulk_ess


def ar1(phi: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0] / np.sqrt(1.0 - phi**2)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + eps[t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9])
def test_ar1_ess_matches_closed_form(phi):
    # ESS of a stationary AR(1) chain is n (1 - phi) / (1 + phi)
    n = 40_000
    expected = n * (1.0 - phi) / (1.0 + phi)
    got = np.median([bulk_ess(ar1(phi, n, seed)) for seed in range(5)])
    assert got == pytest.approx(expected, rel=0.1)


def test_bulk_ess_is_rank_based():
    x = ar1(0.5, 4000, 1)
    assert bulk_ess(np.exp(x)) == pytest.approx(bulk_ess(x), rel=1e-12)


def test_min_over_columns_picks_the_slowest_chain():
    draws = np.column_stack([ar1(0.0, 8000, 2), ar1(0.9, 8000, 3)])
    assert min_bulk_ess(draws) == bulk_ess(draws[:, 1])


def test_constant_chain_has_no_effective_draws():
    assert bulk_ess(np.ones(100)) == 0.0
