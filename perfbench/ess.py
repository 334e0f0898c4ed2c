"""Bulk effective sample size of MCMC draws (Vehtari et al. 2021, arXiv:1903.08008).

The chain is split in two halves, the draws are rank-normalized across
both halves, and the autocorrelation sum is truncated by Geyer's initial
monotone sequence.  Written with numpy and scipy only, for want of arviz.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _ess(chains: np.ndarray) -> float:
    """ESS of an (m, n) array of chains, per Vehtari et al. eqs. (10)-(13)."""
    m, n = chains.shape
    centred = chains - chains.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centred, n=size, axis=1)
    acov = np.fft.irfft(spec * np.conj(spec), n=size, axis=1)[:, :n] / n
    within = float(np.mean(acov[:, 0])) * n / (n - 1)
    var_plus = within * (n - 1) / n
    if m > 1:
        var_plus += float(np.var(chains.mean(axis=1), ddof=1))
    if not var_plus > 0:
        return 0.0
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Geyer: sums of adjacent pairs, kept while positive, made monotone
    pairs = rho[: n - n % 2].reshape(-1, 2).sum(axis=1)
    stop = int(np.argmax(pairs <= 0)) if np.any(pairs <= 0) else pairs.size
    pairs = np.minimum.accumulate(pairs[:stop])
    tau = -1.0 + 2.0 * float(pairs.sum())
    return float(m * n / max(tau, 1.0 / np.log10(m * n)))


def bulk_ess(draws) -> float:
    """Bulk ESS of one chain of scalar draws."""
    x = np.asarray(draws, dtype=float)
    half = x.size // 2
    if half < 4:
        raise ValueError("need at least 8 draws")
    chains = np.stack([x[:half], x[half : 2 * half]])
    ranks = rankdata(chains, method="average").reshape(chains.shape)
    z = ndtri((ranks - 0.375) / (chains.size + 0.25))
    return _ess(z)


def min_bulk_ess(draws: np.ndarray) -> float:
    """Smallest bulk ESS over the columns of an (M, k) draw matrix."""
    return min(bulk_ess(draws[:, j]) for j in range(draws.shape[1]))
