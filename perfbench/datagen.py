"""Benchmark-owned input generator, independent of ``bdw.sample``.

Pairs follow the shock construction of the bivariate discrete Weibull
law: three independent continuous Weibull lifetimes with common shape
``alpha`` and rates ``-ln p0``, ``-ln p1``, ``-ln p2``; each coordinate is
the floor of the minimum of the shared lifetime and its own.  The draws
use only numpy, so a change to the package's sampler leaves the workload
data unchanged.
"""

from __future__ import annotations

import math

import numpy as np


def draw_pairs(law: dict, n: int, seed) -> np.ndarray:
    """``n`` pairs from the law ``{alpha, p0, p1, p2}``, as an (n, 2) int array.

    ``seed`` is anything ``numpy.random.default_rng`` accepts.
    """
    rng = np.random.default_rng(seed)
    alpha = law["alpha"]
    life = [
        rng.weibull(alpha, size=n) * (-math.log(law[k])) ** (-1.0 / alpha)
        for k in ("p0", "p1", "p2")
    ]
    x1 = np.floor(np.minimum(life[0], life[1]))
    x2 = np.floor(np.minimum(life[0], life[2]))
    return np.column_stack([x1, x2]).astype(np.int64)


def write_csv(path: str, pairs: np.ndarray) -> None:
    lines = ["x1,x2"] + [f"{a},{b}" for a, b in pairs.tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def describe(pairs) -> dict:
    """Size and shape of a dataset: the properties the layers' costs follow."""
    arr = np.asarray(pairs, dtype=np.int64)
    n = int(arr.shape[0])
    cells = {tuple(p) for p in arr.tolist()}
    top1, top2 = int(arr[:, 0].max()), int(arr[:, 1].max())
    return {
        "n": n,
        "distinct_cells": len(cells),
        "product_grid": (top1 + 1) * (top2 + 1),
        "tie_share": float(np.mean(arr[:, 0] == arr[:, 1])),
        "zero_share": float(np.mean((arr == 0).any(axis=1))),
    }
