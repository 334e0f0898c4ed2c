import json
import math
import pathlib

import numpy as np
import pytest

from bdw.datasets import BivariateDataset, builtin_dataset

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def football():
    return builtin_dataset("football")


@pytest.fixture(scope="session")
def nasal():
    return builtin_dataset("nasal")


@pytest.fixture(scope="session")
def wide_panel():
    # the 1000-row draw from the wide-support law (alpha 1.2, p 0.97, 0.95,
    # 0.96) that the cells-wide benchmark workload fits: ~390 cells
    rng = np.random.default_rng([1804_11205, 0])
    life = [rng.weibull(1.2, size=1000) * (-math.log(p)) ** (-1.0 / 1.2) for p in (0.97, 0.95, 0.96)]
    x1 = np.floor(np.minimum(life[0], life[1]))
    x2 = np.floor(np.minimum(life[0], life[2]))
    return BivariateDataset.from_pairs(np.column_stack([x1, x2]).astype(np.int64))


@pytest.fixture
def rng():
    return np.random.default_rng(20250822)


@pytest.fixture(scope="session")
def report_schema():
    with open(ROOT / "docs" / "report.schema.json") as fh:
        return json.load(fh)
