import os

import numpy as np
import pytest
from hypothesis import settings

# HYPOTHESIS_PROFILE=ci runs every property test on many more examples
settings.register_profile("default", max_examples=60, deadline=None)
settings.register_profile("ci", max_examples=600, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

from fairmiss.data import Dataset


def random_dataset(rng, n=40, d=3, groups=2, missing_rate=0.2, ensure_cells=True):
    """Small random dataset with NaN holes; guarantees non-empty (s, y) cells."""
    while True:
        x = rng.normal(size=(n, d))
        holes = rng.random((n, d)) < missing_rate
        # keep at least one observed value per feature
        for j in range(d):
            if holes[:, j].all():
                holes[rng.integers(0, n), j] = False
        x[holes] = np.nan
        s = rng.integers(0, groups, size=n)
        y = rng.integers(0, 2, size=n)
        ds = Dataset(x, s, y)
        if not ensure_cells:
            return ds
        sizes = [len(idx) for _, idx in ds.cells()]
        if min(sizes) >= 2:
            return ds


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
