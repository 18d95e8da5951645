from datetime import datetime

import numpy as np
import pytest

from rollstab import GLOBE, GridSpec, RolloutSeries, region_mask, scan


@pytest.fixture
def small_grid():
    return GridSpec.regular(8, 16)


@pytest.fixture
def fine_grid():
    # resolves all three wavelength bands (small band needs n_lon >= 324)
    return GridSpec.regular(16, 384)


def make_series(grid, data, start=datetime(2021, 1, 1), step_seconds=21600,
                variables=("T2m",)):
    return RolloutSeries(grid=grid, variables=variables, start_time=start,
                         data=np.asarray(data, dtype=np.float32),
                         step_seconds=step_seconds)


def global_extremes(r, v="T2m"):
    """Per-step spatial extremes of ``v`` over the whole grid, from one scan."""
    return scan(r, (v,), spectra=None, regions=(GLOBE,)).regional[v][GLOBE.name]


def region_scan(r, region, v="T2m"):
    """One region's extremes, from one scan, and its (time, cells) sample,
    masked from the whole array."""
    ext = scan(r, (v,), spectra=None, regions=[region]).regional[v][region.name]
    return ext, r.values(v)[:, region_mask(r.grid, region)[0]]


@pytest.fixture
def random_series(small_grid):
    rng = np.random.default_rng(7)
    data = rng.standard_normal((12, 1, small_grid.n_lat, small_grid.n_lon))
    return make_series(small_grid, data)
