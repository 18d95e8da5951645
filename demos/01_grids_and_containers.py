"""Grids, latitude weighting, regions, and the RGF container.

Builds a coarse global grid, shows how area weights and region masks work,
and round-trips a rollout through the on-disk RGF1 format.
"""

import tempfile
from datetime import datetime
from pathlib import Path

import numpy as np

import rollstab as rs

# a 1.5-degree grid: 121 latitude rows, 240 longitude columns
grid = rs.GridSpec.from_resolution(1.5)
print(f"grid: {grid.n_lat} x {grid.n_lon}, lats {grid.lats[0]}..{grid.lats[-1]}")

# area weights: cos(lat), zero at the poles, normalized to sum 1
w = rs.latitude_weights(grid)
print(f"weights: sum={w.sum():.12f}, equator={w[60]:.5f}, pole={w[0]}")

# built-in analysis regions; longitudes west of Greenwich are accepted as
# negative and live on the 0..360 axis internally
for name, region in rs.builtin_regions().items():
    mask, count = rs.region_mask(grid, region)
    print(f"  {name:15s} {count:6d} px")

# a rollout container: (time, variable, lat, lon) float32 + grid + clock
rng = np.random.default_rng(0)
series = rs.RolloutSeries(
    grid=grid,
    variables=("T2m", "Z500"),
    start_time=datetime(2021, 1, 1),
    data=rng.standard_normal((8, 2, grid.n_lat, grid.n_lon)).astype(np.float32),
    step_seconds=21600,
)
# one pass over the time steps reduces each field to its min and max over
# a region; GLOBE is the whole grid
ext = rs.scan(series, ("T2m",), spectra=None, regions=[rs.GLOBE]).regional["T2m"]["globe"]
print(f"T2m global extremes at t0: min={ext.min[0]:+.3f} max={ext.max[0]:+.3f}")

with tempfile.TemporaryDirectory() as d:
    path = Path(d) / "demo.rgf"
    rs.write_rollout(series, path)
    back = rs.read_rollout(path)
    print(f"RGF round trip: {path.stat().st_size} bytes, "
          f"payload identical: {np.array_equal(back.data, series.data)}")
