"""Nearest-neighbor memorization test.

A sample is memorized when it sits much closer to its first neighbor in the
training pool than to its second, within a +-10 calendar-day window around
the sample's day of year (circular across the year boundary; Feb 29 counts
as Feb 28, see :func:`~rollstab.gridio.folded_doy`). Distances are
latitude-weighted L2 over per-variable standardized fields; the
standardization stats come from the training pool.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .gridio import (GridSpec, PreconditionError, RolloutFile, RolloutSeries, cell_weights,
                     folded_doy, tile_rows, walk)
from .perturb import pooled_stats
from .spectra import thread_count

MEMORIZED_THRESHOLD = 0.5


class TooFewCandidatesError(PreconditionError):
    """Fewer than two training snapshots inside the day-of-year window."""


@dataclass
class NeighborIndex:
    """Standardized, latitude-weighted, flattened training snapshots."""

    vectors: np.ndarray  # (n_snapshots, dim) float32
    doys: np.ndarray  # folded days of year, 1..365
    ids: tuple[str, ...]
    variables: tuple[str, ...]
    stats: dict[str, tuple[float, float]]
    sqrt_weights: np.ndarray  # (n_lat, n_lon)
    grid: GridSpec  # the training grid

    def embed(self, fields: np.ndarray) -> np.ndarray:
        """Standardize and weight one (n_var, lat, lon) sample (same path as
        the stored snapshots, so identical copies match exactly)."""
        fields = np.array(fields, dtype=np.float32)
        if fields.shape != (len(self.variables), *self.sqrt_weights.shape):
            raise ValueError("sample shape does not match the index variables/grid")
        return self._standardize(fields).ravel()

    def _standardize(self, x: np.ndarray) -> np.ndarray:
        """Standardize and weight float32 (..., n_var, lat, lon) samples in place."""
        for vi, v in enumerate(self.variables):
            mu, sigma = self.stats[v]
            scale = np.float32(1.0 / sigma) if sigma > 0 else np.float32(0.0)
            x[..., vi, :, :] -= np.float32(mu)
            x[..., vi, :, :] *= scale
            x[..., vi, :, :] *= self.sqrt_weights
        return x


def build_index(training: RolloutSeries | RolloutFile, variables=None) -> NeighborIndex:
    """Index every timestep of the training series in one walk, which copies
    its frames into the float32 array that, standardized in place, is ``vectors``."""
    variables = tuple(variables) if variables else training.variables
    grid, ts = training.grid, training.timestamps
    cols = [training.index_of(v) for v in variables]
    x = np.empty((training.n_time, len(cols), grid.n_lat, grid.n_lon), dtype=np.float32)
    s = 0
    for block in walk(training, variables):
        for j, i in enumerate(cols):
            x[s : s + len(block), j] = block[:, i]
        s += len(block)
    block = None  # a view of the walk's buffer, freed before the stats walk
    idx = NeighborIndex(
        vectors=x.reshape(len(x), -1),
        doys=folded_doy(ts),
        ids=tuple(str(t) for t in ts),
        variables=variables,
        stats=pooled_stats(RolloutSeries(grid=grid, variables=variables, data=x,
                                         start_time=training.start_time), variables),
        sqrt_weights=np.sqrt(cell_weights(grid)).astype(np.float32),
        grid=grid,
    )
    idx._standardize(x)
    return idx


def _circular_doy_distance(a, b) -> np.ndarray:
    d = np.abs(np.asarray(a) - np.asarray(b))
    return np.minimum(d, 365 - d)


@dataclass(frozen=True)
class DistanceRatio:
    ratio: float
    d1: float
    d2: float
    first_id: str
    second_id: str

    @property
    def memorized(self) -> bool:
        return self.ratio <= MEMORIZED_THRESHOLD


def distance_ratio(sample_fields: np.ndarray, sample_time: datetime,
                   index: NeighborIndex, window_days: int = 10) -> DistanceRatio:
    """First-to-second neighbor distance ratio inside the calendar window.

    Exhaustive search over candidates whose day of year lies within
    ``window_days`` of the sample's (wrapping across the year boundary), in
    float64 a :func:`~rollstab.gridio.tile_rows` tile of candidates at a time.
    """
    sample_doy = int(folded_doy(np.datetime64(sample_time, "s")))
    cand = np.flatnonzero(_circular_doy_distance(index.doys, sample_doy) <= window_days)
    if cand.size < 2:
        raise TooFewCandidatesError(
            f"only {cand.size} training snapshots within {window_days} days of "
            f"day-of-year {sample_doy}; need at least 2"
        )
    e, tile = index.embed(sample_fields), tile_rows(index.vectors.shape[1])
    dists = np.empty(cand.size)
    for lo in range(0, cand.size, tile):
        diff = index.vectors[cand[lo:lo + tile]].astype(np.float64)
        diff -= e
        dists[lo:lo + tile] = np.square(diff, out=diff).sum(axis=1)
    np.sqrt(dists, out=dists)
    order = np.lexsort((cand, dists))  # distance, then snapshot index for ties
    i1, i2 = cand[order[0]], cand[order[1]]
    d1, d2 = float(dists[order[0]]), float(dists[order[1]])
    ratio = 0.0 if d1 == 0.0 else (float("inf") if d2 == 0.0 else d1 / d2)
    return DistanceRatio(ratio=ratio, d1=d1, d2=d2,
                         first_id=index.ids[i1], second_id=index.ids[i2])


def memorization_series(rollout: RolloutSeries | RolloutFile, index: NeighborIndex,
                        window_days: int = 10) -> list[DistanceRatio]:
    """Distance ratio of every rollout timestep against the index, scored in
    one walk of the rollout, which must lie on the index's grid. Each block's
    frames are all scored, in order, on a pool of :func:`~rollstab.spectra.thread_count`
    workers before the walk refills its buffer with the next block."""
    if not rollout.grid.same_geometry(index.grid):
        raise ValueError("rollout and index grids differ")
    cols = [rollout.index_of(v) for v in index.variables]
    ts = rollout.timestamps.astype(datetime)
    out = []
    # on any exit, the pool's threads and a file walk's hashing thread end here
    with closing(walk(rollout, index.variables)) as blocks, \
            ThreadPoolExecutor(min(thread_count(), rollout.n_time)) as pool:
        for block in blocks:
            out.extend(pool.map(lambda f, t: distance_ratio(f[cols], t, index, window_days),
                                block, ts[len(out):len(out) + len(block)]))
    return out
