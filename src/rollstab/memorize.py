"""Nearest-neighbor memorization test.

A sample is memorized when it sits much closer to its first neighbor in the
training pool than to its second, within a +-10 calendar-day window around
the sample's day of year (circular across the year boundary; Feb 29 counts
as Feb 28, see :func:`~rollstab.gridio.folded_doy`). Distances are
latitude-weighted L2 over per-variable standardized fields; the
standardization stats come from the training pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .gridio import (
    PreconditionError,
    RolloutSeries,
    cell_weights,
    folded_doy,
    require_finite,
)
from .perturb import variable_stats

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

    def embed(self, fields: np.ndarray) -> np.ndarray:
        """Standardize and weight one (n_var, lat, lon) sample (same path as
        the stored snapshots, so identical copies match exactly)."""
        fields = np.asarray(fields, dtype=np.float32)
        if fields.shape != (len(self.variables), *self.sqrt_weights.shape):
            raise ValueError("sample shape does not match the index variables/grid")
        parts = []
        for vi, v in enumerate(self.variables):
            mu, sigma = self.stats[v]
            scale = np.float32(1.0 / sigma) if sigma > 0 else np.float32(0.0)
            parts.append(((fields[vi] - np.float32(mu)) * scale
                          * self.sqrt_weights).ravel())
        return np.concatenate(parts)


def build_index(training: RolloutSeries, variables: tuple[str, ...] | None = None) -> NeighborIndex:
    """Index every timestep of the training series."""
    variables = tuple(variables) if variables else training.variables
    ts = training.timestamps
    dim = len(variables) * training.grid.n_lat * training.grid.n_lon
    idx = NeighborIndex(
        stats={v: variable_stats(training, v) for v in variables},  # rejects fill cells first
        vectors=np.empty((training.n_time, dim), dtype=np.float32),
        doys=folded_doy(ts),
        ids=tuple(str(t) for t in ts),
        variables=variables,
        sqrt_weights=np.sqrt(cell_weights(training.grid)).astype(np.float32),
    )
    for t in range(training.n_time):
        idx.vectors[t] = idx.embed(np.stack([training.values(v)[t] for v in variables]))
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
    ``window_days`` of the sample's (wrapping across the year boundary).
    """
    sample_doy = int(folded_doy(np.datetime64(sample_time, "s")))
    cand = np.flatnonzero(_circular_doy_distance(index.doys, sample_doy) <= window_days)
    if cand.size < 2:
        raise TooFewCandidatesError(
            f"only {cand.size} training snapshots within {window_days} days of "
            f"day-of-year {sample_doy}; need at least 2"
        )
    vec = index.embed(sample_fields)
    diff = index.vectors[cand].astype(np.float64) - vec.astype(np.float64)
    dists = np.sqrt((diff * diff).sum(axis=1))
    order = np.lexsort((cand, dists))  # distance, then snapshot index for ties
    i1, i2 = cand[order[0]], cand[order[1]]
    d1, d2 = float(dists[order[0]]), float(dists[order[1]])
    ratio = 0.0 if d1 == 0.0 else (float("inf") if d2 == 0.0 else d1 / d2)
    return DistanceRatio(ratio=ratio, d1=d1, d2=d2,
                         first_id=index.ids[i1], second_id=index.ids[i2])


def memorization_series(rollout: RolloutSeries, index: NeighborIndex,
                        window_days: int = 10) -> list[DistanceRatio]:
    """Distance ratio of every rollout timestep against the index."""
    for v in index.variables:
        require_finite(rollout, v)
    ts = rollout.timestamps
    out = []
    for t in range(rollout.n_time):
        fields = np.stack([rollout.values(v)[t] for v in index.variables])
        out.append(distance_ratio(fields, ts[t].astype(datetime), index,
                                  window_days=window_days))
    return out
