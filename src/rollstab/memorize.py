"""Nearest-neighbor memorization test.

A sample is memorized when it sits much closer to its first neighbor in the
training pool than to its second, within a +-10 calendar-day window around
the sample's day of year (circular across the year boundary; Feb 29 counts
as Feb 28, see :func:`~rollstab.gridio.folded_doy`). Distances are
latitude-weighted L2 over per-variable standardized fields; the
standardization stats come from the training pool.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .gridio import (GridSpec, PreconditionError, RolloutFile, RolloutSeries, cell_weights,
                     folded_doy, tile_rows, walk)
from .perturb import pooled_stats

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


def _window(index: NeighborIndex, doys, window_days: int) -> np.ndarray:
    """(len(doys), n_snapshots) mask of the snapshots whose day of year lies
    within ``window_days`` of each of ``doys`` (wrapping across the year
    boundary); :class:`TooFewCandidatesError` names the first of ``doys`` with
    fewer than two."""
    mask = _circular_doy_distance(index.doys, np.asarray(doys)[:, None]) <= window_days
    for doy, n in zip(doys, mask.sum(axis=1)):
        if n < 2:
            raise TooFewCandidatesError(
                f"only {n} training snapshots within {window_days} days of "
                f"day-of-year {doy}; need at least 2"
            )
    return mask


def _nearest_two(e: np.ndarray, cand: np.ndarray, index: NeighborIndex) -> DistanceRatio:
    """The first and second of the snapshots ``cand`` by distance
    to the embedded sample ``e``, then by snapshot index: the float64
    difference to a :func:`~rollstab.gridio.tile_rows` tile of them at a time,
    whose squares are summed per snapshot and square-rooted."""
    tile = tile_rows(index.vectors.shape[1])
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


def distance_ratio(sample_fields: np.ndarray, sample_time: datetime,
                   index: NeighborIndex, window_days: int = 10) -> DistanceRatio:
    """First-to-second neighbor distance ratio inside the calendar window.

    Exhaustive search over candidates whose day of year lies within
    ``window_days`` of the sample's (wrapping across the year boundary): the
    float64 difference to every one of them, a
    :func:`~rollstab.gridio.tile_rows` tile at a time. It is the per-sample
    reference that :func:`memorization_series` equals byte for byte.
    """
    sample_doy = int(folded_doy(np.datetime64(sample_time, "s")))
    cand = np.flatnonzero(_window(index, [sample_doy], window_days)[0])
    return _nearest_two(index.embed(sample_fields), cand, index)


def _shortlist(e: np.ndarray, inside: np.ndarray, index: NeighborIndex) -> list[np.ndarray]:
    """Per embedded sample (a row of ``e``), the in-window snapshots (a row of
    the mask ``inside``) that can be its first or second neighbor.

    One float64 matrix product of the samples against a
    :func:`~rollstab.gridio.tile_rows` tile of the union of their candidates
    at a time estimates every squared distance as
    D = fl(fl(‖e‖² + ‖x‖²) − 2·fl(e·x)). A snapshot is kept unless its
    D − B exceeds the second smallest D + B of the sample's window, where
    B = (4n + 18)·ε·(‖e‖² + ‖x‖²), n the vector length and ε = 2u = 2⁻⁵². The
    kept snapshots include the first two by (distance, snapshot index) of
    :func:`_nearest_two`, which re-checks them.

    Why (γₖ = ku/(1 − ku); Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., §2.2 and §3.1): the vectors are float32, so no
    product or sum of them in float64 underflows or overflows, and every
    operation obeys fl(a ∘ b) = (a ∘ b)(1 + θ), |θ| ≤ u. A sum of k terms in
    any order, so in any BLAS's, is within γₖ₋₁ of the sum of their
    magnitudes. Let M = ‖e‖² + ‖x‖² and δ² = ‖x − e‖², exact.

    1. The value :func:`_nearest_two` computes, d², sums the terms
       fl(fl(xᵢ − eᵢ)²) = (xᵢ − eᵢ)²(1 + θᵢ), |θᵢ| ≤ γ₃, so
       |d² − δ²| ≤ γₙ₊₂·δ² ≤ 2γₙ₊₂·M, as δ² ≤ 2M.
    2. The norms are within γₙ of ‖e‖² and ‖x‖², and the product within
       γₙ·Σ|eᵢxᵢ| ≤ γₙ·M/2 of e·x. The sum of the norms and the difference
       add two roundings of quantities at most 2(1 + γₙ)(1 + u)M, so
       |D − δ²| ≤ (2γₙ + γ₃(1 + γₙ))·M ≤ γ₂ₙ₊₃·M.
    3. fl(√·) is monotone, and two squared distances a < b round to the same
       distance only if b ≤ a(1 + u)²/(1 − u)² ≤ a(1 + 5u). A snapshot that
       ties the second neighbor after the square root is then within
       5u·2(1 + γₙ₊₂)M ≤ 11u·M of its squared distance.

    Let β = γ₄ₙ₊₁₈ ≥ 2γₙ₊₂ + γ₂ₙ₊₃ + 11u. By 1–3, each of the first two has
    D − βM at most the second smallest d² of the window, which is at most the
    second smallest D + βM, since D + βM ≥ d² for every snapshot. B is twice
    βM to first order, and the excess covers the rounding of M, of B itself
    and of D ± B for any n below 10¹². A NaN estimate, from an infinite
    embedded value, is kept.
    """
    cand = np.flatnonzero(inside.any(axis=0))
    e64 = e.astype(np.float64)
    norms_e = np.einsum("ij,ij->i", e64, e64)[:, None]
    est = np.empty((len(e), cand.size))
    bound = np.empty_like(est)
    tile = tile_rows(e.shape[1])
    for lo in range(0, cand.size, tile):
        x = index.vectors[cand[lo:lo + tile]].astype(np.float64)
        bound[:, lo:lo + tile] = norms_e + np.einsum("ij,ij->i", x, x)
        est[:, lo:lo + tile] = bound[:, lo:lo + tile] - 2 * (e64 @ x.T)
    bound *= (4 * e.shape[1] + 18) * np.finfo(np.float64).eps
    inside = inside[:, cand]
    second = np.partition(np.where(inside, est + bound, np.inf), 1, axis=1)[:, 1:2]
    keep = inside & ~(est - bound > second)
    return [cand[k] for k in keep]


def memorization_series(rollout: RolloutSeries | RolloutFile, index: NeighborIndex,
                        window_days: int = 10) -> list[DistanceRatio]:
    """Distance ratio of every rollout timestep against the index, scored in
    one walk of the rollout, which must lie on the index's grid; each result
    equals :func:`distance_ratio`'s, byte for byte.

    A block's frames are embedded and scored in groups of consecutive steps
    whose days of year lie within ``window_days`` of the group's first, so
    their windows overlap, at most a :func:`~rollstab.gridio.tile_rows` tile
    of them. :func:`_shortlist` keeps the snapshots that can be a step's first
    or second neighbor, and :func:`_nearest_two` re-checks those. It all runs
    on the calling thread, whose matrix products use numpy's BLAS threads."""
    if not rollout.grid.same_geometry(index.grid):
        raise ValueError("rollout and index grids differ")
    cols = [rollout.index_of(v) for v in index.variables]
    doys = folded_doy(rollout.timestamps)
    group = tile_rows(index.vectors.shape[1])
    out = []
    # on any exit, a file walk's hashing thread ends here
    with closing(walk(rollout, index.variables)) as blocks:
        for block in blocks:
            s = 0
            while s < len(block):
                t = len(out)
                near = _circular_doy_distance(doys[t:t + min(group, len(block) - s)],
                                              doys[t]) <= window_days
                g = near.size if near.all() else int(near.argmin())
                inside = _window(index, doys[t:t + g], window_days)
                x = np.asarray(block[s:s + g, cols], dtype=np.float32)
                e = index._standardize(x).reshape(g, -1)
                out.extend(_nearest_two(row, kept, index)
                           for row, kept in zip(e, _shortlist(e, inside, index)))
                s += g
    return out
