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
from typing import Iterator

import numpy as np

from .gridio import (GridSpec, PreconditionError, RolloutFile, RolloutSeries, cell_weights,
                     folded_doy, tile_rows, walk)
from .perturb import pooled_stats

MEMORIZED_THRESHOLD = 0.5


class TooFewCandidatesError(PreconditionError):
    """Fewer than two training snapshots inside the day-of-year window."""


@dataclass
class NeighborIndex:
    """Standardized, latitude-weighted, flattened training snapshots: held in
    ``vectors`` for an index in memory, or read again from the file
    ``source`` a tile at a time by :meth:`tiles`."""

    doys: np.ndarray  # folded days of year, 1..365
    ids: tuple[str, ...]
    variables: tuple[str, ...]
    stats: dict[str, tuple[float, float]]
    sqrt_weights: np.ndarray  # (n_lat, n_lon)
    grid: GridSpec  # the training grid
    vectors: np.ndarray | None = None  # (n_snapshots, dim) float32
    source: RolloutFile | None = None

    def embed(self, fields: np.ndarray) -> np.ndarray:
        """Standardize and weight one (n_var, lat, lon) sample (same path as
        the snapshots, so identical copies match exactly)."""
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

    def tiles(self) -> Iterator[tuple[int, np.ndarray]]:
        """The snapshots, standardized, as (index of the first, float32
        (rows, dim) array) pairs of a :func:`~rollstab.gridio.tile_rows` tile
        each: views of ``vectors``, or one scratch array refilled from a
        :func:`~rollstab.gridio.walk` of ``source`` and valid until the next
        tile is taken."""
        tile = tile_rows(len(self.variables) * self.sqrt_weights.size)
        if self.vectors is not None:
            for lo in range(0, len(self.vectors), tile):
                yield lo, self.vectors[lo:lo + tile]
            return
        cols = [self.source.index_of(v) for v in self.variables]
        scratch = np.empty((tile, len(cols), *self.sqrt_weights.shape), dtype=np.float32)
        s = 0
        with closing(walk(self.source, self.variables)) as blocks:
            for block in blocks:
                for lo in range(0, len(block), tile):
                    x = scratch[:len(block) - lo]
                    for j, i in enumerate(cols):
                        x[:, j] = block[lo:lo + len(x), i]
                    yield s + lo, self._standardize(x).reshape(len(x), -1)
                s += len(block)


def build_index(training: RolloutSeries | RolloutFile, variables=None) -> NeighborIndex:
    """Index every timestep of the training series. Its stats take one walk,
    :func:`~rollstab.perturb.pooled_stats`, which hashes a file. A file's
    snapshots are not held: :meth:`NeighborIndex.tiles` reads them again.
    A series in memory is copied into ``vectors``, standardized in place."""
    variables = tuple(variables) if variables else training.variables
    idx = NeighborIndex(
        doys=folded_doy(training.timestamps),
        ids=tuple(str(t) for t in training.timestamps),
        variables=variables,
        stats=pooled_stats(training, variables),
        sqrt_weights=np.sqrt(cell_weights(training.grid)).astype(np.float32),
        grid=training.grid,
    )
    if isinstance(training, RolloutFile):
        idx.source = training
    else:
        x = training.data[:, [training.index_of(v) for v in variables]]
        idx.vectors = idx._standardize(x).reshape(len(x), -1)
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


def check_windows(index_doys: np.ndarray, doys, window_days: int) -> None:
    """:class:`TooFewCandidatesError` naming the first of ``doys`` with fewer
    than two of ``index_doys`` within ``window_days`` of it (wrapping across
    the year boundary). Days of year are all it needs, so it comes before
    any walk."""
    days = np.arange(1, 366)
    near = _circular_doy_distance(days, days[:, None]) <= window_days
    doys = np.asarray(doys)
    counts = (near @ np.bincount(index_doys, minlength=366)[1:])[doys - 1]
    few = np.flatnonzero(counts < 2)
    if few.size:
        raise TooFewCandidatesError(
            f"only {counts[few[0]]} training snapshots within {window_days} days of "
            f"day-of-year {doys[few[0]]}; need at least 2"
        )


def distance_ratio(sample_fields: np.ndarray, sample_time: datetime,
                   index: NeighborIndex, window_days: int = 10) -> DistanceRatio:
    """First-to-second neighbor distance ratio inside the calendar window of
    candidates whose day of year lies within ``window_days`` of the sample's
    (wrapping across the year boundary): :func:`_search` for one sample, as
    :func:`memorization_series` scores each of a rollout's."""
    doys = folded_doy(np.array([sample_time], dtype="datetime64[s]"))
    check_windows(index.doys, doys, window_days)
    return _search(index, index.embed(sample_fields)[None], doys, window_days)[0]


def _shortlist(e: np.ndarray, x: np.ndarray, inside: np.ndarray,
               upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Of a tile of float64 snapshots ``x``, those in each embedded sample's
    window (a row of float32 ``e`` and of the mask ``inside``) that can still
    be its first or second neighbor; and ``upper``, each sample's two
    smallest D + B so far, updated with the tile's.

    One float64 matrix product of the samples against the tile estimates
    every squared distance as D = fl(fl(‖e‖² + ‖x‖²) − 2·fl(e·x)). A snapshot
    is kept unless its D − B exceeds the second smallest D + B of the
    sample's window so far, this tile included, where
    B = (4n + 18)·ε·(‖e‖² + ‖x‖²), n the vector length and ε = 2u = 2⁻⁵². The
    kept snapshots include the first two by (distance, snapshot index) of
    the exact search, which :func:`_search` re-checks.

    Why (γₖ = ku/(1 − ku); Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., §2.2 and §3.1): the vectors are float32, so no
    product or sum of them in float64 underflows or overflows, and every
    operation obeys fl(a ∘ b) = (a ∘ b)(1 + θ), |θ| ≤ u. A sum of k terms in
    any order, so in any BLAS's, is within γₖ₋₁ of the sum of their
    magnitudes. Let M = ‖e‖² + ‖x‖² and δ² = ‖x − e‖², exact.

    1. The exact re-check's value, d², sums the terms
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
    and of D ± B for any n below 10¹². The second smallest D + B over the
    tiles seen so far is never below the one over the whole window, as the
    tiles seen are part of it: a snapshot kept by the whole window's value
    is kept by the running one. A NaN estimate, from an infinite embedded
    value, is kept.
    """
    e64 = e.astype(np.float64)
    bound = np.einsum("ij,ij->i", e64, e64)[:, None] + np.einsum("ij,ij->i", x, x)
    est = bound - 2 * (e64 @ x.T)
    bound *= (4 * e.shape[1] + 18) * np.finfo(np.float64).eps
    upper = np.partition(np.concatenate([upper, np.where(inside, est + bound, np.inf)], axis=1),
                         1, axis=1)[:, :2]
    return inside & ~(est - bound > upper[:, 1:]), upper


def _search(index: NeighborIndex, e: np.ndarray, doys: np.ndarray,
            window_days: int) -> list[DistanceRatio]:
    """The first and second neighbor, by distance and then snapshot index,
    of each embedded sample (a row of float32 ``e``, on day of year ``doys``)
    among the snapshots within ``window_days`` of its day, in one pass over
    :meth:`NeighborIndex.tiles`.

    The samples whose windows meet a tile are taken a
    :func:`~rollstab.gridio.tile_rows` tile at a time. :func:`_shortlist`
    keeps the snapshots that can still be their first or second neighbor,
    and while the tile is held those are re-checked exactly: the float64
    difference to at most a tile of (sample, snapshot) pairs at a time,
    squared, summed per pair and square-rooted, then ordered with the
    sample's two nearest so far. It all runs on the calling thread, whose
    matrix products use numpy's BLAS threads."""
    none = len(index.ids)  # the snapshot index of an empty place, after every other
    dist, near = np.full((len(e), 2), np.nan), np.full((len(e), 2), none)
    upper = np.full((len(e), 2), np.inf)
    tile = tile_rows(e.shape[1])
    with closing(index.tiles()) as tiles:
        for first, x in tiles:
            ids = first + np.arange(len(x))
            inside = _circular_doy_distance(index.doys[ids], doys[:, None]) <= window_days
            samples = np.flatnonzero(inside.any(axis=1))
            if not samples.size:
                continue
            x64 = x.astype(np.float64)
            for lo in range(0, samples.size, tile):
                at = samples[lo:lo + tile]
                keep, upper[at] = _shortlist(e[at], x64, inside[at], upper[at])
                d = np.full(keep.shape, np.nan)
                rows, cols = np.nonzero(keep)
                for a in range(0, rows.size, tile):
                    r, c = rows[a:a + tile], cols[a:a + tile]
                    diff = x[c].astype(np.float64)
                    diff -= e[at[r]]
                    d[r, c] = np.square(diff, out=diff).sum(axis=1)
                d = np.concatenate([dist[at], np.sqrt(d, out=d)], axis=1)
                i = np.concatenate([near[at], np.where(keep, ids, none)], axis=1)
                top = np.lexsort((i, d), axis=1)[:, :2]
                dist[at], near[at] = np.take_along_axis(d, top, 1), np.take_along_axis(i, top, 1)
    out = []
    for (d1, d2), (i1, i2) in zip(dist.tolist(), near.tolist()):
        ratio = 0.0 if d1 == 0.0 else (float("inf") if d2 == 0.0 else d1 / d2)
        out.append(DistanceRatio(ratio=ratio, d1=d1, d2=d2,
                                 first_id=index.ids[i1], second_id=index.ids[i2]))
    return out


def memorization_series(rollout: RolloutSeries | RolloutFile, index: NeighborIndex,
                        window_days: int = 10) -> list[DistanceRatio]:
    """Distance ratio of every rollout timestep against the index; each result
    equals :func:`distance_ratio`'s, byte for byte. The rollout must lie on
    the index's grid, and each step's window must hold two snapshots, which
    is checked first.

    One walk of the rollout embeds all its steps into one float32
    (n_steps, dim) array, and :func:`_search` scores them all in one more
    pass over the index. So the index is never held whole: a file's is read
    a tile at a time, and the memory is the rollout's embedding, one block
    and a few tiles, whatever the index's length."""
    if not rollout.grid.same_geometry(index.grid):
        raise ValueError("rollout and index grids differ")
    doys = folded_doy(rollout.timestamps)
    check_windows(index.doys, doys, window_days)
    cols = [rollout.index_of(v) for v in index.variables]
    e = np.empty((rollout.n_time, len(cols), *index.sqrt_weights.shape), dtype=np.float32)
    s = 0
    # on any exit, a file walk's hashing thread ends here
    with closing(walk(rollout, index.variables)) as blocks:
        for block in blocks:
            for j, i in enumerate(cols):
                e[s:s + len(block), j] = block[:, i]
            index._standardize(e[s:s + len(block)])
            s += len(block)
    return _search(index, e.reshape(len(e), -1), doys, window_days)
