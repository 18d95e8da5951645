"""Zonal Fourier energy spectra with latitude weighting and wavelength bands.

The energy at wavenumber k is the amplitude |c_k| of the discrete Fourier
coefficient taken along longitude with 1/n_lon normalization, combined
across latitude rows with area weights. Wavelengths map to wavenumbers via
the equatorial circumference, lambda_k = 2*pi*R / k; k = 0 counts as
infinite wavelength. Bands: large >= 5000 km (including k = 0), medium
250..1000 km, small < 250 km. Wavelengths between 1000 and 5000 km belong
to no band.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, nullcontext
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .climatology import PoolChangedError, PoolSelect, ThresholdSet
from .gridio import (
    Buckets,
    DailySeries,
    Extremes,
    FormatError,
    GridSpec,
    PreconditionError,
    RolloutFile,
    RolloutSeries,
    block_rows,
    latitude_weights,
    named,
    region_mask,
    tile_rows,
    walk,
)

LARGE_MIN_KM = 5000.0
MEDIUM_MIN_KM = 250.0
MEDIUM_MAX_KM = 1000.0
SMALL_MAX_KM = 250.0

BANDS = ("large", "medium", "small")


class BandUnresolvedError(PreconditionError):
    """The requested wavelength band contains no wavenumbers on this grid."""


class ThreadCountError(ValueError):
    """ROLLOUT_STAB_THREADS is set but is not a positive integer."""


def thread_count() -> int:
    """Worker count of the spectra pool: ROLLOUT_STAB_THREADS if set, else
    the CPUs this process may run on."""
    env = os.environ.get("ROLLOUT_STAB_THREADS")
    if not env:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n < 1:
        raise ThreadCountError(f"ROLLOUT_STAB_THREADS must be a positive integer, got {env!r}")
    return n


def wavelength_of(k: int, grid: GridSpec) -> float:
    """Wavelength in km of zonal wavenumber k; k = 0 maps to +inf."""
    if k < 0:
        raise ValueError("wavenumber must be >= 0")
    if k == 0:
        return float("inf")
    return 2.0 * np.pi * grid.earth_radius_km / k


def wavelengths(grid: GridSpec) -> np.ndarray:
    """Wavelengths for the half-spectrum k = 0..n_lon//2, inf at k = 0."""
    k = np.arange(grid.n_lon // 2 + 1, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return np.where(k == 0, np.inf, 2.0 * np.pi * grid.earth_radius_km / k)


def band_members(grid: GridSpec, band: str) -> np.ndarray:
    """Wavenumber indices belonging to a band; raises if the band is empty."""
    lam = wavelengths(grid)
    if band == "large":
        sel = lam >= LARGE_MIN_KM
    elif band == "medium":
        sel = (lam >= MEDIUM_MIN_KM) & (lam <= MEDIUM_MAX_KM)
    elif band == "small":
        sel = lam < SMALL_MAX_KM
    else:
        raise ValueError(f"unknown band {band!r}; expected one of {BANDS}")
    idx = np.flatnonzero(sel)
    if idx.size == 0:
        raise BandUnresolvedError(
            f"band {band!r} unresolved: no wavenumbers on a grid with n_lon={grid.n_lon}"
        )
    return idx


def zonal_spectrum(field: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Latitude-weighted zonal amplitude spectrum of a (lat, lon) field.

    Returns one value per wavenumber k = 0..n_lon//2.
    """
    if grid.n_lon < 4:
        raise ValueError("zonal spectra need at least 4 longitude points")
    field = np.asarray(field)
    if field.shape != (grid.n_lat, grid.n_lon):
        raise ValueError(
            f"field shape {field.shape} does not match grid ({grid.n_lat}, {grid.n_lon})"
        )
    return _spectra(field[None], latitude_weights(grid))[0]


def band_average(energy: np.ndarray, grid: GridSpec, band: str) -> np.ndarray:
    """Unweighted mean of energy over the wavenumbers of one band.

    ``energy`` may be a single spectrum (n_k,) or a stack (..., n_k).
    """
    idx = band_members(grid, band)
    energy = np.asarray(energy)
    if energy.shape[-1] != grid.n_lon // 2 + 1:
        raise ValueError("energy last axis does not match the grid half-spectrum")
    return energy[..., idx].mean(axis=-1)


@dataclass(frozen=True)
class SpectrumSeries:
    """Zonal spectra, one per step or one per UTC day, plus band-averaged series.

    A band entry is None when that band contains no wavenumbers on the grid
    (the small band on coarse grids); consumers that need it get an explicit
    error from :meth:`band`, never a silent zero.
    """

    timestamps: np.ndarray  # datetime64[s]
    wavenumbers: np.ndarray
    energy: np.ndarray  # (time, n_k)
    band_large: np.ndarray
    band_medium: np.ndarray | None
    band_small: np.ndarray | None
    grid: GridSpec

    @property
    def n_time(self) -> int:
        return self.energy.shape[0]

    def band(self, name: str) -> np.ndarray:
        vals = {"large": self.band_large, "medium": self.band_medium, "small": self.band_small}[name]
        if vals is None:
            raise BandUnresolvedError(
                f"band {name!r} unresolved on a grid with n_lon={self.grid.n_lon}"
            )
        return vals

    def daily_band(self, name: str) -> DailySeries:
        """One band of daily spectra (``spectrum_series(..., daily=True)``)."""
        dates = self.timestamps.astype("datetime64[D]")
        if np.unique(dates).size != dates.size:
            raise ValueError("daily_band needs spectrum_series(..., daily=True)")
        return DailySeries(dates, self.band(name))


def _spectra(fields: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Amplitude spectra (time, n_k) of a (time, lat, lon) stack, weighted
    over latitude by ``w``; written into ``out`` if given. The cast comes
    first because numpy transforms float32 input in single precision."""
    amp = np.abs(np.fft.rfft(fields.astype(np.float64), axis=-1)) / fields.shape[-1]
    return np.einsum("j,tjk->tk", w, amp, out=out)


def _series(timestamps: np.ndarray, energy: np.ndarray, grid: GridSpec) -> SpectrumSeries:
    bands = {}
    for name in BANDS:
        try:
            bands[name] = band_average(energy, grid, name)
        except BandUnresolvedError:
            bands[name] = None
    return SpectrumSeries(
        timestamps=timestamps,
        wavenumbers=np.arange(grid.n_lon // 2 + 1),
        energy=energy,
        band_large=bands["large"],
        band_medium=bands["medium"],
        band_small=bands["small"],
        grid=grid,
    )


class Scan(NamedTuple):
    """Per-variable results of one pass over a rollout's time blocks."""

    spectra: dict[str, SpectrumSeries]
    regional: dict[str, dict[str, Extremes]]  # variable -> region name -> extremes
    pools: dict[str, dict[str, PoolSelect]]  # variable -> region name -> counted pool


def _region_cells(grid: GridSpec, regions) -> dict[str, slice | np.ndarray]:
    """Each region's cells on ``grid`` as an index into a flattened field, in
    mask order: a slice where they are contiguous (a polar cap, or
    ``GLOBE``'s whole grid), so they are not copied, else their flat indices."""
    at = {}
    for r in regions:
        idx = np.flatnonzero(region_mask(grid, r)[0])
        at[r.name] = slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] + 1 == idx.size else idx
    return at


def scan(source: RolloutSeries | RolloutFile, variables, spectra: str | None = "steps",
         regions=(), levels=None) -> Scan:
    """One pass over ``source``'s time blocks that reduces every variable in
    ``variables`` to its zonal spectra, a spectrum per step (``"steps"``), their
    mean over each UTC day (``"daily"``) or none (None), and to the extremes of
    each :class:`RegionSpec` in ``regions`` (``gridio.GLOBE`` for the whole
    grid), masked on ``source``'s own grid. Given percentile ``levels``, each
    region's cells are also counted into a :class:`PoolSelect` for those
    levels, planned once the walk has ended: the first pass of the region's
    thresholds, which :func:`pooled_thresholds` completes. No cells are kept
    past their block.

    ``source`` is an in-memory series or an open :class:`RolloutFile`. The pass
    is a :func:`~rollstab.gridio.walk`, whose blocks of whole frames
    :func:`~rollstab.gridio.block_rows` sizes however many variables a frame
    holds, so no whole field is held, and a file's digest is complete once
    the pass returns. The walk stops at the first block where one of
    ``variables`` holds a fill cell.
    A block is read at once, but its spectra are taken in tiles of
    :func:`~rollstab.gridio.tile_rows` steps, on a pool of :func:`thread_count`
    workers that lives only as long as the pass, into one block-sized buffer.
    From there each variable's spectra are added, in time order, into a
    :class:`~rollstab.gridio.Buckets` keyed by step or by UTC day, so a daily
    scan never holds a spectrum per step.
    """
    if spectra not in ("steps", "daily", None):
        raise ValueError(f"spectra must be 'steps', 'daily' or None, got {spectra!r}")
    grid = source.grid
    if spectra and grid.n_lon < 4:
        raise ValueError("zonal spectra need at least 4 longitude points")
    idx = {v: source.index_of(v) for v in variables}
    region_at = _region_cells(grid, regions)
    n = source.n_time
    rows, tile = min(block_rows(source), n), tile_rows(grid.n_lat * grid.n_lon)
    keys = source.timestamps.astype("datetime64[D]" if spectra == "daily" else "datetime64[s]")
    energy = {v: Buckets(keys, (grid.n_lon // 2 + 1,)) for v in idx} if spectra else {}
    buf = np.empty((rows, grid.n_lon // 2 + 1)) if spectra else None
    w = latitude_weights(grid) if spectra else None
    regional = {v: {k: Extremes(np.empty(n, np.float32), np.empty(n, np.float32))
                    for k in region_at} for v in idx}
    pools = ({v: {k: PoolSelect(levels) for k in region_at} for v in idx}
             if levels is not None else {})
    # a worker per CPU, but none more than a block has tiles; it starts no
    # thread before its first tile
    pool = ThreadPoolExecutor(min(thread_count(), -(-rows // tile))) if spectra else nullcontext()
    s = 0
    # on any exit, the pool's threads and a file walk's hashing thread end here
    with closing(walk(source, idx)) as blocks, pool as tiles:
        for block in blocks:
            e = s + block.shape[0]
            for v, i in idx.items():
                fields = block[:, i]
                if spectra:
                    spec = buf[:e - s]
                    list(tiles.map(lambda a: _spectra(fields[a:a + tile], w, spec[a:a + tile]),
                                   range(0, e - s, tile)))
                    energy[v].add(spec)
                flat = fields.reshape(e - s, -1)
                for name, at in region_at.items():
                    cells = flat[:, at]
                    lo, hi = regional[v][name]
                    lo[s:e], hi[s:e] = cells.min(axis=1), cells.max(axis=1)
                    if pools:
                        pools[v][name].count(cells)
            s = e
    block = fields = flat = cells = None  # views of the walk's buffer, whose room the plans need
    for selects in pools.values():
        for select in selects.values():
            select.plan()
    return Scan({v: _series(b.keys.astype("datetime64[s]"), b.means(), grid)
                 for v, b in energy.items()}, regional, pools)


def pooled_thresholds(source: RolloutSeries | RolloutFile, v: str, regions,
                      pools: dict[str, PoolSelect]) -> dict[str, ThresholdSet]:
    """Thresholds of each region's pool of variable ``v``, from the
    :class:`PoolSelect` a ``scan(..., regions=regions, levels=...)`` of
    ``source`` counted, by a second walk of ``source`` that gathers only what
    the bins holding the ranks the levels read need: the low 14 key bits of
    each value in a bin of at most 2**15 values, 2 bytes a value, else a
    64 KiB count of those bits (128 KiB from 2**31 values). So however long
    ``source`` is, a region holds at most that for each of its at most
    ``2 * len(levels)`` needed bins, beside a lookup of their slots and the
    walk's one block, which is let go before the thresholds are read.

    The scan left a file's digest known, so this walk does not hash it. Its
    values must fall in the bins the scan counted; if they do not, the source
    changed between the walks and :class:`FormatError` names a file.
    """
    region_at = _region_cells(source.grid, regions)
    i = source.index_of(v)
    try:
        for block in walk(source, (v,)):
            flat = block[:, i].reshape(block.shape[0], -1)
            for name, at in region_at.items():
                pools[name].gather(flat[:, at])
        block = flat = None  # views of the walk's buffer
        return {name: pools[name].thresholds(v, name, source.n_time, source.start_time)
                for name in region_at}
    except PoolChangedError as e:
        raise FormatError(named(source, str(e))) from None


def spectrum_series(r: RolloutSeries | RolloutFile, v: str,
                    daily: bool = False) -> SpectrumSeries:
    """Zonal spectra of variable ``v`` at every timestep, in one :func:`scan`.

    With ``daily=True`` the spectra are averaged into one per UTC day (the
    mean of the sub-daily spectra, typically 4 six-hourly ones).
    """
    return scan(r, (v,), spectra="daily" if daily else "steps").spectra[v]
