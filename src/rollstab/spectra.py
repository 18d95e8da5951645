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
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .gridio import (
    DailySeries,
    GridSpec,
    PreconditionError,
    RolloutSeries,
    daily_mean,
    latitude_weights,
    require_finite,
)

# float64 bytes of one block of timesteps transformed at once, so the
# working set of spectrum_series does not grow with the horizon
BLOCK_BYTES = 32 << 20

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
    """FFT worker count: ROLLOUT_STAB_THREADS if set, else the CPU count."""
    env = os.environ.get("ROLLOUT_STAB_THREADS")
    if not env:
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
    return _spectra(field[None], grid)[0]


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
    """Per-timestep zonal spectra plus band-averaged series.

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


def _spectra(fields: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Latitude-weighted amplitude spectra (time, n_k) of a (time, lat, lon)
    stack, transformed in blocks of at most BLOCK_BYTES."""
    rows = max(1, BLOCK_BYTES // (grid.n_lat * grid.n_lon * 8))
    w = latitude_weights(grid)
    workers = thread_count()
    energy = np.empty((fields.shape[0], grid.n_lon // 2 + 1))
    for s in range(0, fields.shape[0], rows):
        block = fields[s : s + rows].astype(np.float64)
        amp = np.abs(scipy.fft.rfft(block, axis=-1, workers=workers)) / grid.n_lon
        energy[s : s + rows] = np.einsum("j,tjk->tk", w, amp)
    return energy


def spectrum_series(r: RolloutSeries, v: str, daily: bool = False) -> SpectrumSeries:
    """Zonal spectra of variable ``v`` at every timestep.

    With ``daily=True`` the spectra are averaged into one per UTC day (the
    mean of the sub-daily spectra, typically 4 six-hourly ones).
    """
    if r.grid.n_lon < 4:
        raise ValueError("zonal spectra need at least 4 longitude points")
    energy = _spectra(require_finite(r, v), r.grid)
    timestamps = r.timestamps
    if daily:
        days = daily_mean(timestamps, energy)
        timestamps, energy = days.dates.astype("datetime64[s]"), days.values
    band_large = band_average(energy, r.grid, "large")
    bands = {}
    for name in ("medium", "small"):
        try:
            bands[name] = band_average(energy, r.grid, name)
        except BandUnresolvedError:
            bands[name] = None
    return SpectrumSeries(
        timestamps=timestamps,
        wavenumbers=np.arange(r.grid.n_lon // 2 + 1),
        energy=energy,
        band_large=band_large,
        band_medium=bands["medium"],
        band_small=bands["small"],
        grid=r.grid,
    )
