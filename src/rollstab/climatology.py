"""Day-of-year climatological envelopes and pooled percentile thresholds.

Envelopes hold the per-day mean/min/max of a daily statistic across the
years of a reference period (365 buckets, Feb 29 folded into Feb 28).
Thresholds are empirical percentiles of all region pixels pooled over all
timesteps, using linear interpolation between order statistics. They are
read from the sorted pool with numpy's own ``method="linear"`` arithmetic
(Hyndman & Fan 1996, definition 7), so each one equals ``np.percentile``'s
bit for bit, up to the sign of a zero threshold in a pool that holds both
signed zeros (the sort decides which one sits at a rank).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from datetime import datetime
from functools import cached_property

import numpy as np

from .gridio import DailySeries, PreconditionError, check_keys, folded_doy


class EnvelopeCoverageError(PreconditionError):
    """Reference period does not cover every day of year with >= 2 years."""


@dataclass(frozen=True)
class ClimatologyEnvelope:
    """Per-day-of-year mean and min/max range of a statistic."""

    statistic: str
    mean: np.ndarray  # (365,)
    min: np.ndarray
    max: np.ndarray
    year_span: tuple[int, int]

    def __post_init__(self):
        for name in ("mean", "min", "max"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (365,):
                raise ValueError(f"envelope {name} must have exactly 365 entries")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "year_span", tuple(self.year_span))
        if np.any(self.min > self.mean) or np.any(self.mean > self.max):
            raise ValueError("envelope must satisfy min <= mean <= max per day")

    @property
    def range(self) -> np.ndarray:
        return self.max - self.min

    def mean_for(self, dates) -> np.ndarray:
        return self.mean[folded_doy(dates) - 1]

    def range_for(self, dates) -> np.ndarray:
        return self.range[folded_doy(dates) - 1]

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in d.items()}

    @classmethod
    def from_dict(cls, d: dict) -> "ClimatologyEnvelope":
        """Inverse of :meth:`to_dict`, dropping the manifest of a written
        envelope. A missing or unknown key raises ValueError naming it."""
        names = [f.name for f in fields(cls)]
        check_keys(d, names, "envelope", optional=("manifest",))
        return cls(**{n: d[n] for n in names})


def build_envelope(daily: DailySeries, name: str = "statistic") -> ClimatologyEnvelope:
    """Envelope of a reference's daily statistic over its years.

    Every day of year must be covered by at least two distinct years.
    """
    doys = folded_doy(daily.dates)
    years = daily.dates.astype("datetime64[Y]").astype(int) + 1970
    mean = np.full(365, np.nan)
    lo = np.full(365, np.nan)
    hi = np.full(365, np.nan)
    for d in range(1, 366):
        sel = doys == d
        if np.unique(years[sel]).size < 2:
            raise EnvelopeCoverageError(
                f"day of year {d} covered by fewer than 2 reference years"
            )
        vals = daily.values[sel]
        mean[d - 1] = vals.mean()
        lo[d - 1] = vals.min()
        hi[d - 1] = vals.max()
    return ClimatologyEnvelope(
        statistic=name,
        mean=mean,
        min=lo,
        max=hi,
        year_span=(int(years.min()), int(years.max())),
    )


@dataclass(frozen=True)
class ThresholdSet:
    """Percentile thresholds of a pooled sample, monotone in level."""

    region: str
    levels: tuple[float, ...]
    values: tuple[float, ...]
    pooling: str

    def __post_init__(self):
        if len(self.levels) != len(self.values):
            raise ValueError("levels and values must have equal length")
        order = np.argsort(self.levels)
        lv = np.array(self.levels)[order]
        vv = np.array(self.values)[order]
        if np.any(np.diff(vv) < 0):
            raise ValueError("threshold values must be monotone in percentile level")
        object.__setattr__(self, "levels", tuple(float(x) for x in lv))
        object.__setattr__(self, "values", tuple(float(x) for x in vv))

    @cached_property
    def _by_level(self) -> dict[float, float]:
        return dict(zip(self.levels, self.values))

    def value_for(self, level: float) -> float:
        try:
            return self._by_level[level]
        except KeyError:
            raise KeyError(f"level {level} not present in threshold set {self.region!r}") from None


def pooled_percentiles(
    cells: np.ndarray,
    v: str,
    region: str,
    levels,
    start_time: datetime,
) -> ThresholdSet:
    """Empirical percentiles over all region pixels pooled across all timesteps.

    ``cells`` is a region's (time, cells) sample of variable ``v`` from a
    reference starting at ``start_time``, as :func:`~rollstab.spectra.scan`
    gathers it. The pool is handed over, not copied: a contiguous ``cells``
    is reordered in place.
    """
    levels = [float(x) for x in np.atleast_1d(levels)]
    for lv in levels:
        if not 0.0 < lv < 100.0:
            raise ValueError(f"percentile level {lv} outside the open interval (0, 100)")
    pool = cells.reshape(-1)
    # a percentile depends only on the multiset of values: sort the pool once
    # and read both neighbouring order statistics of each level by index
    pool.sort()
    # sorted, the pool is finite if both ends are: NaN sorts last, -inf first
    if not (np.isfinite(pool[0]) and np.isfinite(pool[-1])):
        raise ValueError("pooled sample contains fill/NaN values")
    n = pool.size
    virtual = (n - 1) * np.true_divide(levels, 100)
    below = np.floor(virtual)
    above = below + 1
    top = virtual >= n - 1  # past the last rank both neighbours are the maximum
    below[top] = above[top] = -1
    gamma = virtual - below
    a, b = pool[below.astype(np.intp)], pool[above.astype(np.intp)]
    # numpy's lerp: b - a is taken in the pool's dtype, so it overflows as numpy's does
    diff = b - a
    values = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=values, where=gamma >= 0.5)
    span = (
        f"{v}: all pixels of {region}, all {cells.shape[0]} timesteps "
        f"from {start_time.isoformat()}, linear order-statistic interpolation"
    )
    return ThresholdSet(
        region=region,
        levels=tuple(levels),
        values=tuple(float(x) for x in values),
        pooling=span,
    )
