"""Day-of-year climatological envelopes and pooled percentile thresholds.

Envelopes hold the per-day mean/min/max of a daily statistic across the
years of a reference period (365 buckets, Feb 29 folded into Feb 28).
Thresholds are empirical percentiles of all region pixels pooled over all
timesteps, using linear interpolation between order statistics. The pool is
never held: :class:`PoolSelect` histograms it by key bits in one pass over
its blocks and keeps, in a second, only what the bins holding the two order
statistics each level reads need to name those ranks: 14 bits of each value
in them, or a count of each 14-bit pattern in a bin where that is smaller.
The order statistics are interpolated with numpy's own ``method="linear"``
arithmetic (Hyndman & Fan 1996, definition 7), so each threshold equals
``np.percentile``'s bit for bit, up to the sign of a zero threshold in a
pool that holds both signed zeros (the select ranks -0.0 below +0.0;
numpy's pick depends on the pool's order).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from datetime import datetime
from functools import cached_property

import numpy as np

from .gridio import (DailySeries, PreconditionError, check_fields, check_keys, folded_doy,
                     json_value, numbers_of)


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
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in d.items()} | {
            "year_span": list(self.year_span)}

    @classmethod
    def from_dict(cls, d: dict) -> "ClimatologyEnvelope":
        """Inverse of :meth:`to_dict`, dropping the manifest of a written
        envelope. A missing or unknown key raises ValueError naming it."""
        check_keys(d, [f.name for f in fields(cls)], "envelope", optional=("manifest",))
        check_fields(d, cls, "envelope")
        span = json_value(d["year_span"], "list", "envelope: year_span")
        if len(span) != 2:
            raise ValueError(f"envelope: year_span: expected two years, got {span!r}")
        return cls(statistic=d["statistic"],
                   **{n: numbers_of(d[n], f"envelope: {n}") for n in ("mean", "min", "max")},
                   year_span=tuple(json_value(y, "int", "envelope: year_span") for y in span))


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


# key bits a pool is histogrammed by: one bin is the sign, the exponent and
# the top 9 mantissa bits of a float32, so no bin mixes finite and non-finite
KEY_BITS = 18
_SHIFT = 32 - KEY_BITS  # also the low key bits that name a value within its bin
_LOW = (1 << _SHIFT) - 1
_NON_FINITE_BINS = 1 << (KEY_BITS - 9)  # at each end: the keys of +-inf and NaNs
# a bin of at most this many values keeps each one's low key bits, 2 bytes a
# value; a larger one keeps a count of each of the 2**14 low keys instead, 64 KiB
# of int32, which is then no larger
_SMALL = 1 << (_SHIFT + 1)


def _bits(values: np.ndarray) -> np.ndarray:
    """The raw bits of float32 ``values``; any other dtype is refused, not cast."""
    if values.dtype != np.float32:
        raise ValueError(f"pooled sample must be float32, got {values.dtype}")
    return values.view(np.uint32)


def _values_of(keys: np.ndarray) -> np.ndarray:
    """The float32 values of uint32 sort keys. A value's key, which orders
    keys as their values, is its bits with the sign bit set if it is
    non-negative, else all its bits flipped. So -0.0 sorts just below +0.0,
    and NaNs beyond the infinity of their sign."""
    return (keys ^ np.where(keys >> 31, 0x80000000, 0xFFFFFFFF).astype(np.uint32)).view(
        np.float32)


class PoolChangedError(ValueError):
    """A pool's second pass did not see the values its first pass counted."""


class PoolSelect:
    """Exact percentile thresholds of a pool seen twice, block by block: the
    bucket select of Alabi et al., "Fast k-selection algorithms for graphics
    processing units" (ACM JEA 2012), on the sort keys of :func:`_values_of`.

    :meth:`count` histograms each block by the top KEY_BITS bits of its keys.
    :meth:`plan` finds the bins that hold the two order statistics each
    level reads, :meth:`gather` keeps what those bins need as the same blocks
    are seen again, and :meth:`thresholds` reads each rank at its offset
    within its bin. A bin's remaining 14 key bits name each of its ranks, so
    a needed bin of at most 2**15 values keeps those bits of each value, 2
    bytes a value, and a larger one a count of each of the 2**14 low keys,
    64 KiB of int32, whichever is smaller. So however long the pool, a needed
    bin holds at most 64 KiB (128 KiB once it holds 2**31 values, when the
    counts are int64), and no value is held.

    A key's top bits depend only on the value's top bits, so the passes bin
    values by those and compute no keys. The bins are then in the order of
    the raw bits, non-negative values first and then negative ones from -0.0
    down; :meth:`plan` puts them in key order. The low bits of a negative
    value's key are its own low bits flipped, which :meth:`thresholds` undoes.
    """

    def __init__(self, levels):
        self.levels = [float(x) for x in np.atleast_1d(levels)]
        for lv in self.levels:
            if not 0.0 < lv < 100.0:
                raise ValueError(f"percentile level {lv} outside the open interval (0, 100)")
        self._hist = np.zeros(1 << KEY_BITS, np.int32)  # by top bits; see count
        self._n = 0

    def count(self, cells: np.ndarray) -> None:
        """First pass: add a block of the pool to the histogram."""
        keys = (_bits(cells) >> _SHIFT).reshape(-1)
        self._n += keys.size
        if self._n > np.iinfo(self._hist.dtype).max:  # a bin of int32 could overflow
            self._hist = self._hist.astype(np.int64)
        # as fast as np.bincount, without its result, if 1 has the histogram's type
        np.add.at(self._hist, keys, self._hist.dtype.type(1))

    def plan(self) -> None:
        """Between the passes: find the bins the thresholds read and give each
        its slot. This drops the histogram, and needs about half its size
        again while it runs."""
        ends = self._hist  # put in key order, then summed in place
        del self._hist
        half = ends.size // 2
        negative = ends[half:][::-1].copy()
        ends[half:] = ends[:half]
        ends[:half] = negative
        del negative
        if ends[:_NON_FINITE_BINS].any() or ends[-_NON_FINITE_BINS:].any():
            raise ValueError("pooled sample contains fill/NaN values")
        np.cumsum(ends, out=ends)
        n = int(ends[-1])
        if n == 0:
            raise ValueError("pooled sample is empty")
        virtual = (n - 1) * np.true_divide(self.levels, 100)
        below = np.floor(virtual)
        above = below + 1
        top = virtual >= n - 1  # past the last rank both neighbours are the maximum
        below[top] = above[top] = -1
        self._gamma = virtual - below
        ranks = np.concatenate([below, above]).astype(np.int64) % n
        self._bins = np.searchsorted(ends, ranks, side="right")
        # bin 0 holds only NaNs, so each bin found has a bin below it
        self._within = ranks - ends[self._bins - 1]
        needed, index = np.unique(self._bins, return_inverse=True)
        counts = ends[needed] - ends[needed - 1]
        # slots 1, 2, ...: the bins of at most _SMALL values, then the others,
        # each in key order; the lookup by top bits gives a value's slot, or 0
        small = counts <= _SMALL
        order = np.concatenate([np.flatnonzero(small), np.flatnonzero(~small)])
        slot = np.empty(order.size, np.intp)
        slot[order] = np.arange(1, order.size + 1)
        self._slot = slot[index] - 1  # each rank's, from 0
        self._cap = counts[order]  # each slot's count in the first pass
        self._filled = np.zeros(order.size, np.int64)
        # the first key of each slot, then the key past the last
        self._edges = np.arange(1, order.size + 2, dtype=np.uint32) << _SHIFT
        s = self._n_small = int(small.sum())
        self._start = np.cumsum(self._cap[:s]) - self._cap[:s]
        self._low = np.empty(int(self._cap[:s].sum()), np.uint16)
        large = self._cap[s:]
        self._tally = np.zeros((large.size, 1 << _SHIFT),
                               np.int64 if np.any(large > np.iinfo(np.int32).max) else np.int32)
        raw = np.where(needed < half, ends.size - 1 - needed, needed - half)
        # over the needed bins' span only, then a 0 for every value outside it
        self._base = int(raw.min()) << _SHIFT
        self._lut = np.zeros(int(raw.max() - raw.min()) + 2,
                             np.uint16 if order.size < 1 << 16 else np.uint32)
        self._lut[raw - raw.min()] = slot

    def gather(self, cells: np.ndarray) -> None:
        """Second pass: keep what the planned bins need of the block's values."""
        # bits from the span's start: a value below it wraps past its end
        bits = np.subtract(_bits(cells), self._base, dtype=np.uint32).reshape(-1)
        # intp indices index an array about twice as fast as uint32 ones
        at = np.right_shift(bits, _SHIFT, dtype=np.intp)
        slots = self._lut.take(at, mode="clip")
        at = (slots != 0).nonzero()[0]
        # each kept value as its slot and low bits, grouped by slot
        kept = np.left_shift(slots[at], _SHIFT, dtype=np.uint32)
        kept |= bits[at] & _LOW
        del bits, slots, at
        kept.sort()
        edges = kept.searchsorted(self._edges)
        got = edges[1:] - edges[:-1]
        self._filled += got
        if (self._filled > self._cap).any():
            raise PoolChangedError("changed between passes")
        s = self._n_small
        n = int(edges[s])
        # a slot's values from this block follow those of the blocks before it
        to = np.arange(n) + (self._start + self._filled[:s] - edges[1:s + 1]).repeat(got[:s])
        self._low[to] = np.bitwise_and(kept[:n], _LOW, dtype=np.uint16)
        if n < kept.size:
            np.add.at(self._tally.reshape(-1), kept[n:] - ((s + 1) << _SHIFT),
                      self._tally.dtype.type(1))

    def thresholds(self, v: str, region: str, n_time: int,
                   start_time: datetime) -> ThresholdSet:
        """After the second pass: the thresholds of region ``region``'s pool of
        variable ``v`` over ``n_time`` steps from ``start_time``."""
        if not np.array_equal(self._filled, self._cap):
            raise PoolChangedError("changed between passes")
        s = self._n_small
        for i, j in zip(self._start, self._start + self._cap[:s]):
            self._low[i:j].sort()
        slot = self._slot
        # each rank's place among its bin's low bits, which run against its keys'
        # in a negative bin
        negative = self._bins < 1 << (KEY_BITS - 1)
        at = np.where(negative, self._cap[slot] - 1 - self._within, self._within)
        low = np.empty(at.size, np.uint32)
        small = slot < s
        low[small] = self._low[self._start[slot[small]] + at[small]]
        for r in np.flatnonzero(~small):
            low[r] = np.searchsorted(np.cumsum(self._tally[slot[r] - s]), at[r], side="right")
        low[negative] ^= _LOW
        a, b = np.split(_values_of((self._bins.astype(np.uint32) << _SHIFT) | low), 2)
        gamma = self._gamma
        # numpy's lerp: b - a is taken in float32, so it overflows as numpy's does
        diff = b - a
        values = a + diff * gamma
        np.subtract(b, diff * (1 - gamma), out=values, where=gamma >= 0.5)
        span = (
            f"{v}: all pixels of {region}, all {n_time} timesteps "
            f"from {start_time.isoformat()}, linear order-statistic interpolation"
        )
        return ThresholdSet(
            region=region,
            levels=tuple(self.levels),
            values=tuple(float(x) for x in values),
            pooling=span,
        )


def pooled_percentiles(
    cells: np.ndarray,
    v: str,
    region: str,
    levels,
    start_time: datetime,
) -> ThresholdSet:
    """Empirical percentiles over all region pixels pooled across all timesteps.

    ``cells`` is a region's float32 (time, cells) sample of variable ``v``
    from a reference starting at ``start_time``. Its thresholds are the
    :class:`PoolSelect` run over it as one block, the select ``rollstab
    extremes`` runs over a file's blocks; ``cells`` is left as it is.
    """
    select = PoolSelect(levels)
    select.count(cells)
    select.plan()
    select.gather(cells)
    return select.thresholds(v, region, cells.shape[0], start_time)
