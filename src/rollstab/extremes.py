"""Extreme-event statistics on long rollouts: event flags, tail QQ pairs,
and multi-threshold exceedance rates, all from the regional extremes that
:func:`rollstab.spectra.scan` reduces a rollout to.

Hot events are timesteps where a region's spatial maximum exceeds the
pooled P90 threshold; cold events where the spatial minimum falls below
P10. Tail quantiles and exceedance fractions compare a model series with a
reference over a matched calendar window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .climatology import ThresholdSet
from .gridio import Extremes

# the tail quantile levels, and the exceedance curves' levels, which hold P90 and P10
HOT_DEFAULT_LEVELS = tuple(np.round(np.arange(900, 1000) / 10.0, 1))  # 90.0 .. 99.9
COLD_DEFAULT_LEVELS = tuple(np.round(np.arange(1, 101) / 10.0, 1))  # 0.1 .. 10.0
HOT_THRESHOLD_LEVELS = tuple(np.round(np.arange(800, 1000) / 10.0, 1))  # 80.0 .. 99.9
COLD_THRESHOLD_LEVELS = tuple(np.round(np.arange(1, 201) / 10.0, 1))  # 0.1 .. 20.0


def event_series(ext: Extremes, thresholds: ThresholdSet) -> tuple[np.ndarray, np.ndarray]:
    """The (hot, cold) flags of one region's extremes (``scan(...,
    regions=...)``): its maximum above P90, its minimum below P10."""
    return ext.max > thresholds.value_for(90.0), ext.min < thresholds.value_for(10.0)


@dataclass(frozen=True)
class QQPairs:
    """Paired (reference, model) tail quantiles at matching levels."""

    side: str
    levels: np.ndarray
    reference: np.ndarray
    model: np.ndarray


def qq_tails(model_series, reference_series, side: str) -> QQPairs:
    """Tail quantile pairs: hot at levels 90..99.9, cold at 0.1..10."""
    if side not in ("hot", "cold"):
        raise ValueError("side must be 'hot' or 'cold'")
    levels = np.array(HOT_DEFAULT_LEVELS if side == "hot" else COLD_DEFAULT_LEVELS)
    model_series = np.asarray(model_series, dtype=np.float64)
    reference_series = np.asarray(reference_series, dtype=np.float64)
    if model_series.size == 0 or reference_series.size == 0:
        raise ValueError("series must be non-empty over the matched window")
    return QQPairs(
        side=side,
        levels=levels,
        reference=np.percentile(reference_series, levels, method="linear"),
        model=np.percentile(model_series, levels, method="linear"),
    )


@dataclass(frozen=True)
class ExceedanceCurve:
    """Fraction of timesteps beyond each threshold, model vs reference."""

    side: str
    levels: np.ndarray
    thresholds: np.ndarray
    model_fraction: np.ndarray
    reference_fraction: np.ndarray
    ratio: np.ndarray  # NaN where the reference fraction is zero
    ratio_defined: np.ndarray


def exceedance_curve(model_series, reference_series, thresholds: ThresholdSet,
                     side: str) -> ExceedanceCurve:
    """Exceedance fractions of both series at every threshold, plus ratio.

    Hot counts values above each threshold, cold below. The model/reference
    ratio is flagged undefined (NaN) where the reference fraction is zero.
    """
    if side not in ("hot", "cold"):
        raise ValueError("side must be 'hot' or 'cold'")
    model_series = np.asarray(model_series, dtype=np.float64)
    reference_series = np.asarray(reference_series, dtype=np.float64)
    if model_series.size == 0 or reference_series.size == 0:
        raise ValueError("series must be non-empty")
    levels = np.asarray(thresholds.levels, dtype=np.float64)
    values = np.asarray(thresholds.values, dtype=np.float64)
    if side == "hot":
        model_frac = (model_series[None, :] > values[:, None]).mean(axis=1)
        ref_frac = (reference_series[None, :] > values[:, None]).mean(axis=1)
    else:
        model_frac = (model_series[None, :] < values[:, None]).mean(axis=1)
        ref_frac = (reference_series[None, :] < values[:, None]).mean(axis=1)
    defined = ref_frac > 0
    ratio = np.full_like(model_frac, np.nan)
    ratio[defined] = model_frac[defined] / ref_frac[defined]
    return ExceedanceCurve(
        side=side,
        levels=levels,
        thresholds=values,
        model_fraction=model_frac,
        reference_fraction=ref_frac,
        ratio=ratio,
        ratio_defined=defined,
    )


def match_windows(a_times: np.ndarray, b_times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index masks selecting the timestamps common to both series."""
    common = np.intersect1d(a_times, b_times)
    if common.size == 0:
        raise ValueError("series share no timestamps (no matched calendar window)")
    return np.isin(a_times, common), np.isin(b_times, common)
