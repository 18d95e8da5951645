"""Rollout stability detectors: blow-up, loss of seasonality, small-scale
energy ratios, seasonal-cycle RMSE, and multi-run aggregation.

Blow-up is the onset of exponential growth in the global spatial extremes:
the first sliding window whose log-deviation regresses onto time with high
determination, positive slope, and at least a tenfold fitted growth. Loss
of seasonality is a sustained departure of the large-band spectral energy
from its climatological day-of-year envelope. Small-scale ratios compare
end-of-rollout small-band energy against a reference and against the
rollout's own first two days.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .climatology import ClimatologyEnvelope, build_envelope
from .gridio import (
    GLOBE,
    Buckets,
    DailySeries,
    PreconditionError,
    RolloutFile,
    RolloutSeries,
    cell_weights,
    check_fields,
    check_keys,
    json_value,
    names_of,
    walk,
)
from .spectra import BandUnresolvedError, SpectrumSeries, scan


# a blow-up window's fitted growth is at least this factor
BLOWUP_GROWTH_FACTOR = 10.0
# the small-scale self ratio divides by the prediction's first days
_LEAD_DAYS = 2.0


class SeriesTooShortError(PreconditionError):
    """Input series shorter than one detection window."""


# ---------------------------------------------------------------------------
# blow-up


@dataclass(frozen=True)
class BlowupResult:
    """Blow-up day (days from rollout start) or None within the horizon."""

    day: float | None
    triggered_by: str | None  # "min" or "max"
    r2: float | None
    slope_sign: int | None


def _running_mean(x: np.ndarray, size: int) -> np.ndarray:
    """Mean over a centred window of ``size`` steps, edges repeated: the bytes
    of ``scipy.ndimage.uniform_filter1d(x, size, mode="nearest")``, whose
    running sum this takes in the same order."""
    ext = np.pad(x, (size // 2, size - size // 2 - 1), mode="edge")
    sums = np.cumsum(np.concatenate((np.cumsum(ext[:size])[-1:], ext[size:] - ext[:-size])))
    return sums / size


def _scan_windows(series, steps_per_day, smoothing_days, window_days, r2_threshold,
                  stride_days):
    """First qualifying window start (in days) of one extremes series."""
    series = np.asarray(series, dtype=np.float64)
    n = series.size
    wsteps = int(round(window_days * steps_per_day))
    if n < wsteps:
        raise SeriesTooShortError(
            f"series has {n} steps, shorter than one {window_days}-day window"
        )
    if not np.isfinite(series).all():
        raise ValueError("extremes series contains non-finite values")

    base = series[:wsteps].mean()
    eps = 1e-9 * max(series[:wsteps].std(), 1e-12)
    dev = np.maximum(np.abs(series - base), eps)
    sm = _running_mean(dev, max(1, int(round(smoothing_days * steps_per_day))))
    logd = np.log(sm)

    stride = max(1, int(round(stride_days * steps_per_day)))
    wins = sliding_window_view(logd, wsteps)[::stride]
    t = np.arange(wsteps, dtype=np.float64) / steps_per_day
    tc = t - t.mean()
    stt = float(tc @ tc)
    span = t[-1] - t[0]

    cov = wins @ tc
    slope = cov / stt
    ssy = ((wins - wins.mean(axis=1, keepdims=True)) ** 2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(ssy > 0, cov**2 / (stt * ssy), 0.0)
    growth = slope * span
    hits = (r2 > r2_threshold) & (slope > 0) & (growth >= math.log(BLOWUP_GROWTH_FACTOR))
    if not hits.any():
        return None
    i = int(np.argmax(hits))
    day = i * stride / steps_per_day
    return day, float(r2[i]), int(np.sign(slope[i]))


def check_blowup_parameters(steps_per_day, smoothing_days, window_days, r2_threshold,
                             stride_days) -> None:
    for name, value in (("steps_per_day", steps_per_day), ("smoothing_days", smoothing_days),
                        ("window_days", window_days), ("r2_threshold", r2_threshold),
                        ("stride_days", stride_days)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if int(round(window_days * steps_per_day)) < 2:
        raise ValueError(f"window_days must span at least 2 steps, got {window_days}")
    if smoothing_days < 0:
        raise ValueError(f"smoothing_days must be >= 0, got {smoothing_days}")
    if stride_days <= 0:
        raise ValueError(f"stride_days must be > 0, got {stride_days}")
    if not 0 <= r2_threshold < 1:
        raise ValueError(f"r2_threshold must be in [0, 1), got {r2_threshold}")


def detect_blowup(
    min_series,
    max_series,
    steps_per_day: float = 4,
    smoothing_days: float = 4,
    window_days: float = 30,
    r2_threshold: float = 0.9,
    stride_days: float = 1,
) -> BlowupResult:
    """Detect exponential blow-up from global min/max series at 6-h steps.

    Each series is centered on its first-window mean, folded to absolute
    deviations (floored to avoid log of zero), smoothed with a rolling mean,
    and scanned with sliding windows of ``window_days``. A window flags when
    the log-deviation regression has R^2 above the threshold, positive
    slope, and fitted growth of at least ``BLOWUP_GROWTH_FACTOR`` across the
    window. The earliest flagged window over the two series wins. Every
    argument but the series must be finite, the window at least 2 steps,
    ``smoothing_days`` >= 0, ``stride_days`` > 0 and ``r2_threshold`` in [0, 1).
    """
    check_blowup_parameters(steps_per_day, smoothing_days, window_days, r2_threshold,
                             stride_days)
    candidates = []
    for name, series in (("min", min_series), ("max", max_series)):
        hit = _scan_windows(series, steps_per_day, smoothing_days, window_days,
                            r2_threshold, stride_days)
        if hit is not None:
            candidates.append((hit[0], name, hit[1], hit[2]))
    if not candidates:
        return BlowupResult(day=None, triggered_by=None, r2=None, slope_sign=None)
    day, name, r2, sign = min(candidates, key=lambda c: c[0])
    return BlowupResult(day=day, triggered_by=name, r2=r2, slope_sign=sign)


# ---------------------------------------------------------------------------
# seasonality


@dataclass(frozen=True)
class SeasonalityResult:
    """First day starting >= run_days consecutive envelope violations."""

    day: float | None
    multiplier: float
    run_length: int | None


def check_seasonality_parameters(multiplier, run_days) -> None:
    if not 0 < multiplier < math.inf:  # NaN fails too
        raise ValueError(f"multiplier must be a finite number > 0, got {multiplier}")
    if not run_days >= 1:
        raise ValueError(f"run_days must be >= 1, got {run_days}")


def detect_seasonality_loss(
    series: DailySeries,
    envelope: ClimatologyEnvelope,
    multiplier: float = 2.0,
    run_days: int = 45,
) -> SeasonalityResult:
    """Flag sustained departure of a daily band series from its envelope.

    Day t violates when |value(t) - envelope.mean(doy)| exceeds
    ``multiplier`` times the envelope range for that day of year. A zero
    range makes any nonzero deviation a violation. The loss day is the
    offset (in days from the start of the series) of the first run of at
    least ``run_days`` consecutive violations. ``multiplier`` must be finite
    and positive, and ``run_days`` at least 1.
    """
    check_seasonality_parameters(multiplier, run_days)
    if not np.isfinite(series.values).all():
        raise ValueError("daily series contains non-finite values")
    dev = np.abs(series.values - envelope.mean_for(series.dates))
    thr = multiplier * envelope.range_for(series.dates)
    viol = dev > thr

    padded = np.concatenate(([False], viol, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    starts, ends = edges[::2], edges[1::2]
    for s, e in zip(starts, ends):
        if e - s >= run_days:
            return SeasonalityResult(day=float(s), multiplier=multiplier,
                                     run_length=int(e - s))
    return SeasonalityResult(day=None, multiplier=multiplier, run_length=None)


# ---------------------------------------------------------------------------
# small scales


@dataclass(frozen=True)
class SmallScaleResult:
    """Small-band energy ratios over a trailing window."""

    ratio_vs_reference: float
    ratio_vs_self: float
    window_days: float
    truncated: bool


def check_small_scale_parameters(window_days, blowup_day) -> None:
    if not 0 < window_days < math.inf:  # NaN fails too
        raise ValueError(f"window_days must be a finite number > 0, got {window_days}")
    if blowup_day is not None and not math.isfinite(blowup_day):
        raise ValueError(f"blowup_day must be finite, got {blowup_day}")


def small_scale_ratios(
    spec: SpectrumSeries,
    ref_spec: SpectrumSeries,
    blowup_day: float | None = None,
    window_days: float = 30.0,
) -> SmallScaleResult:
    """Ratios of mean small-band energy: prediction/reference and end/start.

    The window is the last ``window_days`` of the prediction, or the
    ``window_days`` ending at ``blowup_day`` when a blow-up was detected.
    The reference is averaged over the same calendar window. The self ratio
    divides by the prediction's first two days. ``window_days`` must be
    finite and positive, and ``blowup_day`` finite.
    """
    check_small_scale_parameters(window_days, blowup_day)
    pred_small = spec.band("small")
    ref_small = ref_spec.band("small")
    t = spec.timestamps
    end = t[-1]
    if blowup_day is not None:
        end = t[0] + np.timedelta64(int(round(blowup_day * 86400)), "s")
    start = end - np.timedelta64(int(round(window_days * 86400)), "s")

    def window(times):
        """Steps strictly before a blow-up, or up to and including the horizon."""
        if blowup_day is None:
            return (times > start) & (times <= end)
        return (times >= start) & (times < end)

    win = window(t)
    truncated = bool(start < t[0])
    if not win.any():
        raise ValueError("ratio window selects no prediction timesteps")
    used_days = min(window_days, (end - t[0]) / np.timedelta64(1, "D"))

    ref_win = window(ref_spec.timestamps)
    if not ref_win.any():
        raise ValueError("reference spectra do not cover the ratio window")
    ref_mean = float(ref_small[ref_win].mean())
    if ref_mean == 0.0:
        raise ValueError("reference small-band mean is zero over the window")

    lead = t < t[0] + np.timedelta64(int(round(_LEAD_DAYS * 86400)), "s")
    pred_mean = float(pred_small[win].mean())
    lead_mean = float(pred_small[lead].mean())
    if lead_mean == 0.0:
        raise ValueError("prediction small-band mean over the first days is zero")
    return SmallScaleResult(
        ratio_vs_reference=pred_mean / ref_mean,
        ratio_vs_self=pred_mean / lead_mean,
        window_days=float(used_days),
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# seasonal-cycle RMSE


def seasonal_cycle_rmse(rollout: RolloutSeries | RolloutFile,
                        reference: RolloutSeries | RolloutFile, v: str) -> float:
    """Latitude-weighted RMSE between monthly seasonal cycles.

    Both series must cover the same whole calendar months, each calendar
    month the same number of times (N whole years), which the timestamps
    show before any value is read. The per-cell cycle is the mean over all
    steps falling in each calendar month; the RMSE averages squared
    differences over the 12 months with area weights.
    """
    if not rollout.grid.same_geometry(reference.grid):
        raise ValueError("rollout and reference grids differ")
    ts_a, ts_b = rollout.timestamps, reference.timestamps
    if ts_a.size != ts_b.size or np.any(ts_a != ts_b):
        raise ValueError("rollout and reference must share identical timestamps")
    months = ts_a.astype("datetime64[M]")

    # whole-month coverage: every present (year, month) must be fully sampled
    uniq_months, inverse = np.unique(months, return_inverse=True)
    counts = np.bincount(inverse)
    days_in = ((uniq_months + 1).astype("datetime64[D]") - uniq_months.astype("datetime64[D]"))
    expected = days_in.astype(int) * 86400 // rollout.step_seconds
    if np.any(counts != expected):
        raise ValueError("incomplete calendar months in the input series")
    instances = np.bincount(uniq_months.astype(int) % 12, minlength=12)
    if np.any(instances == 0) or np.unique(instances).size != 1:
        raise ValueError("series must span whole years: every calendar month N times")

    # per-cell monthly means, summed a step at a time in time order: mean(axis=0)'s bits
    cycles = []
    for r in (rollout, reference):
        months_of = Buckets(months.astype(int) % 12, (r.grid.n_lat, r.grid.n_lon))
        for block in walk(r, (v,)):
            months_of.add(block[:, r.index_of(v)])
        cycles.append(months_of.means())
    w = cell_weights(rollout.grid)
    sq = 0.0
    for diff in cycles[0] - cycles[1]:
        sq += float((w * diff**2).sum())
    return math.sqrt(sq / 12.0)


# ---------------------------------------------------------------------------
# per-rollout report and aggregation


@dataclass
class StabilityReport:
    """Per-variable stability metrics of one rollout, mirroring the three
    headline tables (blow-up day, seasonality-loss day, small-scale ratios)."""

    name: str
    horizon_days: float
    variables: tuple[str, ...]
    blowup: dict[str, BlowupResult] = field(default_factory=dict)
    seasonality: dict[str, SeasonalityResult] = field(default_factory=dict)
    small_scale: dict[str, SmallScaleResult | None] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"name": self.name, "horizon_days": self.horizon_days,
               "variables": list(self.variables)}
        for key in _RESULT_KINDS:
            results = getattr(self, key)
            out[key] = {v: None if results[v] is None else _entry(results[v], self.horizon_days)
                        for v in self.variables}
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "StabilityReport":
        """Inverse of :meth:`to_dict`, dropping the manifest of a written report.
        A missing or unknown key, at any level, raises ValueError naming it."""
        check_keys(d, [f.name for f in fields(cls)], "report", optional=("manifest",))
        check_fields(d, cls, "report")
        rep = cls(name=d["name"], horizon_days=d["horizon_days"],
                  variables=names_of(d["variables"], "report: variables"))
        for key, kind in _RESULT_KINDS.items():
            check_keys(d[key], rep.variables, key)
            for v, entry in d[key].items():
                # a None small-scale entry is an unresolved small band
                getattr(rep, key)[v] = (None if entry is None and kind is SmallScaleResult
                                        else _from_entry(kind, entry, f"{key}[{v!r}]"))
        return rep


_RESULT_KINDS = {"blowup": BlowupResult, "seasonality": SeasonalityResult,
                 "small_scale": SmallScaleResult}


def _entry(result, horizon_days) -> dict:
    """One result as its report entry: its fields, with ``day`` written as
    whether it is censored plus the day or, when censored, the horizon."""
    d = asdict(result)
    if "day" in d:
        day = d.pop("day")
        d = ({"censored": True, "horizon": horizon_days} if day is None
             else {"censored": False, "day": day}) | d
    return d


def _from_entry(kind, entry, where: str):
    """Invert :func:`_entry` for a result of type ``kind``."""
    names = [f.name for f in fields(kind)]
    if "day" in names:
        censored = isinstance(entry, dict) and entry.get("censored")
        names = ["censored", "horizon" if censored else "day",
                 *(n for n in names if n != "day")]
    check_keys(entry, names, where)
    check_fields(entry, kind, where)
    entry = dict(entry)
    if "censored" in entry and json_value(entry.pop("censored"), "bool", f"{where}: censored"):
        json_value(entry.pop("horizon"), "float", f"{where}: horizon")
        entry["day"] = None
    return kind(**entry)


def build_report(
    prediction: RolloutSeries | RolloutFile,
    reference: RolloutSeries | RolloutFile,
    name: str = "rollout",
    multiplier: float = 2.0,
    run_days: int = 45,
    window_days: float = 30,
    smoothing_days: float = 4,
    r2_threshold: float = 0.9,
) -> StabilityReport:
    """Run all three detectors for every variable shared by both series.

    Each input is read in one :func:`~rollstab.spectra.scan` over all shared
    variables (daily spectra of both, ``GLOBE`` extremes of the prediction), so
    an open :class:`RolloutFile` is never held whole; the detectors then work
    on the reduced series. Their parameters are checked before either walk.
    """
    shared = tuple(v for v in prediction.variables if v in reference.variables)
    if not shared:
        raise ValueError("prediction and reference share no variables")
    steps_per_day = 86400.0 / prediction.step_seconds
    check_blowup_parameters(steps_per_day, smoothing_days, window_days, r2_threshold, 1)
    check_seasonality_parameters(multiplier, run_days)
    rep = StabilityReport(name=name, horizon_days=prediction.horizon_days, variables=shared)
    pred = scan(prediction, shared, spectra="daily", regions=(GLOBE,))
    ref = scan(reference, shared, spectra="daily")

    for v in shared:
        ext = pred.regional[v][GLOBE.name]
        rep.blowup[v] = detect_blowup(
            ext.min, ext.max, steps_per_day=steps_per_day, window_days=window_days,
            smoothing_days=smoothing_days, r2_threshold=r2_threshold,
        )
        # the reference spectra feed both the envelope and the small-scale ratios
        spec, ref_spec = pred.spectra[v], ref.spectra[v]
        envelope = build_envelope(ref_spec.daily_band("large"), name=f"band_large[{v}]")
        rep.seasonality[v] = detect_seasonality_loss(
            spec.daily_band("large"), envelope, multiplier=multiplier, run_days=run_days,
        )
        try:
            rep.small_scale[v] = small_scale_ratios(spec, ref_spec,
                                                    blowup_day=rep.blowup[v].day)
        except BandUnresolvedError:
            rep.small_scale[v] = None
    return rep


# each aggregated metric: the report table and the result field it is taken from
METRICS = {"blowup_day": ("blowup", "day"), "seasonality_day": ("seasonality", "day"),
           "ratio_vs_reference": ("small_scale", "ratio_vs_reference"),
           "ratio_vs_self": ("small_scale", "ratio_vs_self")}


def aggregate_runs(reports: list[StabilityReport]) -> dict:
    """Mean and sample std of each metric across rollouts.

    Censored day entries ("none within horizon") contribute the horizon
    length, matching the convention of reporting stable cells as the full
    horizon with zero spread.
    """
    if len(reports) < 2:
        raise ValueError("aggregation requires at least two reports")
    variables = reports[0].variables
    for r in reports[1:]:
        if r.variables != variables:
            raise ValueError("reports have mismatched variable sets")

    out = {"n_runs": len(reports), "variables": list(variables), "metrics": {}}
    for metric, (table, name) in METRICS.items():
        per_var = out["metrics"][metric] = {}
        for v in variables:
            results = [getattr(r, table)[v] for r in reports]
            if None in results:  # an unresolved small band
                per_var[v] = None
                continue
            vals = [getattr(res, name) for res in results]
            vals = np.array([r.horizon_days if x is None else x for r, x in zip(reports, vals)],
                            dtype=np.float64)
            per_var[v] = {"mean": float(vals.mean()), "std": float(vals.std(ddof=1))}
    return out
