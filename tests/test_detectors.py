import json
import math
import tempfile
import threading
import tracemalloc
from datetime import datetime
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.ndimage import uniform_filter1d

from rollstab import (
    GridSpec,
    RegimeConfig,
    RolloutSeries,
    detect_blowup,
    detect_seasonality_loss,
    generate,
)
from rollstab.climatology import ClimatologyEnvelope, build_envelope
from rollstab.detectors import (
    SeriesTooShortError,
    StabilityReport,
    BlowupResult,
    SeasonalityResult,
    SmallScaleResult,
    _running_mean,
    aggregate_runs,
    build_report,
    seasonal_cycle_rmse,
    small_scale_ratios,
)
from rollstab import gridio
from rollstab.gridio import (
    DailySeries,
    IncompleteFieldError,
    RolloutFile,
    cell_weights,
    write_rollout,
)
from rollstab.spectra import SpectrumSeries, spectrum_series
from conftest import global_extremes, make_series


def ramp_exp(rate, onset_day, n_days, steps_per_day=4):
    t = np.arange(n_days * steps_per_day) / steps_per_day
    return np.exp(rate * np.clip(t - onset_day, 0.0, None))


class TestDetectBlowup:
    def test_constructed_exponential(self):
        s = ramp_exp(0.2, 100, 300)
        res = detect_blowup(s, s)
        assert res.day is not None
        assert abs(res.day - 100) <= 1  # within one stride
        assert res.slope_sign == 1
        assert res.r2 > 0.9

    def test_constant_series_none(self):
        s = np.full(400 * 4, 3.0)
        res = detect_blowup(s, s)
        assert res.day is None

    def test_pure_sinusoid_none(self):
        t = np.arange(730 * 4) / 4.0
        s = 280.0 + 10.0 * np.sin(2 * np.pi * t / 365.25)
        res = detect_blowup(s, s)
        assert res.day is None

    def test_earliest_series_wins(self):
        early = ramp_exp(0.3, 80, 300)
        late = ramp_exp(0.3, 200, 300)
        res = detect_blowup(early, late)
        assert res.triggered_by == "min"
        assert abs(res.day - 80) <= 1
        res = detect_blowup(late, early)
        assert res.triggered_by == "max"

    def test_min_series_diving_detected(self):
        # blow-up downward: min dives to large negative values
        s = -ramp_exp(0.2, 150, 400)
        res = detect_blowup(s, np.zeros_like(s))
        assert res.day is not None and abs(res.day - 150) <= 1

    # a in [1e-3, 1e6] and |b| <= 1e6: b's rounding (|b| * 2**-52) stays far
    # below the series' noise (0.1 * a), so only the affine map varies
    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(1e-3, 1e6), b=st.floats(-1e6, 1e6))
    @example(a=3.7, b=11.0)
    @example(a=0.2, b=-40.0)
    @example(a=1e3, b=1e6)
    def test_affine_invariance(self, a, b):
        rng = np.random.default_rng(8)
        t = np.arange(300 * 4) / 4.0
        base = np.exp(0.05 * np.clip(t - 120, 0, None)) + 0.1 * rng.standard_normal(t.size)
        r1 = detect_blowup(base, base)
        r2 = detect_blowup(a * base + b, a * base + b)
        assert r2.day == r1.day

    def test_short_series_rejected(self):
        with pytest.raises(SeriesTooShortError):
            detect_blowup(np.zeros(50), np.zeros(50))

    def test_nan_rejected(self):
        s = np.ones(200 * 4)
        s[5] = np.nan
        with pytest.raises(ValueError):
            detect_blowup(s, s)

    def test_decaying_exponential_not_flagged(self):
        t = np.arange(200 * 4) / 4.0
        s = 5.0 + np.exp(-0.2 * t)
        res = detect_blowup(s, s)
        assert res.day is None

    def test_ten_day_window(self):
        # fast saturating blow-up only visible with a reduced window
        t = np.arange(60 * 4) / 4.0
        s = np.minimum(np.exp(1.0 * np.clip(t - 8.0, 0, None)), 1e6)
        res = detect_blowup(s, s, window_days=10)
        assert res.day is not None
        assert res.day <= 12


def flat_envelope(mean, rng_width):
    n = np.full(365, float(mean))
    return ClimatologyEnvelope(statistic="test", mean=n, min=n - rng_width / 2,
                               max=n + rng_width / 2, year_span=(2000, 2005))


def daily(values, start="2021-01-01"):
    dates = np.datetime64(start, "D") + np.arange(len(values))
    return DailySeries(dates, np.asarray(values, dtype=float))


class TestRunningMean:
    """The blow-up smoothing gives the bytes of scipy's running mean with
    edges repeated, for windows longer than the series too."""

    @settings(max_examples=400, deadline=None)
    @given(n=st.integers(1, 6000), size=st.integers(1, 600), seed=st.integers(0, 2**32 - 1),
           exponent=st.floats(-300, 300), signed=st.booleans())
    @example(n=1, size=600, seed=0, exponent=300.0, signed=True)
    @example(n=6000, size=1, seed=1, exponent=-300.0, signed=False)
    def test_equals_uniform_filter1d(self, n, size, seed, exponent, signed):
        x = np.random.default_rng(seed).standard_normal(n) * 10.0 ** exponent
        if not signed:
            x = np.abs(x)
        got = _running_mean(x, size)
        assert got.tobytes() == uniform_filter1d(x, size, mode="nearest").tobytes()


class TestDetectSeasonalityLoss:
    def test_series_on_mean_never_flags(self):
        env = flat_envelope(5.0, 1.0)
        res = detect_seasonality_loss(daily(np.full(400, 5.0)), env)
        assert res.day is None

    def test_violation_run_from_day_200(self):
        env = flat_envelope(5.0, 1.0)
        vals = np.full(400, 5.0)
        vals[200:] = 5.0 + 3.0 * 1.0  # mean + 3x range > mean + 2x range
        res = detect_seasonality_loss(daily(vals), env)
        assert res.day == 200
        assert res.run_length == 200

    def test_run_shorter_than_threshold_ignored(self):
        env = flat_envelope(0.0, 1.0)
        vals = np.zeros(400)
        vals[100:140] = 10.0  # 40 consecutive days < 45
        res = detect_seasonality_loss(daily(vals), env)
        assert res.day is None

    def test_zero_range_any_deviation_violates(self):
        env = flat_envelope(2.0, 0.0)
        vals = np.full(100, 2.0)
        vals[10:70] = 2.0001
        res = detect_seasonality_loss(daily(vals), env)
        assert res.day == 10

    def test_zero_range_zero_deviation_ok(self):
        env = flat_envelope(2.0, 0.0)
        res = detect_seasonality_loss(daily(np.full(100, 2.0)), env)
        assert res.day is None

    @settings(max_examples=40, deadline=None)
    @given(run_days=st.integers(1, 60), start=st.integers(0, 50),
           multiplier=st.sampled_from([0.5, 1.0, 2.0, 3.0]), sign=st.sampled_from([-1, 1]))
    def test_run_boundary(self, run_days, start, multiplier, sign):
        env = flat_envelope(0.0, 1.0)  # range exactly 1
        # a deviation of exactly multiplier x range is not a violation
        vals = np.full(start + run_days + 30, sign * multiplier)
        res = detect_seasonality_loss(daily(vals), env, multiplier=multiplier,
                                      run_days=run_days)
        assert res.day is None
        # a run of exactly run_days violations flags at its first day
        vals[start:start + run_days] = sign * (multiplier + 1.0)
        res = detect_seasonality_loss(daily(vals), env, multiplier=multiplier,
                                      run_days=run_days)
        assert (res.day, res.run_length) == (start, run_days)
        # one day shorter does not
        vals[start + run_days - 1] = sign * multiplier
        res = detect_seasonality_loss(daily(vals), env, multiplier=multiplier,
                                      run_days=run_days)
        assert res.day is None

    def test_monotone_in_multiplier(self):
        rng = np.random.default_rng(3)
        env = flat_envelope(0.0, 1.0)
        vals = np.cumsum(rng.standard_normal(500)) * 0.2
        days = []
        for mult in (0.5, 1.0, 2.0, 4.0):
            res = detect_seasonality_loss(daily(vals), env, multiplier=mult)
            days.append(np.inf if res.day is None else res.day)
        assert all(a <= b for a, b in zip(days, days[1:]))


def spectrum_from_bands(grid, timestamps, small_values):
    n_k = grid.n_lon // 2 + 1
    energy = np.zeros((len(timestamps), n_k))
    from rollstab.spectra import band_members, band_average

    idx = band_members(grid, "small")
    energy[:, idx] = np.asarray(small_values)[:, None]
    return SpectrumSeries(
        timestamps=np.asarray(timestamps, dtype="datetime64[s]"),
        wavenumbers=np.arange(n_k),
        energy=energy,
        band_large=band_average(energy, grid, "large"),
        band_medium=band_average(energy, grid, "medium"),
        band_small=band_average(energy, grid, "small"),
        grid=grid,
    )


def hourly6(start, n):
    return np.datetime64(start, "s") + np.arange(n) * np.timedelta64(21600, "s")


class TestSmallScaleRatios:
    def test_identical_spectra_ratio_one(self, fine_grid):
        ts = hourly6("2021-01-01", 50 * 4)
        vals = np.linspace(1.0, 2.0, ts.size)
        spec = spectrum_from_bands(fine_grid, ts, vals)
        res = small_scale_ratios(spec, spec)
        assert res.ratio_vs_reference == pytest.approx(1.0, abs=1e-12)

    def test_uniform_doubling(self, fine_grid):
        ts = hourly6("2021-01-01", 50 * 4)
        base = np.full(ts.size, 3.0)
        pred = spectrum_from_bands(fine_grid, ts, 2.0 * base)
        ref = spectrum_from_bands(fine_grid, ts, base)
        res = small_scale_ratios(pred, ref)
        assert res.ratio_vs_reference == pytest.approx(2.0, abs=1e-9)
        assert res.ratio_vs_self == pytest.approx(1.0, abs=1e-9)

    def test_blowup_day_shifts_window(self, fine_grid):
        ts = hourly6("2021-01-01", 100 * 4)
        vals = np.ones(ts.size)
        vals[60 * 4:] = 100.0  # junk after the blow-up at day 60
        pred = spectrum_from_bands(fine_grid, ts, vals)
        ref = spectrum_from_bands(fine_grid, ts, np.ones(ts.size))
        res = small_scale_ratios(pred, ref, blowup_day=60.0)
        assert res.ratio_vs_reference == pytest.approx(1.0)
        assert res.truncated is False

    def test_short_rollout_truncates_and_flags(self, fine_grid):
        ts = hourly6("2021-01-01", 20 * 4)
        spec = spectrum_from_bands(fine_grid, ts, np.ones(ts.size))
        res = small_scale_ratios(spec, spec)
        assert res.truncated is True
        assert res.window_days == pytest.approx(20.0, abs=0.3)

    def test_zero_reference_rejected(self, fine_grid):
        ts = hourly6("2021-01-01", 40 * 4)
        pred = spectrum_from_bands(fine_grid, ts, np.ones(ts.size))
        ref = spectrum_from_bands(fine_grid, ts, np.zeros(ts.size))
        with pytest.raises(ValueError, match="zero"):
            small_scale_ratios(pred, ref)

    def test_unresolved_band_rejected(self):
        g = GridSpec.from_resolution(1.5)
        ts = hourly6("2021-01-01", 40 * 4)
        n_k = g.n_lon // 2 + 1
        spec = SpectrumSeries(
            timestamps=ts, wavenumbers=np.arange(n_k),
            energy=np.ones((ts.size, n_k)), band_large=np.ones(ts.size),
            band_medium=np.ones(ts.size), band_small=None, grid=g,
        )
        from rollstab.spectra import BandUnresolvedError

        with pytest.raises(BandUnresolvedError):
            small_scale_ratios(spec, spec)


class TestSmallScaleDoubling:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_days=st.integers(3, 40),
           scale=st.floats(1e-3, 1e3), blowup_frac=st.none() | st.floats(0.2, 1.0))
    def test_doubled_prediction_has_exactly_twice_the_ratio(self, seed, n_days, scale,
                                                            blowup_frac):
        """Doubling is exact through the FFT, abs and the means, so the ratio is too."""
        fine_grid = GridSpec.regular(16, 384)  # resolves the small band
        data = scale * np.random.default_rng(seed).standard_normal(
            (n_days * 4 + 1, 1, fine_grid.n_lat, fine_grid.n_lon))
        base = make_series(fine_grid, data)
        doubled = make_series(fine_grid, 2 * base.data)
        spec = spectrum_series(base, "T2m", daily=True)
        spec2 = spectrum_series(doubled, "T2m", daily=True)
        day = None if blowup_frac is None else blowup_frac * n_days
        own = small_scale_ratios(spec, spec, blowup_day=day)
        twice = small_scale_ratios(spec2, spec, blowup_day=day)
        assert twice.ratio_vs_reference == 2 * own.ratio_vs_reference
        assert twice.ratio_vs_self == own.ratio_vs_self


class TestSeasonalCycleRmse:
    def test_identical_zero(self, small_grid):
        start = datetime(2021, 1, 1)
        rng = np.random.default_rng(0)
        base = rng.standard_normal((365 * 4, 1, 8, 16)).astype(np.float32)
        a = make_series(small_grid, base, start=start)
        b = make_series(small_grid, base.copy(), start=start)
        assert seasonal_cycle_rmse(a, b, "T2m") == pytest.approx(0.0, abs=1e-7)

    def test_constant_bias(self, small_grid):
        start = datetime(2021, 1, 1)
        rng = np.random.default_rng(1)
        base = rng.standard_normal((365 * 4, 1, 8, 16)).astype(np.float32)
        a = make_series(small_grid, base + np.float32(2.5), start=start)
        b = make_series(small_grid, base, start=start)
        assert seasonal_cycle_rmse(a, b, "T2m") == pytest.approx(2.5, abs=1e-5)

    def test_month_dependent_bias(self, small_grid):
        start = datetime(2021, 1, 1)
        base = np.zeros((365 * 4, 1, 8, 16), dtype=np.float32)
        a = make_series(small_grid, base, start=start)
        months = a.timestamps.astype("datetime64[M]").astype(int) % 12
        biases = np.linspace(-1.0, 1.2, 12)
        biased = base + biases[months][:, None, None, None].astype(np.float32)
        b = make_series(small_grid, biased, start=start)
        expected = np.sqrt(np.mean(biases**2))
        assert seasonal_cycle_rmse(b, a, "T2m") == pytest.approx(expected, abs=1e-6)

    def test_incomplete_month_rejected(self, small_grid):
        start = datetime(2021, 1, 1)
        base = np.zeros((364 * 4, 1, 8, 16), dtype=np.float32)  # ends mid-December
        a = make_series(small_grid, base, start=start)
        b = make_series(small_grid, base.copy(), start=start)
        with pytest.raises(ValueError, match="month"):
            seasonal_cycle_rmse(a, b, "T2m")

    def test_mismatched_timestamps_rejected(self, small_grid):
        base = np.zeros((365 * 4, 1, 8, 16), dtype=np.float32)
        a = make_series(small_grid, base, start=datetime(2021, 1, 1))
        b = make_series(small_grid, base.copy(), start=datetime(2022, 1, 1))
        with pytest.raises(ValueError, match="timestamps"):
            seasonal_cycle_rmse(a, b, "T2m")


def report_with(blowup_days, seasonality_days=None, horizon=730.0,
                variables=("T2m",), name="r"):
    seasonality_days = seasonality_days or {v: None for v in variables}
    rep = StabilityReport(name=name, horizon_days=horizon, variables=tuple(variables))
    for v in variables:
        rep.blowup[v] = BlowupResult(day=blowup_days[v], triggered_by="min",
                                     r2=0.95, slope_sign=1)
        rep.seasonality[v] = SeasonalityResult(day=seasonality_days[v],
                                               multiplier=2.0, run_length=None)
        rep.small_scale[v] = SmallScaleResult(
            ratio_vs_reference=1.0, ratio_vs_self=1.0, window_days=30.0, truncated=False)
    return rep


class TestAggregateRuns:
    def test_identical_reports_zero_std(self):
        reports = [report_with({"T2m": 100.0}, name=f"r{i}") for i in range(5)]
        agg = aggregate_runs(reports)
        entry = agg["metrics"]["blowup_day"]["T2m"]
        assert entry["mean"] == 100.0 and entry["std"] == 0.0

    def test_two_reports_sample_std(self):
        reports = [report_with({"T2m": 10.0}), report_with({"T2m": 20.0})]
        agg = aggregate_runs(reports)
        entry = agg["metrics"]["blowup_day"]["T2m"]
        assert entry["mean"] == pytest.approx(15.0)
        assert entry["std"] == pytest.approx(7.0710678, abs=1e-6)

    def test_censored_entries_use_horizon(self):
        reports = [report_with({"T2m": 41.0})] + [
            report_with({"T2m": None}) for _ in range(4)
        ]
        agg = aggregate_runs(reports)
        entry = agg["metrics"]["blowup_day"]["T2m"]
        vals = np.array([41.0, 730.0, 730.0, 730.0, 730.0])
        assert entry["mean"] == pytest.approx(vals.mean())
        assert entry["std"] == pytest.approx(vals.std(ddof=1))

    def test_mismatched_variables_rejected(self):
        a = report_with({"T2m": 1.0}, variables=("T2m",))
        b = report_with({"Z500": 1.0}, variables=("Z500",))
        with pytest.raises(ValueError):
            aggregate_runs([a, b])

    def test_single_report_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([report_with({"T2m": 1.0})])

    def test_report_json_round_trip(self):
        rep = report_with({"T2m": 50.0}, seasonality_days={"T2m": 200.0})
        back = StabilityReport.from_dict(rep.to_dict())
        assert back.blowup["T2m"].day == 50.0
        assert back.seasonality["T2m"].day == 200.0
        assert back.small_scale["T2m"].ratio_vs_reference == 1.0


finite = st.floats(allow_nan=False, allow_infinity=False)
day_or_censored = st.none() | finite


@st.composite
def reports(draw):
    variables = tuple(draw(st.lists(st.sampled_from(("T2m", "U10", "V10", "Z500")),
                                    min_size=1, max_size=3, unique=True)))
    rep = StabilityReport(name=draw(st.text(max_size=8)), horizon_days=draw(finite),
                          variables=variables)
    for v in variables:
        rep.blowup[v] = BlowupResult(
            day=draw(day_or_censored), triggered_by=draw(st.sampled_from((None, "min", "max"))),
            r2=draw(st.none() | finite), slope_sign=draw(st.sampled_from((None, -1, 1))))
        rep.seasonality[v] = SeasonalityResult(
            day=draw(day_or_censored), multiplier=draw(finite),
            run_length=draw(st.none() | st.integers(0, 10**6)))
        rep.small_scale[v] = draw(st.none() | st.builds(
            SmallScaleResult, ratio_vs_reference=finite, ratio_vs_self=finite,
            window_days=finite, truncated=st.booleans()))
    return rep


class TestReportRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(rep=reports())
    def test_json_round_trip_is_lossless(self, rep):
        assert StabilityReport.from_dict(json.loads(json.dumps(rep.to_dict()))) == rep


class TestBuildReport:
    def test_matches_report_assembled_by_hand(self):
        grid = GridSpec.regular(16, 384)  # resolves the small band
        variables = ("T2m", "U10")
        pred, _ = generate(RegimeConfig(regime="BLOWUP", grid=grid, variables=variables,
                                        onset_day=40.0, growth_rate=0.1, seed=4), 90)
        ref, _ = generate(RegimeConfig(regime="STABLE", grid=grid, variables=variables,
                                       seed=5, year_jitter=0.2), 730)
        rep = build_report(pred, ref, name="two")
        assert rep.variables == variables
        for v in variables:
            ext = global_extremes(pred, v)
            blow = detect_blowup(ext.min, ext.max)
            ref_spec = spectrum_series(ref, v, daily=True)
            spec = spectrum_series(pred, v, daily=True)
            envelope = build_envelope(ref_spec.daily_band("large"))
            assert rep.blowup[v] == blow
            assert rep.seasonality[v] == detect_seasonality_loss(
                spec.daily_band("large"), envelope)
            assert rep.small_scale[v] == small_scale_ratios(spec, ref_spec,
                                                            blowup_day=blow.day)
        assert rep.blowup["T2m"].day is not None
        assert rep.small_scale["T2m"] is not None

    def test_file_equals_in_memory_with_uneven_blocks(self, tmp_path, monkeypatch):
        grid = GridSpec.regular(16, 384)
        variables = ("T2m", "U10")
        pred, _ = generate(RegimeConfig(regime="BLOWUP", grid=grid, variables=variables,
                                        onset_day=40.0, growth_rate=0.1, seed=4), 100,
                           step_seconds=86400)
        ref, _ = generate(RegimeConfig(regime="STABLE", grid=grid, variables=variables,
                                       seed=5, year_jitter=0.2), 730, step_seconds=86400)
        in_memory = build_report(pred, ref, name="two")
        write_rollout(pred, tmp_path / "pred.rgf")
        write_rollout(ref, tmp_path / "ref.rgf")
        # 10 rows per block: 101 and 731 steps leave a 1-row tail block
        monkeypatch.setattr(gridio, "BLOCK_BYTES", 10 * 16 * 384 * 8)
        with RolloutFile(tmp_path / "pred.rgf") as p, RolloutFile(tmp_path / "ref.rgf") as r:
            from_file = build_report(p, r, name="two")
        assert from_file == in_memory
        assert from_file.small_scale["T2m"] is not None

    def test_peak_memory_flat_in_the_horizon(self, tmp_path, monkeypatch):
        """The report pass holds blocks, not files: doubling the prediction's
        horizon leaves its traced peak within 10%."""
        grid = GridSpec.regular(128, 64)
        rng = np.random.default_rng(0)

        def rollout(days):
            data = rng.standard_normal((days + 1, 1, 128, 64)).astype(np.float32)
            return make_series(grid, data, step_seconds=86400)

        write_rollout(rollout(730), tmp_path / "ref.rgf")
        monkeypatch.setattr(gridio, "BLOCK_BYTES", 64 * 128 * 64 * 4)
        peaks = []
        for days in (730, 1460):  # a 24 MB, then a 48 MB prediction
            write_rollout(rollout(days), tmp_path / "pred.rgf")
            tracemalloc.start()
            try:
                with RolloutFile(tmp_path / "pred.rgf") as p, \
                        RolloutFile(tmp_path / "ref.rgf") as r:
                    build_report(p, r)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] <= 1.1 * peaks[0], peaks


def whole_array_cycle_rmse(a, b, v):
    """The seasonal-cycle RMSE as a whole-array formula: each series cast to
    float64 whole and averaged per calendar month by ``mean(axis=0)``."""
    month = a.timestamps.astype("datetime64[M]").astype(int) % 12
    x, y = a.values(v).astype(np.float64), b.values(v).astype(np.float64)
    w = cell_weights(a.grid)
    sq = 0.0
    for m in range(12):
        diff = x[month == m].mean(axis=0) - y[month == m].mean(axis=0)
        sq += float((w * diff**2).sum())
    return math.sqrt(sq / 12.0)


def whole_years(grid, years, first_year, steps_per_day, seed, variables=("T2m", "Z500"),
                fill_value=None):
    """``years`` whole calendar years of random fields from Jan 1 of ``first_year``."""
    start = datetime(first_year, 1, 1)
    days = (datetime(first_year + years, 1, 1) - start).days
    rng = np.random.default_rng(seed)
    data = 280 + 10 * rng.standard_normal((days * steps_per_day, len(variables),
                                           grid.n_lat, grid.n_lon))
    return RolloutSeries(grid=grid, variables=variables, start_time=start,
                         data=data.astype(np.float32), step_seconds=86400 // steps_per_day,
                         fill_value=fill_value)


class TestSeasonalCycleRmseWalked:
    """Each input is reduced in one walk to per-cell monthly sums; that gives
    the whole-array formula's bytes however the walk is blocked."""

    @settings(max_examples=25, deadline=None)
    @given(
        # (lat, lon); a grid needs 3 latitudes for a row off the poles
        shape=st.tuples(st.integers(3, 6), st.integers(1, 9)),
        years=st.integers(1, 2),
        first_year=st.sampled_from([2019, 2020, 2021]),  # 2020 is a leap year
        steps_per_day=st.sampled_from([1, 4]),
        seed=st.integers(0, 2**32 - 1),
        block_rows=st.integers(1, 400),
        fill=st.booleans(),
        v=st.sampled_from(["T2m", "Z500"]),
    )
    def test_equal_to_whole_array_formula(self, shape, years, first_year, steps_per_day,
                                          seed, block_rows, fill, v):
        grid = GridSpec.regular(*shape)
        fill_value = -9e30 if fill else None
        a = whole_years(grid, years, first_year, steps_per_day, seed, fill_value=fill_value)
        b = whole_years(grid, years, first_year, steps_per_day, seed + 1)
        want = whole_array_cycle_rmse(a, b, v)
        cells = grid.n_lat * grid.n_lon
        # a ragged last block, for block_rows that do not divide the horizon
        with mock.patch.object(gridio, "BLOCK_BYTES", block_rows * cells * 2 * 4), \
                tempfile.TemporaryDirectory() as d:
            assert gridio.block_rows(a) == block_rows
            write_rollout(a, Path(d) / "a.rgf")
            write_rollout(b, Path(d) / "b.rgf")
            with RolloutFile(Path(d) / "a.rgf") as fa, RolloutFile(Path(d) / "b.rgf") as fb:
                got_files = seasonal_cycle_rmse(fa, fb, v)
            got_series = seasonal_cycle_rmse(a, b, v)
        assert np.float64(got_files).tobytes() == np.float64(want).tobytes()
        assert np.float64(got_series).tobytes() == np.float64(want).tobytes()

    def test_peak_memory_flat_when_the_horizon_doubles(self, tmp_path, monkeypatch):
        """The traced peak of one year against one year and of two against
        two differ by far less than the float64 copy of a year the
        whole-array formula held per input (11.2 MB here)."""
        grid = GridSpec.regular(16, 60)
        cells = grid.n_lat * grid.n_lon
        monkeypatch.setattr(gridio, "BLOCK_BYTES", 50 * cells * 4)  # 50 steps a block
        peaks = []
        for years in (1, 2):
            p = tmp_path / f"{years}.rgf"
            write_rollout(whole_years(grid, years, 2021, 4, 0, variables=("T2m",)), p)
            with RolloutFile(p) as a, RolloutFile(p) as b:
                tracemalloc.start()
                try:
                    seasonal_cycle_rmse(a, b, "T2m")
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        year_float64 = 365 * 4 * cells * 8
        assert peaks[1] - peaks[0] < year_float64 / 20, peaks

    @pytest.mark.parametrize("holed", ["rollout", "reference"])
    def test_fill_cell_stops_the_walk_and_its_thread(self, tmp_path, holed):
        grid = GridSpec.regular(4, 8)
        clean = whole_years(grid, 1, 2021, 4, 0)
        data = clean.data.copy()
        data[1000, 1, 2, 3] = np.nan
        write_rollout(clean, tmp_path / "clean.rgf")
        write_rollout(RolloutSeries(grid=grid, variables=clean.variables,
                                    start_time=clean.start_time, data=data,
                                    step_seconds=clean.step_seconds, fill_value=-9e30),
                      tmp_path / "holed.rgf")
        paths = {"rollout": tmp_path / "clean.rgf", "reference": tmp_path / "clean.rgf",
                 holed: tmp_path / "holed.rgf"}
        threads = threading.active_count()
        with RolloutFile(paths["rollout"]) as a, RolloutFile(paths["reference"]) as b:
            assert seasonal_cycle_rmse(a, b, "T2m") == 0.0  # the hole is in Z500
            with pytest.raises(IncompleteFieldError, match="'Z500'"):
                seasonal_cycle_rmse(a, b, "Z500")
            assert threading.active_count() == threads
