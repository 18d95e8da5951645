"""Acceptance suite: nine binding criteria, one test each, with a printed
pass line per criterion. Criteria 1-7 validate detectors against analytic
oracles and the synthetic regime generator at desk scale; 8 is a documented
pass-through for full-scale data; 9 checks bytewise determinism of the CLI.
"""

import json
import time
from datetime import datetime

import numpy as np
import pytest
from scipy.stats import norm

import rollstab as rs
from rollstab.cli import main as cli_main
from rollstab.climatology import build_envelope
from rollstab.detectors import detect_blowup, detect_seasonality_loss, small_scale_ratios
from rollstab.gridio import DailySeries
from rollstab.memorize import build_index, distance_ratio
from rollstab.perturb import (
    PerturbationSpec,
    SynthAdapter,
    error_trajectory,
    run_rollout,
    variable_stats,
)
from rollstab.spectra import spectrum_series, zonal_spectrum
from conftest import global_extremes, make_series, region_scan

EPOCH = datetime(2021, 1, 1)


def test_acceptance_1_spectral_oracle():
    """zonal_spectrum matches a naive O(n^2) DFT on 100 random fields."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    sizes = [64, 240, 1440]
    n_fields = 100
    worst = 0.0
    for fi in range(n_fields):
        n_lon = sizes[fi % 3]
        n_lat = 4
        grid = rs.GridSpec.regular(n_lat, n_lon)
        field = rng.standard_normal((n_lat, n_lon))
        fast = zonal_spectrum(field, grid)
        # naive O(n^2) DFT, no FFT anywhere
        k = np.arange(n_lon // 2 + 1)
        j = np.arange(n_lon)
        dft = np.exp(-2j * np.pi * np.outer(j, k) / n_lon)
        w = np.cos(np.radians(grid.lats)).clip(0)
        w /= w.sum()
        slow = w @ (np.abs(field.astype(complex) @ dft) / n_lon)
        rel = np.abs(fast - slow) / np.maximum(np.abs(slow), 1e-30)
        worst = max(worst, float(rel.max()))
    elapsed = time.time() - t0
    assert worst < 1e-6
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1: spectral oracle, 100 fields, worst rel err "
          f"{worst:.2e}, {elapsed:.1f}s ... PASS")


def test_acceptance_2_blowup_detector_synthetic():
    """Seeded BLOWUP runs detected inside the analytic window; STABLE clean."""
    t0 = time.time()
    combos = [(d, onset) for d in (0.02, 0.05, 0.1) for onset in (50, 150, 300)]
    hits = 0
    results = []
    for seed in range(20):
        delta, onset = combos[seed % len(combos)]
        cfg = rs.RegimeConfig(regime="BLOWUP", growth_rate=delta, onset_day=onset,
                              seed=seed, seasonal_amplitude=5.0)
        series, labels = rs.generate(cfg, 730)
        ext = global_extremes(series)
        res = detect_blowup(ext.min, ext.max)
        lo, hi = labels.blowup_window
        ok = res.day is not None and lo <= res.day <= hi
        hits += ok
        results.append((seed, delta, onset, res.day, lo, hi, ok))
    assert hits >= 19, f"only {hits}/20 inside the analytic window: {results}"

    false_positives = 0
    for seed in range(20):
        cfg = rs.RegimeConfig(regime="STABLE", seed=100 + seed,
                              seasonal_amplitude=5.0)
        series, _ = rs.generate(cfg, 730)
        ext = global_extremes(series)
        if detect_blowup(ext.min, ext.max).day is not None:
            false_positives += 1
    elapsed = time.time() - t0
    assert false_positives == 0
    assert elapsed < 120.0
    print(f"ACCEPTANCE 2: blow-up {hits}/20 in-window, {false_positives}/20 "
          f"false positives, {elapsed:.0f}s ... PASS")


def test_acceptance_3_seasonality_detector_synthetic():
    """DRIFT flagged inside [t*, t*+60] where t* solves A e^(-t/tau) = 2R."""
    amplitude = 5.0
    ref_cfg = rs.RegimeConfig(regime="STABLE", seed=999,
                              seasonal_amplitude=amplitude, year_jitter=0.16)
    reference, _ = rs.generate(ref_cfg, 1826)  # five calendar years
    envelope = build_envelope(spectrum_series(reference, "T2m", daily=True).daily_band("large"))

    taus = [50, 100, 200, 50, 100, 200, 50, 100, 200, 100]
    flagged = []
    for seed, tau in enumerate(taus):
        cfg = rs.RegimeConfig(regime="DRIFT", seed=seed,
                              seasonal_amplitude=amplitude, tau_days=tau)
        run, labels = rs.generate(cfg, 420)
        spec = spectrum_series(run, "T2m", daily=True)
        daily = DailySeries(spec.timestamps.astype("datetime64[D]"),
                            spec.band_large)
        res = detect_seasonality_loss(daily, envelope, multiplier=2.0,
                                      run_days=45)
        window = labels.expected_seasonality_window(envelope, multiplier=2.0)
        assert res.day is not None, f"tau={tau} seed={seed}: not flagged"
        assert window is not None
        assert window[0] <= res.day <= window[1], (
            f"tau={tau} seed={seed}: day {res.day} outside {window}")
        flagged.append(res.day)

    stable_flags = 0
    for seed in range(10):
        cfg = rs.RegimeConfig(regime="STABLE", seed=500 + seed,
                              seasonal_amplitude=amplitude)
        run, _ = rs.generate(cfg, 1461)  # 4-year horizon
        spec = spectrum_series(run, "T2m", daily=True)
        daily = DailySeries(spec.timestamps.astype("datetime64[D]"),
                            spec.band_large)
        if detect_seasonality_loss(daily, envelope, multiplier=2.0,
                                   run_days=45).day is not None:
            stable_flags += 1
    assert stable_flags == 0
    print(f"ACCEPTANCE 3: drift flagged 10/10 in oracle windows (days "
          f"{flagged}), stable 0/10 flagged over 4 years ... PASS")


def test_acceptance_4_small_scale_regimes():
    """BLUR shrinks, SHARPEN amplifies without blow-up, doubling gives 2.0."""
    grid = rs.GridSpec.regular(16, 384)
    ref_cfg = rs.RegimeConfig(regime="STABLE", grid=grid, seed=77,
                              seasonal_amplitude=5.0)
    reference, _ = rs.generate(ref_cfg, 90)
    ref_spec = spectrum_series(reference, "T2m", daily=True)

    blur = rs.RegimeConfig(regime="BLUR", grid=grid, g_small=0.8, seed=3,
                           seasonal_amplitude=5.0)
    run_b, _ = rs.generate(blur, 90)
    res_b = small_scale_ratios(spectrum_series(run_b, "T2m", daily=True), ref_spec)
    assert res_b.ratio_vs_self < 1.0

    sharpen = rs.RegimeConfig(regime="SHARPEN", grid=grid, g_small=1.05,
                              cap=3.0, seed=4, seasonal_amplitude=0.0)
    run_s, _ = rs.generate(sharpen, 90)
    res_s = small_scale_ratios(spectrum_series(run_s, "T2m", daily=True), ref_spec)
    ext = global_extremes(run_s)
    blow = detect_blowup(ext.min, ext.max)
    assert res_s.ratio_vs_self > 1.0
    assert blow.day is None

    # constructed spectra with the small band uniformly doubled
    from rollstab.spectra import SpectrumSeries, band_average, band_members

    ts = (np.datetime64("2021-01-01", "s")
          + np.arange(50 * 4) * np.timedelta64(21600, "s"))
    n_k = grid.n_lon // 2 + 1
    base = np.zeros((ts.size, n_k))
    base[:, band_members(grid, "small")] = 3.0

    def as_series(energy):
        return SpectrumSeries(
            timestamps=ts, wavenumbers=np.arange(n_k), energy=energy,
            band_large=band_average(energy, grid, "large"),
            band_medium=band_average(energy, grid, "medium"),
            band_small=band_average(energy, grid, "small"), grid=grid)

    doubled = small_scale_ratios(as_series(2.0 * base), as_series(base))
    assert abs(doubled.ratio_vs_reference - 2.0) <= 1e-9
    assert abs(doubled.ratio_vs_self - 1.0) <= 1e-9

    print(f"ACCEPTANCE 4: blur ratio_vs_self={res_b.ratio_vs_self:.3f} < 1, "
          f"sharpen {res_s.ratio_vs_self:.2f} > 1 with no blow-up flag, "
          f"doubled spectra ratio {doubled.ratio_vs_reference:.10f} ... PASS")


def test_acceptance_5_vshape():
    """Noise added to a denoiser's input: error falls then floors."""
    t0 = time.time()
    grid = rs.GridSpec.regular(16, 384)
    ref, _ = rs.generate(rs.RegimeConfig(regime="STABLE", grid=grid, seed=77,
                                         seasonal_amplitude=5.0), 90)
    stats = {"T2m": variable_stats(ref, "T2m")}

    blur_cfg = rs.RegimeConfig(regime="BLUR", grid=grid, g_large=1.0,
                               g_medium=0.8, g_small=0.7, seed=5,
                               seasonal_amplitude=5.0)
    adapter = SynthAdapter(blur_cfg)
    init = adapter.initial_state()
    spec = PerturbationSpec(kind="WHITE", k=1.0, seed=9)
    clean = run_rollout(adapter, init, EPOCH, 60)
    noisy = run_rollout(adapter, init, EPOCH, 60, spec=spec, stats=stats)
    err = error_trajectory(clean, noisy, "T2m")
    assert all(err[i + 1] < err[i] for i in range(5)), "descending arm broken"
    floor = err[-1]
    assert np.all(np.abs(err[40:] - floor) <= 0.2 * floor), "no stable floor"

    sharp_cfg = rs.RegimeConfig(regime="SHARPEN", grid=grid, g_large=1.0,
                                g_medium=1.0, g_small=1.05, cap=1e6, seed=5,
                                seasonal_amplitude=5.0)
    adapter_s = SynthAdapter(sharp_cfg)
    init_s = adapter_s.initial_state()
    clean_s = run_rollout(adapter_s, init_s, EPOCH, 60)
    noisy_s = run_rollout(adapter_s, init_s, EPOCH, 60, spec=spec, stats=stats)
    err_s = error_trajectory(clean_s, noisy_s, "T2m")
    assert all(err_s[i + 1] >= err_s[i] for i in range(len(err_s) - 1))
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"ACCEPTANCE 5: V-shape (descent to floor {floor:.2f}) and "
          f"non-decreasing sharpen trajectory, {elapsed:.1f}s ... PASS")


def test_acceptance_6_memorization():
    """Planted copies flagged, random queries concentrate near ratio 1."""
    rng = np.random.default_rng(42)
    grid = rs.GridSpec.regular(16, 32)
    n = 40 * 365  # a 40-year daily index
    data = rng.standard_normal((n, 1, 16, 32)).astype(np.float32)
    training = make_series(grid, data, start=datetime(1979, 1, 1),
                           step_seconds=86400)
    index = build_index(training)

    t = 5000
    when = training.timestamps[t].astype(datetime)
    planted = distance_ratio(data[t], when, index)
    assert planted.ratio == 0.0

    near = data[t] + np.float32(0.01) * rng.standard_normal(data[t].shape).astype(np.float32)
    near_res = distance_ratio(near, when, index)
    assert near_res.ratio < 0.5

    ratios = []
    for i in range(100):
        q = rng.standard_normal((1, 16, 32)).astype(np.float32)
        when_q = datetime(2021, 1 + (i % 12), 1 + (i % 28))
        ratios.append(distance_ratio(q, when_q, index).ratio)
    median = float(np.median(ratios))
    assert median > 0.8
    print(f"ACCEPTANCE 6: memorization (copy 0.0, near {near_res.ratio:.3f}, "
          f"median random {median:.3f}) ... PASS")


def test_acceptance_7_extremes():
    """Pooled P90 of a standard normal, exact QQ diagonal, shrunk tails."""
    rng = np.random.default_rng(7)
    grid = rs.GridSpec.regular(100, 100)
    data = rng.standard_normal((100, 1, 100, 100)).astype(np.float32)  # 1e6
    pool = make_series(grid, data)
    region = rs.RegionSpec("globe", -90, 90, 0, 360)
    _, cells = region_scan(pool, region)
    thr = rs.pooled_percentiles(cells, "T2m", region.name, [10.0, 90.0], pool.start_time)
    p90 = thr.value_for(90.0)
    assert abs(p90 - norm.ppf(0.9)) < 0.01

    series = rng.standard_normal(50000)
    qq_self = rs.qq_tails(series, series, "hot")
    assert np.array_equal(qq_self.model, qq_self.reference)

    shrunk = series.mean() + 0.5 * (series - series.mean())
    qq_shrunk = rs.qq_tails(shrunk, series, "hot")
    assert np.all(qq_shrunk.model < qq_shrunk.reference)
    print(f"ACCEPTANCE 7: extremes (P90 {p90:.4f} vs {norm.ppf(0.9):.4f}, "
          f"QQ diagonal exact, shrunk tails below at all "
          f"{qq_shrunk.levels.size} levels) ... PASS")


def test_acceptance_8_paper_passthrough_documented():
    """Full-scale reproduction needs user-supplied model and reanalysis RGF
    files; see README 'Reproducing the published tables'. Not run in CI."""
    print("ACCEPTANCE 8: paper-number pass-through is documented, not CI "
          "(requires full-scale inputs) ... SKIP")
    pytest.skip("requires user-supplied full-scale rollout files")


def test_acceptance_9_cli_determinism(tmp_path):
    """Any subcommand run twice with the same manifest is byte-identical."""
    out = tmp_path / "run.rgf"
    labels = tmp_path / "labels.json"
    argv = ["synth", "--regime", "BLOWUP", "--delta", "0.1", "--onset-days",
            "65", "--horizon-days", "120", "--seed", "7", "--grid", "16x240",
            "-o", str(out), "--labels", str(labels)]
    assert cli_main(argv) == 0
    first = (out.read_bytes(), labels.read_bytes())
    assert cli_main(argv) == 0
    assert (out.read_bytes(), labels.read_bytes()) == first

    report = tmp_path / "report.json"
    csv = tmp_path / "report.csv"
    ref = tmp_path / "ref.rgf"
    assert cli_main(["synth", "--regime", "STABLE", "--horizon-days", "800",
                     "--seed", "7", "--grid", "16x240", "-o", str(ref)]) == 0
    argv = ["report", "--prediction", str(out), "--reference", str(ref),
            "-o", str(report), "--csv", str(csv)]
    assert cli_main(argv) == 0
    first = (report.read_bytes(), csv.read_bytes())
    assert cli_main(argv) == 0
    assert (report.read_bytes(), csv.read_bytes()) == first
    print("ACCEPTANCE 9: synth and report reruns byte-identical ... PASS")
