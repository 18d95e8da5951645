import os
import tempfile
import threading
import tracemalloc
from datetime import datetime, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings, strategies as st

from rollstab import GridSpec, band_average, spectrum_series, wavelength_of, zonal_spectrum
from rollstab import gridio, spectra
from rollstab.gridio import (
    IncompleteFieldError,
    RolloutFile,
    RolloutSeries,
    TruncatedPayloadError,
    latitude_weights,
    write_rollout,
)
from rollstab.spectra import (
    BandUnresolvedError,
    band_members,
    wavelengths,
)
from conftest import make_series


def naive_zonal_spectrum(field, grid):
    """O(n^2) DFT oracle: same convention, no FFT."""
    n = grid.n_lon
    w = np.cos(np.radians(grid.lats)).clip(0)
    w = w / w.sum()
    n_k = n // 2 + 1
    out = np.zeros(n_k)
    for k in range(n_k):
        acc = 0.0
        for i in range(grid.n_lat):
            c = 0j
            for j in range(n):
                c += field[i, j] * np.exp(-2j * np.pi * k * j / n)
            acc += w[i] * abs(c) / n
        out[k] = acc
    return out


class TestZonalSpectrum:
    def test_constant_field(self, small_grid):
        f = np.full((8, 16), 3.5)
        s = zonal_spectrum(f, small_grid)
        assert s[0] == pytest.approx(3.5, abs=1e-12)
        assert np.all(s[1:] < 1e-10)

    def test_cosine_single_wavenumber(self):
        g = GridSpec.regular(6, 64)
        f = np.cos(4 * np.radians(g.lons))[None, :] * np.ones((6, 1))
        s = zonal_spectrum(f, g)
        assert s[4] == pytest.approx(0.5, abs=1e-12)
        others = np.delete(s, 4)
        assert np.all(others < 1e-10)

    def test_matches_naive_dft(self):
        g = GridSpec.regular(5, 32)
        rng = np.random.default_rng(3)
        f = rng.standard_normal((5, 32))
        fast = zonal_spectrum(f, g)
        slow = naive_zonal_spectrum(f, g)
        assert np.allclose(fast, slow, rtol=1e-6, atol=1e-12)

    def test_parseval_per_row(self):
        # full pre-amplitude coefficients: sum |c_k|^2 equals mean square
        rng = np.random.default_rng(5)
        for n in (16, 60):
            row = rng.standard_normal(n)
            coeffs = np.fft.fft(row) / n
            assert np.sum(np.abs(coeffs) ** 2) == pytest.approx(
                np.mean(row**2), rel=1e-6
            )

    def test_rotation_invariance(self, small_grid):
        rng = np.random.default_rng(11)
        f = rng.standard_normal((8, 16))
        s0 = zonal_spectrum(f, small_grid)
        s1 = zonal_spectrum(np.roll(f, 5, axis=1), small_grid)
        assert np.allclose(s0, s1, atol=1e-10)

    def test_tiny_grid_rejected(self):
        g = GridSpec(lats=np.array([0.0]), lons=np.array([0.0, 180.0]))
        with pytest.raises(ValueError):
            zonal_spectrum(np.zeros((1, 2)), g)


class TestWavelengths:
    def test_reference_values(self, small_grid):
        assert wavelength_of(1, small_grid) == pytest.approx(40030.17, abs=0.5)
        assert wavelength_of(8, small_grid) == pytest.approx(5003.77, abs=0.5)
        assert wavelength_of(161, small_grid) == pytest.approx(248.63, abs=0.1)

    def test_k0_is_infinite(self, small_grid):
        assert wavelength_of(0, small_grid) == np.inf

    def test_negative_k_rejected(self, small_grid):
        with pytest.raises(ValueError):
            wavelength_of(-1, small_grid)


class TestBands:
    def test_every_k_in_exactly_one_bucket(self, fine_grid):
        lam = wavelengths(fine_grid)
        large = set(band_members(fine_grid, "large"))
        medium = set(band_members(fine_grid, "medium"))
        small = set(band_members(fine_grid, "small"))
        gap = {k for k in range(lam.size) if 1000.0 < lam[k] < 5000.0}
        buckets = [large, medium, small, gap]
        for k in range(lam.size):
            assert sum(k in b for b in buckets) == 1

    def test_flat_spectrum_every_band_one(self, fine_grid):
        ones = np.ones(fine_grid.n_lon // 2 + 1)
        for band in ("large", "medium", "small"):
            assert band_average(ones, fine_grid, band) == pytest.approx(1.0)

    def test_energy_only_at_k2(self, fine_grid):
        e = np.zeros(fine_grid.n_lon // 2 + 1)
        e[2] = 4.0
        assert band_average(e, fine_grid, "large") > 0
        assert band_average(e, fine_grid, "medium") == 0
        assert band_average(e, fine_grid, "small") == 0

    def test_small_band_unresolved_on_coarse_grid(self):
        g = GridSpec.from_resolution(1.5)  # 240 lon points, min lambda ~334 km
        with pytest.raises(BandUnresolvedError):
            band_members(g, "small")

    def test_k0_belongs_to_large(self, fine_grid):
        assert 0 in band_members(fine_grid, "large")


class TestSpectrumSeries:
    def test_daily_aggregation_of_constant_field(self, fine_grid):
        data = np.full((8, 1, 16, 384), 2.0)
        r = make_series(fine_grid, data)
        per_step = spectrum_series(r, "T2m")
        daily = spectrum_series(r, "T2m", daily=True)
        assert daily.n_time == 2
        assert np.allclose(daily.band_large, per_step.band_large[0])
        assert np.allclose(daily.energy[0], per_step.energy[0])

    def test_band_small_none_on_coarse_grid(self):
        g = GridSpec.from_resolution(1.5)
        rng = np.random.default_rng(0)
        r = make_series(g, rng.standard_normal((2, 1, g.n_lat, g.n_lon)))
        spec = spectrum_series(r, "T2m")
        assert spec.band_small is None
        with pytest.raises(BandUnresolvedError):
            spec.band("small")

    def test_band_values_equal_energy_band_mean(self, fine_grid):
        rng = np.random.default_rng(1)
        r = make_series(fine_grid, rng.standard_normal((4, 1, 16, 384)))
        spec = spectrum_series(r, "T2m")
        for band in ("large", "medium", "small"):
            idx = band_members(fine_grid, band)
            assert np.allclose(spec.band(band), spec.energy[:, idx].mean(axis=1))

    def test_energy_nonnegative(self, fine_grid):
        rng = np.random.default_rng(2)
        r = make_series(fine_grid, rng.standard_normal((4, 1, 16, 384)))
        spec = spectrum_series(r, "T2m")
        assert np.all(spec.energy >= 0)

    def test_thread_cap_env_var_preserves_results(self, fine_grid, monkeypatch):
        rng = np.random.default_rng(3)
        r = make_series(fine_grid, rng.standard_normal((80, 1, 16, 384)))
        monkeypatch.setenv("ROLLOUT_STAB_THREADS", "1")
        serial = spectrum_series(r, "T2m")
        monkeypatch.setenv("ROLLOUT_STAB_THREADS", "4")
        threaded = spectrum_series(r, "T2m")
        assert np.array_equal(serial.energy, threaded.energy)

    def test_block_walk_preserves_results(self, fine_grid, monkeypatch):
        rng = np.random.default_rng(4)
        r = make_series(fine_grid, rng.standard_normal((83, 1, 16, 384)))
        one_block = spectrum_series(r, "T2m")
        one_daily = spectrum_series(r, "T2m", daily=True)
        # 5 rows per block: 83 steps leave a 3-row tail block
        monkeypatch.setattr(gridio, "BLOCK_BYTES", 5 * 16 * 384 * 12)
        many = spectrum_series(r, "T2m")
        many_daily = spectrum_series(r, "T2m", daily=True)
        assert np.array_equal(one_block.energy, many.energy)
        assert np.array_equal(one_daily.energy, many_daily.energy)
        assert np.array_equal(one_daily.band_large, many_daily.band_large)

    def test_daily_band_needs_daily_spectra(self, fine_grid):
        r = make_series(fine_grid, np.ones((8, 1, 16, 384)))
        daily = spectrum_series(r, "T2m", daily=True).daily_band("large")
        assert len(daily) == 2
        with pytest.raises(ValueError, match="daily=True"):
            spectrum_series(r, "T2m").daily_band("large")

    @pytest.mark.parametrize("mode", ["hourly", "Daily", True, False, 1])
    def test_unknown_spectra_mode_rejected(self, fine_grid, mode):
        """``spectra`` is "steps", "daily" or None; nothing else is read as one."""
        r = make_series(fine_grid, np.ones((8, 1, 16, 384)))
        with pytest.raises(ValueError, match=f"spectra must be 'steps', 'daily' or None, "
                                             f"got {mode!r}"):
            spectra.scan(r, ("T2m",), spectra=mode)


def whole_array_spectra(x, grid):
    """The spectra of a (time, lat, lon) stack in one whole-array transform."""
    amp = np.abs(scipy.fft.rfft(x.astype(np.float64), axis=-1)) / grid.n_lon
    return np.einsum("j,tjk->tk", latitude_weights(grid), amp)


class TestTiledScan:
    """A block is read at once but transformed in tiles on a worker pool;
    neither the tiling nor the pool may change a byte of the spectra."""

    @settings(max_examples=60, deadline=None)
    @given(
        # (time, lat, lon); a grid needs 3 latitudes for a row off the poles
        shape=st.tuples(st.integers(1, 30), st.integers(3, 9), st.integers(4, 40)),
        seed=st.integers(0, 2**32 - 1),
        block_rows=st.integers(1, 12),
        tile_bytes=st.none() | st.integers(1, 6000),  # None keeps TILE_BYTES
        threads=st.integers(1, 4),
        via_file=st.booleans(),
        fill=st.booleans(),
        daily=st.booleans(),
        start_s=st.integers(0, 86399),  # the first step at any second of its day
        step_s=st.integers(600, 2 * 86400),
    )
    # a step of 1.05 MB exceeds the real TILE_BYTES, so each tile is one step
    @example(shape=(5, 128, 1025), seed=0, block_rows=3, tile_bytes=None, threads=2,
             via_file=True, fill=False, daily=False, start_s=0, step_s=21600)
    # 5-hour steps from 03 UTC: days of 4 and 5 steps, a partial first and last
    @example(shape=(30, 3, 8), seed=0, block_rows=7, tile_bytes=200, threads=3,
             via_file=False, fill=False, daily=True, start_s=3 * 3600, step_s=5 * 3600)
    def test_equal_to_whole_array_transform(self, shape, seed, block_rows, tile_bytes,
                                            threads, via_file, fill, daily, start_s, step_s):
        """Per-step spectra, or their means over each UTC day summed as the
        scan walks, are the bytes of a whole-array transform and mean."""
        n_time, n_lat, n_lon = shape
        grid = GridSpec.regular(n_lat, n_lon)
        data = np.random.default_rng(seed).standard_normal((n_time, 1, n_lat, n_lon)) * 30
        r = RolloutSeries(grid=grid, variables=("T2m",),
                          start_time=datetime(2021, 1, 1) + timedelta(seconds=start_s),
                          data=data.astype(np.float32), step_seconds=step_s,
                          fill_value=-9e30 if fill else None)
        want, times = whole_array_spectra(r.values("T2m"), grid), r.timestamps
        mode = "daily" if daily else "steps"
        if daily:  # each UTC day's whole-array mean
            days = times.astype("datetime64[D]")
            times = np.unique(days)
            want = np.stack([want[days == d].mean(axis=0) for d in times])
        with mock.patch.object(gridio, "BLOCK_BYTES", block_rows * n_lat * n_lon * 12), \
                mock.patch.object(gridio, "TILE_BYTES", tile_bytes or gridio.TILE_BYTES), \
                mock.patch.dict(os.environ, {"ROLLOUT_STAB_THREADS": str(threads)}), \
                tempfile.TemporaryDirectory() as d:
            if via_file:
                write_rollout(r, Path(d) / "r.rgf")
                with RolloutFile(Path(d) / "r.rgf") as f:
                    got = spectra.scan(f, ("T2m",), spectra=mode).spectra["T2m"]
            else:
                got = spectra.scan(r, ("T2m",), spectra=mode).spectra["T2m"]
        assert np.array_equal(got.timestamps, times.astype("datetime64[s]"))
        assert got.energy.tobytes() == want.tobytes()

    def test_peak_memory_grows_by_the_series_it_returns(self, monkeypatch):
        """Doubling the horizon adds to a daily scan's traced peak about the
        daily spectra it returns, not the 4x larger per-step ones; a per-step
        scan adds those and about nothing else."""
        grid = GridSpec.regular(3, 512)
        n_k, names = grid.n_lon // 2 + 1, ("a", "b", "c", "d")
        data = np.random.default_rng(0).standard_normal((480, 4, 3, 512), dtype=np.float32)
        monkeypatch.setenv("ROLLOUT_STAB_THREADS", "1")
        monkeypatch.setattr(gridio, "BLOCK_BYTES", 60 * 3 * 512 * (4 * 4 + 8))  # 60 steps

        def peak(n, mode):
            r = make_series(grid, data[:n], variables=names)
            tracemalloc.start()
            try:
                spectra.scan(r, names, spectra=mode, regions=(gridio.GLOBE,))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(240, "daily")  # warm caches
        added_days, added_steps = (len(names) * k * n_k * 8 for k in (60, 240))
        daily = peak(480, "daily") - peak(240, "daily")
        assert daily < 1.25 * added_days, (daily, added_days)
        steps = peak(480, "steps") - peak(240, "steps")
        assert added_steps <= steps < 1.1 * added_steps, (steps, added_steps)

    def test_peak_memory_grows_by_the_block_buffer_only(self, tmp_path, monkeypatch):
        """Quadrupling BLOCK_BYTES adds about the extra float32 block the
        walk reads into to a scan's traced peak, and no float64 or complex
        copy of it: those are made per tile."""
        grid = GridSpec.regular(64, 128)  # 64 KiB of float64 a step: 16 steps a tile
        cells = grid.n_lat * grid.n_lon
        data = np.random.default_rng(0).standard_normal((256, 1, 64, 128))
        write_rollout(make_series(grid, data), tmp_path / "r.rgf")
        monkeypatch.setenv("ROLLOUT_STAB_THREADS", "2")
        peaks = []
        for rows in (64, 256):
            monkeypatch.setattr(gridio, "BLOCK_BYTES", rows * cells * 12)
            with RolloutFile(tmp_path / "r.rgf") as f:
                tracemalloc.start()
                try:
                    spectra.scan(f, ("T2m",), regions=(gridio.GLOBE,))
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        extra = (256 - 64) * cells * 4  # 6 MiB more of float32 block buffer
        assert peaks[1] - peaks[0] < 1.5 * extra, peaks

    def test_peak_memory_does_not_grow_with_the_variables(self, tmp_path, monkeypatch):
        """A block of four variables' whole frames stays within BLOCK_BYTES:
        the scan's traced peak is that block plus a few tiles' float64 and
        complex copies, where a block of BLOCK_BYTES of float64 per variable
        would hold 2 x BLOCK_BYTES of float32 alone."""
        grid = GridSpec.regular(64, 128)  # 64 KiB of float64 a step: 16 steps a tile
        rng = np.random.default_rng(0)
        data = rng.standard_normal((128, 4, 64, 128), dtype=np.float32)
        write_rollout(make_series(grid, data, variables=("a", "b", "c", "d")),
                      tmp_path / "r.rgf")
        del data
        block = 8 << 20
        monkeypatch.setattr(gridio, "BLOCK_BYTES", block)
        monkeypatch.setenv("ROLLOUT_STAB_THREADS", "1")
        with RolloutFile(tmp_path / "r.rgf") as f:
            tracemalloc.start()
            try:
                spectra.scan(f, f.variables, regions=(gridio.GLOBE,))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < block + 4 * gridio.TILE_BYTES, peak

    @pytest.fixture
    def holed(self, tmp_path):
        """A 60-step file with a fill cell at step 25 of variable b."""
        data = np.random.default_rng(1).standard_normal((60, 2, 16, 384)).astype(np.float32)
        data[25, 1, 3, 5] = np.nan
        p = tmp_path / "holed.rgf"
        write_rollout(RolloutSeries(grid=GridSpec.regular(16, 384), variables=("a", "b"),
                                    start_time=datetime(2021, 1, 1), data=data,
                                    fill_value=-9e30), p)
        return p

    @pytest.mark.parametrize("ending", ["complete", "fill value", "truncated", "tile fails"])
    def test_no_thread_outlives_a_scan(self, holed, monkeypatch, ending):
        """However a scan ends, its tile pool and its file walk's hashing
        thread are gone when it returns or raises."""
        step = 16 * 384 * 8
        monkeypatch.setattr(gridio, "BLOCK_BYTES", 10 * 16 * 384 * 16)  # 10 steps a block
        monkeypatch.setattr(gridio, "TILE_BYTES", 3 * step)  # 3 steps a tile
        monkeypatch.setenv("ROLLOUT_STAB_THREADS", "3")
        transform, seen = spectra._spectra, []

        def counted(*args):
            seen.append(threading.active_count())
            if ending == "tile fails" and len(seen) == 9:
                raise RuntimeError("tile failed")
            transform(*args)

        monkeypatch.setattr(spectra, "_spectra", counted)
        variables = ("a",) if ending != "fill value" else ("a", "b")
        before = threading.active_count()
        with RolloutFile(holed) as f:
            if ending == "truncated":  # after the open's size check: 20 of 60 steps left
                holed.write_bytes(holed.read_bytes()[:-40 * step])  # a frame: 2 float32 fields
            if ending == "complete":
                spectra.scan(f, variables)
                assert len(seen) == 6 * 4
            else:
                error = {"fill value": IncompleteFieldError, "truncated": TruncatedPayloadError,
                         "tile fails": RuntimeError}[ending]
                with pytest.raises(error):
                    spectra.scan(f, variables)
            assert threading.active_count() == before
        # the walk's hasher and at most three tile workers ran meanwhile
        assert before < max(seen) <= before + 4


class TestThreadCount:
    def test_default_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("ROLLOUT_STAB_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert spectra.thread_count() == 1

    def test_default_without_affinity_is_the_cpu_count(self, monkeypatch):
        monkeypatch.delenv("ROLLOUT_STAB_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert spectra.thread_count() == 3

    @pytest.mark.parametrize("value", ["1", "2", "4"])
    def test_env_var_sets_the_count(self, monkeypatch, value):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setenv("ROLLOUT_STAB_THREADS", value)
        assert spectra.thread_count() == int(value)
