import numpy as np
import pytest

from rollstab import GridSpec, band_average, spectrum_series, wavelength_of, zonal_spectrum
from rollstab import spectra
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
        monkeypatch.setattr(spectra, "BLOCK_BYTES", 5 * 16 * 384 * 8)
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
