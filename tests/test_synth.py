import hashlib
import json
from dataclasses import asdict, fields, replace
from datetime import datetime, timedelta

import numpy as np
import pytest

from rollstab import (GridSpec, PerturbationSpec, RegimeConfig, SynthAdapter, generate,
                      run_rollout)
from rollstab.climatology import ClimatologyEnvelope, build_envelope
from rollstab.detectors import detect_seasonality_loss
from rollstab.gridio import DailySeries
from rollstab.spectra import BandUnresolvedError, band_members, spectrum_series, zonal_spectrum
from rollstab.synth import config_from_dict, config_to_dict, initial_state


FINE = GridSpec.regular(16, 384)
EPOCH = datetime(2021, 1, 1)


def quiet_config(**kw):
    base = dict(regime="STABLE", g_large=1.0, g_medium=1.0, g_small=1.0,
                seasonal_amplitude=0.0, noise_large=0.0, noise_medium=0.0,
                noise_small=0.0, grid=FINE)
    base.update(kw)
    return RegimeConfig(**base)


class TestSynthStep:
    def test_identity_map(self):
        cfg = quiet_config()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 384))
        y = SynthAdapter(cfg).step(x[None], EPOCH)[0]
        assert np.allclose(y, x, atol=1e-12)

    def test_zero_small_gain_removes_small_band(self):
        cfg = quiet_config(regime="BLUR", g_small=0.0)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((16, 384))
        y = SynthAdapter(cfg).step(x[None], EPOCH)[0]
        spec = zonal_spectrum(y, FINE)
        idx = band_members(FINE, "small")
        assert np.all(spec[idx] < 1e-12)
        assert zonal_spectrum(x, FINE)[idx].max() > 1e-3

    def test_blowup_geometric_mode_growth(self):
        delta = 0.05
        cfg = quiet_config(regime="BLOWUP", growth_rate=delta, onset_day=1.0,
                           seed_amplitude=0.1, g_large=0.9, g_medium=0.9,
                           g_small=0.9)
        x = np.zeros((16, 384))
        clock = EPOCH
        from datetime import timedelta

        amps = []
        k0 = None
        k0 = SynthAdapter(cfg).planted_k
        for i in range(60):
            x = SynthAdapter(cfg).step(x[None], clock)[0]
            clock += timedelta(seconds=21600)
            amps.append(zonal_spectrum(x, FINE)[k0])
        amps = np.array(amps)
        # planted at the step crossing onset (step 4); grows by (1+delta) after
        a0 = amps[4]
        assert a0 > 0
        growth = amps[10:] / amps[9:-1]
        assert np.allclose(growth, 1.0 + delta, rtol=1e-6)

    def test_variable_zero_does_not_see_a_second_variable(self):
        two = RegimeConfig(regime="BLOWUP", growth_rate=0.05, onset_day=0.5, seed=4,
                           variables=("T2m", "Z500"))
        ad1, ad2 = SynthAdapter(replace(two, variables=("T2m",))), SynthAdapter(two)
        x1, x2 = ad1.initial_state(), ad2.initial_state()
        clock = EPOCH
        for _ in range(8):  # the blow-up mode is planted at step 2
            x1, x2 = ad1.step(x1, clock), ad2.step(x2, clock)
            assert x2[0].tobytes() == x1[0].tobytes()
            clock += timedelta(seconds=21600)

    def test_one_transform_pair_per_step_for_any_number_of_variables(self, monkeypatch):
        calls = []

        def counted(name, fft):
            def call(*args, **kwargs):
                calls.append(name)
                return fft(*args, **kwargs)
            return call

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        ad = SynthAdapter(RegimeConfig(regime="STABLE", variables=("T2m", "Z500", "U10")))
        ad.step(ad.initial_state(), EPOCH)
        assert calls == ["rfft", "irfft"]

    def test_state_shape_checked(self):
        with pytest.raises(ValueError, match="initial state does not match"):
            run_rollout(SynthAdapter(quiet_config()), np.zeros((1, 4, 4)), EPOCH, 1)

    def test_energy_conserved_when_untouched(self):
        # gains 1, no noise, no forcing: relative drift < 1e-6 over 1000 steps
        cfg = quiet_config()
        rng = np.random.default_rng(2)
        x = rng.standard_normal((16, 384))
        e0 = zonal_spectrum(x, FINE)
        clock = EPOCH
        from datetime import timedelta

        for _ in range(1000):
            x = SynthAdapter(cfg).step(x[None], clock)[0]
            clock += timedelta(seconds=21600)
        e1 = zonal_spectrum(x, FINE)
        rel = np.abs(e1[1:] - e0[1:]) / np.maximum(e0[1:], 1e-30)
        assert rel.max() < 1e-6

    def test_clock_before_epoch_rejected(self):
        with pytest.raises(ValueError, match=r"clock 2001-01-01T00:00:00 ends before the "
                                             r"config's epoch 2021-01-01T00:00:00"):
            SynthAdapter(quiet_config()).step(np.zeros((16, 384))[None], datetime(2001, 1, 1))[0]


class TestGenerate:
    def test_bit_reproducible(self):
        cfg = RegimeConfig(regime="STABLE", seed=5)
        a, _ = generate(cfg, 60)
        b, _ = generate(cfg, 60)
        assert np.array_equal(a.data, b.data)

    def test_prefix_property(self):
        # a longer run with the same seed extends the shorter one bit-exactly
        cfg = RegimeConfig(regime="STABLE", seed=6)
        short, _ = generate(cfg, 60)
        long, _ = generate(cfg, 90)
        assert np.array_equal(long.data[: short.n_time], short.data)

    def test_run_matches_manual_steps(self):
        cfg = quiet_config(noise_large=0.05, noise_medium=0.05, noise_small=0.05,
                           g_large=0.9, g_medium=0.9, g_small=0.9,
                           seasonal_amplitude=2.0)
        series, _ = generate(cfg, 60)
        from datetime import timedelta

        x = initial_state(cfg, 0)
        assert np.allclose(series.data[0, 0], x.astype(np.float32))
        clock = EPOCH
        for i in range(4):
            x = SynthAdapter(cfg).step(x[None], clock)[0]
            clock += timedelta(seconds=21600)
            assert np.allclose(series.data[i + 1, 0], x.astype(np.float32))

    def test_multi_variable_independent_evolution(self):
        cfg = RegimeConfig(regime="STABLE", seed=1, variables=("T2m", "Z500"),
                           grid=GridSpec.regular(8, 64))
        run, _ = generate(cfg, 60)
        assert run.data.shape[1] == 2
        assert not np.allclose(run.data[:, 0], run.data[:, 1])

    def test_stable_labels(self):
        cfg = RegimeConfig(regime="STABLE", seed=1)
        _, labels = generate(cfg, 60)
        assert labels.blowup_window is None
        assert labels.small_scale_direction == "eq1"

    def test_blowup_labels_window(self):
        cfg = RegimeConfig(regime="BLOWUP", growth_rate=0.1, onset_day=80,
                           seed=2)
        _, labels = generate(cfg, 200)
        lo, hi = labels.blowup_window
        assert lo == 80.0
        assert hi > lo
        assert labels.noise_floor > 0

    def test_blur_labels_when_small_band_is_only_nyquist(self):
        # at 322 columns the small band is k=161, the noise-free Nyquist column
        grid = GridSpec.regular(4, 322)
        assert band_members(grid, "small").tolist() == [161]
        _, labels = generate(RegimeConfig(regime="BLUR", g_small=0.5, grid=grid), 60)
        assert labels.small_scale_direction == "lt1"
        assert labels.ratio_vs_self_estimate is None

    def test_blur_ratio_estimate_uses_the_injected_noise(self):
        # at 323 columns k=161 is interior and carries the whole small-band noise
        cfg = RegimeConfig(regime="BLUR", g_small=0.5, grid=GridSpec.regular(4, 323))
        _, labels = generate(cfg, 60)
        sigma = cfg.noise_small * 323 / 2.0  # one noisy wavenumber
        steady = sigma / np.sqrt(1.0 - 0.5**2)
        assert labels.ratio_vs_self_estimate == pytest.approx(
            steady / (cfg.init_std * np.sqrt(323 / 2.0)), rel=1e-12)

    def test_horizon_too_short_rejected(self):
        with pytest.raises(ValueError):
            generate(RegimeConfig(regime="STABLE"), 30)

    def test_failed_rollout_raises(self):
        # the clock leaves datetime's range mid-run: no short series comes back
        cfg = RegimeConfig(regime="STABLE", grid=GridSpec.regular(4, 16))
        with pytest.raises(ValueError, match="stopped early.*step 123"):
            generate(cfg, 60, start_time=datetime(9999, 12, 1))

    def test_drift_labels_count_from_the_start(self):
        """The seasonal decay counts from the config's epoch, so a run started
        60 days after it is expected to leave its envelope 60 days sooner."""
        cfg = RegimeConfig(regime="DRIFT", tau_days=100.0, grid=GridSpec.regular(4, 32))
        zeros = np.zeros(365)
        envelope = ClimatologyEnvelope("band_large", zeros, zeros, zeros + 0.01, (2021, 2021))
        (lo0, hi0), (lo, hi) = (
            generate(cfg, 120, start_time=EPOCH + timedelta(days=d))[1]
            .expected_seasonality_window(envelope) for d in (0, 60))
        assert lo == pytest.approx(lo0 - 60.0, abs=1e-9)
        assert hi == pytest.approx(hi0 - 60.0, abs=1e-9)

    def test_drift_tau_must_fit_horizon(self):
        cfg = RegimeConfig(regime="DRIFT", tau_days=200.0)
        with pytest.raises(ValueError):
            generate(cfg, 100)

    def test_stable_band_large_within_own_extension_envelope(self):
        cfg = RegimeConfig(regime="STABLE", seed=9, seasonal_amplitude=5.0)
        run, _ = generate(cfg, 365)
        extension, _ = generate(cfg, 1826)
        env = build_envelope(spectrum_series(extension, "T2m", daily=True).daily_band("large"))
        spec = spectrum_series(run, "T2m", daily=True)
        daily = DailySeries(spec.timestamps.astype("datetime64[D]"), spec.band_large)
        res = detect_seasonality_loss(daily, env, multiplier=2.0, run_days=45)
        assert res.day is None
        # complete days sit inside [min, max], being a prefix of the reference
        # (the final day holds only the midnight step, so it is skipped)
        from rollstab.gridio import folded_doy

        doys = folded_doy(daily.dates)[:-1]
        vals = daily.values[:-1]
        assert np.all(vals <= env.max[doys - 1] + 1e-9)
        assert np.all(vals >= env.min[doys - 1] - 1e-9)


class TestRegimeValidation:
    def test_blowup_needs_delta_and_onset(self):
        with pytest.raises(ValueError):
            RegimeConfig(regime="BLOWUP", onset_day=50)
        with pytest.raises(ValueError):
            RegimeConfig(regime="BLOWUP", growth_rate=0.1)

    def test_stable_gains_capped_at_one(self):
        with pytest.raises(ValueError):
            RegimeConfig(regime="STABLE", g_small=1.2)

    def test_sharpen_needs_cap_and_gain(self):
        with pytest.raises(ValueError):
            RegimeConfig(regime="SHARPEN", g_small=0.9, cap=1.0)
        with pytest.raises(ValueError):
            RegimeConfig(regime="SHARPEN", g_small=1.1)

    def test_drift_needs_tau(self):
        with pytest.raises(ValueError):
            RegimeConfig(regime="DRIFT")

    def test_no_variables(self):
        with pytest.raises(ValueError, match="variables must name at least one variable"):
            RegimeConfig(regime="STABLE", variables=())

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            RegimeConfig(regime="CHAOS")

    def test_sharpen_requires_resolved_small_band(self):
        cfg = RegimeConfig(regime="SHARPEN", g_small=1.05, cap=5.0,
                           grid=GridSpec.from_resolution(1.5))
        with pytest.raises(BandUnresolvedError):
            generate(cfg, 60)


class TestConfigJSON:
    def test_round_trip(self):
        cfg = RegimeConfig(regime="BLOWUP", growth_rate=0.05, onset_day=150,
                           seed=7, year_jitter=0.1)
        back = config_from_dict(config_to_dict(cfg))
        assert config_to_dict(back) == config_to_dict(cfg)

    def test_round_trip_keeps_every_field(self):
        cfg = RegimeConfig(
            regime="BLOWUP", grid=GridSpec.regular(8, 64, earth_radius_km=6000.0),
            variables=("T2m", "U10"), g_large=0.9, g_medium=0.8, g_small=0.7,
            seasonal_amplitude=3.0, tau_days=40.0, onset_day=150.0, growth_rate=0.05,
            blowup_band="large", seed_amplitude=0.1, noise_large=0.01, noise_medium=0.03,
            noise_small=0.04, cap=7.0, init_std=0.5, year_jitter=0.1, jitter_cycle_years=4,
            epoch=datetime(2019, 3, 1, 6), seed=7,
        )
        default = RegimeConfig(regime="STABLE")
        back = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        for f in fields(RegimeConfig):
            a, b = getattr(cfg, f.name), getattr(back, f.name)
            if f.name == "grid":
                assert not a.same_geometry(default.grid)
                assert np.array_equal(a.lats, b.lats) and np.array_equal(a.lons, b.lons)
                assert a.earth_radius_km == b.earth_radius_km != default.grid.earth_radius_km
            else:
                assert a != getattr(default, f.name), f"{f.name} left at its default"
                assert a == b, f.name

    def test_shorthand_grid(self):
        cfg = config_from_dict({"regime": "STABLE", "grid": {"n_lat": 8, "n_lon": 64}})
        assert (cfg.grid.n_lat, cfg.grid.n_lon) == (8, 64)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"regime": "STABLE", "bogus": 1})


def _sha256(data: np.ndarray, doc) -> str:
    """One digest of a float32 frame array and a JSON-able document."""
    h = hashlib.sha256(np.ascontiguousarray(data, dtype=np.float32).tobytes())
    h.update(json.dumps(doc, sort_keys=True).encode())
    return h.hexdigest()


# 16x240 resolves the large and medium bands; SHARPEN and BLUR act on the
# small band, which a grid resolves from 324 columns up
_GOLDEN_GRID = GridSpec.regular(16, 240)
_SMALL_BAND_GRID = GridSpec.regular(16, 384)
_GOLDEN_RUNS = {
    "STABLE": dict(regime="STABLE", seed=11),
    "BLOWUP": dict(regime="BLOWUP", growth_rate=0.1, onset_day=20.0, seed=12),
    "DRIFT": dict(regime="DRIFT", tau_days=30.0, year_jitter=0.2, seed=13,
                  epoch=datetime(2020, 12, 1)),
    "SHARPEN": dict(regime="SHARPEN", g_small=1.05, cap=5.0, seed=14, grid=_SMALL_BAND_GRID),
    "BLUR": dict(regime="BLUR", g_small=0.5, seed=15, grid=_SMALL_BAND_GRID),
    "STABLE-4var": dict(regime="STABLE", variables=("T2m", "Z500", "U10", "V10"), seed=16),
}
_GOLDEN_DIGESTS = {
    "STABLE": "de67374b3e45b1f95f33408512569f454114302235b88ff1f66b388dcdc0cb4b",
    "BLOWUP": "b84bb62bc7c83d961dd8331909c1e651f6569290115239c3e9f3157fdb189041",
    "DRIFT": "3efff875c7c2f782cfd0d9553aa816e6e84b6ff9ee7ee668f866f89fb94eee03",
    "SHARPEN": "ca17054a917b7158ab16046f3e0d2c1a3f30b17dc47421e466cc4d5902accab7",
    "BLUR": "2a5b97433af69d2a714ee4437903a2db647c043bd21e61afef1cb22b5560f8db",
    "STABLE-4var": "a6190913b6a4b4476181a5a1133b162b682c5468ef8d9a28a067ee731a03a008",
    "rollout": "abf47130b66de40789a3a4d8f55ff02c990662bb9c41f439c6232f35771674f0",
}


class TestGolden:
    """Frames and labels of fixed runs, digested: any change to the generator's
    arithmetic, noise keys or step order shows as a new digest. The digests
    were taken with numpy 2.4 on x86-64; another FFT build may round otherwise."""

    @pytest.mark.parametrize("case", list(_GOLDEN_RUNS))
    def test_generate(self, case):
        series, labels = generate(RegimeConfig(**{"grid": _GOLDEN_GRID, **_GOLDEN_RUNS[case]}), 60)
        assert _sha256(series.data, asdict(labels)) == _GOLDEN_DIGESTS[case]

    def test_perturbed_shifted_rollout(self):
        cfg = RegimeConfig(regime="BLOWUP", growth_rate=0.05, onset_day=10.0, seed=17,
                           variables=("T2m", "Z500"), grid=_GOLDEN_GRID)
        ad = SynthAdapter(cfg)
        spec = PerturbationSpec(kind="GRF", k=0.5, correlation_length=4.0, seed=3)
        run = run_rollout(ad, ad.initial_state(), EPOCH, 120, spec=spec,
                          stats={"T2m": (0.5, 2.0), "Z500": (1.0, 3.0)},
                          time_shift_days=10.5)
        assert _sha256(run.data, run.attrs) == _GOLDEN_DIGESTS["rollout"]
