import json
import sys
from datetime import datetime, timedelta

import numpy as np
import pytest

from rollstab import (
    GridSpec,
    ModelAdapter,
    PerturbationSpec,
    RegimeConfig,
    RolloutSeries,
    SynthAdapter,
    apply_perturbation,
    ensemble_spread,
    error_trajectory,
    generate,
    run_rollout,
    variable_stats,
)
from rollstab.gridio import IncompleteFieldError
from rollstab.perturb import ExternalProcessAdapter, gaussian_random_field
from rollstab.synth import Stepper
from rollstab.spectra import band_average, zonal_spectrum
from conftest import make_series

EPOCH = datetime(2021, 1, 1)


class TestVariableStats:
    def test_constant(self, small_grid):
        r = make_series(small_grid, np.full((3, 1, 8, 16), 4.5))
        assert variable_stats(r, "T2m") == (4.5, 0.0)

    def test_two_values(self, small_grid):
        data = np.zeros((2, 1, 8, 16), dtype=np.float32)
        data[1] = 2.0
        r = make_series(small_grid, data)
        mu, sigma = variable_stats(r, "T2m")
        assert (mu, sigma) == (1.0, 1.0)

    def test_standard_normal_monte_carlo(self):
        g = GridSpec.regular(50, 100)
        rng = np.random.default_rng(0)
        r = make_series(g, rng.standard_normal((200, 1, 50, 100)))
        mu, sigma = variable_stats(r, "T2m")
        assert abs(mu) < 0.01 and abs(sigma - 1.0) < 0.01

    def test_fill_cells_rejected_naming_the_variable(self, small_grid):
        data = np.zeros((2, 1, 8, 16), dtype=np.float32)
        data[1, 0, 2, 3] = np.nan
        r = RolloutSeries(grid=small_grid, variables=("T2m",), start_time=datetime(2021, 1, 1),
                          data=data, fill_value=-9e30)
        with pytest.raises(IncompleteFieldError, match="'T2m'"):
            variable_stats(r, "T2m")


class TestApplyPerturbation:
    def setup_method(self):
        self.variables = ("T2m", "Z500", "orog")
        self.statics = ("orog",)
        self.stats = {"T2m": (280.0, 10.0), "Z500": (5000.0, 300.0),
                      "orog": (500.0, 800.0)}
        rng = np.random.default_rng(1)
        self.state = rng.standard_normal((3, 8, 16))

    def test_small_k_limit(self):
        spec = PerturbationSpec(kind="WHITE", k=1e-12, seed=0)
        out = apply_perturbation(self.state, spec, self.stats, self.variables,
                                 self.statics)
        assert np.allclose(out, self.state, atol=1e-9)

    def test_white_seed_reproducible(self):
        spec = PerturbationSpec(kind="WHITE", k=1.0, seed=42)
        a = apply_perturbation(self.state, spec, self.stats, self.variables)
        b = apply_perturbation(self.state, spec, self.stats, self.variables)
        assert np.array_equal(a, b)

    def test_target_selects_dynamic_vs_static(self):
        spec = PerturbationSpec(kind="WHITE", k=1.0, seed=1, target="dynamic")
        out = apply_perturbation(self.state, spec, self.stats, self.variables,
                                 self.statics)
        assert not np.allclose(out[0], self.state[0])
        assert np.array_equal(out[2], self.state[2])  # static untouched
        spec = PerturbationSpec(kind="WHITE", k=1.0, seed=1, target="static")
        out = apply_perturbation(self.state, spec, self.stats, self.variables,
                                 self.statics)
        assert np.array_equal(out[0], self.state[0])
        assert not np.allclose(out[2], self.state[2])

    def test_pure_noise_replaces_with_scalar_stats(self):
        spec = PerturbationSpec(kind="PURE_NOISE", seed=3)
        big = np.zeros((1, 200, 400))
        out = apply_perturbation(big, spec, {"T2m": (280.0, 10.0)}, ("T2m",))
        assert abs(out.mean() - 280.0) < 0.2
        assert abs(out.std() - 10.0) < 0.2

    def test_pure_noise_flat_band_spectrum(self):
        # white replacement noise has no preferred zonal scale
        g = GridSpec.regular(64, 384)
        spec = PerturbationSpec(kind="PURE_NOISE", seed=4)
        out = apply_perturbation(np.zeros((1, 64, 384)), spec,
                                 {"T2m": (0.0, 1.0)}, ("T2m",))
        energy = zonal_spectrum(out[0], g)
        bands = [band_average(energy, g, b) for b in ("large", "medium", "small")]
        for x in bands:
            for y in bands:
                assert abs(x / y - 1.0) < 0.15

    def test_image_init_is_unknown(self):
        with pytest.raises(ValueError, match="unknown perturbation kind"):
            PerturbationSpec(kind="IMAGE_INIT", seed=0)

    def test_missing_stats_rejected(self):
        spec = PerturbationSpec(kind="WHITE", seed=0)
        with pytest.raises(ValueError, match="missing"):
            apply_perturbation(self.state, spec, {"T2m": (0, 1)}, self.variables)


class TestGaussianRandomField:
    def test_std_and_autocorrelation(self):
        rng = np.random.default_rng(7)
        f = gaussian_random_field((1000, 1000), 10.0, rng)
        assert f.std() == pytest.approx(1.0, abs=1e-12)
        ac = np.mean(f * np.roll(f, 10, axis=1))
        assert ac == pytest.approx(np.exp(-0.5), abs=0.05)

    def test_grf_perturbation_std(self):
        spec = PerturbationSpec(kind="GRF", k=2.0, correlation_length=10.0, seed=5)
        state = np.zeros((1, 1000, 1000))
        out = apply_perturbation(state, spec, {"T2m": (0.0, 3.0)}, ("T2m",))
        assert abs(out.std() - 6.0) / 6.0 < 0.05  # k * sigma within 5%


class TestRunRollout:
    def test_matches_manual_synth_steps(self):
        cfg = RegimeConfig(regime="STABLE", seed=3, grid=GridSpec.regular(8, 64))
        ad = SynthAdapter(cfg)
        init = ad.initial_state()
        out = run_rollout(ad, init, EPOCH, 4)
        assert out.n_time == 5
        x = init[0]
        clock = EPOCH
        for i in range(4):
            x = Stepper(cfg).step(x, clock, 21600, 0)
            clock += timedelta(seconds=21600)
            assert np.allclose(out.data[i + 1, 0], x.astype(np.float32))

    def test_external_echo_adapter(self, tmp_path):
        workdir = tmp_path / "work"
        workdir.mkdir()
        echo = ("import shutil; "
                "shutil.copy('state_in.rgf', 'state_out.rgf')")
        manifest = {
            "command": [sys.executable, "-c", echo],
            "workdir": str(workdir),
            "variables": ["T2m"],
        }
        grid = GridSpec.regular(4, 8)
        ad = ExternalProcessAdapter(manifest, grid=grid, step_seconds=3600)
        init = np.full((1, 4, 8), 7.0)
        out = run_rollout(ad, init, EPOCH, 3)
        assert out.n_time == 4
        assert np.all(out.data == 7.0)
        assert out.step_seconds == 3600
        clock = json.loads((workdir / "clock.json").read_text())
        assert clock == {"time": (EPOCH + timedelta(hours=2)).isoformat(), "step_seconds": 3600}

    def test_adapter_failure_annotated(self):
        class Flaky(SynthAdapter):
            def step(self, state, clock):
                if clock >= EPOCH + timedelta(days=1):
                    raise RuntimeError("boom")
                return super().step(state, clock)

        cfg = RegimeConfig(regime="STABLE", seed=0, grid=GridSpec.regular(8, 64))
        ad = Flaky(cfg)
        out = run_rollout(ad, ad.initial_state(), EPOCH, 10)
        assert out.n_time == 5  # init + 4 completed steps
        assert "step 4" in out.attrs["error"]

    def test_nonfinite_adapter_output_annotated(self):
        class Exploding(SynthAdapter):
            def step(self, state, clock):
                out = super().step(state, clock)
                if clock >= EPOCH + timedelta(days=1):
                    out[0, 0, 0] = np.nan
                return out

        cfg = RegimeConfig(regime="STABLE", seed=0, grid=GridSpec.regular(8, 64))
        ad = Exploding(cfg)
        out = run_rollout(ad, ad.initial_state(), EPOCH, 10)
        assert out.n_time == 5
        assert "non-finite" in out.attrs["error"]

    def test_wrong_state_shape_annotated(self):
        class Flat(SynthAdapter):
            def step(self, state, clock):
                return super().step(state, clock)[0]  # drops the variable axis

        cfg = RegimeConfig(regime="STABLE", seed=0, grid=GridSpec.regular(8, 64))
        ad = Flat(cfg)
        out = run_rollout(ad, ad.initial_state(), EPOCH, 3)
        assert out.n_time == 1
        assert "step 0" in out.attrs["error"] and "shape" in out.attrs["error"]

    def test_float32_overflow_keeps_prefix(self):
        # finite in float64, infinite once stored as float32
        class Overflow(ModelAdapter):
            variables = ("T2m",)

            def step(self, state, clock):
                return np.full((1, 4, 8), 1e39 if clock >= EPOCH + timedelta(days=1) else 2.0)

        out = run_rollout(Overflow(GridSpec.regular(4, 8), 21600), np.zeros((1, 4, 8)), EPOCH, 8)
        assert out.attrs["error"] == "adapter produced non-finite fields at step 4"
        assert out.n_time == 5 and np.all(out.data[1:] == 2.0)

    def test_time_shift_advances_forcing_phase(self):
        # pure forcing response: gains 0, no noise
        grid = GridSpec.regular(8, 64)
        cfg = RegimeConfig(regime="STABLE", seed=0, grid=grid, g_large=0.0,
                           g_medium=0.0, g_small=0.0, noise_large=0.0,
                           noise_medium=0.0, noise_small=0.0,
                           seasonal_amplitude=4.0, init_std=0.0)
        ad = SynthAdapter(cfg)
        init = ad.initial_state()
        plain = run_rollout(ad, init, EPOCH, 8)
        half_year = 365.25 / 2
        shifted = run_rollout(ad, init, EPOCH, 8, time_shift_days=half_year)
        # sin flips sign half a year later; output timestamps stay physical
        assert np.array_equal(shifted.timestamps, plain.timestamps)
        a = plain.data[1:, 0].astype(np.float64)
        b = shifted.data[1:, 0].astype(np.float64)
        assert np.allclose(a, -b, rtol=1e-3, atol=1e-6)

    def test_time_shift_requires_support(self, tmp_path):
        manifest = {"command": ["true"], "workdir": str(tmp_path),
                    "variables": ["T2m"]}
        ad = ExternalProcessAdapter(manifest, grid=GridSpec.regular(4, 8))
        spec = PerturbationSpec(kind="WHITE", seed=0)
        with pytest.raises(ValueError, match="time shift"):
            run_rollout(ad, np.zeros((1, 4, 8)), EPOCH, 1, spec=spec,
                        stats={"T2m": (0.0, 1.0)}, time_shift_days=10.0)

    def test_perturbation_reproducible_rollout(self):
        cfg = RegimeConfig(regime="STABLE", seed=1, grid=GridSpec.regular(8, 64))
        ad = SynthAdapter(cfg)
        init = ad.initial_state()
        stats = {"T2m": (0.0, 1.0)}
        spec = PerturbationSpec(kind="WHITE", k=1.0, seed=12)
        a = run_rollout(ad, init, EPOCH, 5, spec=spec, stats=stats)
        b = run_rollout(ad, init, EPOCH, 5, spec=spec, stats=stats)
        assert np.array_equal(a.data, b.data)


class TestErrorTrajectory:
    def test_identical_zero_and_symmetric(self):
        cfg = RegimeConfig(regime="STABLE", seed=2, grid=GridSpec.regular(8, 64))
        run, _ = generate(cfg, 60)
        err = error_trajectory(run, run, "T2m")
        assert np.all(err == 0.0)

    def test_constant_offset(self, small_grid):
        base = np.zeros((4, 1, 8, 16), dtype=np.float32)
        a = make_series(small_grid, base)
        b = make_series(small_grid, base + np.float32(1.5))
        err = error_trajectory(a, b, "T2m")
        assert np.allclose(err, 1.5)
        assert np.allclose(error_trajectory(b, a, "T2m"), err)

    def test_blur_denoiser_descends(self):
        # contraction of a sub-unit-gain map on white noise: early descent
        grid = GridSpec.regular(16, 384)
        cfg = RegimeConfig(regime="BLUR", seed=5, grid=grid, g_large=1.0,
                           g_medium=0.8, g_small=0.7, seasonal_amplitude=5.0)
        ad = SynthAdapter(cfg)
        init = ad.initial_state()
        stats = {"T2m": (0.0, 1.0)}
        clean = run_rollout(ad, init, EPOCH, 20)
        pert = run_rollout(ad, init, EPOCH, 20,
                           spec=PerturbationSpec(kind="WHITE", k=1.0, seed=8),
                           stats=stats)
        err = error_trajectory(clean, pert, "T2m")
        assert all(err[i + 1] < err[i] for i in range(5))


class TestEnsembleSpread:
    def test_identical_members_zero(self):
        cfg = RegimeConfig(regime="STABLE", seed=4, grid=GridSpec.regular(8, 64))
        run, _ = generate(cfg, 60)
        mean_s, max_s = ensemble_spread([run, run], "T2m")
        assert np.all(mean_s == 0.0) and np.all(max_s == 0.0)

    def test_constant_offset_members(self, small_grid):
        base = np.zeros((3, 1, 8, 16), dtype=np.float32)
        a = make_series(small_grid, base)
        b = make_series(small_grid, base + np.float32(2.0))
        mean_s, max_s = ensemble_spread([a, b], "T2m")
        expected = np.sqrt(2.0)  # sample std of {0, 2}
        assert np.allclose(mean_s, expected)
        assert np.allclose(max_s, expected)

    def test_matches_per_pixel_oracle(self):
        grid = GridSpec.regular(8, 64)
        members = [generate(RegimeConfig(regime="STABLE", seed=s, grid=grid), 60)[0]
                   for s in range(5)]
        mean_s, max_s = ensemble_spread(members, "T2m")
        stack = np.stack([m.values("T2m").astype(np.float64) for m in members])
        t = 37
        stds = np.empty((8, 64))
        for i in range(8):
            for j in range(64):
                stds[i, j] = np.std(stack[:, t, i, j], ddof=1)
        from rollstab.gridio import cell_weights

        w = cell_weights(grid)
        assert mean_s[t] == pytest.approx((stds * w).sum())
        assert max_s[t] == pytest.approx(stds.max())

    def test_requires_two_members(self, random_series):
        with pytest.raises(ValueError):
            ensemble_spread([random_series], "T2m")
