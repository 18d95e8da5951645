import json
import sys
import tracemalloc
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

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
from rollstab import gridio
from rollstab.gridio import (
    FormatError,
    IncompleteFieldError,
    RolloutFile,
    RolloutWriter,
    read_rollout,
    write_rollout,
)
from rollstab.perturb import ExternalProcessAdapter, gaussian_random_field, pooled_stats
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


class _Rows:
    """``source`` walked ``rows`` steps per block, whatever block size is asked for."""

    def __init__(self, source, rows):
        self.source, self.rows = source, rows

    def __getattr__(self, name):
        return getattr(self.source, name)

    def blocks(self, _rows):
        return self.source.blocks(self.rows)


class TestPooledStats:
    """One walk over any block source; the result does not depend on the blocks."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_blocks_and_file_agree_exactly_and_match_numpy(self, tmp_path_factory, data):
        shape = (data.draw(st.integers(1, 60)), data.draw(st.integers(1, 3)),
                 data.draw(st.integers(1, 5)), data.draw(st.sampled_from([4, 8, 12])))
        offset = data.draw(st.sampled_from([0.0, 280.0, -5e4]))
        values = data.draw(arrays(np.float32, shape,
                                  elements=st.floats(-1e3, 1e3, width=32)))
        r = RolloutSeries(grid=GridSpec.regular(shape[2], shape[3]),
                          variables=tuple(f"v{i}" for i in range(shape[1])),
                          start_time=EPOCH, data=values + np.float32(offset))
        want = pooled_stats(r, r.variables)
        rows = data.draw(st.integers(1, 40))
        for n in (1, 7, 40, rows):
            assert pooled_stats(_Rows(r, n), r.variables) == want
        path = tmp_path_factory.getbasetemp() / "pooled.rgf"
        write_rollout(r, path)
        with RolloutFile(path) as f:
            assert pooled_stats(_Rows(f, rows), f.variables) == want
        for vi, v in enumerate(r.variables):
            x = r.data[:, vi].astype(np.float64)
            scale = 1e-12 * float(np.abs(x).max())  # for a mean or std near 0
            assert want[v][0] == pytest.approx(x.mean(), rel=1e-12, abs=scale)
            assert want[v][1] == pytest.approx(x.std(), rel=1e-12, abs=scale)
        assert variable_stats(r, r.variables[-1]) == want[r.variables[-1]]

    @pytest.fixture
    def holed(self):
        data = np.random.default_rng(2).standard_normal((40, 2, 4, 8)).astype(np.float32)
        data[30, 0, 1, 2] = np.nan  # a, in the block of steps 28..34
        data[17, 1, 0, 0] = np.nan  # b, in the block of steps 14..20
        return RolloutSeries(grid=GridSpec.regular(4, 8), variables=("a", "b"),
                             start_time=EPOCH, data=data, fill_value=-9e30)

    def test_fill_met_mid_walk_names_the_first_holed_block_s_variable(self, holed):
        with pytest.raises(IncompleteFieldError, match="'b'"):
            pooled_stats(_Rows(holed, 7), ("a", "b"))
        with pytest.raises(IncompleteFieldError, match="'a'"):
            pooled_stats(_Rows(holed, 7), ("a",))
        with pytest.raises(IncompleteFieldError, match="'a'"):
            pooled_stats(_Rows(holed, 40), ("a", "b"))  # one block: variables order

    def test_file_fill_and_nan_mid_walk(self, holed, tmp_path):
        p = tmp_path / "holed.rgf"
        write_rollout(holed, p)
        with RolloutFile(p) as f, pytest.raises(IncompleteFieldError, match="'b'"):
            pooled_stats(_Rows(f, 7), ("a", "b"))
        clean = RolloutSeries(grid=holed.grid, variables=holed.variables, start_time=EPOCH,
                              data=np.nan_to_num(holed.data))
        write_rollout(clean, p)
        raw = bytearray(p.read_bytes())
        raw[-400:-396] = np.float32(np.nan).tobytes()  # step 38, without a fill value
        p.write_bytes(bytes(raw))
        with RolloutFile(p) as f:
            with pytest.raises(FormatError, match="non-finite values present"):
                pooled_stats(_Rows(f, 7), ("a", "b"))


class TestPooledStatsTiled:
    """Each block is reduced a tile of steps at a time, in one tile-sized
    float64 scratch, never one the size of a block."""

    @pytest.mark.parametrize("tile_rows", [1, 2, 3, 7, 16, 49])
    def test_tiles_change_no_byte(self, monkeypatch, tile_rows):
        data = np.random.default_rng(3).standard_normal((50, 2, 6, 20)) * 40 + 280
        r = make_series(GridSpec.regular(6, 20), data, variables=("a", "b"))
        want = pooled_stats(_Rows(r, 50), r.variables)
        monkeypatch.setattr(gridio, "TILE_BYTES", tile_rows * 6 * 20 * 8)
        assert pooled_stats(_Rows(r, 50), r.variables) == want
        assert pooled_stats(_Rows(r, 9), r.variables) == want

    def test_peak_memory_is_one_block_and_a_tile(self, tmp_path, monkeypatch):
        grid = GridSpec.regular(64, 128)  # 64 KiB of float64 a step: 16 steps a tile
        cells = grid.n_lat * grid.n_lon
        data = np.random.default_rng(4).standard_normal((256, 1, 64, 128), dtype=np.float32)
        write_rollout(make_series(grid, data), tmp_path / "r.rgf")
        monkeypatch.setattr(gridio, "BLOCK_BYTES", 128 * cells * 4)  # 128 steps a block
        with RolloutFile(tmp_path / "r.rgf") as f:
            tracemalloc.start()
            try:
                pooled_stats(f, ("T2m",))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        block = 128 * cells * 4  # the walk's float32 buffer; a float64 copy is twice that
        assert peak < block + 4 * gridio.TILE_BYTES, (peak, block)


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
            x = SynthAdapter(cfg).step(x[None], clock)[0]
            clock += timedelta(seconds=21600)
            assert np.allclose(out.data[i + 1, 0], x.astype(np.float32))

    def test_initial_state_left_as_given(self):
        """Each step's result overwrites a state of the run's own, never the
        caller's initial state."""
        ad = SynthAdapter(RegimeConfig(regime="STABLE", seed=3, grid=GridSpec.regular(8, 64)))
        init = ad.initial_state()
        before = init.copy()
        run_rollout(ad, init, EPOCH, 3)
        assert np.array_equal(init, before)

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


class TestRolloutIntoWriter:
    """A run streamed into a RolloutWriter is the file of the same run held in memory."""

    @staticmethod
    def assert_same_file(tmp_path, adapter, init, n_steps, **kw):
        whole, streamed = tmp_path / "whole.rgf", tmp_path / "streamed.rgf"
        write_rollout(run_rollout(adapter, init, EPOCH, n_steps, **kw), whole)
        with RolloutWriter(streamed, adapter.grid, adapter.all_variables, EPOCH, n_steps + 1,
                           adapter.step_seconds) as out:
            assert run_rollout(adapter, init, EPOCH, n_steps, sink=out, **kw) is None
        assert streamed.read_bytes() == whole.read_bytes()
        return read_rollout(streamed)

    def test_successful_run(self, tmp_path):
        ad = SynthAdapter(RegimeConfig(regime="STABLE", seed=1, grid=GridSpec.regular(8, 64),
                                       variables=("T2m", "Z500")))
        got = self.assert_same_file(tmp_path, ad, ad.initial_state(), 9,
                                    spec=PerturbationSpec(kind="GRF", k=0.5, seed=2),
                                    stats={"T2m": (0.0, 3.0), "Z500": (1.0, 2.0)})
        assert got.n_time == 10 and got.attrs["perturbation"]["kind"] == "GRF"

    def test_failing_external_adapter_leaves_the_prefix(self, tmp_path):
        fail = ("import json, shutil, sys\n"
                "if json.load(open('clock.json'))['time'] >= '2021-01-01T12:00:00':\n"
                "    sys.exit(3)\n"
                "shutil.copy('state_in.rgf', 'state_out.rgf')\n")
        manifest = {"command": [sys.executable, "-c", fail], "workdir": str(tmp_path / "work"),
                    "variables": ["T2m"]}
        ad = ExternalProcessAdapter(manifest, grid=GridSpec.regular(4, 8))
        got = self.assert_same_file(tmp_path, ad, np.full((1, 4, 8), 3.0), 6,
                                    spec=PerturbationSpec(kind="WHITE", seed=1),
                                    stats={"T2m": (0.0, 1.0)})
        assert got.n_time == 3 and got.attrs["error"].startswith("adapter failed at step 2")

    def test_header_mismatch_rejected(self, tmp_path):
        ad = SynthAdapter(RegimeConfig(regime="STABLE", seed=1, grid=GridSpec.regular(8, 64)))
        out = RolloutWriter(tmp_path / "x.rgf", ad.grid, ad.all_variables, EPOCH, 4)
        with pytest.raises(ValueError, match="header does not match"):
            run_rollout(ad, ad.initial_state(), EPOCH, 4, sink=out)
        assert not (tmp_path / "x.rgf").exists()


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


class TestExternalStateOut:
    """state_out.rgf must hold one step of the run's variables, in order, on
    the run's grid; anything else fails the step, and the run keeps the
    completed prefix with the usual annotation."""

    MODELS = {
        "reversed variables": "r.variables = r.variables[::-1]; r.data = r.data[:, ::-1]",
        "two steps": "r.data = np.concatenate([r.data, r.data])",
        "latitudes south to north": ("r.grid = gridio.GridSpec(lats=r.grid.lats[::-1], "
                                     "lons=r.grid.lons); r.data = r.data[:, :, ::-1]"),
    }

    @pytest.mark.parametrize("change", [None, *MODELS])
    def test_header_checked(self, tmp_path, change):
        src = str(Path(gridio.__file__).resolve().parent.parent)
        model = (f"import sys; sys.path.insert(0, {src!r}); import numpy as np; "
                 "from rollstab import gridio; r = gridio.read_rollout('state_in.rgf'); "
                 f"{self.MODELS.get(change, 'pass')}; "
                 "gridio.write_rollout(gridio.RolloutSeries(grid=r.grid, variables=r.variables, "
                 "start_time=r.start_time, data=r.data, step_seconds=r.step_seconds), "
                 "'state_out.rgf')")
        manifest = {"command": [sys.executable, "-c", model], "workdir": str(tmp_path),
                    "variables": ["a", "b"]}
        ad = ExternalProcessAdapter(manifest, grid=GridSpec.regular(4, 8))
        init = np.stack([np.full((4, 8), 1.0), np.full((4, 8), 2.0)])
        init[:, 0] += 0.5  # the first row differs, so a flip would show
        out = run_rollout(ad, init, EPOCH, 2)
        if change is None:
            assert out.n_time == 3 and "error" not in out.attrs
            assert np.array_equal(out.data[2], init.astype(np.float32))
            return
        assert out.n_time == 1
        assert out.attrs["error"].startswith("adapter failed at step 0: state_out.rgf holds ")
        assert out.attrs["error"].endswith(", not one of ['a', 'b'] on the run's grid")
