import hashlib
import json
import re
import subprocess
import sys
import tracemalloc
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rollstab
from rollstab import perturb, spectra, synth
from rollstab.cli import _apply_config, build_parser, main
from rollstab import GridSpec, RegimeConfig, RolloutSeries, generate, write_rollout
from rollstab.gridio import write_series_csv
from rollstab.synth import config_to_dict, load_config
from conftest import global_extremes, make_series


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def synth_files(tmp_path_factory):
    """Pre-generated small rollouts shared across CLI tests."""
    d = tmp_path_factory.mktemp("data")
    pred = d / "pred.rgf"
    ref = d / "ref.rgf"
    assert run_cli("synth", "--regime", "STABLE", "--horizon-days", 90,
                   "--seed", "3", "--grid", "16x240", "-o", pred) == 0
    assert run_cli("synth", "--regime", "STABLE", "--horizon-days", 800,
                   "--seed", "3", "--grid", "16x240", "-o", ref) == 0
    env = d / "env.json"
    assert run_cli("seasonality", "--input", pred, "--variable", "T2m", "--reference", ref,
                   "--save-envelope", env, "-o", d / "se.json") == 0
    r = rollstab.read_rollout(pred)
    ext = global_extremes(r)
    write_series_csv(d / "min.csv", r.timestamps, ext.min)
    write_series_csv(d / "max.csv", r.timestamps, ext.max)
    cfg = RegimeConfig(regime="STABLE", grid=GridSpec.regular(8, 64), seed=4)
    (d / "cfg.json").write_text(json.dumps(config_to_dict(cfg)))
    return {"dir": d, "pred": pred, "ref": ref, "env": env, "min": d / "min.csv",
            "max": d / "max.csv", "cfg": d / "cfg.json"}


class TestSynthCommand:
    def test_writes_rollout_and_labels(self, tmp_path):
        out = tmp_path / "run.rgf"
        labels = tmp_path / "labels.json"
        rc = run_cli("synth", "--regime", "BLOWUP", "--delta", "0.1",
                     "--onset-days", "65", "--horizon-days", "120",
                     "--seed", "7", "--grid", "8x128", "-o", out,
                     "--labels", labels)
        assert rc == 0
        doc = json.loads(labels.read_text())
        assert doc["regime"] == "BLOWUP"
        assert doc["blowup_window"][0] == 65.0
        assert "manifest" in doc
        r = rollstab.read_rollout(out)
        assert r.n_time == 481

    def test_byte_deterministic(self, tmp_path):
        out = tmp_path / "a.rgf"
        argv = ("synth", "--regime", "DRIFT", "--tau-days", "70",
                "--horizon-days", "90", "--seed", "11", "--grid", "8x64",
                "-o", out)
        assert run_cli(*argv) == 0
        first = out.read_bytes()
        assert run_cli(*argv) == 0
        assert out.read_bytes() == first

    def test_start_before_epoch_exit_2(self, tmp_path, capsys):
        out = tmp_path / "early.rgf"
        assert run_cli("synth", "--regime", "STABLE", "--start-time", "2001-01-01",
                       "--horizon-days", "64.75", "--grid", "4x8", "-o", out) == 2
        err = capsys.readouterr().err
        assert "clock 2001-01-01T00:00:00" in err and "epoch 2021-01-01T00:00:00" in err, err
        assert not out.exists()

    def test_regime_config_file(self, tmp_path):
        cfg = RegimeConfig(regime="STABLE", grid=GridSpec.regular(8, 64), seed=2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        out = tmp_path / "r.rgf"
        assert run_cli("synth", "--regime-config", cfg_path,
                       "--horizon-days", "60", "-o", out) == 0
        assert rollstab.read_rollout(out).grid.n_lon == 64

    def test_regime_config_rejects_field_flags(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(
            RegimeConfig(regime="STABLE", grid=GridSpec.regular(8, 64)))))
        out = tmp_path / "x.rgf"
        assert run_cli("synth", "--regime-config", cfg_path, "--regime", "BLOWUP",
                       "--delta", "0.5", "--grid", "4x8", "--seed", "99",
                       "--horizon-days", "60", "-o", out) == 2
        err = capsys.readouterr().err
        assert "--regime, --grid, --delta, --seed: unused with --regime-config" in err, err
        assert not out.exists()


class TestSynthInputsRejected:
    """Every malformed synth input exits 2 naming its flag, or its file and key."""

    @pytest.mark.parametrize("g_small", ["1.0", "-1.0"])
    def test_blur_needs_small_gain_below_one(self, tmp_path, capsys, g_small):
        out = tmp_path / "b.rgf"
        assert run_cli("synth", "--regime", "BLUR", "--g-small", g_small, "--grid", "4x384",
                       "--horizon-days", "60", "-o", out) == 2
        assert "BLUR requires |g_small| < 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["16x240x5", "16x", "16 x 240", "x240"])
    def test_grid_flag_is_nlat_x_nlon(self, tmp_path, capsys, grid):
        out = tmp_path / "g.rgf"
        assert run_cli("synth", "--grid", grid, "--horizon-days", "60", "-o", out) == 2
        assert f"--grid {grid!r}: expected NLATxNLON" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        ({"variables": "T2m"}, "variables must be a list of names"),
        ({"grid": {"n_lat": 4.7, "n_lon": 8}}, "n_lat: expected int, got 4.7"),
        ({"grid": {"n_lat": 4, "n_lon": 8, "earth_radius_km": 6000}},
         "grid: unknown key 'earth_radius_km'"),
        ({"grid": {"lats": [90, "0", -90], "lons": [0, 180]}},
         "lats: expected float, got '0'"),
        ({"g_large": "0.9"}, "g_large: expected float, got '0.9'"),
        ({"seed": True}, "seed: expected int, got True"),
        ({"epoch": 123}, "epoch: expected an ISO-8601 string, got 123"),
        ({"regime": None}, "regime: expected str, got None"),
    ])
    def test_regime_config_values_checked(self, tmp_path, capsys, change, message):
        doc = {"regime": "STABLE", "grid": {"n_lat": 4, "n_lon": 8}} | change
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "c.rgf"
        assert run_cli("synth", "--regime-config", cfg, "--horizon-days", "60", "-o", out) == 2
        assert capsys.readouterr().err == f"rollstab: {cfg}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--g-large", "-1.5"], "STABLE requires |g_large| and |g_medium| <= 1"),
        (["--regime", "SHARPEN", "--g-small", "1.1", "--cap", "10", "--g-medium", "1.5"],
         "SHARPEN requires |g_large| and |g_medium| <= 1"),
        (["--regime", "DRIFT", "--tau-days", "30", "--g-small", "-1.5"],
         "DRIFT requires |g_small| <= 1"),
    ])
    def test_gains_bounded_in_magnitude(self, tmp_path, capsys, flags, message):
        out = tmp_path / "g.rgf"
        assert run_cli("synth", *flags, "--grid", "4x384", "--horizon-days", "60",
                       "-o", out) == 2
        assert capsys.readouterr().err == f"rollstab: {message}\n"
        assert not out.exists()

    def test_start_time_with_utc_offset_exit_2(self, tmp_path, capsys):
        out = tmp_path / "s.rgf"
        assert run_cli("synth", "--start-time", "2021-01-01T00:00:00+05:00", "--grid", "4x8",
                       "--horizon-days", "60", "-o", out) == 2
        assert capsys.readouterr().err == (
            "rollstab: --start-time: 2021-01-01T00:00:00+05:00 carries a UTC offset; "
            "give the UTC time without one\n")
        assert not out.exists()

    def test_epoch_with_utc_offset_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"regime": "STABLE", "grid": {"n_lat": 4, "n_lon": 8},
                                   "epoch": "2021-01-01T00:00:00+05:00"}))
        out = tmp_path / "c.rgf"
        assert run_cli("synth", "--regime-config", cfg, "--horizon-days", "60", "-o", out) == 2
        assert capsys.readouterr().err.startswith(
            f"rollstab: {cfg}: epoch: 2021-01-01T00:00:00+05:00 carries a UTC offset")
        assert not out.exists()


class TestSpectraCommand:
    def test_csv_output_and_determinism(self, tmp_path, synth_files):
        a = tmp_path / "a.csv"
        argv = ("spectra", "--input", synth_files["pred"], "--variable", "T2m",
                "--daily", "-o", a)
        assert run_cli(*argv) == 0
        first = a.read_bytes()
        assert run_cli(*argv) == 0
        assert a.read_bytes() == first
        lines = a.read_text().splitlines()
        assert lines[0].startswith("# rollstab")
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "timestamp,band_large,band_medium,band_small"

    def test_full_dump(self, tmp_path, synth_files):
        out = tmp_path / "bands.csv"
        full = tmp_path / "full.csv"
        assert run_cli("spectra", "--input", synth_files["pred"],
                       "--variable", "T2m", "-o", out,
                       "--full-output", full) == 0
        head = [l for l in full.read_text().splitlines() if not l.startswith("#")][0]
        assert head.startswith("timestamp,k0,k1,")

    def test_unknown_variable_exit_2(self, tmp_path, synth_files):
        assert run_cli("spectra", "--input", synth_files["pred"],
                       "--variable", "Zonk", "-o", tmp_path / "x.csv") == 2

    def test_unresolved_medium_band_column_left_empty(self, tmp_path):
        # 64 longitudes: no wavelength falls in 250..1000 km or below 250 km
        grid = GridSpec.regular(8, 64)
        r = make_series(grid, np.random.default_rng(1).standard_normal((8, 1, 8, 64)))
        write_rollout(r, tmp_path / "coarse.rgf")
        out = tmp_path / "bands.csv"
        assert run_cli("spectra", "--input", tmp_path / "coarse.rgf", "--variable", "T2m",
                       "-o", out) == 0
        lines = out.read_text().splitlines()
        assert [l for l in lines if l.startswith("# note:")] == [
            "# note: medium band unresolved on this grid; column left empty",
            "# note: small band unresolved on this grid; column left empty",
        ]
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 8
        assert all(row[1] and row[2:] == ["", ""] for row in rows)


class TestBlowupCommand:
    def test_from_rgf(self, tmp_path, synth_files):
        out = tmp_path / "b.json"
        assert run_cli("blowup", "--input", synth_files["pred"],
                       "--variable", "T2m", "-o", out) == 0
        doc = json.loads(out.read_text())
        assert doc["censored"] is True
        assert doc["manifest"]["subcommand"] == "blowup"

    def test_from_csv_series(self, tmp_path):
        t = np.arange(200 * 4)
        ts = (np.datetime64("2021-01-01", "s")
              + t * np.timedelta64(21600, "s"))
        vals = np.exp(0.2 * np.clip(t / 4.0 - 60.0, 0, None))
        from rollstab.gridio import write_series_csv

        mn, mx = tmp_path / "min.csv", tmp_path / "max.csv"
        write_series_csv(mn, ts, vals)
        write_series_csv(mx, ts, vals)
        out = tmp_path / "res.json"
        assert run_cli("blowup", "--min-csv", mn, "--max-csv", mx, "-o", out) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["blowup_day"] - 60.0) <= 1.0

    def test_short_series_exit_3(self, tmp_path):
        ts = (np.datetime64("2021-01-01", "s")
              + np.arange(8) * np.timedelta64(21600, "s"))
        from rollstab.gridio import write_series_csv

        mn = tmp_path / "min.csv"
        write_series_csv(mn, ts, np.ones(8))
        assert run_cli("blowup", "--min-csv", mn, "--max-csv", mn,
                       "-o", tmp_path / "r.json") == 3


class TestSeasonalityCommand:
    def test_with_reference_and_envelope_reuse(self, tmp_path, synth_files):
        out = tmp_path / "s.json"
        env = tmp_path / "env.json"
        assert run_cli("seasonality", "--input", synth_files["pred"],
                       "--variable", "T2m", "--reference", synth_files["ref"],
                       "--save-envelope", env, "-o", out) == 0
        doc = json.loads(out.read_text())
        assert doc["censored"] is True
        out2 = tmp_path / "s2.json"
        assert run_cli("seasonality", "--input", synth_files["pred"],
                       "--variable", "T2m", "--envelope", env, "-o", out2) == 0
        assert (json.loads(out2.read_text())["seasonality_loss_day"]
                == doc["seasonality_loss_day"])

    def test_missing_climatology_exit_2(self, tmp_path, synth_files):
        assert run_cli("seasonality", "--input", synth_files["pred"],
                       "--variable", "T2m", "-o", tmp_path / "x.json") == 2

    def test_envelope_that_is_not_one_exit_2(self, tmp_path, synth_files, capsys):
        # a result JSON of another kind: the message names the file and the key
        not_env, out = tmp_path / "se.json", tmp_path / "x.json"
        not_env.write_text((synth_files["dir"] / "se.json").read_text())
        assert run_cli("seasonality", "--input", synth_files["pred"], "--variable", "T2m",
                       "--envelope", not_env, "-o", out) == 2
        err = capsys.readouterr().err
        assert f"{not_env}: envelope: missing key 'statistic'" in err, err
        assert not out.exists()


class TestSmallscaleCommand:
    def test_unresolved_band_exit_3(self, tmp_path, synth_files):
        # 240-longitude grid cannot resolve wavelengths below 250 km
        assert run_cli("smallscale", "--input", synth_files["pred"],
                       "--reference", synth_files["ref"], "--variable", "T2m",
                       "-o", tmp_path / "x.json") == 3

    def test_fine_grid_ratios(self, tmp_path):
        pred = tmp_path / "p.rgf"
        ref = tmp_path / "r.rgf"
        for seed, path in ((1, pred), (2, ref)):
            assert run_cli("synth", "--regime", "STABLE", "--horizon-days", 60,
                           "--seed", seed, "--grid", "16x384", "-o", path) == 0
        out = tmp_path / "ss.json"
        assert run_cli("smallscale", "--input", pred, "--reference", ref,
                       "--variable", "T2m", "-o", out) == 0
        doc = json.loads(out.read_text())
        assert 0.5 < doc["ratio_vs_reference"] < 2.0


class TestCycleRmseCommand:
    def test_identical_is_zero(self, tmp_path):
        grid = GridSpec.regular(8, 64)
        data = np.random.default_rng(0).standard_normal((365 * 4, 1, 8, 64))
        r = make_series(grid, data, start=datetime(2021, 1, 1))
        p = tmp_path / "a.rgf"
        write_rollout(r, p)
        out = tmp_path / "rmse.json"
        assert run_cli("cycle-rmse", "--input", p, "--reference", p,
                       "--variable", "T2m", "-o", out) == 0
        assert json.loads(out.read_text())["seasonal_cycle_rmse"] < 1e-6


class TestPerturbCommand:
    def test_synth_adapter_roundtrip(self, tmp_path, synth_files):
        cfg = RegimeConfig(regime="STABLE", grid=GridSpec.regular(8, 64), seed=4)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        out = tmp_path / "rollout.rgf"
        rc = run_cli("perturb", "--adapter", f"synth:{cfg_path}",
                     "--kind", "white", "--k", "1", "--seed", "3",
                     "--stats-from", synth_files["pred"], "--steps", "8",
                     "-o", out)
        assert rc == 0
        r = rollstab.read_rollout(out)
        assert r.n_time == 9
        assert r.attrs["perturbation"]["kind"] == "WHITE"

    def test_missing_stats_exit_2(self, tmp_path):
        cfg = RegimeConfig(regime="STABLE", grid=GridSpec.regular(8, 64))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        assert run_cli("perturb", "--adapter", f"synth:{cfg_path}",
                       "--kind", "white", "--steps", "4",
                       "-o", tmp_path / "x.rgf") == 2

    def test_image_init_not_offered(self, tmp_path, synth_files, capsys):
        out = tmp_path / "x.rgf"
        with pytest.raises(SystemExit) as exc:
            main(["perturb", "--adapter", f"synth:{synth_files['cfg']}", "--kind", "image_init",
                  "--stats-from", str(synth_files["pred"]), "--steps", "2", "-o", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'image_init'" in capsys.readouterr().err
        assert not out.exists()

    def test_target_selecting_no_variable_exit_2(self, tmp_path, synth_files, capsys):
        # a synth adapter has no static variables
        out = tmp_path / "x.rgf"
        assert run_cli("perturb", "--adapter", f"synth:{synth_files['cfg']}", "--kind", "white",
                       "--target", "static", "--stats-from", synth_files["pred"],
                       "--steps", "2", "-o", out) == 2
        assert "target 'static' selects none of the variables" in capsys.readouterr().err
        assert not out.exists()

    def test_shift_only_run_is_the_shifted_rollout(self, tmp_path, synth_files):
        shifted, plain = tmp_path / "shifted.rgf", tmp_path / "plain.rgf"
        argv = ("perturb", "--adapter", f"synth:{synth_files['cfg']}", "--steps", "8")
        assert run_cli(*argv, "--time-shift-days", "90", "-o", shifted) == 0
        assert run_cli(*argv, "-o", plain) == 0
        ad = rollstab.SynthAdapter(load_config(synth_files["cfg"]))
        want = rollstab.run_rollout(ad, ad.initial_state(), ad.cfg.epoch, 8,
                                    time_shift_days=90.0)
        got = rollstab.read_rollout(shifted)
        assert got.data.tobytes() == want.data.tobytes()
        assert got.data.tobytes() != rollstab.read_rollout(plain).data.tobytes()
        assert "perturbation" not in got.attrs
        assert got.attrs["manifest"]["params"]["time_shift_days"] == 90.0

    @pytest.mark.parametrize("clock, argv", [
        ("2001-01-01T00:00:00", ["--start-time", "2001-01-01"]),
        ("2020-12-02T00:00:00", ["--time-shift-days", "-30"]),
        ("2020-12-02T00:00:00", ["--kind", "white", "--time-shift-days", "-30"]),
    ])
    def test_synth_clock_before_epoch_exit_2(self, tmp_path, synth_files, capsys, clock,
                                             argv):
        out = tmp_path / "x.rgf"
        stats = ["--stats-from", synth_files["pred"]] if "--kind" in argv else []
        assert run_cli("perturb", "--adapter", f"synth:{synth_files['cfg']}", "--steps", "3",
                       *argv, *stats, "-o", out) == 2
        err = capsys.readouterr().err
        assert f"clock {clock}" in err and "epoch 2021-01-01T00:00:00" in err, err
        assert not out.exists()

    def test_start_time_with_utc_offset_exit_2(self, tmp_path, synth_files, capsys):
        out = tmp_path / "x.rgf"
        assert run_cli("perturb", "--adapter", f"synth:{synth_files['cfg']}", "--steps", "3",
                       "--start-time", "2021-01-01T00:00:00+05:00", "-o", out) == 2
        assert "--start-time: 2021-01-01T00:00:00+05:00 carries a UTC offset" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_shift_brings_an_early_clock_to_the_epoch(self, tmp_path, synth_files):
        # the shifted clock is the one a step is keyed by
        out = tmp_path / "x.rgf"
        assert run_cli("perturb", "--adapter", f"synth:{synth_files['cfg']}", "--steps", "3",
                       "--start-time", "2020-12-02", "--time-shift-days", "30",
                       "-o", out) == 0
        r = rollstab.read_rollout(out)
        assert r.n_time == 4 and "error" not in r.attrs


class TestAdapterManifestRead:
    """An external adapter's manifest is read strictly and errors name the file."""

    @pytest.mark.parametrize("change, message", [
        ({"command": None}, "manifest: missing key 'command'"),
        ({"bogus": 1}, "manifest: unknown key 'bogus'"),
        ({"variables": "T2m"}, "variables must be a list of names"),
        ({"static_variables": [1]}, "static_variables must be a list of names"),
        ({"supports_time_shift": "false"},
         "supports_time_shift: expected bool, got 'false'"),
    ])
    def test_bad_manifest_exit_2(self, tmp_path, synth_files, capsys, change, message):
        echo = "import shutil; shutil.copy('state_in.rgf', 'state_out.rgf')"
        doc = {"command": [sys.executable, "-c", echo], "workdir": str(tmp_path / "work"),
               "variables": ["T2m"]} | change
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
        out = tmp_path / "x.rgf"
        assert run_cli("perturb", "--adapter", f"external:{manifest}", "--init",
                       synth_files["pred"], "--steps", "1", "-o", out) == 2
        assert capsys.readouterr().err == f"rollstab: {manifest}: {message}\n"
        assert not out.exists()


class TestStepLength:
    """The adapter owns the step length, so perturb and synth agree at any."""

    def test_perturb_synth_adapter_equals_synth(self, tmp_path, synth_files):
        a, b = tmp_path / "perturb.rgf", tmp_path / "synth.rgf"
        assert run_cli("perturb", "--adapter", f"synth:{synth_files['cfg']}", "--steps", 60,
                       "--step-seconds", 86400, "-o", a) == 0
        assert run_cli("synth", "--regime-config", synth_files["cfg"], "--horizon-days", 60,
                       "--step-seconds", 86400, "-o", b) == 0
        ra, rb = rollstab.read_rollout(a), rollstab.read_rollout(b)
        assert ra.data.tobytes() == rb.data.tobytes()
        assert np.array_equal(ra.timestamps, rb.timestamps)
        assert ra.step_seconds == rb.step_seconds == 86400

    @pytest.mark.parametrize("argv, message", [
        (["synth", "--regime", "STABLE", "--horizon-days", 60, "--grid", "8x64",
          "--step-seconds", 0], "step length must be positive"),
        (["synth", "--regime", "STABLE", "--horizon-days", 60, "--grid", "8x64",
          "--step-seconds", -3600], "step length must be positive"),
        (["perturb", "--steps", 4, "--step-seconds", 0], "step length must be positive"),
        (["perturb", "--steps", -5], "step count must be >= 0"),
    ])
    def test_bad_step_length_or_count_exit_2(self, tmp_path, synth_files, capsys, argv,
                                             message):
        if argv[0] == "perturb":
            argv = [*argv, "--adapter", f"synth:{synth_files['cfg']}"]
        out = tmp_path / "out.rgf"
        assert run_cli(*argv, "-o", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestExtremesCommand:
    def test_per_region_outputs(self, tmp_path, synth_files):
        outdir = tmp_path / "ext"
        regions = tmp_path / "regions.json"
        regions.write_text(json.dumps([
            {"name": "tropics", "lat_min": -20, "lat_max": 20,
             "lon_min": 0, "lon_max": 360},
        ]))
        rc = run_cli("extremes", "--input", synth_files["pred"],
                     "--reference", synth_files["ref"], "--variable", "T2m",
                     "--regions", regions, "--outdir", outdir)
        assert rc == 0
        assert (outdir / "tropics_qq.csv").exists()
        assert (outdir / "tropics_exceedance.csv").exists()
        assert (outdir / "tropics_events.csv").exists()
        summary = json.loads((outdir / "summary.json").read_text())
        assert "tropics" in summary["regions"]
        exc = (outdir / "tropics_exceedance.csv").read_text().splitlines()
        rows = [l for l in exc if not l.startswith("#")]
        assert rows[0] == "side,level,threshold,model_fraction,reference_fraction,ratio"
        assert len(rows) == 1 + 200 + 200  # header + hot P80..P99.9 + cold P0.1..P20

    def test_peak_memory_far_below_one_payload(self, tmp_path, monkeypatch):
        """extremes walks each input in time blocks and keeps only the region's
        cells, so with one small box its traced peak is a fraction of a payload."""
        grid = GridSpec.regular(32, 64)
        data = np.random.default_rng(0).standard_normal((2000, 1, 32, 64))
        path = tmp_path / "r.rgf"
        write_rollout(make_series(grid, data), path)
        payload = 2000 * 32 * 64 * 4  # 16 MB of float32
        del data
        regions = tmp_path / "regions.json"
        regions.write_text(json.dumps([{"name": "box", "lat_min": 30, "lat_max": 60,
                                        "lon_min": -20, "lon_max": 40}]))
        monkeypatch.setattr(rollstab.spectra, "BLOCK_BYTES", 64 * 32 * 64 * 8)
        tracemalloc.start()
        try:
            assert run_cli("extremes", "--input", path, "--reference", path,
                           "--variable", "T2m", "--regions", regions,
                           "--outdir", tmp_path / "ext") == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < payload / 4, (peak, payload)

    @pytest.mark.parametrize("regions, message", [
        ({"name": "x"}, "regions must be a JSON list of objects"),
        (["x"], "regions must be a JSON list of objects"),
        ([{"name": "box", "lat_min": 0, "lat_max": 10, "lon_min": 0, "lon_max": 10},
          {"name": "box", "lat_min": 20, "lat_max": 30, "lon_min": 0, "lon_max": 10}],
         "region 'box' is given twice"),
        ([{"name": "box", "lat_min": None, "lat_max": 10, "lon_min": 0, "lon_max": 10}],
         "region 'box': "),
        ([{"name": "box", "lat_max": 10, "lon_min": 0, "lon_max": 10}],
         "region 'box': missing key 'lat_min'"),
        ([{"name": "box", "lat_min": 0, "lat_max": 10, "lon_min": 0, "lon_max": 10, "x": 1}],
         "region 'box': unknown key 'x'"),
        ([{"name": "box", "lat_min": "0", "lat_max": 10, "lon_min": 0, "lon_max": 10}],
         "region 'box': lat_min: expected float, got '0'"),
        ([{"name": "box", "lat_min": 10, "lat_max": 0, "lon_min": 0, "lon_max": 10}],
         "region 'box': lat_min must be < lat_max"),
    ])
    def test_bad_regions_file_exit_2(self, tmp_path, synth_files, capsys, regions, message):
        path = tmp_path / "regions.json"
        path.write_text(json.dumps(regions))
        outdir = tmp_path / "ext"
        assert run_cli("extremes", "--input", synth_files["pred"], "--reference",
                       synth_files["ref"], "--variable", "T2m", "--regions", path,
                       "--outdir", outdir) == 2
        assert capsys.readouterr().err.startswith(f"rollstab: {path}: {message}")
        assert not outdir.exists()

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", ".", "..", ""])
    def test_region_name_must_be_a_file_stem(self, tmp_path, synth_files, capsys, name):
        path = tmp_path / "regions.json"
        path.write_text(json.dumps([{"name": name, "lat_min": -20, "lat_max": 20,
                                     "lon_min": 0, "lon_max": 360}]))
        outdir = tmp_path / "out" / "sub"
        assert run_cli("extremes", "--input", synth_files["pred"], "--reference",
                       synth_files["ref"], "--variable", "T2m", "--regions", path,
                       "--outdir", outdir) == 2
        assert capsys.readouterr().err.startswith(
            f"rollstab: {path}: region {name!r}: name must be a plain file-name stem")
        assert not (tmp_path / "out").exists()


class TestMemorizeCommand:
    def test_ratios_csv(self, tmp_path):
        grid = GridSpec.regular(8, 16)
        rng = np.random.default_rng(5)
        train = make_series(grid, rng.standard_normal((200, 1, 8, 16)),
                            start=datetime(1990, 1, 1), step_seconds=86400)
        roll = make_series(grid, rng.standard_normal((5, 1, 8, 16)),
                           start=datetime(1990, 3, 1), step_seconds=86400)
        tp, rp = tmp_path / "train.rgf", tmp_path / "roll.rgf"
        write_rollout(train, tp)
        write_rollout(roll, rp)
        out = tmp_path / "ratios.csv"
        assert run_cli("memorize", "--rollout", rp, "--index", tp, "-o", out) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "timestamp,ratio,d1,d2,first_neighbor,second_neighbor"
        assert len(rows) == 6


class TestReportCommand:
    def test_stable_run_fully_censored(self, tmp_path, synth_files):
        out = tmp_path / "report.json"
        csv = tmp_path / "report.csv"
        rc = run_cli("report", "--prediction", synth_files["pred"],
                     "--reference", synth_files["ref"], "--name", "stable",
                     "-o", out, "--csv", csv)
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["blowup"]["T2m"]["censored"] is True
        assert doc["seasonality"]["T2m"]["censored"] is True
        assert doc["small_scale"]["T2m"] is None  # 240-lon grid: unresolved
        body = [l for l in csv.read_text().splitlines() if not l.startswith("#")]
        assert body[0] == "run,metric,T2m"
        assert body[1] == "stable,blowup_days,>90"
        assert body[3] == "stable,small_scale,unresolved"

    def test_byte_deterministic(self, tmp_path, synth_files):
        out = tmp_path / "r.json"
        argv = ("report", "--prediction", synth_files["pred"],
                "--reference", synth_files["ref"], "-o", out)
        assert run_cli(*argv) == 0
        first = out.read_bytes()
        assert run_cli(*argv) == 0
        assert out.read_bytes() == first

    def test_blowup_run_detected_in_label_window(self, tmp_path, synth_files):
        pred = tmp_path / "blow.rgf"
        assert run_cli("synth", "--regime", "BLOWUP", "--delta", "0.1",
                       "--onset-days", "150", "--horizon-days", "730",
                       "--seed", "7", "--grid", "16x240", "-o", pred) == 0
        out = tmp_path / "rep.json"
        assert run_cli("report", "--prediction", pred,
                       "--reference", synth_files["ref"], "-o", out) == 0
        doc = json.loads(out.read_text())
        day = doc["blowup"]["T2m"]["day"]
        assert 150.0 <= day <= 170.0

    def test_no_shared_variables_exit_2(self, tmp_path, synth_files):
        other = tmp_path / "other.rgf"
        assert run_cli("synth", "--regime", "STABLE", "--horizon-days", 90,
                       "--variables", "Q100", "--grid", "16x240",
                       "-o", other) == 0
        assert run_cli("report", "--prediction", other,
                       "--reference", synth_files["pred"],
                       "-o", tmp_path / "x.json") == 2


class TestAggregateCommand:
    def test_aggregates_reports(self, tmp_path, synth_files):
        reports = []
        for i, days in enumerate((90, 90)):
            rep = tmp_path / f"rep{i}.json"
            assert run_cli("report", "--prediction", synth_files["pred"],
                           "--reference", synth_files["ref"],
                           "--name", f"run{i}", "-o", rep) == 0
            reports.append(rep)
        out = tmp_path / "agg.json"
        csv = tmp_path / "agg.csv"
        assert run_cli("aggregate", *reports, "-o", out, "--csv", csv) == 0
        doc = json.loads(out.read_text())
        entry = doc["metrics"]["blowup_day"]["T2m"]
        assert entry["mean"] == 90.0 and entry["std"] == 0.0


def _report_doc():
    """A report JSON with an uncensored blow-up, a censored seasonality entry
    and resolved small-scale ratios, so every kind of key appears."""
    return {
        "name": "r", "horizon_days": 90.0, "variables": ["T2m"],
        "blowup": {"T2m": {"censored": False, "day": 41.0, "triggered_by": "max",
                           "r2": 0.97, "slope_sign": 1}},
        "seasonality": {"T2m": {"censored": True, "horizon": 90.0, "multiplier": 2.0,
                                "run_length": None}},
        "small_scale": {"T2m": {"ratio_vs_reference": 1.5, "ratio_vs_self": 2.0,
                                "window_days": 30.0, "truncated": False}},
        "manifest": {"tool": "rollstab"},
    }


def _at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


_REPORT_KEYS = [
    ("name",), ("horizon_days",), ("variables",), ("blowup",), ("seasonality",),
    ("small_scale",), ("blowup", "T2m"), ("seasonality", "T2m"), ("small_scale", "T2m"),
    *(("blowup", "T2m", k) for k in ("censored", "day", "triggered_by", "r2", "slope_sign")),
    *(("seasonality", "T2m", k) for k in ("censored", "horizon", "multiplier", "run_length")),
    *(("small_scale", "T2m", k)
      for k in ("ratio_vs_reference", "ratio_vs_self", "window_days", "truncated")),
]


class TestAggregateReadsReportsStrictly:
    """aggregate takes every key of a report as written and invents none."""

    def _aggregate(self, tmp_path, doc):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(_report_doc()))
        bad.write_text(json.dumps(doc))
        out = tmp_path / "agg.json"
        rc = run_cli("aggregate", good, bad, "-o", out)
        return rc, out

    def test_report_as_written_is_read(self, tmp_path):
        rc, out = self._aggregate(tmp_path, _report_doc())
        assert rc == 0
        assert json.loads(out.read_text())["metrics"]["blowup_day"]["T2m"]["mean"] == 41.0

    @pytest.mark.parametrize("path", _REPORT_KEYS, ids="/".join)
    def test_missing_key_exit_2(self, tmp_path, capsys, path):
        doc = _report_doc()
        del _at(doc, path[:-1])[path[-1]]
        rc, out = self._aggregate(tmp_path, doc)
        assert rc == 2
        assert f"missing key {path[-1]!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path", sorted({p[:-1] for p in _REPORT_KEYS}),
                             ids=lambda p: "/".join(p) or "top")
    def test_unknown_key_exit_2(self, tmp_path, capsys, path):
        doc = _report_doc()
        _at(doc, path)["bogus"] = 1
        rc, out = self._aggregate(tmp_path, doc)
        assert rc == 2
        assert "unknown key 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path, value, message", [
        (("variables",), 5, "report: variables must be a list of names"),
        (("variables",), [["T2m"]], "report: variables must be a list of names"),
        (("blowup",), [], "blowup: expected a JSON object, got list"),
        (("blowup", "T2m"), None, "blowup['T2m']: expected a JSON object, got NoneType"),
    ])
    def test_malformed_value_exit_2(self, tmp_path, capsys, path, value, message):
        doc = _report_doc()
        _at(doc, path[:-1])[path[-1]] = value
        rc, out = self._aggregate(tmp_path, doc)
        assert rc == 2
        assert capsys.readouterr().err == f"rollstab: {tmp_path / 'bad.json'}: {message}\n"
        assert not out.exists()


class TestEverySubcommandByteStable:
    def test_rerun_reproduces_bytes(self, tmp_path, synth_files):
        """Each subcommand, run twice with one argv, emits identical bytes."""
        d = tmp_path
        pred, ref = synth_files["pred"], synth_files["ref"]
        grid = GridSpec.regular(8, 16)
        rng = np.random.default_rng(5)
        train = make_series(grid, rng.standard_normal((120, 1, 8, 16)),
                            start=datetime(1990, 1, 1), step_seconds=86400)
        roll = make_series(grid, rng.standard_normal((3, 1, 8, 16)),
                           start=datetime(1990, 2, 1), step_seconds=86400)
        write_rollout(train, d / "train.rgf")
        write_rollout(roll, d / "roll.rgf")
        cfg = RegimeConfig(regime="STABLE", grid=GridSpec.regular(8, 64), seed=4)
        (d / "cfg.json").write_text(json.dumps(config_to_dict(cfg)))
        (d / "regions.json").write_text(json.dumps(
            [{"name": "tropics", "lat_min": -20, "lat_max": 20,
              "lon_min": 0, "lon_max": 360}]))
        rep = d / "rep.json"
        assert run_cli("report", "--prediction", pred, "--reference", ref,
                       "-o", rep) == 0

        year = make_series(grid, rng.standard_normal((365 * 4, 1, 8, 16)),
                           start=datetime(2021, 1, 1))
        write_rollout(year, d / "year.rgf")
        cases = {
            "synth": (["synth", "--regime", "STABLE", "--horizon-days", "60",
                       "--grid", "8x64", "--seed", "2", "-o", d / "s.rgf",
                       "--labels", d / "s.json"],
                      [d / "s.rgf", d / "s.json"]),
            "cycle-rmse": (["cycle-rmse", "--input", d / "year.rgf",
                            "--reference", d / "year.rgf", "--variable", "T2m",
                            "-o", d / "c.json"], [d / "c.json"]),
            "spectra": (["spectra", "--input", pred, "--variable", "T2m",
                         "-o", d / "sp.csv"], [d / "sp.csv"]),
            "blowup": (["blowup", "--input", pred, "--variable", "T2m",
                        "-o", d / "b.json"], [d / "b.json"]),
            "seasonality": (["seasonality", "--input", pred, "--variable",
                             "T2m", "--reference", ref, "-o", d / "se.json"],
                            [d / "se.json"]),
            "perturb": (["perturb", "--adapter", f"synth:{d / 'cfg.json'}",
                         "--kind", "white", "--k", "1", "--seed", "3",
                         "--stats-from", pred, "--steps", "4",
                         "-o", d / "p.rgf"], [d / "p.rgf"]),
            "extremes": (["extremes", "--input", pred, "--reference", ref,
                          "--variable", "T2m", "--regions", d / "regions.json",
                          "--outdir", d / "ext"],
                         [d / "ext" / "tropics_qq.csv",
                          d / "ext" / "summary.json"]),
            "memorize": (["memorize", "--rollout", d / "roll.rgf", "--index",
                          d / "train.rgf", "-o", d / "m.csv"], [d / "m.csv"]),
            "report": (["report", "--prediction", pred, "--reference", ref,
                        "-o", d / "r.json", "--csv", d / "r.csv"],
                       [d / "r.json", d / "r.csv"]),
            "aggregate": (["aggregate", str(rep), str(rep), "-o", d / "a.json",
                           "--csv", d / "a.csv"], [d / "a.json", d / "a.csv"]),
        }
        fine = GridSpec.regular(16, 384)
        for i in range(2):
            write_rollout(make_series(fine, rng.standard_normal((241, 1, 16, 384))),
                          d / f"fine{i}.rgf")
        cases.update({
            "spectra-daily-full": (["spectra", "--input", pred, "--variable", "T2m", "--daily",
                                    "-o", d / "spd.csv", "--full-output", d / "spf.csv"],
                                   [d / "spd.csv", d / "spf.csv"]),
            "seasonality-save-envelope": (["seasonality", "--input", pred, "--variable", "T2m",
                                           "--reference", ref, "--save-envelope", d / "e.json",
                                           "-o", d / "se2.json"],
                                          [d / "e.json", d / "se2.json"]),
            "blowup-csv": (["blowup", "--min-csv", synth_files["min"],
                            "--max-csv", synth_files["max"], "-o", d / "bc.json"],
                           [d / "bc.json"]),
            "smallscale": (["smallscale", "--input", d / "fine0.rgf", "--reference",
                            d / "fine1.rgf", "--variable", "T2m", "-o", d / "ss.json"],
                           [d / "ss.json"]),
        })
        for name, (argv, outputs) in cases.items():
            assert run_cli(*argv) == 0, name
            first = [p.read_bytes() for p in outputs]
            assert run_cli(*argv) == 0, name
            second = [p.read_bytes() for p in outputs]
            assert first == second, f"{name} output not byte-stable"


class TestThreadCountByteStable:
    def test_unset_and_one_thread_agree(self, tmp_path, synth_files, monkeypatch):
        """ROLLOUT_STAB_THREADS sets the FFT workers; with it unset or 1, and
        each read hashing its blocks on a helper thread, the bytes are the same."""
        pred, ref = synth_files["pred"], synth_files["ref"]
        regions = tmp_path / "regions.json"
        regions.write_text(json.dumps([{"name": "across_0", "lat_min": 20, "lat_max": 70,
                                        "lon_min": -30, "lon_max": 40}]))
        monkeypatch.setattr(rollstab.spectra, "BLOCK_BYTES", 50 * 16 * 240 * 8)  # 50 steps
        out = tmp_path / "out"
        runs = [
            ["extremes", "--input", pred, "--reference", ref, "--variable", "T2m",
             "--regions", regions, "--outdir", out / "ext"],
            ["report", "--prediction", pred, "--reference", ref, "-o", out / "r.json",
             "--csv", out / "r.csv"],
            ["perturb", "--adapter", f"synth:{synth_files['cfg']}", "--kind", "grf",
             "--k", "0.5", "--correlation-length", "10", "--stats-from", ref,
             "--steps", "8", "--seed", "3", "-o", out / "p.rgf"],
        ]
        outputs = []
        for threads in (None, "1"):
            if threads is None:
                monkeypatch.delenv("ROLLOUT_STAB_THREADS", raising=False)
            else:
                monkeypatch.setenv("ROLLOUT_STAB_THREADS", threads)
            for argv in runs:
                assert run_cli(*argv) == 0, argv[0]
            outputs.append({p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(outputs[0]) == 4 + 2 + 1  # extremes' 3 CSVs and summary, report's 2, one RGF
        assert outputs[0] == outputs[1]


def _manifest_inputs(path):
    if path.suffix == ".rgf":
        return rollstab.read_rollout(path).attrs["manifest"]["inputs"]
    if path.suffix == ".csv":
        line = next(x for x in path.read_text().splitlines() if x.startswith("# manifest: "))
        return json.loads(line.removeprefix("# manifest: "))["inputs"]
    return json.loads(path.read_text())["manifest"]["inputs"]


class TestManifestInputs:
    """Each input the run used is listed once, under a fixed key."""

    @pytest.mark.parametrize("case", [
        "blowup-rgf", "blowup-csv", "seasonality-envelope", "seasonality-reference",
        "perturb", "aggregate", "synth-regime-config", "synth-regime-config-labels",
    ])
    def test_input_keys(self, tmp_path, synth_files, case):
        f = synth_files
        out = tmp_path / ("out.rgf" if case.startswith(("perturb", "synth")) else "out.json")
        rep = tmp_path / "rep.json"
        argv, keys = {
            "blowup-rgf": (["blowup", "--input", f["pred"], "--variable", "T2m"], {"input"}),
            "blowup-csv": (["blowup", "--min-csv", f["min"], "--max-csv", f["max"]],
                           {"min_csv", "max_csv"}),
            "seasonality-envelope": (["seasonality", "--input", f["pred"], "--variable", "T2m",
                                      "--envelope", f["env"]], {"input", "envelope"}),
            "seasonality-reference": (["seasonality", "--input", f["pred"], "--variable", "T2m",
                                       "--reference", f["ref"]], {"input", "reference"}),
            "perturb": (["perturb", "--adapter", f"synth:{f['cfg']}", "--kind", "white",
                         "--stats-from", f["pred"], "--steps", "2"], {"adapter", "stats_from"}),
            "aggregate": (["aggregate", rep, rep], {"report_0", "report_1"}),
            "synth-regime-config": (["synth", "--regime-config", f["cfg"],
                                     "--horizon-days", "60"], {"regime_config"}),
            "synth-regime-config-labels": (["synth", "--regime-config", f["cfg"],
                                            "--horizon-days", "60", "--labels", rep],
                                           {"regime_config"}),
        }[case]
        if case == "aggregate":
            assert run_cli("report", "--prediction", f["pred"], "--reference", f["ref"],
                           "-o", rep) == 0
        assert run_cli(*argv, "-o", out) == 0
        inputs = _manifest_inputs(rep if case.endswith("labels") else out)
        assert set(inputs) == keys
        if case == "perturb":
            assert inputs["adapter"]["path"] == str(f["cfg"])  # no "synth:" prefix


class TestRejectedFlagPairs:
    """A flag the run would ignore is an input error, not silently dropped."""

    @pytest.mark.parametrize("case", [
        "blowup-input-csv", "blowup-variable-csv", "seasonality-envelope-reference",
        "perturb-stats-without-kind",
    ])
    def test_exit_2_naming_both_flags(self, tmp_path, synth_files, capsys, case):
        f = synth_files
        argv, flags = {
            "blowup-input-csv": (["blowup", "--input", f["pred"], "--variable", "T2m",
                                  "--min-csv", f["min"], "--max-csv", f["max"]],
                                 ("--input", "--min-csv")),
            "blowup-variable-csv": (["blowup", "--variable", "T2m", "--min-csv", f["min"],
                                     "--max-csv", f["max"]], ("--variable", "--min-csv")),
            "seasonality-envelope-reference": (["seasonality", "--input", f["pred"],
                                                "--variable", "T2m", "--envelope", f["env"],
                                                "--reference", f["ref"]],
                                               ("--envelope", "--reference")),
            "perturb-stats-without-kind": (["perturb", "--adapter", f"synth:{f['cfg']}",
                                            "--stats-from", f["pred"], "--steps", "2"],
                                           ("--stats-from", "--kind")),
        }[case]
        out = tmp_path / "out"
        assert run_cli(*argv, "-o", out) == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags), err
        assert not out.exists()


class TestPerturbFlagsWithoutKind:
    """Flags only --kind uses are rejected without it."""

    @pytest.mark.parametrize("extra, named", [
        (["--k", "3"], ["--k"]),
        (["--correlation-length", "50"], ["--correlation-length"]),
        (["--target", "both"], ["--target"]),
        (["--k", "3", "--correlation-length", "50", "--target", "both"],
         ["--k", "--correlation-length", "--target"]),
        (["--k", "3", "--time-shift-days", "1"], ["--k", "--kind"]),
        (["--target", "static", "--time-shift-days", "1"], ["--target", "--kind"]),
        (["--seed", "4"], ["--seed", "--kind"]),
        (["--seed", "4", "--time-shift-days", "1"], ["--seed", "--kind"]),
    ])
    def test_exit_2_naming_the_flags(self, tmp_path, synth_files, capsys, extra, named):
        out = tmp_path / "out.rgf"
        assert run_cli("perturb", "--adapter", f"synth:{synth_files['cfg']}", "--steps", "2",
                       *extra, "-o", out) == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in named), err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        [], ["--time-shift-days", "1"],
        ["--kind", "grf", "--k", "3", "--correlation-length", "50", "--target", "both",
         "--seed", "4"],
    ])
    def test_valid_runs_record_every_value_used(self, tmp_path, synth_files, extra):
        out = tmp_path / "out.rgf"
        stats = ["--stats-from", synth_files["pred"]] if "--kind" in extra else []
        assert run_cli("perturb", "--adapter", f"synth:{synth_files['cfg']}", "--steps", "2",
                       *extra, *stats, "-o", out) == 0
        params = rollstab.read_rollout(out).attrs["manifest"]["params"]
        given = dict(zip(extra[::2], extra[1::2]))
        assert params["k"] == float(given.get("--k", 1.0))
        assert params["correlation_length"] == float(given.get("--correlation-length", 10.0))
        assert params["target"] == given.get("--target", "dynamic")
        assert params["seed"] == int(given.get("--seed", 0))


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestDigestsFromTheRead:
    """Each RGF input's manifest digest, taken while reading it, is the file's SHA-256."""

    @pytest.mark.parametrize("case", [
        "report", "extremes", "memorize", "spectra", "blowup", "seasonality", "smallscale",
        "perturb", "cycle-rmse",
    ])
    def test_digest_equals_file_sha256(self, tmp_path, synth_files, case):
        f = synth_files
        out = tmp_path / {"perturb": "out.rgf", "memorize": "out.csv", "spectra": "out.csv",
                          "extremes": "ext/summary.json"}.get(case, "out.json")
        init, year = tmp_path / "init.rgf", tmp_path / "year.rgf"
        if case == "perturb":
            assert run_cli("synth", "--regime-config", f["cfg"], "--horizon-days", "60",
                           "-o", init) == 0
        if case == "smallscale":  # a grid that resolves the small band
            assert run_cli("synth", "--grid", "8x384", "--horizon-days", "60", "-o", init) == 0
        if case == "cycle-rmse":  # whole calendar months
            write_rollout(make_series(GridSpec.regular(4, 8), np.random.default_rng(0)
                                      .standard_normal((365 * 4, 1, 4, 8))), year)
        argv, inputs = {
            "report": (["report", "--prediction", f["pred"], "--reference", f["ref"]],
                       {"prediction": f["pred"], "reference": f["ref"]}),
            "extremes": (["extremes", "--input", f["pred"], "--reference", f["ref"],
                          "--variable", "T2m", "--outdir", tmp_path / "ext"],
                         {"input": f["pred"], "reference": f["ref"]}),
            "memorize": (["memorize", "--rollout", f["pred"], "--index", f["pred"]],
                         {"rollout": f["pred"], "index": f["pred"]}),
            "spectra": (["spectra", "--input", f["pred"], "--variable", "T2m"],
                        {"input": f["pred"]}),
            "blowup": (["blowup", "--input", f["pred"], "--variable", "T2m"],
                       {"input": f["pred"]}),
            "seasonality": (["seasonality", "--input", f["pred"], "--variable", "T2m",
                             "--reference", f["ref"]],
                            {"input": f["pred"], "reference": f["ref"]}),
            "smallscale": (["smallscale", "--input", init, "--reference", init,
                            "--variable", "T2m"], {"input": init, "reference": init}),
            "perturb": (["perturb", "--adapter", f"synth:{f['cfg']}", "--init", init,
                         "--kind", "white", "--stats-from", f["pred"], "--steps", "2"],
                        {"init": init, "stats_from": f["pred"]}),
            "cycle-rmse": (["cycle-rmse", "--input", year, "--reference", year,
                            "--variable", "T2m"], {"input": year, "reference": year}),
        }[case]
        want = {name: _sha(p) for name, p in inputs.items()}
        assert run_cli(*argv, *([] if case == "extremes" else ["-o", out])) == 0
        got = _manifest_inputs(out)
        assert {name: got[name]["sha256"] for name in inputs} == want

    def test_perturb_init_overwritten_in_place_records_the_old_digest(self, tmp_path,
                                                                      synth_files):
        x = tmp_path / "x.rgf"
        assert run_cli("synth", "--regime-config", synth_files["cfg"], "--horizon-days", "60",
                       "-o", x) == 0
        before = _sha(x)
        assert run_cli("perturb", "--adapter", f"synth:{synth_files['cfg']}", "--init", x,
                       "--steps", "2", "-o", x) == 0
        assert _sha(x) != before
        assert _manifest_inputs(x)["init"]["sha256"] == before


class TestIncompleteInputs:
    """A fill-value cell fails the detectors, a NaN without a fill value fails the
    read: the same error, message and exit code however the file is walked."""

    @pytest.fixture(scope="class")
    def holed(self, synth_files, tmp_path_factory):
        d = tmp_path_factory.mktemp("holed")
        for name in ("pred", "ref"):
            r = rollstab.read_rollout(synth_files[name])
            data = r.data.copy()
            data[r.n_time // 2, 0, 3, 5] = np.nan
            write_rollout(RolloutSeries(grid=r.grid, variables=r.variables,
                                        start_time=r.start_time, data=data,
                                        fill_value=-9e30), d / f"{name}_fill.rgf")
            raw = bytearray(synth_files[name].read_bytes())
            raw[-400:-396] = np.float32(np.nan).tobytes()
            (d / f"{name}_nan.rgf").write_bytes(bytes(raw))
        return {"dir": d, **{k: v for k, v in synth_files.items() if k in ("pred", "ref", "cfg")}}

    @pytest.mark.parametrize("case", [
        "report-pred", "report-ref", "blowup", "spectra", "seasonality-input",
        "seasonality-reference", "smallscale", "extremes-input", "extremes-reference",
        "memorize-rollout", "memorize-index", "perturb-stats-from",
    ])
    @pytest.mark.parametrize("hole", ["fill", "nan"])
    def test_error_and_exit_code(self, tmp_path, holed, capsys, case, hole):
        d = holed["dir"]
        pred, ref = holed["pred"], holed["ref"]
        bad_pred, bad_ref = d / f"pred_{hole}.rgf", d / f"ref_{hole}.rgf"
        argv, bad = {
            "report-pred": (["report", "--prediction", bad_pred, "--reference", ref], bad_pred),
            "report-ref": (["report", "--prediction", pred, "--reference", bad_ref], bad_ref),
            "blowup": (["blowup", "--input", bad_pred, "--variable", "T2m"], bad_pred),
            "spectra": (["spectra", "--input", bad_pred, "--variable", "T2m"], bad_pred),
            "seasonality-input": (["seasonality", "--input", bad_pred, "--reference", ref,
                                   "--variable", "T2m"], bad_pred),
            "seasonality-reference": (["seasonality", "--input", pred, "--reference", bad_ref,
                                       "--variable", "T2m"], bad_ref),
            "smallscale": (["smallscale", "--input", bad_pred, "--reference", ref,
                            "--variable", "T2m"], bad_pred),
            "extremes-input": (["extremes", "--input", bad_pred, "--reference", ref,
                                "--variable", "T2m"], bad_pred),
            "extremes-reference": (["extremes", "--input", pred, "--reference", bad_ref,
                                    "--variable", "T2m"], bad_ref),
            "memorize-rollout": (["memorize", "--rollout", bad_pred, "--index", ref], bad_pred),
            "memorize-index": (["memorize", "--rollout", pred, "--index", bad_ref], bad_ref),
            "perturb-stats-from": (["perturb", "--adapter", f"synth:{holed['cfg']}",
                                    "--kind", "white", "--stats-from", bad_ref,
                                    "--steps", 2], bad_ref),
        }[case]
        out = tmp_path / "out.json"
        assert run_cli(*argv, "--outdir" if case.startswith("extremes") else "-o", out) == 2
        want = ("variable 'T2m' contains fill/NaN values; detectors require complete fields"
                if hole == "fill" else
                f"{bad}: invalid header or payload: "
                "non-finite values present but no fill value declared")
        assert capsys.readouterr().err == f"rollstab: {want}\n"
        assert not out.exists()

    def test_types_from_build_report(self, holed):
        d = holed["dir"]
        with rollstab.gridio.RolloutFile(d / "pred_fill.rgf") as p, \
                rollstab.gridio.RolloutFile(holed["ref"]) as r:
            with pytest.raises(rollstab.gridio.IncompleteFieldError):
                rollstab.build_report(p, r)
        with rollstab.gridio.RolloutFile(d / "pred_nan.rgf") as p, \
                rollstab.gridio.RolloutFile(holed["ref"]) as r:
            with pytest.raises(rollstab.gridio.FormatError, match=re.escape(str(d))):
                rollstab.build_report(p, r)


class TestCliSurface:
    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for sub in ("synth", "spectra", "blowup", "seasonality", "smallscale",
                    "cycle-rmse", "perturb", "extremes", "memorize",
                    "aggregate", "report"):
            assert sub in out

    def test_subcommand_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--regime", "--horizon-days", "--seed", "--labels"):
            assert flag in out

    def test_invalid_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--no-such-flag", "1", "-o", "x.rgf"])
        assert exc.value.code == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert run_cli("spectra", "--input", tmp_path / "absent.rgf",
                       "--variable", "T2m", "-o", tmp_path / "x.csv") == 2

    def test_config_file_sets_defaults(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"horizon-days": 60, "grid": "8x64",
                                    "seed": 9}))
        out = tmp_path / "from_config.rgf"
        assert run_cli("synth", "--config", conf, "-o", out) == 0
        r = rollstab.read_rollout(out)
        assert r.n_time == 241
        assert r.grid.n_lon == 64

    def test_config_equals_form_rejected(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"horizon-days": 60}))
        out = tmp_path / "x.rgf"
        assert run_cli("synth", f"--config={conf}", "-o", out) == 2
        assert "--config" in capsys.readouterr().err
        assert not out.exists()

    def test_config_unknown_key_rejected(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"horizon-days": 60, "grdi": "8x64"}))
        out = tmp_path / "x.rgf"
        assert run_cli("synth", "--config", conf, "-o", out) == 2
        assert "'grdi'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_key_of_another_subcommand_rejected(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"horizon-days": 60, "csv": "t.csv"}))
        assert run_cli("synth", "--config", conf, "-o", tmp_path / "x.rgf") == 2
        assert "'csv'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0", "-1"])
    def test_bad_thread_count_exit_2(self, synth_files, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("ROLLOUT_STAB_THREADS", value)
        out = tmp_path / "s.csv"
        assert run_cli("spectra", "--input", synth_files["pred"], "--variable", "T2m",
                       "-o", out) == 2
        err = capsys.readouterr().err
        assert "ROLLOUT_STAB_THREADS" in err and repr(value) in err
        assert not out.exists()

    def test_entry_point_runs(self):
        res = subprocess.run([sys.executable, "-m", "rollstab.cli", "--version"],
                             capture_output=True, text=True)
        assert res.returncode == 0
        assert "rollstab" in res.stdout


def _numbers():
    return st.integers(-10**6, 10**6) | st.floats(allow_nan=False, allow_infinity=False)


_START_TIMES = st.sampled_from(["2021-01-01", "2021-03-01T06:00:00"])
# typed flags of synth and perturb with valid values; the required ones first
_TYPED_FLAGS = {
    "synth": ({"horizon-days": st.integers(60, 10**4) | st.floats(60, 1e4)}, {
        "regime": st.sampled_from(synth.REGIMES), "grid": st.sampled_from(["4x8", "16x240"]),
        "variables": st.sampled_from(["T2m", "T2m,Z500"]), "g-large": _numbers(),
        "g-small": _numbers(), "tau-days": _numbers(), "noise": _numbers(),
        "noise-small": _numbers(), "blowup-band": st.sampled_from(spectra.BANDS),
        "start-time": _START_TIMES, "step-seconds": st.integers(1, 86400),
        "seed": st.integers(0, 2**32 - 1), "labels": st.just("l.json"),
    }),
    "perturb": ({"adapter": st.just("synth:cfg.json"), "steps": st.integers(0, 10**4)}, {
        "kind": st.sampled_from(["white", "grf", "pure_noise"]), "k": _numbers(),
        "correlation-length": _numbers(), "target": st.sampled_from(perturb.TARGETS),
        "time-shift-days": _numbers(), "stats-from": st.just("ref.rgf"),
        "start-time": _START_TIMES, "step-seconds": st.integers(1, 86400),
        "seed": st.integers(0, 2**32 - 1),
    }),
}


class TestConfigFile:
    """``--config`` values are spliced in as flags, so argparse checks each one."""

    @pytest.mark.parametrize("argv, config", [
        (["synth", "--grid", "4x8", "--horizon-days", "60"], {"labels": True}),
        (["synth", "--grid", "4x8"], {"horizon-days": [60]}),
        (["synth", "--horizon-days", "60"], {"grid": 16}),
        (["perturb", "--adapter", "synth:CFG"], {"steps": 2.5}),
        (["perturb", "--adapter", "synth:CFG", "--steps", "1", "--stats-from", "REF"],
         {"kind": "WHITE"}),
    ], ids=["bool_for_path", "list", "number_for_grid", "float_for_int", "bad_choice"])
    def test_value_checked_as_its_flag(self, tmp_path, synth_files, argv, config):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(config))
        out = tmp_path / "x.rgf"
        argv = [a.replace("CFG", str(synth_files["cfg"])).replace("REF", str(synth_files["pred"]))
                for a in argv]
        res = subprocess.run([sys.executable, "-m", "rollstab.cli", *argv, "--config", str(conf),
                              "-o", str(out)], capture_output=True, text=True)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr and next(iter(config)) in res.stderr, res.stderr
        assert res.stdout == ""
        assert not out.exists()

    def test_true_or_false_selects_a_switch(self, tmp_path, synth_files):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"daily": True}))
        spectra_argv = ["spectra", "--input", synth_files["pred"], "--variable", "T2m", "-o"]
        assert run_cli(*spectra_argv, tmp_path / "a.csv", "--config", conf) == 0
        assert run_cli(*spectra_argv, tmp_path / "b.csv", "--daily") == 0
        rows = [[l for l in (tmp_path / f).read_text().splitlines() if not l.startswith("#")]
                for f in ("a.csv", "b.csv")]
        assert rows[0] == rows[1]

        conf.write_text(json.dumps({"match-window": False}))
        regions = tmp_path / "regions.json"
        regions.write_text(json.dumps([{"name": "tropics", "lat_min": -20, "lat_max": 20,
                                        "lon_min": 0, "lon_max": 360}]))
        extremes_argv = ["extremes", "--input", synth_files["pred"], "--reference",
                         synth_files["ref"], "--variable", "T2m", "--regions", regions,
                         "--outdir"]
        summaries = []
        for d, extra in (("c", ["--config", conf]), ("f", ["--no-match-window"]), ("w", [])):
            assert run_cli(*extremes_argv, tmp_path / d, *extra) == 0
            summaries.append(json.loads((tmp_path / d / "summary.json").read_text()))
        assert summaries[0]["manifest"]["params"]["match_window"] is False
        assert summaries[0]["regions"] == summaries[1]["regions"] != summaries[2]["regions"]

    @pytest.mark.parametrize("subcommand, config", [
        ("spectra", {"daily": "yes"}), ("spectra", {"daily": 1}),
        ("extremes", {"match-window": 0}),
    ])
    def test_switch_takes_only_true_or_false(self, tmp_path, synth_files, capsys, subcommand,
                                             config):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(config))
        out = tmp_path / "out"
        argv = {"spectra": ["-o", out],
                "extremes": ["--reference", synth_files["ref"], "--outdir", out]}[subcommand]
        assert run_cli(subcommand, "--config", conf, "--input", synth_files["pred"],
                       "--variable", "T2m", *argv) == 2
        key, value = next(iter(config.items()))
        assert capsys.readouterr().err == (
            f"rollstab: {conf}: config key {key!r}: expected true or false, got {value!r}\n")
        assert not out.exists()

    def test_integer_for_a_float_flag_is_recorded_as_a_float(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"horizon-days": 60, "grid": "4x8"}))
        out = tmp_path / "x.rgf"
        assert run_cli("synth", "--config", conf, "-o", out) == 0
        horizon = rollstab.read_rollout(out).attrs["manifest"]["params"]["horizon_days"]
        assert horizon == 60.0 and isinstance(horizon, float)

    def test_null_keeps_the_default_and_the_command_line_wins(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"horizon-days": 60, "grid": "4x8", "seed": None,
                                    "init-std": 2.0}))
        out = tmp_path / "x.rgf"
        assert run_cli("synth", "--config", conf, "--init-std", "0.5", "-o", out) == 0
        params = rollstab.read_rollout(out).attrs["manifest"]["params"]
        assert (params["seed"], params["init_std"]) == (0, 0.5)

    def test_positional_is_not_a_config_key(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"reports": ["a.json"]}))
        assert run_cli("aggregate", "--config", conf, "b.json", "-o", tmp_path / "x.json") == 2
        assert capsys.readouterr().err == (
            f"rollstab: {conf}: config key 'reports' is not a flag of 'rollstab aggregate'\n")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("subcommand", sorted(_TYPED_FLAGS))
    def test_config_parses_like_the_command_line(self, tmp_path_factory, subcommand, data):
        required, optional = _TYPED_FLAGS[subcommand]
        values = data.draw(st.fixed_dictionaries(required, optional=optional))
        conf = tmp_path_factory.getbasetemp() / f"{subcommand}-conf.json"
        conf.write_text(json.dumps(values))
        parser, sps = build_parser()
        argv = [subcommand, "--config", str(conf), "-o", "o.rgf"]
        _apply_config(argv, sps)
        from_config = vars(parser.parse_args(argv))
        typed = [f"--{key}={value}" for key, value in values.items()]
        from_flags = vars(build_parser()[0].parse_args([subcommand, *typed, "-o", "o.rgf"]))
        # equal values of equal types: the manifest records 60 and 60.0 differently
        assert ({k: (type(v), v) for k, v in from_config.items()}
                == {k: (type(v), v) for k, v in (from_flags | {"config": str(conf)}).items()})
